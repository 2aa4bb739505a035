package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"across/internal/trace"
)

// streamDigest is the SHA-256 of everything Generate decides: the cohort
// table, then every request's fields in stream order.
func streamDigest(st *Stream) string {
	h := sha256.New()
	var b [8]byte
	i64 := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	h.Write([]byte(st.Scenario))
	i64(st.LogicalSectors)
	i64(int64(len(st.Cohorts)))
	for _, c := range st.Cohorts {
		h.Write([]byte(c.Name))
		i64(c.Requests)
		i64(c.StartSector)
		i64(c.Sectors)
	}
	i64(int64(len(st.Requests)))
	for _, r := range st.Requests {
		i64(int64(math.Float64bits(r.Time)))
		i64(int64(r.Op))
		i64(r.Offset)
		i64(int64(r.Count))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenTrace is a recorded stream for a trace cohort: offsets spread past
// any partition, and runs of equal arrival times.
func goldenTrace() []trace.Request {
	reqs := make([]trace.Request, 700)
	for i := range reqs {
		reqs[i] = trace.Request{
			Time:   float64(i / 3),
			Op:     trace.Op(i % 2),
			Offset: int64(i) * 1003,
			Count:  int32(i%24) + 1,
		}
	}
	return reqs
}

// TestGenerateGoldenDigests pins Generate's output, request for request,
// to digests taken before its cohorts were merged as they were drawn: every
// builtin at two scales, a seed offset, and a recorded trace beside a
// synthetic tenant.
func TestGenerateGoldenDigests(t *testing.T) {
	builtin := func(name string, scale float64) Scenario {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		return sc.Scale(scale)
	}
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"burst/0.001", builtin("burst", 0.001), "4860fb43f916468bf22ee55fe021bea531619183743da0dfedc88e01d2850463"},
		{"burst/0.02", builtin("burst", 0.02), "4e6a529096cdb628dfbf91bbf81d958e3714fd8508c8609beff98097ec027c58"},
		{"daynight/0.001", builtin("daynight", 0.001), "5fb0f13b8355d81f522a97d89a7efb799e67846bfa5d769ca5fa41e61e79c3a6"},
		{"daynight/0.02", builtin("daynight", 0.02), "883adbab5daead89e6af49b7defdedeea7f3e112430e13389d6d25f7814e30df"},
		{"mixed/0.001", builtin("mixed", 0.001), "8c3c848781ea97082baeabb75b518fdf46ce35270e76ebd75e111dd37f301f3d"},
		{"mixed/0.02", builtin("mixed", 0.02), "1f56482fe1f00aa21466bf9f879d8792acdb2311421cef47b6dc6527f1f5fc87"},
		{"stationary/0.001", builtin("stationary", 0.001), "8e8c686fa1c7365b80608b901a52761d1ac3e4b06b2763ffc3a89a703e1c634a"},
		{"stationary/0.02", builtin("stationary", 0.02), "9a7cf2499d73edc484bea1f4ec5153dfa0bdfd766ed7f99a411aa8e9a1b676a0"},
		{"mixed/0.001/seed+7", builtin("mixed", 0.001).WithSeedOffset(7), "c7133c0c95c4ea0d7ac78da8d98f50a59adce019c1beb914761c1ea03256875d"},
		{"trace+synthetic", Scenario{Name: "rec+syn", Cohorts: []Cohort{
			{Name: "rec", Trace: goldenTrace(), TraceName: "rec", StartFrac: 0.25, SizeFrac: 0.25, StartMs: 3},
			{Name: "syn", Profile: tinyProfile(11), StartFrac: 0.5, SizeFrac: 0.5},
		}}, "603582f66cb399d0f9c0ceb78e75d117dcd873d5830f09354e6cedff022b153d"},
	}
	if got := len(Names()); got != 4 {
		t.Fatalf("%d builtins; pin the new ones", got)
	}
	for _, tc := range cases {
		st, err := tc.sc.Generate(testSectors)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := streamDigest(st); got != tc.want {
			t.Errorf("%s: %d requests, digest %s, want %s", tc.name, len(st.Requests), got, tc.want)
		}
	}
}
