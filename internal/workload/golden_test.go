package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"across/internal/ssdconf"
	"across/internal/trace"
)

// digest is the SHA-256 of a request stream, each request as its time's
// bits, offset, count and op in little-endian.
func digest(reqs []trace.Request) string {
	h := sha256.New()
	var rec [21]byte
	for _, r := range reqs {
		binary.LittleEndian.PutUint64(rec[0:], math.Float64bits(r.Time))
		binary.LittleEndian.PutUint64(rec[8:], uint64(r.Offset))
		binary.LittleEndian.PutUint32(rec[16:], uint32(r.Count))
		rec[20] = byte(r.Op)
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests pins every request the generator draws, bit for bit:
// a change to the random stream, to the order of the draws or to the
// arithmetic on them moves a digest, and with it every trace, content key
// and recorded result derived from that profile.
func TestGoldenDigests(t *testing.T) {
	conf := ssdconf.Experiment()
	experiment := conf.LogicalSectors()
	luns, coll := LunProfiles(), Collection(3)
	// On a 16-page device with the whole footprint hot the cold bulk zone
	// is empty, so every cold pick lands past the footprint and the clip in
	// Next moves it back.
	clip := Profile{
		Name: "clip", Requests: 2000, WriteRatio: 0.6, AvgWriteKB: 9,
		AcrossRatio: 0.25, FootprintFrac: 1, HotFrac: 1, HotProb: 0.5,
		MeanIOPS: 350, Seed: 7,
	}
	for _, c := range []struct {
		p       Profile
		logical int64
		want    string
	}{
		{luns[0].Scale(0.01), experiment,
			"a37f3cab80af412bb260f77e4de648b5c52ffd11f97136f82ab3ef9ab060dd2d"},
		{luns[1].Scale(0.01), experiment,
			"a046aa5fc8b381af08443e864a074d9776bae09edf707e67eb1a75df4b201c12"},
		{luns[2].Scale(0.01), experiment,
			"6c42e81d0b5d2ef5521399478d522ab2644b37936387854c56d138d0ca567e3f"},
		{luns[3].Scale(0.01), experiment,
			"a215d8a156fc9fb4a007e979395018faa7e9b43a9251a8d768f5480ba0eec6d1"},
		{luns[4].Scale(0.01), experiment,
			"c82dc386c233ff7438b1c66671999cd9f71dc688991091b28dbd43af997c8431"},
		{luns[5].Scale(0.01), experiment,
			"67c25c202529c8062f518498a72b6fa44f8c32377cec75046f92ec9e73787568"},
		{coll[0], experiment,
			"569bb107982e087d04c64b1a6f8d01b1f233d226c37fdc0701328f881acd273c"},
		{coll[1], experiment,
			"94163b69aedec6ff1e572591d5fc38519b3bf73349ee1cb5e68d1926989bb8e6"},
		{coll[2], experiment,
			"27acb345f2baa909b80afd244bbe2da6eb7f59f37f0a6376cf637c34d9be1660"},
		{clip, 16 * RefSPP,
			"75ffc2dedf7fbc01148a989cfbf1c2f4aef9a84eaec3cb3a0906fae1b5960ac3"},
	} {
		g, err := NewGenerator(c.p, c.logical)
		if err != nil {
			t.Fatal(err)
		}
		reqs := g.Generate()
		if got := digest(reqs); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.p.Name, got, c.want)
		}
		if c.p.Name != "clip" {
			continue
		}
		clipped := 0
		for _, r := range reqs {
			if r.End() == g.Footprint() {
				clipped++
			}
		}
		if clipped == 0 {
			t.Error("clip: no request ends at the footprint, so the clip never fired")
		}
	}
}

// BenchmarkGenerate generates the six lun profiles at scale 0.5 on the
// Experiment device, the traces the benchmark module's vdi-replay workload
// replays.
func BenchmarkGenerate(b *testing.B) {
	conf := ssdconf.Experiment()
	logical := conf.LogicalSectors()
	var ps []Profile
	total := 0
	for _, p := range LunProfiles() {
		ps = append(ps, p.Scale(0.5))
		total += ps[len(ps)-1].Requests
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			if _, err := Generate(p, logical); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N*total)/b.Elapsed().Seconds(), "req/s")
}
