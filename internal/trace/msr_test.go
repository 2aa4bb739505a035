package trace

import (
	"strings"
	"testing"
)

func TestMSRReaderParses(t *testing.T) {
	in := `# header comment
128166372003061629,hm,0,Read,1052672,4096,4325
128166372013061629,hm,0,Write,1052672,6144,1234
`
	reqs, err := ReadAllMSR(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadAllMSR: %v", err)
	}
	if len(reqs) != 2 {
		t.Fatalf("got %d requests, want 2", len(reqs))
	}
	if reqs[0].Time != 0 {
		t.Errorf("first timestamp should rebase to 0, got %v", reqs[0].Time)
	}
	if reqs[0].Op != OpRead || reqs[0].Offset != 1052672/512 || reqs[0].Count != 8 {
		t.Errorf("r0 = %+v", reqs[0])
	}
	// 10^7 ticks = 1 s = 1000 ms.
	if reqs[1].Time < 999.9 || reqs[1].Time > 1000.1 {
		t.Errorf("r1.Time = %v ms, want ~1000", reqs[1].Time)
	}
	if reqs[1].Op != OpWrite || reqs[1].Count != 12 {
		t.Errorf("r1 = %+v", reqs[1])
	}
}

func TestMSRReaderShortTypeForms(t *testing.T) {
	reqs, err := ReadAllMSR(strings.NewReader("0,h,0,W,0,512,0\n1,h,0,r,512,512,0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if reqs[0].Op != OpWrite || reqs[1].Op != OpRead {
		t.Fatalf("short forms parsed wrong: %+v", reqs)
	}
}

func TestMSRReaderRejectsCorruptLines(t *testing.T) {
	bad := []string{
		"1,2,3,4,5,6\n",              // six fields (SYSTOR shape)
		"x,h,0,Read,0,512,0\n",       // bad timestamp
		"0,h,0,Flush,0,512,0\n",      // bad type
		"0,h,0,Read,abc,512,0\n",     // bad offset
		"0,h,0,Read,0,xyz,0\n",       // bad size
		"0,h,0,Read,0,0,0\n",         // zero size
		"0,h,0,Read,-512,512,0\n",    // negative offset
		"0,h,0,Read,0,512,0,extra\n", // eight fields
	}
	for _, in := range bad {
		if _, err := ReadAllMSR(strings.NewReader(in)); err == nil {
			t.Errorf("corrupt line accepted: %q", in)
		}
	}
}

func TestMSRReaderEOF(t *testing.T) {
	if reqs, err := ReadAllMSR(strings.NewReader("\n\n")); err != nil || len(reqs) != 0 {
		t.Fatalf("blank stream = (%v, %v), want no requests and no error", reqs, err)
	}
}

func TestDetectFormat(t *testing.T) {
	if f, err := DetectFormat("0,0,R,0,0,512"); err != nil || f != "systor" {
		t.Errorf("systor detection = (%q,%v)", f, err)
	}
	if f, err := DetectFormat("0,h,0,Read,0,512,0"); err != nil || f != "msr" {
		t.Errorf("msr detection = (%q,%v)", f, err)
	}
	if _, err := DetectFormat("just,three,fields"); err == nil {
		t.Error("bogus format accepted")
	}
}

func TestMSRAndSystorAgreeOnEquivalentTraces(t *testing.T) {
	systor := "100.0,0,W,0,1052672,6144\n100.5,0,R,0,1052672,4096\n"
	msr := "1000000000,h,0,Write,1052672,6144,0\n1005000000,h,0,Read,1052672,4096,0\n"
	a, err := ReadAll(strings.NewReader(systor))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadAllMSR(strings.NewReader(msr))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Op != b[i].Op || a[i].Offset != b[i].Offset || a[i].Count != b[i].Count {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if d := a[i].Time - b[i].Time; d > 0.01 || d < -0.01 {
			t.Fatalf("request %d times differ: %v vs %v", i, a[i].Time, b[i].Time)
		}
	}
}
