package runspec

import (
	"encoding/json"
	"testing"
)

// goldenKeys pins the content key and aging key of one spec per shape the
// daemon accepts. A stored result is addressed by these hashes, so a change
// to any of them orphans every cache entry of that shape: a change that
// moves one must bump KeyVersion (or scenarioKeyVersion) on purpose.
var goldenKeys = []struct {
	name, spec, key, aging string
}{
	{"profile", `{"type":"replay","profile":"lun1"}`,
		"d76378376b792f7480f633debd9781fbcd33a8b0481aa86380d56709cfdd52e9",
		"aa9c1513aec91463089af2d11efe857211c624a1ef31a007c019801b5dac6735"},
	{"seed", `{"type":"replay","profile":"lun1","seed":7}`,
		"0ca6d60ecd194d04798d371611d34fe40dba92b0952173815636f6c937535b5b",
		"aa9c1513aec91463089af2d11efe857211c624a1ef31a007c019801b5dac6735"},
	{"qd", `{"type":"replay","profile":"lun1","qd":8}`,
		"26598add036a31f2b13a9428eb24445aebd89fb9564cb5d46d1cf5b0d0f99bf6",
		"aa9c1513aec91463089af2d11efe857211c624a1ef31a007c019801b5dac6735"},
	{"age", `{"type":"replay","scheme":"FTL","profile":"lun1","age":true}`,
		"a8f250322e0c9c29736799937f5f9a8c66a9ab5f469424564042c71540bb4d2a",
		"38a1be0e3c2ca5256b7fbf3b5751baaaf0a981836fce987fe3f28fa07349bc9b"},
	{"page4k", `{"type":"replay","scheme":"MRSM","profile":"lun3","page_bytes":4096}`,
		"deda057d5f5a0ae16d1a51063d55ad10d7e8f6758b5d74daa6b94de4d13558eb",
		"99b339f1d6ca41db2205fe4382928f7c31eada032bf52ebc970aaec9d72ea3cc"},
	{"full", `{"type":"replay","scheme":"DFTL","profile":"lun6","scale":0.01,"full":true}`,
		"984f32765255464d49b3a049bcfc49f0fee8f951110c7a593963115aa955d75c",
		"5e781cd4417fd4e95bde9d6ead1572ac6ec6d635e9a729eea2ba4be9f2840b09"},
	{"raid0-chunk0", `{"type":"replay","profile":"lun1","fleet":{"devices":4,"layout":"raid0","chunk_kb":0}}`,
		"9680147a2af8ca20d3588c2bbd7d325ed08f6a2d2dd6b6bf3376d56b8b6ce41b",
		"aa9c1513aec91463089af2d11efe857211c624a1ef31a007c019801b5dac6735"},
	{"raid0-chunk16", `{"type":"replay","profile":"lun1","fleet":{"devices":4,"layout":"raid0","chunk_kb":16}}`,
		"7991746035997ae40992411d49ad1f3efb30c7dfb65f0e1b8d03b1110c502bb1",
		"aa9c1513aec91463089af2d11efe857211c624a1ef31a007c019801b5dac6735"},
	{"raid10", `{"type":"replay","scheme":"FTL","profile":"lun2","age":true,"fleet":{"devices":2,"layout":"raid10"}}`,
		"e60757e7eb9748ae40e7908bef57eb35b609bdeca284c9d17020af0c020f4b96",
		"38a1be0e3c2ca5256b7fbf3b5751baaaf0a981836fce987fe3f28fa07349bc9b"},
	{"concat-chunk", `{"type":"replay","profile":"lun1","fleet":{"devices":3,"layout":"concat","chunk_kb":16}}`,
		"86faab8c38bb3867f7b2043038b15b03dadab922e2ec9f0be30a5fae615097ec",
		"aa9c1513aec91463089af2d11efe857211c624a1ef31a007c019801b5dac6735"},
	{"burst", `{"type":"replay","scale":0.002,"scenario":{"name":"burst"}}`,
		"d9512c8ed8eeb5c649820155d3aafedc839e781406d947dbda0673c522d4fb4f",
		"aa9c1513aec91463089af2d11efe857211c624a1ef31a007c019801b5dac6735"},
	{"mixed-fleet", `{"type":"replay","scheme":"MRSM","scale":0.002,"scenario":{"name":"mixed"},"fleet":{"devices":2}}`,
		"af7d3c1f247f3776d1fb5d298efa182e542dea4410d93d7bf688c11632cbadcf",
		"f27b859d512e80588f1c0e20ba3377b4fd950cd74601d3d9e46c89d478cf1a7b"},
	{"trace-scale1", `{"type":"replay","scheme":"FTL","scale":1,"scenario":{"trace_path":"../trace/testdata/msr_sample.csv"}}`,
		"b6ed0f27a6cb0aac15676a0a71328da46f1e5a189a3bcff1949f5fb5f6e7d0ea",
		"38a1be0e3c2ca5256b7fbf3b5751baaaf0a981836fce987fe3f28fa07349bc9b"},
	{"trace-default", `{"type":"replay","scheme":"FTL","scenario":{"trace_path":"../trace/testdata/msr_sample.csv"}}`,
		"5b732185a51af782da275fd888236b39d4d67a0ca1048dc7618a553780f9a066",
		"38a1be0e3c2ca5256b7fbf3b5751baaaf0a981836fce987fe3f28fa07349bc9b"},
}

func TestGoldenKeys(t *testing.T) {
	for _, g := range goldenKeys {
		var sp Spec
		if err := json.Unmarshal([]byte(g.spec), &sp); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		sp.Normalise()
		if err := sp.Validate(); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		key, err := sp.Key()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		aging, err := sp.AgingKey()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if key != g.key || aging != g.aging {
			t.Errorf("%s: key %s aging %s, want %s and %s", g.name, key, aging, g.key, g.aging)
		}
	}
}
