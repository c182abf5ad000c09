package assay

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"testing"

	"biochip/internal/chip"
	"biochip/internal/geom"
	"biochip/internal/particle"
	"biochip/internal/stream"
	"biochip/internal/units"
)

// digestCase is one program family of the cross-version golden digest:
// a die edge and a program drawn per seed.
type digestCase struct {
	name    string
	cols    int
	program func(seed uint64) Program
}

// digestCases cover the benchmark's scan-stream shape (about 200 cages
// captured, probed, scanned and released one by one on a 96×96 die), a
// probe that ejects cells, and a routed gather on a 32×32 die.
var digestCases = []digestCase{
	{name: "scan-stream", cols: 96, program: func(seed uint64) Program {
		return Program{Name: "scan-stream", Ops: []Op{
			Load{Kind: particle.ViableCell(), Count: 190 + int(seed%21)},
			Settle{},
			Capture{},
			Probe{Frequency: []float64{5000, 10000, 20000}[seed%3]},
			Scan{Averaging: []int{4, 8}[seed%2]},
			Scan{Averaging: []int{16, 32}[seed%2]},
			ReleaseAll{},
		}}
	}},
	{name: "probe-eject", cols: 40, program: func(seed uint64) Program {
		return Program{Name: "probe-eject", Ops: []Op{
			Load{Kind: particle.ViableCell(), Count: 20 + int(seed%5)},
			Load{Kind: particle.NonViableCell(), Count: 10 + int(seed%3)},
			Settle{},
			Capture{},
			Probe{Frequency: 10 * units.Kilohertz},
			Scan{Averaging: 16},
			ReleaseAll{},
		}}
	}},
	{name: "gather", cols: 32, program: func(seed uint64) Program {
		return Program{Name: "gather", Ops: []Op{
			Load{Kind: particle.ViableCell(), Count: 9 + int(seed%3)},
			Settle{},
			Capture{},
			Gather{Anchor: geom.C(1, 1)},
			Scan{Averaging: []int{8, 16}[seed%2]},
			ReleaseAll{},
		}}
	}},
}

// digestSeeds are the seeds every case runs under, once with full-frame
// and once with delta programming.
var digestSeeds = []uint64{1, 2, 3, 4, 5, 6}

// goldenDigests pins, per run, the SHA-256 of the report JSON, the
// ExecuteOnStream event sequence (wall stamps blanked) and the die's
// ArrayStats. Unlike the other bit-identity tests, which compare two
// runs of the same build, these digests compare against the values the
// code produced when they were recorded: any change to simulated
// results, however small, shows up here. A change meant to alter
// results re-records them from the failure messages, and says so.
var goldenDigests = map[string]string{
	"scan-stream/delta=false/seed=1": "0738a8a4745e366d0e61582c62f153db731117b13bbfe0bfe98eb163944112fd",
	"scan-stream/delta=false/seed=2": "adc6f65c6f0b30601d5c91eff49713ba2516e1966f099105cdd6044021e1e171",
	"scan-stream/delta=false/seed=3": "4030421d9c9823d6ba3dc2a185d683a4a65e9c679cc01653c8df103bb0425d56",
	"scan-stream/delta=false/seed=4": "be3463fcb2340a811d8d36c5518db351540067d4429ab34b456c71782d677177",
	"scan-stream/delta=false/seed=5": "bede68b086a55ada7bbb497f7f516ce1ef5f772c26e8ddc17241b2b5e60596f8",
	"scan-stream/delta=false/seed=6": "813d6afc6ddbb4e476e0f8b70aaf69027d14b7c3cedf08f153e15688b031c36b",
	"scan-stream/delta=true/seed=1":  "b160da93bc0628d913ef7b0a7528810538dc62cba4c6e3a12820236868199feb",
	"scan-stream/delta=true/seed=2":  "6ef6fdc39540716e015476b2bb80667262b8c00332f1b881e4fd3c829c2478c4",
	"scan-stream/delta=true/seed=3":  "cc037dcd4b66d5ae144d3e5f871dea294414f5395332090980445228fb66a79d",
	"scan-stream/delta=true/seed=4":  "8d0ac2e87aac3da33dc15dbace095086ec1f2279daf32c33d3f515dab9c60799",
	"scan-stream/delta=true/seed=5":  "9c53459012124a44779a68a8648830d6951a099e372d6abd9e4d63f07517d6a3",
	"scan-stream/delta=true/seed=6":  "49bb5f08dd1a188f42641a9d2631fc3d94d33df470de204fc6a496f64ed5c382",
	"probe-eject/delta=false/seed=1": "0a83a63658c33cbd5a86c5eef7d54a1c76782bd15b512ac7ac54c73e52194b26",
	"probe-eject/delta=false/seed=2": "d3596476b2b5bf0660bea25607e8f1ac42bcbb639679cadfe16e89045814d4b3",
	"probe-eject/delta=false/seed=3": "b4577f8a75f4b626935cdb154d6e85d96625c6065c939f50600ba2d6414711ce",
	"probe-eject/delta=false/seed=4": "6a3eb80a7d2acaf7858c651242f55013b71533f3484e914a7ef3514649c93f2b",
	"probe-eject/delta=false/seed=5": "7b555114221c080a186f81c4a81a3be5c029d9df5fdf35e1c824a5cc6d4bfa71",
	"probe-eject/delta=false/seed=6": "6ceb2e0eb79d6970c5c367070d2676ac78a0072185f083ab853e08bbad86186c",
	"probe-eject/delta=true/seed=1":  "1093681904d7c186bf15c356ab933bc7e77a0972178e785ce4f1ae310394e1bd",
	"probe-eject/delta=true/seed=2":  "7283367e7279f5ef2f2195adf119b295ec62606876469accecb2355ff02ac92f",
	"probe-eject/delta=true/seed=3":  "dc2b70a3271777f420c7e1abd09309237e5c65ca47959d90613a5bb69a5a95a4",
	"probe-eject/delta=true/seed=4":  "923eda64647570830e01c8264abdb02a115efc1c1d9d7f558526a292bfa0753c",
	"probe-eject/delta=true/seed=5":  "899dfa810203b530468fcb89ce072952d72e3e6777fefbd158b4e62cd41f0839",
	"probe-eject/delta=true/seed=6":  "9916cfc864e1f2542f6f19fd87cda894978a0b3b7e05e79ea464e5f015e6b85a",
	"gather/delta=false/seed=1":      "337071b19ffdc0415979b32c49ad515b004c46c786397731958c02dd8241b00d",
	"gather/delta=false/seed=2":      "f7176bb013a2295d8561304bc1fd5ab3b05325ec423929303af17dff46fc6d9b",
	"gather/delta=false/seed=3":      "324ce7093930cb9105da78e19cb4ccbb2e5816dbb26366a4e04f75c73c03c675",
	"gather/delta=false/seed=4":      "79ee54400cce2aa9f8f1d7de32cf267227a0b37b5cffef6582aef5500bb14dbc",
	"gather/delta=false/seed=5":      "3dfc11fe642d8d287c0585c44640c3a0fb228b8ea26b43487f8e3a5c10cba2c1",
	"gather/delta=false/seed=6":      "fad0f20416617b0c26229c1f342c4e82d4725cad99f288c22833cffe9407dfbb",
	"gather/delta=true/seed=1":       "8f19be71f197e1dce59c032150a129d653c2122cf0e18916c0393eff6884f262",
	"gather/delta=true/seed=2":       "67c19b85134f09222d9ae7b272510f3c62720aa392919732da8c8ab8ff0afc5e",
	"gather/delta=true/seed=3":       "41eae389d0d61ef79dfe832cc1e7d6deb6bfed286eefb63860ae019543478b3a",
	"gather/delta=true/seed=4":       "26458c950630d72bc81a9a19824df2fd09bcb5706089a8f988ec9147108daa8e",
	"gather/delta=true/seed=5":       "92c8a1e3c1b1a1c7af9b41702e944327d90657aaf49ba0efc3c094918af7e741",
	"gather/delta=true/seed=6":       "b013bd71797223f9a16771ad571fa03e64b95e09d446f6ef08153d482d20f95f",
}

// runDigest executes pr on sim after a Reset to seed and returns the
// digest of everything the determinism contract covers.
func runDigest(t *testing.T, sim *chip.Simulator, pr Program, seed uint64) string {
	t.Helper()
	if err := sim.Reset(seed); err != nil {
		t.Fatal(err)
	}
	var c stream.Collector
	rep, err := ExecuteOnStream(sim, pr, c.Sink())
	if err != nil {
		t.Fatal(err)
	}
	repJSON, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.ArrayStats()
	h := sha256.New()
	h.Write(repJSON)
	h.Write([]byte(eventJSON(t, c.Events)))
	fmt.Fprintf(h, "%d %d %016x %016x", st.FramesWritten, st.ElectrodesToggled,
		math.Float64bits(st.ElapsedTime), math.Float64bits(st.ActuationEnergy))
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigest checks every run of every digest case against its
// recorded digest. The digests are recorded on amd64; architectures
// whose compilers fuse multiply-adds round some floats differently, so
// the test only runs there.
func TestGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	for _, dc := range digestCases {
		for _, delta := range []bool{false, true} {
			cfg := chip.DefaultConfig()
			cfg.Array.Cols, cfg.Array.Rows = dc.cols, dc.cols
			cfg.SensorParallelism = dc.cols
			cfg.Parallelism = 1
			cfg.DeltaProgramming = delta
			sim, err := chip.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range digestSeeds {
				name := fmt.Sprintf("%s/delta=%t/seed=%d", dc.name, delta, seed)
				got := runDigest(t, sim, dc.program(seed), seed)
				if want := goldenDigests[name]; got != want {
					t.Errorf("%s: digest %s, want %s", name, got, want)
				}
			}
		}
	}
}
