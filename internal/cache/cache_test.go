package cache

import (
	"encoding/json"
	"testing"

	"biochip/internal/assay"
	"biochip/internal/chip"
)

// testProgram parses src as an assay program.
func testProgram(t *testing.T, src string) assay.Program {
	t.Helper()
	var pr assay.Program
	if err := json.Unmarshal([]byte(src), &pr); err != nil {
		t.Fatalf("parse program: %v", err)
	}
	return pr
}

// testProfiles builds one-profile key material from a die config.
func testProfiles(t *testing.T, name string, cfg chip.Config) []ProfileMaterial {
	t.Helper()
	raw, err := ConfigJSON(cfg)
	if err != nil {
		t.Fatalf("ConfigJSON: %v", err)
	}
	return []ProfileMaterial{{Name: name, Config: raw}}
}

// TestKeyOfDiscrimination pins the key equalities the cache relies on:
// syntactic program variation and execution-irrelevant config fields
// (seed override, parallelism) collapse to one key; semantic changes —
// seed, program, profile name or die geometry — do not.
func TestKeyOfDiscrimination(t *testing.T) {
	base := `{"name":"k","ops":[{"op":"load","kind":"viable-cell","count":4},{"op":"settle"},{"op":"capture"},{"op":"scan","averaging":8},{"op":"release"}]}`
	reordered := `{"ops":[{"kind":"viable-cell","op":"load","count":4},{"op":"settle"},{"op":"capture"},{"averaging":8,"op":"scan"},{"op":"release"}],"name":"k"}`
	otherProg := `{"name":"k","ops":[{"op":"load","kind":"viable-cell","count":5},{"op":"settle"},{"op":"capture"},{"op":"scan","averaging":8},{"op":"release"}]}`

	cfg := chip.DefaultConfig()
	profiles := testProfiles(t, "die", cfg)

	key := func(src string, seed uint64, profs []ProfileMaterial) Key {
		k, err := KeyOf(testProgram(t, src), seed, profs)
		if err != nil {
			t.Fatalf("KeyOf: %v", err)
		}
		if k.Zero() {
			t.Fatal("KeyOf returned the reserved zero key")
		}
		return k
	}

	want := key(base, 7, profiles)
	if got := key(reordered, 7, profiles); got != want {
		t.Errorf("reordered JSON changed the key: %s vs %s", got, want)
	}

	seedCfg := cfg
	seedCfg.Seed = 99
	seedCfg.Parallelism = 8
	if got := key(base, 7, testProfiles(t, "die", seedCfg)); got != want {
		t.Errorf("config seed/parallelism changed the key: %s vs %s", got, want)
	}

	if got := key(base, 8, profiles); got == want {
		t.Error("different request seed produced the same key")
	}
	if got := key(otherProg, 7, profiles); got == want {
		t.Error("different program produced the same key")
	}
	if got := key(base, 7, testProfiles(t, "die2", cfg)); got == want {
		t.Error("different profile name produced the same key")
	}
	bigCfg := cfg
	bigCfg.Array.Cols += 8
	if got := key(base, 7, testProfiles(t, "die", bigCfg)); got == want {
		t.Error("different die geometry produced the same key")
	}
	two := append(testProfiles(t, "die", cfg), testProfiles(t, "die2", cfg)...)
	if got := key(base, 7, two); got == want {
		t.Error("different eligible profile set produced the same key")
	}
}

// BenchmarkKeyOf models cache.key_us: the content key of a scan-stream
// submission (assaybench's scanProgram: 200 cells loaded, settled,
// captured, probed, scanned twice and released) for one 96×96 profile
// whose canonical config is precomputed, as each daemon keeps it.
func BenchmarkKeyOf(b *testing.B) {
	var pr assay.Program
	src := `{"name":"scan-stream","ops":[{"op":"load","kind":"viable-cell","count":200},{"op":"settle"},{"op":"capture"},` +
		`{"op":"probe","frequency":10000},{"op":"scan","averaging":8},{"op":"scan","averaging":16},{"op":"release"}]}`
	if err := json.Unmarshal([]byte(src), &pr); err != nil {
		b.Fatal(err)
	}
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = 96, 96
	cfg.SensorParallelism = 96
	cfg.Parallelism = 1
	raw, err := ConfigJSON(cfg)
	if err != nil {
		b.Fatal(err)
	}
	profiles := []ProfileMaterial{{Name: "default", Config: raw}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KeyOf(pr, uint64(i), profiles); err != nil {
			b.Fatal(err)
		}
	}
}
