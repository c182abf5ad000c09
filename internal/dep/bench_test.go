package dep

import "testing"

// BenchmarkCageCalibration measures the cold field-solver calibration
// of the default cage spec: calibrateCageModel, the slice solve that
// NewCageModel runs once per distinct spec and then serves from its
// cache. Benchmarking NewCageModel instead would time a cache hit.
func BenchmarkCageCalibration(b *testing.B) {
	spec := DefaultCageSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := calibrateCageModel(spec); err != nil {
			b.Fatal(err)
		}
	}
}
