package field

import (
	"fmt"
	"math"
	"testing"

	"biochip/internal/rng"
	"biochip/internal/units"
)

func solveParallelPlate(t *testing.T, nx, nz int, v float64) *Solution {
	t.Helper()
	s, err := NewSlice(nx, nz, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	s.SetElectrode(0, nx, v)
	s.LidVoltage = 0
	sol, err := s.Solve(1e-10, 50000)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestParallelPlateLinearProfile(t *testing.T) {
	// Uniform bottom at V, lid at 0: φ must be linear in z and E uniform.
	v := 3.3
	nz := 21
	sol := solveParallelPlate(t, 11, nz, v)
	for z := 0; z < nz; z++ {
		want := v * (1 - float64(z)/float64(nz-1))
		for x := 0; x < sol.Nx; x++ {
			if math.Abs(sol.Phi[z][x]-want) > 1e-6 {
				t.Fatalf("phi[%d][%d] = %g, want %g", z, x, sol.Phi[z][x], want)
			}
		}
	}
	// E must be vertical with magnitude V/H.
	wantE := v / (float64(nz-1) * sol.Dx)
	ex, ez := sol.E(5, nz/2)
	if math.Abs(ex) > 1e-3*wantE {
		t.Errorf("Ex = %g, want ~0", ex)
	}
	if math.Abs(math.Abs(ez)-wantE) > 1e-3*wantE {
		t.Errorf("|Ez| = %g, want %g", math.Abs(ez), wantE)
	}
}

func TestGradE2VanishesInUniformField(t *testing.T) {
	sol := solveParallelPlate(t, 15, 15, 2.0)
	gx, gz := sol.GradE2(7, 7)
	e2 := sol.E2(7, 7)
	scale := e2 / sol.Dx
	if math.Abs(gx) > 1e-3*scale || math.Abs(gz) > 1e-3*scale {
		t.Errorf("uniform field should have ~zero gradient, got (%g, %g)", gx, gz)
	}
}

func buildCage(t *testing.T, v float64) (*Solution, int) {
	t.Helper()
	// 5 electrodes, 11 nodes pitch (odd so the pattern has an exact
	// node-centred mirror axis), 2-node gap, 40-node-tall chamber at
	// 2 µm spacing: 110 µm wide, 80 µm tall.
	s, center, err := CageProblem(5, 11, 2, 40, 2*units.Micron, v)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(1e-9, 100000)
	if err != nil {
		t.Fatal(err)
	}
	return sol, center
}

func TestCageHasInteriorFieldMinimum(t *testing.T) {
	sol, center := buildCage(t, 3.3)
	zMin, e2min := sol.MinE2Above(center)
	if zMin <= 1 || zMin >= sol.Nz-2 {
		t.Fatalf("cage minimum at boundary (z=%d): not a closed cage", zMin)
	}
	// The minimum must be genuinely lower than the field at the same
	// height above a neighbouring in-phase electrode.
	neighbor := center + 11 // one pitch to the right
	e2n := sol.E2(neighbor, zMin)
	if e2min >= e2n {
		t.Errorf("cage centre E²=%g not below neighbour E²=%g", e2min, e2n)
	}
}

func TestCageMinimumIsLateralTrapToo(t *testing.T) {
	sol, center := buildCage(t, 3.3)
	zMin, e2min := sol.MinE2Above(center)
	// Moving sideways at the trap height must increase E² (restoring
	// force for negative-DEP particles).
	for _, dx := range []int{-4, 4} {
		if v := sol.E2(center+dx, zMin); v <= e2min {
			t.Errorf("E² at lateral offset %d (= %g) not above minimum %g", dx, v, e2min)
		}
	}
}

func TestFieldScalesLinearlyWithVoltage(t *testing.T) {
	// φ and E are linear in V, so E² must scale as V².
	solA, center := buildCage(t, 2.0)
	solB, _ := buildCage(t, 4.0)
	zA, _ := solA.MinE2Above(center)
	zB, _ := solB.MinE2Above(center)
	if zA != zB {
		t.Errorf("trap height should not depend on voltage: %d vs %d", zA, zB)
	}
	// Compare E² away from the minimum (minimum value is ~0/noisy).
	pA := solA.E2(center+5, zA+3)
	pB := solB.E2(center+5, zA+3)
	ratio := pB / pA
	if math.Abs(ratio-4) > 0.05 {
		t.Errorf("E² voltage scaling = %g, want 4 (V² law)", ratio)
	}
}

func TestSolveConvergenceReporting(t *testing.T) {
	s, _ := NewSlice(10, 10, 1e-6)
	// Non-uniform boundary so the linear initial guess is not exact.
	s.SetElectrode(0, 5, 1)
	s.SetElectrode(5, 10, -1)
	if _, err := s.Solve(1e-12, 2); err == nil {
		t.Error("tiny iteration budget should fail to converge")
	}
	sol, err := s.Solve(1e-8, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Iterations <= 0 || sol.Residual > 1e-8 {
		t.Errorf("convergence metadata wrong: %+v", sol)
	}
}

func TestNewSliceValidation(t *testing.T) {
	if _, err := NewSlice(2, 10, 1e-6); err == nil {
		t.Error("nx too small should error")
	}
	if _, err := NewSlice(10, 10, 0); err == nil {
		t.Error("zero spacing should error")
	}
}

func TestSetElectrodeClipping(t *testing.T) {
	s, _ := NewSlice(10, 5, 1e-6)
	s.SetElectrode(-5, 100, 2.5) // must clip, not panic
	for _, v := range s.Bottom {
		if v != 2.5 {
			t.Fatal("clipped SetElectrode should cover whole boundary")
		}
	}
}

func TestCageProblemValidation(t *testing.T) {
	if _, _, err := CageProblem(4, 10, 2, 20, 1e-6, 3); err == nil {
		t.Error("even electrode count should error")
	}
}

func TestLidVoltageShiftsSolution(t *testing.T) {
	s, _ := NewSlice(11, 11, 1e-6)
	s.SetElectrode(0, 11, 1)
	s.LidVoltage = 1 // both plates at 1 V → φ ≡ 1, E ≡ 0
	sol, err := s.Solve(1e-10, 20000)
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < sol.Nz; z++ {
		for x := 0; x < sol.Nx; x++ {
			if math.Abs(sol.Phi[z][x]-1) > 1e-6 {
				t.Fatalf("phi should be uniform 1 V, got %g", sol.Phi[z][x])
			}
		}
	}
	if e2 := sol.E2(5, 5); e2 > 1e-6 {
		t.Errorf("E² should vanish, got %g", e2)
	}
}

func TestSymmetryOfCage(t *testing.T) {
	sol, center := buildCage(t, 3.0)
	// The cage pattern is mirror-symmetric about the centre line; the
	// solution must be too (within solver tolerance).
	for dz := 1; dz < sol.Nz-1; dz += 5 {
		for _, dx := range []int{3, 7, 12} {
			a := sol.Phi[dz][center-dx]
			b := sol.Phi[dz][center+dx]
			if math.Abs(a-b) > 1e-4 {
				t.Errorf("asymmetry at z=%d dx=%d: %g vs %g", dz, dx, a, b)
			}
		}
	}
}

// solveLexicographic is the plain SOR solve Solve's banded sweep must
// reproduce bit for bit: each iteration relaxes the interior rows bottom
// to top, each row left to right.
func solveLexicographic(s *Slice, tol float64, maxIter int) (*Solution, error) {
	nx, nz := s.Nx, s.Nz
	phi := make([][]float64, nz)
	for z := range phi {
		phi[z] = make([]float64, nx)
	}
	copy(phi[0], s.Bottom)
	for x := 0; x < nx; x++ {
		phi[nz-1][x] = s.LidVoltage
	}
	for z := 1; z < nz-1; z++ {
		t := float64(z) / float64(nz-1)
		for x := 0; x < nx; x++ {
			phi[z][x] = (1-t)*s.Bottom[x] + t*s.LidVoltage
		}
	}
	omega := 2.0 / (1.0 + math.Pi/float64(max(nx, nz)))
	sol := &Solution{Nx: nx, Nz: nz, Dx: s.Dx, Phi: phi}
	for it := 0; it < maxIter; it++ {
		maxDelta := 0.0
		for z := 1; z < nz-1; z++ {
			row := phi[z]
			below, above := phi[z-1], phi[z+1]
			for x := 0; x < nx; x++ {
				var left, right float64
				if x == 0 {
					left = row[1]
				} else {
					left = row[x-1]
				}
				if x == nx-1 {
					right = row[nx-2]
				} else {
					right = row[x+1]
				}
				target := 0.25 * (left + right + below[x] + above[x])
				delta := omega * (target - row[x])
				row[x] += delta
				if d := math.Abs(delta); d > maxDelta {
					maxDelta = d
				}
			}
		}
		sol.Iterations = it + 1
		sol.Residual = maxDelta
		if maxDelta < tol {
			return sol, nil
		}
	}
	return sol, fmt.Errorf("field: SOR did not converge in %d iterations (residual %g)",
		maxIter, sol.Residual)
}

// matchesLexicographic solves s with Solve and with solveLexicographic
// and fails t unless the two agree bit for bit: every Phi node,
// Iterations, Residual and the error text. It reports whether the
// reference converged.
func matchesLexicographic(t *testing.T, s *Slice, tol float64, maxIter int) bool {
	t.Helper()
	want, wantErr := solveLexicographic(s, tol, maxIter)
	got, gotErr := s.Solve(tol, maxIter)
	name := fmt.Sprintf("%dx%d, maxIter %d", s.Nx, s.Nz, maxIter)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, want %v", name, gotErr, wantErr)
	}
	if got.Iterations != want.Iterations || math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		t.Fatalf("%s: %d iterations, residual %x; want %d, %x", name,
			got.Iterations, math.Float64bits(got.Residual), want.Iterations, math.Float64bits(want.Residual))
	}
	for z, row := range want.Phi {
		for x, v := range row {
			if g := got.Phi[z][x]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("%s: phi[%d][%d] = %x, want %x", name, z, x, math.Float64bits(g), math.Float64bits(v))
			}
		}
	}
	return wantErr == nil
}

// TestSolveMatchesLexicographic pins the banded sweep to the row-by-row
// one, run to convergence and cut short, on every grid of 3…9 columns by
// 3…13 rows (the narrowest grids, and every count of rows left over after
// the last band) and on grids 75 columns wide or 76 rows tall, the cage
// calibration's slice among them.
func TestSolveMatchesLexicographic(t *testing.T) {
	const tol, converging, short = 1e-9, 100000, 7
	src := rng.New(1)
	for _, nx := range []int{3, 4, 5, 6, 7, 8, 9, 75} {
		for _, nz := range []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 76} {
			s, err := NewSlice(nx, nz, 1e-6)
			if err != nil {
				t.Fatal(err)
			}
			for x := range s.Bottom {
				s.Bottom[x] = src.Uniform(-5, 5)
			}
			s.LidVoltage = src.Uniform(-5, 5)
			if !matchesLexicographic(t, s, tol, converging) {
				t.Fatalf("%dx%d did not converge in %d iterations", nx, nz, converging)
			}
			if matchesLexicographic(t, s, tol, short) {
				t.Fatalf("%dx%d converged in %d iterations", nx, nz, short)
			}
		}
	}
}

// FuzzSolveMatchesLexicographic checks the same on fuzzed problems: a
// grid of 3…24 by 3…24 nodes, 1…64 iterations, and bottom and lid
// voltages of −8…8 V taken from the fuzzed bytes.
func FuzzSolveMatchesLexicographic(f *testing.F) {
	f.Add(uint8(2), uint8(10), uint8(63), []byte{16, 240, 1})
	f.Add(uint8(20), uint8(5), uint8(9), []byte{127, 128, 0, 64})
	f.Add(uint8(0), uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, nx, nz, maxIter uint8, volts []byte) {
		s, err := NewSlice(3+int(nx)%22, 3+int(nz)%22, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		volt := func(i int) float64 {
			if len(volts) == 0 {
				return 0
			}
			return float64(int8(volts[i%len(volts)])) / 16
		}
		for x := range s.Bottom {
			s.Bottom[x] = volt(x)
		}
		s.LidVoltage = volt(len(s.Bottom))
		matchesLexicographic(t, s, 1e-6, 1+int(maxIter)%64)
	})
}
