// Package field solves the quasi-electrostatic boundary-value problem in
// the liquid above the electrode array and exposes the quantities
// dielectrophoresis needs: the phasor potential φ, the field magnitude
// squared E², and its gradient ∇E².
//
// The solver works on a 2-D vertical slice (x, z): electrodes with
// programmed phasor amplitudes form the bottom boundary (z = 0), the
// conductive lid of the microchamber (the ITO-coated glass of the paper's
// Fig. 3) forms the top boundary (z = H), and the side walls are
// zero-flux (Neumann). This is the standard reduced model for stripe-
// symmetric cage patterns: it reproduces the closed-cage field minimum,
// its levitation height and stiffness trends, and the V² force scaling,
// while remaining fast enough for unit tests and calibration sweeps. The
// full-array simulator uses the calibrated closed-form cage model in
// package dep; this package is the ground truth it is checked against.
//
// Slice.Solve relaxes the grid by successive over-relaxation (SOR) and
// gives, bit for bit, the result of the plain row-by-row sweep: bottom
// to top, each row left to right. It visits the interior rows in bands
// of four, column by column within a band, so that the four rows' chains
// of dependent updates run side by side; Solve's doc says why that
// order changes no bit.
package field

import (
	"errors"
	"fmt"
	"math"
)

// Slice describes a vertical-slice boundary-value problem.
type Slice struct {
	// Nx, Nz are interior grid dimensions (columns, height layers),
	// including boundary nodes.
	Nx, Nz int
	// Dx is the grid spacing in metres (uniform in x and z).
	Dx float64
	// Bottom holds the electrode-plane potential amplitude at each x
	// node (volts). Electrode gaps interpolate implicitly via solver.
	Bottom []float64
	// LidVoltage is the potential of the top (counter) electrode.
	LidVoltage float64
}

// NewSlice builds a slice problem of nx × nz nodes with spacing dx and a
// grounded lid. Bottom starts at 0 V.
func NewSlice(nx, nz int, dx float64) (*Slice, error) {
	if nx < 3 || nz < 3 {
		return nil, fmt.Errorf("field: grid %dx%d too small", nx, nz)
	}
	if dx <= 0 {
		return nil, errors.New("field: non-positive spacing")
	}
	return &Slice{Nx: nx, Nz: nz, Dx: dx, Bottom: make([]float64, nx)}, nil
}

// SetElectrode paints the bottom-boundary nodes [x0, x1) with amplitude v.
// Out-of-range nodes are clipped.
func (s *Slice) SetElectrode(x0, x1 int, v float64) {
	if x0 < 0 {
		x0 = 0
	}
	if x1 > s.Nx {
		x1 = s.Nx
	}
	for i := x0; i < x1; i++ {
		s.Bottom[i] = v
	}
}

// Solution holds the solved potential and derived field quantities on the
// slice grid. Index order is [z][x]; z=0 is the electrode plane.
type Solution struct {
	Nx, Nz int
	Dx     float64
	// Phi is the potential amplitude, volts.
	Phi [][]float64
	// Iterations and Residual report solver convergence.
	Iterations int
	Residual   float64
}

// band is the number of interior rows Solve's sweep relaxes together;
// relaxBand's body is unrolled for exactly this many.
const band = 4

// Solve relaxes the Laplace equation with SOR. tol is the max-update
// convergence threshold in volts; maxIter bounds iterations.
//
// An iteration relaxes the interior rows bottom to top in bands of four
// rows, and a band column by column: rows z…z+3 at column x, then at
// column x+1. Rows left over above the last band go row by row. The
// result is bit for bit that of the plain row-by-row sweep. That sweep
// updates each node after its left and lower neighbours and before its
// right and upper ones, and column order within a band keeps exactly
// that, so every node reads the same neighbour values and rounds the
// same expression. The largest |δ| of an iteration does not depend on
// the order of its deltas. What changes is latency: the updates of one
// row form a chain, each waiting for its left neighbour's new value,
// and a band runs four such chains side by side.
func (s *Slice) Solve(tol float64, maxIter int) (*Solution, error) {
	nx, nz := s.Nx, s.Nz
	phi := make([][]float64, nz)
	for z := range phi {
		phi[z] = make([]float64, nx)
	}
	// Dirichlet boundaries.
	copy(phi[0], s.Bottom)
	for x := 0; x < nx; x++ {
		phi[nz-1][x] = s.LidVoltage
	}
	// Linear initial guess speeds convergence.
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
		z := 1
		for ; z+band < nz; z += band {
			maxDelta = relaxBand(phi[z-1:z+band+1], omega, maxDelta)
		}
		// The rows left over above the last full band.
		for ; z < nz-1; z++ {
			for x := 0; x < nx; x++ {
				maxDelta = relaxNode(phi[z-1], phi[z], phi[z+1], x, omega, maxDelta)
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

// relaxBand relaxes the band rows[1…band] in column order; rows[0] is
// the row below the band and rows[band+1] the row above it. It returns
// maxDelta raised to the band's largest |δ|.
func relaxBand(rows [][]float64, omega, maxDelta float64) float64 {
	nx := len(rows[1])
	for i := 1; i <= band; i++ {
		maxDelta = relaxNode(rows[i-1], rows[i], rows[i+1], 0, omega, maxDelta)
	}
	// Between the walls every update is relaxNode's expression, with the
	// left neighbour first, unrolled over the band's rows.
	below, r0, r1, r2, r3, above := rows[0][:nx], rows[1][:nx], rows[2][:nx], rows[3][:nx], rows[4][:nx], rows[5][:nx]
	for x := 1; x < nx-1; x++ {
		t0 := 0.25 * (r0[x-1] + r0[x+1] + below[x] + r1[x])
		d0 := omega * (t0 - r0[x])
		r0[x] += d0
		t1 := 0.25 * (r1[x-1] + r1[x+1] + r0[x] + r2[x])
		d1 := omega * (t1 - r1[x])
		r1[x] += d1
		t2 := 0.25 * (r2[x-1] + r2[x+1] + r1[x] + r3[x])
		d2 := omega * (t2 - r2[x])
		r2[x] += d2
		t3 := 0.25 * (r3[x-1] + r3[x+1] + r2[x] + above[x])
		d3 := omega * (t3 - r3[x])
		r3[x] += d3
		maxDelta = absMax(absMax(absMax(absMax(maxDelta, d0), d1), d2), d3)
	}
	for i := 1; i <= band; i++ {
		maxDelta = relaxNode(rows[i-1], rows[i], rows[i+1], nx-1, omega, maxDelta)
	}
	return maxDelta
}

// relaxNode applies the SOR update to node x of row, whose neighbour
// rows are below and above, mirroring the interior neighbour at the
// Neumann side walls. It returns maxDelta raised to the update's |δ|.
func relaxNode(below, row, above []float64, x int, omega, maxDelta float64) float64 {
	nx := len(row)
	var left, right float64
	// Neumann side walls: mirror the interior neighbour.
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
	return absMax(maxDelta, delta)
}

// absMax returns the larger of m and |d|. A NaN d leaves m as it is, so
// the largest |δ| of a sweep does not depend on the order of its deltas.
func absMax(m, d float64) float64 {
	if d := math.Abs(d); d > m {
		return d
	}
	return m
}

// E returns the field components (Ex, Ez) at interior node (x, z) by
// central differences. Boundary nodes use one-sided differences.
func (sol *Solution) E(x, z int) (ex, ez float64) {
	d := sol.Dx
	phi := sol.Phi
	switch {
	case x == 0:
		ex = -(phi[z][1] - phi[z][0]) / d
	case x == sol.Nx-1:
		ex = -(phi[z][x] - phi[z][x-1]) / d
	default:
		ex = -(phi[z][x+1] - phi[z][x-1]) / (2 * d)
	}
	switch {
	case z == 0:
		ez = -(phi[1][x] - phi[0][x]) / d
	case z == sol.Nz-1:
		ez = -(phi[z][x] - phi[z-1][x]) / d
	default:
		ez = -(phi[z+1][x] - phi[z-1][x]) / (2 * d)
	}
	return ex, ez
}

// E2 returns |E|² at node (x, z).
func (sol *Solution) E2(x, z int) float64 {
	ex, ez := sol.E(x, z)
	return ex*ex + ez*ez
}

// GradE2 returns (∂E²/∂x, ∂E²/∂z) at an interior node by central
// differences on the E² lattice; this is the DEP force direction field.
func (sol *Solution) GradE2(x, z int) (gx, gz float64) {
	d := sol.Dx
	xm, xp := x-1, x+1
	if xm < 0 {
		xm = 0
	}
	if xp > sol.Nx-1 {
		xp = sol.Nx - 1
	}
	zm, zp := z-1, z+1
	if zm < 0 {
		zm = 0
	}
	if zp > sol.Nz-1 {
		zp = sol.Nz - 1
	}
	gx = (sol.E2(xp, z) - sol.E2(xm, z)) / (float64(xp-xm) * d)
	gz = (sol.E2(x, zp) - sol.E2(x, zm)) / (float64(zp-zm) * d)
	return gx, gz
}

// MinE2Above finds the z index of the E² minimum along the vertical line
// x (excluding the two boundary layers). It returns the index and value.
// A strictly interior minimum is the signature of a closed DEP cage.
func (sol *Solution) MinE2Above(x int) (zMin int, e2 float64) {
	zMin, e2 = 1, sol.E2(x, 1)
	for z := 2; z < sol.Nz-1; z++ {
		if v := sol.E2(x, z); v < e2 {
			zMin, e2 = z, v
		}
	}
	return zMin, e2
}

// CageProblem builds the canonical vertical-slice cage: a central
// counter-phase electrode of width w nodes flanked by in-phase neighbours,
// with lid at 0. pitchNodes is the electrode pitch in nodes; gapNodes the
// inter-electrode gap; v the amplitude. The slice spans nElectrodes
// electrodes. Returns the slice and the x index of the cage centre.
func CageProblem(nElectrodes, pitchNodes, gapNodes, nz int, dx, v float64) (*Slice, int, error) {
	if nElectrodes%2 == 0 {
		return nil, 0, errors.New("field: need an odd electrode count for a centred cage")
	}
	nx := nElectrodes * pitchNodes
	s, err := NewSlice(nx, nz, dx)
	if err != nil {
		return nil, 0, err
	}
	mid := nElectrodes / 2
	for e := 0; e < nElectrodes; e++ {
		x0 := e*pitchNodes + gapNodes/2
		x1 := (e+1)*pitchNodes - gapNodes/2
		amp := v
		if e == mid {
			amp = -v
		}
		s.SetElectrode(x0, x1, amp)
	}
	center := mid*pitchNodes + pitchNodes/2
	return s, center, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
