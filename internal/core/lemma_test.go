package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
)

// reconstruct returns A·e^{iθ} + B·e^{iφ} for a candidate pair — the
// inverse of SolvePhases, which confirms a solution actually reproduces
// the observed sample.
func reconstruct(p PhasePair, a, b float64) complex128 {
	return complex(a, 0)*dsp.Cis(p.Theta) + complex(b, 0)*dsp.Cis(p.Phi)
}

// phaseClose reports whether two angles agree modulo 2π.
func phaseClose(a, b, tol float64) bool {
	return math.Abs(dsp.WrapPhase(a-b)) <= tol
}

func TestSolvePhasesRecoversTruth(t *testing.T) {
	// For any mixture y = A·e^{iθ} + B·e^{iφ}, one of the two returned
	// pairs must be (θ, φ) itself.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		a := 0.1 + rng.Float64()*3
		b := 0.1 + rng.Float64()*3
		theta := rng.Float64()*2*math.Pi - math.Pi
		phi := rng.Float64()*2*math.Pi - math.Pi
		y := complex(a, 0)*cmplx.Exp(complex(0, theta)) + complex(b, 0)*cmplx.Exp(complex(0, phi))
		sols := SolvePhases(y, a, b)
		found := false
		for _, s := range sols {
			if phaseClose(s.Theta, theta, 1e-6) && phaseClose(s.Phi, phi, 1e-6) {
				found = true
			}
		}
		if !found {
			t.Fatalf("trial %d: truth (%.4f, %.4f) not among %v", trial, theta, phi, sols)
		}
	}
}

func TestSolvePhasesBothSolutionsReconstruct(t *testing.T) {
	// Both candidate pairs must reproduce the observed sample — they are
	// the two intersection points of the circles in Fig. 4.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		a := 0.1 + rng.Float64()*2
		b := 0.1 + rng.Float64()*2
		y := complex(a, 0)*cmplx.Exp(complex(0, rng.Float64()*7)) +
			complex(b, 0)*cmplx.Exp(complex(0, rng.Float64()*7))
		for i, s := range SolvePhases(y, a, b) {
			if cmplx.Abs(reconstruct(s, a, b)-y) > 1e-6 {
				t.Fatalf("trial %d: solution %d does not reconstruct y", trial, i)
			}
		}
	}
}

func TestSolvePhasesPairingConvention(t *testing.T) {
	// Lemma 6.1: for each θ solution there is a *unique* matching φ. The
	// + root of θ pairs with the − root of φ. Verify the cross pairing
	// does NOT reconstruct (except in degenerate tangency).
	a, b := 1.0, 0.7
	theta, phi := 0.4, -1.3
	y := complex(a, 0)*cmplx.Exp(complex(0, theta)) + complex(b, 0)*cmplx.Exp(complex(0, phi))
	sols := SolvePhases(y, a, b)
	cross := PhasePair{Theta: sols[0].Theta, Phi: sols[1].Phi}
	if cmplx.Abs(reconstruct(cross, a, b)-y) < 1e-6 {
		t.Error("cross-paired solution unexpectedly reconstructs y")
	}
}

func TestSolvePhasesClampsD(t *testing.T) {
	// |y| slightly outside [|A−B|, A+B] (noise) must not produce NaNs.
	a, b := 1.0, 0.5
	for _, mag := range []float64{a + b + 0.01, a - b - 0.01} {
		y := complex(mag, 0) * cmplx.Exp(complex(0, 0.3))
		for _, s := range SolvePhases(y, a, b) {
			if math.IsNaN(s.Theta) || math.IsNaN(s.Phi) {
				t.Fatalf("NaN solution for |y|=%v", mag)
			}
		}
	}
}

func TestSolvePhasesDegenerate(t *testing.T) {
	// B = 0: both phases collapse to arg(y).
	y := cmplx.Exp(complex(0, 1.1))
	sols := SolvePhases(y, 1, 0)
	for _, s := range sols {
		if !phaseClose(s.Theta, 1.1, 1e-9) || !phaseClose(s.Phi, 1.1, 1e-9) {
			t.Errorf("degenerate solution %v, want collapse to 1.1", s)
		}
	}
}

func TestSolvePhasesTangency(t *testing.T) {
	// |y| = A+B exactly: the circles are tangent and both solutions
	// coincide with θ = φ = arg(y).
	a, b := 1.2, 0.8
	y := complex(a+b, 0) * cmplx.Exp(complex(0, -0.7))
	// |y|² = (a+b)² only up to rounding, so D = 1−ε and the residual root
	// √(1−D²) ≈ √(2ε) is far larger than ε; tolerances must reflect that.
	sols := SolvePhases(y, a, b)
	if !phaseClose(sols[0].Theta, sols[1].Theta, 1e-3) {
		t.Error("tangent solutions differ")
	}
	if !phaseClose(sols[0].Theta, -0.7, 1e-3) {
		t.Errorf("tangent θ = %v, want −0.7", sols[0].Theta)
	}
}

func TestSolvePhasesProperty(t *testing.T) {
	f := func(aRaw, bRaw, thetaRaw, phiRaw float64) bool {
		a := 0.05 + math.Abs(math.Mod(aRaw, 5))
		b := 0.05 + math.Abs(math.Mod(bRaw, 5))
		theta := math.Mod(thetaRaw, math.Pi)
		phi := math.Mod(phiRaw, math.Pi)
		y := complex(a, 0)*cmplx.Exp(complex(0, theta)) + complex(b, 0)*cmplx.Exp(complex(0, phi))
		for _, s := range SolvePhases(y, a, b) {
			if cmplx.Abs(reconstruct(s, a, b)-y) > 1e-6*(a+b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
