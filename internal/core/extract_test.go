package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/dqpsk"
	"repro/internal/dsp"
	"repro/internal/msk"
)

// conditioningReference is the conditioning the matcher used before it
// shared D with the swapped assignment: |sin(θ−φ)| from its own D, and 0
// outside [−1, 1].
func conditioningReference(y complex128, a, b float64) float64 {
	ab := a * b
	if ab < 1e-30 {
		return 0
	}
	mag2 := real(y)*real(y) + imag(y)*imag(y)
	d := (mag2 - a*a - b*b) / (2 * ab)
	if d > 1 || d < -1 {
		return 0
	}
	return math.Sqrt(1 - d*d)
}

// extractDiffsReference is one pass of the Eq. 7–8 matcher over one
// amplitude assignment, as the decoder ran it before a single sweep
// served both assignments: the reference the fused sweep is held to.
func (d *Decoder) extractDiffsReference(rx dsp.Signal, est AmplitudeEstimate, knownDiffs []float64, frameRef, knownEnd, end int) ([]float64, []float64, float64) {
	m := d.cfg.Modem
	diffs := make([]float64, end-1)
	weights := make([]float64, end-1)
	var prev [2]PhasePair
	prevCond := 0.0
	prevChoice := 0
	havePrev := false
	var residualSum float64
	var residualN int
	for n := frameRef; n+1 < end; n++ {
		if n+1 >= knownEnd {
			diffs[n] = dsp.PhaseDiff(rx[n], rx[n+1])
			weights[n] = 1
			continue
		}
		if !havePrev {
			prev = SolvePhases(rx[n], est.A, est.B)
			prevCond = conditioningReference(rx[n], est.A, est.B)
			havePrev = true
		}
		cur := SolvePhases(rx[n+1], est.A, est.B)
		curCond := conditioningReference(rx[n+1], est.A, est.B)
		kd := knownDiffs[n-frameRef]
		bestCost := math.Inf(1)
		bestErr := 0.0
		bestX := 0
		var bestDiff float64
		for x := 0; x < 2; x++ {
			for y := 0; y < 2; y++ {
				dphi := dsp.WrapPhase(cur[x].Phi - prev[y].Phi)
				e := math.Abs(dsp.WrapPhase(cur[x].Theta - prev[y].Theta - kd))
				cost := e
				if !d.cfg.NoMSKPrior {
					cost += 0.5 * m.StepPrior(dphi)
				}
				if y != prevChoice && !d.cfg.NoBranchContinuity {
					cost += branchContinuityPenalty
				}
				if cost < bestCost {
					bestCost = cost
					bestErr = e
					bestDiff = dphi
					bestX = x
				}
			}
		}
		prevChoice = bestX
		diffs[n] = bestDiff
		residualSum += bestErr
		residualN++
		if d.cfg.NoConditioningWeights {
			weights[n] = 1
		} else {
			weights[n] = math.Min(prevCond, curCond) + 0.05
		}
		prev, prevCond = cur, curCond
	}
	if residualN == 0 {
		return diffs, weights, math.Inf(1)
	}
	return diffs, weights, residualSum / float64(residualN)
}

// sameFloats reports whether two float slices are bit-identical.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkMatcher fails the test unless a matcher's streams and residual are
// bit-identical to a reference pass.
func checkMatcher(t *testing.T, label string, got matcher, diffs, weights []float64, residual float64) {
	t.Helper()
	if !sameFloats(got.diffs, diffs) {
		t.Errorf("%s: ∆φ stream differs from the reference pass", label)
	}
	if !sameFloats(got.weights, weights) {
		t.Errorf("%s: weight stream differs from the reference pass", label)
	}
	if r := got.residual(); math.Float64bits(r) != math.Float64bits(residual) {
		t.Errorf("%s: residual %v, reference %v", label, r, residual)
	}
}

// TestExtractDiffsFusedMatchesTwoPasses holds the one-sweep matcher to two
// separate reference passes, one per amplitude assignment, bit for bit,
// over both modems and every matcher ablation. The collisions have close
// amplitudes, the regime where the decoder tries both assignments, and
// run past the known signal's end so the plain-∆φ tail is covered too.
// Both ways of solving the swapped assignment must run: re-pairing the
// primary's solutions when the swapped D is bit-identical, and a fresh
// Lemma 6.1 solve when rounding moved it.
func TestExtractDiffsFusedMatchesTwoPasses(t *testing.T) {
	repaired, resolved := 0, 0
	modems := []PhyModem{msk.New(), dqpsk.New()}
	tweaks := []func(*Config){
		func(*Config) {},
		func(c *Config) { c.NoConditioningWeights = true },
		func(c *Config) { c.NoMSKPrior = true },
		func(c *Config) { c.NoBranchContinuity = true },
	}
	for mi, m := range modems {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			bitsA, bitsB := randomBits(rng, 300), randomBits(rng, 300)
			const frameRef, delayB = 37, 260
			sigA, sigB := m.Modulate(bitsA), m.Modulate(bitsB)
			rx := channel.Receive(dsp.NewNoiseSource(1e-3, seed), 50,
				channel.Transmission{Signal: sigA, Link: channel.Link{Gain: 1, Phase: 0.4}, Delay: frameRef},
				channel.Transmission{Signal: sigB, Link: channel.Link{Gain: 0.94, Phase: 2.1}, Delay: delayB})
			knownDiffs := m.PhaseDiffs(bitsA)
			knownEnd := frameRef + 1 + len(knownDiffs)
			end := len(rx)
			est := AmplitudeEstimate{A: 1.01, B: 0.93}
			swapped := est
			swapped.A, swapped.B = est.B, est.A
			for _, tweak := range tweaks {
				cfg := DefaultConfig(m, 1e-3)
				tweak(&cfg)
				d := NewDecoder(cfg)
				ws := NewWorkspace()
				wantD, wantW, wantR := d.extractDiffsReference(rx, est, knownDiffs, frameRef, knownEnd, end)
				altD, altW, altR := d.extractDiffsReference(rx, swapped, knownDiffs, frameRef, knownEnd, end)

				match, alt := d.extractDiffs(ws, rx, est, true, knownDiffs, frameRef, knownEnd, end)
				checkMatcher(t, "fused, primary", match, wantD, wantW, wantR)
				checkMatcher(t, "fused, swapped", alt, altD, altW, altR)

				match, alt = d.extractDiffs(ws, rx, est, false, knownDiffs, frameRef, knownEnd, end)
				checkMatcher(t, "primary only", match, wantD, wantW, wantR)
				if alt.diffs != nil || alt.residualN != 0 {
					t.Errorf("modem %d: the swapped matcher ran without swap", mi)
				}
			}
			for n := frameRef; n < knownEnd && n < end; n++ {
				_, d1 := conditioning(rx[n], est.A, est.B)
				_, d2 := conditioning(rx[n], est.B, est.A)
				if math.Float64bits(d1) == math.Float64bits(d2) {
					repaired++
				} else {
					resolved++
				}
			}
		}
	}
	if repaired == 0 || resolved == 0 {
		t.Errorf("swapped solves: %d re-paired, %d re-solved; both paths must run", repaired, resolved)
	}
}

// TestSwappedSolutionsMatchSolvePhases holds the re-pairing to a direct
// solve of the swapped assignment, bit for bit, on random samples and on
// the edge cases: clamped D, one signal absent, zero, infinite and NaN
// samples.
func TestSwappedSolutionsMatchSolvePhases(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	type sample struct {
		y    complex128
		a, b float64
	}
	samples := []sample{
		{0, 1, 0.9},
		{complex(1.9, 0), 1, 0.9},  // D clamped to 1
		{complex(0.01, 0), 1, 0.9}, // D clamped to −1
		{complex(0.3, 0.4), 1, 0},  // B absent
		{complex(0.3, 0.4), 0, 1},  // A absent
		{complex(0.3, 0.4), 1e-16, 1e-16},
		{complex(math.Inf(1), 0), 1, 0.9},
		{complex(math.NaN(), 1), 1, 0.9},
		{complex(0.5, 0.5), math.NaN(), 0.9},
	}
	for i := 0; i < 5000; i++ {
		a, b := 0.2+rng.Float64(), 0.2+rng.Float64()
		y := complex(a, 0)*dsp.Cis(rng.Float64()*7) + complex(b, 0)*dsp.Cis(rng.Float64()*7)
		y += complex(0.05*rng.NormFloat64(), 0.05*rng.NormFloat64())
		samples = append(samples, sample{y, a, b})
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for _, s := range samples {
		pp := SolvePhases(s.y, s.a, s.b)
		cond, d := conditioning(s.y, s.a, s.b)
		got, gotCond := swappedSolutions(s.y, s.a, s.b, pp, cond, d)
		want := SolvePhases(s.y, s.b, s.a)
		wantCond := conditioningReference(s.y, s.b, s.a)
		for k := range want {
			if !same(got[k].Theta, want[k].Theta) || !same(got[k].Phi, want[k].Phi) {
				t.Fatalf("y=%v a=%v b=%v: solution %d = %v, want %v", s.y, s.a, s.b, k, got[k], want[k])
			}
		}
		if !same(gotCond, wantCond) {
			t.Fatalf("y=%v a=%v b=%v: conditioning %v, want %v", s.y, s.a, s.b, gotCond, wantCond)
		}
		if c, _ := conditioning(s.y, s.a, s.b); !same(c, conditioningReference(s.y, s.a, s.b)) {
			t.Fatalf("y=%v a=%v b=%v: conditioning %v, reference %v", s.y, s.a, s.b, c, conditioningReference(s.y, s.a, s.b))
		}
	}
}
