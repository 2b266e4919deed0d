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
		bestX, bestErr, bestDiff := d.scanCandidates(prev, prevChoice, cur, knownDiffs[n-frameRef])
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

// scanCandidates is the Eq. 8 match as an exhaustive scan: every (x, y)
// pairing of sample n+1's branch x with sample n's branch y is scored,
// and the first strictly lowest cost wins (a NaN cost never does). It
// returns the winner's branch x, its known-signal mismatch and the wanted
// signal's ∆φ; with no winner, zeros. The matcher's pruned search is held
// to it.
func (d *Decoder) scanCandidates(prev [2]PhasePair, prevChoice int, cur [2]PhasePair, kd float64) (bestX int, bestErr, bestDiff float64) {
	bestCost := math.Inf(1)
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			dphi := dsp.WrapPhase(cur[x].Phi - prev[y].Phi)
			e := math.Abs(dsp.WrapPhase(cur[x].Theta - prev[y].Theta - kd))
			cost := e
			if !d.cfg.NoMSKPrior {
				cost += 0.5 * d.cfg.Modem.StepPrior(dphi)
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
	return bestX, bestErr, bestDiff
}

// TestMatchSampleMatchesScan holds the pruned matcher to the exhaustive
// scan, bit for bit, under all eight combinations of the three matcher
// ablations and both modems: on random samples, on samples whose Lemma
// 6.1 D clamps to ±1 (the two solutions coincide, so candidates tie), on
// exact ties built by hand, and with NaN phases and NaN known
// differences. Pruning must actually skip candidates, or the test shows
// nothing.
func TestMatchSampleMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	nan := math.NaN()
	type input struct {
		prev, cur [2]PhasePair
		kd        float64
	}
	var inputs []input
	solve := func(y complex128) [2]PhasePair { return SolvePhases(y, 1, 0.8) }
	for i := 0; i < 20000; i++ {
		in := input{kd: (rng.Float64()*2 - 1) * math.Pi}
		switch i % 5 {
		case 0, 1: // samples of a noisy collision
			in.prev = solve(complex(rng.NormFloat64(), rng.NormFloat64()))
			in.cur = solve(complex(rng.NormFloat64(), rng.NormFloat64()))
		case 2: // |y| outside [A−B, A+B]: D clamps and the solutions coincide
			r := []float64{0.1, 1.9, 2.5}[rng.Intn(3)]
			in.prev = solve(dsp.Cis(rng.Float64()*7) * complex(r, 0))
			in.cur = solve(dsp.Cis(rng.Float64()*7) * complex(r, 0))
		case 3: // hand-built exact ties: repeated phases, kd on the mismatch
			p := PhasePair{Theta: rng.Float64(), Phi: rng.Float64()}
			in.prev = [2]PhasePair{p, p}
			in.cur = [2]PhasePair{{Theta: p.Theta + 0.5, Phi: p.Phi + math.Pi/8}, {Theta: p.Theta + 0.5, Phi: p.Phi - math.Pi/8}}
			in.kd = 0.5
		default: // NaNs in a phase or in the known difference
			in.prev = solve(complex(rng.NormFloat64(), rng.NormFloat64()))
			in.cur = solve(complex(rng.NormFloat64(), rng.NormFloat64()))
			switch rng.Intn(4) {
			case 0:
				in.kd = nan
			case 1:
				in.cur[rng.Intn(2)].Theta = nan
			case 2:
				in.prev[rng.Intn(2)].Phi = nan
			default:
				in.cur[0].Phi, in.cur[1].Phi = nan, nan
			}
		}
		inputs = append(inputs, in)
	}
	skipped := 0
	for _, m := range []PhyModem{msk.New(), dqpsk.New()} {
		for flags := 0; flags < 8; flags++ {
			cfg := DefaultConfig(m, 1e-3)
			cfg.NoMSKPrior = flags&1 != 0
			cfg.NoBranchContinuity = flags&2 != 0
			cfg.NoConditioningWeights = flags&4 != 0
			counted := &countingPrior{PhyModem: m}
			cfg.Modem = counted
			d := NewDecoder(cfg)
			for i, in := range inputs {
				prevChoice := i % 2
				mt := matcher{prev: in.prev, prevCond: 0.3, prevChoice: prevChoice,
					diffs: make([]float64, 1), weights: make([]float64, 1)}
				counted.calls = 0
				d.matchSample(&mt, 0, in.cur, 0.6, in.kd)
				if !cfg.NoMSKPrior {
					skipped += 4 - counted.calls
				}
				x, e, dphi := d.scanCandidates(in.prev, prevChoice, in.cur, in.kd)
				wantW := math.Min(0.3, 0.6) + 0.05
				if cfg.NoConditioningWeights {
					wantW = 1
				}
				if mt.prevChoice != x || !sameFloats(mt.diffs, []float64{dphi}) ||
					math.Float64bits(mt.residualSum) != math.Float64bits(e) ||
					math.Float64bits(mt.weights[0]) != math.Float64bits(wantW) ||
					!sameFloats([]float64{mt.prev[0].Theta, mt.prev[0].Phi, mt.prev[1].Theta, mt.prev[1].Phi},
						[]float64{in.cur[0].Theta, in.cur[0].Phi, in.cur[1].Theta, in.cur[1].Phi}) {
					t.Fatalf("%T flags %03b input %d: matcher chose (%d, ∆φ %v, e %v), scan (%d, %v, %v)",
						m, flags, i, mt.prevChoice, mt.diffs[0], mt.residualSum, x, dphi, e)
				}
			}
		}
	}
	if skipped == 0 {
		t.Error("the matcher evaluated every StepPrior; the pruning never ran")
	}
}

// countingPrior counts a modem's StepPrior calls.
type countingPrior struct {
	PhyModem
	calls int
}

func (c *countingPrior) StepPrior(dphi float64) float64 {
	c.calls++
	return c.PhyModem.StepPrior(dphi)
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
