package dsp

import (
	"errors"
	"math"
)

// This file holds the batched kernels of the burst decode path: the
// detector's profile filter, the pilot correlation scans, and the shared
// symbol matched filter / Viterbi stages of the oversampled demodulators.
// Each kernel evaluates a whole block of work (a signal, a batch of
// candidate offsets) per call, so the decode pipeline's inner loops live
// here rather than being re-expressed at every call site.

// ProfileInto fills energy[i] and variance[i] with the mean and
// population variance of the per-sample energy |s[k]|² over the window of
// samples ending at s[i] (the last min(i+1, window) of them): the
// one-pass filter sweep the §7.1 detectors scan. A packet begins where the
// windowed energy rises well above the noise floor, and interference is
// declared where the windowed energy variance is large (a clean MSK
// signal has nearly constant energy; a sum of two MSK signals does not).
// energy and variance must be at least len(s) long; a window below 1
// panics.
//
// Running sums of the energy and of its square slide with the window; the
// energy a full window evicts, |s[i−window]|², is recomputed from the
// input rather than kept in a ring buffer. Every product is rounded before
// it is added (the float64 conversions forbid a fused multiply-add), so
// the profile is the same on every GOARCH: the one amd64 computes, where
// the compiler fuses none of these sums.
//
//anc:hotpath
func ProfileInto(energy, variance []float64, s Signal, window int) {
	if window <= 0 {
		panic(errWindow)
	}
	w := min(window, len(s))
	var sum, sumSq float64
	for i, v := range s[:w] { // filling: the window holds i+1 samples
		e := sqMag(v)
		sum += e
		sumSq += float64(e * e)
		energy[i], variance[i] = profileAt(sum, sumSq, float64(i+1))
	}
	n := float64(window)
	for i := w; i < len(s); i++ { // full: s[i−window] leaves as s[i] enters
		old, e := sqMag(s[i-window]), sqMag(s[i])
		sum -= old
		sumSq -= float64(old * old)
		sum += e
		sumSq += float64(e * e)
		energy[i], variance[i] = profileAt(sum, sumSq, n)
	}
}

// sqMag returns |v|², each square rounded before the sum.
func sqMag(v complex128) float64 {
	return float64(real(v)*real(v)) + float64(imag(v)*imag(v))
}

var errWindow = errors.New("dsp: non-positive window")

// profileAt returns the mean and population variance of n samples from
// their running sum and sum of squares.
func profileAt(sum, sumSq, n float64) (mean, variance float64) {
	mean = sum / n
	v := sumSq/n - float64(mean*mean)
	if v < 0 { // floating-point cancellation guard
		v = 0
	}
	return mean, v
}

// CorrelatePhaseDiffs returns Σ cos(diffs[k] − expected[k]) over the
// expected profile — the soft pilot-correlation score of one candidate
// alignment in a recovered ∆φ stream (§7.2 refinement). diffs must be at
// least len(expected) long.
//
//anc:hotpath
func CorrelatePhaseDiffs(diffs, expected []float64) float64 {
	var score float64
	for k, e := range expected {
		score += math.Cos(diffs[k] - e)
	}
	return score
}

// BestDiffsCorrelation scans the batch of candidate offsets [lo, hi) of a
// ∆φ stream and returns the one whose window diffs[o:o+len(expected)]
// maximizes CorrelatePhaseDiffs, skipping offsets that would read out of
// bounds. Ties keep the earliest offset; when no offset is valid the
// fallback is returned with a −Inf score.
//
//anc:hotpath
func BestDiffsCorrelation(diffs, expected []float64, lo, hi, fallback int) (int, float64) {
	best, bestScore := fallback, math.Inf(-1)
	for o := lo; o < hi; o++ {
		if o < 0 || o+len(expected) > len(diffs) {
			continue
		}
		if score := CorrelatePhaseDiffs(diffs[o:], expected); score > bestScore {
			best, bestScore = o, score
		}
	}
	return best, bestScore
}

// BoxcarSymbolsInto fills g[i] with the sum of symbol i's sps samples
// (s[1+i·sps] .. s[(i+1)·sps], past the leading reference sample) — the
// symbol-length matched filter every constant-envelope oversampled
// receiver here shares. The symbol count is len(g).
//
//anc:hotpath
func BoxcarSymbolsInto(g []complex128, s Signal, sps int) []complex128 {
	for i := range g {
		var acc complex128
		base := 1 + i*sps
		for k := 0; k < sps; k++ {
			acc += s[base+k]
		}
		g[i] = acc
	}
	return g
}

// ViterbiHalfStep runs the two-state maximum-likelihood sequence detector
// over a matched-filtered symbol stream g with partial-response binary
// phase transitions: the observation at symbol i is the phase difference
// from g[i−1] to g[i] (for i = 0, from the phase reference ref to g[0]),
// state b ∈ {0, 1} is the previous bit, the hypothesized observation for
// a (prev p, next b) transition is (steps[b]+steps[p])/2, and the first
// observation hypothesizes steps[b]/2. The branch metric is the squared
// wrapped phase error. Observations are derived from g on the fly — no
// materialized observation stream — so the kernel's only storage is the
// caller's: dst receives the len(g) decided bits; back is the
// back-pointer scratch and must hold at least 2·len(g) bytes.
//
//anc:hotpath
func ViterbiHalfStep(back []byte, dst []byte, ref complex128, g []complex128, steps [2]float64) []byte {
	n := len(g)
	metric := [2]float64{}
	obs := PhaseDiff(ref, g[0])
	for b := 0; b < 2; b++ {
		e := WrapPhase(obs - steps[b]/2)
		metric[b] = e * e
	}
	for i := 1; i < n; i++ {
		obs = PhaseDiff(g[i-1], g[i])
		var next [2]float64
		for b := 0; b < 2; b++ {
			best := math.Inf(1)
			var bestPrev uint8
			for p := 0; p < 2; p++ {
				e := WrapPhase(obs - (steps[b]+steps[p])/2)
				c := metric[p] + e*e
				if c < best {
					best, bestPrev = c, uint8(p)
				}
			}
			next[b] = best
			back[2*i+b] = bestPrev
		}
		metric = next
	}
	state := uint8(0)
	if metric[1] < metric[0] {
		state = 1
	}
	for i := n - 1; i >= 0; i-- {
		dst[i] = state
		if i > 0 {
			state = back[2*i+int(state)]
		}
	}
	return dst
}

// ViterbiSettled returns how many leading decisions of a ViterbiHalfStep
// run over n symbols are settled, i.e. no longer input can change them.
// back is the back-pointer array that run left behind. The kernel traces
// both survivor paths back from symbol n−1 until they merge. A longer
// input repeats the same recursion over these n symbols, so its traceback
// enters symbol n−1 in state 0 or 1 and follows one of the two survivors
// from there: every decision before the merge is final.
//
//anc:hotpath
func ViterbiSettled(back []byte, n int) int {
	a, b := uint8(0), uint8(1)
	for i := n - 1; i > 0; i-- {
		a, b = back[2*i+int(a)], back[2*i+int(b)]
		if a == b {
			return i
		}
	}
	return 0
}

// GrowByteSlices returns dst resized to n slots, preserving the retained
// per-slot buffers so a reusing caller keeps every slot's storage — the
// slice-of-slices form of GrowBytes the batch demodulators use.
func GrowByteSlices(dst [][]byte, n int) [][]byte {
	if cap(dst) < n {
		grown := make([][]byte, n)
		copy(grown, dst)
		return grown
	}
	return dst[:n]
}
