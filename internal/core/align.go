package core

import (
	"errors"
	"math"
	mathbits "math/bits"

	"repro/internal/dsp"
)

// DefaultPilotMaxErrors is how many of the 64 pilot bits may disagree and
// still count as a match. The pilot is pseudo-random, so a false match at
// this tolerance is vanishingly unlikely (P < 1e-9 per offset).
const DefaultPilotMaxErrors = 6

// FindPattern returns the first index where pattern occurs in stream with
// at most maxErrors mismatches, or -1. With the network pilot as pattern
// this is the matching process of Fig. 5: "she tries to match the known
// pilot sequence with every sequence of 64 bits."
func FindPattern(stream, pattern []byte, maxErrors int) int {
	idx, _ := FindPatternScored(stream, pattern, maxErrors)
	return idx
}

// MaxPatternBits is the longest pattern FindPattern accepts: the scan holds
// the pattern in one machine word. The pilot is bits.PilotLength = 64 bits.
const MaxPatternBits = 64

var errLongPattern = errors.New("core: FindPattern pattern longer than MaxPatternBits")

// FindPatternScored is FindPattern returning also the number of mismatched
// bits at the match (meaningless when the index is -1). The decoder uses
// the score to choose among competing sub-symbol alignments.
//
// stream and pattern hold one bit per byte, as the demodulators emit them;
// a byte is read by its low bit. The scan slides the stream through a
// uint64 window and counts a position's mismatches with one popcount. It
// panics when the pattern is longer than MaxPatternBits.
//
//anc:hotpath
func FindPatternScored(stream, pattern []byte, maxErrors int) (int, int) {
	n := len(pattern)
	if n > MaxPatternBits {
		panic(errLongPattern)
	}
	if n == 0 || n > len(stream) {
		return -1, 0
	}
	var pat uint64
	for _, p := range pattern {
		pat = pat<<1 | uint64(p&1)
	}
	mask := ^uint64(0) >> (64 - n)
	var win uint64
	for i, b := range stream {
		win = (win<<1 | uint64(b&1)) & mask
		if i+1 < n {
			continue
		}
		if e := mathbits.OnesCount64(win ^ pat); e <= maxErrors {
			return i + 1 - n, e
		}
	}
	return -1, 0
}

// FindDiffAlignment locates an expected per-sample phase-difference
// pattern inside a stream of recovered ∆φ estimates over [lo, hi)
// candidate start offsets. The score at offset o is the normalized
// correlation
//
//	Σ_m sin(diffs[o+m])·sin(exp[m]) / Σ_m sin²(exp[m])
//
// which is ≈1 at the true alignment, ≈0 at random offsets, and works for
// any phase modulation: transitions whose expected difference is 0 (as
// most of a π/4-DQPSK symbol's are) simply do not contribute. Callers
// should require a score comfortably above 0 before trusting the result.
//
// This is how Alice detects the beginning of Bob's packet (§7.2): once
// her decoder starts emitting ∆φ estimates, the estimates are noise until
// Bob's signal begins, at which point they correlate with Bob's pilot.
func FindDiffAlignment(diffs []float64, exp []float64, lo, hi int) (offset int, score float64) {
	if len(exp) == 0 {
		return -1, -2
	}
	expSin := make([]float64, len(exp))
	var norm float64
	for m, e := range exp {
		expSin[m] = math.Sin(e)
		norm += expSin[m] * expSin[m]
	}
	if norm == 0 {
		return -1, -2
	}
	if lo < 0 {
		lo = 0
	}
	if hi > len(diffs)-len(exp)+1 {
		hi = len(diffs) - len(exp) + 1
	}
	bestOff, bestScore := -1, -2.0
	for o := lo; o < hi; o++ {
		var s float64
		for m, es := range expSin {
			if es != 0 {
				s += math.Sin(diffs[o+m]) * es
			}
		}
		s /= norm
		if s > bestScore {
			bestOff, bestScore = o, s
		}
	}
	return bestOff, bestScore
}

// ConjReverseInto writes the conjugated, time-reversed copy of s into
// dst's storage (grown when too small) and returns it; dst must not alias
// s. The transformation has the property that per-sample phase
// differences of the output equal the input's differences in reverse
// order *without* sign flip, so standard MSK demodulation of the copy
// yields the frame's bits in reverse order. Backward decoding (§7.4) is
// therefore the forward pipeline applied to the conjugate reverse of the
// reception.
func ConjReverseInto(dst dsp.Signal, s dsp.Signal) dsp.Signal {
	dst = growSignal(&dst, len(s))
	for i, v := range s {
		dst[len(s)-1-i] = complex(real(v), -imag(v))
	}
	return dst
}
