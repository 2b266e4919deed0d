// Package dsp provides the complex-baseband signal primitives the ANC stack
// is built on: signals as slices of complex samples, energy and power
// measurements, moving-window detectors, phase arithmetic, correlation, and
// additive white Gaussian noise generation.
//
// The paper's receiver (§5.3) sees a stream of complex samples
// y[n] = h·A·e^{i(θ[n]+γ)} and all downstream algorithms — MSK demodulation,
// interference detection, amplitude estimation, the Lemma 6.1 phase solver —
// are expressed over such streams. This package is the shared vocabulary.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Signal is a stream of complex baseband samples. The zero value is an
// empty signal ready to append to.
type Signal []complex128

// Clone returns an independent copy of s.
func (s Signal) Clone() Signal {
	out := make(Signal, len(s))
	copy(out, s)
	return out
}

// Energy returns the total energy Σ|s[n]|².
func (s Signal) Energy() float64 {
	var e float64
	for _, v := range s {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// Power returns the average per-sample power Energy/len. Empty signals have
// zero power.
func (s Signal) Power() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.Energy() / float64(len(s))
}

// Scale returns s multiplied element-wise by the complex gain g.
func (s Signal) Scale(g complex128) Signal {
	out := make(Signal, len(s))
	for i, v := range s {
		out[i] = v * g
	}
	return out
}

// ScaleInPlace multiplies s element-wise by the complex gain g, overwriting
// s, and returns it. The sample values equal Scale's.
func (s Signal) ScaleInPlace(g complex128) Signal {
	for i, v := range s {
		s[i] = v * g
	}
	return s
}

// ScaleTo returns s rescaled so its average power equals p. A zero signal
// is returned unchanged (there is nothing to normalize).
func (s Signal) ScaleTo(p float64) Signal {
	cur := s.Power()
	if cur == 0 {
		return s.Clone()
	}
	return s.Scale(complex(math.Sqrt(p/cur), 0))
}

// Add returns the element-wise sum of s and other. The result has the
// length of the longer operand; the shorter one is treated as zero-padded,
// which models a shorter transmission overlapping a longer one.
func (s Signal) Add(other Signal) Signal {
	n := len(s)
	if len(other) > n {
		n = len(other)
	}
	out := make(Signal, n)
	copy(out, s)
	for i, v := range other {
		out[i] += v
	}
	return out
}

// Delay returns s preceded by d zero samples. Negative delays are rejected;
// the medium expresses early arrivals by delaying the other signal.
func (s Signal) Delay(d int) Signal {
	if d < 0 {
		panic(fmt.Sprintf("dsp: negative delay %d", d))
	}
	out := make(Signal, d+len(s))
	copy(out[d:], s)
	return out
}

// PadTo returns s extended with zero samples to at least length n.
func (s Signal) PadTo(n int) Signal {
	if len(s) >= n {
		return s.Clone()
	}
	out := make(Signal, n)
	copy(out, s)
	return out
}

// Slice returns s[from:to] clamped to the valid range, as a copy. It never
// panics: detectors routinely probe windows near the stream boundaries.
func (s Signal) Slice(from, to int) Signal {
	if from < 0 {
		from = 0
	}
	if to > len(s) {
		to = len(s)
	}
	if from >= to {
		return Signal{}
	}
	return s[from:to].Clone()
}

// View is Slice without the copy: it returns s[from:to] clamped to the
// valid range as a view sharing s's storage. Use it for read-only
// measurements (Power, Energy) on the decode hot path; use Slice when the
// result must outlive mutations of s.
func (s Signal) View(from, to int) Signal {
	if from < 0 {
		from = 0
	}
	if to > len(s) {
		to = len(s)
	}
	if from >= to {
		return Signal{}
	}
	return s[from:to]
}

// WrapPhase maps an angle to the interval (−π, π]. Every phase comparison
// in the decoder wraps first; forgetting to do so turns a −π/2 symbol into
// a 3π/2 "error" and flips the decision.
func WrapPhase(p float64) float64 {
	for p > math.Pi {
		p -= 2 * math.Pi
	}
	for p <= -math.Pi {
		p += 2 * math.Pi
	}
	return p
}

// PhaseDiff returns the wrapped difference arg(b) − arg(a). For unit-ish
// magnitude samples this is the MSK demodulation quantity of Eq. 1:
// arg(b/a).
func PhaseDiff(a, b complex128) float64 {
	return cmplx.Phase(b * cmplx.Conj(a))
}

// Cis returns e^{ix} = cos x + i·sin x. It is bit-identical to
// cmplx.Exp(complex(0, x)), which computes Exp(0)·cos x and Exp(0)·sin x
// with Exp(0) exactly 1, and skips that exponential.
func Cis(x float64) complex128 {
	s, c := math.Sincos(x)
	return complex(c, s)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}
