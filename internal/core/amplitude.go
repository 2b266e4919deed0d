package core

import (
	"errors"
	"math"

	"repro/internal/dsp"
)

// AmplitudeEstimate holds the two recovered signal amplitudes. A is the
// amplitude of the receiver's known signal, B of the wanted one; the raw
// µ/σ statistics cannot distinguish the two, so assignment happens
// separately (see AssignAmplitudes).
type AmplitudeEstimate struct {
	A, B float64
	Mu   float64 // µ = E[|y|²] = A² + B² (Eq. 5)
	Sig  float64 // σ = A² + B² + 4AB/π (Eq. 6)
}

// ErrAmplitude is returned when the energy statistics are inconsistent
// with a two-signal mixture (e.g. the window was actually noise).
var ErrAmplitude = errors.New("core: amplitude estimation failed")

// EstimateAmplitudes recovers the two amplitudes from an interfered window
// using the paper's two moments (§6.2):
//
//	µ = (1/N)·Σ|y[n]|²                    = A² + B²        (Eq. 5)
//	σ = (2/N)·Σ_{|y[n]|²>µ} |y[n]|²       = A² + B² + 4AB/π (Eq. 6)
//
// giving AB = π(σ−µ)/4 and then A², B² as the roots of
// z² − µ·z + (AB)² = 0. The convention that whitening makes the bit
// streams random (so E[cos(θ−φ)] = 0) is what makes Eq. 5 exact.
//
// The returned estimate has A ≥ B; callers resolve which physical signal
// each belongs to with AssignAmplitudes.
func EstimateAmplitudes(window dsp.Signal) (AmplitudeEstimate, error) {
	return estimateAmplitudesWith(nil, window)
}

// estimateAmplitudesWith is EstimateAmplitudes drawing its magnitude
// scratch from a workspace (nil for fresh allocations).
func estimateAmplitudesWith(ws *Workspace, window dsp.Signal) (AmplitudeEstimate, error) {
	n := len(window)
	if n < 8 {
		return AmplitudeEstimate{}, ErrAmplitude
	}
	var mu float64
	var mag2 []float64
	if ws == nil {
		mag2 = make([]float64, n)
	} else {
		mag2 = growFloats(&ws.mag2, n)
	}
	for i, v := range window {
		m := real(v)*real(v) + imag(v)*imag(v)
		mag2[i] = m
		mu += m
	}
	mu /= float64(n)

	var sig float64
	for _, m := range mag2 {
		if m > mu {
			sig += m
		}
	}
	sig *= 2 / float64(n)

	ab := math.Pi * (sig - mu) / 4
	if ab <= 0 {
		// σ ≤ µ happens for pure noise or a constant-envelope (single)
		// signal; there is no second amplitude to recover.
		return AmplitudeEstimate{Mu: mu, Sig: sig}, ErrAmplitude
	}
	disc := mu*mu - 4*ab*ab
	if disc < 0 {
		// The σ statistic assumes the inter-signal phase sweeps its full
		// range across the window (which a relative carrier offset
		// normally guarantees). When two senders' oscillators happen to
		// nearly match, θ−φ sits on a sparse lattice, σ biases, and the
		// quadratic loses its real roots. The envelope estimator below
		// is immune to the phase distribution; fall back to it.
		if env, err := estimateEnvelopeWith(ws, window); err == nil {
			env.Mu, env.Sig = mu, sig
			return env, nil
		}
		eq := math.Sqrt(mu / 2)
		return AmplitudeEstimate{A: eq, B: eq, Mu: mu, Sig: sig}, nil
	}
	root := math.Sqrt(disc)
	a2 := (mu + root) / 2
	b2 := (mu - root) / 2
	if b2 < 0 {
		b2 = 0
	}
	est := AmplitudeEstimate{A: math.Sqrt(a2), B: math.Sqrt(b2), Mu: mu, Sig: sig}
	// Hybrid refinement: µ = A²+B² is a low-variance scale anchor, but
	// the σ-derived A/B split is the noisiest part of the moment method —
	// especially for modulations whose phase holds still within a symbol
	// (π/4-DQPSK), where sample correlation cuts the effective N. The
	// envelope quantiles measure the A/B *ratio* far more directly, so
	// when they are available the split comes from them, rescaled to µ.
	if env, err := estimateEnvelopeWith(ws, window); err == nil && env.A > 0 {
		r := env.B / env.A
		a := math.Sqrt(mu / (1 + r*r))
		est.A, est.B = a, r*a
	}
	return est, nil
}

// EstimateAmplitudesEnvelope recovers the two amplitudes from the
// envelope extremes of the mixture: |y| ranges over [|A−B|, A+B] as the
// inter-signal phase varies, so robust quantiles of |y| give
//
//	A = (q_hi + q_lo)/2,  B = (q_hi − q_lo)/2   (A ≥ B)
//
// Unlike the Eq. 5/6 moments this needs no assumption about the phase
// distribution beyond both extremes being visited — which MSK guarantees
// whenever the two bit streams differ anywhere in the window. It is used
// as a fallback (see EstimateAmplitudes) and by the estimator ablation.
func EstimateAmplitudesEnvelope(window dsp.Signal) (AmplitudeEstimate, error) {
	return estimateEnvelopeWith(nil, window)
}

// estimateEnvelopeWith is EstimateAmplitudesEnvelope drawing its magnitude
// scratch from a workspace (nil for a fresh allocation); the scratch is
// left reordered.
func estimateEnvelopeWith(ws *Workspace, window dsp.Signal) (AmplitudeEstimate, error) {
	n := len(window)
	if n < 64 {
		return AmplitudeEstimate{}, ErrAmplitude
	}
	var mags []float64
	if ws == nil {
		mags = make([]float64, n)
	} else {
		mags = growFloats(&ws.mags, n)
	}
	for i, v := range window {
		mags[i] = math.Hypot(real(v), imag(v))
	}
	// 0.5% guard quantiles reject additive-noise outliers.
	lo, hi := selectRanks(mags, n/200)
	a := (hi + lo) / 2
	b := (hi - lo) / 2
	// A near-degenerate spread means there is no resolvable second
	// signal (single carrier plus noise).
	if b < 0.05*a || a <= 0 {
		return AmplitudeEstimate{}, ErrAmplitude
	}
	return AmplitudeEstimate{A: a, B: b}, nil
}

// AssignAmplitudes orders an estimate so that A matches the known signal.
// knownPower is an independent measurement of the known signal's received
// power — in practice the mean energy of the interference-free head of the
// stream, where only the known signal is present (§7.2 guarantees such a
// region exists). The estimate whose square is closer to knownPower
// becomes A.
func AssignAmplitudes(est AmplitudeEstimate, knownPower float64) AmplitudeEstimate {
	da := math.Abs(est.A*est.A - knownPower)
	db := math.Abs(est.B*est.B - knownPower)
	if db < da {
		est.A, est.B = est.B, est.A
	}
	return est
}

// selectRanks returns the elements at ranks k and len(xs)−1−k of xs in
// sort.Float64s' order (NaN before every number) — the two quantiles the
// envelope estimator reads — without sorting. xs[:k+1] becomes a max-heap
// of the k+1 smallest elements, so its root is rank k; the k+1 largest of
// the rest then form a min-heap whose root is rank len(xs)−1−k. That is
// O(n log k), and at the estimator's k = n/200 little more than two
// comparisons per element. Equal floats are interchangeable, as in any
// sort, so the two results are the floats sorting returns (a ±0 or NaN
// payload aside, which |y| never produces). xs is reordered; it needs
// len(xs) ≥ 2k+2.
func selectRanks(xs []float64, k int) (lo, hi float64) {
	low := xs[:k+1]
	heapify(low, floatAfter)
	for i := k + 1; i < len(xs); i++ {
		if floatLess(xs[i], low[0]) {
			low[0], xs[i] = xs[i], low[0]
			siftDown(low, 0, floatAfter)
		}
	}
	rest := xs[k+1:] // the len(xs)−k−1 largest elements
	high := rest[:k+1]
	heapify(high, floatLess)
	for i := k + 1; i < len(rest); i++ {
		if floatLess(high[0], rest[i]) {
			high[0], rest[i] = rest[i], high[0]
			siftDown(high, 0, floatLess)
		}
	}
	return low[0], high[0]
}

// floatLess is sort.Float64s' order: NaN sorts before every number.
func floatLess(x, y float64) bool { return x < y || x != x && y == y }

// floatAfter is floatLess reversed.
func floatAfter(x, y float64) bool { return floatLess(y, x) }

// heapify arranges h as a heap whose root comes first under before.
func heapify(h []float64, before func(x, y float64) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, before)
	}
}

// siftDown restores the heap order of h below index i.
func siftDown(h []float64, i int, before func(x, y float64) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && before(h[c+1], h[c]) {
			c++
		}
		if !before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
