// Package core implements the paper's primary contribution: decoding MSK
// signals that interfered, given network-layer knowledge of one of them
// (§6–§7). The pipeline mirrors Algorithm 1:
//
//  1. detect a reception and classify it as clean or interfered (§7.1),
//  2. locate the known signal via the pilot sequence (§7.2),
//  3. estimate the two amplitudes from energy statistics (§6.2),
//  4. per sample, compute the two candidate phase pairs of Lemma 6.1,
//  5. pick the pair whose known-signal phase difference matches the
//     transmitted one (Eqs. 7–8), keeping the other signal's difference,
//  6. map the recovered phase differences to bits (§6.4),
//
// with the whole pipeline run forward by the node whose packet started
// first and backward (on the conjugated, time-reversed stream) by the node
// whose packet started second (§7.4).
package core

import (
	"math"
	"math/cmplx"
)

// PhasePair is one candidate solution (θ[n], φ[n]) for the phases of the
// two interfering signals at a sample, per Lemma 6.1.
type PhasePair struct {
	Theta float64 // phase of the signal with amplitude A (the known one)
	Phi   float64 // phase of the signal with amplitude B (the wanted one)
}

// SolvePhases returns the two candidate phase pairs for a received sample
// y = A·e^{iθ} + B·e^{iφ} (Lemma 6.1):
//
//	θ = arg(y·(A + B·D ± i·B·√(1−D²)))
//	φ = arg(y·(B + A·D ∓ i·A·√(1−D²)))
//
// where D = (|y|²−A²−B²)/(2AB). The ± pairing is fixed: the first
// solution's θ uses +, and its φ uses −. Noise can push D outside [−1, 1];
// it is clamped, in which case the two solutions coincide (the circles of
// Fig. 4 are tangent).
func SolvePhases(y complex128, a, b float64) [2]PhasePair {
	if a*b < tinyAB {
		// One signal is (numerically) absent: the composite is the other
		// signal alone and both phases collapse to arg(y).
		p := cmplx.Phase(y)
		return [2]PhasePair{{p, p}, {p, p}}
	}
	d := lemmaD(y, a, b)
	root := math.Sqrt(1 - d*d)

	t1 := cmplx.Phase(y * complex(a+b*d, b*root))
	t2 := cmplx.Phase(y * complex(a+b*d, -b*root))
	p1 := cmplx.Phase(y * complex(b+a*d, -a*root))
	p2 := cmplx.Phase(y * complex(b+a*d, a*root))
	return [2]PhasePair{{Theta: t1, Phi: p1}, {Theta: t2, Phi: p2}}
}

// tinyAB is the product AB below which SolvePhases treats one signal as
// absent.
const tinyAB = 1e-30

// lemmaD returns Lemma 6.1's D = (|y|²−A²−B²)/(2AB), clamped to [−1, 1].
// SolvePhases' four atan2 arguments are functions of y, A, B and D alone.
func lemmaD(y complex128, a, b float64) float64 {
	mag2 := real(y)*real(y) + imag(y)*imag(y)
	d := (mag2 - a*a - b*b) / (2 * (a * b))
	if d > 1 {
		d = 1
	} else if d < -1 {
		d = -1
	}
	return d
}

// conditioning returns |sin(θ−φ)| implied by a received sample: the
// geometric separation of the two Lemma 6.1 solutions, √(1−D²). Near 0
// the circles of Fig. 4 are tangent and the wanted phase is poorly
// determined; the decoder weights per-sample estimates by this quantity.
// It also returns the D it used (0 when one signal is absent), which
// decides whether the swapped assignment's solutions can be re-paired
// from these (see swappedSolutions).
func conditioning(y complex128, a, b float64) (cond, d float64) {
	if a*b < tinyAB {
		return 0, 0
	}
	d = lemmaD(y, a, b)
	return math.Sqrt(1 - d*d), d
}

// swappedSolutions returns SolvePhases(y, b, a) and its conditioning,
// given pp = SolvePhases(y, a, b) and (cond, d) = conditioning(y, a, b).
// Swapping the amplitudes swaps the roles of the four atan2 arguments:
// when the swapped D is bit-identical to d, the swapped solutions are
// {(p2, t2), (p1, t1)} with the same conditioning, so no atan2 is
// evaluated. Otherwise the rounding of |y|²−B²−A² moved D, and the
// swapped assignment is solved afresh.
func swappedSolutions(y complex128, a, b float64, pp [2]PhasePair, cond, d float64) ([2]PhasePair, float64) {
	cond2, d2 := conditioning(y, b, a)
	if math.Float64bits(d2) == math.Float64bits(d) {
		return [2]PhasePair{{Theta: pp[1].Phi, Phi: pp[1].Theta}, {Theta: pp[0].Phi, Phi: pp[0].Theta}}, cond
	}
	return SolvePhases(y, b, a), cond2
}
