package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// sameBits reports whether two complex values are bit-identical (NaNs of
// any payload count as equal to each other).
func sameBits(a, b complex128) bool {
	same := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) && math.IsNaN(y)
		}
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return same(real(a), real(b)) && same(imag(a), imag(b))
}

// TestCisMatchesCmplxExp pins the identity the synthesis path relies on:
// Cis(x) is bit-for-bit cmplx.Exp(complex(0, x)), including for negative,
// huge and non-finite arguments, and stays so under the complex gain
// multiply every caller applies.
func TestCisMatchesCmplxExp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	special := []float64{0, math.Copysign(0, -1), math.Pi, -math.Pi, 1e300, -1e300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	const n = 1_200_000
	for i := 0; i < n+len(special); i++ {
		var x float64
		switch {
		case i < len(special):
			x = special[i]
		case i%4 == 0: // phases as the modems and links produce them
			x = (rng.Float64()*2 - 1) * 2 * math.Pi
		case i%4 == 1: // carrier-offset rotations: Ω·n for long signals
			x = (rng.Float64()*2 - 1) * 0.012 * float64(rng.Intn(1<<16))
		case i%4 == 2: // large magnitudes
			x = (rng.Float64()*2 - 1) * math.Pow(10, rng.Float64()*20)
		default: // arbitrary bit patterns
			x = math.Float64frombits(rng.Uint64())
		}
		got, want := Cis(x), cmplx.Exp(complex(0, x))
		if !sameBits(got, want) {
			t.Fatalf("Cis(%v) = %v, cmplx.Exp = %v", x, got, want)
		}
		g := complex(0.37+rng.Float64(), 0)
		if !sameBits(g*got, g*want) {
			t.Fatalf("scaled Cis(%v) differs", x)
		}
	}
}

// movingStats is the ring-buffer window ProfileInto replaced: push keeps
// the last window energies and their running sums, and meanVariance is
// the profile entry after each push. ProfileInto is held to it. Its
// products are rounded before they are added, as amd64 computes them, so
// the comparison is exact on every GOARCH.
type movingStats struct {
	window  int
	samples []float64 // ring buffer of |y|² values
	head    int
	count   int
	sum     float64
	sumSq   float64
}

func (m *movingStats) push(v complex128) {
	e := float64(real(v)*real(v)) + float64(imag(v)*imag(v))
	if m.count == m.window {
		old := m.samples[m.head]
		m.sum -= old
		m.sumSq -= float64(old * old)
	} else {
		m.count++
	}
	m.samples[m.head] = e
	m.sum += e
	m.sumSq += float64(e * e)
	m.head++
	if m.head == m.window {
		m.head = 0
	}
}

func (m *movingStats) meanVariance() (mean, variance float64) {
	n := float64(m.count)
	mean = m.sum / n
	v := m.sumSq/n - float64(mean*mean)
	if v < 0 {
		v = 0
	}
	return mean, v
}

// TestProfileIntoMatchesAccessors pins ProfileInto to the ring-buffer
// push loop it replaced, bit for bit: after each push, the reference's
// meanVariance gives the profile entry. Windows 1, 3, 96 and 128 run over
// signals shorter than, as long as and longer than the window, with
// constant-envelope stretches that hit the variance clamp.
func TestProfileIntoMatchesAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range []int{1, 3, 96, 128} {
		for _, n := range []int{0, 1, w - 1, w, w + 1, 2*w + 5, 1500} {
			s := make(Signal, n)
			for i := range s {
				s[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				if i%97 < 40 {
					s[i] = complex(0.7, 0) // constant-envelope stretches hit the clamp
				}
			}
			energy, variance := make([]float64, n), make([]float64, n)
			ProfileInto(energy, variance, s, w)
			ref := movingStats{window: w, samples: make([]float64, w)}
			for i, v := range s {
				ref.push(v)
				mean, vr := ref.meanVariance()
				if math.Float64bits(energy[i]) != math.Float64bits(mean) ||
					math.Float64bits(variance[i]) != math.Float64bits(vr) {
					t.Fatalf("w=%d n=%d i=%d: profile (%v, %v), push loop (%v, %v)",
						w, n, i, energy[i], variance[i], mean, vr)
				}
			}
		}
	}
}

// TestViterbiSettledIsFinal runs the half-step detector over a noisy
// partial-response stream and over every longer extension of it: the
// first ViterbiSettled decisions of the short run must reappear in each
// longer run.
func TestViterbiSettledIsFinal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	steps := [2]float64{-math.Pi / 2, math.Pi / 2}
	settledTotal, total := 0, 0
	for trial := 0; trial < 200; trial++ {
		const n = 120
		noise := 0.2 + rng.Float64()*1.2
		g := make([]complex128, n)
		phase := 0.0
		for i := range g {
			phase += steps[rng.Intn(2)]
			g[i] = Cis(phase+noise*rng.NormFloat64()) * complex(1+0.3*rng.NormFloat64(), 0)
		}
		ref := complex(1, 0)
		full := ViterbiHalfStep(make([]byte, 2*n), make([]byte, n), ref, g, steps)
		for cut := 1; cut < n; cut += 1 + rng.Intn(7) {
			back := make([]byte, 2*cut)
			short := ViterbiHalfStep(back, make([]byte, cut), ref, g[:cut], steps)
			k := ViterbiSettled(back, cut)
			if k < 0 || k > cut {
				t.Fatalf("settled %d outside [0, %d]", k, cut)
			}
			for i := 0; i < k; i++ {
				if short[i] != full[i] {
					t.Fatalf("trial %d cut %d: settled bit %d of %d changed in the longer run", trial, cut, i, k)
				}
			}
			settledTotal += k
			total += cut
		}
	}
	if frac := float64(settledTotal) / float64(total); frac < 0.5 {
		t.Errorf("only %.2f of decisions settled; the property above is close to vacuous", frac)
	}
}
