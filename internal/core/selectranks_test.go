package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dsp"
)

// envelopeSortReference is the envelope estimator before selection, kept
// as the reference: it sorts every magnitude to read the two guard
// quantiles.
func envelopeSortReference(window dsp.Signal) (AmplitudeEstimate, error) {
	n := len(window)
	if n < 64 {
		return AmplitudeEstimate{}, ErrAmplitude
	}
	mags := make([]float64, n)
	for i, v := range window {
		mags[i] = math.Hypot(real(v), imag(v))
	}
	sort.Float64s(mags)
	lo := mags[n/200]
	hi := mags[n-1-n/200]
	a := (hi + lo) / 2
	b := (hi - lo) / 2
	if b < 0.05*a || a <= 0 {
		return AmplitudeEstimate{}, ErrAmplitude
	}
	return AmplitudeEstimate{A: a, B: b}, nil
}

// sameRank reports whether x is the float sort.Float64s put at a rank
// where it put want: bit-identical, or a value its order cannot tell
// apart from want (the other zero, another NaN).
func sameRank(x, want float64) bool {
	return math.Float64bits(x) == math.Float64bits(want) || x == want || math.IsNaN(x) && math.IsNaN(want)
}

// rankInputs returns n-element inputs for selectRanks: uniform values,
// heavy duplicates, ±0, ±Inf and NaN mixed in, and the orders that are
// worst for a heap (ascending, descending) or all-special.
func rankInputs(rng *rand.Rand, n int) []rankInput {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	fill := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	return []rankInput{
		{"uniform", fill(func(int) float64 { return rng.Float64() })},
		{"duplicates", fill(func(int) float64 { return float64(rng.Intn(3)) / 4 })},
		{"signed zeros", fill(func(int) float64 { return specials[rng.Intn(2)] })},
		{"specials mixed", fill(func(int) float64 {
			if rng.Intn(8) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return rng.NormFloat64()
		})},
		{"specials only", fill(func(int) float64 { return specials[rng.Intn(len(specials))] })},
		{"mostly NaN", fill(func(int) float64 {
			if rng.Intn(10) == 0 {
				return rng.Float64()
			}
			return math.NaN()
		})},
		{"ascending", fill(func(i int) float64 { return float64(i) })},
		{"descending", fill(func(i int) float64 { return float64(n - i) })},
	}
}

// rankInput is one named selectRanks input.
type rankInput struct {
	name string
	xs   []float64
}

// TestSelectRanksMatchesSort holds the selection to sort.Float64s: for
// every input and every admissible k it returns the floats sorting puts
// at ranks k and n−1−k, and leaves a permutation of its input behind.
func TestSelectRanksMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{64, 199, 200, 201, 4096} {
		for _, in := range rankInputs(rng, n) {
			name, xs := in.name, in.xs
			sorted := slices.Clone(xs)
			sort.Float64s(sorted)
			for _, k := range []int{n / 200, 0, 1, 7, n/2 - 1} {
				work := slices.Clone(xs)
				lo, hi := selectRanks(work, k)
				if !sameRank(lo, sorted[k]) || !sameRank(hi, sorted[n-1-k]) {
					t.Errorf("n=%d %s k=%d: (%v, %v), sorted (%v, %v)", n, name, k, lo, hi, sorted[k], sorted[n-1-k])
				}
				if !samePermutation(work, xs) {
					t.Errorf("n=%d %s k=%d: selection lost or invented elements", n, name, k)
				}
			}
		}
	}
}

// samePermutation reports whether a and b hold the same float bit
// patterns.
func samePermutation(a, b []float64) bool {
	bitsOf := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(bitsOf(a), bitsOf(b))
}

// TestEnvelopeEstimatorMatchesSortReference holds the envelope estimator
// to its sorting reference bit for bit, on two-signal mixtures, single
// carriers, and windows holding zeros, infinities and NaNs, through both
// the workspace and the allocating entry point.
func TestEnvelopeEstimatorMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var windows []dsp.Signal
	for _, n := range []int{64, 199, 200, 201, 4096} {
		for _, ab := range [][2]float64{{1, 0.5}, {1, 0.97}, {0.3, 0.9}, {1, 0}} {
			windows = append(windows, mixedMSK(rng, ab[0], max(ab[1], 1e-9), n/4+1)[:n])
		}
		odd := mixedMSK(rng, 1, 0.6, n/4+1)[:n]
		for i := 0; i < n/10; i++ {
			odd[rng.Intn(n)] = []complex128{0, complex(math.Inf(1), 0), complex(math.NaN(), 0), complex(0, math.Copysign(0, -1))}[rng.Intn(4)]
		}
		windows = append(windows, odd, make(dsp.Signal, n))
	}
	ws := NewWorkspace()
	for i, w := range windows {
		want, wantErr := envelopeSortReference(w)
		for _, got := range []func() (AmplitudeEstimate, error){
			func() (AmplitudeEstimate, error) { return estimateEnvelopeWith(ws, w) },
			func() (AmplitudeEstimate, error) { return EstimateAmplitudesEnvelope(w) },
		} {
			est, err := got()
			if err != wantErr {
				t.Fatalf("window %d: err %v, reference %v", i, err, wantErr)
			}
			if math.Float64bits(est.A) != math.Float64bits(want.A) || math.Float64bits(est.B) != math.Float64bits(want.B) {
				t.Fatalf("window %d: (%v, %v), reference (%v, %v)", i, est.A, est.B, want.A, want.B)
			}
		}
	}
}
