package msk

import (
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

// The Into variants must be bit-identical to their allocating twins and,
// once dst and scratch have grown, allocation free — that is the contract
// the zero-allocation decode pipeline rests on.

func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sps := range []int{1, 2, 4, 7} {
		m := New(WithSamplesPerSymbol(sps))
		in := randomBits(rng, 301)
		sig := m.Modulate(in)
		// Perturb the signal so MLSE decisions are non-trivial.
		noisy := dsp.NewNoiseSource(1e-2, int64(sps)).AddTo(sig)

		var scratch dsp.Scratch
		got := m.DemodulateInto(&scratch, nil, noisy)
		want := m.Demodulate(noisy)
		if len(got) != len(want) {
			t.Fatalf("sps=%d: DemodulateInto returned %d bits, Demodulate %d", sps, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sps=%d: DemodulateInto bit %d = %d, Demodulate %d", sps, i, got[i], want[i])
			}
		}

		diffs := m.PhaseDiffs(in)
		diffsInto := m.PhaseDiffsInto(make([]float64, 0, 8), in)
		if len(diffs) != len(diffsInto) {
			t.Fatalf("sps=%d: PhaseDiffsInto length %d != %d", sps, len(diffsInto), len(diffs))
		}
		for i := range diffs {
			if diffs[i] != diffsInto[i] {
				t.Fatalf("sps=%d: PhaseDiffsInto[%d] = %v != %v", sps, i, diffsInto[i], diffs[i])
			}
		}

		weights := make([]float64, len(diffs))
		for i := range weights {
			weights[i] = rng.Float64()
		}
		dec := m.DecideDiffs(diffs, weights)
		decInto := m.DecideDiffsInto(make([]byte, 1), diffs, weights)
		if len(dec) != len(decInto) {
			t.Fatalf("sps=%d: DecideDiffsInto length %d != %d", sps, len(decInto), len(dec))
		}
		for i := range dec {
			if dec[i] != decInto[i] {
				t.Fatalf("sps=%d: DecideDiffsInto[%d] = %d != %d", sps, i, decInto[i], dec[i])
			}
		}
	}
}

func TestIntoVariantsSteadyStateAllocFree(t *testing.T) {
	for _, sps := range []int{1, 4} {
		m := New(WithSamplesPerSymbol(sps))
		in := randomBits(rand.New(rand.NewSource(8)), 512)
		sig := m.Modulate(in)

		samples := m.ModulateInto(nil, in)
		if allocs := testing.AllocsPerRun(20, func() {
			samples = m.ModulateInto(samples, in)
		}); allocs != 0 {
			t.Errorf("sps=%d: ModulateInto allocates %.1f objects/op after warmup", sps, allocs)
		}

		var scratch dsp.Scratch
		dst := m.DemodulateInto(&scratch, nil, sig) // grow dst and scratch
		if allocs := testing.AllocsPerRun(20, func() {
			dst = m.DemodulateInto(&scratch, dst, sig)
		}); allocs != 0 {
			t.Errorf("sps=%d: DemodulateInto allocates %.1f objects/op after warmup", sps, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			dst, _ = m.DemodulateSettledInto(&scratch, dst, sig)
		}); allocs != 0 {
			t.Errorf("sps=%d: DemodulateSettledInto allocates %.1f objects/op after warmup", sps, allocs)
		}

		diffs := m.PhaseDiffsInto(nil, in)
		if allocs := testing.AllocsPerRun(20, func() {
			diffs = m.PhaseDiffsInto(diffs, in)
		}); allocs != 0 {
			t.Errorf("sps=%d: PhaseDiffsInto allocates %.1f objects/op after warmup", sps, allocs)
		}

		bitsOut := m.DecideDiffsInto(nil, diffs, nil)
		if allocs := testing.AllocsPerRun(20, func() {
			bitsOut = m.DecideDiffsInto(bitsOut, diffs, nil)
		}); allocs != 0 {
			t.Errorf("sps=%d: DecideDiffsInto allocates %.1f objects/op after warmup", sps, allocs)
		}
	}
}
