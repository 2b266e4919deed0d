package dqpsk

import (
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

// Mirror of the MSK Into-variant contract tests: bit-identical to the
// allocating twins, allocation free once buffers have grown. Odd bit
// counts exercise the implicit-zero padding PhaseDiffsInto performs
// without copying the input.

func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New()
	for _, n := range []int{64, 301} {
		in := randomBits(rng, n)
		sig := m.Modulate(in)
		noisy := dsp.NewNoiseSource(1e-2, int64(n)).AddTo(sig)

		got := m.DemodulateInto(nil, nil, noisy)
		want := m.Demodulate(noisy)
		if len(got) != len(want) {
			t.Fatalf("n=%d: DemodulateInto returned %d bits, Demodulate %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: DemodulateInto bit %d = %d, Demodulate %d", n, i, got[i], want[i])
			}
		}

		diffs := m.PhaseDiffs(in)
		diffsInto := m.PhaseDiffsInto(nil, in)
		if len(diffs) != len(diffsInto) {
			t.Fatalf("n=%d: PhaseDiffsInto length %d != %d", n, len(diffsInto), len(diffs))
		}
		for i := range diffs {
			if diffs[i] != diffsInto[i] {
				t.Fatalf("n=%d: PhaseDiffsInto[%d] = %v != %v", n, i, diffsInto[i], diffs[i])
			}
		}

		dec := m.DecideDiffs(diffs, nil)
		decInto := m.DecideDiffsInto(nil, diffs, nil)
		if len(dec) != len(decInto) {
			t.Fatalf("n=%d: DecideDiffsInto length %d != %d", n, len(decInto), len(dec))
		}
		for i := range dec {
			if dec[i] != decInto[i] {
				t.Fatalf("n=%d: DecideDiffsInto[%d] = %d != %d", n, i, decInto[i], dec[i])
			}
		}
	}
}

func TestIntoVariantsSteadyStateAllocFree(t *testing.T) {
	m := New()
	in := randomBits(rand.New(rand.NewSource(9)), 512)
	sig := m.Modulate(in)

	samples := m.ModulateInto(nil, in)
	if allocs := testing.AllocsPerRun(20, func() {
		samples = m.ModulateInto(samples, in)
	}); allocs != 0 {
		t.Errorf("ModulateInto allocates %.1f objects/op after warmup", allocs)
	}

	dst := m.DemodulateInto(nil, nil, sig)
	if allocs := testing.AllocsPerRun(20, func() {
		dst = m.DemodulateInto(nil, dst, sig)
	}); allocs != 0 {
		t.Errorf("DemodulateInto allocates %.1f objects/op after warmup", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		dst, _ = m.DemodulateSettledInto(nil, dst, sig)
	}); allocs != 0 {
		t.Errorf("DemodulateSettledInto allocates %.1f objects/op after warmup", allocs)
	}

	diffs := m.PhaseDiffsInto(nil, in)
	if allocs := testing.AllocsPerRun(20, func() {
		diffs = m.PhaseDiffsInto(diffs, in)
	}); allocs != 0 {
		t.Errorf("PhaseDiffsInto allocates %.1f objects/op after warmup", allocs)
	}

	bitsOut := m.DecideDiffsInto(nil, diffs, nil)
	if allocs := testing.AllocsPerRun(20, func() {
		bitsOut = m.DecideDiffsInto(bitsOut, diffs, nil)
	}); allocs != 0 {
		t.Errorf("DecideDiffsInto allocates %.1f objects/op after warmup", allocs)
	}
}
