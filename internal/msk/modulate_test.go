package msk

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

// modulateSincos is the Modulate the phase tables replaced, kept as the
// reference: one Sincos per sample of the float phase recurrence.
func modulateSincos(m *Modem, bs []byte) dsp.Signal {
	out := make(dsp.Signal, 0, m.NumSamples(len(bs)))
	phase := 0.0
	out = append(out, complex(m.amplitude, 0))
	step := PhaseStep / float64(m.sps)
	for _, b := range bs {
		d := -step
		if b&1 == 1 {
			d = step
		}
		for k := 0; k < m.sps; k++ {
			phase = dsp.WrapPhase(phase + d)
			out = append(out, complex(m.amplitude, 0)*dsp.Cis(phase))
		}
	}
	return out
}

// modulateTestFrames returns bit streams that drive the phase recurrence
// everywhere: random frames, long one-way runs that wrap the phase many
// times (where rounding drift accumulates fastest), and alternations.
func modulateTestFrames(rng *rand.Rand) [][]byte {
	frames := [][]byte{nil, {1}, {0}}
	for _, n := range []int{7, 64, 1300} {
		frames = append(frames, randomBits(rng, n))
	}
	ones, zeros, alt := make([]byte, 400), make([]byte, 400), make([]byte, 400)
	for i := range ones {
		ones[i] = 1
		alt[i] = byte(i & 1)
	}
	// Bytes other than 0 and 1 are read by their low bit.
	odd := []byte{3, 2, 0xff, 0xfe, 5, 4, 7}
	return append(frames, ones, zeros, alt, odd)
}

// TestModulateMatchesSincosRecurrence holds the table-driven Modulate to
// the per-sample Sincos recurrence, bit for bit, at oversampling factors
// where the recurrence closes on 4S floats (1, 2, 4, 5, 7), where it
// drifts (3, 6, 8, 16) and where no table exists (17).
func TestModulateMatchesSincosRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	frames := modulateTestFrames(rng)
	for _, sps := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 17} {
		for _, amp := range []float64{1, 0.7} {
			m := New(WithSamplesPerSymbol(sps), WithAmplitude(amp))
			for fi, bs := range frames {
				got, want := m.Modulate(bs), modulateSincos(m, bs)
				if len(got) != len(want) {
					t.Fatalf("S=%d amp=%v frame %d: %d samples, want %d", sps, amp, fi, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
						t.Fatalf("S=%d amp=%v frame %d sample %d: %v, want %v", sps, amp, fi, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCisTablesCoverClosingRecurrence pins where the tables pay: at
// S ∈ {1, 2, 4, 5, 7, 10, 14} every phase the recurrence visits is its
// counter's table entry, so Modulate never calls Sincos.
func TestCisTablesCoverClosingRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	frames := modulateTestFrames(rng)
	for _, sps := range []int{1, 2, 4, 5, 7, 10, 14} {
		tab := cisTables[sps]
		step := PhaseStep / float64(sps)
		for fi, bs := range frames {
			phase, c := 0.0, 0
			for _, b := range bs {
				d, dc := -step, -1
				if b&1 == 1 {
					d, dc = step, 1
				}
				for k := 0; k < sps; k++ {
					phase = dsp.WrapPhase(phase + d)
					c = (c + dc + 4*sps) % (4 * sps)
					if tab[c].phase != math.Float64bits(phase) {
						t.Fatalf("S=%d frame %d: phase %v at counter %d misses the table's %v",
							sps, fi, phase, c, math.Float64frombits(tab[c].phase))
					}
				}
			}
		}
	}
}

// TestNewAllocatesNoTables pins that the tables are package-level: a
// Modem is one allocation however it is configured.
func TestNewAllocatesNoTables(t *testing.T) {
	for _, sps := range []int{1, 4, 16, 17} {
		if allocs := testing.AllocsPerRun(20, func() {
			_ = New(WithSamplesPerSymbol(sps))
		}); allocs > 1 {
			t.Errorf("S=%d: New allocates %.1f objects", sps, allocs)
		}
	}
}
