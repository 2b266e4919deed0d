package phy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/frame"
)

// TestModulateIntoEveryModem pins the core.PhyModem ModulateInto
// contract for every registered modem: whatever dst holds — nil, too
// short, exactly long enough, longer, or pre-filled with NaN — the
// samples are Modulate's bit for bit, and when dst's capacity suffices
// they are written into dst's storage. The engine modulates every frame
// it transmits into a pooled buffer on the strength of it.
func TestModulateIntoEveryModem(t *testing.T) {
	nan := complex(math.NaN(), math.NaN())
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			for _, sps := range []int{1, 2, 4, 8} {
				m := MustNew(name, sps)
				for _, nbits := range []int{0, 1, 37, frame.FrameBits(128)} {
					bs := make([]byte, nbits)
					for i := range bs {
						bs[i] = byte(rng.Intn(2))
					}
					want := m.Modulate(bs)
					n := len(want)
					if n != m.NumSamples(nbits) {
						t.Fatalf("S=%d %d bits: Modulate gave %d samples, NumSamples %d", sps, nbits, n, m.NumSamples(nbits))
					}
					poisoned := make(dsp.Signal, n+3)
					for i := range poisoned {
						poisoned[i] = nan
					}
					dsts := []struct {
						name string
						dst  dsp.Signal
					}{
						{"nil", nil},
						{"too short", make(dsp.Signal, n/2)},
						{"exact", make(dsp.Signal, n)},
						{"longer", make(dsp.Signal, n+5)},
						{"spare capacity", make(dsp.Signal, 0, n+5)},
						{"NaN-filled", poisoned[:n]},
					}
					for _, d := range dsts {
						got := m.ModulateInto(d.dst, bs)
						if len(got) != n {
							t.Fatalf("S=%d %d bits, dst %s: %d samples, Modulate %d", sps, nbits, d.name, len(got), n)
						}
						for i := range want {
							if !sameBits(got[i], want[i]) {
								t.Fatalf("S=%d %d bits, dst %s: sample %d = %v, Modulate %v", sps, nbits, d.name, i, got[i], want[i])
							}
						}
						if cap(d.dst) >= n && &got[0] != &d.dst[:1][0] {
							t.Errorf("S=%d %d bits, dst %s: capacity %d suffices for %d samples, but the result is new storage",
								sps, nbits, d.name, cap(d.dst), n)
						}
					}
				}
			}
		})
	}
}

// sameBits reports whether two samples are equal bit for bit.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestStepPriorIsADistance pins the core.PhyModem StepPrior contract for
// every registered modem: the prior is ≥ 0 for every dphi, or NaN. The
// interference matcher skips a candidate's prior when the candidate's
// mismatch alone already loses, which is exact only for a distance. The
// sweep covers [−4π, 4π] finely, the step and boundary angles 0, ±π/8,
// ±π/2 and ±π with their float neighbours, and NaN.
func TestStepPriorIsADistance(t *testing.T) {
	var dphis []float64
	for _, a := range []float64{0, math.Pi / 8, math.Pi / 2, math.Pi, 2 * math.Pi, 4 * math.Pi} {
		for _, v := range []float64{a, -a} {
			dphis = append(dphis, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		}
	}
	dphis = append(dphis, math.Copysign(0, -1), math.NaN())
	const steps = 20000
	for i := 0; i <= steps; i++ {
		dphis = append(dphis, -4*math.Pi+8*math.Pi*float64(i)/steps)
	}
	for _, name := range Names() {
		for _, sps := range []int{1, 2, 4, 8} {
			m := MustNew(name, sps)
			for _, dphi := range dphis {
				if p := m.StepPrior(dphi); p < 0 {
					t.Fatalf("%s S=%d: StepPrior(%v) = %v, want ≥ 0 or NaN", name, sps, dphi, p)
				}
			}
		}
	}
}
