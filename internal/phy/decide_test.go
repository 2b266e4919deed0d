package phy

import (
	"math"
	"math/rand"
	"testing"
)

// TestDecideDiffsPerSymbolEveryModem pins the core.PhyModem
// DecideDiffsInto contract for every registered modem: symbol j's bits
// are 0 or 1 and a function of diffs[j·S:(j+1)·S] and their weights
// alone, so deciding a stream from any sample r yields, symbol by symbol,
// what deciding each S-sample window on its own yields. The wanted-frame
// alignment decides each offset residue once on the strength of it.
func TestDecideDiffsPerSymbolEveryModem(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			for _, sps := range []int{1, 2, 4, 8} {
				m := MustNew(name, sps)
				bps := m.BitsPerSymbol()
				n := 40*sps + sps - 1 // a trailing partial symbol
				diffs := make([]float64, n)
				weights := make([]float64, n)
				for i := range diffs {
					// Mostly legal steps with a little noise, some
					// arbitrary values, and exact zeros and ties.
					switch rng.Intn(4) {
					case 0:
						diffs[i] = (2*rng.Float64() - 1) * math.Pi
					case 1:
						diffs[i] = 0
					default:
						diffs[i] = m.PhaseDiffs([]byte{byte(rng.Intn(2)), byte(rng.Intn(2))})[0] + 0.1*rng.NormFloat64()
					}
					weights[i] = rng.Float64()
				}
				for _, w := range [][]float64{nil, weights} {
					for r := 0; r < sps; r++ {
						var wr []float64
						if w != nil {
							wr = w[r:]
						}
						whole := m.DecideDiffsInto(nil, diffs[r:], wr)
						if want := (n - r) / sps * bps; len(whole) != want {
							t.Fatalf("S=%d r=%d: %d bits, want %d", sps, r, len(whole), want)
						}
						for j := 0; j < len(whole)/bps; j++ {
							lo, hi := r+j*sps, r+(j+1)*sps
							var wj []float64
							if w != nil {
								wj = w[lo:hi]
							}
							one := m.DecideDiffs(diffs[lo:hi], wj)
							for b := 0; b < bps; b++ {
								if got := whole[j*bps+b]; got > 1 || got != one[b] {
									t.Fatalf("S=%d r=%d weights=%v symbol %d bit %d: %d in the stream, %d alone",
										sps, r, w != nil, j, b, got, one[b])
								}
							}
						}
					}
				}
			}
		})
	}
}
