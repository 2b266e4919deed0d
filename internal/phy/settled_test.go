package phy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
)

// TestDemodulateSettledPrefixProperty is the contract the clean-head
// search builds on, checked for every registered modem: random frames
// through a random link at 0–25 dB SNR, cut at random points. The bits a
// cut demodulates must equal DemodulateInto's, and its first settled bits
// must equal the same prefix of the whole signal's demodulation and of
// any longer cut's.
func TestDemodulateSettledPrefixProperty(t *testing.T) {
	for _, name := range Names() {
		for _, sps := range []int{1, 2, 4} {
			m := MustNew(name, sps)
			rng := rand.New(rand.NewSource(int64(7 + sps)))
			var scratch dsp.Scratch
			var dst []byte
			settledTotal, total := 0, 0
			for trial := 0; trial < 60; trial++ {
				in := make([]byte, 200+rng.Intn(400))
				for i := range in {
					in[i] = byte(rng.Intn(2))
				}
				snr := rng.Float64() * 25
				link := channel.Link{Gain: 0.5 + rng.Float64(), Phase: rng.Float64() * 2 * math.Pi, FreqOffset: (rng.Float64()*2 - 1) * 0.01}
				sig := channel.Receive(dsp.NewNoiseSource(link.PowerGain()/dsp.FromDB(snr), rng.Int63()), 0,
					channel.Transmission{Signal: m.Modulate(in), Link: link})
				whole := m.Demodulate(sig)
				for c := 0; c < 8; c++ {
					cut := 1 + rng.Intn(len(sig))
					longer := cut + rng.Intn(len(sig)-cut+1)
					var settled int
					dst, settled = m.DemodulateSettledInto(&scratch, dst, sig[:cut])
					if want := m.Demodulate(sig[:cut]); string(dst) != string(want) {
						t.Fatalf("%s sps=%d: DemodulateSettledInto bits differ from Demodulate", name, sps)
					}
					if settled < 0 || settled > len(dst) {
						t.Fatalf("%s sps=%d: settled %d outside [0, %d]", name, sps, settled, len(dst))
					}
					if string(dst[:settled]) != string(whole[:settled]) {
						t.Fatalf("%s sps=%d snr=%.1f: settled prefix of %d bits differs from the whole signal's", name, sps, snr, settled)
					}
					if l := m.Demodulate(sig[:longer]); string(dst[:settled]) != string(l[:settled]) {
						t.Fatalf("%s sps=%d snr=%.1f: settled prefix differs from a longer cut's", name, sps, snr)
					}
					settledTotal += settled
					total += len(dst)
				}
			}
			if total > 0 && float64(settledTotal) < 0.5*float64(total) {
				t.Errorf("%s sps=%d: only %d of %d bits settled", name, sps, settledTotal, total)
			}
		}
	}
}
