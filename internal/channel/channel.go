// Package channel models the wireless medium at complex-baseband sample
// level. It is the substitute for the paper's USRP radios (see DESIGN.md):
// everything the paper's receivers see — attenuation, phase shift, start
// offsets between interfering transmissions, additive white Gaussian
// noise, and the relay's re-amplification — is produced here with the same
// mathematical model the paper states in §5.3, §6 and Eq. 22–23.
package channel

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dsp"
)

// Link is a point-to-point channel: y[n] = h·e^{iγ}·x[n−delay] + noise.
// The paper approximates every channel by an attenuation and a phase shift
// (§5.3, citing [28]); Link additionally supports a small carrier-frequency
// offset for robustness experiments.
type Link struct {
	Gain       float64 // amplitude attenuation h (0 < h ≤ 1 typically)
	Phase      float64 // phase shift γ in radians
	FreqOffset float64 // residual CFO in radians/sample (0 = ideal)
}

// Apply passes a transmitted signal through the link (without noise or
// delay — the Medium owns those, because noise is per-receiver and delay
// is per-transmission).
func (l Link) Apply(s dsp.Signal) dsp.Signal {
	g := complex(l.Gain, 0) * dsp.Cis(l.Phase)
	if l.FreqOffset == 0 {
		return s.Scale(g)
	}
	out := make(dsp.Signal, len(s))
	for i, v := range s {
		rot := dsp.Cis(l.FreqOffset * float64(i))
		out[i] = v * g * rot
	}
	return out
}

// PowerGain returns the link's power attenuation h².
func (l Link) PowerGain() float64 { return l.Gain * l.Gain }

// FillRotation fills dst[from:] with the carrier-offset rotation e^{iΩn} of
// offset omega (Ω, rad/sample), entry n being dsp.Cis(omega·n) — the value
// ReceiveInto computes per sample — and returns dst.
func FillRotation(dst []complex128, omega float64, from int) []complex128 {
	for n := from; n < len(dst); n++ {
		dst[n] = dsp.Cis(omega * float64(n))
	}
	return dst
}

// Transmission is one sender's contribution to a reception: its baseband
// samples, the link it traverses, and its start delay in samples relative
// to the reception window.
type Transmission struct {
	Signal dsp.Signal
	Link   Link
	Delay  int
	// Rotation, when at least as long as Signal, holds the rotation of the
	// link's carrier offset Ω, e^{iΩn}, as FillRotation(table, Ω, 0) fills
	// it. A caller that synthesizes many receptions over one link passes it
	// so ReceiveInto need not recompute the rotation per sample; the
	// simulator keeps one table per offset per run. The samples are
	// identical with or without a table. Ignored when FreqOffset is 0 or
	// the table is shorter than Signal.
	Rotation []complex128
}

// Receive superposes any number of concurrent transmissions as seen by one
// receiver and adds that receiver's thermal noise: the channel "naturally
// mixes these signals" (§1). The returned window is padded with tail
// samples of pure noise so detectors can observe the energy drop at packet
// end (§7.4: Bob buffers until energy falls to the noise floor).
func Receive(noise *dsp.NoiseSource, tailPad int, txs ...Transmission) dsp.Signal {
	return ReceiveInto(nil, noise, tailPad, txs...)
}

// ReceiveLen returns the reception window length Receive would produce:
// the union of the delayed transmissions plus the tail pad.
func ReceiveLen(tailPad int, txs ...Transmission) int {
	n := 0
	for _, tx := range txs {
		if tx.Delay < 0 {
			panic(fmt.Sprintf("channel: negative delay %d", tx.Delay))
		}
		if end := tx.Delay + len(tx.Signal); end > n {
			n = end
		}
	}
	return n + tailPad
}

// ReceiveInto is Receive synthesizing the reception into buf's storage
// (grown when too small): link gain, phase, carrier offset and delay are
// applied while accumulating, and noise is added in place, so a reused
// buffer makes a reception allocation free. A transmission's Rotation
// table, when long enough, stands in for computing its carrier rotation
// per sample. The sample values are identical to Receive's.
func ReceiveInto(buf dsp.Signal, noise *dsp.NoiseSource, tailPad int, txs ...Transmission) dsp.Signal {
	n := ReceiveLen(tailPad, txs...)
	if cap(buf) < n {
		buf = make(dsp.Signal, n)
	} else {
		buf = buf[:n]
		for i := range buf {
			buf[i] = 0
		}
	}
	for _, tx := range txs {
		g := complex(tx.Link.Gain, 0) * dsp.Cis(tx.Link.Phase)
		out := buf[tx.Delay:]
		switch {
		case tx.Link.FreqOffset == 0:
			for i, v := range tx.Signal {
				out[i] += v * g
			}
		case len(tx.Rotation) >= len(tx.Signal):
			rot := tx.Rotation[:len(tx.Signal)]
			for i, v := range tx.Signal {
				out[i] += v * g * rot[i]
			}
		default:
			for i, v := range tx.Signal {
				rot := dsp.Cis(tx.Link.FreqOffset * float64(i))
				out[i] += v * g * rot
			}
		}
	}
	if noise != nil {
		noise.AddInPlace(buf)
	}
	return buf
}

// AmplifyFactor returns the relay's amplification A of Theorem 8.1's inner
// bound (Eq. 23): the relay rescales so its transmit power equals P given
// that it received two signals with power gains h1², h2² plus unit-power
// noise:
//
//	A = sqrt(P / (P·h1² + P·h2² + N))
//
// where N is the relay's noise power. The same normalization applies when
// only one signal was received (set h2 = 0).
func AmplifyFactor(p, h1, h2, noisePower float64) float64 {
	if p <= 0 {
		panic(fmt.Sprintf("channel: non-positive power %v", p))
	}
	return math.Sqrt(p / (p*h1*h1 + p*h2*h2 + noisePower))
}

// AmplifyTo rescales a received signal to average power p — what the
// paper's router does before broadcasting an interfered signal (§2, §7.5).
// Unlike AmplifyFactor it needs no channel knowledge: the relay measures
// the power it received (signal plus noise) and normalizes it, amplifying
// the embedded noise along with the signals, which is exactly the low-SNR
// penalty §8 discusses.
func AmplifyTo(s dsp.Signal, p float64) dsp.Signal {
	return s.ScaleTo(p)
}

// AmplifyToInPlace is AmplifyTo overwriting s's samples instead of
// allocating a copy, for relays whose received buffer is no longer needed
// once the amplified broadcast is built. A zero signal is returned
// unchanged. Sample values equal AmplifyTo's.
func AmplifyToInPlace(s dsp.Signal, p float64) dsp.Signal {
	cur := s.Power()
	if cur == 0 {
		return s
	}
	return s.ScaleInPlace(complex(math.Sqrt(p/cur), 0))
}

// RandomLink draws a link with log-normal-ish gain jitter around a target
// mean power gain and a uniform random phase. Experiments use it to give
// every run an independent channel realization, which is what spreads the
// CDFs in Figs. 9, 10 and 12.
func RandomLink(rng *rand.Rand, meanPowerGain, gainJitterDB float64) Link {
	jitter := dsp.FromDB((rng.Float64()*2 - 1) * gainJitterDB)
	return Link{
		Gain:  math.Sqrt(meanPowerGain * jitter),
		Phase: rng.Float64() * 2 * math.Pi,
	}
}
