// Package dqpsk implements a π/4 differential QPSK modem — the §4
// generality demonstration: "the ideas we develop in this paper,
// especially §6.1, are applicable to any phase shift keying modulation."
//
// π/4-DQPSK (used by TETRA, PDC and the US TDMA cellular standard) maps
// two bits per symbol to a phase *jump* from the set {±π/4, ±3π/4}. Like
// MSK it has a constant envelope and carries all information in phase
// differences — the two properties the interference decoder depends on —
// but unlike MSK its per-sample difference profile is bursty: the whole
// jump happens on the first sample transition of each symbol and the
// remaining transitions are flat. The decoder handles both through the
// core.PhyModem interface.
//
// Because every symbol's jump is non-zero, the pilot remains locatable in
// a recovered phase-difference stream (a plain DQPSK alphabet, with its 0
// jump, would make some pilot symbols invisible to the correlator).
//
// Backward decoding (§7.4) works exactly as for MSK: frames for a
// multi-bit modem are mirrored in *symbol* units (frame.MarshalFor), so a
// conjugate time-reversed stream presents a valid pilot+header at its
// head. The only DQPSK-specific convention is where the demodulator locks
// on the reversed stream — see BackwardRefOffset.
package dqpsk

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/dsp"
)

// jumps maps 2-bit Gray-coded symbols to phase jumps.
// 00→+π/4, 01→+3π/4, 11→−3π/4, 10→−π/4.
var jumps = [4]float64{
	0b00: math.Pi / 4,
	0b01: 3 * math.Pi / 4,
	0b11: -3 * math.Pi / 4,
	0b10: -math.Pi / 4,
}

// jumpSteps is each symbol's jump in units of π/4, mod 8.
var jumpSteps = [4]int{0b00: 1, 0b01: 3, 0b11: 5, 0b10: 7}

// Modem is a π/4-DQPSK modulator/demodulator. Stateless and safe for
// concurrent use.
type Modem struct {
	sps       int
	amplitude float64
}

// Option configures a Modem.
type Option func(*Modem)

// WithSamplesPerSymbol sets the oversampling factor (≥ 1).
func WithSamplesPerSymbol(s int) Option {
	return func(m *Modem) { m.sps = s }
}

// WithAmplitude sets the constant transmit amplitude.
func WithAmplitude(a float64) Option {
	return func(m *Modem) { m.amplitude = a }
}

// New returns a modem (defaults: 4 samples/symbol, unit amplitude).
func New(opts ...Option) *Modem {
	m := &Modem{sps: 4, amplitude: 1}
	for _, o := range opts {
		o(m)
	}
	if m.sps < 1 {
		panic(fmt.Sprintf("dqpsk: samples per symbol %d < 1", m.sps))
	}
	if m.amplitude <= 0 {
		panic(fmt.Sprintf("dqpsk: non-positive amplitude %v", m.amplitude))
	}
	return m
}

// SamplesPerSymbol returns the oversampling factor.
func (m *Modem) SamplesPerSymbol() int { return m.sps }

// BitsPerSymbol returns 2.
func (m *Modem) BitsPerSymbol() int { return 2 }

// NumSamples returns the signal length for n bits (n must be even; odd
// lengths are rounded up to a whole symbol, matching Modulate).
func (m *Modem) NumSamples(nbits int) int { return 1 + (nbits+1)/2*m.sps }

// NumBits returns how many whole bits fit in a signal of n samples.
func (m *Modem) NumBits(nsamples int) int {
	if nsamples <= 1 {
		return 0
	}
	return (nsamples - 1) / m.sps * 2
}

// symbolOf converts a bit pair to the symbol index.
func symbolOf(b1, b2 byte) int { return int(b1&1)<<1 | int(b2&1) }

// bitsOf converts a symbol index back to its bit pair.
func bitsOf(sym int) (byte, byte) { return byte(sym >> 1), byte(sym & 1) }

// Modulate maps bits (padded to a whole symbol with a 0) to the baseband
// signal: one reference sample at phase 0, then per symbol an immediate
// phase jump held constant for S samples.
//
// The phase is a multiple of π/4, so Modulate counts it in units of π/4
// mod 8 and takes e^{iφ} from cisTable: no Sincos per symbol.
func (m *Modem) Modulate(bs []byte) dsp.Signal { return m.ModulateInto(nil, bs) }

// ModulateInto is Modulate writing the samples into dst's storage (grown
// when too small). An odd final bit is paired with a 0 where it is read,
// so bs is never copied. The samples are identical to Modulate's; the
// slice is valid until the next call that reuses dst.
//
//anc:hotpath
func (m *Modem) ModulateInto(dst dsp.Signal, bs []byte) dsp.Signal {
	n := m.NumSamples(len(bs))
	if cap(dst) < n {
		dst = make(dsp.Signal, n)
	}
	out := dst[:n]
	out[0] = complex(m.amplitude, 0)
	c, o := 0, 1
	for i := 0; i < len(bs); i += 2 {
		var b2 byte
		if i+1 < len(bs) {
			b2 = bs[i+1]
		}
		c = (c + jumpSteps[symbolOf(bs[i], b2)]) % len(cisTable)
		v := complex(m.amplitude, 0) * cisTable[c]
		for k := 0; k < m.sps; k++ {
			out[o] = v
			o++
		}
	}
	return out
}

// cisTable[c] is dsp.Cis of the phase the float recurrence
// φ ← WrapPhase(φ + π/4) reaches from 0 in c steps. WrapPhase only adds,
// and each jump from one of these 8 floats lands exactly on the one its
// counter names, so the table holds the samples of the recurrence
// φ ← WrapPhase(φ + jump) bit for bit. It is built once and never written
// again, so every Modem shares it.
var cisTable = func() (tab [8]complex128) {
	phase := 0.0
	for c := range tab {
		tab[c] = dsp.Cis(phase)
		phase = dsp.WrapPhase(phase + jumps[0b00])
	}
	return tab
}()

// Demodulate recovers bits by averaging each symbol's samples (the phase
// is constant within a symbol, so the boxcar is a true matched filter)
// and mapping the inter-symbol phase change to the nearest jump. A
// change whose product z = acc·conj(prev) lies clearly inside a quadrant
// is decided by the signs of z (productSymbol); only one near an axis
// pays for the atan2.
func (m *Modem) Demodulate(s dsp.Signal) []byte {
	return m.DemodulateInto(nil, nil, s)
}

// DemodulateInto is Demodulate writing the recovered bits into dst's
// storage (grown when too small). The π/4-DQPSK demodulator needs no
// internal working buffers, so scratch is accepted only to satisfy the
// shared modem contract and may be nil. Bit values are identical to
// Demodulate's.
//
//anc:hotpath
func (m *Modem) DemodulateInto(scratch *dsp.Scratch, dst []byte, s dsp.Signal) []byte {
	nsym := m.NumBits(len(s)) / 2
	if nsym == 0 {
		// Empty result, but keep dst's storage (see the MSK modem): a nil
		// return would leak a caller's retained reuse buffer.
		return dst[:0]
	}
	out := dsp.GrowBytes(dst, nsym*2)
	prev := s[0] // reference sample
	for i := 0; i < nsym; i++ {
		var acc complex128
		base := 1 + i*m.sps
		for k := 0; k < m.sps; k++ {
			acc += s[base+k]
		}
		sym, ok := productSymbol(acc * cmplx.Conj(prev))
		if !ok {
			sym = nearestJump(dsp.PhaseDiff(prev, acc))
		}
		out[2*i], out[2*i+1] = bitsOf(sym)
		prev = acc
	}
	return out
}

// DemodulateSettledInto is DemodulateInto also reporting how many leading
// bits are settled. Every symbol is decided on its own inter-symbol phase
// change, so a longer signal starting with s never changes a bit already
// decided: all of them are settled.
//
//anc:hotpath
func (m *Modem) DemodulateSettledInto(scratch *dsp.Scratch, dst []byte, s dsp.Signal) ([]byte, int) {
	out := m.DemodulateInto(scratch, dst, s)
	return out, len(out)
}

// DemodulateBatchInto demodulates a batch of signal views in one call,
// writing view i's recovered bits into dsts[i]'s storage (the slot slice
// is grown to len(sigs), retained slot buffers are reused). The π/4-DQPSK
// demodulator needs no internal working buffers, so scratch may be nil;
// every dst slot keeps its own storage and the whole batch of results
// remains valid simultaneously. Bit values are identical to per-view
// DemodulateInto calls.
//
//anc:hotpath
func (m *Modem) DemodulateBatchInto(scratch *dsp.Scratch, dsts [][]byte, sigs []dsp.Signal) [][]byte {
	dsts = dsp.GrowByteSlices(dsts, len(sigs))
	for i, s := range sigs {
		dsts[i] = m.DemodulateInto(scratch, dsts[i], s)
	}
	return dsts
}

// nearestJump returns the symbol whose jump is closest (wrapped) to d.
func nearestJump(d float64) int {
	best, bestErr := 0, math.Inf(1)
	for sym, j := range jumps {
		e := math.Abs(dsp.WrapPhase(d - j))
		if e < bestErr {
			best, bestErr = sym, e
		}
	}
	return best
}

// margin is the decision margin τ of productSymbol, angleSymbol and
// nearestStep. Each decides only an angle more than τ (for a product z,
// atan τ ≈ τ) from every boundary between two candidates, where the
// nearest and second-nearest candidate distances differ by at least 2τ.
// atan2 and WrapPhase err by a few ulp of 2π, about 1e-15, so there the
// scan over candidates picks the same candidate, and the same float, the
// shortcut does. The margin tests are false for NaN and ±Inf, and the
// product and angle ones for ±0 too; those values go to the scan.
const margin = 1e-6

// quadrant returns the symbol whose jump lies in the quadrant of a point
// with the given signs: I is 0b00 (+π/4), II is 0b01 (+3π/4), III is
// 0b11 (−3π/4) and IV is 0b10 (−π/4).
func quadrant(negIm, negRe bool) int {
	sym := 0
	if negIm {
		sym |= 0b10
	}
	if negRe {
		sym |= 0b01
	}
	return sym
}

// productSymbol returns nearestJump(cmplx.Phase(z)) from the signs of z,
// and true, when z is more than the margin off both axes:
// min(|re z|, |im z|) > τ·max(|re z|, |im z|). Otherwise it returns false.
func productSymbol(z complex128) (int, bool) {
	re, im := math.Abs(real(z)), math.Abs(imag(z))
	if min(re, im) > margin*max(re, im) {
		return quadrant(math.Signbit(imag(z)), math.Signbit(real(z))), true
	}
	return 0, false
}

// angleSymbol returns nearestJump(acc) from the quadrant of acc, and
// true, when acc lies in (−π, π] more than the margin from 0, ±π/2 and
// ±π. Otherwise it returns false.
func angleSymbol(acc float64) (int, bool) {
	a := math.Abs(acc)
	if a > margin && a < math.Pi-margin && math.Abs(a-math.Pi/2) > margin {
		return quadrant(acc < 0, a > math.Pi/2), true
	}
	return 0, false
}

// PhaseDiffs returns the per-sample transmitted phase differences: the
// whole jump on each symbol's first transition, zero elsewhere.
func (m *Modem) PhaseDiffs(bs []byte) []float64 {
	return m.PhaseDiffsInto(nil, bs)
}

// PhaseDiffsInto is PhaseDiffs writing into dst's storage (grown when too
// small). An odd trailing bit is paired with an implicit 0, matching
// Modulate's padding, without copying the input.
//
//anc:hotpath
func (m *Modem) PhaseDiffsInto(dst []float64, bs []byte) []float64 {
	nsym := (len(bs) + 1) / 2
	dst = dsp.GrowFloats(dst, nsym*m.sps)
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < nsym; i++ {
		b1 := bs[2*i]
		var b2 byte
		if 2*i+1 < len(bs) {
			b2 = bs[2*i+1]
		}
		dst[i*m.sps] = jumps[symbolOf(b1, b2)]
	}
	return dst
}

// DecideDiffs maps recovered per-sample phase-difference estimates to
// bits: each symbol's S estimates are summed (the true profile is one
// jump plus zeros, so the sum estimates the jump) and snapped to the
// nearest constellation jump. Confidence weights are ignored: the jump is
// localized to a single unknown transition within the symbol, so
// down-weighting individual samples would bias the total.
func (m *Modem) DecideDiffs(diffs, weights []float64) []byte {
	return m.DecideDiffsInto(nil, diffs, weights)
}

// DecideDiffsInto is DecideDiffs writing into dst's storage (grown when
// too small). A sum clearly inside a quadrant is decided by the quadrant
// (angleSymbol).
//
//anc:hotpath
func (m *Modem) DecideDiffsInto(dst []byte, diffs, weights []float64) []byte {
	nsym := len(diffs) / m.sps
	out := dsp.GrowBytes(dst, nsym*2)
	for j := 0; j < nsym; j++ {
		var acc float64
		for k := 0; k < m.sps; k++ {
			acc += diffs[j*m.sps+k]
		}
		sym, ok := angleSymbol(acc)
		if !ok {
			sym = nearestJump(acc)
		}
		out[2*j], out[2*j+1] = bitsOf(sym)
	}
	return out
}

// BackwardRefOffset returns S−1, the π/4-DQPSK reverse-stream decision
// convention. A forward symbol is one jump followed by S−1 flat
// transitions; conjugate time reversal turns that into S−1 flat
// transitions followed by the jump, so the constant-phase runs of the
// reversed stream start one sample after each reversed-sequence symbol
// boundary. The demodulator therefore locks S−1 samples past the origin
// of the reversed difference sequence — and, conveniently, at that lock
// position every observed jump lands on the *first* transition of its
// symbol group, the forward convention DecideDiffs and the pilot
// difference profile already assume.
func (m *Modem) BackwardRefOffset() int { return m.sps - 1 }

// StepPrior returns the wrapped distance from dphi to the nearest legal
// per-sample difference: 0 (within a symbol) or one of the four jumps.
// Where nearestStep knows the nearest one, only its distance is
// computed; otherwise all five are scanned.
func (m *Modem) StepPrior(dphi float64) float64 {
	if j, ok := nearestStep(dphi); ok {
		return math.Abs(dsp.WrapPhase(dphi - j))
	}
	best := math.Abs(dsp.WrapPhase(dphi))
	for _, j := range jumps {
		if e := math.Abs(dsp.WrapPhase(dphi - j)); e < best {
			best = e
		}
	}
	return best
}

// nearestStep returns the legal per-sample difference nearest dphi, and
// true, when |dphi| ≤ π lies more than the margin from π/8, π/2 and π,
// the boundaries between candidates. Otherwise it returns false.
func nearestStep(dphi float64) (float64, bool) {
	a := math.Abs(dphi)
	if a < math.Pi-margin && math.Abs(a-math.Pi/8) > margin && math.Abs(a-math.Pi/2) > margin {
		if a < math.Pi/8 {
			return 0, true
		}
		return jumps[quadrant(dphi < 0, a > math.Pi/2)], true
	}
	return 0, false
}
