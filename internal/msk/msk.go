// Package msk implements the Minimum Shift Keying modem the paper builds
// ANC on (§4–§5). MSK is differential phase modulation: a "1" advances the
// carrier phase by +π/2 over one symbol interval T, a "0" retards it by
// π/2 (Fig. 3). The amplitude is constant; all information lives in phase
// differences, which is what makes both standard demodulation (Eq. 1) and
// the interference decoder robust to channel attenuation and phase shift.
//
// The modem supports oversampling: with S samples per symbol the phase
// advances ±π/(2S) per sample, so phase is continuous (true MSK) and the
// receiver compares samples S apart. The paper's exposition is the S=1
// special case.
package msk

import (
	"fmt"
	"math"

	"repro/internal/dsp"
)

// DefaultSamplesPerSymbol is the oversampling factor used throughout the
// repository unless an experiment overrides it.
const DefaultSamplesPerSymbol = 4

// PhaseStep is the per-symbol phase change magnitude (π/2).
const PhaseStep = math.Pi / 2

// Modem modulates bit slices into complex baseband signals and back.
// A Modem is stateless and safe for concurrent use.
type Modem struct {
	sps       int     // samples per symbol
	amplitude float64 // transmit amplitude As (§5.2: constant)
	step      float64 // per-sample phase step magnitude PhaseStep/S
}

// Option configures a Modem.
type Option func(*Modem)

// WithSamplesPerSymbol sets the oversampling factor (must be ≥ 1).
func WithSamplesPerSymbol(s int) Option {
	return func(m *Modem) { m.sps = s }
}

// WithAmplitude sets the constant transmit amplitude As. The default is 1,
// i.e. unit transmit power.
func WithAmplitude(a float64) Option {
	return func(m *Modem) { m.amplitude = a }
}

// New returns a Modem with the given options applied over the defaults
// (4 samples/symbol, unit amplitude).
func New(opts ...Option) *Modem {
	m := &Modem{sps: DefaultSamplesPerSymbol, amplitude: 1}
	for _, o := range opts {
		o(m)
	}
	if m.sps < 1 {
		panic(fmt.Sprintf("msk: samples per symbol %d < 1", m.sps))
	}
	if m.amplitude <= 0 {
		panic(fmt.Sprintf("msk: non-positive amplitude %v", m.amplitude))
	}
	m.step = PhaseStep / float64(m.sps)
	return m
}

// SamplesPerSymbol returns the oversampling factor.
func (m *Modem) SamplesPerSymbol() int { return m.sps }

// Amplitude returns the constant transmit amplitude.
func (m *Modem) Amplitude() float64 { return m.amplitude }

// NumSamples returns the signal length Modulate produces for n bits:
// one leading reference sample plus n·S samples of phase trajectory.
func (m *Modem) NumSamples(nbits int) int { return 1 + nbits*m.sps }

// NumBits returns how many whole symbols fit in a signal of n samples.
func (m *Modem) NumBits(nsamples int) int {
	if nsamples <= 1 {
		return 0
	}
	return (nsamples - 1) / m.sps
}

// Modulate maps a bit slice to its MSK baseband signal. The first sample
// is the phase reference As·e^{i0}; each subsequent bit contributes S
// samples whose phase advances by +π/(2S) per sample for a 1 and −π/(2S)
// for a 0 (continuous phase, Fig. 3).
//
// The phase is the float recurrence WrapPhase(phase ± π/(2S)). Beside it
// an integer counter tracks the phase in steps mod 4S, and where the
// float is bit-identical to the one cisTables holds for the counter, the
// table's Cis replaces a Sincos. At the default S = 4, and at S ∈ {1, 2,
// 5, 7, 10, 14}, the recurrence only ever visits the table's 4S floats.
// At other S rounding drifts, most samples miss and fall back to dsp.Cis,
// so the samples are the same at every S.
func (m *Modem) Modulate(bs []byte) dsp.Signal { return m.ModulateInto(nil, bs) }

// ModulateInto is Modulate writing the samples into dst's storage (grown
// when too small). The samples are identical to Modulate's; the slice is
// valid until the next call that reuses dst.
//
//anc:hotpath
func (m *Modem) ModulateInto(dst dsp.Signal, bs []byte) dsp.Signal {
	n := m.NumSamples(len(bs))
	if cap(dst) < n {
		dst = make(dsp.Signal, n)
	}
	out := dst[:n]
	phase := 0.0
	out[0] = complex(m.amplitude, 0)
	var tab []cisEntry
	if m.sps < len(cisTables) {
		tab = cisTables[m.sps]
	}
	period, c, i := 4*m.sps, 0, 1
	for _, b := range bs {
		d, dc := -m.step, period-1
		if b&1 == 1 {
			d, dc = m.step, 1
		}
		for k := 0; k < m.sps; k++ {
			phase = dsp.WrapPhase(phase + d)
			if c += dc; c >= period {
				c -= period
			}
			var cis complex128
			if tab != nil && tab[c].phase == math.Float64bits(phase) {
				cis = tab[c].cis
			} else {
				cis = dsp.Cis(phase)
			}
			out[i] = complex(m.amplitude, 0) * cis
			i++
		}
	}
	return out
}

// cisEntry is one phase Modulate's recurrence visits: its float bits and
// its Cis.
type cisEntry struct {
	phase uint64
	cis   complex128
}

// cisTables[S] holds, for c < 4S, the phase Modulate's recurrence reaches
// after c upward steps from 0 at S samples per symbol, for S ≤ 16. The
// tables are built once and never written again, so every Modem shares
// them and building a Modem allocates nothing more.
var cisTables = buildCisTables(16)

func buildCisTables(maxS int) [][]cisEntry {
	tabs := make([][]cisEntry, maxS+1)
	for s := 1; s <= maxS; s++ {
		step := PhaseStep / float64(s)
		tab := make([]cisEntry, 4*s)
		phase := 0.0
		for c := range tab {
			tab[c] = cisEntry{math.Float64bits(phase), dsp.Cis(phase)}
			phase = dsp.WrapPhase(phase + step)
		}
		tabs[s] = tab
	}
	return tabs
}

// PhaseTrajectory returns the cumulative phase (unwrapped, in radians) at
// each symbol boundary for the given bits, starting at 0. This is the
// staircase of Fig. 3 and exists mainly for examples and tests.
func (m *Modem) PhaseTrajectory(bs []byte) []float64 {
	out := make([]float64, len(bs)+1)
	for i, b := range bs {
		d := -PhaseStep
		if b&1 == 1 {
			d = PhaseStep
		}
		out[i+1] = out[i] + d
	}
	return out
}

// Demodulate recovers bits from a received signal. The decision rule is
// the differential rule of §5.3: the ratio of samples one symbol apart has
// angle θ[n+S]−θ[n]; positive means 1, negative means 0 (Eq. 1). The
// computation is invariant to the channel's attenuation h and phase shift γ.
//
// At one sample per symbol this is exactly the paper's demodulator. When
// oversampled (S > 1) Demodulate uses the textbook receiver for continuous
// phase modulation: a symbol-length matched filter (boxcar over each symbol
// interval) followed by maximum-likelihood sequence detection over the
// resulting partial-response phase differences, which recovers the
// oversampling SNR gain a naive per-sample detector forfeits.
func (m *Modem) Demodulate(s dsp.Signal) []byte {
	return m.DemodulateInto(nil, nil, s)
}

// DemodulateInto is Demodulate writing the recovered bits into dst's
// storage (grown when too small) and drawing internal working buffers —
// the matched-filter outputs and Viterbi back-pointers — from scratch, so
// a caller reusing both performs no allocation in steady state. A nil
// scratch uses a private one-shot arena. The returned slice is valid until
// the next call that reuses dst or scratch; the bit values are identical
// to Demodulate's.
//
//anc:hotpath
func (m *Modem) DemodulateInto(scratch *dsp.Scratch, dst []byte, s dsp.Signal) []byte {
	out, _ := m.DemodulateSettledInto(scratch, dst, s)
	return out
}

// DemodulateSettledInto is DemodulateInto also reporting how many leading
// bits are settled: demodulating any longer signal that starts with s
// yields the same first settled bits. At one sample per symbol every
// decision is per symbol, so all bits are settled; the oversampled MLSE
// path settles the bits before its two survivor paths merge (see
// dsp.ViterbiSettled).
//
//anc:hotpath
func (m *Modem) DemodulateSettledInto(scratch *dsp.Scratch, dst []byte, s dsp.Signal) ([]byte, int) {
	if scratch == nil {
		// One-shot arena for scratchless callers; the engine always
		// supplies a reused workspace scratch.
		scratch = &dsp.Scratch{} //anclint:coldstart
	}
	if m.sps > 1 {
		out, back := m.demodulateMLSE(scratch, dst, s)
		return out, dsp.ViterbiSettled(back, len(out))
	}
	n := m.NumBits(len(s))
	out := dsp.GrowBytes(dst, n)
	soft := m.softDemodulateInto(scratch.Float64s(n), s)
	for i, d := range soft {
		if d >= 0 {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
	return out, n
}

// softDemodulateInto fills out (whose length sets the symbol count) with
// the per-symbol accumulated phase difference (in radians, nominally
// ±π/2); values near 0 indicate low-confidence symbols. The per-sample
// differences telescope, so this carries no oversampling averaging gain;
// it is the S=1 demodulator, and Demodulate's MLSE path is the production
// detector for S > 1.
//
//anc:hotpath
func (m *Modem) softDemodulateInto(out []float64, s dsp.Signal) []float64 {
	for i := range out {
		base := 1 + i*m.sps
		var acc float64
		for k := 0; k < m.sps; k++ {
			acc += dsp.PhaseDiff(s[base+k-1], s[base+k])
		}
		out[i] = acc
	}
	return out
}

// demodulateMLSE implements matched filtering plus 2-state Viterbi
// detection for oversampled MSK.
//
// Averaging the S samples of symbol i yields a point with phase
// traj(i) + d_i/2 (the mid-ramp phase), where d_i = ±π/2 is symbol i's
// phase step. Consecutive averaged points therefore differ in phase by
// (d_i + d_{i−1})/2 ∈ {−π/2, 0, +π/2}: full-symbol averaging turns MSK
// into a 3-level partial-response signal. A two-state Viterbi detector
// (state = previous bit) resolves it optimally; the branch metric is the
// squared wrapped distance between the observed and hypothesized phase
// difference. It also returns the detector's back-pointers, from which
// DemodulateSettledInto reads how many decisions are final.
//
//anc:hotpath
func (m *Modem) demodulateMLSE(scratch *dsp.Scratch, dst []byte, s dsp.Signal) ([]byte, []byte) {
	n := m.NumBits(len(s))
	if n == 0 {
		// Empty result, but keep dst's storage: callers stash the return
		// back into their reuse slot, and a nil here would leak the
		// retained buffer and re-allocate on the next full-size call.
		return dst[:0], nil
	}
	// g[i] = sum of symbol i's samples (indices i·S+1 .. (i+1)·S).
	g := dsp.BoxcarSymbolsInto(scratch.Complex128s(n), s, m.sps)
	steps := [2]float64{-PhaseStep, PhaseStep}

	// The detector derives its observations from g on the fly: the first
	// is measured against the reference sample s[0] (phase traj(0)), so
	// it hypothesizes d_0/2 = ±π/4; later ones are inter-symbol
	// differences hypothesizing (d_i + d_{i−1})/2.
	// back[2i+b] is the surviving predecessor state of state b at symbol i.
	back := scratch.Bytes(2 * n)
	return dsp.ViterbiHalfStep(back, dsp.GrowBytes(dst, n), s[0], g, steps), back
}

// DemodulateBatchInto demodulates a batch of signal views in one call,
// writing view i's recovered bits into dsts[i]'s storage (the slot slice
// is grown to len(sigs), retained slot buffers are reused). All views
// share scratch's internal buffers — sized once for the largest view —
// while every dst slot keeps its own storage, so the whole batch of
// results remains valid simultaneously. Bit values are identical to
// per-view DemodulateInto calls.
//
//anc:hotpath
func (m *Modem) DemodulateBatchInto(scratch *dsp.Scratch, dsts [][]byte, sigs []dsp.Signal) [][]byte {
	dsts = dsp.GrowByteSlices(dsts, len(sigs))
	if scratch != nil {
		// Pre-size the shared working buffers to the largest view so the
		// per-view borrows below never re-check capacity mid-batch.
		maxN := 0
		for _, s := range sigs {
			if n := m.NumBits(len(s)); n > maxN {
				maxN = n
			}
		}
		scratch.Complex128s(maxN)
		scratch.Bytes(2 * maxN)
	}
	for i, s := range sigs {
		dsts[i] = m.DemodulateInto(scratch, dsts[i], s)
	}
	return dsts
}

// PhaseDiffs returns the transmitted per-sample phase differences
// ∆θs[n] = θs[n+1]−θs[n] for a bit slice: +π/(2S) for each sample of a 1
// symbol, −π/(2S) for a 0. The interference decoder matches these known
// differences against its four candidates (Eq. 8). The slice has one entry
// per generated sample transition, i.e. len(bs)·S entries.
func (m *Modem) PhaseDiffs(bs []byte) []float64 {
	return m.PhaseDiffsInto(nil, bs)
}

// PhaseDiffsInto is PhaseDiffs writing into dst's storage (grown when too
// small).
//
//anc:hotpath
func (m *Modem) PhaseDiffsInto(dst []float64, bs []byte) []float64 {
	dst = dsp.GrowFloats(dst, len(bs)*m.sps)
	i := 0
	for _, b := range bs {
		d := -m.step
		if b&1 == 1 {
			d = m.step
		}
		for k := 0; k < m.sps; k++ {
			dst[i] = d
			i++
		}
	}
	return dst
}

// BitsPerSymbol returns 1: MSK carries one bit per symbol interval.
func (m *Modem) BitsPerSymbol() int { return 1 }

// DecideDiffs maps recovered per-sample phase-difference estimates back
// to bits (§6.4): each symbol's S estimates are summed, weighted by their
// confidence, and the sign decides. Entry 0 of diffs corresponds to the
// frame's first sample transition.
func (m *Modem) DecideDiffs(diffs, weights []float64) []byte {
	return m.DecideDiffsInto(nil, diffs, weights)
}

// DecideDiffsInto is DecideDiffs writing into dst's storage (grown when
// too small). Each bit depends on its own symbol's S estimates alone (the
// core.PhyModem contract); nil weights count as 1.0, which is exact. The
// decoder's pilot-alignment search calls it once per offset residue, so
// buffer reuse here is what makes alignment allocation free.
//
//anc:hotpath
func (m *Modem) DecideDiffsInto(dst []byte, diffs, weights []float64) []byte {
	n := len(diffs) / m.sps
	out := dsp.GrowBytes(dst, n)
	for j := 0; j < n; j++ {
		var acc float64
		base := j * m.sps
		for k := 0; k < m.sps; k++ {
			w := 1.0
			if weights != nil {
				w = weights[base+k]
			}
			acc += w * diffs[base+k]
		}
		if acc >= 0 {
			out[j] = 1
		} else {
			out[j] = 0
		}
	}
	return out
}

// BackwardRefOffset returns 0: MSK phase is continuous, so the reference
// the demodulator locks onto in a conjugate time-reversed stream
// coincides with the origin of the reversed difference sequence (§7.4).
func (m *Modem) BackwardRefOffset() int { return 0 }

// StepPrior returns the wrapped distance from dphi to the nearest legal
// MSK per-sample step (±π/(2S)).
func (m *Modem) StepPrior(dphi float64) float64 {
	a := math.Abs(dsp.WrapPhase(dphi - m.step))
	b := math.Abs(dsp.WrapPhase(dphi + m.step))
	if a < b {
		return a
	}
	return b
}
