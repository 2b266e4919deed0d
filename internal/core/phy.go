package core

import "repro/internal/dsp"

// PhyModem is the modulation contract the interference decoder needs. §4
// of the paper argues the technique applies to any phase-shift-keying
// modulation; this interface is that claim made concrete. The repository
// ships two implementations: MSK (internal/msk, the paper's choice) and
// π/4-DQPSK (internal/dqpsk, the §4 generality demonstration).
//
// The requirements on an implementation are exactly the properties §6
// exploits:
//
//   - constant envelope (the §7.1 interference detector and the §6.2
//     amplitude estimator both assume it), and
//   - all information carried in phase *differences* between consecutive
//     samples (channel attenuation and phase shift cancel, Eq. 1).
type PhyModem interface {
	// SamplesPerSymbol is the oversampling factor S.
	SamplesPerSymbol() int
	// BitsPerSymbol is the number of bits one symbol carries.
	BitsPerSymbol() int
	// NumSamples returns the signal length Modulate produces for n bits.
	NumSamples(nbits int) int
	// NumBits returns how many whole bits fit in a signal of n samples.
	NumBits(nsamples int) int
	// Modulate maps bits to complex baseband samples, beginning with one
	// phase-reference sample.
	Modulate(bs []byte) dsp.Signal
	// ModulateInto is Modulate writing the samples into dst's storage
	// (grown when too small). The samples are identical to Modulate's;
	// the slice is valid until the next call reusing dst. The engine
	// modulates every frame it transmits this way, into a buffer that
	// lives one schedule slot.
	ModulateInto(dst dsp.Signal, bs []byte) dsp.Signal
	// Demodulate recovers bits from a clean (single-signal) reception.
	Demodulate(s dsp.Signal) []byte
	// DemodulateInto is Demodulate writing the recovered bits into dst's
	// storage (grown when too small) and drawing any internal working
	// buffers from scratch (nil for a private one-shot arena). The
	// returned bits are identical to Demodulate's; the slice is valid
	// until the next call reusing dst or scratch. Clean decodes call it
	// once per reception on the winning alignment, so this is the
	// allocation-free path of the hot loop.
	DemodulateInto(scratch *dsp.Scratch, dst []byte, s dsp.Signal) []byte
	// DemodulateSettledInto is DemodulateInto also returning how many
	// leading bits are settled: for every longer signal that starts with
	// s, DemodulateInto returns the same first settled bits. The
	// clean-head search demodulates each sub-symbol offset over a short
	// prefix and trusts only its settled bits.
	DemodulateSettledInto(scratch *dsp.Scratch, dst []byte, s dsp.Signal) (bits []byte, settled int)
	// DemodulateBatchInto demodulates a batch of signal views in one
	// call, writing view i's bits into dsts[i]'s storage (the slot slice
	// grown to len(sigs), retained slot buffers reused). The views share
	// scratch's internal working buffers while every dst slot keeps its
	// own storage, so all results of one batch stay valid simultaneously.
	// Bit values must be identical to per-view DemodulateInto calls.
	DemodulateBatchInto(scratch *dsp.Scratch, dsts [][]byte, sigs []dsp.Signal) [][]byte
	// PhaseDiffs returns the transmitted per-sample phase differences
	// for a bit stream: entry m is the phase change from sample m to
	// m+1. The interference matcher compares candidates against these
	// (Eq. 8).
	PhaseDiffs(bs []byte) []float64
	// PhaseDiffsInto is PhaseDiffs writing into dst's storage (grown when
	// too small).
	PhaseDiffsInto(dst []float64, bs []byte) []float64
	// DecideDiffs maps a stream of recovered per-sample phase-difference
	// estimates (aligned to a frame reference, with per-estimate
	// confidence weights in [0,1]) back to bits (§6.4).
	DecideDiffs(diffs, weights []float64) []byte
	// DecideDiffsInto is DecideDiffs writing into dst's storage (grown
	// when too small).
	//
	// Contract: the decision is per symbol. With S samples and b bits per
	// symbol, symbol j's bits out[j·b:(j+1)·b] are each 0 or 1 and a
	// function of diffs[j·S:(j+1)·S] and their weights alone; a trailing
	// partial symbol is dropped. So one call on the stream from sample r
	// decides the symbols starting at r, r+S, r+2S, … exactly as separate
	// calls would — the wanted-frame alignment decides every candidate
	// offset's pilot window that way.
	DecideDiffsInto(dst []byte, diffs, weights []float64) []byte
	// StepPrior returns the wrapped distance from dphi to the nearest
	// phase difference the modulation can legally produce between two
	// consecutive samples. The matcher uses it to reject mirror-branch
	// artifacts; it must be symmetric under sign change of the
	// underlying data so it cannot bias decisions. It is a distance:
	// ≥ 0 for every dphi, or NaN. The matcher relies on that to skip
	// candidates whose cost without the prior already loses.
	StepPrior(dphi float64) float64
	// BackwardRefOffset is where the demodulator locks onto a conjugate
	// time-reversed stream, in samples past the origin of the reversed
	// per-sample difference sequence (§7.4). A continuous-phase modem
	// (MSK) locks exactly on the origin: 0. A constant-phase-per-symbol
	// modem (π/4-DQPSK) sees the reversed stream's symbol runs shifted
	// one sample early, so its demod-aligned reference sits
	// SamplesPerSymbol−1 samples late. The interference decoder
	// subtracts this when anchoring the known signal's reversed
	// difference sequence at the backward frame reference.
	BackwardRefOffset() int
}
