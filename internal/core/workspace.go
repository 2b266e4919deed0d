package core

import "repro/internal/dsp"

// Workspace holds every reusable buffer one decoding pipeline needs: the
// detector's energy/variance profiles, the conjugate-reversed stream for
// backward decodes, the known signal's phase differences, the matcher's
// ∆φ/weight streams (plus the pair for the swapped amplitude-assignment
// trial), demodulation and decision bit buffers, and the amplitude
// estimator's magnitude scratch. With a Workspace attached (see
// Decoder.SetWorkspace) a decoder performs no steady-state allocation per
// reception beyond the Result it hands back — the discipline sim.Scratch
// applies to reception synthesis, extended down the decode stack.
//
// The buffers whose size is the reception length itself — the detector
// profiles and the decision-bit scratch — are carved from one
// bump-allocator Arena (prepareBatch), so the memory a decode sweeps over
// sits contiguously; DecodeBatch re-carves once per batch at the batch's
// largest reception length. The remaining buffers (the frame-sized ∆φ and
// magnitude scratch, the backward-only conjugate stream) grow on demand at
// their use sites and are retained, so they too stop allocating after the
// first decode of their size — and a forward-only workload never pays for
// the backward path's buffers at all.
//
// Ownership rule: one Workspace per worker goroutine, shared freely among
// that worker's decoders/nodes but never between goroutines — decoding
// mutates it. Buffers grow to the largest reception seen and are retained.
//
// Everything a decode returns (Result, WantedBits, payloads) is copied out
// of the workspace before returning, so results stay valid across later
// decodes that reuse the same buffers.
type Workspace struct {
	modem    dsp.Scratch // modem-internal demod scratch (MLSE filter + back-pointers)
	energy   []float64   // windowed energy profile
	variance []float64   // windowed energy-variance profile
	conj     dsp.Signal  // conjugate time-reversed reception (§7.4)
	known    []float64   // known signal's per-sample phase differences
	diffs    []float64   // recovered ∆φ stream
	weights  []float64   // conditioning weights of diffs
	altDiffs []float64   // ∆φ stream of the swapped-assignment trial
	altWts   []float64   // weights of the swapped-assignment trial
	headBits []byte      // clean-head demodulation (search prefixes, then the frame)
	refDiffs []float64   // pilot-window phase differences of refineRef
	alignLog []byte      // per-residue symbol decisions in alignWanted
	wanted   []byte      // final symbol decisions before the owned copy
	mag2     []float64   // |y|² scratch of the moment estimator
	mags     []float64   // |y| scratch of the envelope estimator (sorted)

	// arena backs every buffer above except the modem scratch; batchCap
	// is the reception length the current carving supports.
	arena    dsp.Arena
	batchCap int

	// oneItem/oneOut let Decoder.Decode run as a DecodeBatch of one
	// without allocating the batch slices.
	oneItem [1]BatchItem
	oneOut  [1]BatchResult
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// prepareBatch carves the reception-length buffers for receptions up to n
// samples from the workspace arena: the detector's energy/variance
// profiles and the decision-bit scratch, laid out contiguously. It
// re-carves only when n grows, so the batch-of-one path (Decoder.Decode)
// pays a single comparison in steady state. Only buffers sized by the
// reception length itself are carved — over-reserving the frame-sized and
// backward-only buffers at n would roughly double a worker's cold-start
// footprint for nothing (they reach their true size on the first decode
// and never grow again). Individual decodes may still Grow* past the
// carving in rare cases (correct, just no longer contiguous).
func (ws *Workspace) prepareBatch(n int) {
	if n <= ws.batchCap {
		return
	}
	ws.batchCap = n
	// 2 profile float blocks and 3 bit blocks, each of n elements.
	ws.arena.Reserve(2*n, 3*n, 0)
	ws.energy = ws.arena.Floats(n)
	ws.variance = ws.arena.Floats(n)
	ws.headBits = ws.arena.Bytes(n)
	ws.alignLog = ws.arena.Bytes(n)
	ws.wanted = ws.arena.Bytes(n)
}

// growFloats resizes *buf to n elements (contents undefined), reallocating
// only when its capacity is too small, and returns it.
func growFloats(buf *[]float64, n int) []float64 {
	*buf = dsp.GrowFloats(*buf, n)
	return *buf
}

// growSignal resizes *buf to n samples (contents undefined), reallocating
// only when its capacity is too small, and returns it.
func growSignal(buf *dsp.Signal, n int) dsp.Signal {
	if cap(*buf) < n {
		*buf = make(dsp.Signal, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
