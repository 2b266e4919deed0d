package core

import (
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"

	"repro/internal/bits"
	"repro/internal/dsp"
	"repro/internal/frame"
)

// Config parameterizes a Decoder.
type Config struct {
	// Modem is the phase-shift-keying modem used for all (de)modulation
	// (MSK in the paper; any PhyModem works, per §4).
	Modem PhyModem
	// Detector holds the §7.1 thresholds.
	Detector DetectorConfig
	// NoiseFloor is the receiver's known noise power (linear). Real
	// receivers calibrate it from idle air time; the simulator passes it
	// in directly.
	NoiseFloor float64
	// PilotMaxErrors tolerated when matching the pilot in decoded bits.
	PilotMaxErrors int
	// FallbackFrameBits, when positive, is the network's fixed frame
	// size. If the wanted packet's header fails its CRC, the recovered
	// bit stream is still trimmed (and, for backward decodes, flipped
	// back to forward orientation) to this length so FEC or the
	// evaluation harness can work with it — residual bit errors in the
	// header are corrected the same way payload errors are. Zero means
	// no fallback: a failed header leaves the raw stream untouched.
	FallbackFrameBits int

	// Ablation switches (all default off = full decoder). They disable
	// the refinements this implementation adds on top of the paper's
	// per-sample matcher; the matcher ablation benchmark quantifies each
	// one's contribution.
	NoConditioningWeights bool // weight all per-sample ∆φ equally
	NoMSKPrior            bool // drop the ±π/(2S) prior on ∆φ candidates
	NoBranchContinuity    bool // choose solution branches independently
}

// DefaultConfig returns the configuration used across the repository for
// the given modem and noise floor.
func DefaultConfig(m PhyModem, noiseFloor float64) Config {
	return Config{
		Modem:          m,
		Detector:       DefaultDetectorConfig(4 * m.SamplesPerSymbol() * 8),
		NoiseFloor:     noiseFloor,
		PilotMaxErrors: DefaultPilotMaxErrors,
	}
}

// KnownLookup resolves a header key to the sent (or overheard) packet that
// can cancel the interference — the Sent Packet Buffer access of §7.3.
type KnownLookup func(frame.Key) (frame.SentRecord, bool)

// Result is the outcome of decoding one reception.
type Result struct {
	// Detection reports what the §7.1 detectors saw.
	Detection Detection
	// Clean is true when the reception carried a single signal and was
	// decoded with standard MSK demodulation.
	Clean bool
	// Backward is true when the packet was recovered by running the
	// pipeline over the conjugated time-reversed stream (§7.4).
	Backward bool
	// KnownHeader identifies the packet that was cancelled out (unset for
	// clean receptions).
	KnownHeader frame.Header
	// Packet is the recovered packet. Header is valid when HeaderOK;
	// Payload when BodyOK.
	Packet frame.Packet
	// WantedBits is the recovered on-air frame bit stream of the wanted
	// signal in forward orientation, for bit-error accounting. When
	// HeaderOK is false the stream is untrimmed and may carry garbage
	// bits past the true frame end. The slice is owned by the Result —
	// never a view into decoder scratch — so it stays valid across later
	// decodes.
	WantedBits []byte
	HeaderOK   bool
	BodyOK     bool
	// Amplitudes holds the Eq. 5/6 estimates (interfered decodes only).
	Amplitudes AmplitudeEstimate
}

// Decoder errors.
var (
	ErrNoPacket     = errors.New("core: no packet detected")
	ErrNoPilot      = errors.New("core: pilot sequence not found")
	ErrUnknown      = errors.New("core: interfered signal matches no known packet")
	ErrNoAlignment  = errors.New("core: wanted signal alignment failed")
	ErrShortOverlap = errors.New("core: interfered region too short to estimate amplitudes")
)

// Decoder runs Algorithm 1 over reception windows.
//
// A Decoder owns (or shares, see SetWorkspace) a Workspace of reusable
// buffers, so it is NOT safe for concurrent use; give each goroutine its
// own decoder and workspace.
type Decoder struct {
	cfg Config
	// pilot and pilotDiffs cache the network pilot and its transmitted
	// per-sample difference profile — both fixed protocol constants —
	// so the head search and alignment refinement never recompute them.
	// pilotWord packs the pilot's bits, first bit highest, for the
	// alignment scan's popcount.
	pilot      []byte
	pilotDiffs []float64
	pilotWord  uint64
	ws         *Workspace
}

// NewDecoder returns a decoder for the given configuration.
func NewDecoder(cfg Config) *Decoder {
	if cfg.Modem == nil {
		panic("core: Config.Modem is nil")
	}
	if cfg.PilotMaxErrors <= 0 {
		cfg.PilotMaxErrors = DefaultPilotMaxErrors
	}
	if bps := cfg.Modem.BitsPerSymbol(); cfg.FallbackFrameBits > 0 && cfg.FallbackFrameBits%bps != 0 {
		// A backward fallback trim reverses the stream in symbol groups;
		// a frame size that splits a symbol is a configuration bug.
		panic(fmt.Sprintf("core: FallbackFrameBits %d is not a multiple of %d bits per symbol", cfg.FallbackFrameBits, bps))
	}
	if bps := cfg.Modem.BitsPerSymbol(); bits.PilotLength%bps != 0 {
		// The wanted-frame alignment decodes the pilot in whole symbols.
		panic(fmt.Sprintf("core: the %d-bit pilot is not a whole number of %d-bit symbols", bits.PilotLength, bps))
	}
	pilot := bits.Pilot(bits.PilotLength)
	var word uint64
	for _, p := range pilot {
		word = word<<1 | uint64(p&1)
	}
	return &Decoder{
		cfg:        cfg,
		pilot:      pilot,
		pilotDiffs: cfg.Modem.PhaseDiffs(pilot),
		pilotWord:  word,
	}
}

// SetWorkspace attaches a caller-owned workspace, sharing its buffers with
// every other decoder the caller points at it (one workspace per worker
// goroutine, see Workspace). A nil workspace reverts the decoder to a
// lazily allocated private one.
func (d *Decoder) SetWorkspace(ws *Workspace) { d.ws = ws }

// workspace returns the attached workspace, lazily creating a private one.
func (d *Decoder) workspace() *Workspace {
	if d.ws == nil {
		d.ws = NewWorkspace()
	}
	return d.ws
}

// Decode processes one reception window: it detects the packet, classifies
// interference, and runs either the standard demodulator or the
// interference decoder (forward, then backward) as Algorithm 1 prescribes.
//
// Decode is a DecodeBatch of one — the single-reception and burst paths
// are the same code, which is what keeps them bit-identical by
// construction.
//
//anc:hotpath
func (d *Decoder) Decode(rx dsp.Signal, lookup KnownLookup) (*Result, error) {
	ws := d.workspace()
	ws.oneItem[0] = BatchItem{Decoder: d, Rx: rx, Lookup: lookup}
	out := DecodeBatch(ws.oneItem[:], ws.oneOut[:])
	res, err := out[0].Result, out[0].Err
	// Drop the references so the workspace does not pin the reception
	// buffer or the result past this decode.
	ws.oneItem[0] = BatchItem{}
	ws.oneOut[0] = BatchResult{}
	return res, err
}

// decodeOne is the Algorithm 1 body shared by Decode and DecodeBatch; the
// caller has already prepared ws for at least len(rx) samples.
func (d *Decoder) decodeOne(ws *Workspace, rx dsp.Signal, lookup KnownLookup) (*Result, error) {
	det := DetectWith(ws, rx, d.cfg.NoiseFloor, d.cfg.Detector)
	if !det.Present {
		return nil, ErrNoPacket
	}
	if !det.Interfered {
		return d.decodeClean(ws, rx, det, false)
	}
	if lookup == nil {
		return nil, ErrUnknown
	}
	res, errFwd := d.decodeInterfered(ws, rx, det, lookup, false)
	if errFwd == nil {
		return res, nil
	}
	rxb := ConjReverseInto(ws.conj, rx)
	ws.conj = rxb
	detb := DetectWith(ws, rxb, d.cfg.NoiseFloor, d.cfg.Detector)
	if !detb.Present || !detb.Interfered {
		return nil, errFwd
	}
	res, errBwd := d.decodeInterfered(ws, rxb, detb, lookup, true)
	if errBwd != nil {
		return nil, fmt.Errorf("forward: %w; backward: %v", errFwd, errBwd)
	}
	return res, nil
}

// TryClean attempts a standard (single-signal) decode regardless of the
// interference classification. The "X" topology's destinations use it for
// opportunistic overhearing: a weak concurrent transmitter may corrupt the
// overheard packet, and the CRC flags (HeaderOK/BodyOK) report whether the
// snoop succeeded (§11.5).
func (d *Decoder) TryClean(rx dsp.Signal) (*Result, error) {
	ws := d.workspace()
	ws.prepareBatch(len(rx))
	det := DetectWith(ws, rx, d.cfg.NoiseFloor, d.cfg.Detector)
	if !det.Present {
		return nil, ErrNoPacket
	}
	return d.decodeClean(ws, rx, det, false)
}

// TryCleanBackward is TryClean over the conjugated time-reversed stream:
// it decodes the *last-ending* transmission in the window instead of the
// first-starting one. A snooping node uses it when the packet it wants to
// overhear started second in a collision.
func (d *Decoder) TryCleanBackward(rx dsp.Signal) (*Result, error) {
	ws := d.workspace()
	ws.prepareBatch(len(rx))
	rxb := ConjReverseInto(ws.conj, rx)
	ws.conj = rxb
	det := DetectWith(ws, rxb, d.cfg.NoiseFloor, d.cfg.Detector)
	if !det.Present {
		return nil, ErrNoPacket
	}
	return d.decodeClean(ws, rxb, det, true)
}

// PeekHeaders decodes the headers reachable without interference
// cancellation: the one at the head of the stream (first-starting packet)
// and the one at the tail (last-ending packet, read backward). Routers use
// the pair to choose between decode, amplify-and-forward, and drop (§7.5).
// Either pointer may be nil if that header did not decode.
func (d *Decoder) PeekHeaders(rx dsp.Signal) (first, last *frame.Header) {
	ws := d.workspace()
	ws.prepareBatch(len(rx))
	det := DetectWith(ws, rx, d.cfg.NoiseFloor, d.cfg.Detector)
	if !det.Present {
		return nil, nil
	}
	if hm, err := d.findHead(ws, rx, det.Start, headLimit(det, len(rx))); err == nil {
		first = &hm.h
	}
	rxb := ConjReverseInto(ws.conj, rx)
	ws.conj = rxb
	detb := DetectWith(ws, rxb, d.cfg.NoiseFloor, d.cfg.Detector)
	if detb.Present {
		if hm, err := d.findHead(ws, rxb, detb.Start, headLimit(detb, len(rxb))); err == nil {
			last = &hm.h
		}
	}
	return first, last
}

// headLimit bounds how far into the stream the clean-head search may read:
// up to the interference onset (plus a margin) for interfered receptions,
// or the packet end for clean ones.
func headLimit(det Detection, n int) int {
	lim := det.End
	if det.Interfered {
		lim = det.IStart
	}
	if lim > n {
		lim = n
	}
	return lim
}

// headMatch is what the clean-head search found: the decoded header, the
// frame's reference sample, and where the frame's bits demodulate from.
type headMatch struct {
	h   frame.Header
	ref int // the frame's reference sample, refined to sample resolution
	// view is the first sample of the sub-symbol view whose bits matched
	// the pilot, and k the pilot's bit index in those bits.
	view, k int
}

// headMargin is how many symbols past the header end the head search
// demodulates, so that the MLSE survivor paths merge before the header's
// last bit in all but noisy receptions.
const headMargin = 16

// findHead locates the pilot and decodes the header in the clean head of a
// stream. It searches all sub-symbol sample offsets because the energy
// detector's start estimate is only window-accurate.
//
// Only a stream's first symbols decide the search: the frame begins within
// one detector window of start, and its pilot and header follow. So each
// offset is demodulated over a prefix long enough to hold them plus
// headMargin symbols, and only the prefix's settled bits are trusted: they
// equal the whole view's first bits (PhyModem.DemodulateSettledInto), so
// the first pilot match in them, and the header after it, are the whole
// view's. An offset whose settled bits hold no match, or end before the
// match's header does, is demodulated over its whole view instead. The
// search stops at the first offset whose pilot matches with zero errors
// and whose header decodes, since a later offset replaces the best only
// with strictly fewer errors. It therefore chooses exactly what a search
// over every whole view would. No frame bits are returned: only
// decodeClean needs them (frameBits).
func (d *Decoder) findHead(ws *Workspace, rx dsp.Signal, start, limit int) (headMatch, error) {
	m := d.cfg.Modem
	sps, bps := m.SamplesPerSymbol(), m.BitsPerSymbol()
	if limit > len(rx) {
		limit = len(rx)
	}
	prefix := m.NumSamples((d.cfg.Detector.Window/sps + frame.MirrorBits/bps + headMargin) * bps)
	// Every sub-symbol offset is scored by pilot bit errors and the best
	// one wins: a half-symbol misalignment often still demodulates the
	// pilot, but would skew the phase-difference matcher downstream.
	var best headMatch
	bestErrs := 1 << 30
	for off := 0; off < sps; off++ {
		lo := start + off
		if lo >= limit {
			break
		}
		hi := min(lo+prefix, limit)
		bs, settled := m.DemodulateSettledInto(&ws.modem, ws.headBits, rx[lo:hi])
		ws.headBits = bs
		if hi == limit {
			settled = len(bs) // the prefix is the whole view
		}
		k, errs := FindPatternScored(bs[:settled], d.pilot, d.cfg.PilotMaxErrors)
		if hi < limit && (k < 0 || k+frame.MirrorBits > settled) {
			bs = m.DemodulateInto(&ws.modem, ws.headBits, rx[lo:limit])
			ws.headBits = bs
			k, errs = FindPatternScored(bs, d.pilot, d.cfg.PilotMaxErrors)
		}
		if k < 0 || errs >= bestErrs {
			continue
		}
		h, err := frame.DecodeHeader(bs[k+bits.PilotLength:])
		if err != nil {
			continue
		}
		// k is a bit index; the frame reference sits k/bitsPerSymbol
		// symbols into the stream (a non-symbol-aligned k is a false
		// match whose header would have failed above).
		best = headMatch{h: h, ref: lo + k/bps*sps, view: lo, k: k}
		bestErrs = errs
		if errs == 0 {
			// ws.headBits is not read again before frameBits rewrites it.
			break
		}
	}
	if bestErrs == 1<<30 {
		return headMatch{}, ErrNoPilot
	}
	// Bit-level pilot matching can succeed at half-symbol misalignments
	// when the SNR is high, so refine the reference at sample resolution:
	// slide within ±1 symbol and keep the shift whose per-sample phase
	// differences best correlate with the pilot's known differences.
	best.ref = d.refineRef(ws, rx, best.ref, limit)
	return best, nil
}

// frameBits demodulates the frame a head search matched, from its first
// bit up to limit: the matched view's bits from the pilot on, or, when
// refineRef moved the reference, the bits demodulated from the refined
// reference. The bits are a view into workspace buffers, valid until the
// next decode.
func (d *Decoder) frameBits(ws *Workspace, rx dsp.Signal, hm headMatch, limit int) []byte {
	m := d.cfg.Modem
	if limit > len(rx) {
		limit = len(rx)
	}
	from, skip := hm.view, hm.k
	if hm.ref != hm.view+hm.k/m.BitsPerSymbol()*m.SamplesPerSymbol() {
		// The matched pilot and header start within a symbol of the
		// refined reference, so this demodulation is never empty.
		from, skip = hm.ref, 0
	}
	bs := m.DemodulateInto(&ws.modem, ws.headBits, rx[from:limit])
	ws.headBits = bs
	return bs[skip:]
}

// refineRef returns the sample shift of ref (within ±1 symbol) that
// maximizes Σ cos(observed ∆ − expected ∆) over the pilot region, skipping
// shifts whose window would read at or past limit. The shifted windows
// overlap, so the phase differences under all of them are computed once.
func (d *Decoder) refineRef(ws *Workspace, rx dsp.Signal, ref, limit int) int {
	sps := d.cfg.Modem.SamplesPerSymbol()
	lo := max(ref-sps+1, 0)
	// One past the last difference the latest shift reads.
	hi := min(ref+sps-1+len(d.pilotDiffs), limit-1)
	if hi <= lo {
		return ref
	}
	diffs := growFloats(&ws.refDiffs, hi-lo)
	for n := range diffs {
		diffs[n] = dsp.PhaseDiff(rx[lo+n], rx[lo+n+1])
	}
	best, _ := dsp.BestDiffsCorrelation(diffs, d.pilotDiffs, ref-sps+1-lo, ref+sps-lo, ref-lo)
	return lo + best
}

// alignWanted locates the wanted frame's reference sample in the
// recovered ∆φ stream: at every candidate offset in [lo, hi) it decodes
// one pilot's worth of symbols with the modem's decision rule and
// Hamming-matches the known pilot — the §7.2 matching process ("she tries
// to match the known pilot sequence with every sequence of 64 bits"),
// applied to the interference-decoded stream. The decoded-bit criterion
// discriminates far more sharply than any soft correlation: a random
// offset produces ≈32 of 64 wrong bits, the true one a handful.
//
// The search pattern is the forward pilot in either orientation: what
// leads a backward stream is the frame's mirrored tail read in reverse,
// and the mirror is laid out in symbol units (frame.MarshalFor) precisely
// so that under reversal it decodes to the forward pilot for every
// registered modem, not just one-bit-per-symbol ones.
//
// Each sample is decided once. A symbol's bits depend on its own S diffs
// alone (the PhyModem.DecideDiffsInto contract), so offset o's pilot
// window is symbols q…q+nsym−1 of the stream decided from lo+r, where
// r = (o−lo) mod S and q = (o−lo)/S. Each residue's stream is decided
// into one buffer and slid through a uint64 window, BitsPerSymbol bits
// per symbol, so an offset costs one popcount. The first offset with the
// fewest errors wins.
//
// It returns the refined offset and the fewest pilot errors at any
// offset; the offset is −1 when that count exceeds the tolerance, and the
// count is len(pilot) when the range holds no whole pilot window.
func (d *Decoder) alignWanted(ws *Workspace, diffs []float64, lo, hi int) (int, int) {
	m := d.cfg.Modem
	np := len(d.pilot)
	sps, bps := m.SamplesPerSymbol(), m.BitsPerSymbol()
	nsym := np / bps
	lo = max(lo, 0)
	hi = min(hi, len(diffs)-nsym*sps+1) // every offset reads nsym·S diffs
	mask := ^uint64(0) >> (64 - np)
	best, bestErrs := hi, np+1
	for start := lo; start < min(lo+sps, hi); start++ {
		// Offsets start, start+S, … below hi need this many symbols.
		syms := (hi-start+sps-1)/sps - 1 + nsym
		got := m.DecideDiffsInto(ws.alignLog, diffs[start:start+syms*sps], nil)
		ws.alignLog = got
		var win uint64
		for i, b := range got {
			win = win<<1 | uint64(b&1)
			if i+1 < np || (i+1)%bps != 0 {
				continue
			}
			// The residues visit offsets out of order, so ties go to the
			// lower offset explicitly.
			o := start + (i+1-np)/bps*sps
			if e := mathbits.OnesCount64((win ^ d.pilotWord) & mask); e < bestErrs || e == bestErrs && o < best {
				best, bestErrs = o, e
			}
		}
	}
	if best == hi {
		return -1, np
	}
	// The pilot sits right at the interference onset — the stretch where
	// the amplitude estimates are weakest — so the alignment tolerance is
	// looser than the clean-head pilot search's. Even at 12 of 64 errors
	// a false match costs P(Binom(64,½) ≤ 12) ≈ 4e−8 per offset.
	if bestErrs > 2*d.cfg.PilotMaxErrors {
		return -1, bestErrs
	}
	// Sub-symbol refinement: the bit-level match tolerates ±1-sample
	// misalignments that would corrupt the rest of the frame. Slide
	// within one symbol maximizing the soft agreement with the pilot's
	// known difference profile.
	// In both orientations the stream's leading wanted region decodes to
	// the forward pilot (that is what the coarse match above verified),
	// so the soft profile is the pilot's forward difference sequence.
	bestRef, _ := dsp.BestDiffsCorrelation(diffs, d.pilotDiffs, best-sps+1, best+sps, best)
	return bestRef, bestErrs
}

// decodeClean demodulates a single-signal reception. With backward set,
// the caller passed a conjugate-reversed stream; the frame is flipped to
// forward orientation before body extraction, exactly as in the
// interfered backward path.
func (d *Decoder) decodeClean(ws *Workspace, rx dsp.Signal, det Detection, backward bool) (*Result, error) {
	hm, err := d.findHead(ws, rx, det.Start, det.End)
	if err != nil {
		return nil, err
	}
	h := hm.h
	exact := ownedFrame(d.frameBits(ws, rx, hm, det.End), frame.FrameBits(int(h.Len)), d.cfg.Modem.BitsPerSymbol(), backward)
	res := &Result{Detection: det, Clean: true, Backward: backward, HeaderOK: true, WantedBits: exact}
	res.Packet.Header = h
	payload, err := frame.UnmarshalBody(h, exact)
	if err == nil {
		res.BodyOK = true
		res.Packet.Payload = payload
	}
	return res, nil
}

// decodeInterfered runs the §6 algorithm over a stream whose known packet
// starts first in the given orientation. The backward flag only controls
// how the known record's bits are oriented and how the recovered frame is
// flipped back; the caller passes the already conjugate-reversed stream.
func (d *Decoder) decodeInterfered(ws *Workspace, rx dsp.Signal, det Detection, lookup KnownLookup, backward bool) (*Result, error) {
	m := d.cfg.Modem
	sps := m.SamplesPerSymbol()
	w := d.cfg.Detector.Window

	// 1. Clean-head decode: our own pilot and header (§7.2, Fig. 5).
	head, err := d.findHead(ws, rx, det.Start, headLimit(det, len(rx))+4*sps)
	if err != nil {
		return nil, err
	}
	hdr, frameRef := head.h, head.ref
	rec, ok := lookup(hdr.Key())
	if !ok {
		return nil, fmt.Errorf("%w: header %v", ErrUnknown, hdr)
	}
	knownDiffs := m.PhaseDiffsInto(ws.known, rec.Bits)
	ws.known = knownDiffs
	if backward {
		// Conjugate time reversal reverses the per-sample difference
		// sequence without negating it (see ConjReverseInto).
		reverseFloats(knownDiffs)
		// findHead locked where the reversed stream demodulates — for a
		// constant-phase-per-symbol modem that is BackwardRefOffset
		// samples past the origin of the reversed difference sequence.
		// The known diffs anchor at the origin, so shift back.
		frameRef -= m.BackwardRefOffset()
		if frameRef < 0 {
			frameRef = 0
		}
	}
	knownEnd := frameRef + 1 + len(knownDiffs) // one past the known signal

	// 2. Amplitude estimation (§6.2) over the doubly-occupied region,
	// with a window-sized guard against edge bias, and assignment of the
	// known amplitude from the interference-free head power.
	lo, hi := det.IStart, det.IEnd
	if lo < frameRef {
		lo = frameRef
	}
	if hi > knownEnd {
		hi = knownEnd
	}
	if hi-lo > 4*w {
		lo += w
		hi -= w
	}
	if hi-lo < 64 {
		return nil, ErrShortOverlap
	}
	est, err := estimateAmplitudesWith(ws, rx[lo:hi])
	if err != nil {
		return nil, err
	}
	headHi := det.IStart
	if headHi > knownEnd {
		headHi = knownEnd
	}
	headPower := rx.View(frameRef, headHi).Power() - d.cfg.NoiseFloor
	if headPower < 0 {
		headPower = 0
	}
	est = AssignAmplitudes(est, headPower)

	// 3. Per-transition ∆φ estimates. Inside the known signal's span the
	// Lemma 6.1 candidates are disambiguated by the known phase
	// differences (Eqs. 7–8); past its end only the wanted signal
	// remains and plain differential phases apply. When the two
	// amplitudes are too close for the head-power assignment to be
	// trustworthy, both assignments are tried and the one whose known
	// signal matches better (lower mean residual) wins — a wrong
	// assignment mirrors the solution geometry and shows up as a large
	// matching residual.
	end := det.End
	if end > len(rx) {
		end = len(rx)
	}
	swap := math.Abs(est.A-est.B)/math.Max(est.A, est.B) < 0.15
	match, alt := d.extractDiffs(ws, rx, est, swap, knownDiffs, frameRef, knownEnd, end)
	if swap && alt.residual() < match.residual() {
		match = alt
		est.A, est.B = est.B, est.A
	}
	diffs, weights := match.diffs, match.weights

	// 4. Locate the wanted frame's start in the ∆φ stream by pilot
	// correlation (§7.2: "Once Bob's signal starts, the estimated phase
	// differences will correspond to the pilot sequence").
	searchLo := det.IStart - 3*w
	if searchLo < frameRef {
		searchLo = frameRef
	}
	searchHi := det.IStart + 3*w
	r0, errs := d.alignWanted(ws, diffs, searchLo, searchHi)
	if r0 < 0 {
		return nil, fmt.Errorf("%w: best pilot match %d errors", ErrNoAlignment, errs)
	}

	// 5. Per-symbol decision: sum the S per-sample differences of each
	// symbol; non-negative means 1 (§6.4).
	wanted := m.DecideDiffsInto(ws.wanted, diffs[r0:], weights[r0:])
	ws.wanted = wanted

	res := &Result{
		Detection:   det,
		Backward:    backward,
		KnownHeader: hdr,
		Amplitudes:  est,
	}

	// 6. Parse the wanted frame. In backward orientation the recovered
	// stream is the true frame reversed; its mirrored tail presents
	// pilot+header first, so header decoding is identical, and the full
	// frame is flipped before body extraction.
	wh, err := frame.DecodeHeader(wanted[bits.PilotLength:])
	if err != nil {
		// Header unusable; with a configured fixed frame size the bit
		// stream is still normalized for downstream error correction.
		if d.cfg.FallbackFrameBits > 0 {
			res.WantedBits = ownedFrame(wanted, d.cfg.FallbackFrameBits, m.BitsPerSymbol(), backward)
		} else {
			res.WantedBits = append([]byte(nil), wanted...)
		}
		return res, nil
	}
	res.HeaderOK = true
	res.Packet.Header = wh
	exact := ownedFrame(wanted, frame.FrameBits(int(wh.Len)), m.BitsPerSymbol(), backward)
	res.WantedBits = exact
	if payload, err := frame.UnmarshalBody(wh, exact); err == nil {
		res.BodyOK = true
		res.Packet.Payload = payload
	}
	return res, nil
}

// reverseFloats reverses a float slice in place.
func reverseFloats(xs []float64) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// ownedFrame copies a recovered bit stream into a fresh slice trimmed or
// zero-padded to the frame length, flipping backward-oriented streams to
// forward order. Trimming happens before the flip because the garbage is
// at the decode-order tail. The flip reverses in symbol units: a
// time-reversed signal hands a multi-bit modem its symbols in reverse
// order, but each symbol still decodes to its bits in transmit order.
// The copy is what lets Result.WantedBits outlive the decoder's reused
// scratch buffers.
func ownedFrame(stream []byte, frameBits, bitsPerSymbol int, backward bool) []byte {
	exact := make([]byte, frameBits)
	copy(exact, stream) // shorter streams leave zero padding in place
	if backward {
		bits.ReverseGroupsInPlace(exact, bitsPerSymbol)
	}
	return exact
}

// branchContinuityPenalty is the matcher's cost for switching solution
// branches between consecutive samples. Tuned empirically: large enough to
// suppress noise-driven flips in ill-conditioned stretches, small enough
// (≪ π/4) never to override a clear phase-difference match.
const branchContinuityPenalty = 0.3

// matcher is one amplitude assignment's state in the Eq. 7–8 matching
// loop: the previous sample's Lemma 6.1 solutions and conditioning, the
// branch it chose, the known signal's running residual, and the ∆φ and
// weight streams it writes.
type matcher struct {
	prev           [2]PhasePair
	prevCond       float64
	prevChoice     int
	residualSum    float64
	residualN      int
	diffs, weights []float64
}

// residual is the mean matching residual of the known signal (+Inf when
// no sample was matched).
func (mt *matcher) residual() float64 {
	if mt.residualN == 0 {
		return math.Inf(1)
	}
	return mt.residualSum / float64(mt.residualN)
}

// extractDiffs runs the Eq. 7–8 matching loop over [frameRef, end) and
// returns the matcher of the assignment est, whose streams hold the
// per-transition ∆φ estimates of the wanted signal and their conditioning
// weights, and whose residual is the mean matching residual of the known
// signal (the quantity an amplitude mis-assignment inflates). With swap
// set it runs the swapped assignment (A and B exchanged) in the same sweep
// and returns its matcher second: each sample's Lemma 6.1 solve serves
// both (swappedSolutions). The streams live in the workspace (the swapped
// assignment in the alt pair); entries before frameRef are zeroed because
// the alignment refinement may read slightly below the frame reference.
func (d *Decoder) extractDiffs(ws *Workspace, rx dsp.Signal, est AmplitudeEstimate, swap bool, knownDiffs []float64, frameRef, knownEnd, end int) (match, alt matcher) {
	a, b := est.A, est.B
	match.diffs, match.weights = growFloats(&ws.diffs, end-1), growFloats(&ws.weights, end-1)
	clear(match.diffs[:min(frameRef, end-1)])
	clear(match.weights[:min(frameRef, end-1)])
	if swap {
		alt.diffs, alt.weights = growFloats(&ws.altDiffs, end-1), growFloats(&ws.altWts, end-1)
		clear(alt.diffs[:min(frameRef, end-1)])
		clear(alt.weights[:min(frameRef, end-1)])
	}
	havePrev := false
	for n := frameRef; n+1 < end; n++ {
		if n+1 >= knownEnd {
			pd := dsp.PhaseDiff(rx[n], rx[n+1])
			match.diffs[n], match.weights[n] = pd, 1
			if swap {
				alt.diffs[n], alt.weights[n] = pd, 1
			}
			continue
		}
		if !havePrev {
			var dPrev float64
			match.prev = SolvePhases(rx[n], a, b)
			match.prevCond, dPrev = conditioning(rx[n], a, b)
			if swap {
				alt.prev, alt.prevCond = swappedSolutions(rx[n], a, b, match.prev, match.prevCond, dPrev)
			}
			havePrev = true
		}
		cur := SolvePhases(rx[n+1], a, b)
		curCond, dCur := conditioning(rx[n+1], a, b)
		kd := knownDiffs[n-frameRef]
		d.matchSample(&match, n, cur, curCond, kd)
		if swap {
			altCur, altCond := swappedSolutions(rx[n+1], a, b, cur, curCond, dCur)
			d.matchSample(&alt, n, altCur, altCond, kd)
		}
	}
	return match, alt
}

// matchSample picks the Lemma 6.1 solution pair of transition n → n+1
// whose known-signal phase difference best matches the transmitted one kd
// (Eq. 8), writes the wanted signal's ∆φ and its weight at n, and moves
// the matcher on to sample n+1's solutions cur.
//
// Candidate (x, y) pairs sample n+1's branch x with sample n's branch y.
// Its cost is the mismatch e of the known signal's phase difference
// (Eq. 8), plus a prior that the wanted difference must itself be a
// legal per-sample step of the modulation, plus a small penalty for
// switching branches. The prior is symmetric in sign so it cannot bias
// the bit decision; it only rejects mirror-branch artifacts. The penalty
// prefers re-selecting the previous sample's branch: the physical
// configuration (which side of y the known vector lies) evolves
// continuously, so branch flips should be rare.
//
// The result is that of a scan over the four candidates in (x, y) order
// keeping the first strictly lowest cost, where a NaN cost never wins.
// The prior is a distance (≥ 0, or NaN), so e plus the penalty bounds a
// candidate's cost from below; the candidate with the lowest bound is
// scored first, and another is scored only if its bound could still beat
// the best cost, or tie it at a lower (x, y) index.
//
//anc:hotpath
func (d *Decoder) matchSample(mt *matcher, n int, cur [2]PhasePair, curCond, kd float64) {
	var bound, errs [4]float64
	first := -1
	for k := range bound {
		x, y := k>>1, k&1
		e := math.Abs(dsp.WrapPhase(cur[x].Theta - mt.prev[y].Theta - kd))
		errs[k], bound[k] = e, e
		if y != mt.prevChoice && !d.cfg.NoBranchContinuity {
			bound[k] += branchContinuityPenalty
		}
		if bound[k] < math.Inf(1) && (first < 0 || bound[k] < bound[first]) {
			first = k
		}
	}
	bestCost := math.Inf(1)
	bestErr := 0.0
	bestX := 0
	var bestDiff float64
	if first >= 0 {
		best := -1
		for i := range bound {
			k := (first + i) & 3
			if best >= 0 && (bound[k] > bestCost || bound[k] == bestCost && k > best) {
				continue // cannot win: its cost is at least its bound
			}
			x, y := k>>1, k&1
			dphi := dsp.WrapPhase(cur[x].Phi - mt.prev[y].Phi)
			cost := errs[k]
			if !d.cfg.NoMSKPrior {
				cost += 0.5 * d.cfg.Modem.StepPrior(dphi)
			}
			if y != mt.prevChoice && !d.cfg.NoBranchContinuity {
				cost += branchContinuityPenalty
			}
			if cost < bestCost || cost == bestCost && k < best {
				best, bestCost, bestErr, bestDiff, bestX = k, cost, errs[k], dphi, x
			}
		}
	}
	mt.prevChoice = bestX
	mt.diffs[n] = bestDiff
	mt.residualSum += bestErr
	mt.residualN++
	// Where the circles of Fig. 4 are nearly tangent (|sin(θ−φ)|
	// small) the φ estimate is ill-conditioned; its contribution to
	// the symbol decision is weighted down accordingly.
	if d.cfg.NoConditioningWeights {
		mt.weights[n] = 1
	} else {
		mt.weights[n] = math.Min(mt.prevCond, curCond) + 0.05
	}
	mt.prev, mt.prevCond = cur, curCond
}
