package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/dqpsk"
	"repro/internal/dsp"
	"repro/internal/frame"
	"repro/internal/msk"
)

// findHeadReference is the clean-head search findHead must reproduce: it
// demodulates every sub-symbol offset's whole view, scores each by its
// first pilot match, and refines the winner by computing each shift's
// phase differences afresh. It returns the match (header, frame
// reference, and the view and pilot index that won) and the frame's bits
// from the pilot on.
func (d *Decoder) findHeadReference(rx dsp.Signal, start, limit int) (headMatch, []byte, error) {
	m := d.cfg.Modem
	sps := m.SamplesPerSymbol()
	if limit > len(rx) {
		limit = len(rx)
	}
	var views []dsp.Signal
	for off := 0; off < sps; off++ {
		if lo := start + off; lo < limit {
			views = append(views, rx[lo:limit])
		}
	}
	if len(views) == 0 {
		return headMatch{}, nil, ErrNoPilot
	}
	var want headMatch
	bestErrs := 1 << 30
	var frameBits []byte
	for off, bs := range m.DemodulateBatchInto(nil, nil, views) {
		k, errs := FindPatternScored(bs, d.pilot, d.cfg.PilotMaxErrors)
		if k < 0 || errs >= bestErrs {
			continue
		}
		hdr, err := frame.DecodeHeader(bs[k+bits.PilotLength:])
		if err != nil {
			continue
		}
		want = headMatch{h: hdr, ref: start + off + k/m.BitsPerSymbol()*sps, view: start + off, k: k}
		frameBits, bestErrs = bs[k:], errs
	}
	if bestErrs == 1<<30 {
		return headMatch{}, nil, ErrNoPilot
	}
	best, bestScore := want.ref, math.Inf(-1)
	for r := want.ref - sps + 1; r < want.ref+sps; r++ {
		if r < 0 || r+len(d.pilotDiffs)+1 > limit {
			continue
		}
		var score float64
		for k, e := range d.pilotDiffs {
			score += math.Cos(dsp.PhaseDiff(rx[r+k], rx[r+k+1]) - e)
		}
		if score > bestScore {
			best, bestScore = r, score
		}
	}
	if best != want.ref {
		want.ref = best
		if bs := m.Demodulate(rx[best:limit]); len(bs) > 0 {
			frameBits = bs
		}
	}
	return want, frameBits, nil
}

// perfectOffset returns the first sub-symbol offset whose whole view
// matches the pilot with zero errors and decodes a header (−1 if none),
// and how many offsets a search from start scans.
func (d *Decoder) perfectOffset(rx dsp.Signal, start, limit int) (first, offsets int) {
	m := d.cfg.Modem
	limit = min(limit, len(rx))
	first = -1
	for off := 0; off < m.SamplesPerSymbol() && start+off < limit; off++ {
		offsets++
		if first >= 0 {
			continue
		}
		bs := m.Demodulate(rx[start+off : limit])
		if k, errs := FindPatternScored(bs, d.pilot, d.cfg.PilotMaxErrors); k >= 0 && errs == 0 {
			if _, err := frame.DecodeHeader(bs[k+bits.PilotLength:]); err == nil {
				first = off
			}
		}
	}
	return first, offsets
}

// headSearch is one findHead input.
type headSearch struct {
	kind         string
	rx           dsp.Signal
	start, limit int
}

// headSearches synthesizes clean, interfered, conjugate-reversed and
// noise-only receptions at 0–25 dB SNR, and more clean ones at 0–6 dB, with
// random lead-ins, and pairs
// each with the start/limit the decoder would use plus jittered starts.
func headSearches(rng *rand.Rand, m PhyModem, floor float64, det DetectorConfig) []headSearch {
	sps := m.SamplesPerSymbol()
	bps := m.BitsPerSymbol()
	frameSig := func() dsp.Signal {
		payload := make([]byte, 16+rng.Intn(64))
		rng.Read(payload)
		pkt := frame.NewPacket(uint16(rng.Intn(9)+1), uint16(rng.Intn(9)+1), rng.Uint32(), payload)
		return m.Modulate(frame.MarshalFor(pkt, bps))
	}
	link := func(snr float64) channel.Link {
		gain := math.Sqrt(floor * dsp.FromDB(snr))
		return channel.Link{Gain: gain, Phase: rng.Float64() * 2 * math.Pi, FreqOffset: (rng.Float64()*2 - 1) * 0.01}
	}
	noise := func() *dsp.NoiseSource { return dsp.NewNoiseSource(floor, rng.Int63()) }
	var out []headSearch
	add := func(kind string, rx dsp.Signal) {
		d := DetectWith(nil, rx, floor, det)
		if d.Present {
			out = append(out, headSearch{kind, rx, d.Start, headLimit(d, len(rx))})
			if d.Interfered {
				out = append(out, headSearch{kind + "+4S", rx, d.Start, headLimit(d, len(rx)) + 4*sps})
			}
		}
		for j := 0; j < 3; j++ {
			out = append(out, headSearch{kind + " jittered", rx, rng.Intn(len(rx) / 3), len(rx) - rng.Intn(len(rx)/4)})
		}
	}
	minSep := m.NumSamples(frame.MirrorBits) - 1 + 3*det.Window
	for i := 0; i < 12; i++ {
		snr := rng.Float64() * 25
		clean := channel.Receive(noise(), 200, channel.Transmission{Signal: frameSig(), Link: link(snr), Delay: rng.Intn(1500)})
		add("clean", clean)
		add("clean reversed", ConjReverseInto(nil, clean))

		a, b := frameSig(), frameSig()
		mixed := channel.Receive(noise(), 200,
			channel.Transmission{Signal: a, Link: link(snr), Delay: rng.Intn(300)},
			channel.Transmission{Signal: b, Link: link(snr + rng.Float64()*6 - 3), Delay: 300 + minSep + rng.Intn(len(a)/2)})
		add("interfered", mixed)
		add("interfered reversed", ConjReverseInto(nil, mixed))

		out = append(out, headSearch{"noise", noise().Samples(2000 + rng.Intn(4000)), rng.Intn(500), 2000})
	}
	// At low SNR the best offset's pilot often keeps a bit error, so the
	// search scans every offset and still finds a header.
	for i := 0; i < 12; i++ {
		snr := rng.Float64() * 6
		add("low-SNR clean", channel.Receive(noise(), 200, channel.Transmission{Signal: frameSig(), Link: link(snr), Delay: rng.Intn(1500)}))
	}
	return out
}

// TestFindHeadMatchesWholeViewSearch holds the settled-prefix head search
// to the whole-view search it replaces: the same header, frame reference,
// winning view and pilot index, and error, and for matches the same frame
// bits, for both modems. The
// matches must include searches that stop at a zero-error offset before
// the last and searches that find their header after scanning every
// offset; at S = 1 there is one offset, so no search can stop early.
func TestFindHeadMatchesWholeViewSearch(t *testing.T) {
	modems := []PhyModem{msk.New(), msk.New(msk.WithSamplesPerSymbol(1)), msk.New(msk.WithSamplesPerSymbol(2)), dqpsk.New()}
	for mi, m := range modems {
		rng := rand.New(rand.NewSource(int64(40 + mi)))
		floor := 1e-3
		d := NewDecoder(DefaultConfig(m, floor))
		ws := NewWorkspace()
		sps, bps := m.SamplesPerSymbol(), m.BitsPerSymbol()
		prefix := m.NumSamples((d.cfg.Detector.Window/sps + frame.MirrorBits/bps + headMargin) * bps)
		var found, missed, conclusive, fallback, refined, stopped, scanned int
		for _, c := range headSearches(rng, m, floor, d.cfg.Detector) {
			ws.prepareBatch(len(c.rx))
			want, wantBits, wantErr := d.findHeadReference(c.rx, c.start, c.limit)
			hm, err := d.findHead(ws, c.rx, c.start, c.limit)
			if !errors.Is(err, wantErr) || wantErr != nil && err == nil {
				t.Fatalf("modem %d %s: err %v, reference %v", mi, c.kind, err, wantErr)
			}
			if wantErr != nil {
				missed++
				continue
			}
			found++
			if hm != want {
				t.Fatalf("modem %d %s: match %+v, reference %+v", mi, c.kind, hm, want)
			}
			if got := d.frameBits(ws, c.rx, hm, c.limit); string(got) != string(wantBits) {
				t.Fatalf("modem %d %s: frame bits differ from the reference's", mi, c.kind)
			}
			if hm.ref != hm.view+hm.k/bps*sps {
				refined++
			}
			if first, offsets := d.perfectOffset(c.rx, c.start, c.limit); first >= 0 && first < offsets-1 {
				stopped++
			} else {
				scanned++
			}
			// Which path decided the matched offset?
			hi := min(hm.view+prefix, min(c.limit, len(c.rx)))
			bs, settled := m.DemodulateSettledInto(nil, nil, c.rx[hm.view:hi])
			if k, _ := FindPatternScored(bs[:settled], d.pilot, d.cfg.PilotMaxErrors); k >= 0 && k+frame.MirrorBits <= settled {
				conclusive++
			} else {
				fallback++
			}
		}
		t.Logf("modem %d: %d found (%d from the prefix, %d from the whole view, %d refined; %d stopped early, %d scanned every offset), %d without a pilot",
			mi, found, conclusive, fallback, refined, stopped, scanned, missed)
		if conclusive == 0 || fallback == 0 || missed == 0 || scanned == 0 || sps > 1 && stopped == 0 {
			t.Errorf("modem %d: a path went unexercised", mi)
		}
	}
}
