package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/phy"
)

// alignWantedReference is the per-offset search the decoder's alignment
// scan replaced, kept as its reference: every candidate offset re-decides
// a pilot's worth of symbols and counts mismatches, stopping at the
// running best. When no offset is within tolerance it reports the cap
// 2·maxErrors+1 rather than the fewest errors.
func alignWantedReference(m core.PhyModem, maxErrors int, diffs []float64, lo, hi int) (int, int) {
	pilot := bits.Pilot(bits.PilotLength)
	sps := m.SamplesPerSymbol()
	need := len(pilot) / m.BitsPerSymbol() * sps
	if lo < 0 {
		lo = 0
	}
	maxErrs := 2 * maxErrors
	best, bestErrs := -1, maxErrs+1
	var got []byte
	for o := lo; o < hi && o+need <= len(diffs); o++ {
		got = m.DecideDiffsInto(got, diffs[o:o+need], nil)
		errs := 0
		for i, p := range pilot {
			if i >= len(got) || got[i] != p {
				errs++
				if errs >= bestErrs {
					break
				}
			}
		}
		if errs < bestErrs {
			best, bestErrs = o, errs
		}
	}
	if best < 0 {
		return best, bestErrs
	}
	bestRef, _ := dsp.BestDiffsCorrelation(diffs, m.PhaseDiffs(pilot), best-sps+1, best+sps, best)
	return bestRef, bestErrs
}

// fewestPilotErrors is the smallest pilot mismatch count over the offsets
// in [lo, hi) that hold a whole pilot window, or len(pilot) when none does.
func fewestPilotErrors(m core.PhyModem, diffs []float64, lo, hi int) int {
	pilot := bits.Pilot(bits.PilotLength)
	need := len(pilot) / m.BitsPerSymbol() * m.SamplesPerSymbol()
	fewest := len(pilot)
	for o := max(lo, 0); o < hi && o+need <= len(diffs); o++ {
		got := m.DecideDiffs(diffs[o:o+need], nil)
		errs := 0
		for i, p := range pilot {
			if got[i] != p {
				errs++
			}
		}
		fewest = min(fewest, errs)
	}
	return fewest
}

// randomDiffs returns n phase differences uniform on [−π, π).
func randomDiffs(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (2*rng.Float64() - 1) * math.Pi
	}
	return out
}

// flippedPilot returns the pilot with one bit flipped in each of f
// distinct symbols.
func flippedPilot(rng *rand.Rand, bps, f int) []byte {
	p := bits.Pilot(bits.PilotLength)
	for _, s := range rng.Perm(len(p) / bps)[:f] {
		p[s*bps+rng.Intn(bps)] ^= 1
	}
	return p
}

// alignCase is one alignment search: a ∆φ stream and an offset range.
type alignCase struct {
	name   string
	diffs  []float64
	lo, hi int
}

// alignCases builds the searches alignWanted is held to its reference
// on: random streams, the pilot profile embedded with 0…2·maxErrors+1
// flipped symbols, tied minima within and across offset residues, and
// ranges that start below 0, end past the last whole pilot window, or
// are empty.
func alignCases(rng *rand.Rand, m core.PhyModem, maxErrors int) []alignCase {
	sps, bps := m.SamplesPerSymbol(), m.BitsPerSymbol()
	need := bits.PilotLength / bps * sps
	n := 5 * need
	embed := func(diffs []float64, at int, pilot []byte) {
		copy(diffs[at:], m.PhaseDiffs(pilot))
	}
	var cases []alignCase
	for i := 0; i < 3; i++ {
		diffs := randomDiffs(rng, n)
		cases = append(cases,
			alignCase{"random", diffs, 0, n},
			alignCase{"random lo<0", diffs, -7, need},
			alignCase{"random hi past end", diffs, n - need - 3*sps, n + 5})
	}
	for f := 0; f <= 2*maxErrors+1; f++ {
		diffs := randomDiffs(rng, n)
		at := need + rng.Intn(2*need)
		embed(diffs, at, flippedPilot(rng, bps, f))
		cases = append(cases,
			alignCase{fmt.Sprintf("%d flipped", f), diffs, 0, n},
			alignCase{fmt.Sprintf("%d flipped, window", f), diffs, at - 3*sps - 1, at + 3*sps})
	}
	// Two copies of one flipped pilot: the earlier copy sits in a later
	// residue of the range than the later copy (when S > 1), so the scan
	// meets the tie out of offset order.
	for f := 0; f <= 4; f += 2 {
		diffs := randomDiffs(rng, n)
		pilot := flippedPilot(rng, bps, f)
		first := need + sps - 1
		second := first + need + sps + 1
		embed(diffs, first, pilot)
		embed(diffs, second, pilot)
		cases = append(cases, alignCase{fmt.Sprintf("tie %d flipped", f), diffs, 0, n})
	}
	short := randomDiffs(rng, need-1)
	cases = append(cases,
		alignCase{"empty range", randomDiffs(rng, n), 40, 40},
		alignCase{"inverted range", randomDiffs(rng, n), 50, 10},
		alignCase{"stream shorter than a pilot", short, 0, len(short)},
		alignCase{"no diffs", nil, 0, 10})
	return cases
}

// TestAlignWantedMatchesReference holds the decide-once popcount scan to
// the per-offset search over every registered modem: same offset, and
// the same error count on a match. Where no offset is within tolerance
// the scan reports the fewest errors at any offset (len(pilot) when none
// holds a whole pilot window), not the reference's cap.
func TestAlignWantedMatchesReference(t *testing.T) {
	for _, name := range phy.Names() {
		for _, sps := range []int{1, 2, 4, 8} {
			m := phy.MustNew(name, sps)
			cfg := core.DefaultConfig(m, 1e-4)
			dec := core.NewDecoder(cfg)
			dec.SetWorkspace(core.NewWorkspace())
			rng := rand.New(rand.NewSource(int64(17*sps + len(name))))
			matched := 0
			for _, c := range alignCases(rng, m, cfg.PilotMaxErrors) {
				gotOff, gotErrs := dec.AlignWanted(c.diffs, c.lo, c.hi)
				wantOff, wantErrs := alignWantedReference(m, cfg.PilotMaxErrors, c.diffs, c.lo, c.hi)
				if wantOff < 0 {
					wantErrs = fewestPilotErrors(m, c.diffs, c.lo, c.hi)
				} else {
					matched++
				}
				if gotOff != wantOff || gotErrs != wantErrs {
					t.Errorf("%s S=%d %s [%d, %d): (%d, %d), want (%d, %d)",
						name, sps, c.name, c.lo, c.hi, gotOff, gotErrs, wantOff, wantErrs)
				}
			}
			if matched == 0 {
				t.Errorf("%s S=%d: no case matched the pilot", name, sps)
			}
		}
	}
}

// TestAlignWantedReportsFewestErrors pins the ErrNoAlignment count: on a
// stream that holds no pilot the search fails and reports the true
// fewest errors, not the tolerance cap 2·PilotMaxErrors+1.
func TestAlignWantedReportsFewestErrors(t *testing.T) {
	for _, name := range phy.Names() {
		m := phy.MustNew(name, 4)
		cfg := core.DefaultConfig(m, 1e-4)
		dec := core.NewDecoder(cfg)
		rng := rand.New(rand.NewSource(5))
		diffs := randomDiffs(rng, 3000)
		off, errs := dec.AlignWanted(diffs, 0, len(diffs))
		fewest := fewestPilotErrors(m, diffs, 0, len(diffs))
		if off != -1 || errs != fewest {
			t.Errorf("%s: (%d, %d), want (-1, %d)", name, off, errs, fewest)
		}
		if limit := 2 * cfg.PilotMaxErrors; fewest <= limit+1 {
			t.Errorf("%s: fewest errors %d does not tell the true count from the cap %d", name, fewest, limit+1)
		}
	}
}
