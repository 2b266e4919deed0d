package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/sim"
)

// The golden-regression suite renders each Fig* campaign at a small fixed
// run count and seed and compares the full series against checked-in
// golden files. The campaigns are deterministic, so any drift means a
// behavioral change in the decoder, the channel model or the accounting —
// exactly what must not happen silently during a refactor. Regenerate
// with:
//
//	go test ./internal/experiments -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// goldenOpts pins the campaign size the goldens were rendered at.
func goldenOpts() Options {
	return Options{Runs: 4, Sim: sim.Config{Packets: 5}, Seed: 3}
}

// goldenTol is the relative tolerance for numeric fields. The campaigns
// are bit-deterministic on a given toolchain; the tolerance only absorbs
// last-digit formatting and cross-architecture libm drift.
const goldenTol = 1e-6

// compareGolden checks got against the named golden file, comparing
// numeric tokens within tolerance and everything else exactly.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	want := string(wantBytes)
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(want, "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines, golden has %d\ngot:\n%s", name, len(gotLines), len(wantLines), got)
	}
	for li := range wantLines {
		gotFields := strings.Fields(gotLines[li])
		wantFields := strings.Fields(wantLines[li])
		if len(gotFields) != len(wantFields) {
			t.Errorf("%s line %d: %q != golden %q", name, li+1, gotLines[li], wantLines[li])
			continue
		}
		for fi := range wantFields {
			if fieldsMatch(gotFields[fi], wantFields[fi]) {
				continue
			}
			t.Errorf("%s line %d field %d: %q != golden %q", name, li+1, fi+1, gotFields[fi], wantFields[fi])
		}
	}
}

// fieldsMatch compares one whitespace-delimited token: numerically within
// goldenTol when both parse as floats, byte-exact otherwise.
func fieldsMatch(got, want string) bool {
	if got == want {
		return true
	}
	g, errG := strconv.ParseFloat(got, 64)
	w, errW := strconv.ParseFloat(want, 64)
	if errG != nil || errW != nil {
		return false
	}
	if g == w {
		return true
	}
	return math.Abs(g-w) <= goldenTol*math.Max(math.Abs(g), math.Abs(w))
}

// gainSeries renders the full campaign output the figures plot, plus a
// delivery tail so packet-loss accounting is pinned too.
func gainSeries(res *GainResult) string {
	var b strings.Builder
	b.WriteString(res.FormatGain(0))
	b.WriteString(res.FormatBER(0))
	fmt.Fprintf(&b, "# overlap mean=%.6f n=%d\n", res.Overlap.Mean(), res.Overlap.Len())
	return b.String()
}

func TestGoldenFig9(t *testing.T) {
	compareGolden(t, "fig9.golden", gainSeries(Fig9(goldenOpts())))
}

func TestGoldenFig10(t *testing.T) {
	compareGolden(t, "fig10.golden", gainSeries(Fig10(goldenOpts())))
}

func TestGoldenFig12(t *testing.T) {
	compareGolden(t, "fig12.golden", gainSeries(Fig12(goldenOpts())))
}

func TestGoldenFig7(t *testing.T) {
	compareGolden(t, "fig7.golden", Fig7(0, 55, 5))
}

func TestGoldenFig13(t *testing.T) {
	compareGolden(t, "fig13.golden", Fig13(goldenOpts(), -3, 4, 1))
}

func TestGoldenSummary(t *testing.T) {
	compareGolden(t, "summary.golden", Summary(goldenOpts()))
}

// TestGoldenNewScenarios pins the engine-unlocked scenarios the same
// way, so they are as regression-protected as the paper's. The list
// includes the channel-dynamics scenarios: their fading and mobility
// traces are seeded from the run RNG, so the rendered series are as
// deterministic as the static ones.
func TestGoldenNewScenarios(t *testing.T) {
	for _, name := range []string{"pairs", "x-cross", "near-far", "fading", "chain-5", "dqpsk"} {
		res, err := ScenarioCampaign(goldenOpts(), name)
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, name+".golden", gainSeries(res))
	}
}

// TestGoldenDQPSKDimension pins the modem axis: the paper scenarios that
// exercise every decode path — the triggered exchange (alice-bob), the
// overhearing X with cross traffic (x-cross) and the pipelined chain
// (chain-5) — rendered under the π/4-DQPSK modem. With the symbol-wise
// frame mirror both endpoints of every exchange decode (one forward,
// one off the conjugate time-reversed stream), so the gains sit in the
// same ≈1.5–1.8× band as the MSK series; any slip back toward the old
// one-sided ≈0.75 regime means the multi-bit backward path regressed.
func TestGoldenDQPSKDimension(t *testing.T) {
	for _, name := range []string{"alice-bob", "x-cross", "chain-5"} {
		opts := goldenOpts()
		opts.Sim.Modem = "dqpsk"
		res, err := ScenarioCampaign(opts, name)
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, name+".dqpsk.golden", gainSeries(res))
	}
}

// TestGoldenClosedLoop pins the closed-loop scenario under Rayleigh
// fading. Deep fades make the router drop a collision in one of the
// golden runs, so the file pins both the forward and the drop path; on
// the static default channel the router forwards every round and the
// file would only repeat fig9.golden.
func TestGoldenClosedLoop(t *testing.T) {
	opts := goldenOpts()
	opts.Sim.Topology.Fading = channel.FadingSpec{Kind: channel.FadingRayleigh}
	res, err := ScenarioCampaign(opts, "closed-loop")
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "closed-loop.rayleigh.golden", gainSeries(res))
}

// TestGoldenAblation pins the two ablation tables that run on the
// engine: the matcher variants' BER and loss, and the overlap sweep's
// gains. Both fold per-run metrics into table rows by hand, so the file
// guards that accounting the way the figure goldens guard the campaigns.
// At 18 dB runs lose packets and decode different counts, which pins
// the loss tally and the BER mean pooled over every decode.
func TestGoldenAblation(t *testing.T) {
	var b strings.Builder
	for _, snr := range []float64{25, 18} {
		opts := goldenOpts()
		opts.Sim.SNRdB = sim.Ptr(snr)
		b.WriteString(AblationMatcher(opts) + AblationOverlap(opts))
	}
	compareGolden(t, "ablation.golden", b.String())
}
