package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func ablOpts() Options {
	return Options{Runs: 3, Sim: sim.Config{Packets: 8}, Seed: 2}
}

func TestAblationMatcherOrdering(t *testing.T) {
	out := AblationMatcher(ablOpts())
	full := extractFloat(t, out, "full decoder")
	literal := extractFloat(t, out, "paper-literal matcher")
	if literal <= full*2 {
		t.Errorf("paper-literal BER %.5f not clearly above full decoder %.5f", literal, full)
	}
	noCond := extractFloat(t, out, "no conditioning weights")
	if noCond <= full {
		t.Errorf("conditioning weights show no benefit: %.5f vs %.5f", noCond, full)
	}
}

func TestAblationSubtractionFragility(t *testing.T) {
	out := AblationSubtraction(3)
	lines := dataLines(out)
	if len(lines) < 5 {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// First row: zero CFO — subtraction (column 2) is essentially exact.
	var cfo, sub, pair float64
	parseRow(t, lines[0], &cfo, &sub, &pair)
	if sub > 0.001 {
		t.Errorf("subtraction at zero CFO BER %.5f, want ~0", sub)
	}
	// Any later row: subtraction collapses, phase-pair persists — the §6
	// robustness claim.
	parseRow(t, lines[2], &cfo, &sub, &pair)
	if sub < 0.1 {
		t.Errorf("subtraction under CFO %.4f BER %.5f, expected collapse", cfo, sub)
	}
	if pair > 0.05 {
		t.Errorf("phase-pair under CFO %.4f BER %.5f, expected robustness", cfo, pair)
	}
}

func TestAblationEstimatorText(t *testing.T) {
	out := AblationEstimator(4)
	lines := dataLines(out)
	if len(lines) != 5 {
		t.Fatalf("want 5 CFO rows:\n%s", out)
	}
	// With a healthy CFO both estimators are accurate (≤10% error).
	var cfo, mom, env float64
	parseRow(t, lines[3], &cfo, &mom, &env)
	if mom > 0.1 || env > 0.1 {
		t.Errorf("estimator errors at CFO %.4f: moments %.4f envelope %.4f", cfo, mom, env)
	}
}

func TestAblationOverlapPeak(t *testing.T) {
	out := AblationOverlap(Options{Runs: 2, Sim: sim.Config{Packets: 6}, Seed: 5})
	lines := dataLines(out)
	var rows [][3]float64
	for _, l := range lines {
		var o, g, b float64
		parseRow(t, l, &o, &g, &b)
		rows = append(rows, [3]float64{o, g, b})
	}
	// Gains near the paper's 0.80 operating point beat the low-overlap
	// tail, and over-aggressive overlap (≥0.90, which squeezes the pilot
	// protection) collapses.
	var at80, at50, at95 float64
	for _, r := range rows {
		switch r[0] {
		case 0.8:
			at80 = r[1]
		case 0.5:
			at50 = r[1]
		case 0.95:
			at95 = r[1]
		}
	}
	if at80 <= at50 {
		t.Errorf("gain at 80%% overlap (%.3f) not above 50%% overlap (%.3f)", at80, at50)
	}
	if at95 > at80/2 {
		t.Errorf("over-aggressive overlap should collapse: %.3f at 95%%", at95)
	}
}

// TestAblationOverlapZeroBaseline pins the sweep at an SNR where routing
// delivers nothing: every gain reads as a finite number (stats.GainRatio
// makes a zero baseline a zero gain), never NaN.
func TestAblationOverlapZeroBaseline(t *testing.T) {
	out := AblationOverlap(Options{Runs: 2, Sim: sim.Config{Packets: 3, SNRdB: sim.Ptr(3)}, Seed: 1})
	lines := dataLines(out)
	if len(lines) != 7 {
		t.Fatalf("want 7 overlap rows:\n%s", out)
	}
	for _, l := range lines {
		var o, g, b float64
		parseRow(t, l, &o, &g, &b)
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Errorf("overlap %.2f: gain %v, want a finite number:\n%s", o, g, out)
		}
	}
}

// dataLines returns non-header lines of an ablation table.
func dataLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if l == "" || strings.HasPrefix(l, "==") || strings.HasPrefix(l, "#") {
			continue
		}
		lines = append(lines, l)
	}
	return lines
}

// parseRow scans the trailing float fields of a table row.
func parseRow(t *testing.T, line string, dst ...*float64) {
	t.Helper()
	fields := strings.Fields(line)
	if len(fields) < len(dst) {
		t.Fatalf("row %q has %d fields, want ≥ %d", line, len(fields), len(dst))
	}
	// Numeric fields are the last len(dst) ones.
	start := len(fields) - len(dst)
	for i, d := range dst {
		if _, err := fmt.Sscan(fields[start+i], d); err != nil {
			t.Fatalf("row %q field %q: %v", line, fields[start+i], err)
		}
	}
}

func extractFloat(t *testing.T, out, label string) float64 {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, label) {
			fields := strings.Fields(strings.TrimPrefix(l, label))
			var v float64
			if _, err := fmt.Sscan(fields[0], &v); err != nil {
				t.Fatalf("line %q: %v", l, err)
			}
			return v
		}
	}
	t.Fatalf("label %q not found in:\n%s", label, out)
	return 0
}
