package sim

import (
	"testing"

	"repro/internal/mac"
)

// testCfg keeps unit-test runs quick; the benchmark harness uses the
// full defaults.
func testCfg() Config {
	return Config{Packets: 8}
}

// runOne runs one seeded run of a registered scenario under one scheme.
func runOne(t testing.TB, name string, scheme Scheme, cfg Config, seed int64) Metrics {
	t.Helper()
	m, err := NewEngine(cfg).Run(MustScenario(name), scheme, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// gainOver runs ANC and a baseline on the same seed (same channel
// realization — the paper's "two consecutive runs in the same topology")
// and returns ANC's throughput gain.
func gainOver(t *testing.T, name string, base Scheme, seed int64) float64 {
	t.Helper()
	a := runOne(t, name, SchemeANC, testCfg(), seed)
	b := runOne(t, name, base, testCfg(), seed)
	if a.TimeSamples == 0 || b.TimeSamples == 0 {
		t.Fatal("degenerate run")
	}
	return a.Throughput() / b.Throughput()
}

func TestAliceBobOrdering(t *testing.T) {
	// §11.3: ANC > COPE > traditional for two-way relay traffic.
	cfg := testCfg()
	anc := runOne(t, "alice-bob", SchemeANC, cfg, 42)
	cope := runOne(t, "alice-bob", SchemeCOPE, cfg, 42)
	trad := runOne(t, "alice-bob", SchemeRouting, cfg, 42)
	if !(anc.Throughput() > cope.Throughput() && cope.Throughput() > trad.Throughput()) {
		t.Errorf("ordering violated: anc=%v cope=%v trad=%v",
			anc.Throughput(), cope.Throughput(), trad.Throughput())
	}
}

func TestAliceBobGainRange(t *testing.T) {
	// The paper reports ≈1.70× over routing and ≈1.30× over COPE; our
	// time model lands in the same region (see EXPERIMENTS.md). Assert a
	// band wide enough for run-to-run noise but tight enough to catch
	// accounting regressions.
	var gTrad, gCope float64
	const runs = 3
	for s := int64(0); s < runs; s++ {
		gTrad += gainOver(t, "alice-bob", SchemeRouting, 100+s)
		gCope += gainOver(t, "alice-bob", SchemeCOPE, 100+s)
	}
	gTrad /= runs
	gCope /= runs
	if gTrad < 1.4 || gTrad > 1.9 {
		t.Errorf("gain over traditional = %.3f, want ≈ 1.6 (paper: 1.70)", gTrad)
	}
	if gCope < 1.05 || gCope > 1.45 {
		t.Errorf("gain over COPE = %.3f, want ≈ 1.2 (paper: 1.30)", gCope)
	}
}

func TestAliceBobOverlapCalibration(t *testing.T) {
	// §11.4: mean packet overlap ≈ 80%.
	m := runOne(t, "alice-bob", SchemeANC, Config{Packets: 40}, 7)
	if ovl := m.MeanOverlap(); ovl < 0.72 || ovl > 0.88 {
		t.Errorf("mean overlap = %.3f, want ≈ 0.80", ovl)
	}
}

func TestAliceBobBER(t *testing.T) {
	// §11.3/§11.4: ANC decodes with average BER in the low percent range
	// (paper: 2–4% on USRPs; our cleaner channel sits at or below that).
	m := runOne(t, "alice-bob", SchemeANC, Config{Packets: 12}, 8)
	if len(m.BERs) == 0 {
		t.Fatal("no BER samples")
	}
	if ber := m.MeanBER(); ber > 0.04 {
		t.Errorf("mean BER = %.4f, want ≤ 0.04", ber)
	}
}

func TestChainGain(t *testing.T) {
	// §11.6: ≈36% gain for unidirectional chain traffic, close to the
	// theoretical 1.5 because only the collision slot pays the random
	// delay.
	var g float64
	const runs = 3
	for s := int64(0); s < runs; s++ {
		g += gainOver(t, "chain", SchemeRouting, 200+s)
	}
	g /= runs
	if g < 1.15 || g > 1.5 {
		t.Errorf("chain gain = %.3f, want ≈ 1.35 (paper: 1.36)", g)
	}
}

func TestChainBERLowerThanAliceBob(t *testing.T) {
	// §11.6: the chain decodes at the node that first receives the
	// interfered signal — no re-amplified noise — so its BER undercuts
	// the Alice–Bob topology's.
	var chain, ab float64
	const runs = 3
	for s := int64(0); s < runs; s++ {
		chain += runOne(t, "chain", SchemeANC, Config{Packets: 10}, 300+s).MeanBER()
		ab += runOne(t, "alice-bob", SchemeANC, Config{Packets: 10}, 300+s).MeanBER()
	}
	if chain >= ab {
		t.Errorf("chain BER %.4f not below Alice–Bob BER %.4f", chain/runs, ab/runs)
	}
}

func TestXOrderingAndGain(t *testing.T) {
	cfg := testCfg()
	anc := runOne(t, "x", SchemeANC, cfg, 9)
	cope := runOne(t, "x", SchemeCOPE, cfg, 9)
	trad := runOne(t, "x", SchemeRouting, cfg, 9)
	if !(anc.Throughput() > cope.Throughput() && cope.Throughput() > trad.Throughput()) {
		t.Errorf("X ordering violated: anc=%v cope=%v trad=%v",
			anc.Throughput(), cope.Throughput(), trad.Throughput())
	}
	g := anc.Throughput() / trad.Throughput()
	if g < 1.3 || g > 1.9 {
		t.Errorf("X gain over traditional = %.3f, want ≈ 1.6 (paper: 1.65)", g)
	}
}

func TestSIRSweepShape(t *testing.T) {
	// Fig. 13: BER ≤ 5% at −3 dB SIR and → 0 at +3..4 dB.
	pts := SIRSweep(Config{Packets: 10}, 11, -3, 4, 1)
	if len(pts) != 8 {
		t.Fatalf("%d points, want 8", len(pts))
	}
	if pts[0].MeanBER > 0.05 {
		t.Errorf("BER at −3 dB = %.4f, want ≤ 0.05", pts[0].MeanBER)
	}
	last := pts[len(pts)-1]
	if last.MeanBER > 0.01 {
		t.Errorf("BER at +4 dB = %.4f, want ≈ 0", last.MeanBER)
	}
	// Coarse monotonicity: the mean over the low-SIR half is at least
	// the mean over the high-SIR half.
	var lo, hi float64
	for _, p := range pts[:4] {
		lo += p.MeanBER
	}
	for _, p := range pts[4:] {
		hi += p.MeanBER
	}
	if hi > lo+1e-9 {
		t.Errorf("BER grows with SIR: low half %.5f, high half %.5f", lo/4, hi/4)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runOne(t, "alice-bob", SchemeANC, testCfg(), 77)
	b := runOne(t, "alice-bob", SchemeANC, testCfg(), 77)
	if a.Throughput() != b.Throughput() || a.MeanBER() != b.MeanBER() {
		t.Error("same seed produced different metrics")
	}
	c := runOne(t, "alice-bob", SchemeANC, testCfg(), 78)
	if a.Throughput() == c.Throughput() {
		t.Error("different seeds produced identical metrics")
	}
}

func TestDefaultsDerived(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.PayloadBytes != 128 || cfg.SamplesPerSymbol != 4 || *cfg.SNRdB != 25 || *cfg.GuardFrac != 0.08 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if err := cfg.Delay.Validate(); err != nil {
		t.Errorf("derived delay config invalid: %v", err)
	}
	// The derived delay keeps the pilot+header clean (minimum
	// separation covers them plus detector jitter).
	if cfg.Delay.MinSeparation < (64+104)*cfg.SamplesPerSymbol {
		t.Errorf("MinSeparation %d too small", cfg.Delay.MinSeparation)
	}
}

func TestMetricsHelpers(t *testing.T) {
	var m Metrics
	if m.Throughput() != 0 || m.MeanBER() != 0 || m.MeanOverlap() != 0 {
		t.Error("zero Metrics helpers not zero")
	}
	m = Metrics{DeliveredBits: 100, TimeSamples: 50, BERs: []float64{0.02, 0.04}, Overlaps: []float64{0.8, 0.9}}
	if m.Throughput() != 2 {
		t.Errorf("Throughput = %v", m.Throughput())
	}
	if m.MeanBER() != 0.03 {
		t.Errorf("MeanBER = %v", m.MeanBER())
	}
	if d := m.MeanOverlap() - 0.85; d > 1e-12 || d < -1e-12 {
		t.Errorf("MeanOverlap = %v", m.MeanOverlap())
	}
}

func TestTimeAccounting(t *testing.T) {
	// Traditional: exactly 4 transmissions of (frame+guard) per exchange.
	cfg := Config{Packets: 3}
	m := runOne(t, "alice-bob", SchemeRouting, cfg, 5)
	e := newEnvForTest(cfg, 5)
	want := float64(3 * mac.SlotsTraditionalAliceBob * (e.frameLen + e.guard))
	if m.TimeSamples != want {
		t.Errorf("traditional time = %v, want %v", m.TimeSamples, want)
	}
	// COPE: 3 slots per exchange.
	m = runOne(t, "alice-bob", SchemeCOPE, cfg, 5)
	want = float64(3 * mac.SlotsCOPEAliceBob * (e.frameLen + e.guard))
	if m.TimeSamples != want {
		t.Errorf("COPE time = %v, want %v", m.TimeSamples, want)
	}
}
