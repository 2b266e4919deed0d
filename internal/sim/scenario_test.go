package sim

import (
	"testing"
)

// engineCfg keeps engine tests quick: a tiny packet budget per run.
func engineCfg() Config {
	return Config{Packets: 3}
}

func TestRegistryHasPaperAndNewScenarios(t *testing.T) {
	for _, name := range []string{"alice-bob", "x", "chain", "pairs", "pairs4", "x-cross", "near-far", "fading", "chain-5", "dqpsk", "closed-loop"} {
		if _, ok := LookupScenario(name); !ok {
			t.Errorf("scenario %q not registered", name)
		}
	}
	if _, ok := LookupScenario("no-such"); ok {
		t.Error("lookup of unknown scenario succeeded")
	}
	names := make(map[string]bool)
	for _, sc := range Scenarios() {
		if names[sc.Name()] {
			t.Errorf("duplicate scenario name %q", sc.Name())
		}
		names[sc.Name()] = true
		if sc.Description() == "" {
			t.Errorf("scenario %q has no description", sc.Name())
		}
	}
}

func TestEngineRejectsUnsupportedScheme(t *testing.T) {
	eng := NewEngine(engineCfg())
	if _, err := eng.Run(Chain(), SchemeCOPE, 1); err == nil {
		t.Error("chain accepted COPE; COPE does not apply to unidirectional flows")
	}
	if _, err := eng.Campaign(Chain(), []Scheme{SchemeANC, SchemeCOPE}, []int64{1, 2}); err == nil {
		t.Error("campaign accepted an unsupported scheme")
	}
}

// TestScenariosTable runs every registered scenario under every scheme it
// supports with a tiny packet budget, asserting determinism (same seed ⇒
// identical throughput and BER) and seed sensitivity.
func TestScenariosTable(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			t.Parallel()
			eng := NewEngine(engineCfg())
			if len(sc.Schemes()) == 0 {
				t.Fatal("scenario supports no schemes")
			}
			for _, scheme := range sc.Schemes() {
				m1, err := eng.Run(sc, scheme, 42)
				if err != nil {
					t.Fatalf("%s: %v", scheme, err)
				}
				if m1.TimeSamples <= 0 {
					t.Errorf("%s: no air time charged", scheme)
				}
				if m1.Delivered+m1.Lost == 0 {
					t.Errorf("%s: no packets accounted", scheme)
				}
				if m1.Throughput() <= 0 {
					t.Errorf("%s: zero throughput", scheme)
				}
				m2, err := eng.Run(sc, scheme, 42)
				if err != nil {
					t.Fatalf("%s rerun: %v", scheme, err)
				}
				if m1.Throughput() != m2.Throughput() || m1.MeanBER() != m2.MeanBER() {
					t.Errorf("%s: same seed produced different metrics (%v/%v vs %v/%v)",
						scheme, m1.Throughput(), m1.MeanBER(), m2.Throughput(), m2.MeanBER())
				}
			}
			// Different seeds must see different channel realizations.
			a, _ := eng.Run(sc, SchemeANC, 42)
			b, _ := eng.Run(sc, SchemeANC, 43)
			if a.Throughput() == b.Throughput() {
				t.Error("different seeds produced identical ANC throughput")
			}
		})
	}
}

// TestScenariosANCBeatsRouting asserts the paper's headline ordering on
// the paper topologies — and that the new scenarios preserve it. Every
// registered modem supports the full §7.4 decode set (symbol-wise frame
// mirroring), so the ordering holds unconditionally, dqpsk cells
// included.
func TestScenariosANCBeatsRouting(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			t.Parallel()
			eng := NewEngine(Config{Packets: 4})
			anc, err := eng.Run(sc, SchemeANC, 9)
			if err != nil {
				t.Fatal(err)
			}
			routing, err := eng.Run(sc, SchemeRouting, 9)
			if err != nil {
				t.Fatal(err)
			}
			if anc.Throughput() <= routing.Throughput() {
				t.Errorf("ANC throughput %v not above routing %v",
					anc.Throughput(), routing.Throughput())
			}
		})
	}
}

// TestCampaignMatchesSequentialRuns pins the worker pool to the
// single-goroutine path: the campaign matrix must equal run-by-run
// results, independent of scheduling and scratch reuse. The sweep
// includes the time-varying scenarios, so per-slot channel evolution is
// covered by the equivalence too.
func TestCampaignMatchesSequentialRuns(t *testing.T) {
	for _, tc := range []struct {
		sc    Scenario
		seeds []int64
	}{
		{AliceBob(), []int64{5, 17, 101, 4242}},
		{MustScenario("near-far"), []int64{5, 17}},
		{MustScenario("fading"), []int64{5, 17}},
		{MustScenario("chain-5"), []int64{5, 17}},
	} {
		sc := tc.sc
		seeds := tc.seeds
		t.Run(sc.Name(), func(t *testing.T) {
			t.Parallel()
			eng := NewEngine(engineCfg())
			schemes := sc.Schemes()
			rows, err := eng.Campaign(sc, schemes, seeds)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(seeds) {
				t.Fatalf("%d rows, want %d", len(rows), len(seeds))
			}
			for i, seed := range seeds {
				for j, scheme := range schemes {
					want, err := eng.Run(sc, scheme, seed)
					if err != nil {
						t.Fatal(err)
					}
					got := rows[i][j]
					if got.Throughput() != want.Throughput() || got.MeanBER() != want.MeanBER() ||
						got.Delivered != want.Delivered || got.Lost != want.Lost {
						t.Errorf("seed %d scheme %s: campaign %+v != sequential %+v", seed, scheme, got, want)
					}
				}
			}
		})
	}
}

// TestScratchReuseDoesNotChangeResults runs two seeds back to back on one
// Scratch and checks each against a fresh-scratch run: reception buffers
// carrying stale samples from a previous run must not leak into results.
func TestScratchReuseDoesNotChangeResults(t *testing.T) {
	cfg := engineCfg()
	eng := NewEngine(cfg)
	scratch := NewScratch()
	for _, seed := range []int64{3, 11, 19} {
		var reused Metrics
		if err := eng.RunRecording(AliceBob(), SchemeANC, seed, &reused, scratch); err != nil {
			t.Fatal(err)
		}
		fresh, err := eng.Run(AliceBob(), SchemeANC, seed)
		if err != nil {
			t.Fatal(err)
		}
		if reused.Throughput() != fresh.Throughput() || reused.MeanBER() != fresh.MeanBER() {
			t.Errorf("seed %d: reused scratch %v/%v != fresh %v/%v",
				seed, reused.Throughput(), reused.MeanBER(), fresh.Throughput(), fresh.MeanBER())
		}
	}
}

// TestParallelPairsAggregates checks the pairs scenario accounts k cells:
// k times the packets, k times the air time of a single pair.
func TestParallelPairsAggregates(t *testing.T) {
	cfg := Config{Packets: 2}
	pair, err := NewEngine(cfg).Run(AliceBob(), SchemeRouting, 3)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := NewEngine(cfg).Run(MustScenario("pairs"), SchemeRouting, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pairs.Delivered != 2*pair.Delivered {
		t.Errorf("2 cells delivered %d, single pair %d", pairs.Delivered, pair.Delivered)
	}
	if pairs.TimeSamples != 2*pair.TimeSamples {
		t.Errorf("2 cells charged %v samples, single pair %v", pairs.TimeSamples, pair.TimeSamples)
	}
}
