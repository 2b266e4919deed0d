package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/phy"
)

// TestCrossModemMatrix is the table-driven sweep over every registered
// scenario × scheme × modem cell. Every cell must be deterministic
// (same seed ⇒ identical Metrics), must agree between the campaign
// worker pool and sequential runs, and must account air time and
// packets. The paper's ANC ≥ routing ordering is asserted for every
// modem unconditionally: symbol-wise frame mirroring gives each of them
// the full §7.4 decode set.
func TestCrossModemMatrix(t *testing.T) {
	// One seed keeps the sweep affordable under -race; the multi-seed
	// reorder path of the campaign surface has its own dedicated tests
	// (stream_test.go), so a second seed here would only re-cover them.
	seeds := []int64{7}
	for _, modemName := range phy.Names() {
		modemName := modemName
		t.Run(modemName, func(t *testing.T) {
			for _, sc := range Scenarios() {
				sc := sc
				t.Run(sc.Name(), func(t *testing.T) {
					t.Parallel()
					eng := NewEngine(Config{Packets: 3, Modem: modemName})
					schemes := sc.Schemes()
					rows, err := eng.Campaign(sc, schemes, seeds)
					if err != nil {
						t.Fatalf("campaign: %v", err)
					}
					for j, scheme := range schemes {
						for i, seed := range seeds {
							m1, err := eng.Run(sc, scheme, seed)
							if err != nil {
								t.Fatalf("%s seed %d: %v", scheme, seed, err)
							}
							if !reflect.DeepEqual(rows[i][j], m1) {
								t.Errorf("%s seed %d: campaign %+v != sequential %+v", scheme, seed, rows[i][j], m1)
							}
							m2, err := eng.Run(sc, scheme, seed)
							if err != nil {
								t.Fatalf("%s seed %d rerun: %v", scheme, seed, err)
							}
							if !reflect.DeepEqual(m1, m2) {
								t.Errorf("%s seed %d: same seed produced different metrics", scheme, seed)
							}
							if m1.TimeSamples <= 0 || m1.Delivered+m1.Lost == 0 {
								t.Errorf("%s seed %d: degenerate run %+v", scheme, seed, m1)
							}
						}
					}
					if !HasScheme(sc, SchemeANC) || !HasScheme(sc, SchemeRouting) {
						return
					}
					if modemName == EffectiveModemName(sc, Config{}) {
						// This is the scenario's default cell;
						// TestScenariosANCBeatsRouting already asserts the
						// ordering there — no need to run it twice.
						return
					}
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
		})
	}
}

// TestScenarioModemPreferenceMatchesExplicit pins the modem resolution
// order: a scenario's ModemChooser preference must produce runs
// bit-identical to the same schedules under an explicit Config.Modem
// (including the re-derived delay distribution), and an explicit name
// must override the preference.
func TestScenarioModemPreferenceMatchesExplicit(t *testing.T) {
	preferred, err := NewEngine(Config{Packets: 3}).Run(DQPSK(), SchemeANC, 11)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := NewEngine(Config{Packets: 3, Modem: "dqpsk"}).Run(AliceBob(), SchemeANC, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(preferred, explicit) {
		t.Errorf("dqpsk scenario %+v != alice-bob under explicit dqpsk modem %+v", preferred, explicit)
	}

	overridden, err := NewEngine(Config{Packets: 3, Modem: "msk"}).Run(DQPSK(), SchemeANC, 11)
	if err != nil {
		t.Fatal(err)
	}
	mskRun, err := NewEngine(Config{Packets: 3}).Run(AliceBob(), SchemeANC, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(overridden, mskRun) {
		t.Errorf("explicit msk did not override the scenario preference: %+v != %+v", overridden, mskRun)
	}
}

// TestDirectSurfacesRejectUnknownModem pins the failure mode of the
// surfaces that return no error (SIRSweep, FrameSamples): a typo'd
// Config.Modem must fail loudly, never silently run the default PHY.
func TestDirectSurfacesRejectUnknownModem(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s with unknown modem did not panic", name)
			}
		}()
		f()
	}
	mustPanic("SIRSweep", func() { SIRSweep(Config{Packets: 1, Modem: "warp"}, 1, 0, 0, 1) })
	mustPanic("FrameSamples", func() { Config{Modem: "warp"}.FrameSamples() })
}

// TestUnknownModemFails pins the failure mode of a bad Config.Modem on
// both run surfaces: an error (not a panic), enumerating the registry.
func TestUnknownModemFails(t *testing.T) {
	eng := NewEngine(Config{Packets: 1, Modem: "warp"})
	if _, err := eng.Run(AliceBob(), SchemeANC, 1); err == nil {
		t.Error("Run with unknown modem succeeded")
	} else if !strings.Contains(err.Error(), "msk") || !strings.Contains(err.Error(), "dqpsk") {
		t.Errorf("error does not enumerate registered modems: %v", err)
	}
	err := eng.CampaignStream(AliceBob(), []Scheme{SchemeANC}, []int64{1}, SinkFunc(func(Row) error { return nil }))
	if err == nil {
		t.Error("CampaignStream with unknown modem succeeded")
	}
}
