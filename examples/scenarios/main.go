// Scenario engine: the evaluation as a pluggable workload library. The
// other examples hand-schedule one topology each; here the engine owns
// the shared machinery (seeding, channel realizations, node lifecycle,
// reception buffers, the campaign worker pool) and a Scenario contributes
// only its topology and per-slot schedules. The same seed always yields
// the same channel realization for every compared scheme, which is what
// makes the gain ratios trustworthy.
//
// The second half registers a scenario of its own — an asymmetric
// Alice–Bob where Bob sits behind a much weaker uplink — to show the
// engine runs workloads the paper never measured. (A milder cousin of
// this sketch ships registered as "near-far"; this one keeps a steeper
// 3 dB handicap on the uplink only, and stays an example of out-of-tree
// registration.) The custom Build also attaches a Mobility model to
// Bob's uplink, so the handicapped edge drifts over the run — the
// time-varying channel subsystem working on a hand-built edge.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/anc"
)

func main() {
	// Part 1: every registered scenario, ANC versus traditional routing
	// on identical channel realizations.
	eng := anc.NewEngine(anc.SimConfig{Packets: 4})
	fmt.Println("registered scenarios (seed 7, 4 packets/run):")
	for _, sc := range anc.Scenarios() {
		a, err := eng.Run(sc, anc.SchemeANC, 7)
		if err != nil {
			log.Fatal(err)
		}
		r, err := eng.Run(sc, anc.SchemeRouting, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-11s ANC/routing throughput gain: %.2fx  (mean ANC BER %.4f)\n",
			sc.Name(), a.Throughput()/r.Throughput(), a.MeanBER())
	}

	// Part 2: plug in a workload of our own.
	anc.RegisterScenario(asymmetric{})
	sc, _ := anc.LookupScenario("asymmetric")
	m, err := eng.Run(sc, anc.SchemeANC, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncustom %q scenario: delivered %d, lost %d, mean BER %.4f\n",
		sc.Name(), m.Delivered, m.Lost, m.MeanBER())
	fmt.Println("(Bob's weak uplink raises the BER above the symmetric Fig. 9 numbers —")
	fmt.Println(" the amplitude gap is what the Lemma 6.1 phase solver feeds on.)")
}

// asymmetric is an Alice–Bob relay where Bob's uplink carries half
// of Alice's power — the near/far situation of a client at the cell edge.
type asymmetric struct{}

func (asymmetric) Name() string        { return "asymmetric" }
func (asymmetric) Description() string { return "Alice–Bob with Bob behind a 3 dB weaker uplink" }
func (asymmetric) Schemes() []anc.Scheme {
	return []anc.Scheme{anc.SchemeANC}
}

// Build lays out alice(0) — router(1) — bob(2) with the asymmetric
// gains, then replaces Bob's uplink with a mobility trace: Bob walks
// toward and away from the router, swinging the weak edge ±3 dB while
// its carrier phase drifts.
func (asymmetric) Build(cfg anc.TopologyConfig, rng *rand.Rand) *anc.Topology {
	g := anc.NewTopology(3, []string{"alice", "router", "bob"}, cfg, rng)
	g.ConnectBoth(0, 1, cfg.MeanPowerGain, cfg.GainJitterDB, rng)
	g.ConnectBoth(2, 1, cfg.MeanPowerGain/2, cfg.GainJitterDB, rng)
	base := anc.RandomLink(rng, cfg.MeanPowerGain/2, cfg.GainJitterDB)
	g.ConnectModel(2, 1, anc.Mobility{
		Base:        base,
		PeriodSlots: 8,
		SwingDB:     6,
		DopplerRad:  0.02,
	})
	return g
}

// Start returns the Fig. 1(d) schedule written against the engine's
// public vocabulary.
func (asymmetric) Start(e *anc.Env, scheme anc.Scheme) (anc.Stepper, error) {
	if scheme != anc.SchemeANC {
		return nil, fmt.Errorf("asymmetric: unsupported scheme %q", scheme)
	}
	alice, bob := e.Node(0), e.Node(2)
	return anc.StepFunc(func(i int, r anc.Recorder) {
		recA := alice.BuildFrame(anc.NewPacket(alice.ID, bob.ID, alice.NextSeq(), e.Payload()))
		recB := bob.BuildFrame(anc.NewPacket(bob.ID, alice.ID, bob.NextSeq(), e.Payload()))

		// Slot 1: both transmit; Bob starts after the §7.2 delay.
		delta := e.DrawDelay()
		upA, _ := e.Graph().Link(0, 1)
		upB, _ := e.Graph().Link(2, 1)
		routerRx := e.Receive(
			anc.Transmission{Signal: recA.Samples, Link: upA},
			anc.Transmission{Signal: recB.Samples, Link: upB, Delay: delta},
		)

		// Slot 2: amplify-and-forward; each endpoint cancels its own.
		relayed := anc.AmplifyForward(routerRx, 1)
		e.Release(routerRx)
		downA, _ := e.Graph().Link(1, 0)
		downB, _ := e.Graph().Link(1, 2)
		rxA := e.Receive(anc.Transmission{Signal: relayed, Link: downA})
		rxB := e.Receive(anc.Transmission{Signal: relayed, Link: downB})
		e.AccountANCDecode(r, alice, rxA, recB)
		e.AccountANCDecode(r, bob, rxB, recA)
		e.Release(rxA)
		e.Release(rxB)

		e.RecordOverlap(r, delta)
		e.ChargeCollisionSlots(r, 2, delta)
	}), nil
}
