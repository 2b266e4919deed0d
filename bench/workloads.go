package bench

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Workload is one set of inputs the benchmark runs. The campaign fields
// describe the campaign every row runs; serve-mixed uses them for the
// campaign each request asks for, and Requests/Rate for its traffic.
type Workload struct {
	Name string
	Why  string

	Scenario string
	Modem    string
	Fading   channel.FadingKind
	Schemes  []sim.Scheme
	Packets  int
	Trace    bool
	// Runs is the full-size campaign row count (serve-mixed: the rows of
	// one request).
	Runs int
	// PerSecond sizes the workload under a time budget: rows (or
	// requests) per second of budget. Campaign rates are calibrated so
	// one engine worker on the 2-core reference machine fills about 85%
	// of the budget; serve-mixed's is its fixed open-loop request rate.
	PerSecond float64

	// Requests is serve-mixed's full-size request count; zero for the
	// campaign workloads.
	Requests int
}

// Serve reports whether the workload drives the HTTP service.
func (w Workload) Serve() bool { return w.Requests > 0 }

// Workloads is the benchmark's workload set, in run order.
var Workloads = []Workload{
	{
		Name:     "alicebob-msk",
		Why:      "the paper's headline campaign; interference decoding (Lemma 6.1, alignment, the clean-head Viterbi) dominates",
		Scenario: "alice-bob", Modem: "msk", Packets: 10, Runs: 100, PerSecond: 7,
	},
	{
		Name:     "routing-msk",
		Why:      "routing only, the bypass case: no interference decode, so synthesis, modulation and the clean-head Viterbi dominate",
		Scenario: "alice-bob", Modem: "msk", Schemes: []sim.Scheme{sim.SchemeRouting}, Packets: 10, Runs: 400, PerSecond: 30,
	},
	{
		Name:     "xcross-dqpsk-trace",
		Why:      "6-node x-cross under dqpsk and Rician fading with link traces: no Viterbi, backward decodes, larger slot bursts",
		Scenario: "x-cross", Modem: "dqpsk", Fading: channel.FadingRician, Trace: true, Packets: 10, Runs: 100, PerSecond: 5,
	},
	serveMixed,
}

// serveMixed's requests each ask for a small Alice–Bob campaign. Its
// traffic is assumed, not measured: the rate, the hit share and the
// request shape are set by hand, because no recorded service traffic
// exists to derive them from. The layer suite's service stages use the
// same request shape on every workload.
var serveMixed = Workload{
	Name:     "serve-mixed",
	Why:      "assumed, not measured, traffic: open loop at 5 req/s to the in-process HTTP service; a seeded draw makes half the requests new campaigns (queue, engine), half repeats (cache)",
	Scenario: "alice-bob", Packets: 5, Runs: 4, Requests: 200, PerSecond: 5,
}

// LookupWorkload returns the named workload.
func LookupWorkload(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q (have %v)", name, names)
}

// size returns how many rows (campaigns) or requests (serve-mixed) a
// pass runs: the full size when seconds is zero, else the workload's
// rate times the budget. A traced-only run halves it, because it also
// replays every row under tracing within the same budget.
func (w Workload) size(seconds float64, halve bool) int {
	n := w.Runs
	if w.Serve() {
		n = w.Requests
	}
	if seconds > 0 {
		n = int(math.Ceil(seconds * w.PerSecond))
	}
	if halve {
		n = (n + 1) / 2
	}
	if n < 2 {
		n = 2
	}
	return n
}

// simConfig is the engine configuration of the workload's campaign.
func (w Workload) simConfig() sim.Config {
	cfg := sim.Config{Modem: w.Modem, Packets: w.Packets}
	cfg.Topology.Fading = channel.FadingSpec{Kind: w.Fading}
	return cfg
}

// streamOptions is the workload's campaign of runs rows from seed, on
// one engine worker.
func (w Workload) streamOptions(seed int64, runs int) experiments.StreamOptions {
	return experiments.StreamOptions{
		Options: experiments.Options{Runs: runs, Sim: w.simConfig(), Seed: seed, Schemes: w.Schemes, Workers: 1},
		Trace:   w.Trace,
	}
}

// request is the workload's campaign as a service request.
func (w Workload) request(seed int64) serve.Request {
	r := serve.Request{Scenario: w.Scenario, Modem: w.Modem, Runs: w.Runs, Seed: seed, Packets: w.Packets, Trace: w.Trace}
	if w.Fading != channel.FadingStatic {
		r.Fading = w.Fading.String()
	}
	for _, s := range w.Schemes {
		r.Schemes = append(r.Schemes, string(s))
	}
	return r
}

// seedStride is the distance between consecutive run seeds of a
// campaign, as experiments derives them (seed + i·7919).
const seedStride = 7919

// warmupSeed is the base seed of every campaign workload's untimed
// two-row warm-up, whatever the benchmark seed: the two run indices just
// below seed 0's range, so outside the timed range of every positive
// seed. Its stream is the same on every run and has a pinned digest.
const warmupSeed = -2 * seedStride
