// Package experiments regenerates every table and figure of the paper's
// evaluation (§11) plus the capacity analysis figure (§8). Each Fig*
// function runs the corresponding simulation campaign — many independent
// runs, each pairing ANC against its baselines on identical channel
// realizations — and renders the same series the paper plots.
//
// The experiment index lives in DESIGN.md; measured-versus-paper numbers
// are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/capacity"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options configures an experiment campaign.
type Options struct {
	// Runs is the number of independent runs (the paper repeats each
	// experiment 40 times).
	Runs int
	// Sim parameterizes each run (including Sim.Modem, the PHY axis).
	Sim sim.Config
	// Seed derives all per-run seeds.
	Seed int64
	// Schemes, when non-empty, restricts the campaign to a subset of the
	// scenario's schemes (ancsim -scheme). Every named scheme must be
	// supported by the scenario. Empty keeps the default gain framing:
	// ANC and routing required, COPE when the scenario supports it.
	Schemes []sim.Scheme
	// Workers is the campaign worker-goroutine count (ancsim -workers);
	// ≤ 0 means GOMAXPROCS. Results are bit-identical at any count.
	Workers int
}

// DefaultOptions mirrors the paper's campaign sizes scaled to simulation:
// 40 runs; per-run packet counts come from sim.DefaultConfig.
func DefaultOptions() Options {
	return Options{Runs: 40, Sim: sim.DefaultConfig(), Seed: 1}
}

func (o Options) withDefaults() Options {
	if o.Runs == 0 {
		o.Runs = 40
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// GainResult holds one scenario's throughput-gain campaign: per-run gains
// of ANC over each baseline plus the per-packet BER pool. Under a scheme
// filter (Options.Schemes) a pairing or pool is nil when the schemes it
// needs were filtered out; Throughput is always populated, one
// distribution per ran scheme.
type GainResult struct {
	Topology string
	// Modem is the effective PHY the campaign ran under.
	Modem string
	// Schemes lists the schemes the campaign ran, in row order.
	Schemes []sim.Scheme
	// Throughput holds one per-run throughput distribution per scheme,
	// parallel to Schemes.
	Throughput   []*stats.Sample
	GainOverTrad *stats.Sample // nil when ANC or routing was filtered out
	GainOverCOPE *stats.Sample // nil when COPE does not apply (chain) or was filtered out
	BER          *stats.Sample // nil when ANC was filtered out
	Overlap      *stats.Sample // nil when ANC was filtered out
}

// campaignPlan is a resolved scheme set: the schemes to run plus the
// row indices the gain pairings and pools read from (-1 = not running).
type campaignPlan struct {
	schemes []sim.Scheme
	anc     int
	routing int
	cope    int
}

func (p campaignPlan) index(s sim.Scheme) int {
	for i, have := range p.schemes {
		if have == s {
			return i
		}
	}
	return -1
}

// planSchemes resolves the scheme set of a campaign. With no filter, ANC
// and routing are required (the gain-over-routing framing) and COPE
// rides along when the scenario supports it. A filter restricts the
// campaign to exactly the named schemes; naming one the scenario does
// not support fails with the supported set enumerated, so the fix is in
// the error message.
func planSchemes(sc sim.Scenario, filter []sim.Scheme) (campaignPlan, error) {
	var schemes []sim.Scheme
	if len(filter) == 0 {
		schemes = []sim.Scheme{sim.SchemeANC, sim.SchemeRouting}
		for _, s := range schemes {
			if !sim.HasScheme(sc, s) {
				return campaignPlan{}, fmt.Errorf("experiments: scenario %q does not support scheme %q, required for gain campaigns", sc.Name(), s)
			}
		}
		if sim.HasScheme(sc, sim.SchemeCOPE) {
			schemes = append(schemes, sim.SchemeCOPE)
		}
	} else {
		seen := make(map[sim.Scheme]bool, len(filter))
		for _, s := range filter {
			if seen[s] {
				continue
			}
			seen[s] = true
			if !sim.HasScheme(sc, s) {
				supported := make([]string, 0, 3)
				for _, have := range sc.Schemes() {
					supported = append(supported, string(have))
				}
				return campaignPlan{}, fmt.Errorf("experiments: scenario %q does not support scheme %q (supported: %s)",
					sc.Name(), s, strings.Join(supported, ", "))
			}
			schemes = append(schemes, s)
		}
	}
	p := campaignPlan{schemes: schemes}
	p.anc = p.index(sim.SchemeANC)
	p.routing = p.index(sim.SchemeRouting)
	p.cope = p.index(sim.SchemeCOPE)
	return p, nil
}

// CampaignSchemes resolves the scheme rows a campaign of the named
// scenario runs under the given filter — the exact planSchemes rules
// every campaign writer applies (empty filter: ANC and routing
// required, COPE when supported; a filter restricts to exactly the
// named schemes). Exported so request canonicalization (the ancserve
// content-addressed cache key) hashes the schemes the campaign will
// actually run, not the unresolved request field.
func CampaignSchemes(name string, filter []sim.Scheme) ([]sim.Scheme, error) {
	sc, ok := sim.LookupScenario(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scenario %q", name)
	}
	plan, err := planSchemes(sc, filter)
	if err != nil {
		return nil, err
	}
	return append([]sim.Scheme(nil), plan.schemes...), nil
}

// campaignSeeds derives the per-run seeds of a campaign.
func campaignSeeds(opts Options) []int64 {
	seeds := make([]int64, opts.Runs)
	for run := range seeds {
		seeds[run] = opts.Seed + int64(run)*7919
	}
	return seeds
}

// ScenarioCampaign runs the ANC-versus-baselines campaign for any
// registered scenario (ancsim -scenario=<name>): runs paired on
// identical seeds (identical channel realizations) through the campaign
// row loop every output format shares, with each rendered row feeding
// the exact gain/BER/overlap pools as it arrives, so the campaign holds
// O(workers) rows however many runs it spans.
func ScenarioCampaign(opts Options, name string) (*GainResult, error) {
	c, err := newCampaignContext(StreamOptions{Options: opts}, name)
	if err != nil {
		return nil, err
	}
	plan := c.plan
	res := &GainResult{
		Topology:   c.header.Scenario,
		Modem:      c.header.Modem,
		Schemes:    plan.schemes,
		Throughput: make([]*stats.Sample, len(plan.schemes)),
	}
	for i := range res.Throughput {
		res.Throughput[i] = stats.NewSample(nil)
	}
	if plan.anc >= 0 {
		res.BER = stats.NewSample(nil)
		res.Overlap = stats.NewSample(nil)
		if plan.routing >= 0 {
			res.GainOverTrad = stats.NewSample(nil)
		}
		if plan.cope >= 0 {
			res.GainOverCOPE = stats.NewSample(nil)
		}
	}
	_, err = c.run(nil, sim.SeedRange{Hi: len(c.seeds)}, func(_ sim.Row, r CampaignRow) error {
		for j, sr := range r.Schemes {
			res.Throughput[j].Add(sr.Throughput)
		}
		if r.GainOverRouting != nil {
			res.GainOverTrad.Add(*r.GainOverRouting)
		}
		if r.GainOverCOPE != nil {
			res.GainOverCOPE.Add(*r.GainOverCOPE)
		}
		if plan.anc >= 0 {
			for _, b := range r.Schemes[plan.anc].BERs {
				res.BER.Add(b)
			}
			for _, ov := range r.Schemes[plan.anc].Overlaps {
				res.Overlap.Add(ov)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// mustCampaign backs the fixed Fig* campaigns, whose paper scenarios
// statically support ANC and routing.
func mustCampaign(opts Options, sc sim.Scenario) *GainResult {
	res, err := ScenarioCampaign(opts, sc.Name())
	if err != nil {
		panic(err)
	}
	return res
}

// Fig9 reproduces the Alice–Bob campaign: Fig. 9(a) (CDF of throughput
// gain over traditional routing and over COPE) and Fig. 9(b) (CDF of BER).
func Fig9(opts Options) *GainResult {
	return mustCampaign(opts, sim.AliceBob())
}

// Fig10 reproduces the "X" topology campaign (Fig. 10a, 10b).
func Fig10(opts Options) *GainResult {
	return mustCampaign(opts, sim.XTopo())
}

// Fig12 reproduces the chain campaign (Fig. 12a, 12b). COPE does not
// apply to unidirectional flows.
func Fig12(opts Options) *GainResult {
	return mustCampaign(opts, sim.Chain())
}

// FormatGain renders the Fig. 9a/10a/12a CDF series. When the scheme
// filter removed the routing baseline it falls back to a per-scheme
// throughput summary, still rendering whichever gain pairings were
// computed (ANC vs COPE survives an anc,cope filter).
func (g *GainResult) FormatGain(maxRows int) string {
	var b strings.Builder
	if g.GainOverTrad == nil {
		fmt.Fprintf(&b, "== %s: per-scheme throughput (no routing baseline in scheme set) ==\n", g.Topology)
		for i, s := range g.Schemes {
			fmt.Fprintf(&b, "%-8s mean throughput %.6f  n=%d\n", s, g.Throughput[i].Mean(), g.Throughput[i].Len())
		}
		if g.GainOverCOPE != nil {
			b.WriteString(g.GainOverCOPE.FormatCDF("gain over COPE", maxRows))
		}
		return b.String()
	}
	fmt.Fprintf(&b, "== %s: CDF of throughput gain ==\n", g.Topology)
	b.WriteString(g.GainOverTrad.FormatCDF("gain over traditional", maxRows))
	if g.GainOverCOPE != nil {
		b.WriteString(g.GainOverCOPE.FormatCDF("gain over COPE", maxRows))
	}
	return b.String()
}

// FormatBER renders the Fig. 9b/10b/12b CDF series. Empty when the
// scheme filter removed ANC — the BER pool is an ANC observation.
func (g *GainResult) FormatBER(maxRows int) string {
	if g.BER == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: CDF of bit error rate ==\n", g.Topology)
	b.WriteString(g.BER.FormatCDF("ANC packet BER", maxRows))
	return b.String()
}

// Fig7 renders the capacity bounds of Fig. 7 over an SNR sweep.
func Fig7(fromDB, toDB, stepDB float64) string {
	var b strings.Builder
	b.WriteString("== Fig 7: capacity bounds, half-duplex 2-way relay ==\n")
	fmt.Fprintf(&b, "# %-8s %-14s %-14s %s\n", "SNR(dB)", "routing-upper", "ANC-lower", "ratio")
	for _, p := range capacity.Sweep(fromDB, toDB, stepDB) {
		fmt.Fprintf(&b, "%-10.1f %-14.4f %-14.4f %.4f\n", p.SNRdB, p.Traditional, p.ANC, p.Gain)
	}
	if x := capacity.CrossoverDB(0, toDB); x == x { // not NaN
		fmt.Fprintf(&b, "# crossover (ANC overtakes routing): %.2f dB (paper: ~8 dB)\n", x)
	}
	return b.String()
}

// Fig13 runs the SIR sweep of Fig. 13 and renders its series.
func Fig13(opts Options, fromDB, toDB, stepDB float64) string {
	opts = opts.withDefaults()
	pts := sim.SIRSweep(opts.Sim, opts.Seed, fromDB, toDB, stepDB)
	var b strings.Builder
	b.WriteString("== Fig 13: BER vs signal-to-interference ratio at Alice ==\n")
	fmt.Fprintf(&b, "# %-10s %-10s %-9s %s\n", "SIR(dB)", "mean BER", "decoded", "lost")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-12.1f %-10.5f %-9d %d\n", p.SIRdB, p.MeanBER, p.Decoded, p.Lost)
	}
	return b.String()
}

// Summary reproduces the §11.3 headline table across all topologies.
func Summary(opts Options) string {
	ab := Fig9(opts)
	x := Fig10(opts)
	chain := Fig12(opts)
	var b strings.Builder
	b.WriteString("== Summary (paper §11.3) ==\n")
	fmt.Fprintf(&b, "# %-10s %-16s %-13s %-11s %s\n", "topology", "gain vs routing", "gain vs COPE", "mean BER", "mean overlap")
	row := func(g *GainResult) {
		copeStr := "n/a"
		if g.GainOverCOPE != nil {
			copeStr = fmt.Sprintf("%.3f", g.GainOverCOPE.Mean())
		}
		fmt.Fprintf(&b, "%-12s %-16.3f %-13s %-11.4f %.3f\n",
			g.Topology, g.GainOverTrad.Mean(), copeStr, g.BER.Mean(), g.Overlap.Mean())
	}
	row(ab)
	row(x)
	row(chain)
	b.WriteString("# paper:    alice-bob 1.70 / 1.30, x 1.65 / 1.28, chain 1.36 / n-a; BER 2-4%; overlap 0.80\n")
	return b.String()
}
