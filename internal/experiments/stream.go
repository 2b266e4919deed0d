package experiments

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/channel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stats/sketch"
)

// This file is the machine-readable campaign surface: any registered
// scenario's ANC-versus-baselines campaign streamed as a single JSON
// document or a CSV table, one row per seed, written as rows arrive from
// sim.CampaignStream — the campaign itself holds O(workers) rows however
// many runs it spans. The JSON schema is documented in the README
// ("Results & output formats") and pinned by cmd/ancsim's golden test.

// DefaultOutageThresholdDB is the outage threshold the trace statistics
// use: a slot is in outage when its power gain falls more than this many
// dB below the link's observed mean — equivalently, when the
// instantaneous SNR drops that far below the configured budget.
const DefaultOutageThresholdDB = 10.0

// StreamOptions configures a machine-readable campaign.
type StreamOptions struct {
	Options
	// Trace runs every scheme under a sim.TraceRecorder and attaches
	// per-link outage statistics (JSON only).
	Trace bool
}

// campaignHeader is the metadata block opening the JSON document.
type campaignHeader struct {
	Scenario          string   `json:"scenario"`
	Modem             string   `json:"modem"`
	Schemes           []string `json:"schemes"`
	Runs              int      `json:"runs"`
	PacketsPerRun     int      `json:"packets_per_run"`
	Seed              int64    `json:"seed"`
	SNRdB             float64  `json:"snr_db"`
	Fading            string   `json:"fading"`
	OutageThresholdDB float64  `json:"outage_threshold_db,omitempty"`
}

// SchemeResult is one scheme's metrics of one run.
type SchemeResult struct {
	Scheme         string    `json:"scheme"`
	Throughput     float64   `json:"throughput"`
	DeliveredBits  float64   `json:"delivered_bits"`
	AirTimeSamples float64   `json:"air_time_samples"`
	Delivered      int       `json:"delivered"`
	Lost           int       `json:"lost"`
	BERs           []float64 `json:"bers,omitempty"`
	Overlaps       []float64 `json:"overlaps,omitempty"`
}

// LinkStats is one directed edge's per-slot channel statistics of one
// run, computed from its TraceRecorder gain trace.
type LinkStats struct {
	From           int     `json:"from"`
	To             int     `json:"to"`
	Slots          int     `json:"slots"`
	MeanPowerGain  float64 `json:"mean_power_gain"`
	MinPowerGain   float64 `json:"min_power_gain"`
	OutageProb     float64 `json:"outage_prob"`
	FadeMarginP5DB float64 `json:"fade_margin_p5_db"`
}

// CampaignRow is one seed's campaign outcome rendered for machine
// consumption: the paired-scheme metrics, the throughput gains the
// pairing exists for, and (under Trace) the per-link channel statistics.
// The gain fields are omitted when the scheme filter removed the schemes
// a pairing needs.
type CampaignRow struct {
	Run             int            `json:"run"`
	Seed            int64          `json:"seed"`
	Modem           string         `json:"modem"`
	GainOverRouting *float64       `json:"gain_over_routing,omitempty"`
	GainOverCOPE    *float64       `json:"gain_over_cope,omitempty"`
	Schemes         []SchemeResult `json:"schemes"`
	Links           []LinkStats    `json:"links,omitempty"`
}

// distSummary summarizes one streamed distribution.
type distSummary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	P90    float64 `json:"p90"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(s *sketch.Sketch) distSummary {
	return distSummary{
		N: s.Len(), Mean: s.Mean(), Median: s.Median(),
		P90: s.Quantile(0.9), Min: s.Min(), Max: s.Max(),
	}
}

// campaignSummary closes the JSON document with the campaign-wide
// distributions (the data behind the Fig. 9/10/12-style CDFs). Fields
// are omitted when the scheme filter removed the schemes they need.
type campaignSummary struct {
	GainOverRouting *distSummary `json:"gain_over_routing,omitempty"`
	GainOverCOPE    *distSummary `json:"gain_over_cope,omitempty"`
	BER             *distSummary `json:"ber,omitempty"`
	Overlap         *distSummary `json:"overlap,omitempty"`
}

// campaignPools holds the campaign-wide distribution pools behind the
// summary block. They are mergeable quantile sketches, not observation
// buffers, for two reasons: the pools stay O(sketch) however many runs
// the campaign spans, and sketch merges are bit-exact — a sharded
// campaign's merged pools are byte-identical to the unsharded pools
// (see internal/stats/sketch and MergeSummaries). A pool is nil when
// the scheme filter removed the schemes it needs, mirroring the
// summary's omitted fields.
type campaignPools struct {
	gainRouting *sketch.Sketch
	gainCOPE    *sketch.Sketch
	ber         *sketch.Sketch
	overlap     *sketch.Sketch
}

func newCampaignPools(plan campaignPlan) *campaignPools {
	p := &campaignPools{}
	if plan.anc >= 0 {
		p.ber = sketch.NewDefault()
		p.overlap = sketch.NewDefault()
		if plan.routing >= 0 {
			p.gainRouting = sketch.NewDefault()
		}
		if plan.cope >= 0 {
			p.gainCOPE = sketch.NewDefault()
		}
	}
	return p
}

// observe feeds one rendered row into the pools.
func (p *campaignPools) observe(plan campaignPlan, r CampaignRow) {
	if p.gainRouting != nil && r.GainOverRouting != nil {
		p.gainRouting.Add(*r.GainOverRouting)
	}
	if p.gainCOPE != nil && r.GainOverCOPE != nil {
		p.gainCOPE.Add(*r.GainOverCOPE)
	}
	if plan.anc >= 0 {
		for _, b := range r.Schemes[plan.anc].BERs {
			p.ber.Add(b)
		}
		for _, ov := range r.Schemes[plan.anc].Overlaps {
			p.overlap.Add(ov)
		}
	}
}

// summary renders the pools as the document's closing summary block.
func (p *campaignPools) summary() campaignSummary {
	var out campaignSummary
	set := func(dst **distSummary, s *sketch.Sketch) {
		if s != nil {
			d := summarize(s)
			*dst = &d
		}
	}
	set(&out.GainOverRouting, p.gainRouting)
	set(&out.GainOverCOPE, p.gainCOPE)
	set(&out.BER, p.ber)
	set(&out.Overlap, p.overlap)
	return out
}

// effectiveFadingKind reports the channel model the campaign actually
// runs, not merely the configured one: scenarios may install their own
// models at build time (the fading scenario defaults to Rician when the
// config is static; custom builders attach per-edge models), so the
// header probes a throwaway build and classifies its edges. Mixed edge
// models report "mixed".
func effectiveFadingKind(sc sim.Scenario, cfg sim.Config) string {
	g := sc.Build(cfg.Topology, rand.New(rand.NewSource(1)))
	kinds := make(map[string]bool)
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			m, ok := g.Model(i, j)
			if !ok {
				continue
			}
			switch m := m.(type) {
			case channel.Static:
				kinds["static"] = true
			case channel.BlockFading:
				if m.K == 0 {
					kinds["rayleigh"] = true
				} else {
					kinds["rician"] = true
				}
			case channel.Mobility:
				kinds["mobility"] = true
			default:
				kinds["custom"] = true
			}
		}
	}
	if len(kinds) == 1 {
		for k := range kinds {
			return k
		}
	}
	if len(kinds) > 1 {
		return "mixed"
	}
	return cfg.Topology.Fading.Kind.String()
}

// campaignContext is the resolved machinery one campaign shares between
// its formats: every writer, text included, runs its rows through run.
type campaignContext struct {
	sc      sim.Scenario
	plan    campaignPlan
	seeds   []int64
	eng     *sim.Engine
	header  campaignHeader
	trace   bool
	workers int
}

func newCampaignContext(opts StreamOptions, name string) (*campaignContext, error) {
	opts.Options = opts.Options.withDefaults()
	sc, ok := sim.LookupScenario(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scenario %q", name)
	}
	plan, err := planSchemes(sc, opts.Schemes)
	if err != nil {
		return nil, err
	}
	simCfg := opts.Sim.WithDefaults()
	names := make([]string, len(plan.schemes))
	for i, s := range plan.schemes {
		names[i] = string(s)
	}
	hdr := campaignHeader{
		Scenario:      sc.Name(),
		Modem:         sim.EffectiveModemName(sc, opts.Sim),
		Schemes:       names,
		Runs:          opts.Runs,
		PacketsPerRun: simCfg.Packets,
		Seed:          opts.Seed,
		SNRdB:         *simCfg.SNRdB,
		Fading:        effectiveFadingKind(sc, simCfg),
	}
	if opts.Trace {
		hdr.OutageThresholdDB = DefaultOutageThresholdDB
	}
	return &campaignContext{
		sc:      sc,
		plan:    plan,
		seeds:   campaignSeeds(opts.Options),
		eng:     sim.NewEngine(opts.Sim),
		header:  hdr,
		trace:   opts.Trace,
		workers: opts.Workers,
	}, nil
}

// run streams the campaign's runs in rows, in order. Each row is rendered
// once, numbered by its global run index, and folded into the summary
// pools before emit sees it; an emit error stops the campaign. A nil ctx
// streams without cancellation.
func (c *campaignContext) run(ctx context.Context, rows sim.SeedRange, emit func(sim.Row, CampaignRow) error) (*campaignPools, error) {
	opts := []sim.StreamOption{sim.WithWorkers(c.workers)}
	if ctx != nil {
		opts = append(opts, sim.WithContext(ctx))
	}
	if c.trace {
		opts = append(opts, sim.WithLinkTraces())
	}
	pools := newCampaignPools(c.plan)
	sink := sim.SinkFunc(func(row sim.Row) error {
		r := c.renderRow(rows.Lo+row.Index, row)
		pools.observe(c.plan, r)
		return emit(row, r)
	})
	if err := c.eng.CampaignStream(c.sc, c.plan.schemes, c.seeds[rows.Lo:rows.Hi], sink, opts...); err != nil {
		return nil, err
	}
	return pools, nil
}

// renderRow converts one streamed sim.Row, global run index run, into its
// machine-readable form.
func (c *campaignContext) renderRow(run int, row sim.Row) CampaignRow {
	out := CampaignRow{
		Run:     run,
		Seed:    row.Seed,
		Modem:   c.header.Modem,
		Schemes: make([]SchemeResult, len(row.Metrics)),
	}
	if c.plan.anc >= 0 {
		a := row.Metrics[c.plan.anc]
		if c.plan.routing >= 0 {
			g := stats.GainRatio(a.Throughput(), row.Metrics[c.plan.routing].Throughput())
			out.GainOverRouting = &g
		}
		if c.plan.cope >= 0 {
			g := stats.GainRatio(a.Throughput(), row.Metrics[c.plan.cope].Throughput())
			out.GainOverCOPE = &g
		}
	}
	for j, m := range row.Metrics {
		out.Schemes[j] = SchemeResult{
			Scheme:         string(c.plan.schemes[j]),
			Throughput:     m.Throughput(),
			DeliveredBits:  m.DeliveredBits,
			AirTimeSamples: m.TimeSamples,
			Delivered:      m.Delivered,
			Lost:           m.Lost,
			BERs:           m.BERs,
			Overlaps:       m.Overlaps,
		}
	}
	if row.Traces != nil {
		// Every scheme of a seed shares the channel realization, so the
		// first scheme's trace stands for the row.
		thresh := math.Pow(10, -DefaultOutageThresholdDB/10)
		for _, tr := range row.Traces[0].Traces() {
			s := tr.GainSample()
			mean := s.Mean()
			out.Links = append(out.Links, LinkStats{
				From:           tr.From,
				To:             tr.To,
				Slots:          s.Len(),
				MeanPowerGain:  mean,
				MinPowerGain:   s.Min(),
				OutageProb:     s.OutageBelow(mean * thresh),
				FadeMarginP5DB: s.FadeMarginDB(0.05),
			})
		}
	}
	return out
}

// docWriter emits the campaign JSON document layout. It is the single
// source of the document's byte layout: WriteCampaignJSON streams rows
// into it directly, and MergeSummaries replays shard rows through the
// identical writer — which is what makes a merged sharded campaign
// byte-for-byte equal to the unsharded document.
type docWriter struct {
	w     io.Writer
	first bool
}

// open writes the metadata header and opens the rows array.
func (d *docWriter) open(hdr campaignHeader) error {
	b, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	// Reopen the marshaled header object so the rows stream into the
	// same document. The header is a struct, so the trailing byte is
	// always the closing brace.
	if _, err := d.w.Write(b[:len(b)-1]); err != nil {
		return err
	}
	_, err = io.WriteString(d.w, `,"rows":[`)
	d.first = true
	return err
}

// row appends one already-marshaled row object.
func (d *docWriter) row(rowJSON []byte) error {
	if !d.first {
		if _, err := io.WriteString(d.w, ","); err != nil {
			return err
		}
	}
	d.first = false
	if _, err := io.WriteString(d.w, "\n"); err != nil {
		return err
	}
	_, err := d.w.Write(rowJSON)
	return err
}

// close ends the rows array and writes the summary block.
func (d *docWriter) close(summary campaignSummary) error {
	sb, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(d.w, "\n],\"summary\":"); err != nil {
		return err
	}
	if _, err := d.w.Write(sb); err != nil {
		return err
	}
	_, err = io.WriteString(d.w, "}\n")
	return err
}

// WriteCampaignJSON streams a registered scenario's campaign as one JSON
// document: a metadata header, a "rows" array with one entry per seed
// (written as rows arrive — the campaign is never materialized), and a
// closing "summary" with the campaign-wide distributions, pooled in
// mergeable sketches (summary statistics carry the sketch's α = 0.5%
// relative accuracy; counts and extremes are exact).
func WriteCampaignJSON(w io.Writer, opts StreamOptions, name string) error {
	c, err := newCampaignContext(opts, name)
	if err != nil {
		return err
	}
	doc := &docWriter{w: w}
	if err := doc.open(c.header); err != nil {
		return err
	}
	pools, err := c.run(nil, sim.SeedRange{Hi: len(c.seeds)}, func(_ sim.Row, r CampaignRow) error {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		return doc.row(b)
	})
	if err != nil {
		return err
	}
	return doc.close(pools.summary())
}

// WriteCampaignCSV streams a registered scenario's campaign as a CSV
// table, one row per seed: the per-scheme aggregates plus the paired
// gains. Pools and traces do not fit a flat table; use JSON for those —
// the campaign runs untraced whatever opts.Trace says.
func WriteCampaignCSV(w io.Writer, opts StreamOptions, name string) error {
	opts.Trace = false
	c, err := newCampaignContext(opts, name)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	header := []string{"run", "seed", "gain_over_routing", "gain_over_cope", "modem"}
	for _, s := range c.plan.schemes {
		header = append(header,
			string(s)+"_throughput", string(s)+"_delivered", string(s)+"_lost")
	}
	header = append(header, "anc_mean_ber", "anc_mean_overlap")
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	optF := func(v *float64) string {
		if v == nil {
			return ""
		}
		return f(*v)
	}
	_, err = c.run(nil, sim.SeedRange{Hi: len(c.seeds)}, func(row sim.Row, r CampaignRow) error {
		rec := []string{
			strconv.Itoa(r.Run),
			strconv.FormatInt(r.Seed, 10),
			optF(r.GainOverRouting),
			optF(r.GainOverCOPE),
			r.Modem,
		}
		for _, sr := range r.Schemes {
			rec = append(rec, f(sr.Throughput), strconv.Itoa(sr.Delivered), strconv.Itoa(sr.Lost))
		}
		if c.plan.anc >= 0 {
			a := row.Metrics[c.plan.anc]
			rec = append(rec, f(a.MeanBER()), f(a.MeanOverlap()))
		} else {
			rec = append(rec, "", "")
		}
		return cw.Write(rec)
	})
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
