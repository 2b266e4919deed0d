// Package bench is the repository's benchmark: four seeded workloads run
// from outside the simulator through its exported entry points, an
// untraced pass measuring end-to-end metrics, a traced pass measuring
// per-layer ones, output checks on both, and a report that can be
// committed and compared against. cmd ancbench is its command line; see
// README.md for the workloads, metrics and how to read a comparison.
package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
)

// Config selects what Run measures.
type Config struct {
	Workloads []Workload
	Seed      int64
	// Seconds sizes every workload to about this much measuring time on
	// the reference machine; zero runs the full sizes.
	Seconds float64
	// Untraced and Traced select the passes. A traced pass replays the
	// rows of an untraced one; run alone, that untraced pass is half size
	// and reports only its checks.
	Untraced, Traced bool
	Repeat           int
	// ProfilePath is where the traced pass writes its CPU profile.
	ProfilePath string
	// TraceOut, when set, receives the traced pass's spans as JSON.
	TraceOut string
	// Log receives the human-readable report.
	Log io.Writer
}

// Run measures every selected workload Repeat times and returns the
// aggregated report.
func Run(cfg Config) (*Report, error) {
	rep := newReport(cfg)
	// Spans are kept for the whole run only when they are written out;
	// otherwise each traced pass starts an empty trace, so retained spans
	// never inflate a later pass's peak_heap_mb.
	var kept *Tracer
	if cfg.TraceOut != "" {
		kept = NewTracer()
	}
	halve := cfg.Traced && !cfg.Untraced
	for r := 0; r < cfg.Repeat; r++ {
		ins := make([]*replayInput, len(cfg.Workloads))
		for i, w := range cfg.Workloads {
			n := w.size(cfg.Seconds, halve)
			run := runCampaign
			if w.Serve() {
				run = runServe
			}
			res, in, err := run(w, cfg.Seed, n, setupCount(cfg.Seconds))
			if err != nil {
				return nil, err
			}
			if !cfg.Traced && !w.Serve() {
				// No traced pass follows to compare every row with the
				// engine, so a sample of rows is re-run instead.
				checkReplay(res, w, in, cfg.Seed)
			}
			if cfg.Traced {
				ins[i] = in
			}
			rep.add(res, cfg.Untraced)
			if cfg.Untraced {
				what := "rows"
				if w.Serve() {
					what = "requests"
				}
				printResult(cfg.Log, res, fmt.Sprintf("%d %s", n, what))
			} else {
				printChecks(cfg.Log, res)
			}
		}
		if !cfg.Traced {
			continue
		}
		for i, w := range cfg.Workloads {
			tr := kept
			if tr == nil {
				tr = NewTracer()
			}
			res, err := runTraced(w, cfg.Seed, ins[i], cfg, tr)
			if err != nil {
				return nil, err
			}
			rep.add(res, true)
			printResult(cfg.Log, res, fmt.Sprintf("%d rows replayed", len(ins[i].rows)))
			ins[i] = nil
		}
	}
	if kept != nil {
		if err := kept.WriteFile(cfg.TraceOut); err != nil {
			return nil, err
		}
	}
	rep.finish()
	return rep, nil
}

// Report aggregates a run: per workload, every metric's values over the
// repeats with their median and quartiles, and the operations and checks
// attempted and failed. Written with -out, it is a trajectory point
// (bench/BENCH_<n>.json) later runs compare against.
type Report struct {
	Go         string                     `json:"go"`
	Platform   string                     `json:"platform"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Repeat     int                        `json:"repeat"`
	Correct    bool                       `json:"correct"`
	Attempted  int                        `json:"attempted"`
	Failed     int                        `json:"failed"`
	Workloads  map[string]*WorkloadReport `json:"workloads"`
	// order keeps the workloads in run order for printing.
	order []string
}

// WorkloadReport is one workload's share of a Report.
type WorkloadReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]*Series `json:"metrics"`
	// catalog lists the catalog metrics of the passes reported, in order.
	catalog []Metric
}

// Series is one metric's values over the repeats.
type Series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// Spread is the interquartile range as a share of the median.
func (s *Series) Spread() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }

func newReport(cfg Config) *Report {
	return &Report{
		Go:         runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.Seed,
		Seconds:    cfg.Seconds,
		Repeat:     cfg.Repeat,
		Workloads:  make(map[string]*WorkloadReport),
	}
}

// add folds one pass into the report. Its operations and checks always
// count; its metrics only when reported. A reported pass that misses a
// catalog metric fails a check.
func (rep *Report) add(res *Result, reported bool) {
	wr := rep.Workloads[res.Workload]
	if wr == nil {
		wr = &WorkloadReport{Metrics: make(map[string]*Series)}
		rep.Workloads[res.Workload] = wr
		rep.order = append(rep.order, res.Workload)
	}
	if reported {
		cat := Catalog(res.Traced)
		if !containsMetric(wr.catalog, cat[0].Name) {
			wr.catalog = append(wr.catalog, cat...)
		}
		for _, m := range cat {
			v, ok := res.Metrics[m.Name]
			if !ok || math.IsNaN(v.V) || math.IsInf(v.V, 0) {
				res.check("measured."+m.Name, false, "not measured")
			}
		}
		for name, v := range res.Metrics {
			if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
				continue
			}
			s := wr.Metrics[name]
			if s == nil {
				s = &Series{Unit: v.Unit}
				wr.Metrics[name] = s
			}
			s.Values = append(s.Values, v.V)
		}
	}
	wr.Attempted += res.Attempted()
	wr.Failed += res.Failed()
	for _, c := range res.Checks {
		if !c.OK {
			wr.Failures = append(wr.Failures, c.Name+": "+c.Detail)
		}
	}
	if res.FailedOps > 0 {
		wr.Failures = append(wr.Failures, fmt.Sprintf("%d of %d operations failed", res.FailedOps, res.Ops))
	}
}

func containsMetric(ms []Metric, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

func (rep *Report) finish() {
	for _, wr := range rep.Workloads {
		for _, s := range wr.Metrics {
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		}
		rep.Attempted += wr.Attempted
		rep.Failed += wr.Failed
	}
	rep.Correct = rep.Failed == 0
}

// Line is the run's one-line result: correctness, operations attempted
// and failed, and the median of every catalog metric of the passes run,
// keyed by name (by "workload/name" when several workloads ran).
func (rep *Report) Line() map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, name := range rep.order {
		wr := rep.Workloads[name]
		for _, m := range wr.catalog {
			s, ok := wr.Metrics[m.Name]
			if !ok {
				continue
			}
			key := m.Name
			if len(rep.order) > 1 {
				key = name + "/" + m.Name
			}
			metrics[key] = value{s.Median, m.Unit}
		}
	}
	return map[string]any{"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics}
}

// printResult writes one pass in human-readable form: its catalog
// metrics in catalog order, then the extras, checks and notes.
func printResult(w io.Writer, res *Result, size string) {
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s, %s pass, %s\n", res.Workload, pass, size)
	seen := make(map[string]bool)
	for _, m := range Catalog(res.Traced) {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, v.V, v.Unit)
			seen[m.Name] = true
		}
	}
	fmt.Fprintln(w, "  -- extras")
	for _, name := range sortedNames(res.Metrics) {
		if !seen[name] {
			v := res.Metrics[name]
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, v.V, v.Unit)
		}
	}
	printChecks(w, res)
}

func printChecks(w io.Writer, res *Result) {
	for _, c := range res.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  check %-24s %-6s %s\n", c.Name, status, c.Detail)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note  %s\n", n)
	}
}

// Compare prints, per workload and catalog metric present in both
// reports, the change of the median against the bound. A metric whose
// run-to-run spread in either report exceeds its bound is unresolved:
// the runs cannot tell a change of that size from noise. Per-layer
// metrics have no bound and are listed for information. Compare gates
// nothing.
func Compare(w io.Writer, base, cur *Report) {
	fmt.Fprintf(w, "== compare against a report of %s, seed %d, repeat %d\n", base.Go, base.Seed, base.Repeat)
	fmt.Fprintf(w, "  %-20s %-30s %12s %12s %8s %6s %7s  %s\n", "workload", "metric", "base", "current", "delta%", "bound%", "spread%", "status")
	for _, name := range cur.order {
		b, c := base.Workloads[name], cur.Workloads[name]
		if b == nil {
			continue
		}
		for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
			bs, cs := b.Metrics[m.Name], c.Metrics[m.Name]
			if bs == nil || cs == nil {
				continue
			}
			delta := (cs.Median - bs.Median) / math.Abs(bs.Median)
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			spread := math.Max(bs.Spread(), cs.Spread())
			status := "info"
			switch {
			case m.Bound == 0:
			case spread > m.Bound:
				status = "unresolved"
			case worse > m.Bound:
				status = "REGRESSED"
			case worse < -m.Bound:
				status = "improved"
			default:
				status = "ok"
			}
			fmt.Fprintf(w, "  %-20s %-30s %12.4g %12.4g %+8.2f %6.1f %7.2f  %s\n",
				name, m.Name, bs.Median, cs.Median, 100*delta, 100*m.Bound, 100*spread, status)
		}
	}
}

// sortedNames returns a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
