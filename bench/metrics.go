package bench

import (
	"math"
	"sort"
)

// Metric names one number the benchmark reports: its unit, which
// direction is better, and, for end-to-end metrics, the share of a
// baseline median by which it may worsen before a comparison calls it a
// regression. BENCHMARK.json at the repository root lists the same
// catalog; the smoke test holds the two equal.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// EndToEnd is what a user of the simulator sees, measured with tracing
// off and reported on every workload. An operation is one campaign row
// on the campaign workloads and one cache-miss request on serve-mixed,
// where latency runs from the request's due time to its first NDJSON
// line. Every timing is host time.
//
// Bounds come from the interquartile spread across ten seeds on the
// 2-core reference machine: three times it where that fits under the
// 0.25 cap, else the cap. Allocation fits at 0.05 and the heap, whose
// spread reached 7%, at the cap; the host timings do not fit, because
// the machine's speed drifts by 10–20% from one minute to the next,
// which no longer run removes. setup_s, a median of three short
// set-ups, takes the cap as well. latency_ms_p90 is printed
// but has no bound: transient slowdowns of the host move it by up to 38%
// between sets of ten seeds, more than any bound allowed.
var EndToEnd = []Metric{
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
	{"alloc_kb_per_row", "kB", "lower", 0.05},
	{"peak_heap_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// PerLayer is the traced pass's catalog, reported on every workload. The
// layer-call metrics time one public entry point each on fixtures
// synthesized from the workload's modem and channel; the sim.* metrics
// come from spans around the replayed runs and slots; profile.* are
// cumulative CPU shares of the replay. Shares that can be zero on some
// workload (SolvePhases without collisions, the Viterbi kernel under
// dqpsk, the garbage collector's mark workers) are printed as extras
// rather than listed here.
var PerLayer = []Metric{
	{"channel.receive_us", "us", "lower", 0},
	{"phy.modulate_us", "us", "lower", 0},
	{"phy.demod_batch_us", "us", "lower", 0},
	{"dsp.viterbi_ns_per_symbol", "ns", "lower", 0},
	{"core.solve_phases_ns", "ns", "lower", 0},
	{"core.align_us", "us", "lower", 0},
	{"core.detect_us", "us", "lower", 0},
	{"core.decode_clean_us", "us", "lower", 0},
	{"core.decode_interfered_us", "us", "lower", 0},
	{"core.decode_backward_us", "us", "lower", 0},
	{"core.decode_batch_us_per_rx", "us", "lower", 0},
	{"core.decode_ok_ratio", "ratio", "higher", 0},
	{"frame.marshal_us", "us", "lower", 0},
	{"frame.unmarshal_us", "us", "lower", 0},
	{"sim.run_ms_p50", "ms", "lower", 0},
	{"sim.slot_us_p50", "us", "lower", 0},
	{"sim.delivery_ratio", "ratio", "higher", 0},
	{"experiments.merge_ms", "ms", "lower", 0},
	{"serve.resolve_us", "us", "lower", 0},
	{"serve.submit_hit_us", "us", "lower", 0},
	{"serve.fanout1_lines_per_s", "1/s", "higher", 0},
	{"serve.fanout8_lines_per_s", "1/s", "higher", 0},
	{"profile.decode_batch_pct", "%", "lower", 0},
	{"profile.find_head_pct", "%", "lower", 0},
	{"profile.receive_pct", "%", "lower", 0},
	{"profile.modulate_pct", "%", "lower", 0},
	{"profile.detect_pct", "%", "lower", 0},
}

// Value is one measured number with its unit.
type Value struct {
	V    float64
	Unit string
}

// Check is one correctness check a pass ran.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Result is one pass over one workload.
type Result struct {
	Workload string
	Traced   bool
	// Metrics holds every catalog metric of the pass plus extras
	// (workload-specific numbers, per-scheme breakdowns, allocation
	// counts of the layer calls).
	Metrics map[string]Value
	Checks  []Check
	// Notes are informational lines, such as digests not yet pinned.
	Notes []string
	// Ops counts the operations the pass attempted (rows or requests);
	// FailedOps those that failed (a non-200 status, a truncated stream).
	Ops, FailedOps int
}

func newResult(workload string, traced bool) *Result {
	return &Result{Workload: workload, Traced: traced, Metrics: make(map[string]Value)}
}

func (r *Result) set(name string, v float64, unit string) { r.Metrics[name] = Value{v, unit} }

func (r *Result) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, Check{name, ok, detail})
}

// Attempted counts operations and checks; Failed those of them that
// failed. failed_frac is Failed over Attempted.
func (r *Result) Attempted() int { return r.Ops + len(r.Checks) }

// Failed counts failed operations and failed checks.
func (r *Result) Failed() int {
	n := r.FailedOps
	for _, c := range r.Checks {
		if !c.OK {
			n++
		}
	}
	return n
}

// Catalog returns the catalog a pass reports.
func Catalog(traced bool) []Metric {
	if traced {
		return PerLayer
	}
	return EndToEnd
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so spreads printed here match the ones that
// function gives for the same values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
