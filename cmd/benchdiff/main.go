// Command benchdiff compares two Go benchmark result files and fails when
// the head results regress past a tolerance — the repository's CI gate
// against decode-path performance and allocation regressions.
//
// Inputs may be plain `go test -bench` text or the `go test -json` event
// stream the CI workflow publishes as BENCH_*.json; benchmark lines are
// extracted either way. For every benchmark present in both files the
// relative change of ns/op and B/op is computed, and any increase beyond
// -tol percent fails the run (exit 1). allocs/op changes are reported but
// gate only with -gate-allocs, since the byte budget already covers them.
// A benchmark found in one file only is listed by name, as new in head
// (not gated) or missing from head.
// Regressions whose head value stays below the -min-ns / -min-bytes
// floors are exempt for the corresponding metric: single-iteration CI
// runs make tiny results too noisy to gate, but a small baseline that
// regresses past a floor (say, the zero-allocation steady state) still
// fails.
//
// Usage:
//
//	benchdiff -base BENCH_BASE.json -head BENCH_SMOKE.json -tol 10
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchResult holds the standard metrics of one benchmark line.
type benchResult struct {
	name   string
	ns     float64
	bytes  float64
	allocs float64
	hasNs  bool
	hasB   bool
	hasA   bool
}

// testEvent is the subset of the `go test -json` event schema benchdiff
// needs.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// parseFile extracts benchmark results from a file of either plain
// benchmark text or test2json events. test2json splits one benchmark
// result across several output events (the name chunk ends without a
// newline, the metrics follow in the next event), so output text is
// reassembled into complete lines before parsing.
func parseFile(path string) (map[string]benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]benchResult)
	var carry string
	flush := func(text string) {
		carry += text
		for {
			nl := strings.IndexByte(carry, '\n')
			if nl < 0 {
				return
			}
			if r, ok := parseBenchLine(carry[:nl]); ok {
				out[r.name] = r
			}
			carry = carry[nl+1:]
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var ev testEvent
			if json.Unmarshal([]byte(line), &ev) == nil {
				if ev.Action == "output" {
					flush(ev.Output)
				}
				continue
			}
		}
		flush(line + "\n")
	}
	flush("\n") // terminate a trailing unterminated line
	return out, sc.Err()
}

// parseBenchLine parses one `BenchmarkName  N  value unit  value unit ...`
// line, returning false for anything else.
func parseBenchLine(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchResult{}, false
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return benchResult{}, false
	}
	// Strip the -GOMAXPROCS suffix so runs from machines with different
	// core counts still pair up.
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r := benchResult{name: name}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.ns, r.hasNs = v, true
		case "B/op":
			r.bytes, r.hasB = v, true
		case "allocs/op":
			r.allocs, r.hasA = v, true
		}
	}
	if !r.hasNs && !r.hasB && !r.hasA {
		return benchResult{}, false
	}
	return r, true
}

// pctChange returns the relative change from base to head in percent.
func pctChange(base, head float64) float64 {
	if base == 0 {
		if head == 0 {
			return 0
		}
		return 100
	}
	return (head - base) / base * 100
}

// regression describes one gated metric that moved past its tolerance.
type regression struct {
	name, metric string
	base, head   float64
	pct          float64
	tol          float64
}

// compare gates head against base, returning the regressions, a
// human-readable report of every paired benchmark (in name order) followed
// by the names found on one side only, and how many benchmarks were
// actually paired. tolNs ≤ 0 gates ns/op at the common tolerance.
func compare(base, head map[string]benchResult, tol, tolNs, minNs, minBytes float64, gateAllocs bool) ([]regression, string, int) {
	if tolNs <= 0 {
		tolNs = tol
	}
	names := make([]string, 0, len(head))
	var added, missing []string
	for name := range head {
		if _, ok := base[name]; ok {
			names = append(names, name)
		} else {
			added = append(added, name)
		}
	}
	for name := range base {
		if _, ok := head[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(names)
	sort.Strings(added)
	sort.Strings(missing)
	var regs []regression
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %14s %14s %8s\n", "benchmark", "base", "head", "delta")
	for _, name := range names {
		s, h := base[name], head[name]
		check := func(metric string, bv, hv float64, has bool, floor, tol float64, gated bool) {
			if !has {
				return
			}
			pct := pctChange(bv, hv)
			fmt.Fprintf(&b, "%-40s %14.1f %14.1f %+7.1f%%  (%s)\n", name, bv, hv, pct, metric)
			// The floor exempts only results that END small: a benchmark
			// whose base sits below the floor (e.g. the zero-alloc decode
			// steady state) must still gate when it regresses past it.
			if gated && pct > tol && hv >= floor {
				regs = append(regs, regression{name: name, metric: metric, base: bv, head: hv, pct: pct, tol: tol})
			}
		}
		check("ns/op", s.ns, h.ns, s.hasNs && h.hasNs, minNs, tolNs, true)
		check("B/op", s.bytes, h.bytes, s.hasB && h.hasB, minBytes, tol, true)
		check("allocs/op", s.allocs, h.allocs, s.hasA && h.hasA, 1, tol, gateAllocs)
	}
	for _, name := range added {
		fmt.Fprintf(&b, "%-40s new in head, not gated\n", name)
	}
	for _, name := range missing {
		fmt.Fprintf(&b, "%-40s missing from head\n", name)
	}
	return regs, b.String(), len(names)
}

func main() {
	basePath := flag.String("base", "", "benchmark results of the base branch (text or test2json)")
	headPath := flag.String("head", "", "benchmark results of the head branch (text or test2json)")
	tol := flag.Float64("tol", 10, "maximum tolerated regression in percent for ns/op and B/op")
	tolNs := flag.Float64("tol-ns", 0, "separate ns/op tolerance in percent (0 = use -tol); single-iteration wall clock on shared CI runners needs more slack than the deterministic B/op and allocs/op")
	minNs := flag.Float64("min-ns", 1e5, "exempt ns/op regressions whose head value stays below this floor (small results are too noisy to gate)")
	minBytes := flag.Float64("min-bytes", 4096, "exempt B/op regressions whose head value stays below this floor")
	gateAllocs := flag.Bool("gate-allocs", false, "also gate allocs/op at the same tolerance")
	flag.Parse()
	if *basePath == "" || *headPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -base and -head are required")
		os.Exit(2)
	}
	base, err := parseFile(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	head, err := parseFile(*headPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if len(base) == 0 || len(head) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no benchmark lines parsed (base %d, head %d)\n", len(base), len(head))
		os.Exit(2)
	}
	regs, report, paired := compare(base, head, *tol, *tolNs, *minNs, *minBytes, *gateAllocs)
	fmt.Print(report)
	if len(regs) > 0 {
		fmt.Printf("\nFAIL: %d regression(s) past tolerance:\n", len(regs))
		for _, r := range regs {
			fmt.Printf("  %s %s: %.1f -> %.1f (%+.1f%%, tolerance %.0f%%)\n", r.name, r.metric, r.base, r.head, r.pct, r.tol)
		}
		os.Exit(1)
	}
	fmt.Printf("\nOK: no gated regression across %d paired benchmarks\n", paired)
}
