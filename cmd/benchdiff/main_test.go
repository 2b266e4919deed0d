package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkFig9aAliceBobGain-8  \t       3\t 161342142 ns/op\t         0.002 BER\t42737800 B/op\t   19802 allocs/op")
	if !ok {
		t.Fatal("line not recognized as a benchmark")
	}
	if r.name != "BenchmarkFig9aAliceBobGain" {
		t.Errorf("name = %q (GOMAXPROCS suffix should be stripped)", r.name)
	}
	if !r.hasNs || r.ns != 161342142 {
		t.Errorf("ns/op = %v has=%v", r.ns, r.hasNs)
	}
	if !r.hasB || r.bytes != 42737800 {
		t.Errorf("B/op = %v has=%v", r.bytes, r.hasB)
	}
	if !r.hasA || r.allocs != 19802 {
		t.Errorf("allocs/op = %v has=%v", r.allocs, r.hasA)
	}
	for _, line := range []string{
		"ok  \trepro\t1.2s",
		"BenchmarkBroken notanumber ns/op",
		"--- PASS: TestX",
		"",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("line %q parsed as a benchmark", line)
		}
	}
}

func TestParseFileReassemblesTest2JSON(t *testing.T) {
	// test2json splits a benchmark result across output events: the name
	// chunk has no trailing newline, the metrics arrive in the next event.
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	content := `{"Action":"start","Package":"repro"}
{"Action":"output","Package":"repro","Output":"goos: linux\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkX","Output":"BenchmarkX\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkX","Output":"BenchmarkX \t"}
{"Action":"output","Package":"repro","Test":"BenchmarkX","Output":"       5\t   1000 ns/op\t   80012 B/op\t       7 allocs/op\n"}
{"Action":"pass","Package":"repro"}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got["BenchmarkX"]
	if !ok {
		t.Fatalf("BenchmarkX not parsed from split events: %+v", got)
	}
	if r.ns != 1000 || r.bytes != 80012 || r.allocs != 7 {
		t.Errorf("parsed %+v, want ns=1000 B=80012 allocs=7", r)
	}
}

func TestCompareGatesRegressions(t *testing.T) {
	base := map[string]benchResult{
		"BenchmarkA":    {name: "BenchmarkA", ns: 1e6, bytes: 1e6, allocs: 100, hasNs: true, hasB: true, hasA: true},
		"BenchmarkB":    {name: "BenchmarkB", ns: 1e6, bytes: 1e6, hasNs: true, hasB: true},
		"BenchmarkTiny": {name: "BenchmarkTiny", ns: 50, bytes: 64, hasNs: true, hasB: true},
	}
	head := map[string]benchResult{
		"BenchmarkA":    {name: "BenchmarkA", ns: 1.05e6, bytes: 1.3e6, allocs: 500, hasNs: true, hasB: true, hasA: true},
		"BenchmarkB":    {name: "BenchmarkB", ns: 0.5e6, bytes: 0.9e6, hasNs: true, hasB: true},
		"BenchmarkTiny": {name: "BenchmarkTiny", ns: 500, bytes: 640, hasNs: true, hasB: true},
		"BenchmarkNew":  {name: "BenchmarkNew", ns: 1e6, hasNs: true},
	}
	regs, _, _ := compare(base, head, 10, 0, 1e5, 4096, false)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", len(regs), regs)
	}
	if regs[0].name != "BenchmarkA" || regs[0].metric != "B/op" {
		t.Errorf("regression = %+v, want BenchmarkA B/op", regs[0])
	}
	// allocs/op regressed 5x but gates only when asked.
	regs, _, _ = compare(base, head, 10, 0, 1e5, 4096, true)
	found := false
	for _, r := range regs {
		if r.metric == "allocs/op" {
			found = true
		}
	}
	if !found {
		t.Errorf("-gate-allocs did not gate the allocs/op regression: %+v", regs)
	}
}

func TestCompareToleratesWithinBudget(t *testing.T) {
	base := map[string]benchResult{
		"BenchmarkA": {name: "BenchmarkA", ns: 1e6, bytes: 1e6, hasNs: true, hasB: true},
	}
	head := map[string]benchResult{
		"BenchmarkA": {name: "BenchmarkA", ns: 1.09e6, bytes: 1.09e6, hasNs: true, hasB: true},
	}
	if regs, _, _ := compare(base, head, 10, 0, 1e5, 4096, false); len(regs) != 0 {
		t.Errorf("9%% change flagged at 10%% tolerance: %+v", regs)
	}
}

func TestCompareSeparateNsTolerance(t *testing.T) {
	base := map[string]benchResult{
		"BenchmarkA": {name: "BenchmarkA", ns: 1e8, bytes: 1e6, hasNs: true, hasB: true},
	}
	head := map[string]benchResult{
		// 20% slower wall clock (runner noise), bytes unchanged.
		"BenchmarkA": {name: "BenchmarkA", ns: 1.2e8, bytes: 1e6, hasNs: true, hasB: true},
	}
	if regs, _, _ := compare(base, head, 10, 0, 1e5, 4096, false); len(regs) != 1 {
		t.Errorf("default ns tolerance should gate the 20%% slowdown: %+v", regs)
	}
	if regs, _, _ := compare(base, head, 10, 35, 1e5, 4096, false); len(regs) != 0 {
		t.Errorf("-tol-ns 35 should absorb the 20%% slowdown: %+v", regs)
	}
}

func TestCompareGatesRegressionFromBelowFloor(t *testing.T) {
	// A zero/low baseline (the zero-alloc steady state) that regresses
	// past the floor must gate: the floor exempts small results, not
	// small starting points.
	base := map[string]benchResult{
		"BenchmarkLean": {name: "BenchmarkLean", bytes: 0, allocs: 0, hasB: true, hasA: true},
	}
	head := map[string]benchResult{
		"BenchmarkLean": {name: "BenchmarkLean", bytes: 5e8, allocs: 10000, hasB: true, hasA: true},
	}
	regs, _, _ := compare(base, head, 10, 0, 1e5, 4096, true)
	if len(regs) != 2 {
		t.Fatalf("zero-baseline regression not gated on both B/op and allocs/op: %+v", regs)
	}
}

func TestCompareListsUnpairedBenchmarks(t *testing.T) {
	// A benchmark on one side only cannot be gated, but the report must
	// name it rather than drop it silently.
	base := map[string]benchResult{
		"BenchmarkA":    {name: "BenchmarkA", ns: 1e6, hasNs: true},
		"BenchmarkGone": {name: "BenchmarkGone", ns: 1e6, hasNs: true},
	}
	head := map[string]benchResult{
		"BenchmarkA":   {name: "BenchmarkA", ns: 1e6, hasNs: true},
		"BenchmarkNew": {name: "BenchmarkNew", ns: 9e9, hasNs: true},
	}
	regs, report, paired := compare(base, head, 10, 0, 1e5, 4096, true)
	if len(regs) != 0 || paired != 1 {
		t.Fatalf("regressions %+v, paired %d: want none and 1", regs, paired)
	}
	for _, want := range []string{"BenchmarkNew", "new in head, not gated", "BenchmarkGone", "missing from head"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	for _, line := range strings.Split(report, "\n") {
		if strings.Contains(line, "BenchmarkNew") && !strings.Contains(line, "new in head, not gated") ||
			strings.Contains(line, "BenchmarkGone") && !strings.Contains(line, "missing from head") {
			t.Errorf("unpaired benchmark reported as paired: %q", line)
		}
	}
}
