package bench

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// metric catalog and workload set must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(f.Workloads), len(Workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, w, Workloads[i].Name, Workloads[i].Why)
		}
	}
	for _, c := range []struct {
		name      string
		file, got []Metric
	}{{"end_to_end", f.EndToEnd, EndToEnd}, {"per_layer", f.PerLayer, PerLayer}} {
		if len(c.file) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", c.name, len(c.file), len(c.got))
			continue
		}
		for i := range c.file {
			if c.file[i] != c.got[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalog %+v", c.name, i, c.file[i], c.got[i])
			}
		}
	}
}

// TestSmoke runs every workload at a tiny size through both passes and
// checks that every catalog metric is emitted with its unit and that
// every check passes. It asserts nothing about timings.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(Config{
		Workloads:   Workloads,
		Seed:        1,
		Seconds:     0.1,
		Untraced:    true,
		Traced:      true,
		Repeat:      1,
		ProfilePath: filepath.Join(dir, "cpu.pprof"),
		TraceOut:    filepath.Join(dir, "trace.json"),
		Log:         io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
	}
	f := readBenchmarkFile(t)
	for _, w := range Workloads {
		wr := rep.Workloads[w.Name]
		if wr == nil {
			t.Errorf("%s: no report", w.Name)
			continue
		}
		for _, msg := range wr.Failures {
			t.Errorf("%s: %s", w.Name, msg)
		}
		for _, m := range append(f.EndToEnd, f.PerLayer...) {
			s := wr.Metrics[m.Name]
			switch {
			case s == nil:
				t.Errorf("%s: %s not emitted", w.Name, m.Name)
			case s.Unit != m.Unit:
				t.Errorf("%s: %s in %q, BENCHMARK.json says %q", w.Name, m.Name, s.Unit, m.Unit)
			case math.IsNaN(s.Median) || s.Median < 0:
				t.Errorf("%s: %s = %v", w.Name, m.Name, s.Median)
			case s.Median == 0 && !strings.HasPrefix(m.Name, "profile."):
				// A tiny replay holds too few profile samples for every
				// share to be nonzero; every other metric is.
				t.Errorf("%s: %s = 0", w.Name, m.Name)
			}
		}
	}
	if _, err := json.Marshal(rep.Line()); err != nil {
		t.Error(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct{ Spans []Span }
	if err := json.Unmarshal(b, &trace); err != nil || len(trace.Spans) == 0 {
		t.Errorf("trace file: %d spans, %v", len(trace.Spans), err)
	}
}

// TestWarmupDigestsPinned holds every campaign workload's warm-up digest
// pinned, so that every run checks the simulation's bits whatever its
// seed and size.
func TestWarmupDigestsPinned(t *testing.T) {
	for _, w := range Workloads {
		if _, ok := pinnedDigests[w.Name+" warm-up"]; !ok && !w.Serve() {
			t.Errorf("testdata/digests.json pins no %q", w.Name+" warm-up")
		}
	}
}

// TestReplayCatchesChangedRow re-runs a small campaign's sampled rows
// through the engine, as an untraced pass without a traced one does, and
// checks that the replay passes on the stream and fails once a row's
// counts are altered.
func TestReplayCatchesChangedRow(t *testing.T) {
	w, err := LookupWorkload("routing-msk")
	if err != nil {
		t.Fatal(err)
	}
	res, in, err := runCampaign(w, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkReplay(res, w, in, 1)
	for i := range in.rows {
		in.rows[i].Schemes[0].Delivered++
	}
	checkReplay(res, w, in, 1)
	var got []bool
	for _, c := range res.Checks {
		if c.Name == "replay" {
			got = append(got, c.OK)
		}
	}
	if len(got) != 2 || !got[0] || got[1] {
		t.Errorf("replay checks = %v, want [true false]", got)
	}
}

// TestServeCountsRefusedRequest has the server answer one miss of a
// small serve-mixed schedule with 400. The pass must still finish,
// counting that request as the one failed operation, while every check
// over the other responses passes.
func TestServeCountsRefusedRequest(t *testing.T) {
	w := serveMixed
	w.Runs, w.Packets, w.PerSecond = 1, 2, 50
	warm, reqs := plan(w, 1, 8)
	bad := -1
	for i, p := range reqs {
		if p.miss {
			bad = i
			break
		}
	}
	reqs[bad].body = []byte(`{"scenario":"no-such-scenario"}`)

	s, warmBodies, _, err := setupServe(w, warm, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	res, in, err := s.measure(w, 1, reqs, warm, warmBodies)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != len(reqs) || res.FailedOps != 1 {
		t.Errorf("%d of %d operations failed, want 1 of %d", res.FailedOps, res.Ops, len(reqs))
	}
	for _, c := range res.Checks {
		if !c.OK {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	if len(in.rows) == 0 {
		t.Error("no rows left to replay")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
