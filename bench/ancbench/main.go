// Command ancbench is the repository's benchmark. With no flags it runs
// the four workloads at full size, untraced and then traced, checks
// every output, and prints each metric by name and unit; the last line
// of standard output is one JSON object with the run's correctness,
// operation counts and metric medians. The traced pass's CPU profile is
// written to .bench_build/ under the working directory.
//
//	go run ./ancbench -seed 1                          # from bench/
//	bash bench/run.sh -seed 1                          # from the repository root
//	bash bench/run.sh -workload routing-msk -seconds 20 -trace 0
//	bash bench/run.sh -repeat 5 -out bench/BENCH_<n>.json
//	bash bench/run.sh -repeat 5 -compare bench/BENCH_<n>.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/bench"
)

func main() {
	workload := flag.String("workload", "", "run one workload (default: all)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 0, "size each workload to about this many seconds of measuring (0: full size)")
	trace := flag.Int("trace", -1, "1: traced pass only, 0: untraced pass only, -1: both")
	repeat := flag.Int("repeat", 1, "run the selected passes this many times and report medians")
	out := flag.String("out", "", "write the report (medians, quartiles, values) to this JSON file")
	compare := flag.String("compare", "", "compare the run against a report written with -out")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans to this JSON file")
	flag.Parse()
	if flag.NArg() > 0 || *repeat < 1 || *trace < -1 || *trace > 1 || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}

	profile := filepath.Join(".bench_build", "ancbench.cpu.pprof")
	cfg := bench.Config{
		Workloads:   bench.Workloads,
		Seed:        *seed,
		Seconds:     *seconds,
		Untraced:    *trace != 1,
		Traced:      *trace != 0,
		Repeat:      *repeat,
		ProfilePath: profile,
		TraceOut:    *traceOut,
		Log:         os.Stdout,
	}
	if *workload != "" {
		w, err := bench.LookupWorkload(*workload)
		if err != nil {
			fatal(err)
		}
		cfg.Workloads = []bench.Workload{w}
	}
	var base *bench.Report
	if *compare != "" {
		b, err := readReport(*compare)
		if err != nil {
			fatal(err)
		}
		base = b
	}
	if cfg.Traced {
		if err := os.MkdirAll(filepath.Dir(profile), 0o755); err != nil {
			fatal(err)
		}
	}

	rep, err := bench.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if base != nil {
		bench.Compare(os.Stdout, base, rep)
	}
	line, err := json.Marshal(rep.Line())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func readReport(path string) (*bench.Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r bench.Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ancbench:", err)
	os.Exit(1)
}
