package bench

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profileEntries maps each profile.* metric to the functions whose
// cumulative CPU share it reports (summed when several are listed).
var profileEntries = []struct {
	metric string
	funcs  []string
}{
	{"profile.decode_batch_pct", []string{"repro/internal/core.DecodeBatch"}},
	{"profile.extract_diffs_pct", []string{"repro/internal/core.(*Decoder).extractDiffs"}},
	{"profile.solve_phases_pct", []string{"repro/internal/core.SolvePhases"}},
	{"profile.find_head_pct", []string{"repro/internal/core.(*Decoder).findHead"}},
	{"profile.viterbi_pct", []string{"repro/internal/dsp.ViterbiHalfStep"}},
	{"profile.align_wanted_pct", []string{"repro/internal/core.(*Decoder).alignWanted"}},
	{"profile.receive_pct", []string{"repro/internal/channel.ReceiveInto"}},
	{"profile.modulate_pct", []string{"repro/internal/msk.(*Modem).Modulate", "repro/internal/dqpsk.(*Modem).Modulate"}},
	{"profile.detect_pct", []string{"repro/internal/core.DetectWith"}},
	{"profile.gc_pct", []string{"runtime.gcBgMarkWorker"}},
}

// startProfile starts a CPU profile written to path. The returned stop
// function ends it and reads the cumulative share of every function with
// `go tool pprof -top -cum`.
func startProfile(path string) (stop func() (map[string]float64, error), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, err
		}
		return cumShares(path)
	}, nil
}

// cumShares runs pprof over a profile and parses its -top table, whose
// rows read "flat flat% sum% cum cum% name".
func cumShares(path string) (map[string]float64, error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-cum", "-nodecount=100000", path)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench: go tool pprof: %v: %s", err, errOut.String())
	}
	shares := make(map[string]float64)
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[4], "%") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err != nil {
			continue
		}
		if v > shares[f[5]] {
			shares[f[5]] = v
		}
	}
	if len(shares) == 0 {
		return nil, fmt.Errorf("bench: go tool pprof printed no samples for %s", path)
	}
	return shares, nil
}
