package bench

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// paperGainAliceBob is the mean ANC throughput gain over routing the
// paper reports for the Alice–Bob topology (§11.3).
const paperGainAliceBob = 1.70

//go:embed testdata/digests.json
var digestsJSON []byte

// pinnedDigests maps "<workload> seed=<seed> runs=<rows>" to the sha256
// of that campaign's two shard streams, and "<workload> warm-up" to that
// of the warm-up's stream. A change that alters simulation bits on
// purpose updates it together with the goldens it regenerates.
var pinnedDigests = func() map[string]string {
	m := make(map[string]string)
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("bench: testdata/digests.json: " + err.Error())
	}
	return m
}()

// setupCount is how many times a pass sets its workload up: three, and
// setup_s is their median, so one slow set-up does not move it. A budget
// under a second, too small for any timing to mean much, sets up once.
func setupCount(seconds float64) int {
	if seconds > 0 && seconds < 1 {
		return 1
	}
	return 3
}

// replayInput is what the traced pass takes over from the untraced one:
// the rows to replay, their scheme order, the untraced median row time,
// and (campaigns) the two shard streams to merge.
type replayInput struct {
	rows    []experiments.CampaignRow
	schemes []sim.Scheme
	rowMs   float64
	shards  [2][]byte
}

// runCampaign is a campaign workload's untraced pass: set up setups
// times, then stream rows campaign rows from seed as shards 1/2 and 2/2
// on one engine worker, timing each row at its emission, and check the
// output.
func runCampaign(w Workload, seed int64, rows, setups int) (*Result, *replayInput, error) {
	res := newResult(w.Name, false)
	var shards [2]*experiments.Streamer
	var warm []byte
	var setupS []float64
	for i := 0; i < setups; i++ {
		s, ws, d, err := setupCampaign(w, seed, rows)
		if err != nil {
			return nil, nil, err
		}
		shards, warm = s, ws
		setupS = append(setupS, d.Seconds())
	}
	in := &replayInput{schemes: shards[0].Schemes()}

	win := startWindow()
	last := time.Now()
	var rowMs []float64
	streams, err := streamShards(shards, func() {
		now := time.Now()
		rowMs = append(rowMs, float64(now.Sub(last))/1e6)
		last = now
	})
	wall, alloc, peak := win.finish()
	if err != nil {
		return nil, nil, fmt.Errorf("bench: %s: %w", w.Name, err)
	}
	in.shards = streams
	res.Ops = len(rowMs)

	res.set("latency_ms_p50", percentile(rowMs, 0.5), "ms")
	res.set("latency_ms_p90", percentile(rowMs, 0.9), "ms")
	res.set("rows_per_s", float64(len(rowMs))/wall.Seconds(), "1/s")
	res.set("alloc_kb_per_row", float64(alloc)/1e3/float64(len(rowMs)), "kB")
	res.set("peak_heap_mb", float64(peak)/1e6, "MB")
	res.set("setup_s", percentile(setupS, 0.5), "s")
	in.rowMs = percentile(rowMs, 0.5)

	in.rows, err = parseRows(in.shards[0], in.shards[1])
	res.check("stream", err == nil && len(in.rows) == rows, fmt.Sprintf("%d of %d rows, both shard summaries (%v)", len(in.rows), rows, err))
	checkDigest(res, "warmup_digest", w.Name+" warm-up", warm)
	checkDigest(res, "digest", fmt.Sprintf("%s seed=%d runs=%d", w.Name, seed, rows), in.shards[0], in.shards[1])
	checkMerge(res, in.shards, rows)
	if err == nil {
		checkPlausible(res, w, in)
	}
	return res, in, nil
}

// setupCampaign resolves the two shard streamers and runs the untimed
// two-row warm-up, returning the warm-up's stream.
func setupCampaign(w Workload, seed int64, rows int) ([2]*experiments.Streamer, []byte, time.Duration, error) {
	start := time.Now()
	shards, err := newShards(w, seed, rows)
	if err != nil {
		return shards, nil, 0, err
	}
	warm, err := experiments.NewStreamer(w.streamOptions(warmupSeed, 2), w.Scenario, 1, 1)
	if err != nil {
		return shards, nil, 0, err
	}
	var buf bytes.Buffer
	err = warm.Stream(nil, func(line []byte) error {
		buf.Write(line)
		return buf.WriteByte('\n')
	})
	if err != nil {
		return shards, nil, 0, fmt.Errorf("bench: %s warm-up: %w", w.Name, err)
	}
	return shards, buf.Bytes(), time.Since(start), nil
}

// newShards resolves the workload's campaign of rows rows from seed as
// shards 1/2 and 2/2.
func newShards(w Workload, seed int64, rows int) ([2]*experiments.Streamer, error) {
	var shards [2]*experiments.Streamer
	for i := range shards {
		s, err := experiments.NewStreamer(w.streamOptions(seed, rows), w.Scenario, i+1, 2)
		if err != nil {
			return shards, err
		}
		shards[i] = s
	}
	return shards, nil
}

// streamShards runs the shards back to back and returns their NDJSON
// streams; onRow, when set, runs as each row is emitted.
func streamShards(shards [2]*experiments.Streamer, onRow func()) ([2][]byte, error) {
	var out [2][]byte
	for i, s := range shards {
		var buf bytes.Buffer
		lines := 0
		err := s.Stream(nil, func(line []byte) error {
			if lines < s.Rows() && onRow != nil {
				onRow()
			}
			lines++
			buf.Write(line)
			return buf.WriteByte('\n')
		})
		if err != nil {
			return out, fmt.Errorf("shard %d/2: %w", i+1, err)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// parseRows decodes the row lines of NDJSON shard streams, requiring
// each stream to end with its summary record.
func parseRows(streams ...[]byte) ([]experiments.CampaignRow, error) {
	var rows []experiments.CampaignRow
	for i, s := range streams {
		lines := bytes.Split(bytes.TrimSuffix(s, []byte("\n")), []byte("\n"))
		last := lines[len(lines)-1]
		if !bytes.Contains(last, []byte(`"record":"summary"`)) {
			return nil, fmt.Errorf("stream %d ends without its summary record", i+1)
		}
		for _, line := range lines[:len(lines)-1] {
			var r experiments.CampaignRow
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, fmt.Errorf("stream %d: %v", i+1, err)
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// checkDigest runs the check name: the sha256 of the streams must equal
// the digest pinned for key in testdata/digests.json. A key that is not
// pinned prints its digest as a note, so it can be pinned, and checks
// nothing; the warm-up's key is pinned for every campaign workload, so
// each run checks the simulation's bits whatever its seed and size.
func checkDigest(res *Result, name, key string, streams ...[]byte) {
	h := sha256.New()
	for _, s := range streams {
		h.Write(s)
	}
	got := hex.EncodeToString(h.Sum(nil))
	want, ok := pinnedDigests[key]
	if !ok {
		res.Notes = append(res.Notes, fmt.Sprintf("digest %q: %q (not pinned)", key, got))
		return
	}
	res.check(name, got == want, key+" = "+got)
}

// checkMerge folds the two shard streams back into the one JSON document
// an unsharded run writes and checks it holds every row.
func checkMerge(res *Result, shards [2][]byte, rows int) {
	var doc bytes.Buffer
	err := experiments.MergeSummaries(&doc, bytes.NewReader(shards[0]), bytes.NewReader(shards[1]))
	var parsed struct {
		Rows []json.RawMessage `json:"rows"`
	}
	if err == nil {
		err = json.Unmarshal(doc.Bytes(), &parsed)
	}
	res.check("merge", err == nil && len(parsed.Rows) == rows, fmt.Sprintf("merged document has %d of %d rows (%v)", len(parsed.Rows), rows, err))
}

// matchScheme returns an error when a replayed run of the row's j-th
// scheme differs from the streamed row in delivered or lost packets or
// throughput.
func matchScheme(row experiments.CampaignRow, j int, scheme sim.Scheme, m *sim.Metrics) error {
	s := row.Schemes[j]
	if s.Scheme != string(scheme) || m.Delivered != s.Delivered || m.Lost != s.Lost || m.Throughput() != s.Throughput {
		return fmt.Errorf("row %d (seed %d) %s: replay delivered/lost/throughput %d/%d/%g, stream %s %d/%d/%g",
			row.Run, row.Seed, scheme, m.Delivered, m.Lost, m.Throughput(), s.Scheme, s.Delivered, s.Lost, s.Throughput)
	}
	return nil
}

// checkReplay re-runs two seeded-sampled rows through Engine.RunRecording
// and compares them with the stream.
func checkReplay(res *Result, w Workload, in *replayInput, seed int64) {
	sample := rand.New(rand.NewSource(seed)).Perm(len(in.rows))[:min(2, len(in.rows))]
	eng, sc, scratch := sim.NewEngine(w.simConfig()), sim.MustScenario(w.Scenario), sim.NewScratch()
	for _, i := range sample {
		row := in.rows[i]
		for j, scheme := range in.schemes {
			var m sim.Metrics
			err := eng.RunRecording(sc, scheme, row.Seed, &m, scratch)
			if err == nil {
				err = matchScheme(row, j, scheme, &m)
			}
			if err != nil {
				res.check("replay", false, err.Error())
				return
			}
		}
	}
	res.check("replay", true, fmt.Sprintf("%d sampled rows re-run through Engine.RunRecording match the stream", len(sample)))
}

// checkPlausible holds the campaign to properties every seed has: each
// scheme delivers at least three quarters of its packets (dqpsk ANC
// under Rician fading delivers about 87%), ANC beats routing, and on
// Alice–Bob the mean gain stays near the paper's.
func checkPlausible(res *Result, w Workload, in *replayInput) {
	delivered := make([]int, len(in.schemes))
	lost := make([]int, len(in.schemes))
	var gain float64
	gains := 0
	for _, r := range in.rows {
		for j, s := range r.Schemes {
			delivered[j] += s.Delivered
			lost[j] += s.Lost
		}
		if r.GainOverRouting != nil {
			gain += *r.GainOverRouting
			gains++
		}
	}
	for j, s := range in.schemes {
		ratio := float64(delivered[j]) / float64(delivered[j]+lost[j])
		res.set("delivery_ratio."+string(s), ratio, "ratio")
		res.check("delivery."+string(s), ratio >= 0.75, fmt.Sprintf("%d delivered, %d lost", delivered[j], lost[j]))
	}
	if gains > 0 {
		gain /= float64(gains)
		res.set("gain_over_routing_mean", gain, "x")
		res.check("anc_beats_routing", gain > 1, fmt.Sprintf("mean gain %.4f over %d rows", gain, gains))
	}
	if w.Scenario == "alice-bob" && gains > 0 && !w.Serve() {
		gap := 100 * math.Abs(gain-paperGainAliceBob) / paperGainAliceBob
		res.set("paper_gap_pct", gap, "%")
		res.check("paper_gap", gap <= 6, fmt.Sprintf("|%.4f − %.2f| / %.2f = %.2f%% (band 6%%)", gain, paperGainAliceBob, paperGainAliceBob, gap))
	}
}
