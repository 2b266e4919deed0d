package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// clientConns caps the client's connections to the server, so the load
// never uses more connections than the reference machine has cores.
const clientConns = 2

// planned is one request of the open-loop schedule.
type planned struct {
	due  time.Duration // since the start of the timed window
	body []byte
	seed int64
	miss bool
}

// plan builds the seeded schedule: n requests at the workload's fixed
// rate, of which a seeded draw picks n/2 positions, anywhere in the
// schedule, to be hits. A hit repeats a campaign requested earlier (a
// warm-up or a miss), drawn uniformly, so it replays the cache or joins
// the run still streaming it; every other request is a new campaign (a
// miss). Miss run seeds continue the warm-ups' as one long campaign
// would.
func plan(w Workload, seed int64, n int) (warm [2]planned, reqs []planned) {
	rng := rand.New(rand.NewSource(seed))
	reqSeed := func(k int) int64 { return seed + int64(k)*int64(w.Runs)*seedStride }
	var campaigns []planned
	for i := range warm {
		s := reqSeed(i - 2)
		warm[i] = planned{body: requestBody(w, s), seed: s, miss: true}
		campaigns = append(campaigns, warm[i])
	}
	hit := make([]bool, n)
	for _, i := range rng.Perm(n)[:n/2] {
		hit[i] = true
	}
	period := time.Duration(float64(time.Second) / w.PerSecond)
	for i := range n {
		p := planned{due: time.Duration(i) * period}
		if hit[i] {
			o := campaigns[rng.Intn(len(campaigns))]
			p.body, p.seed = o.body, o.seed
		} else {
			p.miss, p.seed = true, reqSeed(len(campaigns)-len(warm))
			p.body = requestBody(w, p.seed)
			campaigns = append(campaigns, p)
		}
		reqs = append(reqs, p)
	}
	return warm, reqs
}

func requestBody(w Workload, seed int64) []byte {
	b, err := json.Marshal(w.request(seed))
	if err != nil {
		panic(err) // a serve.Request always marshals
	}
	return b
}

// server is the in-process daemon behind a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan struct{}
}

// boot starts the daemon with one engine worker per job and two job
// runners, and waits for /healthz.
func boot() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    serve.New(serve.Config{Workers: 1, Runners: 2}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true}},
		served: make(chan struct{}),
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	resp, err := s.client.Get(s.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("bench: /healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the HTTP server and the daemon and waits for both.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// response is one request's outcome, timed from its due time.
type response struct {
	status int
	ttfr   time.Duration
	late   time.Duration
	end    time.Time
	body   []byte
	err    error
}

func (s *server) stream(body []byte, due time.Time) response {
	resp, err := s.client.Post(s.url+"/v1/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	first, err := r.ReadBytes('\n')
	out := response{status: resp.StatusCode, ttfr: time.Since(due)}
	if err == nil {
		var rest []byte
		rest, err = io.ReadAll(r)
		out.body = append(first, rest...)
	}
	out.end, out.err = time.Now(), err
	return out
}

// complete reports why a served stream is not a whole campaign: the
// status, the line count (rows plus the summary record), the summary.
func complete(r response, rows int) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d", r.status)
	}
	lines := bytes.Split(bytes.TrimSuffix(r.body, []byte("\n")), []byte("\n"))
	if len(lines) != rows+1 || !bytes.Contains(lines[rows], []byte(`"record":"summary"`)) {
		return fmt.Errorf("truncated stream: %d lines", len(lines))
	}
	return nil
}

// runServe is serve-mixed's untraced pass: boot and warm up setups
// times, then send n requests open loop at the fixed rate over at most
// clientConns connections, and check every response.
func runServe(w Workload, seed int64, n, setups int) (*Result, *replayInput, error) {
	warm, reqs := plan(w, seed, n)
	s, warmBodies, setupS, err := setupServe(w, warm, setups)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	res, in, err := s.measure(w, seed, reqs, warm, warmBodies)
	if err != nil {
		return nil, nil, err
	}
	res.set("setup_s", setupS, "s")
	return res, in, nil
}

// setupServe boots the server and sends the two warm-up requests, setups
// times over, and keeps the last server. It returns the warm-ups' bodies
// and the median set-up time in seconds.
func setupServe(w Workload, warm [2]planned, setups int) (*server, [2][]byte, float64, error) {
	var s *server
	var bodies [2][]byte
	var setupS []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = boot(); err != nil {
			return nil, bodies, 0, err
		}
		for k, p := range warm {
			r := s.stream(p.body, time.Now())
			if err := complete(r, w.Runs); err != nil {
				s.close()
				return nil, bodies, 0, fmt.Errorf("bench: serve warm-up: %w", err)
			}
			bodies[k] = r.body
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	return s, bodies, percentile(setupS, 0.5), nil
}

// measure sends reqs open loop, each at its due time from now, and checks
// the responses. A response that is not a whole campaign (a non-200
// status, a truncated stream) counts as one failed operation and is left
// out of the timings and the checks.
func (s *server) measure(w Workload, seed int64, reqs []planned, warm [2]planned, warmBodies [2][]byte) (*Result, *replayInput, error) {
	res := newResult(w.Name, false)
	out := make([]response, len(reqs))
	win := startWindow()
	start := time.Now()
	var wg sync.WaitGroup
	for i, p := range reqs {
		due := start.Add(p.due)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = s.stream(p.body, due)
			out[i].late = late
		}()
	}
	wg.Wait()
	_, alloc, peak := win.finish()

	ok := make([]bool, len(out))
	var missMs, hitMs, lateMs []float64
	rows := 0
	last := start
	res.Ops = len(reqs)
	for i, r := range out {
		if err := complete(r, w.Runs); err != nil {
			res.FailedOps++
			if res.FailedOps == 1 {
				res.Notes = append(res.Notes, fmt.Sprintf("request %d failed: %v", i, err))
			}
			continue
		}
		ok[i] = true
		rows += w.Runs
		if r.end.After(last) {
			last = r.end
		}
		lateMs = append(lateMs, float64(r.late)/1e6)
		if reqs[i].miss {
			missMs = append(missMs, float64(r.ttfr)/1e6)
		} else {
			hitMs = append(hitMs, float64(r.ttfr)/1e6)
		}
	}
	res.set("latency_ms_p50", percentile(missMs, 0.5), "ms")
	res.set("latency_ms_p90", percentile(missMs, 0.9), "ms")
	res.set("rows_per_s", float64(rows)/last.Sub(start).Seconds(), "1/s")
	res.set("alloc_kb_per_row", float64(alloc)/1e3/float64(rows), "kB")
	res.set("peak_heap_mb", float64(peak)/1e6, "MB")
	res.set("ttfr_hit_ms_p50", percentile(hitMs, 0.5), "ms")
	res.set("ttfr_hit_ms_p90", percentile(hitMs, 0.9), "ms")
	res.set("generator_late_ms_p90", percentile(lateMs, 0.9), "ms")
	res.set("generator_late_ms_max", percentile(lateMs, 1), "ms")
	res.Notes = append(res.Notes, fmt.Sprintf("%d misses, %d hits", len(missMs), len(hitMs)))

	misses, hits := checkHits(res, reqs, out, ok, warm, warmBodies)
	checkServedBytes(res, w, seed, reqs, out, ok)
	checkServerMetrics(res, s, misses, hits)

	// The traced pass replays the first half of the misses that completed,
	// or the warm-ups' campaigns when none did.
	schemes, err := experiments.CampaignSchemes(w.Scenario, w.Schemes)
	if err != nil {
		return nil, nil, err
	}
	var replay [][]byte
	for i, p := range reqs {
		if p.miss && ok[i] && len(replay) < (len(missMs)+1)/2 {
			replay = append(replay, out[i].body)
		}
	}
	if len(replay) == 0 {
		replay = warmBodies[:]
	}
	replayRows, err := parseRows(replay...)
	if err != nil {
		return nil, nil, err
	}
	return res, &replayInput{rows: replayRows, schemes: schemes}, nil
}

// checkHits groups the whole responses, warm-ups included, by request:
// each must carry the bytes of the first response to the same request,
// so a hit replays its miss exactly. It returns how many distinct
// campaigns were served and how many repeats, which the server counts as
// cache misses and cache hits.
func checkHits(res *Result, reqs []planned, out []response, ok []bool, warm [2]planned, warmBodies [2][]byte) (misses, hits int) {
	first := make(map[string][]byte)
	for k, p := range warm {
		first[string(p.body)] = warmBodies[k]
	}
	bad := 0
	for i, p := range reqs {
		if !ok[i] {
			continue
		}
		want, seen := first[string(p.body)]
		if !seen {
			first[string(p.body)] = out[i].body
			continue
		}
		hits++
		if !bytes.Equal(out[i].body, want) {
			bad++
		}
	}
	res.check("hit_bytes", bad == 0, fmt.Sprintf("%d of %d repeats differ from the first response to their request", bad, hits))
	return len(first), hits
}

// checkServedBytes recomputes three seeded-sampled misses with
// experiments.WriteCampaignNDJSON and compares bytes.
func checkServedBytes(res *Result, w Workload, seed int64, reqs []planned, out []response, ok []bool) {
	var misses []int
	for i, p := range reqs {
		if p.miss && ok[i] {
			misses = append(misses, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(misses), func(i, j int) { misses[i], misses[j] = misses[j], misses[i] })
	for _, i := range misses[:min(3, len(misses))] {
		var cli bytes.Buffer
		err := experiments.WriteCampaignNDJSON(&cli, w.streamOptions(reqs[i].seed, w.Runs), w.Scenario, 1, 1)
		if err != nil || !bytes.Equal(cli.Bytes(), out[i].body) {
			res.check("served_equals_cli", false, fmt.Sprintf("request %d (seed %d) differs from WriteCampaignNDJSON (%v)", i, reqs[i].seed, err))
			return
		}
	}
	res.check("served_equals_cli", true, fmt.Sprintf("%d sampled misses byte-identical to WriteCampaignNDJSON", min(3, len(misses))))
}

// checkServerMetrics scrapes /metrics: every distinct campaign served
// (warm-ups included) ran one job, every repeat was answered from the
// cache or joined the job already running, and no job failed.
func checkServerMetrics(res *Result, s *server, misses, hits int) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		res.check("metrics", false, err.Error())
		return
	}
	defer resp.Body.Close()
	got := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			got[f[0]], _ = strconv.ParseInt(f[1], 10, 64)
		}
	}
	h, m := got["ancserve_cache_hits_total"], got["ancserve_cache_misses_total"]
	if h+m > 0 {
		res.set("serve.cache_hit_ratio", float64(h)/float64(h+m), "ratio")
	}
	ok := sc.Err() == nil && h == int64(hits) && m == int64(misses) &&
		got["ancserve_jobs_failed_total"] == 0 && got["ancserve_jobs_completed_total"] == int64(misses)
	res.check("metrics", ok, fmt.Sprintf("cache hits %d (want %d), misses %d (want %d), jobs completed %d, failed %d",
		h, hits, m, misses, got["ancserve_jobs_completed_total"], got["ancserve_jobs_failed_total"]))
}
