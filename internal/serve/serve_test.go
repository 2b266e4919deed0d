package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The test scenarios are registered only in this package's test binary.
// Both support anc and routing with trivial deterministic schedules, so
// the default campaign framing (ANC + routing) applies and rows render
// with finite gains — but no DSP runs, keeping campaigns instant.

// trivialStart returns the shared stepper: deterministic metrics as a
// function of the seed, strictly positive so every ratio is finite.
func trivialStart(e *sim.Env) sim.StepFunc {
	seed := e.Seed()
	return func(i int, r sim.Recorder) {
		r.RecordAirTime(float64(2 + i))
		r.RecordDelivered(float64(1 + seed%97))
	}
}

type serveCheap struct{}

func (serveCheap) Name() string        { return "serve-cheap" }
func (serveCheap) Description() string { return "test-only: instant deterministic campaign" }
func (serveCheap) Schemes() []sim.Scheme {
	return []sim.Scheme{sim.SchemeANC, sim.SchemeRouting}
}
func (serveCheap) Build(cfg topology.Config, rng *rand.Rand) *topology.Graph {
	return topology.AliceBob(cfg, rng)
}
func (serveCheap) Start(e *sim.Env, scheme sim.Scheme) (sim.Stepper, error) {
	return trivialStart(e), nil
}

// campaignGate arms the serve-gate scenario: each run's first ANC step
// signals started and then blocks until release is closed, so tests can
// hold a job mid-run deterministically.
type campaignGate struct {
	started chan struct{}
	release chan struct{}
}

var gateCtl atomic.Pointer[campaignGate]

// armGate installs a fresh gate and returns it, disarming at cleanup.
func armGate(t *testing.T) *campaignGate {
	t.Helper()
	g := &campaignGate{started: make(chan struct{}, 64), release: make(chan struct{})}
	gateCtl.Store(g)
	t.Cleanup(func() { gateCtl.Store(nil) })
	return g
}

type serveGate struct{}

func (serveGate) Name() string        { return "serve-gate" }
func (serveGate) Description() string { return "test-only: blocks mid-run on the package gate" }
func (serveGate) Schemes() []sim.Scheme {
	return []sim.Scheme{sim.SchemeANC, sim.SchemeRouting}
}
func (serveGate) Build(cfg topology.Config, rng *rand.Rand) *topology.Graph {
	return topology.AliceBob(cfg, rng)
}
func (serveGate) Start(e *sim.Env, scheme sim.Scheme) (sim.Stepper, error) {
	inner := trivialStart(e)
	gateScheme := scheme
	return sim.StepFunc(func(i int, r sim.Recorder) {
		if g := gateCtl.Load(); g != nil && gateScheme == sim.SchemeANC && i == 0 {
			select {
			case g.started <- struct{}{}:
			default:
			}
			<-g.release
		}
		inner(i, r)
	}), nil
}

func init() {
	sim.Register(serveCheap{})
	sim.Register(serveGate{})
}

// expectStream renders the reference bytes for a request: the CLI's
// NDJSON writer over the identical campaign. Served streams must match
// byte for byte.
func expectStream(t *testing.T, req Request) []byte {
	t.Helper()
	norm, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := norm.options(0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := experiments.WriteCampaignNDJSON(&buf, opts, norm.Scenario, 1, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSharedRunByteIdentity is the fan-out acceptance test: two
// concurrent identical submissions share one engine run and receive
// byte-identical streams, each equal to the CLI's NDJSON output.
func TestSharedRunByteIdentity(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := Request{Scenario: "serve-cheap", Runs: 8, Packets: 2, Seed: 3}
	want := expectStream(t, req)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	bodies := make([][]byte, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			if h := resp.Header.Get("X-Ancserve-Hash"); h == "" {
				errs[i] = fmt.Errorf("missing X-Ancserve-Hash header")
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("subscriber %d: %v", i, err)
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("concurrent subscribers saw different bytes:\nA: %s\nB: %s", bodies[0], bodies[1])
	}
	if !bytes.Equal(bodies[0], want) {
		t.Errorf("served stream diverges from ancsim NDJSON output:\nserved: %s\ncli:    %s", bodies[0], want)
	}
	if got := s.metrics.JobsAccepted.Load(); got != 1 {
		t.Errorf("jobs accepted = %d, want 1 (the identical submissions must coalesce)", got)
	}
	if got := s.metrics.CacheHits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
}

// TestCacheMissOnConfigChange pins the other half of content
// addressing: any one-field config change is a different campaign.
func TestCacheMissOnConfigChange(t *testing.T) {
	s := newTestServer(t, Config{})
	base := Request{Scenario: "serve-cheap", Runs: 4, Packets: 1, Seed: 3}
	if _, hit, err := s.Submit(base); err != nil || hit {
		t.Fatalf("first submit: hit=%v err=%v", hit, err)
	}
	changed := base
	changed.Seed = 4
	if _, hit, err := s.Submit(changed); err != nil || hit {
		t.Fatalf("changed submit: hit=%v err=%v, want a cache miss", hit, err)
	}
	if got := s.metrics.JobsAccepted.Load(); got != 2 {
		t.Errorf("jobs accepted = %d, want 2", got)
	}
	if _, hit, err := s.Submit(base); err != nil || !hit {
		t.Fatalf("repeat submit: hit=%v err=%v, want a cache hit", hit, err)
	}
}

// TestLateSubscriberReplay completes a campaign with no subscribers,
// then streams it from the cache: the replay is the full byte-exact
// stream, with no second engine run.
func TestLateSubscriberReplay(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := Request{Scenario: "serve-cheap", Runs: 5, Packets: 1, Seed: 9}
	want := expectStream(t, req)
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	waitFor(t, "job completion", func() bool { return s.metrics.JobsCompleted.Load() == 1 })

	resp, err = http.Get(ts.URL + "/v1/campaigns/" + st.Hash + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("replayed stream diverges from the CLI bytes:\nreplay: %s\ncli:    %s", got, want)
	}
	if n := s.metrics.JobsAccepted.Load(); n != 1 {
		t.Errorf("replay started a second job (accepted=%d)", n)
	}
}

// TestSlowSubscriberEvicted is the isolation acceptance test: a
// subscriber that stops reading is evicted at the write deadline while
// the engine and a healthy subscriber stream to completion. Run under
// -race, this also proves the hub's synchronization.
func TestSlowSubscriberEvicted(t *testing.T) {
	s := newTestServer(t, Config{WriteTimeout: 50 * time.Millisecond})
	j, _, err := s.Submit(Request{Scenario: "serve-cheap", Runs: 48, Packets: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wantLines := j.Campaign.Rows + 1

	// The blocked subscriber: a synchronous in-memory pipe whose peer
	// never reads — every write blocks until the deadline, the
	// deterministic worst case of a stalled TCP window.
	server, client := net.Pipe()
	defer client.Close()
	defer server.Close()
	evicted := make(chan error, 1)
	go func() {
		evicted <- s.pump(context.Background(), j.Subscribe(), pipeWriter{server})
	}()

	healthy := &collectLines{}
	if err := s.pump(context.Background(), j.Subscribe(), healthy); err != nil {
		t.Fatalf("healthy subscriber: %v", err)
	}
	if got := len(healthy.get()); got != wantLines {
		t.Errorf("healthy subscriber got %d lines, want %d", got, wantLines)
	}
	if err := <-evicted; !errors.Is(err, errEvicted) {
		t.Errorf("blocked subscriber returned %v, want errEvicted", err)
	}
	if got := s.metrics.SessionsEvicted.Load(); got != 1 {
		t.Errorf("sessions evicted = %d, want 1", got)
	}
	if got := s.metrics.JobsCompleted.Load(); got != 1 {
		t.Errorf("jobs completed = %d, want 1 — the engine must not block on a stalled subscriber", got)
	}
	if got := s.metrics.ActiveSessions.Load(); got != 0 {
		t.Errorf("active sessions = %d after both detached, want 0", got)
	}
}

// pipeWriter frames lines onto a connection the way ndjsonWriter frames
// them onto an HTTP response: write deadline first, then the line and
// its newline.
type pipeWriter struct{ conn net.Conn }

func (p pipeWriter) WriteLine(deadline time.Time, line []byte) error {
	if err := p.conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	if _, err := p.conn.Write(line); err != nil {
		return err
	}
	_, err := p.conn.Write([]byte{'\n'})
	return err
}

type collectLines struct {
	mu    sync.Mutex
	lines [][]byte
}

func (c *collectLines) WriteLine(_ time.Time, line []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lines = append(c.lines, line)
	return nil
}

func (c *collectLines) get() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lines
}

// TestCancelReleasesWorkers holds a job mid-run on the gate, cancels it
// over HTTP, and verifies the job lands in the canceled state and
// leaves no cache entry behind.
func TestCancelReleasesWorkers(t *testing.T) {
	g := armGate(t)
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	j, _, err := s.Submit(Request{Scenario: "serve-gate", Runs: 3, Packets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started // a worker is now blocked inside run 0

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+j.Campaign.Hash, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d, want 202", resp.StatusCode)
	}
	close(g.release) // let the blocked step return; the engine aborts at the next slot
	waitFor(t, "job cancellation", func() bool { return s.metrics.JobsCanceled.Load() == 1 })

	state, _, jerr := j.Snapshot()
	if state != JobCanceled {
		t.Errorf("job state = %v, want canceled", state)
	}
	if jerr == nil || !errors.Is(jerr, context.Canceled) {
		t.Errorf("job error = %v, want context.Canceled", jerr)
	}
	if _, ok := s.Lookup(j.Campaign.Hash); ok {
		t.Errorf("canceled job still answers lookups; a partial stream must never be cached")
	}
}

// TestQueueBackpressureAndDrain pins the admission contract: a full
// queue rejects with ErrQueueFull, a draining server with ErrDraining,
// and Drain completes the admitted jobs before returning.
func TestQueueBackpressureAndDrain(t *testing.T) {
	g := armGate(t)
	s := New(Config{Runners: 1, QueueDepth: 1})
	gated, _, err := s.Submit(Request{Scenario: "serve-gate", Runs: 1, Packets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started // the single runner is now occupied

	queued, _, err := s.Submit(Request{Scenario: "serve-cheap", Runs: 2, Packets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(Request{Scenario: "serve-cheap", Runs: 2, Packets: 1, Seed: 3}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit error = %v, want ErrQueueFull", err)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, "draining flag", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})
	if _, _, err := s.Submit(Request{Scenario: "serve-cheap", Runs: 2, Packets: 1, Seed: 4}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining error = %v, want ErrDraining", err)
	}
	close(g.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range []*Job{gated, queued} {
		if state, _, _ := j.Snapshot(); state != JobDone {
			t.Errorf("after drain, job %s state = %v, want done", j.Campaign.Hash[:8], state)
		}
	}
}

// TestDrainTimeoutCancels proves the other drain arm: when the drain
// context expires, running jobs are canceled and released rather than
// held forever.
func TestDrainTimeoutCancels(t *testing.T) {
	g := armGate(t)
	s := New(Config{Runners: 1})
	j, _, err := s.Submit(Request{Scenario: "serve-gate", Runs: 1, Packets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired drain deadline: cancel everything immediately
	done := make(chan error, 1)
	go func() { done <- s.Drain(ctx) }()
	// Hold the gate until the drain has actually canceled the job —
	// releasing earlier would let this tiny campaign finish first.
	<-j.Context().Done()
	// The blocked step must still return before the engine can abort.
	close(g.release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("drain returned %v, want context.Canceled", err)
	}
	if got := s.metrics.JobsCanceled.Load(); got != 1 {
		t.Errorf("jobs canceled = %d, want 1", got)
	}
}

// TestStatusAndScenarioEndpoints smoke-tests the read-only surface.
func TestStatusAndScenarioEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []struct {
		Name    string   `json:"name"`
		Schemes []string `json:"schemes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scenarios); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, sc := range scenarios {
		if sc.Name == "alice-bob" {
			found = true
			if len(sc.Schemes) == 0 {
				t.Errorf("alice-bob lists no schemes")
			}
		}
	}
	if !found {
		t.Errorf("scenario listing omits alice-bob: %+v", scenarios)
	}

	if resp, err = http.Get(ts.URL + "/v1/campaigns/deadbeef"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown hash status %d, want 404", resp.StatusCode)
	}

	if resp, err = http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader([]byte(`{"scenario":"no-such"}`))); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scenario status %d, want 400", resp.StatusCode)
	}

	if resp, err = http.Get(ts.URL + "/metrics"); err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(metrics, []byte("ancserve_jobs_accepted_total")) {
		t.Errorf("metrics exposition missing job counter:\n%s", metrics)
	}
}
