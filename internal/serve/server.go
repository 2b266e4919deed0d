package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// Config parameterizes the daemon. The zero value serves with sensible
// defaults (see withDefaults).
type Config struct {
	// Workers is the engine worker-goroutine count per job; ≤ 0 means
	// GOMAXPROCS. Scheduling only — the bytes are identical at any count.
	Workers int
	// QueueDepth bounds admitted-but-not-running jobs; a submission
	// beyond it is rejected with ErrQueueFull (HTTP 503), which is the
	// backpressure contract: reject loudly, never buffer unboundedly.
	QueueDepth int
	// Runners is the number of concurrently executing jobs.
	Runners int
	// CacheBytes budgets the retained bytes of completed campaign
	// streams (LRU-evicted; see cache).
	CacheBytes int64
	// WriteTimeout is the per-line write deadline after which a slow
	// subscriber is evicted.
	WriteTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Runners <= 0 {
		c.Runners = 2
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	return c
}

// Submission rejections the HTTP layer maps to 503 Service Unavailable.
var (
	// ErrQueueFull: the bounded job queue is at capacity.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining: the server is shutting down and accepts no new jobs.
	ErrDraining = errors.New("serve: server is draining")
)

// Server is the campaign daemon: a bounded job queue executing each
// distinct campaign once, a content-addressed cache fanning the stream
// out to every subscriber asking for the same canonical hash, and the
// HTTP surface over both. It implements http.Handler.
type Server struct {
	cfg     Config
	metrics Metrics
	mux     *http.ServeMux

	mu       sync.Mutex
	cache    *cache
	draining bool

	pending chan *Job
	jobs    sync.WaitGroup // admitted jobs not yet finished
	runners sync.WaitGroup // runner goroutines
	quit    chan struct{}
	once    sync.Once
}

// New builds a Server and starts its runner pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newCache(cfg.CacheBytes),
		pending: make(chan *Job, cfg.QueueDepth),
		quit:    make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.routes()
	for i := 0; i < cfg.Runners; i++ {
		s.runners.Add(1)
		go s.runner()
	}
	return s
}

// Metrics exposes the server's instrumentation (shared, read with the
// atomics' Load).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Submit resolves and admits a campaign request. A request whose
// canonical hash matches a queued, running, or completed job attaches
// to that job — one engine run, many subscribers — reported by
// hit=true. Misses create and enqueue a new job. Admission is atomic:
// a full queue rejects with ErrQueueFull and leaves no trace.
func (s *Server) Submit(req Request) (job *Job, hit bool, err error) {
	camp, err := req.Resolve(s.cfg.Workers)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, ErrDraining
	}
	if j, ok := s.cache.lookup(camp.Hash); ok {
		s.metrics.CacheHits.Add(1)
		return j, true, nil
	}
	j := newJob(camp)
	select {
	case s.pending <- j:
	default:
		return nil, false, ErrQueueFull
	}
	s.cache.insert(camp.Hash, j)
	s.metrics.CacheMisses.Add(1)
	s.metrics.JobsAccepted.Add(1)
	s.metrics.QueueDepth.Add(1)
	s.jobs.Add(1)
	return j, false, nil
}

// Lookup returns the job for a canonical hash, if live.
func (s *Server) Lookup(hash string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.lookup(hash)
}

// Cancel aborts the job with the given hash. The engine releases its
// workers within one slot batch; subscribers wake with the job error.
func (s *Server) Cancel(hash string) bool {
	j, ok := s.Lookup(hash)
	if !ok {
		return false
	}
	j.Cancel()
	return true
}

func (s *Server) runner() {
	defer s.runners.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.pending:
			s.runJob(j)
		}
	}
}

func (s *Server) runJob(j *Job) {
	defer s.jobs.Done()
	s.metrics.QueueDepth.Add(-1)
	s.metrics.RunningJobs.Add(1)
	defer s.metrics.RunningJobs.Add(-1)
	j.setState(JobRunning)
	start := time.Now()
	rows := j.Campaign.Rows
	emitted := 0
	err := j.Campaign.streamer.Stream(j.ctx, func(line []byte) error {
		j.append(line)
		if emitted < rows {
			s.metrics.RowsStreamed.Add(1)
		}
		emitted++
		return nil
	})
	state := j.finish(err)
	s.metrics.ObserveJob(time.Since(start))
	switch state {
	case JobDone:
		s.metrics.JobsCompleted.Add(1)
	case JobCanceled:
		s.metrics.JobsCanceled.Add(1)
	default:
		s.metrics.JobsFailed.Add(1)
	}
	s.mu.Lock()
	if state == JobDone {
		s.cache.finalize(j, j.Campaign.Hash)
	} else {
		// A failed or canceled job's lines are a prefix, never a
		// campaign; it must not answer later requests.
		s.cache.remove(j.Campaign.Hash)
	}
	s.metrics.CacheBytes.Store(s.cache.bytes)
	s.mu.Unlock()
}

// cancelAll aborts every unfinished job.
func (s *Server) cancelAll() {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.cache.jobs))
	for e := s.cache.lru.Front(); e != nil; e = e.Next() {
		jobs = append(jobs, e.Value.(*cacheEntry).job)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
}

// Drain shuts the server down gracefully: new submissions are rejected
// with ErrDraining immediately, admitted jobs run to completion, and
// the runner pool exits once the queue is empty. If ctx expires first,
// every unfinished job is canceled — the engine aborts within one slot
// batch — and Drain waits for the (now fast) completions. Safe to call
// once; Close is Drain with an expired context.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelAll()
		<-done
	}
	s.once.Do(func() { close(s.quit) })
	s.runners.Wait()
	return err
}

// Close shuts down immediately: cancels all jobs, waits for them.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)
	return nil
}

// --- HTTP surface ---

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.WriteTo(w)
	})
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns/{hash}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/campaigns/{hash}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/campaigns/{hash}/stream", s.handleStream)
	s.mux.HandleFunc("POST /v1/stream", s.handleSubmitStream)
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// submitStatus maps a Submit error to its HTTP status.
func submitStatus(err error) int {
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func decodeRequest(r *http.Request) (Request, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("serve: decoding request: %v", err)
	}
	return req, nil
}

// jobStatus is the JSON shape of a job's externally visible state.
type jobStatus struct {
	Hash    string   `json:"hash"`
	State   string   `json:"state"`
	Rows    int      `json:"rows"`
	Lines   int      `json:"lines"`
	Runs    int      `json:"runs"`
	Schemes []string `json:"schemes"`
	Modem   string   `json:"modem"`
	Cached  bool     `json:"cached,omitempty"`
	Error   string   `json:"error,omitempty"`
}

func statusOf(j *Job, hit bool) jobStatus {
	state, lines, err := j.Snapshot()
	st := jobStatus{
		Hash:    j.Campaign.Hash,
		State:   state.String(),
		Rows:    j.Campaign.Rows,
		Lines:   lines,
		Runs:    j.Campaign.Req.Runs,
		Modem:   j.Campaign.Modem,
		Cached:  hit,
		Schemes: make([]string, len(j.Campaign.Schemes)),
	}
	for i, sc := range j.Campaign.Schemes {
		st.Schemes[i] = string(sc)
	}
	if err != nil {
		st.Error = err.Error()
	}
	return st
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name        string   `json:"name"`
		Description string   `json:"description"`
		Schemes     []string `json:"schemes"`
		Modem       string   `json:"modem"`
	}
	var out []entry
	for _, sc := range sim.Scenarios() { // sorted by name
		schemes, err := experiments.CampaignSchemes(sc.Name(), nil)
		if err != nil {
			continue // a scenario outside the default framing is not servable
		}
		e := entry{
			Name:        sc.Name(),
			Description: sc.Description(),
			Schemes:     make([]string, len(schemes)),
			Modem:       sim.EffectiveModemName(sc, sim.Config{}),
		}
		for i, sch := range schemes {
			e.Schemes[i] = string(sch)
		}
		out = append(out, e)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	j, hit, err := s.Submit(req)
	if err != nil {
		jsonError(w, submitStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if !hit {
		w.WriteHeader(http.StatusAccepted)
	}
	json.NewEncoder(w).Encode(statusOf(j, hit))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Lookup(r.PathValue("hash"))
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Errorf("serve: unknown campaign %q", r.PathValue("hash")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statusOf(j, false))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !s.Cancel(hash) {
		jsonError(w, http.StatusNotFound, fmt.Errorf("serve: unknown campaign %q", hash))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"hash": hash, "state": "canceling"})
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Lookup(r.PathValue("hash"))
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Errorf("serve: unknown campaign %q", r.PathValue("hash")))
		return
	}
	s.streamNDJSON(w, r, j)
}

func (s *Server) handleSubmitStream(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	j, _, err := s.Submit(req)
	if err != nil {
		jsonError(w, submitStatus(err), err)
		return
	}
	s.streamNDJSON(w, r, j)
}

// ndjsonWriter frames lines for a chunked HTTP response, flushing each
// so subscribers observe rows as the engine produces them.
type ndjsonWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (nw *ndjsonWriter) WriteLine(deadline time.Time, line []byte) error {
	if err := nw.rc.SetWriteDeadline(deadline); err != nil {
		return err
	}
	if _, err := nw.w.Write(line); err != nil {
		return err
	}
	if _, err := nw.w.Write([]byte{'\n'}); err != nil {
		return err
	}
	return nw.rc.Flush()
}

func (s *Server) streamNDJSON(w http.ResponseWriter, r *http.Request, j *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Ancserve-Hash", j.Campaign.Hash)
	w.WriteHeader(http.StatusOK)
	sub := j.Subscribe()
	// Errors past this point cannot change the status line; the stream
	// just ends early, which NDJSON consumers detect by the missing
	// trailing summary record.
	s.pump(r.Context(), sub, &ndjsonWriter{w: w, rc: http.NewResponseController(w)})
}
