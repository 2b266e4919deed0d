package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/topology"
)

// failSeedThreshold is where the registered-for-test scenario starts
// failing: seeds below it behave exactly like alice-bob, so the
// package's registry-wide sweeps (which use small seeds) pass, while the
// campaign error-path tests drive it with seeds at or above the
// threshold.
const failSeedThreshold = 100

// failStart is a registered-for-test scenario whose Start fails for
// seeds ≥ failSeedThreshold — the mid-campaign failure injection the
// error-path tests need. It is registered only in this package's test
// binary, so the experiments goldens and the CLI never see it.
type failStart struct{}

func (failStart) Name() string        { return "fail-start" }
func (failStart) Description() string { return "test-only: Start fails for seeds ≥ 100" }
func (failStart) Schemes() []Scheme   { return aliceBob.Schemes() }
func (failStart) Build(cfg topology.Config, rng *rand.Rand) *topology.Graph {
	return aliceBob.Build(cfg, rng)
}
func (failStart) Start(e *Env, scheme Scheme) (Stepper, error) {
	if e.Seed() >= failSeedThreshold {
		return nil, fmt.Errorf("fail-start: injected failure for seed %d", e.Seed())
	}
	return aliceBob.Start(e, scheme)
}

func init() { Register(failStart{}) }

// TestCampaignStreamMatchesCampaign pins the streamed rows to the
// materialized matrix for every registered scenario and scheme: the two
// surfaces are one campaign, delivered differently.
func TestCampaignStreamMatchesCampaign(t *testing.T) {
	seeds := []int64{5, 17, 23}
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			t.Parallel()
			eng := NewEngine(Config{Packets: 2})
			schemes := sc.Schemes()
			matrix, err := eng.Campaign(sc, schemes, seeds)
			if err != nil {
				t.Fatal(err)
			}
			streamed := make([][]Metrics, len(seeds))
			err = eng.CampaignStream(sc, schemes, seeds, SinkFunc(func(r Row) error {
				if r.Seed != seeds[r.Index] {
					t.Errorf("row %d carries seed %d, want %d", r.Index, r.Seed, seeds[r.Index])
				}
				streamed[r.Index] = r.Metrics
				return nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(matrix, streamed) {
				t.Errorf("streamed rows diverge from campaign matrix:\nmatrix:   %+v\nstreamed: %+v", matrix, streamed)
			}
		})
	}
}

// cheapScenario is a non-registered scenario with a trivial schedule, so
// large-seed-count campaign mechanics can be tested without paying for
// DSP. Metrics are a deterministic function of the seed, which the sink
// checks.
type cheapScenario struct {
	starts *atomic.Int64 // optional Start counter
}

func (cheapScenario) Name() string        { return "cheap" }
func (cheapScenario) Description() string { return "test-only: trivial deterministic schedule" }
func (cheapScenario) Schemes() []Scheme   { return []Scheme{SchemeANC} }
func (cheapScenario) Build(cfg topology.Config, rng *rand.Rand) *topology.Graph {
	return topology.AliceBob(cfg, rng)
}
func (s cheapScenario) Start(e *Env, scheme Scheme) (Stepper, error) {
	if s.starts != nil {
		s.starts.Add(1)
	}
	seed := e.Seed()
	return StepFunc(func(i int, r Recorder) {
		r.RecordAirTime(float64(1 + i))
		r.RecordDelivered(float64(seed % 97))
	}), nil
}

func cheapMetrics(seed int64, packets int) Metrics {
	var m Metrics
	for i := 0; i < packets; i++ {
		m.RecordAirTime(float64(1 + i))
		m.RecordDelivered(float64(seed % 97))
	}
	return m
}

// TestCampaignStreamInOrderThousandSeeds runs a 1000-seed streaming
// campaign and verifies every row arrives exactly once, in seed order,
// carrying the metrics of its seed — the constant-memory path delivering
// the identical results a materialized matrix would.
func TestCampaignStreamInOrderThousandSeeds(t *testing.T) {
	const packets = 2
	seeds := make([]int64, 1000)
	for i := range seeds {
		seeds[i] = int64(i*13 + 1)
	}
	eng := NewEngine(Config{Packets: packets})
	next := 0
	err := eng.CampaignStream(cheapScenario{}, []Scheme{SchemeANC}, seeds, SinkFunc(func(r Row) error {
		if r.Index != next {
			return fmt.Errorf("row index %d arrived, want %d (out of order)", r.Index, next)
		}
		if r.Seed != seeds[r.Index] {
			return fmt.Errorf("row %d carries seed %d, want %d", r.Index, r.Seed, seeds[r.Index])
		}
		if want := cheapMetrics(r.Seed, packets); !reflect.DeepEqual(r.Metrics[0], want) {
			return fmt.Errorf("row %d metrics %+v, want %+v", r.Index, r.Metrics[0], want)
		}
		next++
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if next != len(seeds) {
		t.Fatalf("sink consumed %d rows, want %d", next, len(seeds))
	}
}

// TestCampaignStreamBoundedRunAhead verifies the O(workers) in-flight
// guarantee: with the sink blocked on the first row, the workers may run
// ahead only as far as the admission window — they must not race
// through the whole seed list materializing rows.
func TestCampaignStreamBoundedRunAhead(t *testing.T) {
	var starts atomic.Int64
	sc := cheapScenario{starts: &starts}
	workers := runtime.GOMAXPROCS(0)
	window := campaignWindow(workers)
	seeds := make([]int64, 20*window)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	release := make(chan struct{})
	eng := NewEngine(Config{Packets: 1})
	got := 0
	done := make(chan error, 1)
	go func() {
		done <- eng.CampaignStream(sc, []Scheme{SchemeANC}, seeds, SinkFunc(func(r Row) error {
			if got == 0 {
				<-release // hold the emitter: workers keep running ahead
			}
			got++
			return nil
		}))
	}()

	// Wait until the run-ahead stalls: the start counter stops moving.
	last := int64(-1)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		cur := starts.Load()
		if cur == last && cur > 0 {
			break
		}
		last = cur
		time.Sleep(20 * time.Millisecond)
	}
	if stalled := starts.Load(); stalled > int64(window) {
		t.Errorf("workers started %d runs with the sink blocked; admission window is %d", stalled, window)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got != len(seeds) {
		t.Fatalf("sink consumed %d rows, want %d", got, len(seeds))
	}
	if total := starts.Load(); total != int64(len(seeds)) {
		t.Errorf("%d runs started, want %d", total, len(seeds))
	}
}

// TestCampaignErrorPaths drives the registered-for-test fail-start
// scenario through both campaign surfaces with a failure mid-seed-list:
// both must return the first (lowest-index) error without deadlocking,
// and the stream must have delivered exactly the rows before the
// failure.
func TestCampaignErrorPaths(t *testing.T) {
	sc := MustScenario("fail-start")
	schemes := []Scheme{SchemeANC, SchemeRouting}
	seeds := []int64{1, 7, failSeedThreshold + 5, failSeedThreshold + 6, 9, 11}
	eng := NewEngine(Config{Packets: 1})

	rows, err := eng.Campaign(sc, schemes, seeds)
	if err == nil {
		t.Fatal("Campaign returned nil error with a failing seed")
	}
	if rows != nil {
		t.Errorf("Campaign returned rows alongside error: %+v", rows)
	}
	wantMsg := fmt.Sprintf("seed %d", failSeedThreshold+5)
	if !strings.Contains(err.Error(), wantMsg) {
		t.Errorf("Campaign error %q does not name the first failing seed (%s)", err, wantMsg)
	}

	var delivered []int
	err = eng.CampaignStream(sc, schemes, seeds, SinkFunc(func(r Row) error {
		delivered = append(delivered, r.Index)
		return nil
	}))
	if err == nil {
		t.Fatal("CampaignStream returned nil error with a failing seed")
	}
	if !strings.Contains(err.Error(), wantMsg) {
		t.Errorf("CampaignStream error %q does not name the first failing seed (%s)", err, wantMsg)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(delivered, want) {
		t.Errorf("rows delivered before the failure: %v, want %v", delivered, want)
	}
}

// TestCampaignStreamSinkError verifies a sink error stops the campaign
// and surfaces as the return value.
func TestCampaignStreamSinkError(t *testing.T) {
	seeds := make([]int64, 64)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	eng := NewEngine(Config{Packets: 1})
	sinkErr := errors.New("sink full")
	got := 0
	err := eng.CampaignStream(cheapScenario{}, []Scheme{SchemeANC}, seeds, SinkFunc(func(r Row) error {
		got++
		if got == 3 {
			return sinkErr
		}
		return nil
	}))
	if !errors.Is(err, sinkErr) {
		t.Fatalf("CampaignStream error = %v, want the sink's", err)
	}
	if got != 3 {
		t.Errorf("sink consumed %d rows after erroring at 3", got)
	}
}

// TestCampaignStreamRejectsUnsupportedScheme mirrors the Campaign check.
func TestCampaignStreamRejectsUnsupportedScheme(t *testing.T) {
	eng := NewEngine(Config{Packets: 1})
	err := eng.CampaignStream(Chain(), []Scheme{SchemeANC, SchemeCOPE}, []int64{1},
		SinkFunc(func(Row) error { return nil }))
	if err == nil {
		t.Fatal("stream accepted an unsupported scheme")
	}
}

// TestCampaignStreamPreCanceledContext verifies an already-canceled
// context starts nothing: no runs, no sink calls, ctx.Err() returned.
func TestCampaignStreamPreCanceledContext(t *testing.T) {
	var starts atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := NewEngine(Config{Packets: 1})
	err := eng.CampaignStream(cheapScenario{starts: &starts}, []Scheme{SchemeANC}, []int64{1, 2, 3},
		SinkFunc(func(Row) error { return fmt.Errorf("sink must not be called") }),
		WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CampaignStream error = %v, want context.Canceled", err)
	}
	if n := starts.Load(); n != 0 {
		t.Errorf("%d runs started under a pre-canceled context", n)
	}
}

// TestCampaignStreamContextCancelMidStream cancels the campaign from the
// sink a few rows in: the stream must stop promptly with
// context.Canceled — a clean error, not a deadlock — after delivering
// only in-order rows.
func TestCampaignStreamContextCancelMidStream(t *testing.T) {
	seeds := make([]int64, 512)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := NewEngine(Config{Packets: 1})
	got := 0
	err := eng.CampaignStream(cheapScenario{}, []Scheme{SchemeANC}, seeds, SinkFunc(func(r Row) error {
		if r.Index != got {
			return fmt.Errorf("row %d arrived, want %d", r.Index, got)
		}
		got++
		if got == 3 {
			cancel()
		}
		return nil
	}), WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CampaignStream error = %v, want context.Canceled", err)
	}
	if got < 3 || got == len(seeds) {
		t.Errorf("sink consumed %d rows; want ≥ 3 (cancel point) and < %d (full campaign)", got, len(seeds))
	}
}

// TestCampaignStreamContextCancelAfterLastRow pins the completion
// semantics: a context canceled while the final row is at the sink does
// not turn a fully delivered campaign into an error.
func TestCampaignStreamContextCancelAfterLastRow(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := NewEngine(Config{Packets: 1})
	got := 0
	err := eng.CampaignStream(cheapScenario{}, []Scheme{SchemeANC}, seeds, SinkFunc(func(r Row) error {
		got++
		if got == len(seeds) {
			cancel()
		}
		return nil
	}), WithContext(ctx))
	if err != nil {
		t.Fatalf("fully delivered campaign returned %v, want nil", err)
	}
	if got != len(seeds) {
		t.Fatalf("sink consumed %d rows, want %d", got, len(seeds))
	}
}

// gateScenario blocks its first schedule slot until released, so a test
// can cancel a context while a run is provably in flight.
type gateScenario struct {
	started chan struct{} // closed when the first slot begins
	release chan struct{} // the first slot waits for this
}

func (gateScenario) Name() string        { return "gate" }
func (gateScenario) Description() string { return "test-only: first slot blocks until released" }
func (gateScenario) Schemes() []Scheme   { return []Scheme{SchemeANC} }
func (gateScenario) Build(cfg topology.Config, rng *rand.Rand) *topology.Graph {
	return topology.AliceBob(cfg, rng)
}
func (g gateScenario) Start(e *Env, scheme Scheme) (Stepper, error) {
	return StepFunc(func(i int, r Recorder) {
		if i == 0 {
			close(g.started)
			<-g.release
		}
	}), nil
}

// TestRunRecordingCancelMidRun cancels a context while a run is
// inside its schedule: the run loop must abort at the next slot boundary
// with ctx.Err(), however many packets remain.
func TestRunRecordingCancelMidRun(t *testing.T) {
	g := gateScenario{started: make(chan struct{}), release: make(chan struct{})}
	eng := NewEngine(Config{Packets: 100000})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		var m Metrics
		done <- eng.runRecording(ctx, g, SchemeANC, 1, &m, nil)
	}()
	<-g.started // the run is mid-slot now
	cancel()
	close(g.release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("runRecording error = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled run did not return within 10s (deadlock)")
	}
}

// TestCampaignStreamContextCancelMidRun is the same guarantee one layer
// up: cancellation reaches a worker's in-flight run through the stream
// option and the campaign returns promptly.
func TestCampaignStreamContextCancelMidRun(t *testing.T) {
	g := gateScenario{started: make(chan struct{}), release: make(chan struct{})}
	eng := NewEngine(Config{Packets: 100000})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- eng.CampaignStream(g, []Scheme{SchemeANC}, []int64{1},
			SinkFunc(func(Row) error { return nil }), WithContext(ctx))
	}()
	<-g.started
	cancel()
	close(g.release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("CampaignStream error = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled campaign did not return within 10s (deadlock)")
	}
}

// TestTraceRecorderRetainsLinkStates runs alice-bob once under a
// TraceRecorder and checks the channel observations: every directed edge
// traced, one gain per schedule slot, static realizations constant
// across slots — and the embedded Metrics identical to a plain run.
func TestTraceRecorderRetainsLinkStates(t *testing.T) {
	cfg := Config{Packets: 3}
	eng := NewEngine(cfg)
	tr := NewTraceRecorder()
	if err := eng.RunRecording(AliceBob(), SchemeANC, 7, tr, nil); err != nil {
		t.Fatal(err)
	}
	plain, err := eng.Run(AliceBob(), SchemeANC, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Metrics, plain) {
		t.Errorf("trace recorder metrics %+v diverge from plain run %+v", tr.Metrics, plain)
	}
	traces := tr.Traces()
	if len(traces) != 4 { // alice↔router, bob↔router
		t.Fatalf("%d link traces, want 4: %+v", len(traces), traces)
	}
	for _, lt := range traces {
		if len(lt.Gains) != 3 {
			t.Errorf("edge %d→%d traced %d slots, want 3", lt.From, lt.To, len(lt.Gains))
		}
		for _, g := range lt.Gains {
			if g <= 0 {
				t.Errorf("edge %d→%d has non-positive gain %v", lt.From, lt.To, g)
			}
			if g != lt.Gains[0] {
				t.Errorf("static channel drifted within a run: edge %d→%d gains %v", lt.From, lt.To, lt.Gains)
			}
		}
	}

	// Under block fading with one-slot coherence, the trace must vary.
	fadingTr := NewTraceRecorder()
	if err := eng.RunRecording(MustScenario("fading"), SchemeANC, 7, fadingTr, nil); err != nil {
		t.Fatal(err)
	}
	varied := false
	for _, lt := range fadingTr.Traces() {
		for _, g := range lt.Gains {
			if g != lt.Gains[0] {
				varied = true
			}
		}
	}
	if !varied {
		t.Error("fading scenario produced constant link traces")
	}
}

// TestMetricsRecorder pins the default Recorder's folding rules: the
// typed observations land in exactly the fields the old field-poking
// steppers mutated.
func TestMetricsRecorder(t *testing.T) {
	var m Metrics
	m.RecordDelivered(100)
	m.RecordDelivered(50)
	m.RecordLost(2)
	m.RecordLost(0)
	m.RecordANCDecode(0.01)
	m.RecordCollision(0.8)
	m.RecordAirTime(10)
	m.RecordAirTime(5)
	m.RecordLinkState(0, 0, 1, 0.5) // must be a no-op
	want := Metrics{
		DeliveredBits: 150, TimeSamples: 15,
		BERs: []float64{0.01}, Overlaps: []float64{0.8},
		Delivered: 2, Lost: 2,
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("metrics after recording: %+v, want %+v", m, want)
	}
}

// TestCampaignStreamWithLinkTraces checks the traced streaming path:
// every row carries one TraceRecorder per scheme whose Metrics equal the
// row's.
func TestCampaignStreamWithLinkTraces(t *testing.T) {
	seeds := []int64{3, 9}
	eng := NewEngine(Config{Packets: 2})
	sc := AliceBob()
	schemes := sc.Schemes()
	rows := 0
	err := eng.CampaignStream(sc, schemes, seeds, SinkFunc(func(r Row) error {
		rows++
		if len(r.Traces) != len(schemes) {
			return fmt.Errorf("row %d has %d traces, want %d", r.Index, len(r.Traces), len(schemes))
		}
		for j, tr := range r.Traces {
			if !reflect.DeepEqual(tr.Metrics, r.Metrics[j]) {
				return fmt.Errorf("row %d scheme %d: trace metrics diverge from row metrics", r.Index, j)
			}
			if len(tr.Traces()) == 0 {
				return fmt.Errorf("row %d scheme %d: no link traces", r.Index, j)
			}
		}
		return nil
	}), WithLinkTraces())
	if err != nil {
		t.Fatal(err)
	}
	if rows != len(seeds) {
		t.Fatalf("%d rows, want %d", rows, len(seeds))
	}
}
