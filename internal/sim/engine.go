package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/phy"
	"repro/internal/radio"
)

// Scratch is the per-worker reusable storage of a campaign: free lists of
// reception and transmitted-frame sample buffers plus one decoder
// Workspace shared by every node of every run the worker executes. One run
// of the Alice–Bob exchange modulates two or more frames and synthesizes
// three receptions of ~frame-length complex-baseband samples per packet;
// without reuse a multi-run campaign re-allocates (and re-zeroes via GC)
// hundreds of megabytes of slices, and without the shared workspace every
// decode re-allocates its profile/∆φ/bit buffers. Each campaign worker
// owns one Scratch and reuses it across every run it executes, so once
// warmed the in-package scenarios allocate no sample or decode buffers.
//
// Decode results live one slot too: every Result an in-package schedule
// obtains is released to the workspace when the slot's step returns, so
// the next slot's decodes reuse it, and the pooled nodes' Sent Packet
// Buffers reuse their frame bits run after run (radio.Node.Reset). A
// warmed worker therefore allocates no frame bits and no Results either.
// Out-of-package scenarios, which transmit through Node.BuildFrame and
// decode through Node.Receive, still allocate their frames' samples, and
// their Results are never released.
//
// A Scratch is not safe for concurrent use; the Engine gives each worker
// its own.
type Scratch struct {
	free []dsp.Signal
	ws   *core.Workspace

	// The frames transmitted in the current schedule slot, in build order
	// (see Env.buildFrame), and the exact-length sample buffers of earlier
	// slots' frames. runRecording moves every slot frame's buffer to
	// freeFrames once the slot's step returns.
	frames     []slotFrame
	freeFrames []dsp.Signal

	// results are the decode results of the current slot, which endSlot
	// releases to the workspace.
	results []*core.Result

	// batch is the slot decode burst (see slotBatch). sequentialDecodes
	// forces the flush to call Decode per item instead of DecodeBatch —
	// the hook the batched==sequential equivalence tests flip.
	// poisonReleased overwrites every sample buffer with NaN as it returns
	// to a free list, and every released Result's WantedBits and payload,
	// and the bits of the frames the engine built once the run's nodes
	// recycle them, with 0xFF — the hook that proves no schedule reads a
	// frame, reception or result after releasing it, and that recycled
	// frame bits are overwritten before use. builtBits holds those frame
	// bits until then. recycleNothing releases no Result and recycles no
	// frame bits (the nodes shed their buffers instead of resetting them)
	// — the reference the recycling is compared against. Node.Overhear
	// still recycles the attempt it discards, which no caller sees.
	batch             slotBatch
	sequentialDecodes bool
	poisonReleased    bool
	builtBits         [][]byte
	recycleNothing    bool

	// Per-run construction pool (see newEnv): the run RNG is reseeded,
	// pooled nodes are Reset, the noise source is rewound and the Env
	// shell is overwritten, so a campaign worker's steady state builds
	// nothing per run except the topology graph — whose construction
	// draws from the run RNG and is therefore inherently per-run.
	rng      *rand.Rand
	noiseSrc *dsp.NoiseSource
	env      *Env
	modem    phy.Modem
	modemKey modemKey
	nodes    []*radio.Node
	nodesKey nodesKey

	// Carrier-offset rotation tables of the current run, one per distinct
	// offset Ω (see channel.Transmission.Rotation). A link's offset is
	// fixed for a run, so e^{iΩn} is computed once per run instead of once
	// per reception. newEnv empties the set and sets rotCap, the length of
	// the run's longest standard reception; the tables' storage is kept
	// for the next run.
	rots   []rotationTable
	nrots  int
	rotCap int
	// txs is the reception's transmission list with tables attached.
	txs []channel.Transmission
}

// rotationTable is the rotation e^{iωn} of one offset ω, filled as far as
// the longest signal sent over it so far.
type rotationTable struct {
	omega float64
	table []complex128
}

// rotation returns the run's rotation table for carrier offset omega,
// extended to at least n entries. A table too short for n is reallocated
// with room for rotCap entries, so a link carrying both frames and longer
// relayed collisions does not regrow.
func (s *Scratch) rotation(omega float64, n int) []complex128 {
	var r *rotationTable
	for i := range s.rots[:s.nrots] {
		if s.rots[i].omega == omega {
			r = &s.rots[i]
			break
		}
	}
	if r == nil {
		if s.nrots == len(s.rots) {
			s.rots = append(s.rots, rotationTable{})
		}
		r = &s.rots[s.nrots]
		s.nrots++
		r.omega, r.table = omega, r.table[:0]
	}
	if have := len(r.table); have < n {
		if cap(r.table) < n {
			grown := make([]complex128, have, max(n, s.rotCap))
			copy(grown, r.table)
			r.table = grown
		}
		r.table = channel.FillRotation(r.table[:n], omega, have)
	}
	return r.table
}

// withRotations returns txs with each carrier-offset transmission's run
// rotation table attached. It copies into the scratch's own list, so the
// caller's slice never holds a table that a later run overwrites.
func (s *Scratch) withRotations(txs []channel.Transmission) []channel.Transmission {
	s.txs = append(s.txs[:0], txs...)
	for i := range s.txs {
		tx := &s.txs[i]
		if tx.Link.FreqOffset != 0 && tx.Rotation == nil {
			tx.Rotation = s.rotation(tx.Link.FreqOffset, len(tx.Signal))
		}
	}
	return s.txs
}

// modemKey identifies a pooled modem instance.
type modemKey struct {
	name string
	sps  int
}

// nodesKey identifies the decoder configuration a pooled node set was
// built for; any mismatch rebuilds the set.
type nodesKey struct {
	name      string
	sps       int
	floor     float64
	frameBits int
}

// runRNG returns the worker's run RNG reseeded to seed. Seed fully resets
// a rand.Rand (including its Read state), so the pooled generator's draws
// are bit-identical to a fresh rand.New(rand.NewSource(seed)).
func (s *Scratch) runRNG(seed int64) *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
		return s.rng
	}
	s.rng.Seed(seed)
	return s.rng
}

// modemFor returns a pooled modem instance for (name, sps). Modems are
// stateless, so one instance per configuration serves every run.
func (s *Scratch) modemFor(name string, sps int) phy.Modem {
	key := modemKey{name: name, sps: sps}
	if s.modem == nil || s.modemKey != key {
		s.modem = phy.MustNew(name, sps)
		s.modemKey = key
	}
	return s.modem
}

// noiseSourceFor returns the worker's pooled noise source set to the given
// power. Env.noise reseeds the generator before every reception, so state
// carried over from a previous run never leaks into this one's samples.
func (s *Scratch) noiseSourceFor(power float64) *dsp.NoiseSource {
	if s.noiseSrc == nil {
		s.noiseSrc = dsp.NewNoiseSource(power, 0)
		return s.noiseSrc
	}
	s.noiseSrc.SetPower(power)
	return s.noiseSrc
}

// nodesFor returns n run-ready nodes for the given decoder parameters,
// reusing the pooled set (each node Reset to a fresh-run state) when the
// configuration matches the previous run's. Runs with a DecoderTweak
// always build fresh nodes: two distinct closures can share one function
// pointer (parameterized tweaks from the same literal), so no key can
// safely establish a tweak's identity.
func (s *Scratch) nodesFor(cfg Config, name string, modem phy.Modem, floor float64, frameBits, n int) []*radio.Node {
	opt := func(c *core.Config) {
		c.FallbackFrameBits = frameBits
		if cfg.DecoderTweak != nil {
			cfg.DecoderTweak(c)
		}
	}
	if cfg.DecoderTweak != nil {
		nodes := make([]*radio.Node, n)
		for i := range nodes {
			nodes[i] = radio.NewNode(uint16(i+1), modem, floor, opt)
		}
		return nodes
	}
	key := nodesKey{name: name, sps: modem.SamplesPerSymbol(), floor: floor, frameBits: frameBits}
	if s.nodesKey != key {
		s.nodes = s.nodes[:0]
		s.nodesKey = key
	}
	for len(s.nodes) < n {
		s.nodes = append(s.nodes, radio.NewNode(uint16(len(s.nodes)+1), modem, floor, opt))
	}
	nodes := s.nodes[:n]
	for _, b := range s.builtBits {
		poisonBytes(b)
	}
	clear(s.builtBits)
	s.builtBits = s.builtBits[:0]
	for _, nd := range nodes {
		if s.recycleNothing {
			nd.Shed()
		} else {
			nd.Reset()
		}
	}
	return nodes
}

// envShell returns the worker's reusable Env allocation; newEnv overwrites
// every field per run.
func (s *Scratch) envShell() *Env {
	if s.env == nil {
		s.env = &Env{}
	}
	return s.env
}

// NewScratch returns an empty buffer pool.
func NewScratch() *Scratch { return &Scratch{} }

// Workspace returns the scratch's decoder workspace, created on first use.
// newEnv attaches it to every node of a run, extending the buffer-reuse
// discipline from reception synthesis down through the decode stack.
func (s *Scratch) Workspace() *core.Workspace {
	if s.ws == nil {
		s.ws = core.NewWorkspace()
	}
	return s.ws
}

// takeQuantum is the capacity granularity of fresh take allocations:
// 4096 samples (64 KiB of complex128).
const takeQuantum = 1 << 12

// take returns a buffer with capacity at least n (contents undefined; the
// users overwrite every sample). Fresh allocations round their capacity up
// to the next takeQuantum multiple: reception lengths creep upward as the
// per-packet delay draw varies, and slot batching keeps every reception of
// a slot live at once, so without rounding each concurrently live buffer
// would reallocate at every new maximum instead of converging on one
// pooled allocation.
func (s *Scratch) take(n int) dsp.Signal {
	for i, b := range s.free {
		if cap(b) >= n {
			last := len(s.free) - 1
			s.free[i] = s.free[last]
			s.free[last] = nil
			s.free = s.free[:last]
			return b[:n]
		}
	}
	return make(dsp.Signal, n, (n+takeQuantum-1)&^(takeQuantum-1))
}

// give returns a buffer to the pool.
func (s *Scratch) give(b dsp.Signal) {
	if cap(b) == 0 {
		return
	}
	s.free = append(s.free, s.dead(b[:cap(b)]))
}

// dead marks a buffer released: with poisonReleased set every sample
// becomes NaN, so a later read of it corrupts the output visibly.
func (s *Scratch) dead(b dsp.Signal) dsp.Signal {
	if s.poisonReleased {
		nan := math.NaN()
		for i := range b {
			b[i] = complex(nan, nan)
		}
	}
	return b
}

// poisonBytes overwrites b with 0xFF, which is no bit value.
func poisonBytes(b []byte) {
	for i := range b {
		b[i] = 0xFF
	}
}

// slotFrame is one frame transmitted in the current slot: its bits and
// the samples modulated from them.
type slotFrame struct {
	bits    []byte
	samples dsp.Signal
}

// frameSamples returns the samples of frame bits bs under the run's modem
// m for the current slot: those of a frame with byte-equal bits already
// modulated this slot, else bs modulated into a pooled buffer.
func (s *Scratch) frameSamples(m core.PhyModem, bs []byte) dsp.Signal {
	for _, f := range s.frames {
		if bytes.Equal(f.bits, bs) {
			return f.samples
		}
	}
	samples := m.ModulateInto(s.takeFrame(m.NumSamples(len(bs))), bs)
	s.frames = append(s.frames, slotFrame{bits: bs, samples: samples})
	return samples
}

// takeFrame returns a frame buffer of length n (contents undefined). Fresh
// buffers are exactly n samples long: a run's frames all have one length,
// so the list settles at as many buffers as the busiest slot sends.
func (s *Scratch) takeFrame(n int) dsp.Signal {
	for i, b := range s.freeFrames {
		if cap(b) >= n {
			last := len(s.freeFrames) - 1
			s.freeFrames[i] = s.freeFrames[last]
			s.freeFrames[last] = nil
			s.freeFrames = s.freeFrames[:last]
			return b[:n]
		}
	}
	return make(dsp.Signal, n)
}

// shed drops the reception and frame buffers, the rotation tables and the
// nodes' frame bits, so an idle Scratch keeps only its run-construction
// state (RNG, noise source, modem, nodes and decoders, Env shell) and its
// decode workspace. The package list of worker Scratches keeps a shed
// Scratch through the gap between two ancserve jobs. Holding its sample
// buffers through that gap raised serve-mixed's peak heap by about a
// fifth; the next campaign rebuilds them in its first slots.
func (s *Scratch) shed() {
	clear(s.free)
	clear(s.freeFrames)
	s.free, s.freeFrames = s.free[:0], s.freeFrames[:0]
	s.rots, s.nrots = nil, 0
	for _, nd := range s.nodes {
		nd.Shed()
	}
	clear(s.builtBits)
	s.builtBits = s.builtBits[:0]
}

// releaseAtSlotEnd hands a decode result of the current slot to endSlot,
// which releases it to the workspace. A nil res is ignored.
func (s *Scratch) releaseAtSlotEnd(res *core.Result) {
	if res != nil {
		s.results = append(s.results, res)
	}
}

// endSlot releases the slot's frames and decode results: frame buffers
// return to the frame free list, so the next slot shares no samples with
// this one, and Results return to the workspace for the next slot's
// decodes.
func (s *Scratch) endSlot() {
	for i := range s.frames {
		s.freeFrames = append(s.freeFrames, s.dead(s.frames[i].samples))
		s.frames[i] = slotFrame{}
	}
	s.frames = s.frames[:0]
	for i, res := range s.results {
		if s.poisonReleased {
			poisonBytes(res.WantedBits)
			poisonBytes(res.Packet.Payload)
		}
		if !s.recycleNothing {
			s.Workspace().Release(res)
		}
		s.results[i] = nil
	}
	s.results = s.results[:0]
}

// Engine runs scenarios: it owns the shared machinery every workload
// needs — per-run seeding, channel realization and node construction
// (via newEnv), reusable reception buffers, and the campaign worker pool
// — while the Scenario contributes only its topology and per-slot
// schedules.
type Engine struct {
	cfg Config
	// orig is the configuration as given, before defaults: a run's
	// derived parameters (the delay distribution scales with the frame
	// length, which depends on the modem) are re-derived per scenario
	// once the effective modem is known, so a scenario-preferred modem
	// (ModemChooser) and an explicit Config.Modem produce identical runs.
	orig Config
	// resolved caches the defaulted run configuration per effective
	// modem name (at most one entry per distinct scenario preference),
	// so campaign workers do not re-derive defaults — and construct a
	// throwaway modem for the delay derivation — on every seed.
	mu       sync.Mutex
	resolved map[string]Config
}

// NewEngine returns an engine running every scenario under the given
// configuration (zero fields take the repository defaults).
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults(), orig: cfg, resolved: make(map[string]Config)}
}

// Config returns the engine's configuration with defaults applied,
// derived scenario-independently: when Config.Modem is empty the
// modem-dependent fields (the Delay distribution) are derived for the
// default modem, so runs of a ModemChooser scenario — which re-derive
// them from the scenario's effective modem (see runConfig) — may use a
// different Delay than this accessor reports.
func (eng *Engine) Config() Config { return eng.cfg }

// runConfig resolves the modem a run of sc uses (explicit Config.Modem,
// else the scenario's preference, else the default) into the raw
// configuration, validating the name against the phy registry so an
// unknown modem fails before any run starts — with the valid spellings
// in the error, matching the unknown-scenario contract.
func (eng *Engine) runConfig(sc Scenario) (Config, error) {
	name := EffectiveModemName(sc, eng.orig)
	eng.mu.Lock()
	cfg, ok := eng.resolved[name]
	eng.mu.Unlock()
	if ok {
		return cfg, nil
	}
	if _, ok := phy.Get(name); !ok {
		return Config{}, fmt.Errorf("sim: unknown modem %q (registered: %s)",
			name, strings.Join(phy.Names(), ", "))
	}
	cfg = eng.orig
	cfg.Modem = name
	cfg = cfg.withDefaults()
	eng.mu.Lock()
	eng.resolved[name] = cfg
	eng.mu.Unlock()
	return cfg, nil
}

// Run executes one seeded run of a scenario under one scheme. Runs with
// the same seed see the identical channel realization regardless of
// scheme — the paper's "two consecutive runs in the same topology" — so
// pairing schemes by seed is what makes gain ratios meaningful.
func (eng *Engine) Run(sc Scenario, scheme Scheme, seed int64) (Metrics, error) {
	var m Metrics
	if err := eng.RunRecording(sc, scheme, seed, &m, nil); err != nil {
		return Metrics{}, err
	}
	return m, nil
}

// RunRecording executes one seeded run emitting every observation into a
// caller-supplied Recorder — the primitive Run and the campaigns are
// built on. Custom recorders (a TraceRecorder, a streaming accumulator)
// see the same typed events the default Metrics folds into aggregates.
// A nil scratch uses a private buffer pool; callers that execute many
// runs on one goroutine pass their own Scratch to reuse its buffers.
func (eng *Engine) RunRecording(sc Scenario, scheme Scheme, seed int64, rec Recorder, scratch *Scratch) error {
	return eng.runRecording(nil, sc, scheme, seed, rec, scratch)
}

// runRecording is the shared run loop. A non-nil ctx is checked between
// schedule slots, never inside one, so a canceled run aborts with
// ctx.Err() at most one slot batch after cancellation and its Recorder
// holds a prefix of the full run's observations. A nil ctx skips the
// checks entirely (the zero-overhead path RunRecording and ctx-free
// campaigns take).
func (eng *Engine) runRecording(ctx context.Context, sc Scenario, scheme Scheme, seed int64, rec Recorder, scratch *Scratch) error {
	cfg, err := eng.runConfig(sc)
	if err != nil {
		return err
	}
	e := newEnv(cfg, seed, sc.Build, scratch)
	st, err := sc.Start(e, scheme)
	if err != nil {
		return err
	}
	// Bind the link-state method once so the per-slot edge walk below
	// allocates nothing.
	emit := rec.RecordLinkState
	for i := 0; i < e.cfg.Packets; i++ {
		if ctx != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		// One schedule cycle is one channel-model slot: every link the
		// step observes is realized at slot i. Static models make this a
		// no-op; fading and mobility models evolve in place (no per-slot
		// allocation — the realization is computed on demand). The slot's
		// channel state is reported before the step runs, so a trace
		// records exactly what the schedule saw.
		e.graph.SetSlot(i)
		e.graph.VisitLinkStates(i, emit)
		st.Step(i, rec)
		// The slot's frames were sent and decoded within the step.
		e.scratch.endSlot()
	}
	return nil
}

// Row is one seed's campaign outcome: the per-scheme metrics of the runs
// that shared that seed's channel realization. Rows are built fresh per
// seed and never reused, so a Sink may retain them.
type Row struct {
	// Index is the seed's position in the campaign's seed slice; sinks
	// receive rows in strictly increasing Index order.
	Index int
	// Seed is seeds[Index].
	Seed int64
	// Metrics is indexed by the campaign's scheme slice.
	Metrics []Metrics
	// Traces holds the per-scheme trace recorders when the campaign ran
	// with WithLinkTraces; nil otherwise. All schemes of one seed see the
	// identical channel realization, so Traces[0] usually suffices.
	Traces []*TraceRecorder
}

// Sink consumes streamed campaign rows, in seed order. Returning an
// error stops the campaign; CampaignStream returns that error.
type Sink interface {
	Consume(Row) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Row) error

// Consume implements Sink.
func (f SinkFunc) Consume(r Row) error { return f(r) }

// StreamOption adjusts a streaming campaign.
type StreamOption func(*streamConfig)

type streamConfig struct {
	trace   bool
	workers int
	ctx     context.Context
}

// WithLinkTraces runs every scheme's run under a TraceRecorder, so each
// Row carries per-slot link-gain traces alongside its Metrics.
func WithLinkTraces() StreamOption {
	return func(c *streamConfig) { c.trace = true }
}

// WithContext runs the campaign under a cancellation context. When ctx
// is canceled the campaign stops cleanly: the feeder admits no further
// seeds, idle workers take no further runs, in-flight runs abort at
// their next schedule slot (see runRecording), and
// CampaignStream returns ctx.Err() — unless every row had already been
// emitted, in which case the campaign completed and returns nil. Rows
// emitted before cancellation are valid and have been delivered in
// order; cancellation never deadlocks the sink or leaks workers.
func WithContext(ctx context.Context) StreamOption {
	return func(c *streamConfig) { c.ctx = ctx }
}

// WithWorkers sets the campaign's worker-goroutine count. Values ≤ 0 keep
// the default (GOMAXPROCS); the pool never exceeds the seed count. Rows
// are emitted in seed order and are bit-identical at any worker count —
// each seed's run is self-contained — so this only trades parallelism
// against memory (each worker owns a Scratch).
func WithWorkers(n int) StreamOption {
	return func(c *streamConfig) { c.workers = n }
}

// workerScratch holds the Scratches of finished campaign workers, so the
// next campaign's workers (every ancserve job, a sharded run's shards)
// start with built nodes and decoders and a grown decode workspace
// instead of empty ones. Every pooled resource is reseeded, reset or
// overwritten per run, so a pooled Scratch produces the same rows as a
// fresh one.
var workerScratch scratchStack

// scratchStack is a mutex-guarded LIFO list of shed Scratches, at most
// GOMAXPROCS long. Unlike a sync.Pool, whatever one goroutine puts any
// other can take, and a collection does not empty it, so a campaign
// worker builds a fresh Scratch only when every shed one is in use.
type scratchStack struct {
	mu   sync.Mutex
	free []*Scratch
}

// get returns the most recently put Scratch, or a fresh one.
func (p *scratchStack) get() *Scratch {
	var s *Scratch
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if s == nil {
		s = NewScratch()
	}
	return s
}

// put sheds s's sample buffers (see Scratch.shed) and keeps it for the
// next get, unless GOMAXPROCS Scratches are kept already: then s is
// dropped.
func (p *scratchStack) put(s *Scratch) {
	s.shed()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < runtime.GOMAXPROCS(0) {
		p.free = append(p.free, s)
	}
}

// campaignWindow bounds the rows in flight — executing, queued, or
// awaiting in-order emission — of one streaming campaign: enough slack
// that workers never idle waiting for the emitter, small enough that a
// million-seed campaign holds O(workers) rows, not the matrix.
func campaignWindow(workers int) int { return 2 * workers }

// CampaignStream executes runs[seed][scheme] for every seed and scheme
// and delivers each seed's Row to the sink in seed order, holding at most
// O(workers) rows in memory: workers run ahead of the sink only as far as
// the admission window allows. Each seed is one independent run whose
// channel realization is shared by all schemes; runs are distributed over
// a worker pool (each worker reusing its own Scratch) and the streamed
// rows are fully deterministic regardless of scheduling.
//
// On a run error the campaign stops and returns the error of the
// earliest-index failing seed; rows before it have already been emitted.
func (eng *Engine) CampaignStream(sc Scenario, schemes []Scheme, seeds []int64, sink Sink, opts ...StreamOption) error {
	var cfg streamConfig
	for _, o := range opts {
		o(&cfg)
	}
	for _, scheme := range schemes {
		if !HasScheme(sc, scheme) {
			return fmt.Errorf("sim: scenario %q does not support scheme %q", sc.Name(), scheme)
		}
	}
	// Validate the modem before spawning workers: every run would fail
	// identically, so fail once, up front.
	if _, err := eng.runConfig(sc); err != nil {
		return err
	}
	// An already-canceled context never starts a run.
	if cfg.ctx != nil {
		if err := cfg.ctx.Err(); err != nil {
			return err
		}
	}
	if len(seeds) == 0 {
		return nil
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(seeds) {
		workers = len(seeds)
	}
	window := campaignWindow(workers)

	type result struct {
		row Row
		err error
	}
	next := make(chan int)
	results := make(chan result, window)
	admit := make(chan struct{}, window)
	done := make(chan struct{})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := workerScratch.get()
			defer workerScratch.put(scratch)
			for idx := range next {
				res := result{row: Row{Index: idx, Seed: seeds[idx], Metrics: make([]Metrics, len(schemes))}}
				if cfg.trace {
					res.row.Traces = make([]*TraceRecorder, len(schemes))
				}
				for j, scheme := range schemes {
					// A canceled campaign takes no further runs; the
					// in-flight run below also aborts at its next slot.
					if cfg.ctx != nil {
						if res.err = cfg.ctx.Err(); res.err != nil {
							break
						}
					}
					var rec Recorder = &res.row.Metrics[j]
					if cfg.trace {
						tr := NewTraceRecorder()
						res.row.Traces[j] = tr
						rec = tr
					}
					if res.err = eng.runRecording(cfg.ctx, sc, scheme, seeds[idx], rec, scratch); res.err != nil {
						break
					}
					if cfg.trace {
						res.row.Metrics[j] = res.row.Traces[j].Metrics
					}
				}
				results <- res
			}
		}()
	}

	// Feeder: admission is token-gated, so at most `window` seeds are in
	// flight at any moment; tokens are released as rows are emitted (or
	// discarded after a failure). `done` aborts it without deadlocking;
	// a canceled context stops admission the same way.
	var cancelCh <-chan struct{}
	if cfg.ctx != nil {
		cancelCh = cfg.ctx.Done()
	}
	go func() {
		defer close(next)
		for idx := range seeds {
			select {
			case admit <- struct{}{}:
			case <-done:
				return
			case <-cancelCh:
				return
			}
			select {
			case next <- idx:
			case <-done:
				return
			case <-cancelCh:
				return
			}
		}
	}()
	go func() { wg.Wait(); close(results) }()

	// Reorder and emit in seed order on the caller's goroutine. After a
	// failure the loop keeps draining so no worker blocks on a full
	// results channel.
	pending := make(map[int]result, window)
	nextEmit := 0
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			close(done)
		}
	}
	for res := range results {
		if firstErr != nil {
			<-admit
			continue
		}
		pending[res.row.Index] = res
		for {
			r, ok := pending[nextEmit]
			if !ok {
				break
			}
			delete(pending, nextEmit)
			if r.err != nil {
				<-admit
				fail(r.err)
				break
			}
			err := sink.Consume(r.row)
			// The row's admission token is held until the sink returns: a
			// row at the sink is still in flight, so a blocked sink caps
			// the workers' run-ahead at exactly the window.
			<-admit
			if err != nil {
				fail(err)
				break
			}
			nextEmit++
		}
	}
	if firstErr == nil && cfg.ctx != nil && nextEmit != len(seeds) {
		// Cancellation stopped the feeder between runs, so no worker
		// carried the error into a result row: the campaign is short of
		// rows only because the context fired.
		firstErr = cfg.ctx.Err()
	}
	return firstErr
}

// Campaign executes runs[seed][scheme] for every seed and scheme and
// materializes the result matrix, indexed [seed][scheme]. It is a thin
// wrapper over CampaignStream — use the stream directly when the
// campaign is too large to hold, or when rows should feed analysis as
// they arrive.
func (eng *Engine) Campaign(sc Scenario, schemes []Scheme, seeds []int64, opts ...StreamOption) ([][]Metrics, error) {
	out := make([][]Metrics, len(seeds))
	err := eng.CampaignStream(sc, schemes, seeds, SinkFunc(func(r Row) error {
		out[r.Index] = r.Metrics
		return nil
	}), opts...)
	if err != nil {
		return nil, err
	}
	return out, nil
}
