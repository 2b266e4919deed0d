package bench

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Reception layout the engine uses: a clean reception starts cleanLead
// samples into its window, and every window ends with tailPad samples of
// noise (four detector windows).
const cleanLead = 100

// fixtureSlots is how many seeded Alice–Bob collision slots the fixture
// synthesizes; core.decode_ok_ratio is measured over all of them.
const fixtureSlots = 64

// slot is one synthesized Alice–Bob ANC slot: both uplinks collide at the
// router (Alice's packet first, Bob's after the random delay), the router
// amplifies and relays, and each endpoint receives the relayed collision.
// Alice decodes forward, Bob (whose packet ends last) backward.
type slot struct {
	recA, recB frame.SentRecord
	uplink     []channel.Transmission
	noise      *dsp.NoiseSource
	clean      dsp.Signal // Alice's packet alone at the router
	rxA, rxB   dsp.Signal
	lookA      core.KnownLookup
	lookB      core.KnownLookup
}

// fixture is the layer suite's pre-synthesized input for one workload:
// the workload's modem, payload size, SNR, delay distribution and
// channel model, seeded by the benchmark seed.
type fixture struct {
	modem      phy.Modem
	cfg        sim.Config
	floor      float64
	tailPad    int
	detector   core.DetectorConfig
	decA, decB *core.Decoder
	slot       slot    // the first slot both endpoints decode
	okRatio    float64 // decodes without error and with a valid header, over all slots
}

func newFixture(w Workload, seed int64) (*fixture, error) {
	cfg := w.simConfig()
	cfg.Modem = sim.EffectiveModemName(sim.MustScenario(w.Scenario), cfg)
	cfg = cfg.WithDefaults()
	m := phy.MustNew(cfg.Modem, cfg.SamplesPerSymbol)
	f := &fixture{
		modem: m,
		cfg:   cfg,
		floor: cfg.Topology.MeanPowerGain / dsp.FromDB(*cfg.SNRdB),
	}
	dcfg := core.DefaultConfig(m, f.floor)
	dcfg.FallbackFrameBits = frame.FrameBits(cfg.PayloadBytes)
	f.detector = dcfg.Detector
	f.tailPad = 4 * dcfg.Detector.Window
	f.decA, f.decB = core.NewDecoder(dcfg), core.NewDecoder(dcfg)
	ws := core.NewWorkspace()
	f.decA.SetWorkspace(ws)
	f.decB.SetWorkspace(ws)

	rng := rand.New(rand.NewSource(seed))
	found, ok := false, 0
	for k := 0; k < fixtureSlots; k++ {
		s := f.synth(rng)
		ra, errA := f.decA.Decode(s.rxA, s.lookA)
		rb, errB := f.decB.Decode(s.rxB, s.lookB)
		okA := errA == nil && ra.HeaderOK
		okB := errB == nil && rb.HeaderOK
		ok += btoi(okA) + btoi(okB)
		if !found && okA && !ra.Backward && okB && rb.Backward {
			f.slot, found = s, true
		}
	}
	f.okRatio = float64(ok) / (2 * fixtureSlots)
	if !found {
		return nil, fmt.Errorf("bench: %s: none of %d fixture slots decodes forward at Alice and backward at Bob", w.Name, fixtureSlots)
	}
	return f, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// synth draws one slot the way the engine's Alice–Bob ANC step does.
func (f *fixture) synth(rng *rand.Rand) slot {
	g := topology.AliceBob(f.cfg.Topology, rng)
	link := func(i, j int) channel.Link {
		l, _ := g.Link(i, j)
		return l
	}
	record := func(src, dst uint16) frame.SentRecord {
		payload := make([]byte, f.cfg.PayloadBytes)
		rng.Read(payload)
		rec := frame.SentRecord{Packet: frame.NewPacket(src, dst, 1, payload)}
		rec.Bits = frame.MarshalFor(rec.Packet, f.modem.BitsPerSymbol())
		rec.Samples = f.modem.Modulate(rec.Bits)
		return rec
	}
	s := slot{recA: record(1, 3), recB: record(3, 1)}
	s.noise = dsp.NewNoiseSource(f.floor, rng.Int63())
	s.uplink = []channel.Transmission{
		{Signal: s.recA.Samples, Link: link(topology.Alice, topology.Router)},
		{Signal: s.recB.Samples, Link: link(topology.Bob, topology.Router), Delay: f.cfg.Delay.Draw(rng)},
	}
	relayed := channel.AmplifyToInPlace(channel.ReceiveInto(nil, s.noise, f.tailPad, s.uplink...), 1)
	s.rxA = channel.ReceiveInto(nil, s.noise, f.tailPad, channel.Transmission{Signal: relayed, Link: link(topology.Router, topology.Alice)})
	s.rxB = channel.ReceiveInto(nil, s.noise, f.tailPad, channel.Transmission{Signal: relayed, Link: link(topology.Router, topology.Bob)})
	s.clean = channel.ReceiveInto(nil, s.noise, f.tailPad, channel.Transmission{Signal: s.recA.Samples, Link: s.uplink[0].Link, Delay: cleanLead})
	bufA, bufB := frame.NewSentBuffer(0), frame.NewSentBuffer(0)
	bufA.Put(s.recA)
	bufB.Put(s.recB)
	s.lookA, s.lookB = bufA.Get, bufB.Get
	return s
}

// layerBench is one timed public entry point: value converts the
// benchmark's ns/op into the metric's unit.
type layerBench struct {
	metric string
	value  func(nsPerOp float64) float64
	fn     func(b *testing.B)
}

func perOp(div float64) func(float64) float64 { return func(ns float64) float64 { return ns / div } }

func perSecond(items float64) func(float64) float64 {
	return func(ns float64) float64 { return items * 1e9 / ns }
}

// floatSink keeps benchmarked arithmetic observable.
var floatSink float64

// layerSuite returns the timed stages over a fixture and the service
// fan-out over a completed job. check records fixture preconditions.
func layerSuite(f *fixture, job *serve.Job, jobLines int, srv *serve.Server, req serve.Request, check func(string, bool, string)) []layerBench {
	s := f.slot
	m := f.modem
	sps := m.SamplesPerSymbol()

	det := core.DetectWith(nil, s.rxA, f.floor, f.detector)
	check("fixture.detect", det.Present && det.Interfered, fmt.Sprintf("%+v", det))
	collision := s.rxA[det.IStart:det.IEnd]
	est, err := core.EstimateAmplitudes(collision)
	check("fixture.amplitudes", err == nil, fmt.Sprint(err))

	cleanDet := core.DetectWith(nil, s.clean, f.floor, f.detector)
	var views []dsp.Signal
	for off := 0; off < sps; off++ {
		views = append(views, s.clean[cleanDet.Start+off:cleanDet.End])
	}
	symbols := (len(views[0]) - 1) / sps
	boxcar := dsp.BoxcarSymbolsInto(make([]complex128, symbols), views[0], sps)

	diffs := make([]float64, len(s.clean)-1)
	for n := range diffs {
		diffs[n] = dsp.PhaseDiff(s.clean[n], s.clean[n+1])
	}
	pilotDiffs := m.PhaseDiffs(bits.Pilot(bits.PilotLength))
	w := f.detector.Window
	off, _ := core.FindDiffAlignment(diffs, pilotDiffs, cleanLead-3*w, cleanLead+3*w)
	check("fixture.align", abs(off-cleanLead) <= sps, fmt.Sprintf("pilot found at sample %d, sent at %d", off, cleanLead))
	res, err := f.decA.TryClean(s.clean)
	check("fixture.clean", err == nil && res.BodyOK && res.Packet.Header == s.recA.Packet.Header, fmt.Sprint(err))
	_, err = frame.Unmarshal(s.recA.Bits)
	check("fixture.unmarshal", err == nil, fmt.Sprint(err))

	us := perOp(1e3)
	return []layerBench{
		{"channel.receive_us", us, func(b *testing.B) {
			buf := make(dsp.Signal, channel.ReceiveLen(f.tailPad, s.uplink...))
			for b.Loop() {
				buf = channel.ReceiveInto(buf, s.noise, f.tailPad, s.uplink...)
			}
		}},
		{"phy.modulate_us", us, func(b *testing.B) {
			for b.Loop() {
				m.Modulate(s.recA.Bits)
			}
		}},
		{"phy.demod_batch_us", us, func(b *testing.B) {
			var scratch dsp.Scratch
			var dsts [][]byte
			for b.Loop() {
				dsts = m.DemodulateBatchInto(&scratch, dsts, views)
			}
		}},
		{"dsp.viterbi_ns_per_symbol", perOp(float64(symbols)), func(b *testing.B) {
			back, dst := make([]byte, 2*symbols), make([]byte, symbols)
			steps := [2]float64{-math.Pi / 2, math.Pi / 2}
			for b.Loop() {
				dsp.ViterbiHalfStep(back, dst, views[0][0], boxcar, steps)
			}
		}},
		{"core.solve_phases_ns", perOp(float64(len(collision))), func(b *testing.B) {
			var acc float64
			for b.Loop() {
				for _, y := range collision {
					acc += core.SolvePhases(y, est.A, est.B)[0].Phi
				}
			}
			floatSink = acc
		}},
		{"core.align_us", us, func(b *testing.B) {
			for b.Loop() {
				core.FindDiffAlignment(diffs, pilotDiffs, cleanLead-3*w, cleanLead+3*w)
			}
		}},
		{"core.detect_us", us, func(b *testing.B) {
			ws := core.NewWorkspace()
			for b.Loop() {
				core.DetectWith(ws, s.rxA, f.floor, f.detector)
			}
		}},
		{"core.decode_clean_us", us, func(b *testing.B) {
			for b.Loop() {
				f.decA.TryClean(s.clean)
			}
		}},
		{"core.decode_interfered_us", us, func(b *testing.B) {
			for b.Loop() {
				f.decA.Decode(s.rxA, s.lookA)
			}
		}},
		{"core.decode_backward_us", us, func(b *testing.B) {
			for b.Loop() {
				f.decB.Decode(s.rxB, s.lookB)
			}
		}},
		{"core.decode_batch_us_per_rx", perOp(2e3), func(b *testing.B) {
			items := []core.BatchItem{{Decoder: f.decA, Rx: s.rxA, Lookup: s.lookA}, {Decoder: f.decB, Rx: s.rxB, Lookup: s.lookB}}
			out := make([]core.BatchResult, len(items))
			for b.Loop() {
				out = core.DecodeBatch(items, out)
			}
		}},
		{"frame.marshal_us", us, func(b *testing.B) {
			for b.Loop() {
				frame.MarshalFor(s.recA.Packet, m.BitsPerSymbol())
			}
		}},
		{"frame.unmarshal_us", us, func(b *testing.B) {
			for b.Loop() {
				frame.Unmarshal(s.recA.Bits)
			}
		}},
		{"serve.resolve_us", us, func(b *testing.B) {
			for b.Loop() {
				req.Resolve(1)
			}
		}},
		{"serve.submit_hit_us", us, func(b *testing.B) {
			for b.Loop() {
				srv.Submit(req)
			}
		}},
		{"serve.fanout1_lines_per_s", perSecond(float64(jobLines)), func(b *testing.B) {
			for b.Loop() {
				fanOut(job, 1)
			}
		}},
		{"serve.fanout8_lines_per_s", perSecond(float64(8 * jobLines)), func(b *testing.B) {
			for b.Loop() {
				fanOut(job, 8)
			}
		}},
	}
}

// fanOut has k subscribers read a completed job's whole stream
// concurrently and returns the lines they read in total.
func fanOut(job *serve.Job, k int) int {
	var wg sync.WaitGroup
	counts := make([]int, k)
	for i := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := job.Subscribe()
			for {
				if _, err := sub.Next(context.Background()); err != nil {
					return
				}
				counts[i]++
			}
		}()
	}
	wg.Wait()
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// completedJob submits req to an in-process server and waits until its
// job has streamed every line, so later submissions of req are cache
// hits and subscribers replay it.
func completedJob(srv *serve.Server, req serve.Request) (*serve.Job, int, error) {
	job, _, err := srv.Submit(req)
	if err != nil {
		return nil, 0, err
	}
	sub := job.Subscribe()
	lines := 0
	for {
		_, err := sub.Next(context.Background())
		if errors.Is(err, io.EOF) {
			return job, lines, nil
		}
		if err != nil {
			return nil, 0, err
		}
		lines++
	}
}

// runLayers times every stage of the suite with testing.Benchmark, one
// span per stage under parent, and records ns/op-derived values plus
// B/op and allocs/op.
func runLayers(w Workload, seed int64, benchTime time.Duration, tr *Tracer, parent int, res *Result) error {
	// Neither input is timed, so the served job runs while the fixture is
	// synthesized.
	srv := serve.New(serve.Config{Workers: 1, Runners: 1})
	defer srv.Close()
	req := serveMixed.request(seed)
	var job *serve.Job
	var lines int
	var jobErr error
	served := make(chan struct{})
	go func() {
		defer close(served)
		job, lines, jobErr = completedJob(srv, req)
	}()
	f, err := newFixture(w, seed)
	<-served
	if err != nil {
		return err
	}
	if jobErr != nil {
		return fmt.Errorf("bench: layer suite job: %w", jobErr)
	}
	res.set("core.decode_ok_ratio", f.okRatio, "ratio")

	res.check("fixture.job", lines == serveMixed.Runs+1, fmt.Sprintf("%d lines", lines))
	_, hit, err := srv.Submit(req)
	res.check("fixture.hit", err == nil && hit, fmt.Sprint(err))
	res.check("fixture.fanout", fanOut(job, 8) == 8*lines, "8 subscribers each read every line")

	if err := setBenchTime(benchTime); err != nil {
		return err
	}
	span := tr.Begin("layers", parent)
	defer tr.End(span)
	for _, l := range layerSuite(f, job, lines, srv, req, res.check) {
		s := tr.Begin("layer/"+l.metric, span)
		r := testing.Benchmark(l.fn)
		tr.End(s)
		if r.N == 0 {
			return fmt.Errorf("bench: layer %s did not run", l.metric)
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		res.set(l.metric, l.value(ns), unitOf(l.metric))
		res.set(l.metric+".B_per_op", float64(r.AllocedBytesPerOp()), "B")
		res.set(l.metric+".allocs_per_op", float64(r.AllocsPerOp()), "count")
	}
	return nil
}

// layerTime is how long the layer suite times each stage: 100 ms at full
// size and under budgets of 20 s or more, in proportion under smaller
// budgets, so that a tiny run stays tiny.
func layerTime(seconds float64) time.Duration {
	const full = 100 * time.Millisecond
	if seconds == 0 || seconds >= 20 {
		return full
	}
	return time.Duration(float64(full) * seconds / 20)
}

// setBenchTime sets how long testing.Benchmark runs each stage. Outside
// a test binary the testing flags must be registered first.
func setBenchTime(d time.Duration) error {
	if flag.Lookup("test.benchtime") == nil {
		testing.Init()
	}
	return flag.Set("test.benchtime", d.String())
}

func unitOf(name string) string {
	for _, m := range PerLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
