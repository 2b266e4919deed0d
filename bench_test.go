// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation. One benchmark per figure: each iteration runs
// one paired experiment run (ANC plus its baselines on the same channel
// realization), so
//
//	go test -bench Fig9 -benchtime 40x
//
// reproduces the paper's 40-run campaign; the default -benchtime runs a
// smaller one. Aggregate results are attached as custom benchmark metrics
// (gain/traditional, gain/COPE, BER, overlap), and each figure's full
// series is printed once per process. Micro-benchmarks at the bottom
// profile the decoder's hot paths; Ablation* benchmarks print the design
// ablation tables from DESIGN.md §5.
package repro

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/capacity"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/dqpsk"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/frame"
	"repro/internal/msk"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"
)

// benchSim is the per-iteration run size: large enough for stable
// statistics, small enough that default -benchtime finishes promptly.
func benchSim() sim.Config { return sim.Config{Packets: 10} }

// benchOpts sizes the printed series campaigns.
func benchOpts(b *testing.B) experiments.Options {
	runs := 10
	if testing.Short() {
		runs = 3
	}
	return experiments.Options{Runs: runs, Sim: sim.Config{Packets: 8}, Seed: 7}
}

var (
	printFig7    sync.Once
	printFig9    sync.Once
	printFig10   sync.Once
	printFig12   sync.Once
	printFig13   sync.Once
	printSummary sync.Once
	printAblMat  sync.Once
	printAblSub  sync.Once
	printAblEst  sync.Once
	printAblOvl  sync.Once
)

// BenchmarkFig7Capacity regenerates the capacity-bound series of Fig. 7.
func BenchmarkFig7Capacity(b *testing.B) {
	var pts []capacity.Point
	for i := 0; i < b.N; i++ {
		pts = capacity.Sweep(0, 55, 1)
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.Gain, "gain@55dB")
	b.ReportMetric(capacity.CrossoverDB(0, 55), "crossover-dB")
	printFig7.Do(func() { fmt.Print(experiments.Fig7(0, 55, 5)) })
}

// figureIteration is one paired campaign iteration: ANC plus its
// baselines on the same seed (the same channel realization), through the
// scenario engine with caller-owned reception buffers. Shared by the
// gain benchmarks and TestBenchSmoke.
func figureIteration(eng *sim.Engine, scratch *sim.Scratch, sc sim.Scenario, seed int64) (a, t, c sim.Metrics) {
	a = engineRun(eng, scratch, sc, sim.SchemeANC, seed)
	t = engineRun(eng, scratch, sc, sim.SchemeRouting, seed)
	if sim.HasScheme(sc, sim.SchemeCOPE) {
		c = engineRun(eng, scratch, sc, sim.SchemeCOPE, seed)
	}
	return a, t, c
}

func engineRun(eng *sim.Engine, scratch *sim.Scratch, sc sim.Scenario, scheme sim.Scheme, seed int64) sim.Metrics {
	var m sim.Metrics
	if err := eng.RunRecording(sc, scheme, seed, &m, scratch); err != nil {
		panic(err)
	}
	return m
}

// gainBench runs paired ANC/baseline runs, one pair per iteration.
func gainBench(b *testing.B, sc sim.Scenario) {
	eng := sim.NewEngine(benchSim())
	scratch := sim.NewScratch()
	hasCope := sim.HasScheme(sc, sim.SchemeCOPE)
	gTrad := stats.NewSample(nil)
	gCope := stats.NewSample(nil)
	ber := stats.NewSample(nil)
	ovl := stats.NewSample(nil)
	for i := 0; i < b.N; i++ {
		a, t, c := figureIteration(eng, scratch, sc, int64(1000+i))
		gTrad.Add(stats.GainRatio(a.Throughput(), t.Throughput()))
		if hasCope {
			gCope.Add(stats.GainRatio(a.Throughput(), c.Throughput()))
		}
		ber.Add(a.MeanBER())
		ovl.Add(a.MeanOverlap())
	}
	b.ReportMetric(gTrad.Mean(), "gain/traditional")
	if hasCope {
		b.ReportMetric(gCope.Mean(), "gain/COPE")
	}
	b.ReportMetric(ber.Mean(), "BER")
	b.ReportMetric(ovl.Mean(), "overlap")
}

// BenchmarkFig9aAliceBobGain regenerates the Fig. 9(a) gain CDFs.
func BenchmarkFig9aAliceBobGain(b *testing.B) {
	gainBench(b, sim.AliceBob())
	opts := benchOpts(b)
	printFig9.Do(func() { fmt.Print(experiments.Fig9(opts).FormatGain(15)) })
}

// berIteration is one ANC run contributing its per-packet BERs to the
// sample; shared by the BER benchmarks and TestBenchSmoke.
func berIteration(eng *sim.Engine, scratch *sim.Scratch, sc sim.Scenario, seed int64, ber *stats.Sample) sim.Metrics {
	m := engineRun(eng, scratch, sc, sim.SchemeANC, seed)
	for _, x := range m.BERs {
		ber.Add(x)
	}
	return m
}

// BenchmarkFig9bAliceBobBER regenerates the Fig. 9(b) BER CDF.
func BenchmarkFig9bAliceBobBER(b *testing.B) {
	eng := sim.NewEngine(benchSim())
	scratch := sim.NewScratch()
	ber := stats.NewSample(nil)
	for i := 0; i < b.N; i++ {
		berIteration(eng, scratch, sim.AliceBob(), int64(2000+i), ber)
	}
	b.ReportMetric(ber.Mean(), "BER-mean")
	b.ReportMetric(ber.Quantile(0.9), "BER-p90")
	opts := benchOpts(b)
	printFig9.Do(func() { fmt.Print(experiments.Fig9(opts).FormatBER(15)) })
}

// BenchmarkFig10aXGain regenerates the Fig. 10(a) gain CDFs for the "X".
func BenchmarkFig10aXGain(b *testing.B) {
	gainBench(b, sim.XTopo())
	opts := benchOpts(b)
	printFig10.Do(func() { fmt.Print(experiments.Fig10(opts).FormatGain(15)) })
}

// BenchmarkFig10bXBER regenerates the Fig. 10(b) BER CDF (including the
// elevated tail caused by imperfect overhearing).
func BenchmarkFig10bXBER(b *testing.B) {
	eng := sim.NewEngine(benchSim())
	scratch := sim.NewScratch()
	ber := stats.NewSample(nil)
	for i := 0; i < b.N; i++ {
		berIteration(eng, scratch, sim.XTopo(), int64(3000+i), ber)
	}
	b.ReportMetric(ber.Mean(), "BER-mean")
	b.ReportMetric(ber.Max(), "BER-max")
	opts := benchOpts(b)
	printFig10.Do(func() { fmt.Print(experiments.Fig10(opts).FormatBER(15)) })
}

// BenchmarkFig12aChainGain regenerates Fig. 12(a); COPE does not apply to
// the unidirectional chain.
func BenchmarkFig12aChainGain(b *testing.B) {
	gainBench(b, sim.Chain())
	opts := benchOpts(b)
	printFig12.Do(func() { fmt.Print(experiments.Fig12(opts).FormatGain(15)) })
}

// BenchmarkFig12bChainBER regenerates Fig. 12(b): the chain's BER sits
// below the Alice–Bob topology's because no relay re-amplifies the noise.
func BenchmarkFig12bChainBER(b *testing.B) {
	eng := sim.NewEngine(benchSim())
	scratch := sim.NewScratch()
	ber := stats.NewSample(nil)
	for i := 0; i < b.N; i++ {
		berIteration(eng, scratch, sim.Chain(), int64(4000+i), ber)
	}
	b.ReportMetric(ber.Mean(), "BER-mean")
	opts := benchOpts(b)
	printFig12.Do(func() { fmt.Print(experiments.Fig12(opts).FormatBER(15)) })
}

// BenchmarkScenarioCampaign runs one multi-run engine campaign per
// iteration over the cross-traffic scenario — the worker-pool path with
// per-worker buffer reuse.
func BenchmarkScenarioCampaign(b *testing.B) {
	eng := sim.NewEngine(sim.Config{Packets: 4})
	sc := sim.MustScenario("x-cross")
	seeds := []int64{1, 2, 3, 4, 5, 6}
	for i := 0; i < b.N; i++ {
		if _, err := eng.Campaign(sc, sc.Schemes(), seeds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13BERvsSIR regenerates the Fig. 13 sweep. Each iteration is
// one full −3..+4 dB sweep.
func BenchmarkFig13BERvsSIR(b *testing.B) {
	cfg := sim.Config{Packets: 4}
	var worst float64
	for i := 0; i < b.N; i++ {
		pts := sim.SIRSweep(cfg, int64(5000+i*17), -3, 4, 1)
		worst = 0
		for _, p := range pts {
			if p.MeanBER > worst {
				worst = p.MeanBER
			}
		}
	}
	b.ReportMetric(worst, "BER-max-over-sweep")
	printFig13.Do(func() {
		fmt.Print(experiments.Fig13(experiments.Options{Runs: 1, Sim: sim.Config{Packets: 8}, Seed: 7}, -3, 4, 1))
	})
}

// BenchmarkSummaryTable regenerates the §11.3 headline table.
func BenchmarkSummaryTable(b *testing.B) {
	cfg := benchSim()
	for i := 0; i < b.N; i++ {
		_ = engineRun(sim.NewEngine(cfg), nil, sim.AliceBob(), sim.SchemeANC, int64(6000+i))
	}
	opts := benchOpts(b)
	printSummary.Do(func() { fmt.Print(experiments.Summary(opts)) })
}

// --- Ablations (DESIGN.md §5) ---

func BenchmarkAblationMatcher(b *testing.B) {
	cfg := benchSim()
	cfg.DecoderTweak = func(c *core.Config) {
		c.NoConditioningWeights = true
		c.NoMSKPrior = true
		c.NoBranchContinuity = true
	}
	literal := stats.NewSample(nil)
	for i := 0; i < b.N; i++ {
		literal.Add(engineRun(sim.NewEngine(cfg), nil, sim.AliceBob(), sim.SchemeANC, int64(7000+i)).MeanBER())
	}
	b.ReportMetric(literal.Mean(), "BER-paper-literal")
	printAblMat.Do(func() { fmt.Print(experiments.AblationMatcher(benchOpts(b))) })
}

func BenchmarkAblationSubtraction(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.AblationSubtraction(int64(8000 + i))
	}
	_ = out
	printAblSub.Do(func() { fmt.Print(experiments.AblationSubtraction(3)) })
}

func BenchmarkAblationEstimator(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.AblationEstimator(int64(9000 + i))
	}
	_ = out
	printAblEst.Do(func() { fmt.Print(experiments.AblationEstimator(4)) })
}

func BenchmarkAblationOverlap(b *testing.B) {
	cfg := benchSim()
	for i := 0; i < b.N; i++ {
		_ = engineRun(sim.NewEngine(cfg), nil, sim.AliceBob(), sim.SchemeANC, int64(9500+i))
	}
	printAblOvl.Do(func() {
		fmt.Print(experiments.AblationOverlap(experiments.Options{Runs: 3, Sim: sim.Config{Packets: 6}, Seed: 5}))
	})
}

// --- Micro-benchmarks: the decoder's hot paths ---

func benchBits(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}

func BenchmarkModulate(b *testing.B) {
	m := msk.New()
	bs := benchBits(1024, 1)
	b.SetBytes(int64(len(bs)) / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Modulate(bs)
	}
}

// BenchmarkModulateInto modulates into one reused buffer, the way the
// engine modulates every frame it transmits: 0 B/op.
func BenchmarkModulateInto(b *testing.B) {
	m := msk.New()
	bs := benchBits(1024, 1)
	dst := m.Modulate(bs)
	b.SetBytes(int64(len(bs)) / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = m.ModulateInto(dst, bs)
	}
}

func BenchmarkDemodulateMLSE(b *testing.B) {
	m := msk.New()
	s := m.Modulate(benchBits(1024, 2))
	b.SetBytes(1024 / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Demodulate(s)
	}
}

func BenchmarkModulateDQPSK(b *testing.B) {
	m := dqpsk.New()
	bs := benchBits(1024, 1)
	b.SetBytes(int64(len(bs)) / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Modulate(bs)
	}
}

// BenchmarkModulateIntoDQPSK is BenchmarkModulateInto for π/4-DQPSK.
func BenchmarkModulateIntoDQPSK(b *testing.B) {
	m := dqpsk.New()
	bs := benchBits(1024, 1)
	dst := m.Modulate(bs)
	b.SetBytes(int64(len(bs)) / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = m.ModulateInto(dst, bs)
	}
}

func BenchmarkDemodulateDQPSK(b *testing.B) {
	m := dqpsk.New()
	s := m.Modulate(benchBits(1024, 2))
	b.SetBytes(1024 / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Demodulate(s)
	}
}

func BenchmarkSolvePhases(b *testing.B) {
	y := complex(0.7, -0.4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = core.SolvePhases(y, 1.0, 0.8)
	}
}

// BenchmarkNoiseAddInPlace reseeds a noise source and adds a 6,000-sample
// draw into a reused buffer, the per-reception AWGN the engine pays:
// 0 B/op.
func BenchmarkNoiseAddInPlace(b *testing.B) {
	ns := dsp.NewNoiseSource(1e-3, 1)
	buf := make(dsp.Signal, 6000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns.Reseed(int64(i))
		ns.AddInPlace(buf)
	}
}

// BenchmarkMarshalFrame marshals a 128-byte packet into a node's Sent
// Packet Buffer after resetting the node, so each frame reuses the bit
// storage of the previous iteration's record — a pooled campaign node's
// steady state: 0 B/op.
func BenchmarkMarshalFrame(b *testing.B) {
	n := radio.NewNode(1, msk.New(), 1e-3)
	pkt := frame.NewPacket(1, 2, 3, benchBits(128, 7))
	n.MarshalFrame(pkt)
	n.Reset() // grows the buffer's spare list once
	n.MarshalFrame(pkt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Reset()
		n.MarshalFrame(pkt)
	}
}

// BenchmarkDetectWith runs the §7.1 packet and interference detectors
// over a 7,501-sample collision of two MSK frames, with the profiles in
// a reused workspace: 0 B/op.
func BenchmarkDetectWith(b *testing.B) {
	m := msk.New()
	rx := channel.Receive(dsp.NewNoiseSource(1e-3, 9), 400,
		channel.Transmission{Signal: m.Modulate(benchBits(1400, 5)), Link: channel.Link{Gain: 1, Phase: 0.3}, Delay: 200},
		channel.Transmission{Signal: m.Modulate(benchBits(1400, 6)), Link: channel.Link{Gain: 0.8, Phase: 1.9}, Delay: 1500})
	cfg := core.DefaultConfig(m, 1e-3)
	ws := core.NewWorkspace()
	_ = core.DetectWith(ws, rx, cfg.NoiseFloor, cfg.Detector) // grow the profiles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.DetectWith(ws, rx, cfg.NoiseFloor, cfg.Detector)
	}
}

func BenchmarkEstimateAmplitudes(b *testing.B) {
	m1 := msk.New()
	m2 := msk.New(msk.WithAmplitude(0.7))
	mix := m1.Modulate(benchBits(1000, 3)).Add(m2.Modulate(benchBits(1000, 4)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = core.EstimateAmplitudes(mix)
	}
}

// BenchmarkInterferenceDecode measures one full Algorithm 1 decode of a
// relayed Alice–Bob collision (detection, alignment, amplitude
// estimation, phase matching, deframing). The decoder persists across
// iterations, so this is the workspace-reusing steady state — the B/op
// and allocs/op columns are the numbers the core alloc-regression tests
// pin. BenchmarkInterferenceDecodeFresh below is the contrast case.
func BenchmarkInterferenceDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := msk.New()
	payloadA := make([]byte, 128)
	payloadB := make([]byte, 128)
	rng.Read(payloadA)
	rng.Read(payloadB)
	pktA := frame.NewPacket(1, 2, 1, payloadA)
	pktB := frame.NewPacket(2, 1, 1, payloadB)
	bitsA := frame.Marshal(pktA)
	sigA := m.Modulate(bitsA)
	sigB := m.Modulate(frame.Marshal(pktB))

	mix := sigA.Scale(complex(0.8, 0)).Add(applyCFO(sigB, 0.01).Delay(1200))
	rx := dsp.NewNoiseSource(1e-3, 6).AddTo(mix.PadTo(len(mix) + 500))

	buf := frame.NewSentBuffer(0)
	buf.Put(frame.SentRecord{Packet: pktA, Bits: bitsA, Samples: sigA})
	dec := core.NewDecoder(core.DefaultConfig(m, 1e-3))
	b.SetBytes(int64(len(rx) * 16)) // complex128 samples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(rx, buf.Get); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterferenceDecodeBatch is BenchmarkInterferenceDecode through
// the burst entry point: four distinct relayed collisions decoded as one
// core.DecodeBatch call over decoders sharing a workspace — the shape of
// one simulation slot. Its per-reception B/op and allocs/op columns are
// what the batch pipeline buys over per-call setup; the benchdiff gate
// holds them alongside the single-decode budgets.
func BenchmarkInterferenceDecodeBatch(b *testing.B) {
	ws := core.NewWorkspace()
	items := make([]core.BatchItem, 0, 4)
	var total int
	for i := 0; i < 4; i++ {
		rng := rand.New(rand.NewSource(int64(5 + i)))
		m := msk.New()
		payloadA := make([]byte, 128)
		payloadB := make([]byte, 128)
		rng.Read(payloadA)
		rng.Read(payloadB)
		pktA := frame.NewPacket(1, 2, uint32(1+i), payloadA)
		pktB := frame.NewPacket(2, 1, uint32(1+i), payloadB)
		bitsA := frame.Marshal(pktA)
		sigA := m.Modulate(bitsA)
		sigB := m.Modulate(frame.Marshal(pktB))

		mix := sigA.Scale(complex(0.8, 0)).Add(applyCFO(sigB, 0.01).Delay(1100 + 50*i))
		rx := dsp.NewNoiseSource(1e-3, int64(6+i)).AddTo(mix.PadTo(len(mix) + 500))
		total += len(rx)

		buf := frame.NewSentBuffer(0)
		buf.Put(frame.SentRecord{Packet: pktA, Bits: bitsA, Samples: sigA})
		dec := core.NewDecoder(core.DefaultConfig(m, 1e-3))
		dec.SetWorkspace(ws)
		items = append(items, core.BatchItem{Decoder: dec, Rx: rx, Lookup: buf.Get})
	}
	out := make([]core.BatchResult, len(items))
	b.SetBytes(int64(total * 16)) // complex128 samples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = core.DecodeBatch(items, out)
		for j := range out {
			if out[j].Err != nil {
				b.Fatal(out[j].Err)
			}
		}
	}
}

// BenchmarkInterferenceDecodeFresh is BenchmarkInterferenceDecode with a
// new decoder (and therefore a cold workspace) per iteration — what every
// decode paid before buffer reuse. The gap between the two benchmarks'
// B/op is the win the workspace discipline buys.
func BenchmarkInterferenceDecodeFresh(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := msk.New()
	payloadA := make([]byte, 128)
	payloadB := make([]byte, 128)
	rng.Read(payloadA)
	rng.Read(payloadB)
	pktA := frame.NewPacket(1, 2, 1, payloadA)
	pktB := frame.NewPacket(2, 1, 1, payloadB)
	bitsA := frame.Marshal(pktA)
	sigA := m.Modulate(bitsA)
	sigB := m.Modulate(frame.Marshal(pktB))

	mix := sigA.Scale(complex(0.8, 0)).Add(applyCFO(sigB, 0.01).Delay(1200))
	rx := dsp.NewNoiseSource(1e-3, 6).AddTo(mix.PadTo(len(mix) + 500))

	buf := frame.NewSentBuffer(0)
	buf.Put(frame.SentRecord{Packet: pktA, Bits: bitsA, Samples: sigA})
	cfg := core.DefaultConfig(m, 1e-3)
	b.SetBytes(int64(len(rx) * 16)) // complex128 samples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := core.NewDecoder(cfg)
		if _, err := dec.Decode(rx, buf.Get); err != nil {
			b.Fatal(err)
		}
	}
}

func applyCFO(s dsp.Signal, cfo float64) dsp.Signal {
	return channel.Link{Gain: 1, Phase: 0.9, FreqOffset: cfo}.Apply(s)
}

// dqpskInterferenceFixture builds one π/4-DQPSK collision with
// symbol-wise mirrored frames (frame.MarshalFor). With backward=false
// the sent buffer holds the first-starting packet, so the decode runs
// forward; with backward=true it holds the second-starting one, so the
// decode runs off the conjugate time-reversed stream (§7.4).
func dqpskInterferenceFixture(backward bool) (core.Config, dsp.Signal, *frame.SentBuffer) {
	rng := rand.New(rand.NewSource(5))
	m := dqpsk.New()
	payloadA := make([]byte, 128)
	payloadB := make([]byte, 128)
	rng.Read(payloadA)
	rng.Read(payloadB)
	pktA := frame.NewPacket(1, 2, 1, payloadA)
	pktB := frame.NewPacket(2, 1, 1, payloadB)
	bitsA := frame.MarshalFor(pktA, m.BitsPerSymbol())
	bitsB := frame.MarshalFor(pktB, m.BitsPerSymbol())
	sigA := m.Modulate(bitsA)
	sigB := m.Modulate(bitsB)

	mix := sigA.Scale(complex(0.8, 0)).Add(applyCFO(sigB, 0.01).Delay(1200))
	rx := dsp.NewNoiseSource(1e-3, 6).AddTo(mix.PadTo(len(mix) + 500))

	buf := frame.NewSentBuffer(0)
	if backward {
		buf.Put(frame.SentRecord{Packet: pktB, Bits: bitsB, Samples: sigB})
	} else {
		buf.Put(frame.SentRecord{Packet: pktA, Bits: bitsA, Samples: sigA})
	}
	return core.DefaultConfig(m, 1e-3), rx, buf
}

// BenchmarkInterferenceDecodeDQPSK is BenchmarkInterferenceDecode under
// the second registered modem: the workspace-reusing steady state of a
// π/4-DQPSK forward interference decode. Its allocs/op column holds the
// dqpsk pipeline to the same zero-steady-state-allocation contract the
// core alloc-regression tests pin for MSK.
func BenchmarkInterferenceDecodeDQPSK(b *testing.B) {
	cfg, rx, buf := dqpskInterferenceFixture(false)
	dec := core.NewDecoder(cfg)
	b.SetBytes(int64(len(rx) * 16)) // complex128 samples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(rx, buf.Get); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterferenceDecodeDQPSKBackward is the steady state of the
// path this repo's symbol-wise frame mirror enables: the known packet
// starts second, so the unknown one is recovered off the conjugate
// time-reversed stream. Its allocs/op column is what the benchdiff gate
// holds to the MSK budget — the backward pipeline's extra work (reversal
// into workspace scratch, symbol-group un-mirroring) must stay inside
// reused buffers.
func BenchmarkInterferenceDecodeDQPSKBackward(b *testing.B) {
	cfg, rx, buf := dqpskInterferenceFixture(true)
	dec := core.NewDecoder(cfg)
	b.SetBytes(int64(len(rx) * 16)) // complex128 samples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dec.Decode(rx, buf.Get)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Backward {
			b.Fatal("decode did not take the backward path")
		}
	}
}

// BenchmarkInterferenceDecodeDQPSKFresh is the cold-workspace contrast
// case, mirroring BenchmarkInterferenceDecodeFresh.
func BenchmarkInterferenceDecodeDQPSKFresh(b *testing.B) {
	cfg, rx, buf := dqpskInterferenceFixture(false)
	b.SetBytes(int64(len(rx) * 16)) // complex128 samples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := core.NewDecoder(cfg)
		if _, err := dec.Decode(rx, buf.Get); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModulationGenerality exercises §4's claim that the decoding
// technique applies to any phase-shift keying: one full forward
// interference decode per iteration over π/4-DQPSK instead of MSK.
func BenchmarkModulationGenerality(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	m := dqpsk.New()
	payloadA := make([]byte, 64)
	payloadB := make([]byte, 64)
	rng.Read(payloadA)
	rng.Read(payloadB)
	pktA := frame.NewPacket(1, 2, 1, payloadA)
	pktB := frame.NewPacket(2, 1, 1, payloadB)
	bitsA := frame.MarshalFor(pktA, m.BitsPerSymbol())
	bitsB := frame.MarshalFor(pktB, m.BitsPerSymbol())
	sigA := m.Modulate(bitsA)
	sigB := m.Modulate(bitsB)
	mix := sigA.Scale(complex(0.8, 0)).Add(applyCFO(sigB, 0.012).Scale(complex(0.75, 0)).Delay(1100))
	rx := dsp.NewNoiseSource(1e-3, 12).AddTo(mix.PadTo(len(mix) + 500))
	buf := frame.NewSentBuffer(0)
	buf.Put(frame.SentRecord{Packet: pktA, Bits: bitsA})
	dec := core.NewDecoder(core.DefaultConfig(m, 1e-3))
	var lastBER float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dec.Decode(rx, buf.Get)
		if err != nil {
			b.Fatal(err)
		}
		lastBER = berOf(bitsB, res.WantedBits)
	}
	b.ReportMetric(lastBER, "BER-dqpsk")
}

func berOf(sent, got []byte) float64 {
	if len(sent) == 0 {
		return 0
	}
	n := len(got)
	if n > len(sent) {
		n = len(sent)
	}
	errs := len(sent) - n
	for i := 0; i < n; i++ {
		if sent[i] != got[i] {
			errs++
		}
	}
	return float64(errs) / float64(len(sent))
}

// BenchmarkClosedLoop runs two closed-loop ANC trigger rounds per
// iteration on a fresh engine — the §7.5 router decision and the §7.6
// triggers operating end to end.
func BenchmarkClosedLoop(b *testing.B) {
	sc := sim.MustScenario("closed-loop")
	for i := 0; i < b.N; i++ {
		m := engineRun(sim.NewEngine(sim.Config{Packets: 2}), nil, sc, sim.SchemeANC, int64(13+i))
		if m.Delivered == 0 {
			b.Fatal("closed loop delivered nothing")
		}
	}
}
