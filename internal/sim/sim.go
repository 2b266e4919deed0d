// Package sim runs the paper's evaluation (§11) in simulation: it builds
// the canonical topologies, schedules transmissions the way each compared
// scheme would (ANC with triggered simultaneous senders, traditional
// routing and COPE under the optimal MAC of §11.1), synthesizes every
// reception at complex-baseband sample level, runs the full receiver
// pipelines, and accounts throughput, overlap, and bit error rates.
//
// The evaluation is organized as a pluggable scenario engine: a Scenario
// contributes a topology and per-slot schedules, the Engine owns the
// shared machinery (seeded RNG fan-out, channel realization, node
// lifecycle, reusable reception buffers, the campaign worker pool), and
// the registry makes scenarios selectable by name. The paper's three
// topologies are Scenario implementations like any other; see Scenario,
// Engine and Register.
//
// Results flow through the Recorder interface: schedules emit typed
// observations (deliveries, losses, decode BERs, collision overlaps,
// air time, per-slot link states) and the recorder decides what to
// keep — Metrics accumulates the paper's aggregates, TraceRecorder
// retains channel traces, and Engine.CampaignStream delivers per-seed
// rows to a Sink in seed order at constant memory. See Recorder.
//
// Two calibration constants connect simulated time accounting to the
// paper's testbed (see DESIGN.md and EXPERIMENTS.md):
//
//   - the random-delay distribution is sized so the mean packet overlap is
//     ≈ 80%, the figure §11.4 reports; and
//   - every transmission pays a fixed turnaround guard (GuardFrac·frame),
//     the per-transmission cost that remains even under an optimal MAC.
//
// Collision slots are charged from the first transmission's start to the
// last sample of the union (their duration is offset + frame), which is
// how a receiver-side throughput measurement sees them.
package sim

import (
	"math/rand"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/topology"
)

// cleanLead is the small lead-in of a single-transmission reception: the
// receiver starts listening this many samples before the packet.
const cleanLead = 100

// Config parameterizes one experiment run.
type Config struct {
	// SamplesPerSymbol for the modem (default 4).
	SamplesPerSymbol int
	// Modem names the registered PHY layer every node of the run
	// modulates with (see internal/phy): "msk", "dqpsk", or any name
	// added via phy.Register. Empty means "the scenario's preferred
	// modem, else MSK" — scenarios that exist to demonstrate a modem
	// (the dqpsk scenario) implement ModemChooser, and an explicit name
	// here always wins over their preference.
	Modem string
	// PayloadBytes per packet (default 128).
	PayloadBytes int
	// SNRdB is the nominal per-link SNR at the mean channel gain. nil
	// means the default 25 dB (the paper: "WLANs operate at SNR around
	// 25-40dB"); set it with Ptr — Ptr(0) is a legitimate 0 dB run, not
	// a request for the default.
	SNRdB *float64
	// Topology holds the channel realization parameters.
	Topology topology.Config
	// Delay is the §7.2 random-delay configuration; derived from the
	// frame length when zero (mean overlap ≈ 80%).
	Delay mac.DelayConfig
	// GuardFrac is the per-transmission turnaround overhead as a fraction
	// of the frame duration. nil means the default 0.08; Ptr(0) disables
	// the guard entirely.
	GuardFrac *float64
	// Packets is the number of exchanges (or delivered packets, for the
	// chain) per run (default 25; the paper used 1000 — the statistic is
	// a mean, so the run count matters more than the per-run count).
	Packets int
	// Redundancy charges FEC overhead against ANC goodput.
	Redundancy fec.RedundancyModel
	// DecoderTweak, if set, adjusts every node's decoder configuration
	// (used by the matcher ablations).
	DecoderTweak func(*core.Config)
}

// Ptr wraps a value for the Config fields whose zero is meaningful
// (SNRdB, GuardFrac): nil means "use the default", Ptr(v) means exactly
// v — including v = 0.
func Ptr(v float64) *float64 { return &v }

// DefaultConfig returns the repository-default experiment parameters.
func DefaultConfig() Config {
	return Config{}.withDefaults()
}

func (c Config) withDefaults() Config {
	if c.SamplesPerSymbol == 0 {
		c.SamplesPerSymbol = 4
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 128
	}
	if c.SNRdB == nil {
		c.SNRdB = Ptr(25)
	}
	// The topology default applies when no channel parameters were set —
	// including when only a fading model was chosen (the README's
	// "campaign-wide fading" path), which must not zero out every gain.
	sansFading := c.Topology
	sansFading.Fading = channel.FadingSpec{}
	if sansFading == (topology.Config{}) {
		fading := c.Topology.Fading
		c.Topology = topology.DefaultConfig()
		c.Topology.Fading = fading
	}
	if c.GuardFrac == nil {
		c.GuardFrac = Ptr(0.08)
	}
	if c.Packets == 0 {
		c.Packets = 25
	}
	if c.Redundancy == (fec.RedundancyModel{}) {
		c.Redundancy = fec.DefaultRedundancy()
	}
	if c.Delay == (mac.DelayConfig{}) {
		m := c.delayModem()
		L := m.NumSamples(frame.FrameBits(c.PayloadBytes))
		// Minimum separation: pilot+header must clear interference even
		// after detector jitter (about one detection window each way).
		// NumSamples-1 is the pilot+header span in samples for any
		// bits-per-symbol (for MSK it is exactly bits·S, the pre-registry
		// derivation).
		window := 4 * c.SamplesPerSymbol * 8
		minSep := m.NumSamples(bits.PilotLength+frame.HeaderBits) - 1 + 3*window
		slot := L / 640
		if slot < 2 {
			slot = 2
		}
		c.Delay = mac.DelayConfig{MinSeparation: minSep, Slots: 32, SlotSamples: slot}
	}
	return c
}

// modem resolves the configured modem name ("" = phy.Default) to an
// instance. Unregistered names panic with the registry enumerated: the
// Engine and the CLI validate up front and turn this into a proper
// error, and the direct construction surfaces (FrameSamples, newEnv)
// must fail loudly rather than silently run the default PHY under a
// typo'd name.
func (c Config) modem() phy.Modem {
	name := c.Modem
	if name == "" {
		name = phy.Default
	}
	return phy.MustNew(name, c.SamplesPerSymbol)
}

// delayModem is modem() falling back to the default PHY on an
// unregistered name: withDefaults must stay total (NewEngine cannot
// return an error), and the bad name is rejected with a proper error
// before any run starts (Engine.runConfig).
func (c Config) delayModem() phy.Modem {
	if name := c.Modem; name != "" {
		if m, err := phy.New(name, c.SamplesPerSymbol); err == nil {
			return m
		}
	}
	return phy.MustNew(phy.Default, c.SamplesPerSymbol)
}

// Metrics aggregates one run's outcome. It is the default Recorder: the
// schedules emit typed observations (see Recorder) and Metrics folds them
// into exactly these aggregates, which keeps the accounting bit-identical
// to the era when steppers mutated the fields directly.
type Metrics struct {
	// DeliveredBits is goodput: payload bits delivered, discounted by the
	// BER-dependent redundancy charge for ANC decodes.
	DeliveredBits float64
	// TimeSamples is the air time consumed, in samples.
	TimeSamples float64
	// BERs holds the payload bit error rate of every ANC-decoded packet
	// (the Fig. 9b/10b/12b data). Empty for the baselines.
	BERs []float64
	// Overlaps holds the per-collision overlap fractions (§11.4).
	Overlaps []float64
	// Delivered and Lost count packets.
	Delivered, Lost int
}

// Throughput returns delivered payload bits per sample of air time.
func (m Metrics) Throughput() float64 {
	if m.TimeSamples == 0 {
		return 0
	}
	return m.DeliveredBits / m.TimeSamples
}

// MeanBER returns the average ANC-decode BER of the run.
func (m Metrics) MeanBER() float64 {
	if len(m.BERs) == 0 {
		return 0
	}
	var s float64
	for _, b := range m.BERs {
		s += b
	}
	return s / float64(len(m.BERs))
}

// MeanOverlap returns the average collision overlap of the run.
func (m Metrics) MeanOverlap() float64 {
	if len(m.Overlaps) == 0 {
		return 0
	}
	var s float64
	for _, o := range m.Overlaps {
		s += o
	}
	return s / float64(len(m.Overlaps))
}

// Env is the assembled machinery for one run: the modem, the per-run
// channel realization, the node transceivers and the shared reception
// scratch buffers. Scenario schedules run against it — the exported
// methods below are the vocabulary a Scenario's Stepper composes its
// per-slot schedule from.
type Env struct {
	cfg        Config
	seed       int64
	rng        *rand.Rand
	modem      phy.Modem
	graph      *topology.Graph
	nodes      []*radio.Node
	noiseFloor float64
	frameLen   int // samples per frame
	guard      int
	tailPad    int
	scratch    *Scratch
	noiseSrc   *dsp.NoiseSource
}

// newEnv builds nodes and a fresh channel realization for one run,
// drawing reception buffers from scratch (nil for a private pool). The
// node IDs are their topology indices plus one (ID 0 is reserved).
func newEnv(cfg Config, seed int64, build func(topology.Config, *rand.Rand) *topology.Graph, scratch *Scratch) *Env {
	if scratch == nil {
		scratch = NewScratch()
	}
	cfg = cfg.withDefaults()
	rng := scratch.runRNG(seed)
	name := cfg.Modem
	if name == "" {
		name = phy.Default
	}
	modem := scratch.modemFor(name, cfg.SamplesPerSymbol)
	g := build(cfg.Topology, rng)
	floor := cfg.Topology.MeanPowerGain / dsp.FromDB(*cfg.SNRdB)
	fixedFrame := frame.FrameBits(cfg.PayloadBytes)
	nodes := scratch.nodesFor(cfg, name, modem, floor, fixedFrame, g.N)
	ws := scratch.Workspace()
	for i := range nodes {
		// All of a run's nodes decode on one goroutine, so they share the
		// worker's decode workspace and steady-state decodes allocate
		// nothing.
		nodes[i].SetWorkspace(ws)
	}
	L := modem.NumSamples(frame.FrameBits(cfg.PayloadBytes))
	window := 4 * cfg.SamplesPerSymbol * 8
	tailPad := 4 * window
	// The run's links have new carrier offsets. Its longest standard
	// reception is a collision at the largest delay, tail pad included.
	scratch.nrots, scratch.rotCap = 0, cfg.Delay.MaxDelay()+L+tailPad
	e := scratch.envShell()
	*e = Env{
		cfg:        cfg,
		seed:       seed,
		rng:        rng,
		modem:      modem,
		graph:      g,
		nodes:      nodes,
		noiseFloor: floor,
		frameLen:   L,
		guard:      mac.Guard(*cfg.GuardFrac, L),
		tailPad:    tailPad,
		scratch:    scratch,
		noiseSrc:   scratch.noiseSourceFor(floor),
	}
	return e
}

// noise returns a deterministic noise source for one reception. The
// underlying generator is reused across receptions; every call rewinds it
// onto a fresh stream drawn from the run RNG, so the samples match what a
// newly allocated source would produce.
func (e *Env) noise() *dsp.NoiseSource {
	e.noiseSrc.Reseed(e.rng.Int63())
	return e.noiseSrc
}

// payload draws a random payload.
func (e *Env) payload() []byte {
	p := make([]byte, e.cfg.PayloadBytes)
	e.rng.Read(p)
	return p
}

// receive synthesizes one reception into a scratch buffer: the delayed
// union of the transmissions, tail padding, and this receiver's thermal
// noise. Release the returned signal once it has been decoded.
func (e *Env) receive(txs ...channel.Transmission) dsp.Signal {
	buf := e.scratch.take(channel.ReceiveLen(e.tailPad, txs...))
	txs = e.scratch.withRotations(txs)
	rx := channel.ReceiveInto(buf, e.noise(), e.tailPad, txs...)
	clear(txs) // don't pin the signals past this reception
	return rx
}

// buildFrame is n.BuildFrame with the samples owned by the worker's
// Scratch: the node marshals the packet and remembers it in its Sent
// Packet Buffer, and the samples come from the slot's frames. A frame
// whose bits equal one already built this slot shares its samples — a
// relay regenerating the frame it just decoded (§2) modulates nothing.
// Every node of a run modulates with the run's modem, so equal bits mean
// equal samples. The samples live until the slot's step returns
// (runRecording releases them), so no schedule may keep them longer.
func (e *Env) buildFrame(n *radio.Node, pkt frame.Packet) frame.SentRecord {
	rec := n.MarshalFrame(pkt)
	rec.Samples = e.scratch.frameSamples(e.modem, rec.Bits)
	return rec
}

// release returns a reception buffer to the scratch pool. The decoder
// does not retain reception samples past Decode, so releasing after the
// slot's decodes is safe.
func (e *Env) release(sig dsp.Signal) { e.scratch.give(sig) }

// --- the exported scenario-facing surface ---

// Config returns the run configuration with defaults applied.
func (e *Env) Config() Config { return e.cfg }

// Seed returns the run's seed — the identity of this run's channel
// realization, shared by every scheme compared against it.
func (e *Env) Seed() int64 { return e.seed }

// RNG returns the run's random source. Every random choice a schedule
// makes must come from it (or from streams seeded by it) to keep runs
// reproducible and channel realizations identical across compared schemes.
func (e *Env) RNG() *rand.Rand { return e.rng }

// Modem returns the run's PHY modem — the instance every node of the
// run modulates and decodes with (shared; modems are stateless).
func (e *Env) Modem() phy.Modem { return e.modem }

// Graph returns the run's channel realization.
func (e *Env) Graph() *topology.Graph { return e.graph }

// Node returns the transceiver at a topology index.
func (e *Env) Node(i int) *radio.Node { return e.nodes[i] }

// NumNodes returns the node count.
func (e *Env) NumNodes() int { return len(e.nodes) }

// FrameLen returns the on-air sample count of one frame.
func (e *Env) FrameLen() int { return e.frameLen }

// GuardSamples returns the per-transmission turnaround overhead in samples.
func (e *Env) GuardSamples() int { return e.guard }

// Payload draws a fresh random payload from the run RNG.
func (e *Env) Payload() []byte { return e.payload() }

// DrawDelay draws the §7.2 random start offset of the second of two
// triggered transmissions.
func (e *Env) DrawDelay() int { return e.cfg.Delay.Draw(e.rng) }

// Receive synthesizes one reception (see receive). Pass it to a node's
// Receive/Overhear and then Release it.
func (e *Env) Receive(txs ...channel.Transmission) dsp.Signal { return e.receive(txs...) }

// Release returns a Receive buffer to the scratch pool.
func (e *Env) Release(sig dsp.Signal) { e.release(sig) }

// CleanHop transmits a frame over one link and decodes it at the far end.
func (e *Env) CleanHop(rec frame.SentRecord, from, to int) (ok bool, payload []byte) {
	return e.cleanHop(rec, from, to)
}

// AccountANCDecode decodes an interfered reception at a node and charges
// goodput/loss against the wanted frame (see accountANCDecode).
func (e *Env) AccountANCDecode(r Recorder, n *radio.Node, rx dsp.Signal, wanted frame.SentRecord) {
	e.accountANCDecode(r, n, rx, wanted)
}

// RecordOverlap reports the §11.4 overlap fraction of a collision with
// the drawn start offset delta.
func (e *Env) RecordOverlap(r Recorder, delta int) {
	r.RecordCollision(mac.OverlapFraction(e.frameLen, delta))
}

// ChargeCleanSlots charges air time for k sequential single-signal
// transmissions (frame plus turnaround guard each).
func (e *Env) ChargeCleanSlots(r Recorder, k int) {
	r.RecordAirTime(float64(k * (e.frameLen + e.guard)))
}

// ChargeCollisionSlots charges air time for k slots that each carry the
// union of a collision whose second transmission started delta late.
func (e *Env) ChargeCollisionSlots(r Recorder, k, delta int) {
	r.RecordAirTime(float64(k * (delta + e.frameLen + e.guard)))
}

// payloadBER compares the payload section (payload bits + CRC) of a
// recovered frame bit stream against the transmitted one; missing bits
// count as errors. This is the paper's BER metric: errors in the decoded
// packet relative to the payload that was sent.
func payloadBER(truth, got []byte, payloadBytes int) float64 {
	lo := bits.PilotLength + frame.HeaderBits
	hi := lo + frame.PayloadSectionBits(payloadBytes)
	if hi > len(truth) {
		hi = len(truth)
	}
	t := truth[lo:hi]
	var g []byte
	if lo < len(got) {
		end := hi
		if end > len(got) {
			end = len(got)
		}
		g = got[lo:end]
	}
	return bits.BER(t, g)
}

// newEnvForTest exposes derived run parameters to tests.
func newEnvForTest(cfg Config, seed int64) *Env {
	return newEnv(cfg, seed, topology.AliceBob, nil)
}

// cleanHop transmits a frame over one link and decodes it at the far end.
func (e *Env) cleanHop(rec frame.SentRecord, from, to int) (ok bool, payload []byte) {
	link, inRange := e.graph.Link(from, to)
	if !inRange {
		return false, nil
	}
	rx := e.receive(channel.Transmission{Signal: rec.Samples, Link: link, Delay: cleanLead})
	res, err := e.nodes[to].Receive(rx)
	e.release(rx)
	if err != nil || !res.BodyOK {
		return false, nil
	}
	return true, res.Packet.Payload
}

// WithDefaults returns the configuration with every zero field replaced
// by its default, exposing the derived values (delay distribution, packet
// counts) to callers that need to reason about them.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// FrameSamples returns the on-air sample count of one frame under the
// configuration (the configured modem's, so a dqpsk frame is about half
// an MSK frame at equal payload).
func (c Config) FrameSamples() int {
	c = c.withDefaults()
	return c.modem().NumSamples(frame.FrameBits(c.PayloadBytes))
}
