// Package anc is the public API of the analog network coding library, a
// reproduction of Katti, Gollakota and Katabi, "Embracing Wireless
// Interference: Analog Network Coding" (SIGCOMM 2007).
//
// The library decodes MSK transmissions that collided in the air, given
// network-layer knowledge of one of the colliding packets: the receiver
// solves for the two candidate phase pairs of each received sample
// (Lemma 6.1), picks the pair consistent with the known packet's phase
// differences, and reads the other packet out of what remains. Routers
// forward interfered *signals* (amplify-and-forward) instead of packets,
// halving the slot count of the canonical two-way relay.
//
// # Layers
//
//   - Modem: MSK modulation and demodulation over complex baseband
//     samples ([Signal]).
//   - Frames: [Packet] marshaling with the pilot/header layout that makes
//     both forward and backward interference decoding possible ([Marshal],
//     [Unmarshal]).
//   - Nodes: [Node] bundles a modem, a sent-packet buffer and the
//     interference decoder behind a network-interface-like API
//     (Send/Receive/Overhear), including the §7.5 router policy.
//   - Channels: [Link], [Receive] and [AmplifyForward] synthesize
//     receptions at sample level (the library's substitute for a radio
//     front end).
//   - Experiments: [Engine] runs any registered [Scenario] (the paper's
//     topologies, the §7.5 "closed-loop" router and the extras), and
//     [Fig7] … [Fig13] regenerate the paper's evaluation.
//
// See examples/quickstart for a three-minute tour.
package anc

import (
	"math/rand"

	"repro/internal/capacity"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/dqpsk"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/frame"
	"repro/internal/msk"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats/sketch"
	"repro/internal/topology"
)

// Signal is a stream of complex baseband samples.
type Signal = dsp.Signal

// PhyModem is the modulation contract the interference decoder needs —
// §4's "applicable to any phase shift keying modulation", as an
// interface. The library ships MSK ([NewModem], the paper's choice) and
// π/4-DQPSK ([NewDQPSKModem]).
type PhyModem = core.PhyModem

// Modem is the pluggable PHY contract: PhyModem plus the registry
// identity (Name). Registered modems are an experiment axis — every
// scenario campaign runs under any of them (SimConfig.Modem, ancsim
// -modem). Implementations must be stateless, safe for concurrent use,
// and keep the *Into ownership rules: results go into the caller's dst
// storage, internal working buffers come only from the caller's
// scratch, so steady-state decodes allocate nothing. ModulateInto must
// return Modulate's samples whatever dst holds: the engine modulates
// every frame into a pooled buffer that still holds an earlier frame.
// StepPrior must be a distance, ≥ 0 for every dphi (or NaN): the
// interference matcher skips candidates on the strength of it.
//
// DemodulateSettledInto must not overstate how many bits are settled:
// for every longer signal that starts with s, the first settled bits
// must come out the same. The clean-head search trusts those bits
// without checking them, so an overstated count can make it pick a
// different alignment than a whole-signal search. Reporting 0 is always
// correct, only slower (the search then demodulates the whole view).
// Modems registered in this repository are checked by
// phy.TestDemodulateSettledPrefixProperty, which runs over every
// registry entry.
type Modem = phy.Modem

// RegisterModem adds a modem factory to the PHY registry under a
// CLI-facing name (duplicates panic). The factory builds an instance at
// a given oversampling factor.
var RegisterModem = phy.Register

// Modems returns the registered modem names, sorted ("msk" and "dqpsk"
// ship built in).
func Modems() []string { return phy.Names() }

// NewModemByName builds a registered modem at the given oversampling
// factor; unknown names fail with the registry enumerated.
func NewModemByName(name string, samplesPerSymbol int) (Modem, error) {
	return phy.New(name, samplesPerSymbol)
}

// MSKModem is the concrete MSK modulator/demodulator (§5).
type MSKModem = msk.Modem

// NewModem returns an MSK modem with the given options (defaults: 4
// samples per symbol, unit amplitude).
func NewModem(opts ...ModemOption) *MSKModem { return msk.New(opts...) }

// ModemOption configures an MSK Modem.
type ModemOption = msk.Option

// DQPSKModem is the π/4 differential QPSK modem — two bits per symbol,
// constant envelope, full forward and backward (§7.4) interference
// decoding: frames for multi-bit modems are mirrored in symbol units
// ([MarshalFor]).
type DQPSKModem = dqpsk.Modem

// NewDQPSKModem returns a π/4-DQPSK modem (defaults: 4 samples/symbol,
// unit amplitude).
func NewDQPSKModem(opts ...dqpsk.Option) *DQPSKModem { return dqpsk.New(opts...) }

// WithSamplesPerSymbol sets the modem oversampling factor.
func WithSamplesPerSymbol(s int) ModemOption { return msk.WithSamplesPerSymbol(s) }

// WithAmplitude sets the constant MSK transmit amplitude.
func WithAmplitude(a float64) ModemOption { return msk.WithAmplitude(a) }

// Packet is a network-layer packet (header plus payload).
type Packet = frame.Packet

// Header identifies a packet: source, destination, sequence, length, flags.
type Header = frame.Header

// NewPacket builds a packet with a filled-in header.
func NewPacket(src, dst uint16, seq uint32, payload []byte) Packet {
	return frame.NewPacket(src, dst, seq, payload)
}

// Marshal produces a packet's on-air bit stream for a one-bit-per-symbol
// modem: pilot, header, whitened payload with CRC, then the mirrored
// header and pilot (Fig. 6).
func Marshal(p Packet) []byte { return frame.Marshal(p) }

// MarshalFor is Marshal with the mirrored tail laid out in units of
// bitsPerSymbol, which is what lets a multi-bit modem decode the frame
// off a conjugate time-reversed stream (§7.4). Marshal is
// MarshalFor(p, 1). Nodes marshal through their modem's width
// automatically; use this only when framing by hand.
func MarshalFor(p Packet, bitsPerSymbol int) []byte { return frame.MarshalFor(p, bitsPerSymbol) }

// Unmarshal parses an on-air bit stream back into a packet, verifying
// both CRCs.
func Unmarshal(bs []byte) (Packet, error) { return frame.Unmarshal(bs) }

// FrameBits returns the on-air frame size in bits for a payload of n
// bytes.
func FrameBits(n int) int { return frame.FrameBits(n) }

// Node is a radio endpoint or router: it frames and modulates outgoing
// packets (remembering them for interference cancellation), runs the full
// receive pipeline of Algorithm 1, snoops the medium, and makes the §7.5
// router decision.
type Node = radio.Node

// Result is a receive-pipeline outcome: the recovered packet, its raw
// frame bits for error accounting, CRC flags, and whether decoding ran
// clean, forward, or backward.
type Result = core.Result

// RouterAction is a §7.5 router decision.
type RouterAction = radio.RouterAction

// Router decisions.
const (
	ActionDrop           = radio.ActionDrop
	ActionDecode         = radio.ActionDecode
	ActionAmplifyForward = radio.ActionAmplifyForward
)

// NodeOption adjusts a node's decoder configuration.
type NodeOption = func(*core.Config)

// WithFixedFrameSize tells the decoder the network's fixed frame size (in
// payload bytes): when a recovered frame's header fails its CRC, the bit
// stream is still normalized to that length so FEC can repair header and
// payload errors alike. Networks with a fixed MTU should set this.
func WithFixedFrameSize(payloadBytes int) NodeOption {
	return func(c *core.Config) { c.FallbackFrameBits = frame.FrameBits(payloadBytes) }
}

// NewNode builds a node. noiseFloor is the receiver's calibrated noise
// power (linear); it parameterizes the §7.1 detectors.
func NewNode(id uint16, m PhyModem, noiseFloor float64, opts ...NodeOption) *Node {
	return radio.NewNode(id, m, noiseFloor, opts...)
}

// Workspace holds the reusable buffers one decode pipeline needs. Attach
// one to every node a goroutine drives (Node.SetWorkspace) and its
// steady-state decodes allocate nothing beyond the returned Result.
// Release a Result once done with it (Workspace.Release) and a later
// decode reuses it with its bit and payload storage, allocating nothing
// at all; a Result never released stays valid for good. One workspace per
// goroutine — sharing across goroutines races.
type Workspace = core.Workspace

// NewWorkspace returns an empty decode workspace; buffers grow on first
// use and are retained.
func NewWorkspace() *Workspace { return core.NewWorkspace() }

// BatchItem is one reception of a decode burst; build it with
// Node.BatchItem so the item carries the node's decoder and sent-buffer
// lookup.
type BatchItem = core.BatchItem

// BatchResult is one burst item's outcome, exactly what the equivalent
// Node.Receive would have returned.
type BatchResult = core.BatchResult

// DecodeBatch decodes a burst of receptions in one pass, amortizing
// per-reception setup across the batch. Results are bit-identical to
// decoding each item individually; see core.DecodeBatch.
var DecodeBatch = core.DecodeBatch

// SentRecord is a transmission a node remembers so it can later cancel it
// out of an interfered reception.
type SentRecord = frame.SentRecord

// Link is a point-to-point channel: amplitude attenuation, phase shift,
// and residual carrier-frequency offset.
type Link = channel.Link

// ChannelModel is a time-varying channel: the Link realization an edge
// presents at each schedule slot. Implementations must be deterministic
// random-access functions of the slot and allocation free (the engine
// realizes links inside the per-slot hot path). The library ships
// [StaticChannel], [BlockFading] and [Mobility].
type ChannelModel = channel.Model

// StaticChannel is the degenerate ChannelModel: one realization for the
// whole run — the behavior of every pre-fading campaign, bit for bit.
type StaticChannel = channel.Static

// BlockFading is Rician (K > 0) or Rayleigh (K = 0) block fading: an
// independent complex-Gaussian draw held for BlockSlots consecutive
// slots, derived by hashing (Seed, block) so traces are random access
// and reproducible.
type BlockFading = channel.BlockFading

// Mobility is a deterministic mobility trace: a sinusoidal dB power
// swing around the base realization plus a constant-rate Doppler phase
// advance.
type Mobility = channel.Mobility

// FadingSpec selects the ChannelModel a topology realizes on every
// link; the zero value is static. Set it on TopologyConfig.Fading (or
// via the ancsim -fading flag) to make a whole campaign time varying.
type FadingSpec = channel.FadingSpec

// FadingKind selects a ChannelModel family for FadingSpec.
type FadingKind = channel.FadingKind

// The model families a FadingSpec can choose.
const (
	FadingStatic   = channel.FadingStatic
	FadingRayleigh = channel.FadingRayleigh
	FadingRician   = channel.FadingRician
	FadingMobility = channel.FadingMobility
)

// ParseFadingKind parses a FadingKind from its flag spelling
// (static|rayleigh|rician|mobility).
func ParseFadingKind(s string) (FadingKind, error) { return channel.ParseFadingKind(s) }

// Transmission is one sender's contribution to a reception.
type Transmission = channel.Transmission

// NoiseSource generates circularly-symmetric complex AWGN.
type NoiseSource = dsp.NoiseSource

// NewNoiseSource returns a deterministic noise source with the given
// average sample power.
func NewNoiseSource(power float64, seed int64) *NoiseSource {
	return dsp.NewNoiseSource(power, seed)
}

// Receive superposes concurrent transmissions as seen by one receiver,
// pads the window with trailing noise, and adds receiver noise — the
// library's wireless medium.
func Receive(noise *NoiseSource, tailPad int, txs ...Transmission) Signal {
	return channel.Receive(noise, tailPad, txs...)
}

// AmplifyForward rescales a received (possibly interfered) signal to the
// router's transmit power — the §2 relay operation. It amplifies the
// embedded noise along with the signals, which is the low-SNR penalty the
// capacity analysis quantifies.
func AmplifyForward(rx Signal, power float64) Signal {
	return channel.AmplifyTo(rx, power)
}

// AmplifyForwardInPlace is AmplifyForward overwriting rx instead of
// allocating, for relays that no longer need the raw reception.
func AmplifyForwardInPlace(rx Signal, power float64) Signal {
	return channel.AmplifyToInPlace(rx, power)
}

// RandomLink draws a channel realization: mean power gain with uniform
// dB jitter and a uniform random phase.
func RandomLink(rng *rand.Rand, meanPowerGain, jitterDB float64) Link {
	return channel.RandomLink(rng, meanPowerGain, jitterDB)
}

// CapacityPoint is one row of the Fig. 7 capacity series.
type CapacityPoint = capacity.Point

// CapacitySweep evaluates the Theorem 8.1 bounds (routing upper bound,
// ANC lower bound) over an SNR range in dB.
func CapacitySweep(fromDB, toDB, stepDB float64) []CapacityPoint {
	return capacity.Sweep(fromDB, toDB, stepDB)
}

// SimConfig parameterizes one simulated evaluation run.
type SimConfig = sim.Config

// Ptr wraps a value for the SimConfig fields whose zero is meaningful
// (SNRdB, GuardFrac): nil means "use the default", Ptr(v) means exactly
// v — including v = 0, so a true 0 dB run is expressible.
func Ptr(v float64) *float64 { return sim.Ptr(v) }

// Metrics aggregates a run's throughput, BER and overlap statistics.
type Metrics = sim.Metrics

// DefaultSimConfig returns the repository-default evaluation parameters
// (4 samples/symbol, 128-byte payloads, 25 dB SNR, ≈80% mean overlap).
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Scenario is one simulated workload plugged into the scenario engine: a
// topology plus the per-slot schedule of every scheme it supports. The
// paper's three evaluation topologies and the engine-unlocked extras ship
// registered; register your own with RegisterScenario.
type Scenario = sim.Scenario

// Scheme identifies a compared transmission scheme.
type Scheme = sim.Scheme

// The compared schemes.
const (
	SchemeANC     = sim.SchemeANC
	SchemeRouting = sim.SchemeRouting
	SchemeCOPE    = sim.SchemeCOPE
)

// Engine runs scenarios: per-run seeding, channel realization, node
// lifecycle, reusable reception buffers and the campaign worker pool.
// Engine.CampaignStream delivers per-seed rows to a Sink in seed order
// while holding O(workers) rows in memory; Engine.Campaign materializes
// the matrix.
type Engine = sim.Engine

// NewEngine returns a scenario engine for the given configuration.
func NewEngine(cfg SimConfig) *Engine { return sim.NewEngine(cfg) }

// Env is the per-run environment a scenario's schedule runs against:
// nodes, the channel realization, the run RNG and the reception buffers.
type Env = sim.Env

// Stepper advances one run by one schedule cycle, emitting observations
// into the run's Recorder.
type Stepper = sim.Stepper

// StepFunc adapts a function to the Stepper interface.
type StepFunc = sim.StepFunc

// Recorder consumes the typed observations a schedule emits: deliveries,
// losses, interference-decode BERs, collision overlaps, air time, and
// per-slot link states. Metrics is the default accumulating Recorder;
// TraceRecorder additionally retains per-slot channel gains; custom
// implementations stream observations wherever analysis wants them.
type Recorder = sim.Recorder

// TraceRecorder is a Recorder that retains every edge's per-slot power
// gain alongside the usual Metrics — the raw material of outage
// statistics for fading and mobility campaigns.
type TraceRecorder = sim.TraceRecorder

// NewTraceRecorder returns an empty trace recorder.
func NewTraceRecorder() *TraceRecorder { return sim.NewTraceRecorder() }

// QuantileSketch is a mergeable quantile sketch: campaign-scale
// distribution pools in O(sketch) memory with the stats.Sample read API
// (Mean, Quantile, CDFAt, OutageBelow, FadeMarginDB) and an *exact*
// merge — two shards' sketches combine into byte-for-byte the state the
// unsharded campaign would have built, whatever the shard count or merge
// order. Serialize with Encode; DecodeSketch reverses it.
type QuantileSketch = sketch.Sketch

// DefaultSketchAlpha is the relative accuracy campaign summaries use.
const DefaultSketchAlpha = sketch.DefaultAlpha

// NewQuantileSketch returns an empty sketch with relative accuracy
// alpha; NewDefaultQuantileSketch uses DefaultSketchAlpha. Sketches only
// merge when their accuracies match exactly.
var (
	NewQuantileSketch        = sketch.New
	NewDefaultQuantileSketch = sketch.NewDefault
	// DecodeSketch parses a sketch from its canonical Encode form,
	// rejecting anything malformed.
	DecodeSketch = sketch.Decode
)

// SketchRecorder is a Recorder whose distribution pools are
// QuantileSketches instead of observation buffers: one recorder
// accumulates a whole campaign (or one shard of it) in O(sketch) memory,
// and shard recorders Merge into bit-identical campaign statistics.
type SketchRecorder = sim.SketchRecorder

// LinkSketch is one directed edge's pooled gain sketch.
type LinkSketch = sim.LinkSketch

// NewSketchRecorder returns an empty sketch recorder at
// DefaultSketchAlpha; NewSketchRecorderAlpha picks the accuracy.
var (
	NewSketchRecorder      = sim.NewSketchRecorder
	NewSketchRecorderAlpha = sim.NewSketchRecorderAlpha
)

// SeedRange is one shard's half-open share [Lo, Hi) of a campaign's
// seed slice.
type SeedRange = sim.SeedRange

// SplitSeeds partitions n campaign seeds into contiguous, balanced
// shard ranges — a pure function of (n, shards), so every coordinator
// and worker computes the identical partition.
var SplitSeeds = sim.SplitSeeds

// LinkTrace is one directed edge's per-slot power-gain trace.
type LinkTrace = sim.LinkTrace

// Row is one seed's streamed campaign outcome: per-scheme metrics (and,
// with WithLinkTraces, per-slot channel traces) delivered to a Sink in
// seed order.
type Row = sim.Row

// Sink consumes streamed campaign rows; see Engine.CampaignStream.
type Sink = sim.Sink

// SinkFunc adapts a function to the Sink interface.
type SinkFunc = sim.SinkFunc

// WithLinkTraces makes a streaming campaign run every scheme under a
// TraceRecorder, attaching per-slot link-gain traces to each Row.
var WithLinkTraces = sim.WithLinkTraces

// WithWorkers sets a streaming campaign's worker-goroutine count (≤ 0
// keeps the GOMAXPROCS default); rows are bit-identical at any count.
var WithWorkers = sim.WithWorkers

// Scenario registry access.
var (
	RegisterScenario = sim.Register
	LookupScenario   = sim.LookupScenario
	Scenarios        = sim.Scenarios
)

// NewChainN builds (without registering) the Fig. 2 chain generalized
// to an arbitrary hop count; the registry ships chain-5. Register other
// lengths with RegisterScenario.
func NewChainN(hops int) Scenario { return sim.NewChainN(hops) }

// ExperimentOptions configures a figure-regeneration campaign.
type ExperimentOptions = experiments.Options

// GainResult holds a topology campaign's gain and BER distributions.
type GainResult = experiments.GainResult

// Figure regeneration entry points (see DESIGN.md's experiment index).
var (
	Fig9    = experiments.Fig9
	Fig10   = experiments.Fig10
	Fig12   = experiments.Fig12
	Fig13   = experiments.Fig13
	Fig7    = experiments.Fig7
	Summary = experiments.Summary
	// ScenarioCampaign runs ANC versus baselines for any registered
	// scenario by name.
	ScenarioCampaign = experiments.ScenarioCampaign
)

// StreamOptions configures a machine-readable campaign (JSON, CSV or
// sharded NDJSON).
type StreamOptions = experiments.StreamOptions

// The machine-readable campaign writers. WriteCampaignJSON streams one
// document (header, per-seed rows, sketch-pooled summary);
// WriteCampaignCSV is the flat table. WriteCampaignNDJSON runs one
// worker's shard (1-based shard of shards) as row-per-line NDJSON plus a
// trailing summary record, and MergeSummaries folds worker outputs back
// into the exact unsharded document, byte for byte (README "Sharded
// campaigns").
var (
	WriteCampaignJSON   = experiments.WriteCampaignJSON
	WriteCampaignCSV    = experiments.WriteCampaignCSV
	WriteCampaignNDJSON = experiments.WriteCampaignNDJSON
	MergeSummaries      = experiments.MergeSummaries
)

// TopologyConfig controls channel realizations for the canonical
// topologies.
type TopologyConfig = topology.Config

// Topology is a directed link graph over nodes.
type Topology = topology.Graph

// Canonical topology builders (Figs. 1, 2, 11) plus the engine-unlocked
// variants.
var (
	NewAliceBobTopology      = topology.AliceBob
	NewChainTopology         = topology.Chain
	NewXTopology             = topology.X
	NewXCrossTopology        = topology.XCross
	NewParallelPairsTopology = topology.ParallelPairs
)

// NewTopology builds an empty custom graph of n nodes; Connect and
// ConnectBoth realize its links with the same per-run randomization as
// the canonical topologies. This is how custom scenarios describe
// arbitrary networks.
func NewTopology(n int, names []string, cfg TopologyConfig, rng *rand.Rand) *Topology {
	return topology.New(n, names, cfg, rng)
}
