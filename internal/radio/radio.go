// Package radio assembles the per-node transceiver of Fig. 8: framer and
// modulator on the send side; packet detector, interference detector,
// header decoder, phase-difference matcher, ANC decoder and deframer on
// the receive side — all provided by internal/core and internal/frame and
// glued here behind a network-interface-like Node API. It also implements
// the router decision procedure of §7.5.
package radio

import (
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/frame"
)

// Node is one radio: it builds frames (remembering them for later
// interference cancellation), receives signals through the full Fig. 8
// pipeline, and can snoop on the medium (overhearing, §11.5).
type Node struct {
	ID         uint16
	Modem      core.PhyModem
	NoiseFloor float64

	buffer  *frame.SentBuffer
	decoder *core.Decoder
	// lookup is the buffer's Get bound once at construction, so Receive
	// and BatchItem never re-create the method-value closure.
	lookup core.KnownLookup
	seq    uint32
}

// NewNode builds a node with the repository-default decoder configuration
// for the given modem and noise floor. Options may adjust the decoder
// configuration before it is built (e.g. setting the network's fixed
// frame size for header-error resilience).
func NewNode(id uint16, m core.PhyModem, noiseFloor float64, opts ...func(*core.Config)) *Node {
	cfg := core.DefaultConfig(m, noiseFloor)
	for _, o := range opts {
		o(&cfg)
	}
	n := &Node{
		ID:         id,
		Modem:      m,
		NoiseFloor: noiseFloor,
		buffer:     frame.NewSentBuffer(0),
		decoder:    core.NewDecoder(cfg),
	}
	n.lookup = n.buffer.Get
	return n
}

// Reset clears the node's per-run state — the Sent Packet Buffer and the
// sequence counter — so a pooled node starts its next run exactly like a
// freshly built one. The decoder and its cached protocol constants are
// run-independent and stay.
func (n *Node) Reset() {
	n.buffer.Reset()
	n.seq = 0
}

// NextSeq allocates the next sequence number for an outgoing packet.
func (n *Node) NextSeq() uint32 {
	n.seq++
	return n.seq
}

// MarshalFrame marshals a packet for the node's modem and stores the
// sent record in the node's Sent Packet Buffer (§7.3). It does not
// modulate: the returned record has nil Samples, so a caller that owns
// sample buffers can modulate Bits into one with Modem.ModulateInto.
func (n *Node) MarshalFrame(pkt frame.Packet) frame.SentRecord {
	rec := frame.SentRecord{Packet: pkt, Bits: frame.MarshalFor(pkt, n.Modem.BitsPerSymbol())}
	n.buffer.Put(rec)
	return rec
}

// BuildFrame is MarshalFrame followed by modulation into a new buffer.
// The returned record carries the samples to transmit; the buffer keeps
// only Packet and Bits (see frame.SentRecord).
func (n *Node) BuildFrame(pkt frame.Packet) frame.SentRecord {
	rec := n.MarshalFrame(pkt)
	rec.Samples = n.Modem.Modulate(rec.Bits)
	return rec
}

// Remember stores an externally obtained record (a forwarded packet in
// the chain, an overheard packet in the "X" topology) so it can later
// cancel interference. Like BuildFrame it stores Packet and Bits only.
func (n *Node) Remember(rec frame.SentRecord) {
	rec.Samples = nil
	n.buffer.Put(rec)
}

// SetWorkspace points the node's decoder at a caller-owned workspace so
// many nodes (and runs) share one set of decode buffers. One workspace per
// worker goroutine — sharing across goroutines races. A nil workspace
// reverts to a private one.
func (n *Node) SetWorkspace(ws *core.Workspace) { n.decoder.SetWorkspace(ws) }

// Knows reports whether the buffer holds the packet for a header.
func (n *Node) Knows(h frame.Header) bool {
	_, ok := n.buffer.Get(h.Key())
	return ok
}

// Receive runs the full receive pipeline (Alg. 1) on a reception window.
func (n *Node) Receive(rx dsp.Signal) (*core.Result, error) {
	return n.decoder.Decode(rx, n.lookup)
}

// BatchItem packages a reception for core.DecodeBatch: decoding the item
// is exactly this node's Receive, deferred so a slot's receptions can be
// decoded as one burst.
func (n *Node) BatchItem(rx dsp.Signal) core.BatchItem {
	return core.BatchItem{Decoder: n.decoder, Rx: rx, Lookup: n.lookup}
}

// Overhear attempts an opportunistic single-signal decode of a snooped
// reception and, when it recovers a packet worth remembering, stores the
// recovered bits — even with payload errors. Using an imperfectly
// overheard packet as the cancellation reference is exactly what produces
// the elevated BER tail of Fig. 10(b).
//
// Two rules make snooping useful rather than self-defeating:
//
//   - A packet addressed to this node is not an overhearing target — it
//     is this node's own traffic, which will arrive via the relay; storing
//     a weak direct copy as a "known packet" would poison later
//     interference cancellation.
//   - If the first-starting transmission in the window is not a target
//     (or does not decode), the snoop retries on the time-reversed stream,
//     which captures the last-ending transmission instead.
func (n *Node) Overhear(rx dsp.Signal) (*core.Result, error) {
	res, err := n.decoder.TryClean(rx)
	if err == nil && res.HeaderOK && res.Packet.Header.Dst != n.ID {
		n.Remember(frame.SentRecord{Packet: res.Packet, Bits: res.WantedBits})
		return res, nil
	}
	resBwd, errBwd := n.decoder.TryCleanBackward(rx)
	if errBwd == nil && resBwd.HeaderOK && resBwd.Packet.Header.Dst != n.ID {
		n.Remember(frame.SentRecord{Packet: resBwd.Packet, Bits: resBwd.WantedBits})
		return resBwd, nil
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RouterAction is the §7.5 decision.
type RouterAction int

const (
	// ActionDrop discards the reception.
	ActionDrop RouterAction = iota
	// ActionDecode recovers the unknown packet (the router knows one of
	// the two colliding packets, as N2 does in the chain).
	ActionDecode
	// ActionAmplifyForward re-amplifies and re-broadcasts the interfered
	// signal without decoding (the Alice–Bob router).
	ActionAmplifyForward
)

// OppositeFlows reports whether two headers describe packets heading in
// opposite directions through a relay — the §7.5 condition for
// amplify-and-forward. The router checks that the two packets come from
// different sources and are destined to different nodes, each being a
// neighbor the router can reach.
type OppositeFlows func(a, b frame.Header) bool

// DecideRouter classifies an interfered reception per §7.5: "If either of
// the headers corresponds to a packet it already has, it will decode the
// interfered signal. If none of the headers correspond to packets it
// knows, it checks if the two packets ... are headed in opposite
// directions to its neighbors. If so, it amplifies ... If none of the
// above conditions is met, it simply drops the received signal."
func (n *Node) DecideRouter(rx dsp.Signal, opposite OppositeFlows) RouterAction {
	first, last := n.decoder.PeekHeaders(rx)
	if first != nil && n.Knows(*first) {
		return ActionDecode
	}
	if last != nil && n.Knows(*last) {
		return ActionDecode
	}
	if first != nil && last != nil && opposite != nil && opposite(*first, *last) {
		return ActionAmplifyForward
	}
	return ActionDrop
}
