// Package cope implements the digital network coding baseline the paper
// compares against (§11.1): the COPE protocol of Katti et al. [17],
// scoped to the evaluated topologies. The router stores the packets of
// the two crossing flows, XORs their payloads, and broadcasts the coded
// packet once; each destination XORs again with the packet it knows
// (its own, or one it overheard) to recover the packet it wants.
//
// As in the paper, COPE here runs over an optimal MAC (no collisions or
// backoff) and uses sequential — never interfering — transmissions: its
// gain over routing comes purely from saving the fourth slot.
package cope

import (
	"errors"
	"fmt"

	"repro/internal/frame"
)

// CodedFlag marks a packet whose payload is the XOR of two native
// packets. Carried in the header flags.
const CodedFlag = 1 << 1

// Encode XORs two native packets into one coded broadcast packet. The
// payloads must have equal length (the canonical topologies exchange
// equal-sized packets; general COPE pads, which we reject explicitly to
// keep accounting honest). The coded header records the router as source;
// the destination field is unused (broadcast).
func Encode(router uint16, seq uint32, a, b frame.Packet) (frame.Packet, error) {
	if len(a.Payload) != len(b.Payload) {
		return frame.Packet{}, fmt.Errorf("cope: payload lengths differ (%d vs %d)", len(a.Payload), len(b.Payload))
	}
	xo := make([]byte, len(a.Payload))
	for i := range xo {
		xo[i] = a.Payload[i] ^ b.Payload[i]
	}
	pkt := frame.NewPacket(router, 0xFFFF, seq, xo)
	pkt.Header.Flags |= CodedFlag
	return pkt, nil
}

// ErrNotCoded is returned when decoding a packet without the coded flag.
var ErrNotCoded = errors.New("cope: packet is not coded")

// Decode recovers the unknown payload from a coded packet using the known
// native payload: XOR-ing the coded payload with the known one.
func Decode(coded frame.Packet, known []byte) ([]byte, error) {
	if coded.Header.Flags&CodedFlag == 0 {
		return nil, ErrNotCoded
	}
	if len(coded.Payload) != len(known) {
		return nil, fmt.Errorf("cope: known payload %d bytes, coded %d", len(known), len(coded.Payload))
	}
	out := make([]byte, len(known))
	for i := range out {
		out[i] = coded.Payload[i] ^ known[i]
	}
	return out, nil
}

// Pool is the router's store of native packets awaiting coding
// opportunities, keyed by flow (src, dst). It queues copies of the
// payloads it is given, so a caller may reuse a payload buffer once Put
// returns, and a packet may wait in the pool for many steps.
type Pool struct {
	byFlow map[[2]uint16][]frame.Packet
	// spare holds the payload storage of packets TakePair returned, which
	// later Puts reuse.
	spare [][]byte
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{byFlow: make(map[[2]uint16][]frame.Packet)}
}

// Put queues a native packet with a copy of its payload.
func (p *Pool) Put(pkt frame.Packet) {
	var buf []byte
	if n := len(p.spare); n > 0 {
		buf, p.spare[n-1] = p.spare[n-1], nil
		p.spare = p.spare[:n-1]
	}
	pkt.Payload = append(buf[:0], pkt.Payload...)
	k := [2]uint16{pkt.Header.Src, pkt.Header.Dst}
	p.byFlow[k] = append(p.byFlow[k], pkt)
}

// TakePair removes and returns the oldest packet of each of two flows, if
// both have one queued — a coding opportunity. The returned payloads stay
// valid until the next Put, which may reuse their storage.
func (p *Pool) TakePair(srcA, dstA, srcB, dstB uint16) (frame.Packet, frame.Packet, bool) {
	ka := [2]uint16{srcA, dstA}
	kb := [2]uint16{srcB, dstB}
	qa, qb := p.byFlow[ka], p.byFlow[kb]
	if len(qa) == 0 || len(qb) == 0 {
		return frame.Packet{}, frame.Packet{}, false
	}
	a, b := qa[0], qb[0]
	p.byFlow[ka] = qa[1:]
	p.byFlow[kb] = qb[1:]
	p.spare = append(p.spare, a.Payload, b.Payload)
	return a, b, true
}
