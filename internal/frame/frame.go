// Package frame implements the ANC frame layout of Fig. 6 and §7.2–§7.4:
//
//	[pilot][header][payload+CRC][reversed header][reversed pilot]
//
// The 64-bit pseudo-random pilot appears at the start and, mirrored, at the
// end. A receiver whose packet starts first (Alice) locates the forward
// pilot in the interference-free head of the signal; a receiver whose
// packet starts second (Bob) time-reverses the received samples and finds
// the same pilot at the head of the reversed stream, because the mirrored
// tail reads forward under reversal. The mirror is laid out in units of
// the modem's symbol width (MarshalFor), since time reversal hands a
// multi-bit modem its symbols in reverse order but never reverses the
// bits inside one symbol. The header {Src, Dst, Seq, Len, Flags}
// likewise appears after the pilot at both ends so either decoding
// direction learns which sent packet cancels the interference (§7.3).
//
// Payload and header bits are whitened (XORed with a PRBS) per §6.2 so the
// amplitude estimator's randomness assumption E[cos(θ−φ)] ≈ 0 holds for
// arbitrary payloads. Pilots are never whitened — they are the known
// sequence being searched for.
package frame

import (
	"errors"
	"fmt"

	"repro/internal/bits"
	"repro/internal/dsp"
)

// Header field widths in bits.
const (
	srcBits   = 16
	dstBits   = 16
	seqBits   = 32
	lenBits   = 16
	flagsBits = 8

	// HeaderBits is the whitened on-air header block size: the fields
	// plus a CRC-16 so a header decodes or fails independently of the
	// payload (§7.5 routers act on headers alone).
	HeaderBits = srcBits + dstBits + seqBits + lenBits + flagsBits + 16
)

// FlagTrigger marks a transmission whose end triggers the marked neighbors
// to transmit simultaneously (§7.6).
const FlagTrigger = 1 << 0

// headerWhitenSeed whitens header blocks; distinct from the payload stream
// so the two regions decode independently.
const headerWhitenSeed uint32 = 0x7F4A7C15

// Header identifies a packet: source, destination, sequence number, the
// payload length in bytes, and protocol flags.
type Header struct {
	Src   uint16
	Dst   uint16
	Seq   uint32
	Len   uint16
	Flags uint8
}

// Key identifies a packet uniquely for sent-packet-buffer lookup.
type Key struct {
	Src uint16
	Dst uint16
	Seq uint32
}

// Key returns the buffer lookup key for the header.
func (h Header) Key() Key { return Key{Src: h.Src, Dst: h.Dst, Seq: h.Seq} }

// String implements fmt.Stringer.
func (h Header) String() string {
	return fmt.Sprintf("src=%d dst=%d seq=%d len=%d flags=%#02x", h.Src, h.Dst, h.Seq, h.Len, h.Flags)
}

// marshalBits encodes the header fields (without CRC or whitening).
func (h Header) marshalBits() []byte {
	out := make([]byte, HeaderBits-16)
	h.putBits(out)
	return out
}

// putBits writes the header fields (without CRC) into dst's first
// HeaderBits−16 entries.
func (h Header) putBits(dst []byte) {
	bits.PutUint16(dst[0:], h.Src)
	bits.PutUint16(dst[16:], h.Dst)
	bits.PutUint32(dst[32:], h.Seq)
	bits.PutUint16(dst[64:], h.Len)
	for i := 0; i < flagsBits; i++ {
		dst[80+i] = (h.Flags >> uint(flagsBits-1-i)) & 1
	}
}

// unmarshalBits decodes header fields from the 88 field bits.
func unmarshalBits(bs []byte) Header {
	var flags byte
	for i := 0; i < flagsBits; i++ {
		flags = flags<<1 | bs[80+i]&1
	}
	return Header{
		Src:   bits.ToUint16(bs[0:16]),
		Dst:   bits.ToUint16(bs[16:32]),
		Seq:   bits.ToUint32(bs[32:64]),
		Len:   bits.ToUint16(bs[64:80]),
		Flags: flags,
	}
}

// EncodeHeader returns the whitened on-air header block (HeaderBits bits).
func EncodeHeader(h Header) []byte {
	out := make([]byte, HeaderBits)
	encodeHeaderInto(out, h)
	return out
}

// encodeHeaderInto writes the whitened header block (fields, CRC) into
// dst's first HeaderBits entries.
func encodeHeaderInto(dst []byte, h Header) {
	h.putBits(dst)
	bits.PutUint16(dst[HeaderBits-16:], bits.CRC16(dst[:HeaderBits-16]))
	bits.WhitenTo(dst[:HeaderBits], dst[:HeaderBits], headerWhitenSeed)
}

// ErrBadHeader is returned when a header block fails its CRC.
var ErrBadHeader = errors.New("frame: header CRC mismatch")

// DecodeHeader parses a whitened on-air header block.
func DecodeHeader(block []byte) (Header, error) {
	if len(block) < HeaderBits {
		return Header{}, fmt.Errorf("frame: header block %d bits, need %d", len(block), HeaderBits)
	}
	var buf [HeaderBits]byte
	raw, ok := bits.CheckCRC16(bits.WhitenTo(buf[:], block[:HeaderBits], headerWhitenSeed))
	if !ok {
		return Header{}, ErrBadHeader
	}
	return unmarshalBits(raw), nil
}

// Packet is a network-layer packet: a header plus payload bytes.
type Packet struct {
	Header  Header
	Payload []byte
}

// NewPacket builds a packet, filling in the header length field.
func NewPacket(src, dst uint16, seq uint32, payload []byte) Packet {
	return Packet{
		Header:  Header{Src: src, Dst: dst, Seq: seq, Len: uint16(len(payload))},
		Payload: append([]byte(nil), payload...),
	}
}

// PayloadSectionBits returns the on-air size of the whitened payload
// section (payload plus its CRC-16) for a payload of n bytes.
func PayloadSectionBits(n int) int { return n*8 + 16 }

// FrameBits returns the total on-air frame size in bits for a payload of
// n bytes: pilot + header + payload section + mirrored header + pilot.
func FrameBits(n int) int {
	return 2*bits.PilotLength + 2*HeaderBits + PayloadSectionBits(n)
}

// MirrorBits is the size of the mirrored region: the pilot plus the
// header, which the frame carries once at its head and once, reversed, at
// its tail.
const MirrorBits = bits.PilotLength + HeaderBits

// Marshal encodes the packet into its on-air bit representation for a
// one-bit-per-symbol modem (MSK, the paper's). Multi-bit modems must use
// MarshalFor so the mirrored tail reverses in symbol units.
func Marshal(p Packet) []byte { return MarshalFor(p, 1) }

// MarshalFor encodes the packet into its on-air bit representation for a
// modem carrying bitsPerSymbol bits per symbol.
//
// The mirrored tail is the head's pilot+header region laid out in reverse
// *symbol* order with the bit order inside each symbol preserved. Under
// conjugate time reversal a multi-bit modem recovers symbols (not bits)
// in reverse order, each symbol still decoding to its bits in transmit
// order — so only a symbol-wise mirror presents a valid pilot+header at
// the head of the reversed stream (§7.4 generalized beyond MSK). At one
// bit per symbol the layout degenerates to the classic bit-wise mirror:
// MarshalFor(p, 1) is byte-identical to the historical Marshal.
//
// Registration invariant: bitsPerSymbol must divide MirrorBits (the
// pilot+header region must be a whole number of symbols, or the mirror
// would split symbols across the fold). Both shipped modems (1 and
// 2 bits/symbol) and any power-of-two width up to 8 satisfy it.
func MarshalFor(p Packet, bitsPerSymbol int) []byte {
	return marshalInto(nil, p, bitsPerSymbol)
}

// marshalInto is MarshalFor writing into dst's storage, which grows only
// when its capacity is below the frame length. Every bit of the frame is
// written, so dst's old contents never show through.
func marshalInto(dst []byte, p Packet, bitsPerSymbol int) []byte {
	if int(p.Header.Len) != len(p.Payload) {
		// Length disagreement is a construction bug, not a runtime
		// condition; fail loudly.
		panic(fmt.Sprintf("frame: header len %d != payload %d", p.Header.Len, len(p.Payload)))
	}
	if bitsPerSymbol < 1 || MirrorBits%bitsPerSymbol != 0 {
		panic(fmt.Sprintf("frame: bits per symbol %d does not divide the %d-bit mirror region", bitsPerSymbol, MirrorBits))
	}
	n := len(p.Payload)
	if cap(dst) < FrameBits(n) {
		dst = make([]byte, FrameBits(n))
	}
	out := dst[:FrameBits(n)]
	copy(out, pilotForward)
	hdr := out[bits.PilotLength:MirrorBits]
	encodeHeaderInto(hdr, p.Header)
	body := out[MirrorBits : MirrorBits+PayloadSectionBits(n)]
	bits.PutBytes(body, p.Payload)
	bits.PutUint16(body[n*8:], bits.CRC16(body[:n*8]))
	bits.WhitenTo(body, body, bits.WhitenSeed)
	// Mirror: tail symbol s is head symbol nsym−1−s of the pilot+header
	// region, bits within the symbol untouched.
	head := out[:MirrorBits]
	tail := out[MirrorBits+PayloadSectionBits(n):]
	nsym := MirrorBits / bitsPerSymbol
	for s := 0; s < nsym; s++ {
		copy(tail[s*bitsPerSymbol:(s+1)*bitsPerSymbol],
			head[(nsym-1-s)*bitsPerSymbol:(nsym-s)*bitsPerSymbol])
	}
	return out
}

// pilotForward caches the fixed network pilot so Marshal builds a frame
// with a single allocation.
var pilotForward = bits.Pilot(bits.PilotLength)

// Errors returned by Unmarshal.
var (
	ErrTooShort = errors.New("frame: too short")
	ErrBadCRC   = errors.New("frame: payload CRC mismatch")
)

// Unmarshal parses a full on-air frame back into a packet, verifying both
// CRCs. The input may carry trailing garbage (e.g. noise samples decoded
// past the frame end); only the region implied by the header length is
// read.
func Unmarshal(bs []byte) (Packet, error) {
	if len(bs) < 2*bits.PilotLength+2*HeaderBits+16 {
		return Packet{}, ErrTooShort
	}
	h, err := DecodeHeader(bs[bits.PilotLength:])
	if err != nil {
		return Packet{}, err
	}
	bodyStart := bits.PilotLength + HeaderBits
	bodyEnd := bodyStart + PayloadSectionBits(int(h.Len))
	if bodyEnd > len(bs) {
		return Packet{}, ErrTooShort
	}
	raw, ok := bits.CheckCRC16(bits.Whiten(bs[bodyStart:bodyEnd], bits.WhitenSeed))
	if !ok {
		return Packet{Header: h}, ErrBadCRC
	}
	payload, err := bits.ToBytes(raw)
	if err != nil {
		return Packet{Header: h}, err
	}
	return Packet{Header: h, Payload: payload}, nil
}

// ExtractBody returns the dewhitened payload bits of a recovered frame
// WITHOUT verifying the CRC. Error-correcting layers use it to reach the
// raw (possibly errored) payload bits that the CRC-gated Unmarshal path
// refuses to hand out.
func ExtractBody(bs []byte, payloadBytes int) ([]byte, error) {
	bodyStart := bits.PilotLength + HeaderBits
	bodyEnd := bodyStart + PayloadSectionBits(payloadBytes)
	if bodyEnd > len(bs) {
		return nil, ErrTooShort
	}
	raw := bits.Whiten(bs[bodyStart:bodyEnd], bits.WhitenSeed)
	return raw[:payloadBytes*8], nil
}

// UnmarshalBody extracts and verifies only the payload section given an
// already-decoded header. ANC decoding recovers header and body in
// separate steps; this entry point avoids re-parsing the header.
func UnmarshalBody(h Header, bs []byte) ([]byte, error) {
	var body []byte
	payload, err := UnmarshalBodyInto(nil, &body, h, bs)
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// UnmarshalBodyInto is UnmarshalBody writing the payload into dst's
// storage, which grows only when its capacity is below h.Len bytes. The
// payload section is dewhitened into *body, a scratch buffer grown as
// needed and kept by the caller for the next call. On error it returns
// dst[:0].
func UnmarshalBodyInto(dst []byte, body *[]byte, h Header, bs []byte) ([]byte, error) {
	bodyStart := bits.PilotLength + HeaderBits
	bodyEnd := bodyStart + PayloadSectionBits(int(h.Len))
	if bodyEnd > len(bs) {
		return dst[:0], ErrTooShort
	}
	*body = dsp.GrowBytes(*body, bodyEnd-bodyStart)
	raw, ok := bits.CheckCRC16(bits.WhitenTo(*body, bs[bodyStart:bodyEnd], bits.WhitenSeed))
	if !ok {
		return dst[:0], ErrBadCRC
	}
	return bits.ToBytesInto(dst, raw)
}
