package frame

import (
	"bytes"
	"testing"

	"repro/internal/bits"
)

// FuzzFrameDecode feeds arbitrary bit streams (one bit per byte, read by
// its low bit, as the demodulators emit them) to the three frame decoders.
// None may panic, and whatever one accepts must re-marshal to the bits it
// read: an accepted header to the same header block, an accepted frame or
// body to the same header and body bits. The into-forms, writing into
// dirty buffers as recycled storage is, must equal their allocating
// forms: UnmarshalBodyInto on every stream, marshalInto on every accepted
// packet at one and two bits per symbol.
func FuzzFrameDecode(f *testing.F) {
	for i, payload := range [][]byte{nil, {0x5a}, []byte("fuzz seed frame payload")} {
		p := NewPacket(uint16(i), uint16(i+1), uint32(7*i), payload)
		for _, bps := range []int{1, 2} {
			f.Add(MarshalFor(p, bps), uint16(len(payload)))
		}
	}
	f.Add([]byte{}, uint16(0))
	f.Add(make([]byte, 2*MirrorBits+16), uint16(0xffff))

	f.Fuzz(func(t *testing.T, stream []byte, bodyLen uint16) {
		// sameBits reports whether the on-air bits want match stream's
		// low bits over [from, to).
		sameBits := func(want []byte, from, to int) bool {
			for i := from; i < to; i++ {
				if stream[i]&1 != want[i] {
					return false
				}
			}
			return true
		}
		if h, err := DecodeHeader(stream); err == nil {
			if !sameBits(EncodeHeader(h), 0, HeaderBits) {
				t.Fatalf("accepted header %v re-encodes to other bits", h)
			}
		}
		// marshalsIntoDirty checks marshalInto on dirty storage against
		// MarshalFor at both shipped symbol widths.
		marshalsIntoDirty := func(p Packet) {
			for _, bps := range []int{1, 2} {
				if !bytes.Equal(marshalInto(dirty(len(stream)), p, bps), MarshalFor(p, bps)) {
					t.Fatalf("%v at %d bits/symbol: marshalInto on dirty storage differs from MarshalFor", p.Header, bps)
				}
			}
		}
		if p, err := Unmarshal(stream); err == nil {
			if int(p.Header.Len) != len(p.Payload) {
				t.Fatalf("accepted frame: header length %d, payload %d bytes", p.Header.Len, len(p.Payload))
			}
			if !sameBits(Marshal(p), bits.PilotLength, MirrorBits+PayloadSectionBits(len(p.Payload))) {
				t.Fatalf("accepted frame %v re-marshals to other header or body bits", p.Header)
			}
			marshalsIntoDirty(p)
		}
		h := Header{Len: bodyLen}
		payload, err := UnmarshalBody(h, stream)
		body := dirty(len(stream) / 3)
		into, errInto := UnmarshalBodyInto(dirty(int(bodyLen)/2), &body, h, stream)
		if (err == nil) != (errInto == nil) || err != nil && err.Error() != errInto.Error() || !bytes.Equal(into, payload) {
			t.Fatalf("%d-byte body: UnmarshalBodyInto on dirty buffers gives %x, %v; UnmarshalBody %x, %v", bodyLen, into, errInto, payload, err)
		}
		if err == nil {
			if len(payload) != int(bodyLen) {
				t.Fatalf("accepted body: %d bytes, header says %d", len(payload), bodyLen)
			}
			h.Src, h.Dst, h.Seq = 1, 2, 3
			p := Packet{Header: h, Payload: payload}
			if !sameBits(Marshal(p), MirrorBits, MirrorBits+PayloadSectionBits(len(payload))) {
				t.Fatalf("accepted %d-byte body re-marshals to other bits", bodyLen)
			}
			marshalsIntoDirty(p)
		}
	})
}
