package frame

import (
	"testing"

	"repro/internal/bits"
)

// FuzzFrameDecode feeds arbitrary bit streams (one bit per byte, read by
// its low bit, as the demodulators emit them) to the three frame decoders.
// None may panic, and whatever one accepts must re-marshal to the bits it
// read: an accepted header to the same header block, an accepted frame or
// body to the same header and body bits.
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
		if p, err := Unmarshal(stream); err == nil {
			if int(p.Header.Len) != len(p.Payload) {
				t.Fatalf("accepted frame: header length %d, payload %d bytes", p.Header.Len, len(p.Payload))
			}
			if !sameBits(Marshal(p), bits.PilotLength, MirrorBits+PayloadSectionBits(len(p.Payload))) {
				t.Fatalf("accepted frame %v re-marshals to other header or body bits", p.Header)
			}
		}
		h := Header{Len: bodyLen}
		if payload, err := UnmarshalBody(h, stream); err == nil {
			if len(payload) != int(bodyLen) {
				t.Fatalf("accepted body: %d bytes, header says %d", len(payload), bodyLen)
			}
			h.Src, h.Dst, h.Seq = 1, 2, 3
			if !sameBits(Marshal(Packet{Header: h, Payload: payload}), MirrorBits, MirrorBits+PayloadSectionBits(len(payload))) {
				t.Fatalf("accepted %d-byte body re-marshals to other bits", bodyLen)
			}
		}
	})
}
