package frame

import (
	"bytes"
	"fmt"
	"testing"
)

// dirty returns n bytes of 0xFF, which is no bit value: storage a frame
// must overwrite entirely.
func dirty(n int) []byte { return bytes.Repeat([]byte{0xFF}, n) }

// testPacket is a distinct packet per sequence number.
func testPacket(seq uint32) Packet {
	return NewPacket(1, 2, seq, []byte(fmt.Sprintf("payload of packet %d", seq)))
}

// TestSentBufferPutCopiesBits pins Put's ownership rule: the buffer keeps
// its own copy, so the caller's later writes never reach the record.
func TestSentBufferPutCopiesBits(t *testing.T) {
	b := NewSentBuffer(0)
	pkt := testPacket(1)
	bs := MarshalFor(pkt, 1)
	want := append([]byte(nil), bs...)
	b.Put(SentRecord{Packet: pkt, Bits: bs})
	for i := range bs {
		bs[i] ^= 1
	}
	rec, _ := b.Get(pkt.Header.Key())
	if !bytes.Equal(rec.Bits, want) {
		t.Error("a write to the bits given to Put reached the stored record")
	}
}

// TestSentBufferRecyclesOnlyAtReset pins where a buffer's bit storage is
// reused: Reset hands every stored record's storage to later Marshal
// calls, while an evicted or refreshed record's bits stay as they were —
// its storage is never reused.
func TestSentBufferRecyclesOnlyAtReset(t *testing.T) {
	b := NewSentBuffer(2)
	first := b.Marshal(testPacket(1), 1)
	firstBits := append([]byte(nil), first.Bits...)
	refreshed := b.Marshal(testPacket(2), 1)
	refreshedBits := append([]byte(nil), refreshed.Bits...)
	// Refresh packet 2 with other bits, then evict packet 1.
	b.Put(SentRecord{Packet: testPacket(2), Bits: MarshalFor(testPacket(2), 2)})
	b.Marshal(testPacket(3), 1)
	if _, ok := b.Get(testPacket(1).Header.Key()); ok {
		t.Fatal("packet 1 not evicted")
	}
	for seq := uint32(4); seq < 8; seq++ {
		rec := b.Marshal(testPacket(seq), 1)
		if &rec.Bits[0] == &first.Bits[0] || &rec.Bits[0] == &refreshed.Bits[0] {
			t.Errorf("packet %d reuses the storage of an evicted or refreshed record", seq)
		}
	}
	if !bytes.Equal(first.Bits, firstBits) || !bytes.Equal(refreshed.Bits, refreshedBits) {
		t.Error("an evicted or refreshed record's bits changed")
	}

	kept, _ := b.Get(testPacket(7).Header.Key())
	b.Reset()
	rec := b.Marshal(testPacket(8), 1)
	if &rec.Bits[0] != &kept.Bits[0] {
		t.Error("Marshal after Reset did not reuse the last stored record's storage")
	}
	if !bytes.Equal(rec.Bits, MarshalFor(testPacket(8), 1)) {
		t.Error("a frame marshaled into recycled storage differs from MarshalFor")
	}

	b.Shed()
	if rec := b.Marshal(testPacket(9), 1); &rec.Bits[0] == &kept.Bits[0] {
		t.Error("Marshal after Shed reused storage")
	}
}

// TestRememberedRecordSurvivesOtherBufferReset is chain-N's case: one
// record stored in two buffers (a relay forwards a frame its neighbor
// remembers). Each buffer owns a copy, so resetting one and marshaling
// new frames into its recycled storage leaves the other's record intact.
func TestRememberedRecordSurvivesOtherBufferReset(t *testing.T) {
	sender, neighbor := NewSentBuffer(0), NewSentBuffer(0)
	rec := sender.Marshal(testPacket(1), 1)
	want := append([]byte(nil), rec.Bits...)
	neighbor.Put(rec)
	sender.Reset()
	for seq := uint32(2); seq < 5; seq++ {
		sender.Marshal(testPacket(seq), 1)
	}
	got, ok := neighbor.Get(testPacket(1).Header.Key())
	if !ok || !bytes.Equal(got.Bits, want) {
		t.Error("the neighbor's remembered record changed when the sender reused its storage")
	}
}

// TestMarshalIntoDirtyStorage holds marshalInto to MarshalFor on storage
// full of non-bit values, at one and two bits per symbol, for storage
// exactly one frame long, longer, and too short.
func TestMarshalIntoDirtyStorage(t *testing.T) {
	for _, bps := range []int{1, 2} {
		for _, payload := range []int{0, 1, 40} {
			p := NewPacket(5, 6, 7, bytes.Repeat([]byte{0x3c}, payload))
			want := MarshalFor(p, bps)
			for _, n := range []int{len(want), len(want) + 37, len(want) / 2} {
				if got := marshalInto(dirty(n), p, bps); !bytes.Equal(got, want) {
					t.Errorf("%d bits/symbol, %d-byte payload, %d bytes of dirty storage: differs from MarshalFor", bps, payload, n)
				}
			}
		}
	}
}
