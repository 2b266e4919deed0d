package cope

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/frame"
)

func mkPacket(src, dst uint16, seq uint32, n int, rng *rand.Rand) frame.Packet {
	p := make([]byte, n)
	rng.Read(p)
	return frame.NewPacket(src, dst, seq, p)
}

func TestEncodeDecodeBothDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := mkPacket(1, 2, 10, 64, rng) // Alice → Bob
	b := mkPacket(2, 1, 20, 64, rng) // Bob → Alice
	coded, err := Encode(9, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if coded.Header.Flags&CodedFlag == 0 {
		t.Error("coded flag missing")
	}
	// Alice XORs with her own payload to get Bob's.
	gotB, err := Decode(coded, a.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotB) != string(b.Payload) {
		t.Error("Alice failed to recover Bob's payload")
	}
	// Bob symmetric.
	gotA, err := Decode(coded, b.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotA) != string(a.Payload) {
		t.Error("Bob failed to recover Alice's payload")
	}
}

func TestEncodeLengthMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := mkPacket(1, 2, 1, 64, rng)
	b := mkPacket(2, 1, 2, 32, rng)
	if _, err := Encode(9, 1, a, b); err == nil {
		t.Error("mismatched payload lengths accepted")
	}
}

func TestDecodeRejectsUncoded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	native := mkPacket(1, 2, 1, 16, rng)
	if _, err := Decode(native, native.Payload); !errors.Is(err, ErrNotCoded) {
		t.Errorf("err = %v, want ErrNotCoded", err)
	}
}

func TestDecodeLengthMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := mkPacket(1, 2, 1, 16, rng)
	b := mkPacket(2, 1, 2, 16, rng)
	coded, _ := Encode(9, 1, a, b)
	if _, err := Decode(coded, a.Payload[:8]); err == nil {
		t.Error("short known payload accepted")
	}
}

func TestPoolPairing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPool()
	if _, _, ok := p.TakePair(1, 2, 2, 1); ok {
		t.Error("pair from empty pool")
	}
	p.Put(mkPacket(1, 2, 1, 8, rng))
	if _, _, ok := p.TakePair(1, 2, 2, 1); ok {
		t.Error("pair with only one flow queued")
	}
	p.Put(mkPacket(2, 1, 7, 8, rng))
	a, b, ok := p.TakePair(1, 2, 2, 1)
	if !ok {
		t.Fatal("coding opportunity missed")
	}
	if a.Header.Seq != 1 || b.Header.Seq != 7 {
		t.Errorf("wrong packets paired: %v, %v", a.Header, b.Header)
	}
	if len(p.byFlow[[2]uint16{1, 2}]) != 0 || len(p.byFlow[[2]uint16{2, 1}]) != 0 {
		t.Error("pool not drained")
	}
}

func TestPoolFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := NewPool()
	p.Put(mkPacket(1, 2, 1, 8, rng))
	p.Put(mkPacket(1, 2, 2, 8, rng))
	p.Put(mkPacket(2, 1, 9, 8, rng))
	p.Put(mkPacket(2, 1, 10, 8, rng))
	a, b, _ := p.TakePair(1, 2, 2, 1)
	if a.Header.Seq != 1 || b.Header.Seq != 9 {
		t.Error("pool is not FIFO")
	}
	a, b, _ = p.TakePair(1, 2, 2, 1)
	if a.Header.Seq != 2 || b.Header.Seq != 10 {
		t.Error("second pair wrong")
	}
}

func TestVerifyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := mkPacket(1, 2, 1, 128, rng)
	b := mkPacket(2, 1, 2, 128, rng)
	coded, err := Encode(9, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(coded, a.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(b.Payload) {
		t.Error("round trip mismatch")
	}
}
