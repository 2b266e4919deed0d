package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromBytesToBytesRoundTrip(t *testing.T) {
	cases := [][]byte{
		{},
		{0x00},
		{0xFF},
		{0xA5, 0x5A},
		{0x01, 0x80, 0x7F, 0xFE},
	}
	for _, c := range cases {
		got, err := ToBytes(FromBytes(c))
		if err != nil {
			t.Fatalf("ToBytes(FromBytes(%x)): %v", c, err)
		}
		if string(got) != string(c) {
			t.Errorf("round trip %x -> %x", c, got)
		}
	}
}

func TestFromBytesMSBFirst(t *testing.T) {
	got := FromBytes([]byte{0x80})
	want := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	if !Equal(got, want) {
		t.Errorf("FromBytes(0x80) = %v, want %v", got, want)
	}
	got = FromBytes([]byte{0x01})
	want = []byte{0, 0, 0, 0, 0, 0, 0, 1}
	if !Equal(got, want) {
		t.Errorf("FromBytes(0x01) = %v, want %v", got, want)
	}
}

func TestToBytesRejectsBadLength(t *testing.T) {
	if _, err := ToBytes([]byte{1, 0, 1}); err == nil {
		t.Error("ToBytes accepted length 3")
	}
}

func TestToBytesRejectsNonBinary(t *testing.T) {
	if _, err := ToBytes([]byte{1, 0, 1, 0, 1, 0, 1, 2}); err == nil {
		t.Error("ToBytes accepted element value 2")
	}
}

func TestUint16RoundTrip(t *testing.T) {
	f := func(v uint16) bool { return ToUint16(FromUint16(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint32RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		bs := make([]byte, 32)
		PutUint32(bs, v)
		return ToUint32(bs) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverse(t *testing.T) {
	in := []byte{1, 1, 0, 1, 0}
	want := []byte{0, 1, 0, 1, 1}
	if got := Reverse(in); !Equal(got, want) {
		t.Errorf("Reverse(%v) = %v, want %v", in, got, want)
	}
	if !Equal(Reverse(Reverse(in)), in) {
		t.Error("Reverse is not an involution")
	}
	if got := Reverse(nil); len(got) != 0 {
		t.Errorf("Reverse(nil) = %v, want empty", got)
	}
}

func TestReverseGroupsInPlace(t *testing.T) {
	// Pairs swap as units, order inside each pair preserved.
	in := []byte{1, 1, 0, 1, 0, 0}
	want := []byte{0, 0, 0, 1, 1, 1}
	if got := ReverseGroupsInPlace(append([]byte(nil), in...), 2); !Equal(got, want) {
		t.Errorf("ReverseGroupsInPlace(%v, 2) = %v, want %v", in, got, want)
	}
	// Group 1 is plain reversal.
	if got := ReverseGroupsInPlace(append([]byte(nil), in...), 1); !Equal(got, Reverse(in)) {
		t.Errorf("group 1 = %v, want %v", got, Reverse(in))
	}
	// Involution at any group size.
	for _, g := range []int{1, 2, 3, 6} {
		twice := ReverseGroupsInPlace(ReverseGroupsInPlace(append([]byte(nil), in...), g), g)
		if !Equal(twice, in) {
			t.Errorf("group %d: double reverse = %v, want %v", g, twice, in)
		}
	}
	// A single whole group is a no-op.
	if got := ReverseGroupsInPlace(append([]byte(nil), in...), 6); !Equal(got, in) {
		t.Errorf("whole-slice group changed order: %v", got)
	}
}

func TestReverseGroupsInPlacePanicsOnRemainder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length 5 with group 2 did not panic")
		}
	}()
	ReverseGroupsInPlace(make([]byte, 5), 2)
}

func TestHammingDistance(t *testing.T) {
	a := []byte{1, 0, 1, 0}
	b := []byte{1, 1, 1, 1}
	if d := HammingDistance(a, b); d != 2 {
		t.Errorf("HammingDistance = %d, want 2", d)
	}
	if d := HammingDistance(a, a); d != 0 {
		t.Errorf("self distance = %d, want 0", d)
	}
}

func TestBER(t *testing.T) {
	sent := []byte{1, 0, 1, 0}
	if got := BER(sent, sent); got != 0 {
		t.Errorf("BER identical = %v, want 0", got)
	}
	if got := BER(sent, []byte{0, 1, 0, 1}); got != 1 {
		t.Errorf("BER inverted = %v, want 1", got)
	}
	// Truncated decode: missing bits count as errors.
	if got := BER(sent, []byte{1, 0}); got != 0.5 {
		t.Errorf("BER truncated = %v, want 0.5", got)
	}
	// Longer decode than sent: extra bits ignored.
	if got := BER(sent, []byte{1, 0, 1, 0, 1, 1}); got != 0 {
		t.Errorf("BER overlong = %v, want 0", got)
	}
	if got := BER(nil, nil); got != 0 {
		t.Errorf("BER empty = %v, want 0", got)
	}
}

func TestOnesCount(t *testing.T) {
	if n := OnesCount([]byte{1, 0, 1, 1, 0}); n != 3 {
		t.Errorf("OnesCount = %d, want 3", n)
	}
}

func TestPRBSBalance(t *testing.T) {
	// A maximal-length LFSR output is balanced to within 1 bit over its
	// period; over 10k bits we expect ones fraction near 0.5.
	p := NewPRBS(42)
	bs := p.Bits(10000)
	frac := float64(OnesCount(bs)) / float64(len(bs))
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("PRBS ones fraction = %v, want ~0.5", frac)
	}
}

func TestPRBSDeterministic(t *testing.T) {
	a := NewPRBS(7).Bits(128)
	b := NewPRBS(7).Bits(128)
	if !Equal(a, b) {
		t.Error("PRBS with same seed produced different streams")
	}
	c := NewPRBS(8).Bits(128)
	if Equal(a, c) {
		t.Error("PRBS with different seeds produced identical streams")
	}
}

func TestPRBSZeroSeed(t *testing.T) {
	p := NewPRBS(0)
	bs := p.Bits(64)
	if OnesCount(bs) == 0 {
		t.Error("zero-seeded PRBS is stuck at zero")
	}
}

func TestPRBSNoShortCycle(t *testing.T) {
	// The state must not revisit its start within a modest horizon.
	p := NewPRBS(3)
	start := p.state
	for i := 0; i < 100000; i++ {
		p.Next()
		if p.state == start {
			t.Fatalf("PRBS cycled after %d steps", i+1)
		}
	}
}

func TestWhitenInvolution(t *testing.T) {
	f := func(data []byte, seed uint32) bool {
		bs := make([]byte, len(data))
		for i, d := range data {
			bs[i] = d & 1
		}
		return Equal(Whiten(Whiten(bs, seed), seed), bs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWhitenBreaksRuns(t *testing.T) {
	// All-zero payloads are the worst case for the amplitude estimator;
	// whitening must produce a near-balanced stream from them.
	zeros := make([]byte, 4096)
	w := Whiten(zeros, WhitenSeed)
	frac := float64(OnesCount(w)) / float64(len(w))
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("whitened zeros ones fraction = %v, want ~0.5", frac)
	}
}

func TestPilotStableAndBalanced(t *testing.T) {
	p1 := Pilot(PilotLength)
	p2 := Pilot(PilotLength)
	if !Equal(p1, p2) {
		t.Error("Pilot is not deterministic")
	}
	ones := OnesCount(p1)
	if ones < 20 || ones > 44 {
		t.Errorf("pilot ones = %d of %d, suspiciously unbalanced", ones, len(p1))
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE("123456789") = 0x29B1.
	data := FromBytes([]byte("123456789"))
	if got := CRC16(data); got != 0x29B1 {
		t.Errorf("CRC16 = %#04x, want 0x29B1", got)
	}
}

func TestCRCAppendCheckRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		body := randomBits(rng, 1+rng.Intn(300))
		framed := append(body, FromUint16(CRC16(body))...)
		got, ok := CheckCRC16(framed)
		if !ok {
			t.Fatalf("trial %d: valid CRC rejected", trial)
		}
		if !Equal(got, body) {
			t.Fatalf("trial %d: body mismatch", trial)
		}
	}
}

func TestCRCDetectsSingleBitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	body := randomBits(rng, 200)
	framed := append(body, FromUint16(CRC16(body))...)
	for i := range framed {
		corrupt := append([]byte(nil), framed...)
		corrupt[i] ^= 1
		if _, ok := CheckCRC16(corrupt); ok {
			t.Fatalf("single-bit error at %d went undetected", i)
		}
	}
}

func TestCheckCRC16Short(t *testing.T) {
	if _, ok := CheckCRC16([]byte{1, 0, 1}); ok {
		t.Error("CheckCRC16 accepted a slice shorter than the checksum")
	}
}

func randomBits(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}
