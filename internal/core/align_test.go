package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/dsp"
	"repro/internal/msk"
)

func TestFindPilotExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stream := append(randomBits(rng, 200), bits.Pilot(bits.PilotLength)...)
	stream = append(stream, randomBits(rng, 100)...)
	if got := FindPattern(stream, bits.Pilot(bits.PilotLength), 0); got != 200 {
		t.Errorf("pilot at %d, want 200", got)
	}
}

func TestFindPilotWithErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pilot := bits.Pilot(bits.PilotLength)
	noisy := append([]byte(nil), pilot...)
	for _, i := range []int{3, 17, 42, 60} {
		noisy[i] ^= 1
	}
	stream := append(randomBits(rng, 150), noisy...)
	if got := FindPattern(stream, pilot, DefaultPilotMaxErrors); got != 150 {
		t.Errorf("pilot with 4 errors at %d, want 150", got)
	}
	if got := FindPattern(stream, pilot, 2); got != -1 {
		t.Errorf("pilot found at %d despite tight tolerance", got)
	}
}

func TestFindPilotNoFalsePositives(t *testing.T) {
	// 10k random bits should not contain a 64-bit pilot match at ≤6
	// errors (probability < 1e-5).
	rng := rand.New(rand.NewSource(3))
	if got := FindPattern(randomBits(rng, 10000), bits.Pilot(bits.PilotLength), DefaultPilotMaxErrors); got != -1 {
		t.Errorf("false pilot match at %d", got)
	}
}

// findPatternBytes is the byte-by-byte scan FindPatternScored replaced,
// kept as the reference its word scan is held to.
func findPatternBytes(stream, pattern []byte, maxErrors int) (int, int) {
	for i := 0; i+len(pattern) <= len(stream); i++ {
		errs := 0
		for j, p := range pattern {
			if stream[i+j] != p {
				errs++
				if errs > maxErrors {
					break
				}
			}
		}
		if errs <= maxErrors {
			return i, errs
		}
	}
	return -1, 0
}

// TestFindPatternScoredMatchesByteLoop holds the word scan to the byte
// loop on 0/1 streams: pilots planted at exactly maxErrors and
// maxErrors+1 errors, pattern lengths 1 to 64, and negative and huge
// tolerances.
func TestFindPatternScoredMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pilot := bits.Pilot(bits.PilotLength)
	check := func(stream, pattern []byte, maxErrors int) {
		t.Helper()
		gotI, gotE := FindPatternScored(stream, pattern, maxErrors)
		wantI, wantE := findPatternBytes(stream, pattern, maxErrors)
		if gotI != wantI || gotI >= 0 && gotE != wantE {
			t.Fatalf("len(pattern)=%d maxErrors=%d: (%d, %d), byte loop (%d, %d)",
				len(pattern), maxErrors, gotI, gotE, wantI, wantE)
		}
	}
	for trial := 0; trial < 3000; trial++ {
		maxErrors := rng.Intn(9)
		pattern := pilot
		if trial%3 == 1 {
			pattern = randomBits(rng, 1+rng.Intn(MaxPatternBits))
		}
		stream := randomBits(rng, len(pattern)+rng.Intn(400))
		at := rng.Intn(len(stream) - len(pattern) + 1)
		planted := copy(stream[at:], pattern)
		flips := maxErrors + rng.Intn(2) // at the tolerance, or one past it
		for _, i := range rng.Perm(planted)[:min(flips, planted)] {
			stream[at+i] ^= 1
		}
		check(stream, pattern, maxErrors)
		check(stream, pattern, -1)
		check(stream, pattern, len(pattern)+1)
	}
	check(pilot, pilot, 0)
}

func TestFindPatternDegenerate(t *testing.T) {
	if got := FindPattern([]byte{1, 0}, nil, 0); got != -1 {
		t.Errorf("empty pattern matched at %d", got)
	}
	if got := FindPattern([]byte{1}, []byte{1, 0}, 0); got != -1 {
		t.Errorf("oversized pattern matched at %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("a pattern longer than MaxPatternBits did not panic")
		}
	}()
	FindPattern(make([]byte, 100), make([]byte, MaxPatternBits+1), 0)
}

func TestFindDiffAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := msk.New()
	// Construct a diff stream: noise, then the pilot's expected per-sample
	// differences with some jitter, then noise.
	exp := m.PhaseDiffs(bits.Pilot(bits.PilotLength))
	diffs := make([]float64, 3000)
	for i := range diffs {
		diffs[i] = rng.NormFloat64() * 0.5
	}
	const at = 1234
	for i, e := range exp {
		diffs[at+i] = e + rng.NormFloat64()*0.1
	}
	off, score := FindDiffAlignment(diffs, exp, 0, len(diffs))
	if off != at {
		t.Errorf("alignment at %d (score %.2f), want %d", off, score, at)
	}
	if score < 0.8 {
		t.Errorf("score = %v, want high confidence", score)
	}
}

func TestFindDiffAlignmentRespectsRange(t *testing.T) {
	m := msk.New(msk.WithSamplesPerSymbol(2))
	pattern := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1}
	exp := m.PhaseDiffs(pattern)
	diffs := make([]float64, 500)
	copy(diffs[100:], exp)
	off, _ := FindDiffAlignment(diffs, exp, 200, 400)
	if off == 100 {
		t.Error("alignment found outside the search range")
	}
	off, score := FindDiffAlignment(diffs, exp, 50, 150)
	if off != 100 || score < 0.99 {
		t.Errorf("alignment = %d score %.2f, want 100 / 1.0", off, score)
	}
}

func TestFindDiffAlignmentDegenerate(t *testing.T) {
	if off, _ := FindDiffAlignment(make([]float64, 10), nil, 0, 10); off != -1 {
		t.Errorf("empty pattern aligned at %d", off)
	}
	// An all-zero expected pattern (no phase transitions at all) carries
	// no alignment information and must be rejected.
	if off, _ := FindDiffAlignment(make([]float64, 10), make([]float64, 4), 0, 10); off != -1 {
		t.Errorf("zero pattern aligned at %d", off)
	}
}

func TestConjReverseDiffProperty(t *testing.T) {
	// The per-sample phase differences of the conjugate reverse of s must
	// equal the forward differences reversed, with no sign flip — the
	// property backward decoding (§7.4) rests on.
	m := msk.New()
	rng := rand.New(rand.NewSource(5))
	in := randomBits(rng, 64)
	s := m.Modulate(in)
	fwd := make([]float64, len(s)-1)
	for i := range fwd {
		fwd[i] = dsp.PhaseDiff(s[i], s[i+1])
	}
	cr := ConjReverseInto(nil, s)
	for i := 0; i < len(cr)-1; i++ {
		want := fwd[len(fwd)-1-i]
		got := dsp.PhaseDiff(cr[i], cr[i+1])
		if math.Abs(dsp.WrapPhase(got-want)) > 1e-9 {
			t.Fatalf("diff %d = %v, want %v", i, got, want)
		}
	}
}

func TestConjReverseDemodulatesReversedBits(t *testing.T) {
	m := msk.New()
	rng := rand.New(rand.NewSource(6))
	in := randomBits(rng, 128)
	got := m.Demodulate(ConjReverseInto(nil, m.Modulate(in)))
	if !bits.Equal(got, bits.Reverse(in)) {
		t.Error("ConjReverseInto demodulation is not the reversed bit stream")
	}
}

func TestConjReverseInvolution(t *testing.T) {
	s := dsp.Signal{1 + 2i, -3i, 0.5}
	got := ConjReverseInto(nil, ConjReverseInto(nil, s))
	for i := range s {
		if got[i] != s[i] {
			t.Error("ConjReverseInto is not an involution")
		}
	}
}
