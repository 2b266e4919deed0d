package dqpsk

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

// The decisions and the modulation as they were before the shortcuts,
// kept as the reference the shortcuts are held to bit for bit.

// nearestJumpScan is the scan over the four jumps every decision used.
func nearestJumpScan(d float64) int {
	best, bestErr := 0, math.Inf(1)
	for sym, j := range jumps {
		e := math.Abs(dsp.WrapPhase(d - j))
		if e < bestErr {
			best, bestErr = sym, e
		}
	}
	return best
}

// demodulateAngle is the angle-based DemodulateInto: one atan2 per symbol.
func demodulateAngle(m *Modem, s dsp.Signal) []byte {
	nsym := m.NumBits(len(s)) / 2
	out := make([]byte, nsym*2)
	if nsym == 0 {
		return out
	}
	prev := s[0]
	for i := 0; i < nsym; i++ {
		var acc complex128
		base := 1 + i*m.sps
		for k := 0; k < m.sps; k++ {
			acc += s[base+k]
		}
		out[2*i], out[2*i+1] = bitsOf(nearestJumpScan(dsp.PhaseDiff(prev, acc)))
		prev = acc
	}
	return out
}

// decideDiffsAngle is the angle-based DecideDiffsInto.
func decideDiffsAngle(m *Modem, diffs []float64) []byte {
	nsym := len(diffs) / m.sps
	out := make([]byte, nsym*2)
	for j := 0; j < nsym; j++ {
		var acc float64
		for k := 0; k < m.sps; k++ {
			acc += diffs[j*m.sps+k]
		}
		out[2*j], out[2*j+1] = bitsOf(nearestJumpScan(acc))
	}
	return out
}

// stepPriorScan is the five-candidate StepPrior.
func stepPriorScan(dphi float64) float64 {
	best := math.Abs(dsp.WrapPhase(dphi))
	for _, j := range jumps {
		if e := math.Abs(dsp.WrapPhase(dphi - j)); e < best {
			best = e
		}
	}
	return best
}

// modulateSincos is Modulate with one Sincos per symbol.
func modulateSincos(m *Modem, bs []byte) dsp.Signal {
	if len(bs)%2 == 1 {
		bs = append(append([]byte(nil), bs...), 0)
	}
	out := make(dsp.Signal, 0, 1+len(bs)/2*m.sps)
	out = append(out, complex(m.amplitude, 0))
	phase := 0.0
	for i := 0; i+1 < len(bs); i += 2 {
		phase = dsp.WrapPhase(phase + jumps[symbolOf(bs[i], bs[i+1])])
		v := complex(m.amplitude, 0) * dsp.Cis(phase)
		for k := 0; k < m.sps; k++ {
			out = append(out, v)
		}
	}
	return out
}

// testSPS and testAmplitudes are the modem configurations the shortcuts
// are held to their reference at.
var (
	testSPS        = []int{1, 2, 3, 4, 8}
	testAmplitudes = []float64{1, 0.7}
)

// sameSignal fails the test unless two signals are equal by Float64bits.
func sameSignal(t *testing.T, what string, got, want dsp.Signal) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: sample %d is %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// modulateTestFrames returns bit streams that drive the phase recurrence
// everywhere: random frames of even and odd length, long runs of one
// symbol that wrap the phase many times, and bytes other than 0 and 1,
// which are read by their low bit.
func modulateTestFrames(rng *rand.Rand) [][]byte {
	frames := [][]byte{nil, {1}, {0, 1}}
	for _, n := range []int{7, 64, 1400} {
		frames = append(frames, randomBits(rng, n))
	}
	for sym := 0; sym < 4; sym++ {
		run := make([]byte, 800)
		for i := 0; i < len(run); i += 2 {
			run[i], run[i+1] = bitsOf(sym)
		}
		frames = append(frames, run)
	}
	return append(frames, []byte{3, 2, 0xff, 0xfe, 5, 4, 7})
}

func TestModulateMatchesSincosRecurrence(t *testing.T) {
	frames := modulateTestFrames(rand.New(rand.NewSource(61)))
	for _, sps := range testSPS {
		for _, amp := range testAmplitudes {
			m := New(WithSamplesPerSymbol(sps), WithAmplitude(amp))
			for fi, bs := range frames {
				sameSignal(t, fmt.Sprintf("S=%d amp=%v frame %d", sps, amp, fi), m.Modulate(bs), modulateSincos(m, bs))
			}
		}
	}
}

// TestCisTableClosedUnderJumps pins why the table is exact: from each of
// the 8 phases the recurrence φ ← WrapPhase(φ + π/4) visits from 0, each
// jump lands by the same float arithmetic exactly on the phase its
// counter names, so the Sincos recurrence, which starts at 0, never
// leaves them, and each entry is the Cis of its phase.
func TestCisTableClosedUnderJumps(t *testing.T) {
	var phases [len(cisTable)]float64
	for c := 1; c < len(phases); c++ {
		phases[c] = dsp.WrapPhase(phases[c-1] + math.Pi/4)
	}
	for c, p := range phases {
		for sym, j := range jumps {
			next := (c + jumpSteps[sym]) % len(phases)
			if q := dsp.WrapPhase(p + j); math.Float64bits(q) != math.Float64bits(phases[next]) {
				t.Errorf("phase %d + jump %v = %v, phase %d is %v", c, j, q, next, phases[next])
			}
		}
		want := dsp.Cis(p)
		if math.Float64bits(real(cisTable[c])) != math.Float64bits(real(want)) ||
			math.Float64bits(imag(cisTable[c])) != math.Float64bits(imag(want)) {
			t.Errorf("entry %d: %v, Cis of phase %v is %v", c, cisTable[c], p, want)
		}
	}
}

// receptions returns noisy receptions of random frames at 0–30 dB SNR,
// under a random channel gain and phase rotation.
func receptions(rng *rand.Rand, m *Modem) []dsp.Signal {
	var out []dsp.Signal
	for snr := 0.0; snr <= 30; snr += 5 {
		for f := 0; f < 4; f++ {
			sig := m.Modulate(randomBits(rng, 2+2*rng.Intn(200)))
			h := complex(0.2+rng.Float64(), 0) * dsp.Cis(rng.Float64()*2*math.Pi)
			rx := make(dsp.Signal, len(sig))
			for i, v := range sig {
				rx[i] = h * v
			}
			power := real(h*cmplx.Conj(h)) * m.amplitude * m.amplitude / dsp.FromDB(snr)
			out = append(out, dsp.NewNoiseSource(power, rng.Int63()).AddTo(rx))
		}
	}
	return out
}

// TestDecisionsMatchReferenceUnderNoise holds the three decision
// shortcuts to their references over noisy receptions: DemodulateInto on
// the samples, DecideDiffsInto on their per-sample phase differences
// (whose per-symbol sums also leave (−π, π]), and StepPrior on each
// difference.
func TestDecisionsMatchReferenceUnderNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, sps := range testSPS {
		for _, amp := range testAmplitudes {
			m := New(WithSamplesPerSymbol(sps), WithAmplitude(amp))
			for ri, rx := range receptions(rng, m) {
				if got, want := m.DemodulateInto(nil, nil, rx), demodulateAngle(m, rx); string(got) != string(want) {
					t.Fatalf("S=%d amp=%v reception %d: DemodulateInto differs from the angle reference", sps, amp, ri)
				}
				diffs := make([]float64, len(rx)-1)
				for n := range diffs {
					diffs[n] = dsp.PhaseDiff(rx[n], rx[n+1])
				}
				if got, want := m.DecideDiffsInto(nil, diffs, nil), decideDiffsAngle(m, diffs); string(got) != string(want) {
					t.Fatalf("S=%d amp=%v reception %d: DecideDiffsInto differs from the angle reference", sps, amp, ri)
				}
				for n, d := range diffs {
					if got, want := m.StepPrior(d), stepPriorScan(d); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("S=%d amp=%v reception %d diff %d: StepPrior(%v) = %v, scan %v", sps, amp, ri, n, d, got, want)
					}
				}
			}
		}
	}
}

// nearby returns x and the floats up to two ulps either side of it.
func nearby(x float64) []float64 {
	lo, hi := math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1))
	return []float64{math.Nextafter(lo, math.Inf(-1)), lo, x, hi, math.Nextafter(hi, math.Inf(1))}
}

// signed returns xs followed by their negations.
func signed(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	for _, x := range xs {
		out = append(out, -x)
	}
	return out
}

// productParts are the components of the adversarial products: ±0,
// subnormals, the smallest normal, ordinary magnitudes, components within
// τ of an axis relative to the other (τ·x and the floats around it, which
// straddle the margin test), huge values, ±Inf and NaN.
func productParts() []float64 {
	parts := []float64{0, 5e-324, 1e-320, 2.2250738585072014e-308, 0.25, 1, 3, 1e300, math.MaxFloat64, math.Inf(1), math.NaN()}
	for _, x := range []float64{1, 3, 1e-300, 1e300} {
		parts = append(parts, nearby(margin*x)...)
		parts = append(parts, margin*x/2, margin*x*2)
	}
	return signed(parts)
}

// decisionAngles are the adversarial angles: 0, π/8, π/4, π/2, 3π/4 and
// π and up to two ulps either side of each, the floats around each of
// them ± τ (which straddle the margin tests), ±0, subnormals, NaN, and
// angles outside (−π, π].
func decisionAngles() []float64 {
	var as []float64
	for _, b := range []float64{0, math.Pi / 8, math.Pi / 4, math.Pi / 2, 3 * math.Pi / 4, math.Pi} {
		as = append(as, nearby(b)...)
		for _, off := range []float64{margin, 2 * margin, margin / 2} {
			as = append(as, nearby(b+off)...)
			as = append(as, nearby(b-off)...)
		}
	}
	as = append(as, 5e-324, 1e-310, math.NaN(), 3*math.Pi/2, 2*math.Pi, 7, 100, 1e4)
	return signed(as)
}

// TestDecisionsAtMarginsMatchReference holds the shortcuts to their
// references where they are closest to being wrong: products on an axis
// and within τ of one, and angles on and around every decision boundary.
// It also checks that each shortcut both fired and declined.
func TestDecisionsAtMarginsMatchReference(t *testing.T) {
	m := New(WithSamplesPerSymbol(1))
	parts := productParts()
	prevs := []complex128{1, -1, 1i, complex(0.6, 0.8), complex(-0.6, 0.8), 5e-324, complex(0, math.Copysign(0, -1)), complex(math.Inf(1), 0), complex(math.NaN(), 1)}
	var fired, declined [3]int
	for _, prev := range prevs {
		for _, re := range parts {
			for _, im := range parts {
				s := dsp.Signal{prev, complex(re, im)}
				if got, want := m.DemodulateInto(nil, nil, s), demodulateAngle(m, s); string(got) != string(want) {
					t.Fatalf("prev %v acc %v: DemodulateInto %v, angle reference %v", prev, s[1], got, want)
				}
				if _, ok := productSymbol(s[1] * cmplx.Conj(prev)); ok {
					fired[0]++
				} else {
					declined[0]++
				}
			}
		}
	}
	for _, a := range decisionAngles() {
		if got, want := m.DecideDiffsInto(nil, []float64{a}, nil), decideDiffsAngle(m, []float64{a}); string(got) != string(want) {
			t.Fatalf("DecideDiffsInto(%v) = %v, angle reference %v", a, got, want)
		}
		if got, want := m.StepPrior(a), stepPriorScan(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("StepPrior(%v) = %v, scan %v", a, got, want)
		}
		if _, ok := angleSymbol(a); ok {
			fired[1]++
		} else {
			declined[1]++
		}
		if _, ok := nearestStep(a); ok {
			fired[2]++
		} else {
			declined[2]++
		}
	}
	for i, name := range []string{"product", "angle", "step"} {
		t.Logf("%s shortcut: fired %d, declined %d", name, fired[i], declined[i])
		if fired[i] == 0 || declined[i] == 0 {
			t.Errorf("%s shortcut: a branch went unexercised", name)
		}
	}
	// The scan never ends on ±Inf (WrapPhase does not terminate), so
	// there the margin tests alone are checked: they must decline.
	for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)} {
		if _, ok := productSymbol(complex(x, x)); ok {
			t.Errorf("productSymbol(%v+%vi) took the shortcut", x, x)
		}
		if _, ok := angleSymbol(x); ok {
			t.Errorf("angleSymbol(%v) took the shortcut", x)
		}
	}
	for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, ok := nearestStep(x); ok {
			t.Errorf("nearestStep(%v) took the shortcut", x)
		}
	}
}

// maxScanAngle bounds the angles the fuzz target gives the scans: WrapPhase
// steps by 2π, so it never ends on ±Inf and takes |x|/2π steps otherwise.
const maxScanAngle = 1e4

// FuzzDQPSKDecisions feeds arbitrary float64 bit patterns to the three
// decision shortcuts and holds each to its reference: a product built
// from the four values to DemodulateInto, and each value as an angle to
// DecideDiffsInto and StepPrior. Where the reference scan would not end
// (non-finite or huge angles) the shortcut must decline instead.
func FuzzDQPSKDecisions(f *testing.F) {
	f.Add(math.Float64bits(1), uint64(0), math.Float64bits(margin), math.Float64bits(1))
	f.Add(math.Float64bits(math.Pi/8), math.Float64bits(math.Pi/2), math.Float64bits(math.Pi), math.Float64bits(-math.Pi))
	f.Add(math.Float64bits(math.Inf(1)), math.Float64bits(math.NaN()), uint64(1), uint64(1)<<63)
	f.Add(math.Float64bits(math.Nextafter(margin, 0)), math.Float64bits(1), math.Float64bits(-0.6), math.Float64bits(0.8))
	m := New(WithSamplesPerSymbol(1))
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		vs := [4]float64{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c), math.Float64frombits(d)}
		prev, acc := complex(vs[0], vs[1]), complex(vs[2], vs[3])
		if sym, ok := productSymbol(acc * cmplx.Conj(prev)); ok {
			if want := nearestJumpScan(dsp.PhaseDiff(prev, acc)); sym != want {
				t.Fatalf("productSymbol(%v·conj(%v)) = %d, scan %d", acc, prev, sym, want)
			}
		}
		s := dsp.Signal{prev, acc}
		if got, want := m.DemodulateInto(nil, nil, s), demodulateAngle(m, s); string(got) != string(want) {
			t.Fatalf("prev %v acc %v: DemodulateInto %v, angle reference %v", prev, acc, got, want)
		}
		for _, x := range vs {
			if !(math.Abs(x) <= maxScanAngle) {
				if _, ok := angleSymbol(x); ok {
					t.Fatalf("angleSymbol(%v) took the shortcut", x)
				}
				if _, ok := nearestStep(x); ok {
					t.Fatalf("nearestStep(%v) took the shortcut", x)
				}
				continue
			}
			if got, want := m.DecideDiffsInto(nil, []float64{x}, nil), decideDiffsAngle(m, []float64{x}); string(got) != string(want) {
				t.Fatalf("DecideDiffsInto(%v) = %v, angle reference %v", x, got, want)
			}
			if got, want := m.StepPrior(x), stepPriorScan(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("StepPrior(%v) = %v, scan %v", x, got, want)
			}
		}
	})
}
