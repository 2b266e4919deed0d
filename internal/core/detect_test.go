package core

import (
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/msk"
)

func TestDetectNothingInNoise(t *testing.T) {
	ns := dsp.NewNoiseSource(0.001, 1)
	det := DetectWith(nil, ns.Samples(2000), 0.001, DefaultDetectorConfig(64))
	if det.Present {
		t.Error("packet detected in pure noise")
	}
}

func TestDetectCleanPacket(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := msk.New()
	sig := m.Modulate(randomBits(rng, 300)).Delay(500).PadTo(2500)
	noise := dsp.NewNoiseSource(0.001, 3)
	rx := noise.AddTo(sig)
	det := DetectWith(nil, rx, 0.001, DefaultDetectorConfig(64))
	if !det.Present {
		t.Fatal("packet not detected")
	}
	if det.Interfered {
		t.Error("clean packet classified as interfered")
	}
	// True extent: samples [500, 500+1201).
	if det.Start > 520 || det.Start < 380 {
		t.Errorf("Start = %d, want ≈ 500", det.Start)
	}
	if det.End < 1690 || det.End > 1790 {
		t.Errorf("End = %d, want ≈ 1701", det.End)
	}
}

func TestDetectInterferedRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := msk.New()
	a := m.Modulate(randomBits(rng, 600))             // samples [0, 2401)
	b := m.Modulate(randomBits(rng, 600)).Delay(1000) // samples [1000, 3401)
	rx := dsp.NewNoiseSource(0.0005, 5).AddTo(a.Add(b).PadTo(3600))
	det := DetectWith(nil, rx, 0.0005, DefaultDetectorConfig(64))
	if !det.Present || !det.Interfered {
		t.Fatalf("detection = %+v, want present and interfered", det)
	}
	// Interference spans ≈ [1000, 2401).
	if det.IStart < 850 || det.IStart > 1100 {
		t.Errorf("IStart = %d, want ≈ 1000", det.IStart)
	}
	if det.IEnd < 2300 || det.IEnd > 2550 {
		t.Errorf("IEnd = %d, want ≈ 2401", det.IEnd)
	}
}

func TestDetectCleanAtOperatingSNR(t *testing.T) {
	// At 25 dB SNR (the paper's practical regime) a clean MSK packet must
	// not be misclassified as interfered by noise-driven energy variance.
	rng := rand.New(rand.NewSource(6))
	m := msk.New()
	sig := m.Modulate(randomBits(rng, 1000)).Delay(300)
	floor := dsp.FromDB(-25)
	rx := dsp.NewNoiseSource(floor, 7).AddTo(sig.PadTo(len(sig) + 600))
	det := DetectWith(nil, rx, floor, DefaultDetectorConfig(128))
	if !det.Present {
		t.Fatal("packet not detected")
	}
	if det.Interfered {
		t.Error("clean packet at 25 dB classified as interfered")
	}
}

func TestDetectAsymmetricInterference(t *testing.T) {
	// SIR −3 dB (wanted twice the power of known) must still trip the
	// variance detector — the paper's Fig. 13 operating range.
	rng := rand.New(rand.NewSource(8))
	a := msk.New(WithA(1)).Modulate(randomBits(rng, 500))
	b := msk.New(WithA(1.41)).Modulate(randomBits(rng, 500)).Delay(700)
	floor := 0.001
	rx := dsp.NewNoiseSource(floor, 9).AddTo(a.Add(b).PadTo(3100))
	det := DetectWith(nil, rx, floor, DefaultDetectorConfig(64))
	if !det.Interfered {
		t.Error("−3 dB SIR interference not detected")
	}
}

func TestDetectZeroNoiseFloor(t *testing.T) {
	m := msk.New()
	sig := m.Modulate(randomBits(rand.New(rand.NewSource(10)), 200)).Delay(100).PadTo(1200)
	det := DetectWith(nil, sig, 0, DefaultDetectorConfig(64))
	if !det.Present {
		t.Error("noiseless packet not detected")
	}
}

func TestDetectDegenerateInputs(t *testing.T) {
	cfg := DefaultDetectorConfig(64)
	if det := DetectWith(nil, make(dsp.Signal, 10), 0.1, cfg); det.Present {
		t.Error("window longer than signal should detect nothing")
	}
	if det := DetectWith(nil, nil, 0.1, cfg); det.Present {
		t.Error("empty signal detected a packet")
	}
	if det := DetectWith(nil, make(dsp.Signal, 100), 0.1, DetectorConfig{}); det.Present {
		t.Error("zero window config detected a packet")
	}
}
