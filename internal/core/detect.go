package core

import (
	"repro/internal/dsp"
)

// DetectorConfig holds the §7.1 detection thresholds. The paper states its
// packet detector fires when energy exceeds the noise floor by 20 dB and
// its interference detector when the energy variance exceeds its threshold;
// both are expressed here relative to measurable baselines so they work at
// any absolute power level.
type DetectorConfig struct {
	// Window is the moving-window length in samples for energy and
	// variance profiles.
	Window int
	// PacketSNRdB: a packet is present where windowed energy exceeds the
	// noise floor by this many dB. The paper quotes 20 dB; we default to
	// 12 dB because the relay's power renormalization pushes the weaker
	// of two constituent signals toward ~19 dB at the edges of the
	// Fig. 13 SIR sweep, and a 12 dB threshold over a window of ≥128
	// samples still has a negligible false-trigger probability.
	PacketSNRdB float64
	// InterferenceRatio: interference is declared where the windowed
	// energy variance exceeds this fraction of the squared mean energy.
	// A clean MSK signal at operating SNR has normalized variance
	// ≈ 2/SNR (≪ 0.1); two interfering MSK signals have
	// 2A²B²/(A²+B²)², which is ≥ 0.1 for any SIR within ±12 dB.
	InterferenceRatio float64
}

// DefaultDetectorConfig returns the thresholds used throughout the
// repository.
func DefaultDetectorConfig(window int) DetectorConfig {
	return DetectorConfig{Window: window, PacketSNRdB: 12, InterferenceRatio: 0.1}
}

// Detection describes what the receiver found in a reception window.
type Detection struct {
	Present    bool // a packet is present
	Interfered bool // more than one signal overlaps somewhere
	// Start and End delimit the samples where a packet is present
	// (half-open interval).
	Start, End int
	// IStart and IEnd delimit the interfered region, valid only when
	// Interfered is true.
	IStart, IEnd int
}

// DetectWith scans a reception window against a known noise floor (linear
// power). It returns packet bounds from the energy profile and, if the
// energy-variance criterion fires anywhere inside the packet, the bounds of
// the interfered region. The energy/variance profiles come from a
// workspace (nil for fresh allocations); both are filled in one pass over
// the reception.
func DetectWith(ws *Workspace, rx dsp.Signal, noiseFloor float64, cfg DetectorConfig) Detection {
	if cfg.Window <= 0 || len(rx) < cfg.Window {
		return Detection{}
	}
	energyThresh := noiseFloor * dsp.FromDB(cfg.PacketSNRdB)
	if noiseFloor == 0 {
		// A zero noise floor makes any energy infinite SNR; use a tiny
		// absolute floor so detection still functions in noiseless tests.
		energyThresh = 1e-12
	}

	var energy, variance []float64
	if ws == nil {
		energy = make([]float64, len(rx))
		variance = make([]float64, len(rx))
	} else {
		energy = growFloats(&ws.energy, len(rx))
		variance = growFloats(&ws.variance, len(rx))
	}
	dsp.ProfileInto(energy, variance, rx, cfg.Window)

	start, end := -1, -1
	for i, e := range energy {
		if e > energyThresh {
			if start == -1 {
				start = i
			}
			end = i + 1
		}
	}
	if start == -1 {
		return Detection{}
	}
	// The trailing profile lags the true edge by up to a window; pull the
	// start back so the first energetic samples are included.
	start -= cfg.Window - 1
	if start < 0 {
		start = 0
	}

	det := Detection{Present: true, Start: start, End: end}

	// Evaluate the variance criterion only in the packet interior: a
	// window straddling a packet edge is half noise, half signal, and its
	// energy variance is enormous regardless of interference. The margin
	// is two windows because the detected Start/End are themselves only
	// window-accurate. The true interference boundaries are interior by
	// construction (§7.2 enforces clean head and tail regions).
	iStart, iEnd := -1, -1
	for i := start + 2*cfg.Window; i < end-2*cfg.Window; i++ {
		e := energy[i]
		if e <= energyThresh {
			continue
		}
		if variance[i] > cfg.InterferenceRatio*e*e {
			if iStart == -1 {
				iStart = i
			}
			iEnd = i + 1
		}
	}
	// Sub-window flickers are noise artifacts, not collisions.
	if iStart != -1 && iEnd-iStart < cfg.Window {
		iStart = -1
	}
	if iStart != -1 {
		iStart -= cfg.Window - 1
		if iStart < start {
			iStart = start
		}
		det.Interfered = true
		det.IStart, det.IEnd = iStart, iEnd
	}
	return det
}
