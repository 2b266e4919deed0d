package sim

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/topology"
)

// TestZeroSNRIsRespected is the regression test for the withDefaults
// zero-value trap: an explicit 0 dB configuration must actually run at
// 0 dB instead of being silently rewritten to the 25 dB default.
func TestZeroSNRIsRespected(t *testing.T) {
	cfg := Config{SNRdB: Ptr(0)}.withDefaults()
	if *cfg.SNRdB != 0 {
		t.Fatalf("withDefaults rewrote explicit 0 dB to %v", *cfg.SNRdB)
	}
	// At 0 dB the noise floor equals the mean channel power
	// (FromDB(0) = 1): the derived receiver calibration must reflect the
	// requested SNR, not the default.
	e := newEnv(cfg, 1, topology.AliceBob, nil)
	if e.noiseFloor != cfg.Topology.MeanPowerGain {
		t.Errorf("0 dB noise floor = %v, want MeanPowerGain %v",
			e.noiseFloor, cfg.Topology.MeanPowerGain)
	}
	// And the run must behave like a 0 dB channel: against the 25 dB
	// default on the same seed, deliveries collapse or BER climbs.
	loud := runOne(t, "alice-bob", SchemeANC, Config{Packets: 2}, 3)
	quiet := runOne(t, "alice-bob", SchemeANC, Config{Packets: 2, SNRdB: Ptr(0)}, 3)
	if quiet.Delivered >= loud.Delivered && quiet.MeanBER() <= loud.MeanBER() {
		t.Errorf("0 dB run (delivered %d, BER %v) indistinguishable from 25 dB default (delivered %d, BER %v)",
			quiet.Delivered, quiet.MeanBER(), loud.Delivered, loud.MeanBER())
	}
}

// TestZeroGuardIsRespected pins the same fix for GuardFrac: an explicit
// zero guard must charge no turnaround overhead.
func TestZeroGuardIsRespected(t *testing.T) {
	cfg := Config{GuardFrac: Ptr(0)}.withDefaults()
	if *cfg.GuardFrac != 0 {
		t.Fatalf("withDefaults rewrote explicit zero guard to %v", *cfg.GuardFrac)
	}
	e := newEnv(cfg, 1, topology.AliceBob, nil)
	if e.guard != 0 {
		t.Errorf("zero GuardFrac derived %d guard samples", e.guard)
	}
	// Traditional accounting is purely slot-counting, so the zero-guard
	// run charges exactly frameLen per transmission.
	m := runOne(t, "alice-bob", SchemeRouting, Config{Packets: 1, GuardFrac: Ptr(0)}, 5)
	if want := float64(4 * e.frameLen); m.TimeSamples != want {
		t.Errorf("zero-guard traditional time = %v, want %v", m.TimeSamples, want)
	}
}

// TestNilConfigFieldsStillDefault pins the other side of the fix: a
// zero-value Config keeps today's defaults.
func TestNilConfigFieldsStillDefault(t *testing.T) {
	cfg := Config{}.withDefaults()
	if *cfg.SNRdB != 25 || *cfg.GuardFrac != 0.08 {
		t.Errorf("defaults drifted: SNRdB %v GuardFrac %v", *cfg.SNRdB, *cfg.GuardFrac)
	}
}

// TestFadingOnlyTopologyKeepsChannelDefaults guards the README's
// campaign-wide fading path: selecting only a fading model on an
// otherwise-zero topology config must not zero out every channel gain.
func TestFadingOnlyTopologyKeepsChannelDefaults(t *testing.T) {
	cfg := Config{Topology: topology.Config{
		Fading: channel.FadingSpec{Kind: channel.FadingRayleigh},
	}}.withDefaults()
	want := topology.DefaultConfig()
	if cfg.Topology.MeanPowerGain != want.MeanPowerGain || cfg.Topology.CFORange != want.CFORange {
		t.Errorf("fading-only topology lost channel defaults: %+v", cfg.Topology)
	}
	if cfg.Topology.Fading.Kind != channel.FadingRayleigh {
		t.Errorf("fading spec lost: %+v", cfg.Topology.Fading)
	}
	// A partially-set topology (user really configured channels) still
	// wins over the defaults, as before.
	custom := Config{Topology: topology.Config{MeanPowerGain: 0.3}}.withDefaults()
	if custom.Topology.MeanPowerGain != 0.3 || custom.Topology.GainJitterDB != 0 {
		t.Errorf("explicit topology overwritten: %+v", custom.Topology)
	}
}

// TestZeroScalarConfigsMeanDefault closes the zero-value audit for the
// remaining scalar fields. Unlike SNRdB and GuardFrac — where zero is a
// legitimate run and the field is a *float64 with Ptr — a zero
// SamplesPerSymbol, PayloadBytes or Packets is degenerate (no signal, no
// runs), so for these the zero value unambiguously means "default" and
// must keep meaning that. channel.FadingSpec.BlockSlots documents 0 → 1
// and is pinned by the channel package's TestRealizeDefaults.
func TestZeroScalarConfigsMeanDefault(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.SamplesPerSymbol != 4 {
		t.Errorf("SamplesPerSymbol default = %d, want 4", cfg.SamplesPerSymbol)
	}
	if cfg.PayloadBytes != 128 {
		t.Errorf("PayloadBytes default = %d, want 128", cfg.PayloadBytes)
	}
	if cfg.Packets != 25 {
		t.Errorf("Packets default = %d, want 25", cfg.Packets)
	}
	// Explicit non-zero values always win.
	cfg = Config{SamplesPerSymbol: 2, PayloadBytes: 32, Packets: 3}.withDefaults()
	if cfg.SamplesPerSymbol != 2 || cfg.PayloadBytes != 32 || cfg.Packets != 3 {
		t.Errorf("explicit scalars rewritten: %+v", cfg)
	}
	// The derived delay distribution follows the effective (defaulted)
	// modem and oversampling, so a zero-value config still yields a
	// usable MAC: a positive minimum separation and slot size.
	d := Config{}.withDefaults().Delay
	if d.MinSeparation <= 0 || d.SlotSamples <= 0 || d.Slots <= 0 {
		t.Errorf("derived delay config degenerate: %+v", d)
	}
}
