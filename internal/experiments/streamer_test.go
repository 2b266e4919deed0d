package experiments

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestStreamerMatchesNDJSONWriter pins the seam the campaign server
// rides on: a Streamer's emitted lines, newline-framed, are byte-for-
// byte the stream WriteCampaignNDJSON writes for the same request.
func TestStreamerMatchesNDJSONWriter(t *testing.T) {
	opts := StreamOptions{Options: Options{Runs: 3, Seed: 1}}
	opts.Sim.Packets = 2

	var direct bytes.Buffer
	if err := WriteCampaignNDJSON(&direct, opts, "alice-bob", 1, 1); err != nil {
		t.Fatal(err)
	}

	s, err := NewStreamer(opts, "alice-bob", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows() != 3 || s.Runs() != 3 {
		t.Fatalf("Rows()=%d Runs()=%d, want 3/3", s.Rows(), s.Runs())
	}
	var streamed bytes.Buffer
	lines := 0
	if err := s.Stream(context.Background(), func(line []byte) error {
		lines++
		streamed.Write(line)
		return streamed.WriteByte('\n')
	}); err != nil {
		t.Fatal(err)
	}
	if lines != 4 { // 3 rows + 1 summary record
		t.Fatalf("emitted %d lines, want 4", lines)
	}
	if !bytes.Equal(direct.Bytes(), streamed.Bytes()) {
		t.Errorf("streamer bytes diverge from WriteCampaignNDJSON:\ndirect:   %s\nstreamed: %s",
			direct.Bytes(), streamed.Bytes())
	}
}

// TestStreamerCancel cancels the context from the emit callback: the
// campaign must stop with context.Canceled and emit no further lines.
func TestStreamerCancel(t *testing.T) {
	opts := StreamOptions{Options: Options{Runs: 64, Seed: 1}}
	opts.Sim.Packets = 1
	s, err := NewStreamer(opts, "alice-bob", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lines := 0
	err = s.Stream(ctx, func(line []byte) error {
		lines++
		if lines == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream error = %v, want context.Canceled", err)
	}
	if lines < 2 || lines >= 64 {
		t.Errorf("emitted %d lines; want ≥ 2 (cancel point) and < 64 (full campaign)", lines)
	}
}

// TestStreamerValidatesUpFront pins the admission-control property: an
// invalid request fails at construction, before any run starts.
func TestStreamerValidatesUpFront(t *testing.T) {
	opts := StreamOptions{Options: Options{Runs: 2, Seed: 1}}
	if _, err := NewStreamer(opts, "no-such-scenario", 1, 1); err == nil {
		t.Error("NewStreamer accepted an unknown scenario")
	}
	if _, err := NewStreamer(opts, "alice-bob", 0, 1); err == nil {
		t.Error("NewStreamer accepted shard index 0")
	}
	if _, err := NewStreamer(opts, "alice-bob", 3, 2); err == nil {
		t.Error("NewStreamer accepted shard 3/2")
	}
	if _, err := NewStreamer(opts, "alice-bob", 1, 0); err == nil {
		t.Error("NewStreamer accepted shard count 0")
	}
}

// TestStreamerCampaignsReuseScratches runs ten identical, warmed 40-row
// alice-bob campaigns through Streamers with the collector off at
// GOMAXPROCS=2. Each campaign worker must take a shed Scratch an earlier
// worker put back, not build a fresh one (which allocates nodes,
// decoders and a decode workspace anew, over 1 MB), so every campaign
// allocates within 64 kB of the others.
func TestStreamerCampaignsReuseScratches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve campaigns")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opts := StreamOptions{Options: Options{Runs: 40, Seed: 1}}
	opts.Sim.Packets = 2
	campaign := func() uint64 {
		s, err := NewStreamer(opts, "alice-bob", 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.Stream(context.Background(), func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	campaign() // warm up: both workers' Scratches built and shed
	campaign()
	lo, hi := ^uint64(0), uint64(0)
	for i := 0; i < 10; i++ {
		b := campaign()
		lo, hi = min(lo, b), max(hi, b)
	}
	if hi-lo > 64<<10 {
		t.Errorf("ten identical campaigns allocated %d to %d bytes, %d apart; want within 64 kB", lo, hi, hi-lo)
	}
	t.Logf("ten identical campaigns allocated %d to %d bytes", lo, hi)
}
