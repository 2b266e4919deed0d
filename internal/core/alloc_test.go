package core

import (
	"reflect"
	"testing"

	"repro/internal/dqpsk"
	"repro/internal/dsp"
	"repro/internal/frame"
	"repro/internal/msk"
)

// Steady-state allocation budgets for the decode pipeline with an attached
// Workspace. Once the workspace buffers have grown to the reception size
// and each Result is released before the next decode (Workspace.Release),
// the interfered and clean paths allocate nothing: the decode reuses the
// released Result with the storage of its WantedBits and payload. The
// backward path still pays for its failed forward attempt's error,
// fmt.Errorf("%w: header %v", ErrUnknown, hdr), which allocates 4 objects
// when measured on its own; its budget is that count (see
// backwardDecodeBudget).
const (
	maxInterferedDecodeAllocs = 0
	maxCleanDecodeAllocs      = 0
	maxBackwardDecodeAllocs   = 4   // the forward attempt's ErrUnknown wrap
	maxModemIntoAllocs        = 0.5 // DemodulateInto/DecideDiffsInto: none
)

// backwardDecodeBudget is maxBackwardDecodeAllocs, except under the race
// detector, where the wrap's formatting allocates a varying count (see
// raceDetector): there it is the budget the backward path had before
// Results were reused.
func backwardDecodeBudget() float64 {
	if raceDetector {
		return 40
	}
	return maxBackwardDecodeAllocs
}

// decodeAllocs reports AllocsPerRun of one Decode against a warmed-up
// workspace-carrying decoder, releasing each Result before the next
// decode.
func decodeAllocs(t *testing.T, dec *Decoder, rx dsp.Signal, lookup KnownLookup) float64 {
	t.Helper()
	return steadyAllocs(t, dec, func() (*Result, error) { return dec.Decode(rx, lookup) })
}

// tryCleanAllocs is decodeAllocs for TryClean, whose every call must
// decode the body.
func tryCleanAllocs(t *testing.T, dec *Decoder, rx dsp.Signal) float64 {
	t.Helper()
	return steadyAllocs(t, dec, func() (*Result, error) {
		res, err := dec.TryClean(rx)
		if err == nil && !res.BodyOK {
			t.Error("TryClean did not decode the body")
		}
		return res, err
	})
}

// steadyAllocs reports AllocsPerRun of decode after two warm-up calls,
// releasing each Result to dec's workspace before the next call.
func steadyAllocs(t *testing.T, dec *Decoder, decode func() (*Result, error)) float64 {
	t.Helper()
	run := func() {
		res, err := decode()
		if err != nil {
			t.Errorf("decode: %v", err)
		}
		dec.ws.Release(res)
	}
	for i := 0; i < 2; i++ {
		run()
	}
	return testing.AllocsPerRun(10, run)
}

// cleanReception is one modulated frame under light noise, for the clean
// decode paths.
func cleanReception(m PhyModem, payload string) dsp.Signal {
	pkt := frame.NewPacket(3, 4, 9, []byte(payload))
	sig := m.Modulate(frame.MarshalFor(pkt, m.BitsPerSymbol()))
	return dsp.NewNoiseSource(1e-3, 5).AddTo(sig.Delay(150).PadTo(len(sig) + 500))
}

func TestDecodeInterferedSteadyStateAllocs(t *testing.T) {
	ex := makeABExchange(t, 42, 1200, 1, 1)
	dec := NewDecoder(abConfig(ex.modem, ex.floorA))
	dec.SetWorkspace(NewWorkspace())
	if allocs := decodeAllocs(t, dec, ex.rxA, ex.bufA.Get); allocs > maxInterferedDecodeAllocs {
		t.Errorf("interfered Decode allocates %.1f objects/op in steady state, budget %d", allocs, maxInterferedDecodeAllocs)
	}
}

func TestDecodeBackwardSteadyStateAllocs(t *testing.T) {
	// Bob's packet starts second, so his decode runs the forward pipeline
	// to failure and then the conjugate-reversed pass — the worst case.
	ex := makeABExchange(t, 42, 1200, 1, 1)
	dec := NewDecoder(abConfig(ex.modem, ex.floorB))
	dec.SetWorkspace(NewWorkspace())
	if allocs, budget := decodeAllocs(t, dec, ex.rxB, ex.bufB.Get), backwardDecodeBudget(); allocs > budget {
		t.Errorf("backward Decode allocates %.1f objects/op in steady state, budget %.0f", allocs, budget)
	}
}

// TestSharedWorkspaceAcrossDecoders pins the node-lifecycle contract: many
// decoders (one per node) attached to one workspace stay within the same
// steady-state budget, because the buffers are shared rather than
// re-grown per decoder.
func TestSharedWorkspaceAcrossDecoders(t *testing.T) {
	ex := makeABExchange(t, 7, 1100, 1, 1)
	ws := NewWorkspace()
	warm := NewDecoder(abConfig(ex.modem, ex.floorA))
	warm.SetWorkspace(ws)
	if a := decodeAllocs(t, warm, ex.rxA, ex.bufA.Get); a > maxInterferedDecodeAllocs {
		t.Fatalf("warm decoder allocates %.1f objects/op", a)
	}
	fresh := NewDecoder(abConfig(ex.modem, ex.floorA))
	fresh.SetWorkspace(ws)
	lookup := ex.bufA.Get // bound once, as radio.Node binds its lookup
	allocs := testing.AllocsPerRun(10, func() {
		res, err := fresh.Decode(ex.rxA, lookup)
		if err != nil {
			t.Errorf("decode: %v", err)
		}
		ws.Release(res)
	})
	if allocs > maxInterferedDecodeAllocs {
		t.Errorf("fresh decoder on shared workspace allocates %.1f objects/op, budget %d", allocs, maxInterferedDecodeAllocs)
	}
}

func TestTryCleanSteadyStateAllocs(t *testing.T) {
	m := msk.New()
	dec := NewDecoder(DefaultConfig(m, 1e-3))
	dec.SetWorkspace(NewWorkspace())
	if allocs := tryCleanAllocs(t, dec, cleanReception(m, "clean-path payload for the allocation budget test")); allocs > maxCleanDecodeAllocs {
		t.Errorf("TryClean allocates %.1f objects/op in steady state, budget %d", allocs, maxCleanDecodeAllocs)
	}
}

// TestDecodeCleanSteadyStateAllocs pins Decode's clean path, for both
// modems, to the same budget as TryClean's.
func TestDecodeCleanSteadyStateAllocs(t *testing.T) {
	for _, m := range []PhyModem{msk.New(), dqpsk.New()} {
		dec := NewDecoder(DefaultConfig(m, 1e-3))
		dec.SetWorkspace(NewWorkspace())
		rx := cleanReception(m, "clean Decode payload for the allocation budget test")
		if allocs := decodeAllocs(t, dec, rx, nil); allocs > maxCleanDecodeAllocs {
			t.Errorf("%d bits/symbol: clean Decode allocates %.1f objects/op in steady state, budget %d",
				m.BitsPerSymbol(), allocs, maxCleanDecodeAllocs)
		}
	}
}

// TestDQPSKDecodeInterferedSteadyStateAllocs holds the second modem to
// the same zero-steady-state-allocation contract as MSK: once the
// shared workspace has grown, a forward interference decode allocates
// only what the caller keeps.
func TestDQPSKDecodeInterferedSteadyStateAllocs(t *testing.T) {
	ex := makeDQPSKExchange(t, 21, 700)
	dec := NewDecoder(abConfig(ex.modem, ex.floorA*2))
	dec.SetWorkspace(NewWorkspace())
	if allocs := decodeAllocs(t, dec, ex.rxA, ex.bufA.Get); allocs > maxInterferedDecodeAllocs {
		t.Errorf("dqpsk interfered Decode allocates %.1f objects/op in steady state, budget %d", allocs, maxInterferedDecodeAllocs)
	}
}

// TestDQPSKDecodeBackwardSteadyStateAllocs pins the symbol-wise-mirror
// backward path to the same budget as MSK's: the group reverse and the
// reference-offset shift add no allocations.
func TestDQPSKDecodeBackwardSteadyStateAllocs(t *testing.T) {
	ex := makeDQPSKExchange(t, 21, 900)
	dec := NewDecoder(abConfig(ex.modem, ex.floorB*2))
	dec.SetWorkspace(NewWorkspace())
	if allocs, budget := decodeAllocs(t, dec, ex.rxB, ex.bufB.Get), backwardDecodeBudget(); allocs > budget {
		t.Errorf("dqpsk backward Decode allocates %.1f objects/op in steady state, budget %.0f", allocs, budget)
	}
}

func TestDQPSKTryCleanSteadyStateAllocs(t *testing.T) {
	m := dqpsk.New()
	dec := NewDecoder(DefaultConfig(m, 1e-3))
	dec.SetWorkspace(NewWorkspace())
	if allocs := tryCleanAllocs(t, dec, cleanReception(m, "clean-path payload for the dqpsk allocation budget test")); allocs > maxCleanDecodeAllocs {
		t.Errorf("dqpsk TryClean allocates %.1f objects/op in steady state, budget %d", allocs, maxCleanDecodeAllocs)
	}
}

// TestResultOutlivesWorkspaceReuse guards the ownership contract the
// zero-allocation path depends on: WantedBits and Payload must be copies,
// not views into workspace buffers, so an earlier Result survives later
// decodes bit-for-bit.
func TestResultOutlivesWorkspaceReuse(t *testing.T) {
	ex := makeABExchange(t, 42, 1200, 1, 1)
	dec := NewDecoder(abConfig(ex.modem, ex.floorA))
	dec.SetWorkspace(NewWorkspace())
	first, err := dec.Decode(ex.rxA, ex.bufA.Get)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	snapshot := append([]byte(nil), first.WantedBits...)
	other := makeABExchange(t, 99, 900, 1, 0.8)
	decB := NewDecoder(abConfig(other.modem, other.floorA))
	decB.SetWorkspace(dec.ws)
	if _, err := decB.Decode(other.rxA, other.bufA.Get); err != nil {
		t.Fatalf("second decode: %v", err)
	}
	for i, b := range snapshot {
		if first.WantedBits[i] != b {
			t.Fatalf("WantedBits[%d] changed after workspace reuse: %d != %d", i, first.WantedBits[i], b)
		}
	}
}

// TestReleasedResultIsReused pins Workspace.Release: the next decode
// through the workspace reuses the released Result, reset so it equals
// what a fresh decode returns, and a Result released twice reaches one
// decode only.
func TestReleasedResultIsReused(t *testing.T) {
	ex := makeABExchange(t, 42, 1200, 1, 1)
	ws := NewWorkspace()
	dec := NewDecoder(abConfig(ex.modem, ex.floorA))
	dec.SetWorkspace(ws)
	interfered, err := dec.Decode(ex.rxA, ex.bufA.Get)
	if err != nil || interfered.Clean {
		t.Fatalf("interfered decode: clean=%v err=%v", interfered != nil && interfered.Clean, err)
	}
	ws.Release(interfered)
	ws.Release(interfered)

	rx := cleanReception(ex.modem, "a clean decode into a released Result")
	clean, err := dec.Decode(rx, nil)
	if err != nil {
		t.Fatalf("clean decode: %v", err)
	}
	if clean != interfered {
		t.Error("the decode after a Release did not reuse the released Result")
	}
	ref := NewDecoder(abConfig(ex.modem, ex.floorA))
	ref.SetWorkspace(NewWorkspace())
	want, err := ref.Decode(rx, nil)
	if err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	if got, want := exportedFields(clean), exportedFields(want); !reflect.DeepEqual(got, want) {
		t.Errorf("reused Result differs from a fresh one:\nreused: %+v\nfresh:  %+v", got, want)
	}

	again, err := dec.Decode(rx, nil)
	if err != nil {
		t.Fatalf("second clean decode: %v", err)
	}
	if again == clean {
		t.Error("a Result released twice reached two decodes")
	}
}

// exportedFields is res without the storage it keeps for reuse.
func exportedFields(res *Result) Result {
	r := *res
	r.bitsBuf, r.payloadBuf, r.released = nil, nil, false
	return r
}
