package core

import (
	"reflect"
	"testing"
)

// batchFixture builds n distinct relayed Alice–Bob collisions and wraps
// each as a BatchItem whose decoder shares the given workspace — the
// shape of one simulation slot's burst.
func batchFixture(t *testing.T, ws *Workspace, n int) []BatchItem {
	t.Helper()
	items := make([]BatchItem, 0, 2*n)
	for i := 0; i < n; i++ {
		ex := makeABExchange(t, int64(40+i), 1100+60*i, 1, 0.9)
		decA := NewDecoder(abConfig(ex.modem, ex.floorA))
		decA.SetWorkspace(ws)
		decB := NewDecoder(abConfig(ex.modem, ex.floorB))
		decB.SetWorkspace(ws)
		items = append(items,
			BatchItem{Decoder: decA, Rx: ex.rxA, Lookup: ex.bufA.Get},
			BatchItem{Decoder: decB, Rx: ex.rxB, Lookup: ex.bufB.Get},
		)
	}
	return items
}

// TestDecodeBatchMatchesSequential pins the batch entry point's contract:
// out[i] is bit-identical to items[i].Decoder.Decode(...), whatever the
// batch's composition — forward and backward decodes, mixed reception
// lengths, every decoder sharing one workspace.
func TestDecodeBatchMatchesSequential(t *testing.T) {
	ws := NewWorkspace()
	items := batchFixture(t, ws, 3)

	// Sequential reference first: decoders with private fresh workspaces,
	// so batch-side workspace sharing cannot mask a divergence.
	want := make([]BatchResult, len(items))
	for i, it := range items {
		ref := NewDecoder(it.Decoder.cfg)
		ref.SetWorkspace(NewWorkspace())
		want[i].Result, want[i].Err = ref.Decode(it.Rx, it.Lookup)
	}

	out := DecodeBatch(items, nil)
	if len(out) != len(items) {
		t.Fatalf("DecodeBatch returned %d results for %d items", len(out), len(items))
	}
	for i := range out {
		if !reflect.DeepEqual(out[i].Err, want[i].Err) {
			t.Errorf("item %d: batch err %v, sequential err %v", i, out[i].Err, want[i].Err)
			continue
		}
		if !reflect.DeepEqual(out[i].Result, want[i].Result) {
			t.Errorf("item %d: batch result diverges from sequential Decode:\nbatch:      %+v\nsequential: %+v",
				i, out[i].Result, want[i].Result)
		}
	}
}

// TestDecodeBatchReusesOut pins the output-slice contract: a caller-owned
// slice with sufficient capacity is resized and reused, not reallocated.
func TestDecodeBatchReusesOut(t *testing.T) {
	ws := NewWorkspace()
	items := batchFixture(t, ws, 1)
	out := make([]BatchResult, 0, len(items))
	got := DecodeBatch(items, out)
	if &got[0] != &out[:1][0] {
		t.Errorf("DecodeBatch reallocated an out slice with capacity %d for %d items", cap(out), len(items))
	}
	if empty := DecodeBatch(nil, got); len(empty) != 0 {
		t.Errorf("DecodeBatch(nil, out) returned %d results", len(empty))
	}
}

// TestDecodeBatchSteadyStateAllocs extends the per-decode allocation
// budget to the batch path: once the shared workspace has grown and every
// Result of a burst is released before the next, a burst allocates only
// the backward decodes' forward-attempt errors — the batch machinery
// itself adds nothing per reception.
func TestDecodeBatchSteadyStateAllocs(t *testing.T) {
	ws := NewWorkspace()
	items := batchFixture(t, ws, 2)
	out := make([]BatchResult, len(items))
	burst := func() {
		out = DecodeBatch(items, out)
		for j := range out {
			ws.Release(out[j].Result)
		}
	}
	for i := 0; i < 2; i++ {
		burst()
		for j := range out {
			if out[j].Err != nil {
				t.Fatalf("warmup batch item %d: %v", j, out[j].Err)
			}
		}
	}
	// Bob's half of the items decodes backward.
	budget := float64(len(items)/2) * backwardDecodeBudget()
	allocs := testing.AllocsPerRun(10, burst)
	if allocs > budget {
		t.Errorf("DecodeBatch of %d items allocates %.1f objects/op in steady state, budget %.0f",
			len(items), allocs, budget)
	}
}
