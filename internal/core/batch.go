package core

import "repro/internal/dsp"

// BatchItem is one reception of a burst: the decoder that receives it,
// the reception window, and the sent-buffer lookup that resolves its
// known packet (nil when the receiver knows nothing, exactly as in
// Decoder.Decode).
type BatchItem struct {
	Decoder *Decoder
	Rx      dsp.Signal
	Lookup  KnownLookup
}

// BatchResult is the outcome of one batch item, carrying exactly what the
// corresponding Decoder.Decode call would have returned.
type BatchResult struct {
	Result *Result
	Err    error
}

// DecodeBatch decodes a burst of receptions in one pass — the batch entry
// point of the decode pipeline. Items decode strictly in order, each
// through the full Algorithm 1 (detect, clean or interfered, forward then
// backward), so out[i] is bit-identical to items[i].Decoder.Decode(...);
// what the batch amortizes is the per-reception setup: each distinct
// workspace is prepared once at the batch's largest reception length
// (profile and decision-bit scratch carved contiguously from its arena,
// see Workspace.prepareBatch).
//
// The typical burst — one simulation slot's receptions decoded by nodes
// sharing a worker's workspace — prepares exactly once. Items with
// distinct workspaces still decode correctly; they just re-prepare at
// each workspace switch.
//
// out is reused when its capacity suffices and returned resized to
// len(items). A nil item Decoder panics, matching a nil-receiver Decode.
//
//anc:hotpath
func DecodeBatch(items []BatchItem, out []BatchResult) []BatchResult {
	if cap(out) < len(items) {
		out = make([]BatchResult, len(items))
	}
	out = out[:len(items)]
	if len(items) == 0 {
		return out
	}
	maxLen := 0
	for i := range items {
		if n := len(items[i].Rx); n > maxLen {
			maxLen = n
		}
	}
	var prepared *Workspace
	for i := range items {
		it := &items[i]
		ws := it.Decoder.workspace()
		if ws != prepared {
			ws.prepareBatch(maxLen)
			prepared = ws
		}
		out[i].Result, out[i].Err = it.Decoder.decodeOne(ws, it.Rx, it.Lookup)
	}
	return out
}
