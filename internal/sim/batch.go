package sim

import (
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/frame"
	"repro/internal/radio"
)

// slotBatch gathers one schedule slot's receptions so they decode as a
// single core.DecodeBatch burst: the batch items, the reception buffers to
// release afterwards, and each reception's wanted frame for BER
// accounting. It lives in the worker's Scratch and is reused across every
// slot of every run the worker executes, so queueing and flushing allocate
// nothing in steady state.
type slotBatch struct {
	items  []core.BatchItem
	out    []core.BatchResult
	rxs    []dsp.Signal
	wanted []frame.SentRecord
}

// queueANCDecode enqueues one reception for the slot's decode burst:
// node n will decode rx, and the result will be accounted against the
// wanted frame at flush time. The reception buffer is released by the
// flush, so the caller must not release it.
func (e *Env) queueANCDecode(n *radio.Node, rx dsp.Signal, wanted frame.SentRecord) {
	b := &e.scratch.batch
	b.items = append(b.items, n.BatchItem(rx))
	b.rxs = append(b.rxs, rx)
	b.wanted = append(b.wanted, wanted)
}

// flushBatch decodes every queued reception, in queue order, and returns
// the results (owned by the batch until finishBatch; each Result lives
// until the slot's step returns). The batched and sequential paths are
// bit-identical — decodes consume no RNG and each item runs the full
// Algorithm 1 against its own reception — which the sequentialDecodes
// test hook verifies by forcing per-item Decode calls.
func (e *Env) flushBatch() []core.BatchResult {
	b := &e.scratch.batch
	if e.scratch.sequentialDecodes {
		if cap(b.out) < len(b.items) {
			b.out = make([]core.BatchResult, len(b.items))
		}
		b.out = b.out[:len(b.items)]
		for i := range b.items {
			it := &b.items[i]
			b.out[i].Result, b.out[i].Err = it.Decoder.Decode(it.Rx, it.Lookup)
		}
	} else {
		b.out = core.DecodeBatch(b.items, b.out)
	}
	for i := range b.out {
		e.scratch.releaseAtSlotEnd(b.out[i].Result)
	}
	return b.out
}

// finishBatch releases the queued reception buffers and clears every
// reference the batch holds, truncating it for the next slot.
func (e *Env) finishBatch() {
	b := &e.scratch.batch
	for i := range b.rxs {
		e.release(b.rxs[i])
		b.rxs[i] = nil
	}
	for i := range b.items {
		b.items[i] = core.BatchItem{}
	}
	for i := range b.out {
		b.out[i] = core.BatchResult{}
	}
	for i := range b.wanted {
		b.wanted[i] = frame.SentRecord{}
	}
	b.items = b.items[:0]
	b.out = b.out[:0]
	b.rxs = b.rxs[:0]
	b.wanted = b.wanted[:0]
}

// flushANCDecodes decodes the queued slot as one burst and applies the
// standard ANC goodput/loss accounting to every result, in queue order —
// the batched form of calling accountANCDecode per reception.
func (e *Env) flushANCDecodes(r Recorder) {
	out := e.flushBatch()
	b := &e.scratch.batch
	for i := range out {
		e.accountANCResult(r, out[i].Result, out[i].Err, b.wanted[i])
	}
	e.finishBatch()
}
