package frame

import (
	"sync"

	"repro/internal/dsp"
)

// SentRecord is what a node remembers about a transmission so it can later
// cancel that transmission out of an interfered signal: the packet, its
// on-air bits, and the modulated baseband samples.
//
// Bits of a record a SentBuffer stores (Put, Marshal) are the buffer's
// own: Put copies them, Marshal writes them into the buffer's storage.
// They stay valid until the buffer is Reset, which recycles their storage
// for the records of the next run; a record evicted or refreshed before
// that keeps its bits for good. Packet is stored as given: the buffer
// copies no payload, and cancellation reads nothing but Bits.
//
// Samples lives only as long as the step that transmits it: the record a
// node's BuildFrame returns carries them, but the records radio nodes keep
// in their Sent Packet Buffer hold Packet and Bits only, because
// cancellation reads nothing but Bits. A record looked up in a node's
// buffer therefore has nil Samples; transmit from the record BuildFrame
// returned in the same step. The simulation engine holds its schedules
// to exactly that: the samples of the frames it builds come from a pool
// that takes them back when the slot ends, and frames with equal bits
// within a slot share one set of samples.
type SentRecord struct {
	Packet  Packet
	Bits    []byte
	Samples dsp.Signal
}

// SentBuffer is the Sent Packet Buffer of §7.3: a bounded store of recent
// transmissions (and overheard packets, for the "X" topology of §11.5)
// keyed by (src, dst, seq). When full, the oldest record is evicted —
// interference decoding only ever needs packets from the recent past.
//
// The buffer owns its records' bits (see SentRecord). Reset keeps their
// storage, and later Put and Marshal calls reuse it, so a pooled node
// that stores the same number of frames run after run stops allocating
// frame bits once warmed. Storage is recycled only at Reset, never when a
// record is evicted or refreshed, so bits handed out earlier in a run stay
// valid for the whole run.
//
// SentBuffer is safe for concurrent use.
type SentBuffer struct {
	mu    sync.Mutex
	cap   int
	items map[Key]SentRecord
	order []Key // FIFO eviction order
	// spare holds the bit storage of the records Reset dropped, for reuse.
	spare [][]byte
}

// DefaultSentBufferSize bounds the buffer; a handful of round-trips of
// history is ample for the canonical topologies.
const DefaultSentBufferSize = 256

// NewSentBuffer returns a buffer holding at most capacity records.
// Non-positive capacities fall back to the default.
func NewSentBuffer(capacity int) *SentBuffer {
	if capacity <= 0 {
		capacity = DefaultSentBufferSize
	}
	return &SentBuffer{cap: capacity, items: make(map[Key]SentRecord)}
}

// Put stores a record with a copy of its bits, evicting the oldest if the
// buffer is full. Storing an existing key refreshes its content without
// changing eviction order. The caller may reuse rec.Bits afterwards.
func (b *SentBuffer) Put(rec SentRecord) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(rec.Bits) > 0 {
		rec.Bits = append(b.storage(len(rec.Bits))[:0], rec.Bits...)
	}
	b.put(rec)
}

// Marshal encodes p for a modem of bitsPerSymbol bits per symbol
// (MarshalFor) into storage the buffer owns, stores the record, and
// returns it with nil Samples.
func (b *SentBuffer) Marshal(p Packet, bitsPerSymbol int) SentRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	rec := SentRecord{Packet: p, Bits: marshalInto(b.storage(FrameBits(len(p.Payload))), p, bitsPerSymbol)}
	b.put(rec)
	return rec
}

// storage returns spare storage of capacity at least n, or a new slice,
// resized to n (contents undefined).
func (b *SentBuffer) storage(n int) []byte {
	for i := len(b.spare) - 1; i >= 0; i-- {
		if s := b.spare[i]; cap(s) >= n {
			last := len(b.spare) - 1
			b.spare[i] = b.spare[last]
			b.spare[last] = nil
			b.spare = b.spare[:last]
			return s[:n]
		}
	}
	return make([]byte, n)
}

// put stores rec; the caller holds the lock.
func (b *SentBuffer) put(rec SentRecord) {
	k := rec.Packet.Header.Key()
	if _, ok := b.items[k]; ok {
		b.items[k] = rec
		return
	}
	if len(b.order) >= b.cap {
		oldest := b.order[0]
		b.order = b.order[1:]
		delete(b.items, oldest)
	}
	b.items[k] = rec
	b.order = append(b.order, k)
}

// Reset empties the buffer, keeping its allocated storage so a pooled
// node can start a fresh run without rebuilding the map. The stored
// records' bits become spare storage for later Put and Marshal calls, so
// no bits handed out before the Reset may be read after it.
func (b *SentBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, k := range b.order {
		if bs := b.items[k].Bits; cap(bs) > 0 && len(b.spare) < b.cap {
			b.spare = append(b.spare, bs)
		}
	}
	clear(b.items)
	b.order = b.order[:0]
}

// Shed empties the buffer like Reset but recycles nothing: the records'
// bits and the spare storage go to the collector. An idle pooled node
// sheds so it does not hold frame bits between campaigns.
func (b *SentBuffer) Shed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	clear(b.items)
	b.order = b.order[:0]
	b.spare = nil
}

// Get looks up the record for a header key.
func (b *SentBuffer) Get(k Key) (SentRecord, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rec, ok := b.items[k]
	return rec, ok
}

// Len returns the number of stored records.
func (b *SentBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.items)
}
