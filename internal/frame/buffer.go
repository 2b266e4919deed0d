package frame

import (
	"sync"

	"repro/internal/dsp"
)

// SentRecord is what a node remembers about a transmission so it can later
// cancel that transmission out of an interfered signal: the packet, its
// on-air bits, and the modulated baseband samples.
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
// SentBuffer is safe for concurrent use.
type SentBuffer struct {
	mu    sync.Mutex
	cap   int
	items map[Key]SentRecord
	order []Key // FIFO eviction order
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

// Put stores a record, evicting the oldest if the buffer is full. Storing
// an existing key refreshes its content without changing eviction order.
func (b *SentBuffer) Put(rec SentRecord) {
	b.mu.Lock()
	defer b.mu.Unlock()
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
// node can start a fresh run without rebuilding the map.
func (b *SentBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	clear(b.items)
	b.order = b.order[:0]
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
