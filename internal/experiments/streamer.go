package experiments

import (
	"context"
	"encoding/json"

	"repro/internal/sim"
)

// Streamer is one resolved campaign exposed line by line: the seam the
// ancserve daemon (internal/serve) shares with the CLI writers, so a
// campaign served over HTTP is byte-for-byte the stream
// `ancsim -format ndjson` writes for the same request. Each line is a
// marshaled CampaignRow, then exactly one trailing summary record (the
// shard wire format of WriteCampaignNDJSON); the Streamer never frames
// lines with newlines — transports add their own framing.
//
// A Streamer is single-use: Stream runs the campaign once. Construction
// resolves and validates the whole request (scenario, schemes, modem,
// shard coordinates), so an invalid campaign fails before any run
// starts — the admission-control property a job queue needs.
type Streamer struct {
	c      *campaignContext
	shard  int
	shards int
	r      sim.SeedRange
}

// NewStreamer resolves shard `shard` of `shards` (1-based; 1/1 is the
// whole campaign) of the named scenario's campaign. Every validation
// error a run could produce up front is produced here instead.
func NewStreamer(opts StreamOptions, name string, shard, shards int) (*Streamer, error) {
	if shards < 1 {
		return nil, errShardCount(shards)
	}
	if shard < 1 || shard > shards {
		return nil, errShardIndex(shard, shards)
	}
	c, err := newCampaignContext(opts, name)
	if err != nil {
		return nil, err
	}
	return &Streamer{
		c:      c,
		shard:  shard,
		shards: shards,
		r:      sim.SplitSeeds(len(c.seeds), shards)[shard-1],
	}, nil
}

// Rows returns the number of row lines this stream will emit (the
// trailing summary record is one more line).
func (s *Streamer) Rows() int { return s.r.Hi - s.r.Lo }

// Runs returns the whole campaign's run count, across all shards.
func (s *Streamer) Runs() int { return s.c.header.Runs }

// Schemes returns the resolved scheme rows of the campaign, in row
// order — the order SchemeResult entries appear within each row.
func (s *Streamer) Schemes() []sim.Scheme {
	return append([]sim.Scheme(nil), s.c.plan.schemes...)
}

// Modem returns the effective PHY name the campaign runs under.
func (s *Streamer) Modem() string { return s.c.header.Modem }

// Stream executes the campaign, invoking emit once per NDJSON line —
// every CampaignRow, in global run order, then the one summary record.
// Each line is freshly allocated and owned by the receiver; emit may
// retain it. An emit error stops the campaign and is returned. A nil
// ctx streams without cancellation; a canceled ctx stops the campaign
// cleanly with ctx.Err() (see sim.WithContext).
func (s *Streamer) Stream(ctx context.Context, emit func(line []byte) error) error {
	pools, err := s.c.run(ctx, s.r, func(_ sim.Row, r CampaignRow) error {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		return emit(b)
	})
	if err != nil {
		return err
	}
	rec := shardSummary{
		Record:   "summary",
		Header:   s.c.header,
		Shard:    shardInfo{Index: s.shard, Shards: s.shards, RowLo: s.r.Lo, RowHi: s.r.Hi},
		Sketches: encodeSketchSet(pools),
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return emit(b)
}
