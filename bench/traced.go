package bench

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// runTraced is a workload's traced pass. It replays the untraced pass's
// rows through Engine.RunRecording one scheme at a time under the span
// recorder and a CPU profile, checks the replayed counts against the
// stream, times the shard merge, and runs the layer suite.
func runTraced(w Workload, seed int64, in *replayInput, cfg Config, tr *Tracer) (*Result, error) {
	res := newResult(w.Name, true)
	root := tr.Begin("workload/"+w.Name, -1)
	defer tr.End(root)

	replay := tr.Begin("replay", root)
	stop, err := startProfile(cfg.ProfilePath)
	if err != nil {
		return nil, err
	}
	eng, sc, scratch := sim.NewEngine(w.simConfig()), sim.MustScenario(w.Scenario), sim.NewScratch()
	var mismatch error
	delivered, lost, collisions := 0, 0, 0
	for _, row := range in.rows {
		rowSpan := tr.Begin("row", replay)
		for j, scheme := range in.schemes {
			span := tr.Begin("run/"+string(scheme), rowSpan)
			rec := newSpanRecorder(tr, span, "slot/"+string(scheme))
			err := eng.RunRecording(sc, scheme, row.Seed, rec, scratch)
			rec.Close()
			tr.End(span)
			if err == nil {
				err = matchScheme(row, j, scheme, &rec.Metrics)
			}
			if err != nil && mismatch == nil {
				mismatch = err
			}
			delivered += rec.Delivered
			lost += rec.Lost
			collisions += len(rec.Overlaps)
		}
		tr.End(rowSpan)
	}
	tr.End(replay)
	shares, err := stop()
	if err != nil {
		return nil, err
	}
	res.Ops = len(in.rows)
	res.check("traced_counts", mismatch == nil, fmt.Sprintf("%d rows replayed under tracing match the untraced stream (%v)", len(in.rows), mismatch))

	var runMs, slotUs []float64
	for _, s := range in.schemes {
		ms := tr.Durations("run/"+string(s), replay)
		res.set("sim.run_ms."+string(s), percentile(ms, 0.5), "ms")
		runMs = append(runMs, ms...)
		us := scale(tr.Durations("slot/"+string(s), replay), 1e3)
		res.set("sim.slot_us_p50."+string(s), percentile(us, 0.5), "us")
		slotUs = append(slotUs, us...)
	}
	res.set("sim.run_ms_p50", percentile(runMs, 0.5), "ms")
	res.set("sim.slot_us_p50", percentile(slotUs, 0.5), "us")
	res.set("sim.delivery_ratio", float64(delivered)/float64(delivered+lost), "ratio")
	res.set("sim.collisions_per_run", float64(collisions)/float64(len(runMs)), "count")
	if !w.Serve() {
		res.set("trace_overhead_pct", 100*(percentile(tr.Durations("row", replay), 0.5)/in.rowMs-1), "%")
	}
	for _, e := range profileEntries {
		v := 0.0
		for _, fn := range e.funcs {
			v += shares[fn]
		}
		res.set(e.metric, v, "%")
	}
	for name, d := range tr.SelfTimes(replay) {
		res.set("self_ms."+name, float64(d)/1e6, "ms")
	}

	shards := in.shards
	if shards[0] == nil {
		// serve-mixed: one request's campaign, streamed in two shards.
		s, err := newShards(w, in.rows[0].Seed, w.Runs)
		if err == nil {
			shards, err = streamShards(s, nil)
		}
		if err != nil {
			return nil, err
		}
	}
	var mergeMs []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		err := experiments.MergeSummaries(&bytes.Buffer{}, bytes.NewReader(shards[0]), bytes.NewReader(shards[1]))
		mergeMs = append(mergeMs, float64(time.Since(start))/1e6)
		if err != nil {
			return nil, fmt.Errorf("bench: merging %s shards: %w", w.Name, err)
		}
	}
	res.set("experiments.merge_ms", percentile(mergeMs, 0.5), "ms")

	if err := runLayers(w, seed, layerTime(cfg.Seconds), tr, root, res); err != nil {
		return nil, err
	}
	return res, nil
}

func scale(xs []float64, k float64) []float64 {
	for i := range xs {
		xs[i] *= k
	}
	return xs
}
