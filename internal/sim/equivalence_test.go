package sim

import (
	"reflect"
	"testing"
)

// TestWorkspaceReuseMatchesFreshAllocation sweeps every registered
// scenario and scheme, comparing the workspace-reusing decode path (one
// Scratch — and therefore one core.Workspace — carried across many runs,
// exactly what a campaign worker does) against fresh per-run allocation.
// The two must produce identical Metrics for identical seeds: buffer
// reuse is an optimization, never an observable behavior change.
func TestWorkspaceReuseMatchesFreshAllocation(t *testing.T) {
	eng := NewEngine(Config{Packets: 2})
	seeds := []int64{3, 44}
	if testing.Short() {
		seeds = seeds[:1]
	}
	shared := NewScratch()
	for _, sc := range Scenarios() {
		for _, scheme := range sc.Schemes() {
			for _, seed := range seeds {
				fresh, err := eng.Run(sc, scheme, seed)
				if err != nil {
					t.Fatalf("%s/%s seed %d: fresh run: %v", sc.Name(), scheme, seed, err)
				}
				var reused Metrics
				if err := eng.RunRecording(sc, scheme, seed, &reused, shared); err != nil {
					t.Fatalf("%s/%s seed %d: reusing run: %v", sc.Name(), scheme, seed, err)
				}
				if !reflect.DeepEqual(fresh, reused) {
					t.Errorf("%s/%s seed %d: workspace-reusing metrics diverge from fresh allocation:\nfresh:  %+v\nreused: %+v",
						sc.Name(), scheme, seed, fresh, reused)
				}
			}
		}
	}
}
