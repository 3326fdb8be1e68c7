package opera_test

import (
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"
)

// clusterChurnAllocs measures allocations per flow over admit-run-complete
// round trips through Cluster.AddFlow. Each round admits two 4-packet
// low-latency flows between hosts in different racks — one due at once,
// one arriving 1 µs later through the scheduled-start path — and runs
// both to completion. Rounds are aligned to one revolution of the
// engine's timing wheel (1024 buckets of 1024 ns), so every round meets the
// same wheel phase and the measurement settles.
func clusterChurnAllocs(t *testing.T, retention opera.RetentionPolicy) float64 {
	t.Helper()
	cl, err := opera.New(opera.KindOpera, opera.WithSeed(1), opera.WithRetention(retention))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	const wheelPeriod = eventsim.Time(1) << 20
	n := cl.NumHosts()
	i := 0
	round := func() {
		var flows [2]*sim.Flow
		for k := range flows {
			i++
			src := i % n
			dst := (src + cl.HostsPerRack()*(1+i%3)) % n
			at := cl.Engine().Now() + eventsim.Time(k)*eventsim.Microsecond
			flows[k] = cl.AddFlow(workload.FlowSpec{Src: src, Dst: dst, Bytes: 6000, Arrival: at})
		}
		cl.Run((cl.Engine().Now()/wheelPeriod + 1) * wheelPeriod)
		for _, f := range flows {
			if !f.Done {
				t.Fatalf("flow %d incomplete", f.ID)
			}
		}
	}
	// Warm the pools, tables, telemetry bins, wheel buckets and the
	// rotor schedule's slice state.
	for j := 0; j < 250; j++ {
		round()
	}
	return testing.AllocsPerRun(250, round) / 2
}

// TestAllocsClusterFlowChurn is the cluster-level flow-churn gate (CI's
// fast lane runs it via -run 'TestAllocs'): admitting, running and
// completing one flow through Cluster.AddFlow costs one allocation — the
// *sim.Flow — under both retention policies. The registry and NDP's flow
// tables are dense ID-indexed slices, the start needs no closure, and NDP
// flow state comes from pools (RetainSketch) or from chunks with inline
// bitmaps (RetainAll). The ROADMAP's ceiling is 2 allocs/flow; the gate
// holds the measured 1.
func TestAllocsClusterFlowChurn(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds allocations of its own; allocation counts are gated without -race")
	}
	for _, tc := range []struct {
		name      string
		retention opera.RetentionPolicy
	}{
		{"RetainSketch", opera.RetainSketch(opera.SketchOptions{})},
		{"RetainAll", opera.RetainAll()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if avg := clusterChurnAllocs(t, tc.retention); avg > 1 {
				t.Fatalf("cluster flow churn allocates %.1f/flow, want <= 1", avg)
			}
		})
	}
}
