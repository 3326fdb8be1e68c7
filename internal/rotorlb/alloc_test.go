package rotorlb

import (
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/topology"
)

// TestAllocsBulkIdleSlice gates RotorLB's per-slice bookkeeping: with no
// bulk traffic, a slice boundary still opens one session per active circuit
// in every rack, and that must reuse the agent's budget and circuit buffers
// and pooled sessions — 0 allocations per slice in steady state.
func TestAllocsBulkIdleSlice(t *testing.T) {
	topo, err := topology.NewOpera(topology.Config{NumRacks: 16, HostsPerRack: 4, NumSwitches: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := eventsim.New()
	net := sim.NewOperaNet(eng, sim.DefaultConfig(), topo, 7)
	Attach(net, DefaultParams(), make(map[int64]*sim.Flow))
	net.Start()
	slice := topo.SliceDuration()
	eng.RunFor(eventsim.Time(topo.SlicesPerCycle()) * slice) // warm pools and buffers
	if avg := testing.AllocsPerRun(20, func() { eng.RunFor(slice) }); avg != 0 {
		t.Fatalf("bulk-idle slice allocates %.1f/op, want 0", avg)
	}
}
