package rotorlb

import (
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/idtable"
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
	Attach(net, DefaultParams(), &idtable.Table[sim.Flow]{})
	net.Start()
	slice := topo.SliceDuration()
	eng.RunFor(eventsim.Time(topo.SlicesPerCycle()) * slice) // warm pools and buffers
	if avg := testing.AllocsPerRun(20, func() { eng.RunFor(slice) }); avg != 0 {
		t.Fatalf("bulk-idle slice allocates %.1f/op, want 0", avg)
	}
}

// TestAllocsNackRequeue gates the §4.2.2 requeue path: a bulk NACK resolves
// its flow in the registry and pushes the bytes back onto the head of the
// sender's queue. In steady state the queue shifts in place, so a requeue
// allocates nothing.
func TestAllocsNackRequeue(t *testing.T) {
	topo, err := topology.NewOpera(topology.Config{NumRacks: 16, HostsPerRack: 4, NumSwitches: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net := sim.NewOperaNet(eventsim.New(), sim.DefaultConfig(), topo, 7)
	registry := &idtable.Table[sim.Flow]{}
	lb := Attach(net, DefaultParams(), registry)
	f := &sim.Flow{ID: 1, SrcHost: 0, DstHost: 20, SrcRack: 0, DstRack: 5, Size: 1 << 20}
	registry.Put(f.ID, f)
	lb.StartFlow(f)
	h := net.Hosts()[0]
	q := &lb.Agent(0).voq[5]
	requeue := func() {
		c, ok := q.carve(1500)
		if !ok {
			t.Fatal("queue empty")
		}
		p := sim.NewPacket()
		p.Kind = sim.KindBulkNack
		p.FlowID = f.ID
		p.PullNo = 5 // final destination rack
		p.PayloadSize = int32(c.bytes)
		p.OrigHops = 1
		lb.onNack(h, p)
	}
	for i := 0; i < 16; i++ {
		requeue()
	}
	if avg := testing.AllocsPerRun(100, requeue); avg != 0 {
		t.Fatalf("NACK requeue allocates %.1f/op, want 0", avg)
	}
	if q.bytes != f.Size || lb.NACKs != 117 {
		t.Fatalf("queue holds %d B after %d NACKs, want %d B", q.bytes, lb.NACKs, f.Size)
	}
}
