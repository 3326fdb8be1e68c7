package ndp

import (
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/idtable"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/telemetry"
)

// miniSwitch is a single-output bottleneck: every packet goes out one port
// toward its destination host. It models an output-queued switch port so
// NDP's trimming and incast behaviour can be tested in isolation.
type miniSwitch struct {
	ports map[int32]*sim.Port // per destination host
}

func (s *miniSwitch) Receive(p *sim.Packet, _ *sim.Port) {
	pt := s.ports[p.DstHost]
	if pt == nil {
		p.Release()
		return
	}
	pt.Enqueue(p)
}

// rig builds n hosts all attached to one switch with per-host output
// ports, NDP everywhere.
type rig struct {
	eng      *eventsim.Engine
	cfg      sim.Config
	hosts    []*sim.Host
	sw       *miniSwitch
	metrics  *sim.Metrics
	eps      []*Endpoint
	registry *idtable.Table[sim.Flow]
}

func newRig(t *testing.T, n int, cfg sim.Config) *rig {
	t.Helper()
	r := &rig{
		eng:      eventsim.New(),
		cfg:      cfg,
		metrics:  sim.NewMetrics(),
		registry: &idtable.Table[sim.Flow]{},
	}
	r.sw = &miniSwitch{ports: make(map[int32]*sim.Port)}
	for i := 0; i < n; i++ {
		h := sim.NewHost(r.eng, &r.cfg, int32(i), 0)
		h.SetNIC(sim.NewPort(r.eng, &r.cfg, "up", r.sw))
		r.sw.ports[int32(i)] = sim.NewPort(r.eng, &r.cfg, "down", h)
		r.hosts = append(r.hosts, h)
	}
	r.eps = Attach(r.hosts, r.metrics, DefaultParams(), r.registry)
	return r
}

func (r *rig) flow(id int64, src, dst int, size int64) *sim.Flow {
	f := &sim.Flow{ID: id, SrcHost: int32(src), DstHost: int32(dst), Size: size,
		Class: sim.ClassLowLatency}
	r.registry.Put(id, f)
	r.metrics.AddFlow(f)
	return f
}

func TestSingleFlowCompletes(t *testing.T) {
	r := newRig(t, 2, sim.DefaultConfig())
	f := r.flow(1, 0, 1, 15000) // 10 packets
	r.eps[0].StartFlow(f)
	r.eng.RunUntil(10 * eventsim.Millisecond)
	if !f.Done {
		t.Fatalf("flow incomplete: %d/%d", f.BytesRcvd, f.Size)
	}
	// 10 packets over 2 serializations: ≥ 10 × 1.2 µs; the pull-paced tail
	// adds a little. Must be well under 100 µs on an idle path.
	if fct := f.FCT(); fct < 12*eventsim.Microsecond || fct > 100*eventsim.Microsecond {
		t.Fatalf("FCT = %v", fct)
	}
	if f.Retransmits != 0 {
		t.Fatalf("retransmits on clean path: %d", f.Retransmits)
	}
}

func TestTinyFlowSinglePacket(t *testing.T) {
	r := newRig(t, 2, sim.DefaultConfig())
	f := r.flow(1, 0, 1, 64)
	r.eps[0].StartFlow(f)
	r.eng.RunUntil(1 * eventsim.Millisecond)
	if !f.Done {
		t.Fatal("single-packet flow incomplete")
	}
}

func TestIncastTrimsAndCompletes(t *testing.T) {
	// 8 senders blast one receiver: initial windows overflow the 12 KB
	// data queue, headers survive, NACKs trigger retransmits, PULL pacing
	// drains everything at line rate.
	r := newRig(t, 9, sim.DefaultConfig())
	var flows []*sim.Flow
	for i := 1; i <= 8; i++ {
		f := r.flow(int64(i), i, 0, 45000) // 30 packets each
		flows = append(flows, f)
	}
	for i, f := range flows {
		_ = i
		r.eps[f.SrcHost].StartFlow(f)
	}
	r.eng.RunUntil(50 * eventsim.Millisecond)
	var retrans int
	for _, f := range flows {
		if !f.Done {
			t.Fatalf("incast flow %d incomplete (%d/%d)", f.ID, f.BytesRcvd, f.Size)
		}
		retrans += f.Retransmits
	}
	if retrans == 0 {
		t.Fatal("incast should have trimmed and retransmitted")
	}
	// Total 240 packets ≈ 360 KB at 10 Gb/s ≈ 288 µs minimum through the
	// single downlink; completion should be within a small factor.
	for _, f := range flows {
		if f.FCT() > 2*eventsim.Millisecond {
			t.Fatalf("flow %d FCT %v too slow", f.ID, f.FCT())
		}
	}
}

func TestHeaderLossRecoveredByRTO(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.DataQueueBytes = 3000  // trims quickly
	cfg.HeaderQueueBytes = 128 // and drops most headers
	r := newRig(t, 3, cfg)
	f1 := r.flow(1, 1, 0, 30000)
	f2 := r.flow(2, 2, 0, 30000)
	r.eps[1].StartFlow(f1)
	r.eps[2].StartFlow(f2)
	r.eng.RunUntil(100 * eventsim.Millisecond)
	if !f1.Done || !f2.Done {
		t.Fatalf("flows incomplete despite RTO: %v/%v", f1.Done, f2.Done)
	}
}

func TestReceiverCompletionTimeIsUsed(t *testing.T) {
	r := newRig(t, 2, sim.DefaultConfig())
	f := r.flow(1, 0, 1, 1500)
	r.eps[0].StartFlow(f)
	r.eng.RunUntil(1 * eventsim.Millisecond)
	// End must be after Start by at least two serializations + two props.
	min := 2*r.cfg.SerializationDelay(1500) + 2*r.cfg.PropDelay
	if f.End-f.Start < min {
		t.Fatalf("FCT %v below physical minimum %v", f.End-f.Start, min)
	}
}

func TestStartFlowWrongHostPanics(t *testing.T) {
	r := newRig(t, 2, sim.DefaultConfig())
	f := r.flow(1, 0, 1, 1500)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong-host StartFlow")
		}
	}()
	r.eps[1].StartFlow(f)
}

func TestBulkClassFlowOverNDP(t *testing.T) {
	// Static networks carry bulk-class flows over NDP: they ride the bulk
	// queue but must still complete via trimming.
	r := newRig(t, 2, sim.DefaultConfig())
	f := r.flow(1, 0, 1, 150000)
	f.Class = sim.ClassBulk
	r.eps[0].StartFlow(f)
	r.eng.RunUntil(10 * eventsim.Millisecond)
	if !f.Done {
		t.Fatal("bulk-class NDP flow incomplete")
	}
}

// streamingRig is newRig under RetainSketch with the registry release hook
// the cluster installs: completed flows drop their registry entry, so
// NDP's straggler re-ACK path (recvState == nil) becomes reachable.
func streamingRig(t *testing.T, n int, cfg sim.Config) *rig {
	t.Helper()
	r := newRig(t, n, cfg)
	r.metrics.SetRetention(sim.RetainSketch(telemetry.Opts{}))
	r.metrics.ReleaseHook(func(f *sim.Flow) { r.registry.Delete(f.ID) })
	return r
}

// TestAllocsFlowChurn is the flow-state pooling gate (CI fast lane runs it
// via -run 'TestAllocs'): one NDP flow setup/teardown round trip under
// streaming retention must cost at most 2 allocations — the *sim.Flow
// itself plus slack — because sendFlow, recvFlow, both bitmaps, the RTO
// timer and every event come from pools.
func TestAllocsFlowChurn(t *testing.T) {
	r := streamingRig(t, 2, sim.DefaultConfig())
	id := int64(0)
	// One full revolution of the engine's timing wheel (1024 buckets of
	// 1024 ns). Rounds are aligned to it so each round maps onto the same
	// wheel buckets at the same phase; otherwise phase drift between
	// rounds keeps discovering new per-bucket high-water marks and the
	// wheel's (amortized, bounded) capacity warmup never settles within
	// the measurement window. The gate targets flow-state pooling, not
	// bucket warmup.
	const wheelPeriod = eventsim.Time(1) << 20
	round := func() {
		id++
		f := r.flow(id, 0, 1, 6000) // 4 packets: inside the initial window
		r.eps[0].StartFlow(f)
		r.eng.Run()
		if !f.Done {
			t.Fatalf("flow %d incomplete", id)
		}
		r.eng.RunUntil((r.eng.Now()/wheelPeriod + 1) * wheelPeriod)
	}
	// Warm the pools, map buckets, telemetry bins and wheel buckets.
	for i := 0; i < 64; i++ {
		round()
	}
	avg := testing.AllocsPerRun(100, round)
	if avg > 2 {
		t.Fatalf("flow churn allocates %.1f/round-trip, want <= 2", avg)
	}
}

// A released recvFlow recycled into a different flow must serve that flow
// correctly, and a straggler data packet of the released flow must still
// get its re-ACK (from the packet's own header) without touching the
// recycled state.
func TestStragglerReACKWithPooledRecvFlow(t *testing.T) {
	r := streamingRig(t, 2, sim.DefaultConfig())
	fA := r.flow(1, 0, 1, 6000)
	r.eps[0].StartFlow(fA)
	r.eng.Run()
	if !fA.Done {
		t.Fatal("flow A incomplete")
	}
	ep1 := r.eps[1]
	if ep1.recvFlows.Len() != 0 || r.registry.Get(1) != nil {
		t.Fatal("streaming retention did not release flow A's receiver state")
	}
	// The released recvFlow is in the pool; flow B must draw it back out.
	pooled := ep1.pools.recv.Get()
	if pooled == nil {
		t.Fatal("flow A's recvFlow was not pooled")
	}
	ep1.pools.recv.Put(pooled)

	fB := r.flow(2, 0, 1, 30000) // 20 packets: still in flight below
	r.eps[0].StartFlow(fB)
	r.eng.RunUntil(r.eng.Now() + 5*eventsim.Microsecond)
	if got := ep1.recvFlows.Get(2); got != pooled {
		t.Fatalf("flow B's recvFlow = %p, want the pooled object %p", got, pooled)
	}

	// Straggler: a duplicate data packet of released flow A arrives while B
	// is in flight. The receiver must re-ACK it from header state alone.
	p := sim.NewPacket()
	p.Kind = sim.KindData
	p.Class = sim.ClassLowLatency
	p.SrcHost, p.DstHost = 0, 1
	p.Size, p.PayloadSize = 1500, 1500
	p.FlowID = 1
	p.Seq = 2
	ep1.handle(p)
	r.eng.Run()
	if !fB.Done || fB.BytesRcvd != fB.Size {
		t.Fatalf("flow B corrupted by straggler: done=%v rcvd=%d/%d", fB.Done, fB.BytesRcvd, fB.Size)
	}
	if ep1.recvFlows.Len() != 0 {
		t.Fatal("flow B's state not released after completion")
	}
}

// A sender that lost every ACK of an already-delivered flow (receiver state
// released and possibly recycled) must converge through the streaming
// re-ACK path: each retransmitted packet is ACKed from its header, and the
// sender's state reaches done and returns to the pool.
func TestStragglerRetransmitConvergesAfterRelease(t *testing.T) {
	r := streamingRig(t, 2, sim.DefaultConfig())
	fA := r.flow(1, 0, 1, 6000)
	r.eps[0].StartFlow(fA)
	r.eng.Run()
	if !fA.Done {
		t.Fatal("flow A incomplete")
	}
	ep0 := r.eps[0]
	if ep0.sendFlows.Len() != 0 {
		t.Fatal("sender state not released after full ACK")
	}
	// The sender restarts the whole flow, as if no ACK had ever arrived.
	// The receiver no longer knows the flow (registry pruned) and must
	// re-ACK every packet from headers; the sender must converge to done.
	r.eps[0].StartFlow(fA)
	if ep0.sendFlows.Len() != 1 {
		t.Fatal("restart did not create sender state")
	}
	r.eng.RunUntil(r.eng.Now() + 50*eventsim.Millisecond)
	if ep0.sendFlows.Len() != 0 {
		t.Fatal("sender did not converge via straggler re-ACKs")
	}
	if ep0.pools.send.Len() == 0 {
		t.Fatal("converged sender state did not return to the pool")
	}
}
