package sim

import (
	"fmt"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/topology"
)

// RotorNetSim assembles the RotorNet [34] baseline: rotor switches
// reconfigured in unison every slot, RotorLB for bulk, and — in the hybrid
// variant — one ToR uplink diverted to an always-on packet-switched fabric
// for low-latency traffic (+33% cost, §5.1). The non-hybrid variant has no
// packet fabric: all traffic must ride circuits, which is what produces its
// three-orders-of-magnitude latency penalty for short flows (Figure 7c).
//
// Control packets (RotorLB NACKs) in the non-hybrid variant travel an
// out-of-band management channel modelled as a fixed 2 µs delay; their
// volume is negligible and RotorNet assumes such a channel for
// synchronization anyway.
type RotorNetSim struct {
	eng     *eventsim.Engine
	cfg     *Config
	topo    *topology.RotorNet
	hosts   []*Host
	tors    []*RotorToR
	fabric  *hybridFabric
	metrics *Metrics

	// faults tracks runtime failures; see rotornet_faults.go for the
	// instant-global-knowledge model (OOB management channel).
	faults *RotorFaults
	// faultSeed seeds deterministic gray-failure (lossy-link) draws.
	faultSeed int64

	curSlot   int64
	listeners []func(absSlot int64)
	stopped   bool

	// Pre-bound slot-clock and delivery handlers (eventsim.Handler):
	// RotorNet reconfigures all switches in unison, so one blackout handler
	// serves the whole fabric; oob delivers management-channel control
	// packets (the destination rides the packet's in-flight dst field).
	tick     rotorSlotTick
	blackout rotorBlackout
	oob      rotorOOBDeliver
}

type rotorSlotTick struct{ n *RotorNetSim }

func (h *rotorSlotTick) OnEvent(any) { h.n.slotBoundary(h.n.curSlot + 1) }

type rotorBlackout struct{ n *RotorNetSim }

func (h *rotorBlackout) OnEvent(any) {
	for _, tor := range h.n.tors {
		for _, pt := range tor.up {
			pt.SetEnabled(false)
			pt.FlushForReconfig(tor.requeue)
		}
	}
}

type rotorOOBDeliver struct{}

func (rotorOOBDeliver) OnEvent(arg any) {
	p := arg.(*Packet)
	dst := p.dst
	p.dst = nil
	dst.Receive(p, nil)
}

func init() {
	builder := func(hybrid bool) Builder {
		return func(p BuildParams) (Network, error) {
			topo, err := topology.NewRotorNet(topology.RotorConfig{
				NumRacks:     p.Racks,
				HostsPerRack: p.HostsPerRack,
				Uplinks:      p.Uplinks,
				Hybrid:       hybrid,
				Seed:         p.Seed,
			})
			if err != nil {
				return nil, err
			}
			return NewRotorNetSim(p.Engine, p.Sim, topo, p.Seed+1), nil
		}
	}
	Register("rotornet", builder(false))
	Register("rotornet-hybrid", builder(true))
}

// NewRotorNetSim wires a RotorNet fabric. seed drives deterministic
// gray-failure draws (lossy links); topology and scheduling are
// seed-independent.
func NewRotorNetSim(eng *eventsim.Engine, cfg Config, topo *topology.RotorNet, seed int64) *RotorNetSim {
	n := &RotorNetSim{eng: eng, cfg: &cfg, topo: topo, metrics: NewMetrics(), faultSeed: seed}
	d := topo.HostsPerRack
	n.hosts = make([]*Host, topo.NumHosts())
	n.tors = make([]*RotorToR, topo.NumRacks)
	for r := 0; r < topo.NumRacks; r++ {
		n.tors[r] = &RotorToR{net: n, rack: int32(r)}
	}
	if topo.Hybrid {
		n.fabric = &hybridFabric{net: n}
	}
	for h := range n.hosts {
		host := NewHost(eng, n.cfg, int32(h), int32(h/d))
		n.hosts[h] = host
		host.SetNIC(NewPort(eng, n.cfg, fmt.Sprintf("host%d->tor%d", h, host.Rack), n.tors[host.Rack]))
	}
	n.tick.n = n
	n.blackout.n = n
	for r := 0; r < topo.NumRacks; r++ {
		n.tors[r].wire()
	}
	if n.fabric != nil {
		n.fabric.out = make([]*Port, topo.NumRacks)
		for r := 0; r < topo.NumRacks; r++ {
			n.fabric.out[r] = NewPort(eng, n.cfg, fmt.Sprintf("fabric->tor%d", r), n.tors[r])
		}
	}
	return n
}

// Start begins the slot clock.
func (n *RotorNetSim) Start() { n.slotBoundary(0) }

// Stop halts the slot clock after the current slot.
func (n *RotorNetSim) Stop() { n.stopped = true }

// Engine returns the simulation engine.
func (n *RotorNetSim) Engine() *eventsim.Engine { return n.eng }

// Kind implements Network.
func (n *RotorNetSim) Kind() string {
	if n.topo.Hybrid {
		return "rotornet-hybrid"
	}
	return "rotornet"
}

// PacketCapable implements Network: only the hybrid variant diverts an
// uplink to an always-on packet fabric for low-latency traffic (§5.1).
func (n *RotorNetSim) PacketCapable() bool { return n.fabric != nil }

// Config returns the physical constants.
func (n *RotorNetSim) Config() *Config { return n.cfg }

// Metrics returns the metrics collector.
func (n *RotorNetSim) Metrics() *Metrics { return n.metrics }

// Hosts returns all hosts.
func (n *RotorNetSim) Hosts() []*Host { return n.hosts }

// Topology returns the RotorNet schedule.
func (n *RotorNetSim) Topology() *topology.RotorNet { return n.topo }

// ToR returns the ToR switch of the given rack.
func (n *RotorNetSim) ToR(rack int) *RotorToR { return n.tors[rack] }

// NumRacks implements CircuitNetwork.
func (n *RotorNetSim) NumRacks() int { return n.topo.NumRacks }

// HostsPerRack implements CircuitNetwork.
func (n *RotorNetSim) HostsPerRack() int { return n.topo.HostsPerRack }

// SliceDuration implements CircuitNetwork (RotorNet calls it a slot).
func (n *RotorNetSim) SliceDuration() eventsim.Time { return n.topo.SlotDuration }

// PairWindowsPerCycle implements CircuitNetwork: each pair connects for one
// slot per cycle.
func (n *RotorNetSim) PairWindowsPerCycle() int { return 1 }

// DirectReachable implements CircuitNetwork: whether some slot of the
// cycle still installs a working direct circuit between the racks. With
// no failures every distinct pair connects; under faults the pair's
// matching slots are checked against live links, which is what makes
// RotorLB fully offload stranded queues via VLB and decline relaying
// toward unreachable destinations.
func (n *RotorNetSim) DirectReachable(rack, dst int) bool {
	if rack == dst {
		return false
	}
	if n.faults == nil {
		return true
	}
	for slot := 0; slot < n.topo.SlotsPerCycle(); slot++ {
		// The 1-factorization installs at most one switch connecting a
		// pair per slot, so DirectSwitch's first hit is the only one.
		if sw := n.topo.DirectSwitch(slot, rack, dst); sw >= 0 &&
			n.faults.LinkUp(rack, sw) && n.faults.LinkUp(dst, sw) {
			return true
		}
	}
	return false
}

// OnSlice implements CircuitNetwork.
func (n *RotorNetSim) OnSlice(fn func(absSlot int64)) {
	n.listeners = append(n.listeners, fn)
}

// ActiveCircuits implements CircuitNetwork: every switch's current peer
// with the common unison window.
func (n *RotorNetSim) ActiveCircuits(dst []Circuit, absSlot int64, rack int) []Circuit {
	slot := int(absSlot % int64(n.topo.SlotsPerCycle()))
	start, end := n.topo.BulkWindow()
	for sw := 0; sw < n.topo.NumSwitches; sw++ {
		peer := n.topo.SwitchMatching(sw, slot).Peer(rack)
		if peer == rack || end <= start {
			continue
		}
		// Dead circuits are excluded — failure news is global and immediate
		// over the OOB management channel (see rotornet_faults.go).
		if n.faults != nil && (!n.faults.LinkUp(rack, sw) || !n.faults.LinkUp(peer, sw)) {
			continue
		}
		dst = append(dst, Circuit{Switch: sw, Peer: peer, WindowStart: start, WindowEnd: end})
	}
	return dst
}

func (n *RotorNetSim) slotBoundary(s int64) {
	n.curSlot = s
	dur := n.topo.SlotDuration
	r := n.topo.ReconfDelay
	// All rotor ports come up on the new matchings.
	if s > 0 {
		for _, tor := range n.tors {
			for _, pt := range tor.up {
				pt.FlushForReconfig(tor.requeue)
				pt.SetEnabled(true)
			}
		}
	}
	// And all go dark together before the next boundary.
	n.eng.AfterCall(dur-r, &n.blackout, nil)
	for _, fn := range n.listeners {
		fn(s)
	}
	if !n.stopped {
		// The slot clock rides one Event for the whole run (unless a port
		// kicked inside this tick claimed the firing object first).
		n.eng.ContinueCall(dur, &n.tick, nil)
	}
}

// RotorToR is a RotorNet top-of-rack switch.
type RotorToR struct {
	net      *RotorNetSim
	rack     int32
	up       []*Port // rotor uplinks
	fabricUp *Port   // hybrid only
	down     []*Port
	relayRR  int

	// BulkNACKs counts NACKs issued by this ToR.
	BulkNACKs uint64
}

func (t *RotorToR) wire() {
	n := t.net
	topo := n.topo
	d := topo.HostsPerRack
	t.down = make([]*Port, d)
	for i := 0; i < d; i++ {
		host := n.hosts[int(t.rack)*d+i]
		t.down[i] = NewPort(n.eng, n.cfg, fmt.Sprintf("tor%d->host%d", t.rack, host.ID), host)
		t.down[i].SetBulkDropHandler(t.bulkNACK)
	}
	t.up = make([]*Port, topo.NumSwitches)
	for sw := 0; sw < topo.NumSwitches; sw++ {
		sw := sw
		resolve := func(at eventsim.Time) Node {
			slot, _, _ := topo.SlotAt(at)
			peer := topo.SwitchMatching(sw, slot).Peer(int(t.rack))
			if peer == int(t.rack) {
				return nil
			}
			if fs := n.faults; fs != nil && (!fs.LinkUp(int(t.rack), sw) || !fs.LinkUp(peer, sw)) {
				fs.LostToDeadCircuits++
				return nil // failed cable, switch, or ToR: the photons are lost
			}
			return n.tors[peer]
		}
		t.up[sw] = NewDynamicPort(n.eng, n.cfg, fmt.Sprintf("tor%d-rotor%d", t.rack, sw), resolve)
		t.up[sw].SetBulkDropHandler(t.bulkNACK)
	}
	if n.fabric != nil {
		t.fabricUp = NewPort(n.eng, n.cfg, fmt.Sprintf("tor%d->fabric", t.rack), n.fabric)
	}
}

// Uplink returns the port to the given rotor switch.
func (t *RotorToR) Uplink(sw int) *Port { return t.up[sw] }

// Receive implements Node.
func (t *RotorToR) Receive(p *Packet, _ *Port) {
	if p.Kind == KindBulk {
		t.receiveBulk(p)
		return
	}
	if p.DstRack == t.rack {
		t.deliverLocal(p)
		return
	}
	if t.fabricUp != nil {
		p.Hops++
		t.fabricUp.Enqueue(p)
		return
	}
	// Non-hybrid: out-of-band control channel (NACKs only).
	p.dst = t.net.hosts[p.DstHost]
	t.net.eng.AfterCall(2*eventsim.Microsecond, t.net.oob, p)
}

func (t *RotorToR) receiveBulk(p *Packet) {
	if p.RelayRack == t.rack {
		t.down[t.relayRR%len(t.down)].Enqueue(p)
		t.relayRR++
		return
	}
	if p.DstRack == t.rack {
		t.deliverLocal(p)
		return
	}
	target := int(p.DstRack)
	if p.RelayRack >= 0 {
		target = int(p.RelayRack)
	}
	slot, _, _ := t.net.topo.SlotAt(t.net.eng.Now())
	sw := t.net.topo.DirectSwitch(slot, int(t.rack), target)
	if sw < 0 {
		t.bulkNACK(p)
		return
	}
	// Failure knowledge is global and immediate (OOB channel), so unlike
	// Opera — where only the near end is known locally — a ToR declines
	// circuits dead at either end and NACKs instead of transmitting into
	// the dark.
	if fs := t.net.faults; fs != nil && (!fs.LinkUp(int(t.rack), sw) || !fs.LinkUp(target, sw)) {
		t.bulkNACK(p)
		return
	}
	p.Hops++
	t.up[sw].Enqueue(p)
}

func (t *RotorToR) deliverLocal(p *Packet) {
	d := len(t.down)
	idx := int(p.DstHost) - int(t.rack)*d
	if idx < 0 || idx >= d {
		p.Release()
		return
	}
	t.down[idx].Enqueue(p)
}

func (t *RotorToR) bulkNACK(p *Packet) {
	t.BulkNACKs++
	nack := NewPacket()
	nack.Kind = KindBulkNack
	nack.Class = ClassControl
	nack.Size = int32(t.net.cfg.HeaderBytes)
	nack.SrcHost = p.DstHost
	nack.SrcRack = p.DstRack
	nack.DstHost = p.SrcHost
	nack.DstRack = p.SrcRack
	nack.FlowID = p.FlowID
	nack.Seq = p.Seq
	nack.PayloadSize = p.PayloadSize
	nack.PullNo = p.DstRack
	nack.RelayRack = p.RelayRack
	nack.OrigHops = p.Hops
	p.Release()
	t.Receive(nack, nil)
}

func (t *RotorToR) requeue(p *Packet) {
	p.SliceTag = -1
	t.Receive(p, nil)
}

// hybridFabric models the hybrid variant's packet-switched core as a
// non-blocking switch with a 10 Gb/s port per ToR — an optimistic stand-in
// for the multi-stage network the paper charges +33% cost for.
type hybridFabric struct {
	net *RotorNetSim
	out []*Port
}

// Receive implements Node.
func (f *hybridFabric) Receive(p *Packet, _ *Port) {
	f.out[p.DstRack].Enqueue(p)
}
