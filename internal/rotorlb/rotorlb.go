// Package rotorlb implements the RotorLB bulk transport from RotorNet [34]
// as extended by Opera (§4.2.2): end hosts buffer bulk traffic in
// per-destination-rack virtual output queues and transmit — when polled in
// sync with the circuit schedule — over direct one-hop circuits, falling
// back to two-hop Valiant load balancing when traffic is skewed and spare
// circuit capacity exists elsewhere. Opera's contribution, the NACK
// mechanism for bulk packets stranded at a ToR when its circuit
// reconfigures, is implemented via the simulator's port-flush path feeding
// KindBulkNack packets back to senders, which requeue the bytes.
//
// Service order within a circuit's transmission window follows RotorNet's
// RotorLB: (1) stored non-local (relayed) traffic, (2) local direct
// traffic, (3) freshly admitted two-hop traffic negotiated by an
// offer/accept exchange at slice start.
package rotorlb

import (
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/freelist"
	"github.com/opera-net/opera/internal/idtable"
	"github.com/opera-net/opera/internal/sim"
)

// Params tunes RotorLB.
type Params struct {
	// RelayBufferBytes caps the relayed (VLB) bytes a rack will store.
	RelayBufferBytes int64
	// VLBThresholdBytes: a destination queue longer than this is eligible
	// for two-hop offloading (it exceeds what one direct window carries,
	// i.e. the traffic is skewed relative to the direct-circuit capacity).
	// Zero derives one slice window's worth.
	VLBThresholdBytes int64
	// DisableVLB turns two-hop offloading off (for ablations).
	DisableVLB bool
	// StartMargin delays the first transmission after a slice boundary to
	// cover host-to-ToR latency (grant propagation).
	StartMargin eventsim.Time
}

// DefaultParams returns evaluation defaults.
func DefaultParams() Params {
	return Params{
		RelayBufferBytes: 8 << 20,
		StartMargin:      2 * eventsim.Microsecond,
	}
}

// segment is a run of contiguous flow bytes awaiting transmission, resident
// at a specific host (the flow's origin, or the storage host for relayed
// bytes).
type segment struct {
	f     *sim.Flow
	host  int32 // host holding the bytes
	bytes int64
	hops  int8 // ToR-to-ToR hops already incurred (VLB first leg)
}

// segQueue is a FIFO of segments with byte accounting.
type segQueue struct {
	segs  []segment
	bytes int64
}

func (q *segQueue) push(s segment) {
	q.segs = append(q.segs, s)
	q.bytes += s.bytes
}

// pushFront requeues s at the head. It shifts the queue in place, growing
// the backing array only when it is full, so a requeue allocates nothing in
// steady state.
func (q *segQueue) pushFront(s segment) {
	q.segs = append(q.segs, segment{})
	copy(q.segs[1:], q.segs)
	q.segs[0] = s
	q.bytes += s.bytes
}

// peekHost returns the host holding the queue's head bytes.
func (q *segQueue) peekHost() (int32, bool) {
	for len(q.segs) > 0 && q.segs[0].bytes == 0 {
		q.segs = q.segs[1:]
	}
	if len(q.segs) == 0 {
		return -1, false
	}
	return q.segs[0].host, true
}

// carve removes up to maxBytes from the queue head, returning the chunk.
func (q *segQueue) carve(maxBytes int64) (segment, bool) {
	return q.carveReady(maxBytes, nil)
}

// carveReady removes up to maxBytes from the first segment whose host
// satisfies ready (nil = any). Skipping busy hosts models the ToR polling
// whichever host has transmittable data for this circuit (§3.5) — without
// it, concurrent sessions head-of-line block on each other's hosts while
// other NICs idle. The scan is bounded to keep service near-FIFO.
func (q *segQueue) carveReady(maxBytes int64, ready func(host int32) bool) (segment, bool) {
	const scanLimit = 16
	scanned := 0
	for i := 0; i < len(q.segs); i++ {
		seg := &q.segs[i]
		if seg.bytes == 0 {
			continue
		}
		if ready != nil && !ready(seg.host) {
			if scanned++; scanned >= scanLimit {
				return segment{}, false
			}
			continue
		}
		n := seg.bytes
		if n > maxBytes {
			n = maxBytes
		}
		out := segment{f: seg.f, host: seg.host, bytes: n, hops: seg.hops}
		seg.bytes -= n
		q.bytes -= n
		if seg.bytes == 0 {
			q.segs = append(q.segs[:i], q.segs[i+1:]...)
		}
		return out, true
	}
	return segment{}, false
}

func (q *segQueue) empty() bool { return q.bytes == 0 }

// LB is the cluster-wide RotorLB instance: one rack agent per ToR plus the
// shared flow registry.
type LB struct {
	net      sim.CircuitNetwork
	params   Params
	registry *idtable.Table[sim.Flow]
	agents   []*rackAgent

	// sessions pools closed circuit sessions for the next slice.
	sessions freelist.Pool[session]

	// NACKs counts requeue events observed by senders.
	NACKs uint64
}

// LB admits bulk flows directly: it is the cluster-wide Transport for the
// bulk service class on circuit fabrics.
var _ sim.Transport = (*LB)(nil)

// Attach installs RotorLB on the network: host handlers for bulk delivery
// and NACKs, and a slice listener that opens transmission sessions. Call
// before installing NDP (NDP chains unknown packets back here).
func Attach(net sim.CircuitNetwork, params Params, registry *idtable.Table[sim.Flow]) *LB {
	lb := &LB{net: net, params: params, registry: registry}
	if lb.params.VLBThresholdBytes == 0 {
		// One cycle's worth of direct drainage for a rack pair: a shorter
		// queue will clear on its own circuits, so indirecting it would
		// pay a 100% tax for nothing.
		w := net.Config().BytesIn(net.SliceDuration())
		lb.params.VLBThresholdBytes = int64(w) * int64(net.PairWindowsPerCycle())
	}
	n := net.NumRacks()
	lb.agents = make([]*rackAgent, n)
	for r := 0; r < n; r++ {
		lb.agents[r] = newRackAgent(lb, r)
	}
	for _, h := range net.Hosts() {
		h := h
		prev := h.Handler
		h.Handler = func(p *sim.Packet) {
			switch p.Kind {
			case sim.KindBulk:
				lb.onBulk(h, p)
			case sim.KindBulkNack:
				lb.onNack(h, p)
			default:
				if prev != nil {
					prev(p)
					return
				}
				p.Release()
			}
		}
		// A bulk packet squeezed out of the host's own NIC (low-latency
		// traffic monopolized the link) never left the host: requeue the
		// bytes locally instead of losing them.
		h.NIC().SetBulkDropHandler(func(p *sim.Packet) { lb.requeueLocal(h, p) })
	}
	net.OnSlice(lb.onSlice)
	return lb
}

// requeueLocal returns a bulk packet that never left its host to the
// appropriate queue.
func (lb *LB) requeueLocal(h *sim.Host, p *sim.Packet) {
	f := lb.registry.Get(p.FlowID)
	if f == nil {
		p.Release()
		return
	}
	a := lb.agents[h.Rack]
	seg := segment{f: f, host: h.ID, bytes: int64(p.PayloadSize), hops: p.Hops}
	switch {
	case p.RelayRack >= 0:
		seg.hops = 0
		a.voq[p.DstRack].pushFront(seg)
	case f.SrcHost == h.ID:
		a.voq[p.DstRack].pushFront(seg)
	default:
		a.relay[p.DstRack].pushFront(seg)
		a.relayTotal += seg.bytes
	}
	p.Release()
}

// Agent returns the rack agent (exported for tests and metrics).
func (lb *LB) Agent(rack int) *rackAgent { return lb.agents[rack] }

// StartFlow admits a bulk flow at its source host's rack agent.
func (lb *LB) StartFlow(f *sim.Flow) {
	f.Start = lb.net.Engine().Now()
	a := lb.agents[f.SrcRack]
	if f.DstRack == f.SrcRack {
		a.sendLocal(f)
		return
	}
	a.voq[f.DstRack].push(segment{f: f, host: f.SrcHost, bytes: f.Size})
}

// QueuedBytes returns the bulk backlog (own + relayed) across all racks.
func (lb *LB) QueuedBytes() int64 {
	var total int64
	for _, a := range lb.agents {
		for r := range a.voq {
			total += a.voq[r].bytes + a.relay[r].bytes
		}
	}
	return total
}

// StrandedBytes returns VLB bytes parked at relay racks that cannot
// currently reach the bytes' final destination over any direct circuit.
// This surfaces a known model gap under failures: RotorLB never
// re-offloads stored relay traffic to a third rack (§4.2.2 covers only
// first-leg offload), so when a relay's second leg dies the bytes wait
// at the relay until the destination becomes directly reachable again.
// Zero in a fault-free fabric, where every rack cycles through direct
// circuits to every other rack.
func (lb *LB) StrandedBytes() int64 {
	var total int64
	for rack, a := range lb.agents {
		for dst := range a.relay {
			if a.relay[dst].bytes > 0 && !lb.net.DirectReachable(rack, dst) {
				total += a.relay[dst].bytes
			}
		}
	}
	return total
}

func (lb *LB) onSlice(abs int64) {
	for _, a := range lb.agents {
		a.openSessions(abs)
	}
}

// onBulk handles a bulk packet delivered to a host: final delivery or VLB
// storage.
func (lb *LB) onBulk(h *sim.Host, p *sim.Packet) {
	f := lb.registry.Get(p.FlowID)
	if f == nil {
		p.Release()
		return
	}
	if p.DstRack == h.Rack && p.DstHost == h.ID {
		m := lb.net.Metrics()
		m.RecordDelivery(f, int(p.PayloadSize), int(p.Hops), lb.net.Engine().Now())
		if f.BytesRcvd >= f.Size {
			m.FlowDone(f, lb.net.Engine().Now())
		}
		p.Release()
		return
	}
	// VLB storage at the relay rack.
	a := lb.agents[h.Rack]
	a.relay[p.DstRack].push(segment{f: f, host: h.ID, bytes: int64(p.PayloadSize), hops: p.Hops})
	a.relayTotal += int64(p.PayloadSize)
	p.Release()
}

// onNack requeues bytes reported lost by a ToR (§4.2.2). The NACK arrives
// at the host that transmitted the failed packet.
func (lb *LB) onNack(h *sim.Host, p *sim.Packet) {
	f := lb.registry.Get(p.FlowID)
	if f == nil {
		p.Release()
		return
	}
	lb.NACKs++
	f.Retransmits++
	a := lb.agents[h.Rack]
	finalDst := p.PullNo
	// OrigHops includes the uplink the packet was enqueued on but never
	// crossed; requeue with one hop less.
	hops := p.OrigHops - 1
	if hops < 0 {
		hops = 0
	}
	seg := segment{f: f, host: h.ID, bytes: int64(p.PayloadSize), hops: hops}
	switch {
	case p.RelayRack >= 0:
		// Failed VLB first leg: revert to the origin queue; the direct path
		// or a later offer will carry it.
		seg.hops = 0
		a.voq[finalDst].pushFront(seg)
	case f.SrcHost == h.ID:
		a.voq[finalDst].pushFront(seg)
	default:
		// Failed second leg from a storage host.
		a.relay[finalDst].pushFront(seg)
		a.relayTotal += seg.bytes
	}
	p.Release()
}
