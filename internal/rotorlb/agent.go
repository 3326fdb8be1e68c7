package rotorlb

import (
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
)

// rackAgent coordinates the bulk traffic of one rack: it owns the rack's
// virtual output queues, negotiates VLB offers with peer racks, and paces
// polled host transmissions into each circuit's window (§3.5: "end hosts
// transmit when polled by their attached ToR").
type rackAgent struct {
	lb   *LB
	rack int

	voq   []segQueue // own traffic, by final destination rack
	relay []segQueue // stored VLB traffic, by final destination rack

	relayTotal int64

	// nicFree models when each local host's NIC drains its granted bulk,
	// so concurrent circuit sessions do not over-commit one host's uplink
	// (the ToR "polls" only hosts that can actually transmit, §3.5).
	// Like vlbBudget, it is indexed by host ID minus firstHost, the rack's
	// first host.
	nicFree []eventsim.Time

	// vlbBudget caps, per slice, how many VLB bytes may be carved from
	// each host — a host can physically transmit only one window's worth,
	// so offering more would strand carved bytes until the window closes.
	vlbBudget []int64
	firstHost int32

	// circuits is the buffer ActiveCircuits refills every slice.
	circuits []sim.Circuit

	// SentDirect/SentRelay/SentVLB count bytes launched per path type.
	SentDirect, SentRelay, SentVLB uint64
}

func newRackAgent(lb *LB, rack int) *rackAgent {
	n, hosts := lb.net.NumRacks(), lb.net.HostsPerRack()
	return &rackAgent{
		lb:        lb,
		rack:      rack,
		voq:       make([]segQueue, n),
		relay:     make([]segQueue, n),
		nicFree:   make([]eventsim.Time, hosts),
		vlbBudget: make([]int64, hosts),
		firstHost: int32(rack * hosts),
	}
}

// hostReady reports whether host h's NIC backlog is shallow enough to grant
// another packet without risking queue overflow.
func (a *rackAgent) hostReady(h int32, now, txTime eventsim.Time) bool {
	return a.nicFree[h-a.firstHost] <= now+4*txTime
}

// grantTo accounts one packet of granted NIC time at host h.
func (a *rackAgent) grantTo(h int32, now, txTime eventsim.Time) {
	a.nicFree[h-a.firstHost] = max(a.nicFree[h-a.firstHost], now) + txTime
}

// QueuedFor returns (own, relayed) bytes queued toward dst.
func (a *rackAgent) QueuedFor(dst int) (own, relayed int64) {
	return a.voq[dst].bytes, a.relay[dst].bytes
}

// openSessions starts one paced transmission session per active circuit at
// a slice boundary, after the offer/accept exchange for VLB admission. The
// budget, circuit buffer and sessions are reused, so a slice without bulk
// traffic allocates nothing.
func (a *rackAgent) openSessions(abs int64) {
	net := a.lb.net
	a.circuits = net.ActiveCircuits(a.circuits[:0], abs, a.rack)
	now := net.Engine().Now()
	sliceBytes := int64(net.Config().BytesIn(net.SliceDuration()))
	for i := range a.vlbBudget {
		a.vlbBudget[i] = sliceBytes
	}
	for _, c := range a.circuits {
		sess := a.lb.sessions.Get()
		if sess == nil {
			sess = new(session)
		}
		sess.agent, sess.circuit, sess.deadline = a, c, now+c.WindowEnd
		windowBytes := int64(net.Config().BytesIn(c.WindowEnd - c.WindowStart))
		// VLB offer/accept (§3.4, RotorLB phase 3): if this circuit's
		// direct demand leaves spare capacity and other queues are skewed,
		// ask the peer to relay. The exchange is modelled as in-band
		// control at slice start with negligible size.
		if !a.lb.params.DisableVLB {
			spare := windowBytes - a.relay[c.Peer].bytes - a.voq[c.Peer].bytes
			if spare > int64(net.Config().MTU) {
				a.negotiateVLB(c.Peer, spare, &sess.vlbQ)
			}
		}
		startAt := c.WindowStart + a.lb.params.StartMargin
		net.Engine().AfterCall(startAt, sess, nil)
	}
}

// negotiateVLB proposes two-hop traffic to the peer rack and moves accepted
// bytes into the session's VLB queue.
func (a *rackAgent) negotiateVLB(peer int, spare int64, vlbQ *segQueue) {
	peerAgent := a.lb.agents[peer]
	net := a.lb.net
	for dst := range a.voq {
		if spare <= 0 {
			return
		}
		if dst == peer || dst == a.rack {
			continue
		}
		q := &a.voq[dst]
		threshold := a.lb.params.VLBThresholdBytes
		if !net.DirectReachable(a.rack, dst) {
			// Failures severed this pair's direct matching: no direct
			// window will ever drain the queue, so offload all of it
			// (§3.6.2 rerouting) — provided the relay can deliver.
			threshold = 0
		}
		if q.bytes <= threshold {
			continue // not skewed enough to pay the 2-hop tax
		}
		if !net.DirectReachable(peer, dst) {
			continue // the relay itself could never deliver: decline
		}
		// Offer the excess over what the direct circuit will drain.
		offer := q.bytes - threshold
		if offer > spare {
			offer = spare
		}
		granted := peerAgent.acceptVLB(offer)
		for granted > 0 {
			h, nonEmpty := q.peekHost()
			if !nonEmpty {
				break
			}
			budget := a.vlbBudget[h-a.firstHost]
			if budget <= 0 {
				break // this host cannot physically send more this slice
			}
			limit := granted
			if budget < limit {
				limit = budget
			}
			seg, ok := q.carve(limit)
			if !ok {
				break
			}
			vlbQ.push(seg)
			a.vlbBudget[h-a.firstHost] -= seg.bytes
			granted -= seg.bytes
			spare -= seg.bytes
		}
	}
}

// acceptVLB grants relay admission bounded by this rack's relay buffer.
func (a *rackAgent) acceptVLB(offer int64) int64 {
	space := a.lb.params.RelayBufferBytes - a.relayTotal
	if space <= 0 {
		return 0
	}
	if offer > space {
		offer = space
	}
	return offer
}

// sendLocal transmits a rack-local bulk flow straight through the ToR,
// self-paced at the NIC rate. The pacer is one localSender allocated per
// local flow; its per-packet rescheduling uses the pooled closure-free
// engine path.
func (a *rackAgent) sendLocal(f *sim.Flow) {
	(&localSender{a: a, f: f}).OnEvent(nil)
}

// localSender paces one rack-local flow, one MTU per serialization time.
type localSender struct {
	a    *rackAgent
	f    *sim.Flow
	sent int64
}

// OnEvent implements eventsim.Handler: emit the next chunk and reschedule.
func (s *localSender) OnEvent(any) {
	if s.sent >= s.f.Size {
		return
	}
	net := s.a.lb.net
	cfg := net.Config()
	n := int64(cfg.MTU)
	if s.f.Size-s.sent < n {
		n = s.f.Size - s.sent
	}
	p := s.a.newBulkPacket(segment{f: s.f, host: s.f.SrcHost, bytes: n}, -1)
	net.Hosts()[s.f.SrcHost].Send(p)
	s.sent += n
	// ContinueCall: the pump rides its own just-fired event to the next chunk.
	net.Engine().ContinueCall(cfg.SerializationDelay(int(n)), s, nil)
}

// session paces one circuit's transmissions across its window. It is its
// own eventsim.Handler, so the one-event-per-packet pump loop schedules
// without closures.
type session struct {
	agent    *rackAgent
	circuit  sim.Circuit
	deadline eventsim.Time
	vlbQ     segQueue
}

// OnEvent implements eventsim.Handler.
func (s *session) OnEvent(any) { s.pump() }

// pump emits one MTU-sized bulk packet per MTU serialization time until
// the window closes or all eligible queues drain. Service order follows
// RotorLB: stored relay traffic, then own direct, then admitted VLB.
func (s *session) pump() {
	a := s.agent
	net := a.lb.net
	cfg := net.Config()
	now := net.Engine().Now()
	txTime := cfg.SerializationDelay(cfg.MTU)
	// Stop early enough for the packet to clear the host NIC (which
	// hostReady lets run up to ~4 packets deep), serialize at the ToR and
	// propagate before the blackout.
	if now+7*txTime+2*cfg.PropDelay > s.deadline {
		s.close()
		return
	}
	mtu := int64(cfg.MTU)
	var seg segment
	var ok bool
	relayLeg := false
	vlb := false
	blocked := false
	ready := func(h int32) bool { return a.hostReady(h, now, txTime) }
	// Service order: stored relay, own direct, admitted VLB — carving from
	// the first segment whose host can transmit (the ToR polls whichever
	// host has data for this circuit, §3.5).
	if seg, ok = a.relay[s.circuit.Peer].carveReady(mtu, ready); ok {
		relayLeg = true
		a.relayTotal -= seg.bytes
	} else if !a.relay[s.circuit.Peer].empty() {
		blocked = true
	}
	if !ok {
		if seg, ok = a.voq[s.circuit.Peer].carveReady(mtu, ready); !ok && !a.voq[s.circuit.Peer].empty() {
			blocked = true
		}
	}
	if !ok {
		if seg, ok = s.vlbQ.carveReady(mtu, ready); ok {
			vlb = true
		} else if !s.vlbQ.empty() {
			blocked = true
		}
	}
	if !ok {
		// Nothing grantable right now. If a queue was merely blocked on
		// busy NICs, retry soon; otherwise poll for new arrivals.
		wait := 10 * txTime
		if blocked {
			wait = txTime
		}
		net.Engine().ContinueCall(wait, s, nil)
		return
	}
	a.grantTo(seg.host, now, txTime)

	relayRack := int32(-1)
	if vlb {
		relayRack = int32(s.circuit.Peer)
	}
	p := a.newBulkPacket(seg, relayRack)
	switch {
	case relayLeg:
		a.SentRelay += uint64(seg.bytes)
	case vlb:
		a.SentVLB += uint64(seg.bytes)
	default:
		a.SentDirect += uint64(seg.bytes)
	}
	// Poll the owning host: it enqueues on its NIC now; priority queueing
	// there lets low-latency traffic jump ahead (§4.2).
	net.Hosts()[seg.host].Send(p)
	// ContinueCall: per-packet pump rescheduling reuses the firing event
	// (or the pooled path when the host's NIC claimed it first).
	net.Engine().ContinueCall(txTime, s, nil)
}

// close returns any admitted-but-unsent VLB bytes to their origin queues;
// they never left their hosts, so they simply wait for a later circuit.
// The session then goes back to the pool with its emptied VLB queue's
// capacity: nothing else references it once its pump stops rescheduling.
func (s *session) close() {
	a := s.agent
	for {
		seg, ok := s.vlbQ.carve(1 << 62)
		if !ok {
			break
		}
		seg.hops = 0
		a.voq[seg.f.DstRack].pushFront(seg)
	}
	segs := s.vlbQ.segs[:cap(s.vlbQ.segs)]
	clear(segs)
	*s = session{vlbQ: segQueue{segs: segs[:0]}}
	a.lb.sessions.Put(s)
}

// newBulkPacket materializes a segment chunk as a wire packet.
func (a *rackAgent) newBulkPacket(seg segment, relayRack int32) *sim.Packet {
	p := sim.NewPacket()
	p.Kind = sim.KindBulk
	p.Class = sim.ClassBulk
	p.SrcHost = seg.host
	p.SrcRack = int32(a.rack)
	p.DstHost = seg.f.DstHost
	p.DstRack = seg.f.DstRack
	p.Size = int32(seg.bytes)
	p.PayloadSize = int32(seg.bytes)
	p.FlowID = seg.f.ID
	p.RelayRack = relayRack
	p.Hops = seg.hops
	return p
}
