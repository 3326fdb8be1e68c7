// Package ndp implements the NDP transport protocol [24] at the level of
// detail the Opera evaluation depends on (§4.2.1): senders blast an initial
// window with zero-RTT start, switches trim overflowing data packets to
// headers that travel at control priority, receivers NACK trimmed packets
// (triggering retransmission) and clock the sender with paced PULLs so that
// aggregate arrival rate converges to the receiver's line rate, and a
// safety retransmission timer recovers from the rare loss of control
// packets. Opera uses NDP for all low-latency traffic; the static baselines
// (folded Clos, expander) use it for all traffic.
package ndp

import (
	"fmt"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/freelist"
	"github.com/opera-net/opera/internal/idtable"
	"github.com/opera-net/opera/internal/sim"
)

// Params tunes the protocol.
type Params struct {
	// InitialWindow is the number of packets sent unsolicited at flow
	// start (≈ one bandwidth-delay product; 8 × 1500 B at 10 Gb/s covers
	// ~9.6 µs of RTT).
	InitialWindow int
	// RTO is the safety retransmission timeout.
	RTO eventsim.Time
}

// DefaultParams returns the evaluation defaults.
func DefaultParams() Params {
	return Params{InitialWindow: 8, RTO: 1 * eventsim.Millisecond}
}

// Endpoint is the per-host NDP engine: sender state for outgoing flows,
// receiver state and the PULL pacer for incoming flows.
type Endpoint struct {
	host    *sim.Host
	params  Params
	metrics *sim.Metrics

	// sendFlows and recvFlows hold flow state by flow ID. They are shared
	// by every endpoint of one Attach call: each flow has exactly one
	// sender and one receiver endpoint, so one table each serves the
	// fabric.
	sendFlows *idtable.Table[sendFlow]
	recvFlows *idtable.Table[recvFlow]

	// PULL pacing: one pull per MTU serialization time, round-robin across
	// flows with credits. paceH is the pre-bound pacer tick
	// (eventsim.Handler), so per-pull scheduling allocates nothing. The
	// credit queue is consumed via pullHead (not by re-slicing) so its
	// backing array's capacity is reused instead of leaking one slot per
	// pull.
	pullCredits []int64 // flow IDs, one entry per credit
	pullHead    int
	pacing      bool
	paceH       pacerTick

	// registry maps flow IDs to flows so receivers can size their state on
	// first contact (shared across the cluster's endpoints).
	registry *idtable.Table[sim.Flow]

	// Fallback handler for packets that are not NDP's (e.g. RotorLB bulk
	// sharing the host).
	next func(*sim.Packet)

	// pools is the fabric-wide flow-state free list, shared by every
	// endpoint of one Attach call (they all run on the cluster's single
	// engine goroutine).
	pools *flowPools
}

// flowPools recycles sendFlow/recvFlow structs — and, through them, their
// ACK/got bitmaps and rtx slices — across flows. Under streaming retention
// (RetainSketch) completed flows release their state immediately, so
// without pooling a flow-churn-heavy soak allocates and frees one of each
// per flow forever; with pooling the steady state is allocation-free.
// Under RetainAll nothing is ever released, so the pools stay empty and
// behavior is unchanged.
//
// When a pool is empty, fresh state is carved from a chunk of flowChunk
// structs allocated together, so admitting a flow costs a fraction of an
// allocation even when nothing is ever released (RetainAll).
type flowPools struct {
	send      freelist.Pool[sendFlow]
	recv      freelist.Pool[recvFlow]
	sendChunk []sendFlow
	recvChunk []recvFlow
}

// flowChunk is how many flow-state structs one allocation provides.
const flowChunk = 64

// carve returns the next fresh struct of chunk, allocating a new chunk when
// it is used up.
func carve[T any](chunk *[]T) *T {
	if len(*chunk) == 0 {
		*chunk = make([]T, flowChunk)
	}
	x := &(*chunk)[0]
	*chunk = (*chunk)[1:]
	return x
}

// resetBits returns a zeroed bitmap of the given word count, reusing b's
// backing array when it is large enough.
func resetBits(b []uint64, words int32) []uint64 {
	if cap(b) < int(words) {
		return make([]uint64, words)
	}
	b = b[:words]
	for i := range b {
		b[i] = 0
	}
	return b
}

// Attach installs NDP endpoints on every host, chaining to any existing
// handler for non-NDP packets. registry is the cluster's flow table, which
// receivers consult to size their state on first contact. It returns one
// endpoint per host, indexed by host ID.
func Attach(hosts []*sim.Host, metrics *sim.Metrics, params Params, registry *idtable.Table[sim.Flow]) []*Endpoint {
	eps := make([]*Endpoint, len(hosts))
	pools := &flowPools{}
	sendFlows, recvFlows := &idtable.Table[sendFlow]{}, &idtable.Table[recvFlow]{}
	for i, h := range hosts {
		ep := &Endpoint{
			host:      h,
			params:    params,
			metrics:   metrics,
			sendFlows: sendFlows,
			recvFlows: recvFlows,
			registry:  registry,
			next:      h.Handler,
			pools:     pools,
		}
		ep.paceH.ep = ep
		h.Handler = ep.handle
		eps[i] = ep
	}
	return eps
}

// Host returns the endpoint's host.
func (ep *Endpoint) Host() *sim.Host { return ep.host }

// sendFlow is pooled sender state: flows draw it from the fabric's free
// list and, under streaming retention, return it on completion. ep is
// rebound at acquisition; the embedded rto Timer dispatches to the
// sendFlow itself (it implements eventsim.Handler), so a recycled flow
// needs no per-flow closure or Timer allocation.
type sendFlow struct {
	ep      *Endpoint
	f       *sim.Flow
	total   int32 // packets
	nextNew int32
	rtx     []int32 // NACKed sequence numbers awaiting retransmission
	acked   []uint64
	nAcked  int32
	rto     eventsim.Timer
	done    bool
	ackWord [1]uint64 // acked's initial backing: flows of ≤ 64 packets need no bitmap allocation
}

// OnEvent implements eventsim.Handler: the flow's RTO fired.
func (sf *sendFlow) OnEvent(any) { sf.ep.onRTO(sf) }

type recvFlow struct {
	f       *sim.Flow
	total   int32
	got     []uint64
	nGot    int32
	gotWord [1]uint64 // got's initial backing, like sendFlow.ackWord
}

// StartFlow begins sending flow f from this endpoint's host. The flow must
// originate here.
func (ep *Endpoint) StartFlow(f *sim.Flow) {
	if f.SrcHost != ep.host.ID {
		panic(fmt.Sprintf("ndp: flow %d starts at host %d, not %d", f.ID, f.SrcHost, ep.host.ID))
	}
	mtu := int64(ep.host.Config().MTU)
	total := int32((f.Size + mtu - 1) / mtu)
	if total == 0 {
		total = 1
	}
	sf := ep.pools.send.Get()
	if sf == nil {
		sf = carve(&ep.pools.sendChunk)
		sf.acked = sf.ackWord[:]
	}
	*sf = sendFlow{
		ep:    ep,
		f:     f,
		total: total,
		rtx:   sf.rtx[:0],
		acked: resetBits(sf.acked, (total+63)/64),
	}
	sf.rto.BindCall(ep.host.Engine(), sf, nil)
	ep.sendFlows.Put(f.ID, sf)
	f.Start = ep.host.Engine().Now()

	iw := int32(ep.params.InitialWindow)
	if iw > total {
		iw = total
	}
	for i := int32(0); i < iw; i++ {
		ep.sendData(sf, sf.nextNew)
		sf.nextNew++
	}
	sf.rto.Arm(ep.params.RTO)
}

// sendData emits one data packet of the flow.
func (ep *Endpoint) sendData(sf *sendFlow, seq int32) {
	cfg := ep.host.Config()
	f := sf.f
	mtu := int64(cfg.MTU)
	size := mtu
	if rem := f.Size - int64(seq)*mtu; rem < size {
		size = rem
	}
	if size <= 0 {
		size = 1
	}
	p := sim.NewPacket()
	p.Kind = sim.KindData
	p.Class = f.Class
	p.SrcHost, p.DstHost = f.SrcHost, f.DstHost
	p.SrcRack, p.DstRack = f.SrcRack, f.DstRack
	p.Size = int32(size)
	p.PayloadSize = int32(size)
	p.FlowID = f.ID
	p.Seq = seq
	ep.host.Send(p)
}

// handle demultiplexes a delivered packet.
func (ep *Endpoint) handle(p *sim.Packet) {
	switch p.Kind {
	case sim.KindData:
		ep.onData(p)
	case sim.KindAck:
		ep.onAck(p)
	case sim.KindNack:
		ep.onNack(p)
	case sim.KindPull:
		ep.onPull(p)
	default:
		if ep.next != nil {
			ep.next(p)
			return
		}
		p.Release()
	}
}

// recvState finds or creates receiver state, consulting the cluster flow
// registry on first contact.
func (ep *Endpoint) recvState(p *sim.Packet) *recvFlow {
	rf := ep.recvFlows.Get(p.FlowID)
	if rf == nil {
		f := ep.registry.Get(p.FlowID)
		if f == nil {
			return nil
		}
		mtu := int64(ep.host.Config().MTU)
		total := int32((f.Size + mtu - 1) / mtu)
		if total == 0 {
			total = 1
		}
		rf = ep.pools.recv.Get()
		if rf == nil {
			rf = carve(&ep.pools.recvChunk)
			rf.got = rf.gotWord[:]
		}
		*rf = recvFlow{f: f, total: total, got: resetBits(rf.got, (total+63)/64)}
		ep.recvFlows.Put(p.FlowID, rf)
	}
	return rf
}

// releaseSend returns completed sender state to the fabric pool. The RTO is
// stopped (idempotently) before the struct can back another flow: a live
// timer would otherwise fire into the wrong flow's state.
func (ep *Endpoint) releaseSend(sf *sendFlow) {
	sf.rto.Stop()
	sf.f = nil
	ep.pools.send.Put(sf)
}

func (ep *Endpoint) releaseRecv(rf *recvFlow) {
	rf.f = nil
	ep.pools.recv.Put(rf)
}

// onData handles arrival of a data packet (full or trimmed) at the
// receiver.
func (ep *Endpoint) onData(p *sim.Packet) {
	rf := ep.recvState(p)
	if rf == nil {
		// Under streaming retention a completed flow's state (registry
		// entry, receiver bitmap) has been released; a straggler
		// retransmission of an already-delivered packet still needs its
		// ACK — addressed from the packet's own header — or the sender's
		// RTO would retransmit forever. Under RetainAll the registry is
		// never pruned, so unknown flows are genuinely bogus and dropped.
		if ep.metrics.Streaming() && !p.Trimmed {
			ep.sendCtrlTo(sim.KindAck, p.FlowID, p.DstHost, p.DstRack, p.SrcHost, p.SrcRack, p.Seq, 0)
		}
		p.Release()
		return
	}
	if p.Trimmed {
		// Header survived; payload was cut: NACK for retransmission.
		ep.sendCtrl(sim.KindNack, rf.f, p.Seq, 0)
		if !rf.complete() {
			ep.addPullCredit(rf.f.ID)
		}
		p.Release()
		return
	}
	first := !rf.has(p.Seq)
	if first {
		rf.mark(p.Seq)
		ep.metrics.RecordDelivery(rf.f, int(p.PayloadSize), int(p.Hops), ep.host.Engine().Now())
		if rf.complete() {
			ep.metrics.FlowDone(rf.f, ep.host.Engine().Now())
		}
	}
	ep.sendCtrl(sim.KindAck, rf.f, p.Seq, 0)
	if !rf.complete() {
		ep.addPullCredit(rf.f.ID)
	} else if ep.metrics.Streaming() {
		// Streaming retention: the flow's statistics were absorbed at
		// FlowDone above, so drop the receiver state (bitmap, flow ref) —
		// the per-flow memory that would otherwise accumulate forever —
		// and recycle it through the fabric pool.
		ep.recvFlows.Delete(p.FlowID)
		ep.releaseRecv(rf)
	}
	p.Release()
}

func (ep *Endpoint) onAck(p *sim.Packet) {
	sf := ep.sendFlows.Get(p.FlowID)
	if sf != nil && !sf.done {
		idx, bit := p.Seq/64, uint(p.Seq%64)
		if sf.acked[idx]&(1<<bit) == 0 {
			sf.acked[idx] |= 1 << bit
			sf.nAcked++
		}
		if sf.nAcked == sf.total {
			sf.done = true
			sf.rto.Stop()
			if ep.metrics.Streaming() {
				// Fully acknowledged and timer stopped: nothing can need
				// this sender state again, so release it (streaming
				// retention keeps per-flow memory O(active flows)) and
				// recycle it through the fabric pool.
				ep.sendFlows.Delete(p.FlowID)
				ep.releaseSend(sf)
			}
		} else {
			sf.rto.Arm(ep.params.RTO)
		}
	}
	p.Release()
}

func (ep *Endpoint) onNack(p *sim.Packet) {
	sf := ep.sendFlows.Get(p.FlowID)
	if sf != nil && !sf.done {
		sf.rtx = append(sf.rtx, p.Seq)
		sf.f.Retransmits++
		sf.rto.Arm(ep.params.RTO)
	}
	p.Release()
}

func (ep *Endpoint) onPull(p *sim.Packet) {
	sf := ep.sendFlows.Get(p.FlowID)
	if sf != nil && !sf.done {
		switch {
		case len(sf.rtx) > 0:
			seq := sf.rtx[0]
			sf.rtx = sf.rtx[1:]
			ep.sendData(sf, seq)
		case sf.nextNew < sf.total:
			ep.sendData(sf, sf.nextNew)
			sf.nextNew++
		}
	}
	p.Release()
}

// onRTO resends the lowest unacked packet — the safety net for lost
// control packets (header-queue overflow).
func (ep *Endpoint) onRTO(sf *sendFlow) {
	if sf.done {
		return
	}
	for seq := int32(0); seq < sf.total; seq++ {
		if sf.acked[seq/64]&(1<<uint(seq%64)) == 0 {
			ep.sendData(sf, seq)
			sf.f.Retransmits++
			break
		}
	}
	sf.rto.Arm(ep.params.RTO)
}

// sendCtrl emits a control packet (ACK/NACK/PULL) back to the flow's
// sender.
func (ep *Endpoint) sendCtrl(kind sim.Kind, f *sim.Flow, seq int32, pullNo int32) {
	ep.sendCtrlTo(kind, f.ID, f.DstHost, f.DstRack, f.SrcHost, f.SrcRack, seq, pullNo)
}

// sendCtrlTo is sendCtrl with explicit addressing — the form the
// streaming-retention straggler ACK uses once the flow record is gone.
func (ep *Endpoint) sendCtrlTo(kind sim.Kind, flowID int64, srcHost, srcRack, dstHost, dstRack, seq, pullNo int32) {
	p := sim.NewPacket()
	p.Kind = kind
	p.Class = sim.ClassControl
	p.SrcHost, p.DstHost = srcHost, dstHost
	p.SrcRack, p.DstRack = srcRack, dstRack
	p.Size = int32(ep.host.Config().HeaderBytes)
	p.FlowID = flowID
	p.Seq = seq
	p.PullNo = pullNo
	ep.host.Send(p)
}

// addPullCredit enqueues one pull credit for the flow and kicks the pacer.
func (ep *Endpoint) addPullCredit(flowID int64) {
	if len(ep.pullCredits) == cap(ep.pullCredits) && ep.pullHead > 0 {
		// Reclaim the consumed prefix instead of growing.
		n := copy(ep.pullCredits, ep.pullCredits[ep.pullHead:])
		ep.pullCredits = ep.pullCredits[:n]
		ep.pullHead = 0
	}
	ep.pullCredits = append(ep.pullCredits, flowID)
	ep.pace()
}

// pace emits pulls one MTU-time apart while credits remain.
func (ep *Endpoint) pace() {
	if ep.pacing || ep.pullHead == len(ep.pullCredits) {
		return
	}
	ep.pacing = true
	cfg := ep.host.Config()
	spacing := cfg.SerializationDelay(cfg.MTU)
	// ContinueCall: a pacer tick that re-arms itself (or a delivery that
	// granted the first credit) hands its just-fired event straight to the
	// next tick.
	ep.host.Engine().ContinueCall(spacing, &ep.paceH, nil)
}

// pacerTick is the endpoint's pre-bound pacer callback: issue the next pull
// and reschedule while credits remain.
type pacerTick struct{ ep *Endpoint }

func (h *pacerTick) OnEvent(any) {
	ep := h.ep
	ep.pacing = false
	if ep.pullHead == len(ep.pullCredits) {
		return
	}
	id := ep.pullCredits[ep.pullHead]
	ep.pullHead++
	if ep.pullHead == len(ep.pullCredits) {
		ep.pullCredits = ep.pullCredits[:0]
		ep.pullHead = 0
	}
	if rf := ep.recvFlows.Get(id); rf != nil && !rf.complete() {
		ep.sendCtrl(sim.KindPull, rf.f, 0, 0)
	}
	ep.pace()
}

func (rf *recvFlow) has(seq int32) bool {
	return rf.got[seq/64]&(1<<uint(seq%64)) != 0
}

func (rf *recvFlow) mark(seq int32) {
	rf.got[seq/64] |= 1 << uint(seq%64)
	rf.nGot++
}

func (rf *recvFlow) complete() bool { return rf.nGot == rf.total }
