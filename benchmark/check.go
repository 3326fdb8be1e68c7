package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/sim"
)

// check verifies the simulated output against what the benchmark admitted.
// It returns the flows not done by the deadline and the first violated
// invariant, if any:
//   - the cluster registered exactly the admitted flows, and all are done;
//   - under RetainAll every retained flow is accounted for, every done flow
//     received exactly its size, and DeliveredTotal is the sum of received
//     bytes;
//   - under RetainSketch the sketch holds one FCT per done flow, and with
//     every flow done DeliveredTotal is exactly the admitted bytes.
func check(cl *opera.Cluster, admitted int, admittedBytes int64) (failed int, err error) {
	m := cl.Metrics()
	done, total := m.DoneCount()
	failed = admitted - done
	if total != admitted {
		return admitted, fmt.Errorf("cluster registered %d flows, benchmark admitted %d", total, admitted)
	}
	if failed > 0 {
		err = fmt.Errorf("%d of %d flows not done at the deadline", failed, admitted)
	}
	if tel := m.Telemetry(); tel != nil {
		if n := tel.Merged().Count(); n != uint64(done) {
			return failed, fmt.Errorf("sketch holds %d completions, DoneCount says %d", n, done)
		}
		if failed == 0 && m.DeliveredTotal() != float64(admittedBytes) {
			return failed, fmt.Errorf("delivered %.0f bytes, admitted %d", m.DeliveredTotal(), admittedBytes)
		}
		return failed, err
	}
	flows := m.Flows()
	if len(flows) != admitted {
		return failed, fmt.Errorf("metrics retain %d flows, benchmark admitted %d", len(flows), admitted)
	}
	var rcvd int64
	for _, f := range flows {
		if f.Done && f.BytesRcvd != f.Size {
			return failed, fmt.Errorf("flow %d done with %d of %d bytes", f.ID, f.BytesRcvd, f.Size)
		}
		rcvd += f.BytesRcvd
	}
	if m.DeliveredTotal() != float64(rcvd) {
		return failed, fmt.Errorf("DeliveredTotal %.0f, flows received %d", m.DeliveredTotal(), rcvd)
	}
	return failed, err
}

// portTotals sums the counters of every port in the Opera fabric: host
// NICs, ToR downlinks and ToR uplinks.
func portTotals(cl *opera.Cluster) sim.PortStats {
	var t sim.PortStats
	add := func(p *sim.Port) {
		for c := range t.Tx {
			t.Tx[c].Packets += p.Stats.Tx[c].Packets
			t.Tx[c].Bytes += p.Stats.Tx[c].Bytes
		}
		t.Trims += p.Stats.Trims
		t.HdrDrops += p.Stats.HdrDrops
		t.BulkDrop += p.Stats.BulkDrop
		t.Stale += p.Stats.Stale
		t.LinkLoss += p.Stats.LinkLoss
	}
	net := cl.OperaNet()
	for i := 0; i < cl.NumHosts(); i++ {
		add(net.Hosts()[i].NIC())
	}
	for r := 0; r < net.NumRacks(); r++ {
		tor := net.ToR(r)
		for h := 0; h < net.HostsPerRack(); h++ {
			add(tor.Downlink(h))
		}
		for u := 0; u < net.Uplinks(); u++ {
			add(tor.Uplink(u))
		}
	}
	return t
}

// digest hashes the simulated results: per-flow completions (RetainAll) or
// the sketch summary (RetainSketch), the simulation events fired, the
// summed port counters and the byte accounting. Runs of one workload at one
// seed must produce the same digest, traced or not.
func digest(cl *opera.Cluster, s simResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }

	m := cl.Metrics()
	if tel := m.Telemetry(); tel != nil {
		sk := tel.Merged()
		put(sk.Count())
		putF(sk.Sum())
		putF(sk.Min())
		putF(sk.Max())
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			putF(sk.Quantile(q))
		}
	} else {
		for _, f := range m.Flows() {
			put(uint64(f.ID))
			put(uint64(f.End))
			put(uint64(f.BytesRcvd))
			put(uint64(f.Retransmits))
		}
	}
	put(cl.Engine().Stats().Fired)
	pt := portTotals(cl)
	for _, c := range pt.Tx {
		put(c.Packets)
		put(c.Bytes)
	}
	for _, v := range []uint64{pt.Trims, pt.HdrDrops, pt.BulkDrop, pt.Stale, pt.LinkLoss} {
		put(v)
	}
	putF(m.DeliveredTotal())
	for _, v := range m.UplinkBytes {
		put(v)
	}
	for _, v := range m.GoodputBytes {
		put(v)
	}
	putF(s.goodputFrac)
	return h.Sum64()
}
