package sim

import (
	"github.com/opera-net/opera/internal/eventsim"
)

// Circuit describes one usable direct rack-to-rack circuit during a slice,
// with its admission window as offsets from the slice boundary.
type Circuit struct {
	Switch      int
	Peer        int
	WindowStart eventsim.Time
	WindowEnd   eventsim.Time
}

// CircuitNetwork is implemented by slice-driven fabrics (Opera, RotorNet);
// the RotorLB bulk transport drives itself off this interface.
type CircuitNetwork interface {
	Engine() *eventsim.Engine
	Config() *Config
	Hosts() []*Host
	Metrics() *Metrics
	NumRacks() int
	HostsPerRack() int
	// OnSlice registers a slice-boundary callback.
	OnSlice(fn func(absSlice int64))
	// SliceDuration returns the slice/slot length.
	SliceDuration() eventsim.Time
	// PairWindowsPerCycle returns how many slices per cycle a given rack
	// pair is directly connected (Opera: the schedule's GroupSize; RotorNet:
	// one slot). It sizes RotorLB's skew threshold: a queue exceeding one
	// cycle's direct drainage is a candidate for two-hop offloading.
	PairWindowsPerCycle() int
	// DirectReachable reports whether rack will (ever) get a working
	// direct circuit to dst — false when failures have severed the pair's
	// matching. RotorLB uses it to fully offload stranded queues via VLB
	// and to decline relaying toward unreachable destinations.
	DirectReachable(rack, dst int) bool
	// ActiveCircuits appends the circuits rack may use during absSlice to
	// dst and returns the extended slice, so a caller reusing one buffer
	// lists them every slice without allocating.
	ActiveCircuits(dst []Circuit, absSlice int64, rack int) []Circuit
}

// NumRacks implements CircuitNetwork.
func (n *OperaNet) NumRacks() int { return n.topo.NumRacks() }

// HostsPerRack implements CircuitNetwork.
func (n *OperaNet) HostsPerRack() int { return n.topo.HostsPerRack() }

// SliceDuration implements CircuitNetwork.
func (n *OperaNet) SliceDuration() eventsim.Time { return n.topo.SliceDuration() }

// PairWindowsPerCycle implements CircuitNetwork.
func (n *OperaNet) PairWindowsPerCycle() int { return n.topo.Config().GroupSize }

// DirectReachable implements CircuitNetwork.
func (n *OperaNet) DirectReachable(rack, dst int) bool {
	if rack == dst {
		return false
	}
	if n.failures == nil {
		return true
	}
	sw := n.topo.PairSwitch(rack, dst)
	return sw >= 0 && n.failures.LinkUp(rack, sw) && n.failures.LinkUp(dst, sw)
}

// ActiveCircuits implements CircuitNetwork: every installed matching's peer
// (self-loops excluded), with the bulk admission window of §3.5/§4.1 —
// full slice minus guards for stable switches, truncated before the
// reconfiguration blackout for the transitioning one.
func (n *OperaNet) ActiveCircuits(dst []Circuit, absSlice int64, rack int) []Circuit {
	topo := n.topo
	sc := int(absSlice % int64(topo.SlicesPerCycle()))
	for sw := 0; sw < topo.Uplinks(); sw++ {
		peer := topo.SwitchMatching(sw, sc).Peer(rack)
		if peer == rack {
			continue
		}
		// Dead circuits (either end's cable, the switch, or the peer ToR)
		// are excluded: the ToR sees its own signal loss immediately and
		// learns the rest through hellos (§3.5, §3.6.2).
		if n.failures != nil && (!n.failures.LinkUp(rack, sw) || !n.failures.LinkUp(peer, sw)) {
			continue
		}
		start, end := topo.BulkWindow(sw, sc)
		if end <= start {
			continue
		}
		dst = append(dst, Circuit{Switch: sw, Peer: peer, WindowStart: start, WindowEnd: end})
	}
	return dst
}
