package ndp

import (
	"github.com/opera-net/opera/internal/idtable"
	"github.com/opera-net/opera/internal/sim"
)

// Fabric bundles a cluster's per-host NDP endpoints behind the single
// flow-admission surface of sim.Transport: a started flow is handed to the
// endpoint of its source host.
type Fabric struct {
	eps []*Endpoint
}

var _ sim.Transport = (*Fabric)(nil)

// AttachFabric installs NDP on every host (see Attach) and returns the
// endpoints wrapped as a Transport.
func AttachFabric(hosts []*sim.Host, metrics *sim.Metrics, params Params, registry *idtable.Table[sim.Flow]) *Fabric {
	return &Fabric{eps: Attach(hosts, metrics, params, registry)}
}

// StartFlow implements sim.Transport.
func (fb *Fabric) StartFlow(f *sim.Flow) { fb.eps[f.SrcHost].StartFlow(f) }

// Endpoint returns the per-host engine of the given host.
func (fb *Fabric) Endpoint(host int) *Endpoint { return fb.eps[host] }

// Endpoints returns all endpoints, indexed by host ID.
func (fb *Fabric) Endpoints() []*Endpoint { return fb.eps }

// PoolGauges reports the fabric-wide flow-state free lists: sendFlow and
// recvFlow objects parked between flows. Under streaming retention these
// grow to the active-flow high-water mark and then hold steady — the
// observability plane charts them to confirm a soak really is
// allocation-flat. Both are zero under RetainAll (nothing is released).
type PoolGauges struct {
	SendFree int
	RecvFree int
}

// PoolStats reads the shared free-list sizes. Like every fabric method it
// is only safe from the engine goroutine.
func (fb *Fabric) PoolStats() PoolGauges {
	if len(fb.eps) == 0 {
		return PoolGauges{}
	}
	p := fb.eps[0].pools
	return PoolGauges{SendFree: p.send.Len(), RecvFree: p.recv.Len()}
}
