// Package opera is a from-scratch Go implementation of Opera, the
// datacenter network architecture of Mellette et al., "Expanding across
// time to deliver bandwidth efficiency and low latency" (NSDI 2020),
// together with every substrate its evaluation depends on: an
// htsim-style packet-level simulator, the NDP and RotorLB transports, the
// static expander / folded-Clos / RotorNet baselines, the cost
// normalization model, and the failure and spectral analyses.
//
// The central abstraction is the Cluster: a simulated datacenter of a
// chosen architecture, to which workloads are submitted as flow lists.
// Clusters are assembled with functional options:
//
//	cl, err := opera.New(opera.KindOpera,
//		opera.WithRacks(16),
//		opera.WithHostsPerRack(4),
//		opera.WithUplinks(4),
//		opera.WithSeed(1),
//	)
//	if err != nil { ... }
//	cl.AddFlows(workload.Shuffle(cl.NumHosts(), 100_000, 0, 1))
//	cl.RunUntilDone(eventsim.Time(5 * eventsim.Millisecond))
//	fct := cl.Metrics().FCTSample(nil)
//
// Architectures are pluggable: each fabric registers a constructor in the
// internal/sim builder registry under its Kind's name, and the Cluster
// attaches transports by capability — NDP wherever the fabric has an
// always-on packet path, RotorLB wherever it exposes slice-driven circuits
// (sim.CircuitNetwork). Flows smaller than BulkThreshold (default 15 MB,
// §4.1) are latency-sensitive and ride NDP over the current expander
// slice; larger flows wait at hosts and ride RotorLB over direct circuits.
// Baselines use the transports the paper gives them: NDP everywhere for
// the static networks, RotorLB (plus NDP over the hybrid packet fabric)
// for RotorNet.
//
// For parameter sweeps, the scenario package fans whole clusters out
// across goroutines: build a []scenario.Scenario and hand it to
// scenario.RunScenarios.
package opera

import (
	"fmt"
	"sort"
	"sync"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/idtable"
	"github.com/opera-net/opera/internal/ndp"
	"github.com/opera-net/opera/internal/rotorlb"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"
)

// Kind selects a network architecture.
type Kind int

// Supported architectures (§5's comparison set).
const (
	// KindOpera is the paper's contribution: rotor circuit switches with
	// staggered reconfiguration forming time-varying expanders.
	KindOpera Kind = iota
	// KindExpander is the cost-equivalent static expander (u = 7 flavor).
	KindExpander
	// KindFoldedClos is the 3:1-oversubscribed three-tier folded Clos.
	KindFoldedClos
	// KindRotorNet is non-hybrid RotorNet: all uplinks on synchronized
	// rotor switches, no packet fabric (bulk-only connectivity).
	KindRotorNet
	// KindRotorNetHybrid diverts one uplink to an always-on packet fabric
	// for low-latency traffic (+33% cost in the paper's accounting).
	KindRotorNetHybrid
)

// kindNames maps Kinds to their registered architecture names. Built-in
// fabrics are listed here; additional ones join through RegisterKind.
// kindMu guards it: clusters may be built from many goroutines (the
// scenario runner) while a fabric registers.
var (
	kindMu    sync.RWMutex
	kindNames = map[Kind]string{
		KindOpera:          "opera",
		KindExpander:       "expander",
		KindFoldedClos:     "foldedclos",
		KindRotorNet:       "rotornet",
		KindRotorNetHybrid: "rotornet-hybrid",
	}
)

// RegisterKind binds a Kind value to an architecture name previously
// registered with the internal/sim builder registry, making it buildable
// through New and NewCluster. Because that registry (and the sim.Network
// contract a fabric implements) lives under internal/, new fabrics are
// added from within this module — a fork or an in-tree package — rather
// than from external modules. Pick Kind values well above the built-ins
// (e.g. iota from 100) to stay clear of future additions. RegisterKind
// panics if either the Kind or the name is already bound.
func RegisterKind(k Kind, name string) {
	kindMu.Lock()
	defer kindMu.Unlock()
	if existing, ok := kindNames[k]; ok {
		panic(fmt.Sprintf("opera: Kind %d already registered as %q", int(k), existing))
	}
	for kk, n := range kindNames {
		if n == name {
			panic(fmt.Sprintf("opera: name %q already registered as Kind %d", name, int(kk)))
		}
	}
	kindNames[k] = name
}

// kindName resolves a Kind to its architecture name.
func kindName(k Kind) (string, bool) {
	kindMu.RLock()
	defer kindMu.RUnlock()
	name, ok := kindNames[k]
	return name, ok
}

func (k Kind) String() string {
	if name, ok := kindName(k); ok {
		return name
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind resolves an architecture name ("opera", "expander",
// "foldedclos", "rotornet", "rotornet-hybrid", or any name added through
// RegisterKind) to its Kind.
func ParseKind(name string) (Kind, error) {
	kindMu.RLock()
	defer kindMu.RUnlock()
	known := make([]string, 0, len(kindNames))
	for k, n := range kindNames {
		if n == name {
			return k, nil
		}
		known = append(known, n)
	}
	sort.Strings(known)
	return 0, fmt.Errorf("opera: unknown network %q (have %v)", name, known)
}

// DefaultBulkThreshold is the flow-size boundary between latency-sensitive
// and bulk service (§4.1: flows ≥ 15 MB can amortize waiting for direct
// circuits).
const DefaultBulkThreshold = 15_000_000

// ClusterConfig assembles a simulated datacenter. New code should prefer
// New with functional options; NewCluster remains as a thin shim over the
// same builder.
type ClusterConfig struct {
	Kind Kind

	// Racks, HostsPerRack and Uplinks size Opera/RotorNet/expander
	// networks. For KindExpander, Uplinks is the fabric degree u and
	// HostsPerRack is d. For KindFoldedClos, ClosK and ClosF are used
	// instead.
	Racks        int
	HostsPerRack int
	Uplinks      int

	// ClosK and ClosF size the folded Clos (radix, oversubscription).
	ClosK, ClosF int

	// BulkThreshold classifies flows; zero means DefaultBulkThreshold.
	// Flows at or above it are bulk (§4.1).
	BulkThreshold int64

	// AppTaggedBulk forces every flow to bulk service regardless of size
	// (§5.2's application-tagged shuffle).
	AppTaggedBulk bool

	// Retention selects how Metrics treats completed flows: the zero value
	// (RetainAll) keeps every flow for exact statistics; RetainSketch
	// streams completions into quantile sketches and releases all per-flow
	// state, keeping unbounded soaks flat-memory. See WithRetention.
	Retention RetentionPolicy

	// Sim, NDP and RotorLB override protocol parameters when non-nil.
	Sim     *sim.Config
	NDP     *ndp.Params
	RotorLB *rotorlb.Params

	// MaxSliceDiameter bounds Opera slice diameters at build time (0 = no
	// bound; 5 reproduces the paper's ε sizing).
	MaxSliceDiameter int

	Seed int64
}

// Cluster is a simulated datacenter network plus attached transports: one
// sim.Network and a service-class → Transport dispatch table.
type Cluster struct {
	cfg     ClusterConfig
	eng     *eventsim.Engine
	net     sim.Network
	metrics *sim.Metrics
	hosts   []*sim.Host

	// registry holds every admitted flow by ID (IDs come from nextID, so
	// the table stays dense); the transports share it to resolve packets
	// to flows.
	registry idtable.Table[sim.Flow]
	nextID   int64

	// transports dispatches flow admission by service class.
	transports [sim.ClassBulk + 1]sim.Transport
	lb         *rotorlb.LB // nil unless the fabric has circuits

	// pumps counts sources added with AddSource that are not yet
	// exhausted; RunUntilDone keeps running while any remain.
	pumps int

	hostsPerRack int
}

// New builds and starts a cluster of the given architecture. Options apply
// over defaults sized like the examples' small testbed: 16 racks × 4
// hosts, 4 uplinks (folded Clos: k=8, F=3), seed 1.
func New(kind Kind, opts ...Option) (*Cluster, error) {
	cfg := ClusterConfig{
		Kind:         kind,
		Racks:        16,
		HostsPerRack: 4,
		Uplinks:      4,
		ClosK:        8,
		ClosF:        3,
		Seed:         1,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return build(cfg)
}

// NewCluster builds and starts a cluster from a fully specified config —
// the legacy construction path, kept as a shim over the same builder New
// uses.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return build(cfg) }

// build assembles the cluster: the architecture comes out of the builder
// registry, and transports attach by capability rather than by Kind.
func build(cfg ClusterConfig) (*Cluster, error) {
	if cfg.BulkThreshold == 0 {
		cfg.BulkThreshold = DefaultBulkThreshold
	}
	simCfg := sim.DefaultConfig()
	if cfg.Sim != nil {
		simCfg = *cfg.Sim
	}
	ndpParams := ndp.DefaultParams()
	if cfg.NDP != nil {
		ndpParams = *cfg.NDP
	}
	lbParams := rotorlb.DefaultParams()
	if cfg.RotorLB != nil {
		lbParams = *cfg.RotorLB
	}

	name, ok := kindName(cfg.Kind)
	if !ok {
		return nil, fmt.Errorf("opera: unknown network kind %v", cfg.Kind)
	}
	if err := cfg.Retention.Validate(); err != nil {
		return nil, fmt.Errorf("opera: retention: %w", err)
	}

	c := &Cluster{cfg: cfg, eng: eventsim.New()}
	net, err := sim.Build(name, sim.BuildParams{
		Engine:           c.eng,
		Sim:              simCfg,
		Racks:            cfg.Racks,
		HostsPerRack:     cfg.HostsPerRack,
		Uplinks:          cfg.Uplinks,
		ClosK:            cfg.ClosK,
		ClosF:            cfg.ClosF,
		MaxSliceDiameter: cfg.MaxSliceDiameter,
		Seed:             cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	c.net = net
	c.metrics = net.Metrics()
	c.hosts = net.Hosts()
	c.hostsPerRack = net.HostsPerRack()

	// Retention is installed before any transport attaches or flow
	// registers. Under streaming retention the cluster also stops holding
	// completed flows: the registry entry is dropped the moment Metrics
	// absorbs the completion, so a million-flow soak holds only its active
	// flows (the transports release their own per-flow state the same way).
	c.metrics.SetRetention(cfg.Retention)
	if cfg.Retention.Streaming() {
		c.metrics.ReleaseHook(func(f *sim.Flow) { c.registry.Delete(f.ID) })
	}

	// Bulk rides RotorLB wherever the fabric exposes circuits. RotorLB must
	// attach before NDP: NDP chains packets it does not own back to the
	// handler installed before it.
	if cn, ok := net.(sim.CircuitNetwork); ok {
		c.lb = rotorlb.Attach(cn, lbParams, &c.registry)
		c.transports[sim.ClassBulk] = c.lb
	}
	// Low-latency traffic rides NDP wherever an always-on packet path
	// exists; on the static fabrics NDP carries bulk too (Class then only
	// drives priority queueing, §5's "ideal priority queuing").
	if net.PacketCapable() {
		fab := ndp.AttachFabric(c.hosts, c.metrics, ndpParams, &c.registry)
		c.transports[sim.ClassLowLatency] = fab
		if c.transports[sim.ClassBulk] == nil {
			c.transports[sim.ClassBulk] = fab
		}
	}
	// Circuit-only fabrics (non-hybrid RotorNet) have no packet path:
	// everything is reclassified bulk and waits for circuits.
	if c.transports[sim.ClassLowLatency] == nil {
		if c.lb == nil {
			return nil, fmt.Errorf("opera: network %q offers neither packet nor circuit transport", name)
		}
		c.transports[sim.ClassLowLatency] = forceBulk{c.lb}
	}
	net.Start()
	return c, nil
}

// forceBulk reclassifies every flow as bulk before admission — the service
// model of circuit-only fabrics.
type forceBulk struct{ t sim.Transport }

func (fb forceBulk) StartFlow(f *sim.Flow) {
	f.Class = sim.ClassBulk
	fb.t.StartFlow(f)
}

// Engine exposes the simulation engine (for custom event scheduling).
func (c *Cluster) Engine() *eventsim.Engine { return c.eng }

// Metrics exposes flow and throughput accounting.
func (c *Cluster) Metrics() *sim.Metrics { return c.metrics }

// Network exposes the underlying fabric.
func (c *Cluster) Network() sim.Network { return c.net }

// Transport returns the transport admitting flows of the given class, or
// nil for a class no flow is admitted under (sim.ClassControl).
func (c *Cluster) Transport(class sim.Class) sim.Transport {
	if int(class) >= len(c.transports) {
		return nil
	}
	return c.transports[class]
}

// NumHosts returns the host count.
func (c *Cluster) NumHosts() int { return len(c.hosts) }

// HostsPerRack returns hosts per rack (ToR).
func (c *Cluster) HostsPerRack() int { return c.hostsPerRack }

// HostRack returns the rack of a host.
func (c *Cluster) HostRack(h int) int { return h / c.hostsPerRack }

// Kind returns the cluster's architecture.
func (c *Cluster) Kind() Kind { return c.cfg.Kind }

// OperaNet exposes the underlying Opera fabric (nil for other kinds), for
// failure injection and slice-level instrumentation.
func (c *Cluster) OperaNet() *sim.OperaNet {
	n, _ := c.net.(*sim.OperaNet)
	return n
}

// Faults returns the fabric's runtime failure-injection surface, or nil
// when the architecture does not model runtime faults. All four
// registered architectures do: Opera implements the §3.6.2
// detection-and-epidemic recovery of its rotor fabric, the static
// expander and the folded Clos model instant link-state reconvergence
// (see sim.ExpanderFaults and sim.ClosFaults), and RotorNet routes
// around dead circuits over its out-of-band management channel. Faults
// are structured: a sim.Target (link, ToR, or switch coordinate) plus a
// sim.Fault (hard down, lossy, degraded, or flapping), scheduled at a
// virtual time:
//
//	inj := cl.Faults()
//	inj.Inject(sim.LinkTarget(sim.FlatLink(3, 2)), sim.DownFault(), 500*eventsim.Microsecond)
//	inj.Inject(sim.LinkTarget(sim.FlatLink(4, 0)), sim.LossyFault(0.01), eventsim.Millisecond)
//	inj.Recover(sim.LinkTarget(sim.FlatLink(3, 2)), 2*eventsim.Millisecond)
//
// On circuit fabrics the injector's StrandedBytes counter is wired to
// RotorLB's stranded-VLB accounting.
func (c *Cluster) Faults() sim.FaultInjector {
	fn, ok := c.net.(sim.FaultNetwork)
	if !ok {
		return nil
	}
	inj := fn.FaultInjector()
	if c.lb != nil {
		if sp, ok := inj.(interface{ SetStrandedProbe(func() int64) }); ok {
			sp.SetStrandedProbe(c.lb.StrandedBytes)
		}
	}
	return inj
}

// NDPFabric exposes the NDP transport's endpoint fabric, or nil when the
// architecture has no always-on packet path (non-hybrid RotorNet). The
// observability plane reads its flow-state pool gauges from here.
func (c *Cluster) NDPFabric() *ndp.Fabric {
	for _, tr := range []sim.Class{sim.ClassLowLatency, sim.ClassBulk} {
		if fab, ok := c.transports[tr].(*ndp.Fabric); ok {
			return fab
		}
	}
	return nil
}

// RotorLB exposes the bulk circuit transport, or nil when the fabric has
// no circuits (static expander, folded Clos).
func (c *Cluster) RotorLB() *rotorlb.LB { return c.lb }

// BulkNACKCount reports §4.2.2 NACK retransmissions observed (circuit
// networks only).
func (c *Cluster) BulkNACKCount() uint64 {
	if c.lb == nil {
		return 0
	}
	return c.lb.NACKs
}

// classify picks the service class for a flow: bulk when the whole
// cluster or the individual spec is application-tagged (§3.4), or when
// the flow can amortize waiting for direct circuits (§4.1).
func (c *Cluster) classify(spec workload.FlowSpec) sim.Class {
	if c.cfg.AppTaggedBulk || spec.Bulk {
		return sim.ClassBulk
	}
	if spec.Bytes >= c.cfg.BulkThreshold {
		return sim.ClassBulk
	}
	return sim.ClassLowLatency
}

// addFlow registers a flow of the given class and schedules its start.
func (c *Cluster) addFlow(spec workload.FlowSpec, class sim.Class) *sim.Flow {
	if spec.Src < 0 || spec.Src >= len(c.hosts) || spec.Dst < 0 || spec.Dst >= len(c.hosts) {
		// Fail loudly at the boundary: an out-of-range host would otherwise
		// surface as an opaque index panic deep inside a transport.
		panic(fmt.Sprintf("opera: flow %d->%d outside cluster with %d hosts", spec.Src, spec.Dst, len(c.hosts)))
	}
	c.nextID++
	f := &sim.Flow{
		ID:      c.nextID,
		SrcHost: int32(spec.Src),
		DstHost: int32(spec.Dst),
		SrcRack: int32(c.HostRack(spec.Src)),
		DstRack: int32(c.HostRack(spec.Dst)),
		Size:    spec.Bytes,
		Class:   class,
		Tag:     spec.Tag,
		Start:   spec.Arrival,
	}
	c.registry.Put(f.ID, f)
	c.metrics.AddFlow(f)
	if spec.Arrival <= c.eng.Now() {
		c.startFlow(f)
	} else {
		c.eng.AtCall(spec.Arrival, (*flowStarter)(c), f)
	}
	return f
}

// flowStarter is the cluster as the pre-bound handler of flows admitted
// ahead of their arrival: the event carries the flow, so scheduling a
// start allocates no closure.
type flowStarter Cluster

// OnEvent implements eventsim.Handler.
func (s *flowStarter) OnEvent(arg any) { (*Cluster)(s).startFlow(arg.(*sim.Flow)) }

// AddFlow registers and schedules a single flow; it starts at spec.Arrival
// (virtual time, which must not be in the past).
func (c *Cluster) AddFlow(spec workload.FlowSpec) *sim.Flow {
	return c.addFlow(spec, c.classify(spec))
}

// AddFlows schedules a batch of flows.
func (c *Cluster) AddFlows(specs []workload.FlowSpec) {
	for _, s := range specs {
		c.AddFlow(s)
	}
}

// AddBulkFlow schedules a flow that is application-tagged as bulk
// regardless of its size (§3.4's application-based tagging).
func (c *Cluster) AddBulkFlow(spec workload.FlowSpec) *sim.Flow {
	return c.addFlow(spec, sim.ClassBulk)
}

// AddSource drives a lazy flow source: instead of materializing the flow
// list up front (AddFlows), the cluster schedules one arrival event at a
// time — when it fires, every flow due at that instant is admitted, the
// source is pulled for the next arrival, and a single new event is
// scheduled for it. A source of a million flows therefore costs one
// pending event and one spec of lookahead, keeping workload memory
// O(active flows) for unbounded-duration runs; only Metrics' per-flow
// completion records grow with the total count.
//
// Sources yield flows in nondecreasing arrival order (see
// workload.Source); a flow arriving out of order is admitted immediately,
// like AddFlow with a past arrival. RunUntilDone treats an unexhausted
// source as pending work, so a run cannot end early during a lull between
// arrivals.
//
// A source that already holds its complete flow list
// (workload.Materialized, e.g. workload.FromSpecs) is scheduled in one
// shot instead: the list is O(n) memory either way, and one-shot
// scheduling keeps results identical to the historical AddFlows path.
func (c *Cluster) AddSource(src workload.Source) {
	if m, ok := src.(workload.Materialized); ok {
		c.AddFlows(m.Specs())
		return
	}
	spec, ok := src.Next()
	if !ok {
		return
	}
	c.pumps++
	var pump func()
	pump = func() {
		now := c.eng.Now()
		for {
			c.AddFlow(spec)
			spec, ok = src.Next()
			if !ok {
				c.pumps--
				return
			}
			if spec.Arrival > now {
				break
			}
		}
		c.eng.At(spec.Arrival, pump)
	}
	at := spec.Arrival
	if at < c.eng.Now() {
		at = c.eng.Now()
	}
	c.eng.At(at, pump)
}

// PendingSources reports how many sources added with AddSource still have
// flows to yield.
func (c *Cluster) PendingSources() int { return c.pumps }

// startFlow hands the flow to the transport serving its class.
func (c *Cluster) startFlow(f *sim.Flow) {
	c.transports[f.Class].StartFlow(f)
}

// Run advances the simulation to the given absolute virtual time.
func (c *Cluster) Run(until eventsim.Time) { c.eng.RunUntil(until) }

// RunUntilDone advances until every registered flow completes or the
// deadline passes, checking at 100 µs granularity; it returns early when
// the event queue drains, since no pending event means no flow can make
// further progress. While a source added with AddSource still has flows to
// yield, the run continues even if everything admitted so far is done — a
// lull between arrivals is not completion. It reports completion: all
// admitted flows done and every source exhausted.
func (c *Cluster) RunUntilDone(deadline eventsim.Time) bool {
	const step = 100 * eventsim.Microsecond
	for c.eng.Now() < deadline {
		c.eng.RunUntil(c.eng.Now() + step)
		done, total := c.metrics.DoneCount()
		if done == total && c.pumps == 0 {
			return true
		}
		if c.eng.Len() == 0 {
			break
		}
	}
	done, total := c.metrics.DoneCount()
	return done == total && c.pumps == 0
}

// Stop halts circuit clocks so a finished simulation can drain.
func (c *Cluster) Stop() { c.net.Stop() }
