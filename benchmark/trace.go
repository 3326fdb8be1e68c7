package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/topology"
)

// sampleEvery is the simulated-time period of the traced run's sampler.
const sampleEvery = 50 * eventsim.Microsecond

// tracer instruments one traced repetition: a CPU profile of the run
// phase, and a meta-event sampler that reads engine, NDP pool and RotorLB
// gauges in simulated time without perturbing the simulation.
type tracer struct {
	cl      *opera.Cluster
	eng     *eventsim.Engine
	prof    bytes.Buffer
	running bool
	gc0     uint32
	gcs     uint32

	samples                  int
	depthSum, overflowSum    float64
	poolFreePeak             int
	queuedPeak, strandedPeak int64
	profErr                  error
}

func (t *tracer) start(cl *opera.Cluster) {
	t.cl, t.eng = cl, cl.Engine()
	t.eng.AtMetaCall(t.eng.Now()+sampleEvery, t, nil)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.gc0 = ms.NumGC
	t.profErr = pprof.StartCPUProfile(&t.prof)
	t.running = t.profErr == nil
}

// stop ends the CPU profile; it is safe to call more than once.
func (t *tracer) stop() {
	if !t.running {
		return
	}
	pprof.StopCPUProfile()
	t.running = false
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.gcs = ms.NumGC - t.gc0
}

// OnEvent is the sampler. Under the meta-event contract it calls MetaStep
// first, only reads simulation state, and re-arms itself with
// ContinueMetaCall.
func (t *tracer) OnEvent(any) {
	t.eng.MetaStep()
	st := t.eng.Stats()
	t.samples++
	if st.Sched.Buckets > 0 {
		t.depthSum += float64(st.Sched.Resident) / float64(st.Sched.Buckets)
	}
	if n := st.Sched.Resident + st.Sched.Overflow; n > 0 {
		t.overflowSum += float64(st.Sched.Overflow) / float64(n)
	}
	if fab := t.cl.NDPFabric(); fab != nil {
		pg := fab.PoolStats()
		t.poolFreePeak = max(t.poolFreePeak, pg.SendFree+pg.RecvFree)
	}
	if lb := t.cl.RotorLB(); lb != nil {
		t.queuedPeak = max(t.queuedPeak, lb.QueuedBytes())
		t.strandedPeak = max(t.strandedPeak, lb.StrandedBytes())
	}
	t.eng.ContinueMetaCall(sampleEvery, t, nil)
}

// layers computes the per-layer metrics of a traced repetition.
func (t *tracer) layers(j job, r rep, adm *admission, obs *flowObserver) (map[string]float64, error) {
	if t.profErr != nil {
		return nil, fmt.Errorf("cpu profile: %w", t.profErr)
	}
	shares, err := layerShares(t.prof.Bytes())
	if err != nil {
		return nil, err
	}
	cl := t.cl
	st := cl.Engine().Stats()
	pt := portTotals(cl)
	flows := float64(max(r.admitted, 1))
	mean := func(sum float64) float64 { return sum / float64(max(t.samples, 1)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	data := float64(pt.Tx[sim.ClassLowLatency].Packets + pt.Tx[sim.ClassBulk].Packets)
	// The sampler's own events are in Scheduled; remove the fired ones and
	// the one still pending.
	scheduled := float64(st.Scheduled - st.MetaFired - 1)
	var telReadS float64
	if cl.Metrics().Telemetry() != nil {
		telReadS = r.readS
	}
	// A lazy source is timed call by call as the cluster pulls it; a
	// materialized flow list is timed as one generator call.
	genDur := adm.nextDur
	if j.in.specs != nil {
		t0 := time.Now()
		j.w.gen(j.sz, j.seed)
		genDur = time.Since(t0)
	}
	nextNS := float64(genDur.Nanoseconds()) / flows
	topoS, err := topologyBuildS(j)
	if err != nil {
		return nil, err
	}
	var nacks float64
	if cl.RotorLB() != nil {
		nacks = float64(cl.BulkNACKCount())
	}

	return map[string]float64{
		"eventsim.cpu_frac":        shares["eventsim"],
		"eventsim.events_fired":    float64(st.Fired),
		"eventsim.events_per_flow": float64(st.Fired) / flows,
		"eventsim.cancelled_frac":  ratio(float64(st.Cancelled), scheduled),
		"eventsim.bucket_depth":    mean(t.depthSum),
		"eventsim.overflow_frac":   mean(t.overflowSum),

		"sim.cpu_frac":     shares["sim"],
		"sim.tx_pkts.ll":   float64(pt.Tx[sim.ClassLowLatency].Packets),
		"sim.tx_pkts.bulk": float64(pt.Tx[sim.ClassBulk].Packets),
		"sim.tx_pkts.ctrl": float64(pt.Tx[sim.ClassControl].Packets),
		"sim.trims":        float64(pt.Trims),
		"sim.trim_frac":    ratio(float64(pt.Trims), data),
		"sim.hdr_drops":    float64(pt.HdrDrops),
		"sim.bulk_drops":   float64(pt.BulkDrop),
		"sim.stale":        float64(pt.Stale),
		"sim.link_loss":    float64(pt.LinkLoss),

		"routing.cpu_frac":  shares["routing"],
		"topology.cpu_frac": shares["topology"],
		"topology.build_s":  topoS,

		"ndp.cpu_frac":    shares["ndp"],
		"ndp.retransmits": float64(obs.retransmits),
		"ndp.pool_free":   float64(t.poolFreePeak),

		"rotorlb.cpu_frac":          shares["rotorlb"],
		"rotorlb.nacks":             nacks,
		"rotorlb.queued_bytes_peak": float64(t.queuedPeak),
		"rotorlb.stranded_bytes":    float64(t.strandedPeak),

		"opera.build_s":  r.buildS,
		"opera.admit_s":  r.admitS,
		"opera.cpu_frac": shares["opera"],

		"workload.next_ns": nextNS,
		"workload.specs":   float64(adm.flows),

		"telemetry.cpu_frac":  shares["telemetry"],
		"telemetry.readout_s": telReadS,

		"runtime.gc_cpu_frac":    shares["gc"],
		"runtime.gc_cycles":      float64(t.gcs),
		"runtime.alloc_cpu_frac": shares["alloc"],
		"runtime.map_cpu_frac":   shares["map"],
		"runtime.other_cpu_frac": shares["other"],
		"bench.cpu_frac":         shares["bench"],
	}, nil
}

// topologyBuildS times building the Opera topology alone — the rotor
// matchings and slice schedule opera.New starts from — with the cluster's
// configuration.
func topologyBuildS(j job) (float64, error) {
	t0 := cpuSeconds()
	_, err := topology.NewOpera(topology.Config{
		NumRacks:     j.sz.racks,
		HostsPerRack: j.sz.hosts,
		NumSwitches:  j.sz.uplinks,
		Seed:         j.clusterSeed,
	})
	if err != nil {
		return 0, fmt.Errorf("build topology: %w", err)
	}
	return cpuSeconds() - t0, nil
}
