package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"
)

// rep is the outcome of one repetition: build the cluster, admit the
// workload, run it to completion, read the results out and check them.
type rep struct {
	setupS, runS          float64 // end-to-end host CPU seconds
	runWallS              float64 // wall-clock run_s, printed for comparison
	buildS, admitS, readS float64 // spans inside setup_s and run_s
	allocs, bytes         uint64  // Mallocs and TotalAlloc over admission + run
	heapLive              uint64  // HeapAlloc after a forced GC, cluster alive
	admitted, failed      int
	sim                   simResult
	digest                uint64
	err                   error // failed output check, build error or panic
	layers                map[string]float64
}

// simResult is what the simulation computed; at a fixed seed every field
// is deterministic.
type simResult struct {
	fctP50, fctP99 float64 // µs
	fctN           int
	hops           float64 // fabric hops per inter-rack byte: 1 + bandwidth tax
	goodputFrac    float64
}

// admission counts what the benchmark hands the cluster, and times the
// lazy sources' Next calls when asked to.
type admission struct {
	src     workload.Source
	timed   bool
	nextDur time.Duration
	flows   int
	bytes   int64
}

func (a *admission) Next() (workload.FlowSpec, bool) {
	var t0 time.Time
	if a.timed {
		t0 = time.Now()
	}
	spec, ok := a.src.Next()
	if a.timed {
		a.nextDur += time.Since(t0)
	}
	if ok {
		a.flows++
		a.bytes += spec.Bytes
	}
	return spec, ok
}

// job is one benchmark invocation's fixed configuration.
type job struct {
	w           workloadDef
	sz          size
	seed        int64 // workload seed: arrivals, sizes, endpoints, faults
	clusterSeed int64 // topology and per-ToR spraying
	in          inputs
}

// runRep executes one repetition. tr is nil for the untraced runs the
// end-to-end metrics come from; setupOnly stops after admission, for extra
// setup_s samples.
func runRep(j job, tr *tracer, setupOnly bool) (r rep) {
	w, sz, in := j.w, j.sz, j.in
	adm := &admission{timed: tr != nil}
	// A run that errors or panics fails every flow it admitted.
	fail := func(err error) rep {
		r.err, r.admitted, r.failed = err, adm.flows, adm.flows
		return r
	}
	defer func() {
		if p := recover(); p != nil {
			if tr != nil {
				tr.stop()
			}
			r = fail(fmt.Errorf("panic: %v", p))
		}
	}()

	runtime.GC() // every repetition starts from the same collected heap
	var ms0, ms1, ms2 runtime.MemStats

	t0 := cpuSeconds()
	cl, err := opera.New(opera.KindOpera, clusterOptions(w, sz, j.clusterSeed)...)
	if err != nil {
		return fail(fmt.Errorf("build cluster: %w", err))
	}
	r.buildS = cpuSeconds() - t0

	runtime.ReadMemStats(&ms0)
	obs := &flowObserver{}
	cl.Metrics().OnFlowDone = obs.flowDone
	t1 := cpuSeconds()
	if in.specs != nil {
		cl.AddFlows(in.specs)
		adm.flows = len(in.specs)
		for _, s := range in.specs {
			adm.bytes += s.Bytes
		}
	} else {
		adm.src = in.source()
		cl.AddSource(adm)
	}
	if len(in.faults) > 0 {
		inj := cl.Faults()
		for _, f := range in.faults {
			if err := inj.Inject(f.target, f.fault, f.at); err != nil {
				return fail(fmt.Errorf("inject fault: %w", err))
			}
		}
	}
	r.admitS = cpuSeconds() - t1
	r.setupS = r.buildS + r.admitS
	if setupOnly {
		return r
	}

	if tr != nil {
		tr.start(cl)
	}
	w2, t2 := time.Now(), cpuSeconds()
	cl.RunUntilDone(w.deadline)
	t3 := cpuSeconds()
	r.sim = readout(cl, sz, obs.lastEnd)
	t4 := cpuSeconds()
	r.readS, r.runS, r.runWallS = t4-t3, t4-t2, time.Since(w2).Seconds()
	if tr != nil {
		tr.stop()
	}
	r.admitted = adm.flows

	runtime.ReadMemStats(&ms1)
	r.allocs = ms1.Mallocs - ms0.Mallocs
	r.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	r.heapLive = ms2.HeapAlloc

	r.failed, r.err = check(cl, adm.flows, adm.bytes)
	r.digest = digest(cl, r.sim)
	if tr != nil {
		var err error
		r.layers, err = tr.layers(j, r, adm, obs)
		if err != nil && r.err == nil {
			r.err = err
		}
	}
	runtime.KeepAlive(cl)
	return r
}

// flowObserver rides Metrics.OnFlowDone: it records the last completion
// time (the goodput denominator) and the NDP retransmits of low-latency
// flows, which streaming retention would otherwise release unseen.
type flowObserver struct {
	lastEnd     eventsim.Time
	retransmits int
}

func (o *flowObserver) flowDone(f *sim.Flow) {
	if f.End > o.lastEnd {
		o.lastEnd = f.End
	}
	if f.Class == sim.ClassLowLatency {
		o.retransmits += f.Retransmits
	}
}

// readout computes the simulated results: exact FCT percentiles under
// RetainAll, sketch quantiles under RetainSketch, the bandwidth tax, and
// delivered bytes as a share of what every host link could carry until the
// last flow completed (Fig 8's normalized throughput).
func readout(cl *opera.Cluster, sz size, lastEnd eventsim.Time) simResult {
	m := cl.Metrics()
	var s simResult
	if tel := m.Telemetry(); tel != nil {
		sk := tel.Merged()
		s.fctP50, s.fctP99, s.fctN = sk.Quantile(0.5), sk.Quantile(0.99), int(sk.Count())
	} else {
		fct := m.FCTSample(nil)
		s.fctP50, s.fctP99, s.fctN = fct.Percentile(50), fct.Percentile(99), fct.N()
	}
	s.hops = 1 + m.AggregateTax()
	if secs := lastEnd.Seconds(); secs > 0 {
		capacity := float64(sz.racks*sz.hosts) * linkRateGbps * 1e9 / 8 * secs
		s.goodputFrac = m.DeliveredTotal() / capacity
	}
	return s
}

// cpuSeconds is the process's CPU time, user plus system, over all its
// threads; the benchmark's host times are differences of it. On a shared
// VM the wall clock also counts time the vCPUs are descheduled, which
// moved repetitions of one run by up to 2x; CPU time leaves that out and
// still counts the garbage collector's background work.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
