package main

// metric names one reported number: its unit and which direction is
// better. endToEnd is what --trace 0 prints, perLayer what --trace 1
// prints; BENCHMARK.json at the repository root lists the same names.
type metric struct {
	name, unit, better string
}

var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"allocs_per_flow", "allocs/flow", "lower"},
	{"bytes_per_flow", "B/flow", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"sim_fct_p50_us", "us", "lower"},
	{"sim_fct_p99_us", "us", "lower"},
	{"sim_hops_per_byte", "hops", "lower"},
	{"sim_goodput_frac", "frac", "higher"},
}

var perLayer = []metric{
	{"eventsim.cpu_frac", "frac", "lower"},
	{"eventsim.events_fired", "count", "lower"},
	{"eventsim.events_per_flow", "events/flow", "lower"},
	{"eventsim.cancelled_frac", "frac", "lower"},
	{"eventsim.bucket_depth", "events/bucket", "lower"},
	{"eventsim.overflow_frac", "frac", "lower"},

	{"sim.cpu_frac", "frac", "lower"},
	{"sim.tx_pkts.ll", "count", "lower"},
	{"sim.tx_pkts.bulk", "count", "lower"},
	{"sim.tx_pkts.ctrl", "count", "lower"},
	{"sim.trims", "count", "lower"},
	{"sim.trim_frac", "frac", "lower"},
	{"sim.hdr_drops", "count", "lower"},
	{"sim.bulk_drops", "count", "lower"},
	{"sim.stale", "count", "lower"},
	{"sim.link_loss", "count", "lower"},

	{"routing.cpu_frac", "frac", "lower"},
	{"topology.cpu_frac", "frac", "lower"},
	{"topology.build_s", "s", "lower"},

	{"ndp.cpu_frac", "frac", "lower"},
	{"ndp.retransmits", "count", "lower"},
	{"ndp.pool_free", "count", "lower"},

	{"rotorlb.cpu_frac", "frac", "lower"},
	{"rotorlb.nacks", "count", "lower"},
	{"rotorlb.queued_bytes_peak", "B", "lower"},
	{"rotorlb.stranded_bytes", "B", "lower"},

	{"opera.build_s", "s", "lower"},
	{"opera.admit_s", "s", "lower"},
	{"opera.cpu_frac", "frac", "lower"},

	{"workload.next_ns", "ns", "lower"},
	{"workload.specs", "count", "higher"},

	{"telemetry.cpu_frac", "frac", "lower"},
	{"telemetry.readout_s", "s", "lower"},

	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.alloc_cpu_frac", "frac", "lower"},
	{"runtime.map_cpu_frac", "frac", "lower"},
	{"runtime.other_cpu_frac", "frac", "lower"},
	{"bench.cpu_frac", "frac", "lower"},

	{"trace.overhead_frac", "frac", "lower"},
}
