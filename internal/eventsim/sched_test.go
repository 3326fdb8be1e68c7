package eventsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// schedulers enumerates every Scheduler implementation; ordering-sensitive
// tests run against each, and the differential tests compare them pairwise.
var schedulers = map[string]func() Scheduler{
	"wheel": NewWheelScheduler,
	"heap":  NewHeapScheduler,
}

// fireRec is one observed callback invocation.
type fireRec struct {
	id int
	at Time
}

type fireRecorder struct {
	e    *Engine
	recs []fireRec
}

func (r *fireRecorder) OnEvent(arg any) {
	r.recs = append(r.recs, fireRec{arg.(int), r.e.Now()})
}

// runSchedWorkload drives one seeded schedule/cancel/reschedule workload —
// equal-time ties, dense bursts, horizon-crossing and MaxTime-parked events,
// cancel churn — and returns the exact fire sequence.
func runSchedWorkload(mk func() Scheduler, seed int64) []fireRec {
	e := NewWith(mk())
	rng := rand.New(rand.NewSource(seed))
	rec := &fireRecorder{e: e}
	type schedRec struct {
		ev *Event
		at Time
	}
	var pending []schedRec
	id := 0
	sched := func() {
		var d Time
		switch rng.Intn(8) {
		case 0:
			d = 0 // tie with anything else scheduled this instant
		case 1, 2:
			d = Time(rng.Intn(64)) // intra-bucket dense
		case 3, 4:
			d = Time(rng.Intn(4096)) // a few buckets out
		case 5:
			d = Time(rng.Intn(2_000_000)) // straddles the wheel horizon
		case 6:
			d = Time(rng.Intn(80_000_000)) // far future: overflow tier
		case 7:
			d = MaxTime - e.Now() // parked timer
		}
		pending = append(pending, schedRec{e.AfterCall(d, rec, id), e.Now() + d})
		id++
	}
	for round := 0; round < 30; round++ {
		for i, n := 0, rng.Intn(24); i < n; i++ {
			sched()
		}
		// Cancel some pending events; reschedule half of those (the
		// cancel+schedule pattern Timer.Arm produces).
		for i := 0; i < len(pending)/5; i++ {
			j := rng.Intn(len(pending))
			pending[j].ev.Cancel()
			pending[j] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			if rng.Intn(2) == 0 {
				sched()
			}
		}
		e.RunUntil(e.Now() + Time(rng.Intn(3_000_000)))
		// Drop fired entries: everything at or before now has popped, and
		// its Event object may already back an unrelated schedule.
		live := pending[:0]
		for _, p := range pending {
			if p.at > e.Now() {
				live = append(live, p)
			}
		}
		pending = live
	}
	e.Run()
	return rec.recs
}

// The differential property: for any seeded workload, heap and wheel must
// produce byte-for-byte identical fire sequences — same callbacks, same
// order, same virtual times. This is the engine-level guarantee behind the
// figure CSVs' byte-identity across scheduler implementations.
func TestSchedulerDifferentialProperty(t *testing.T) {
	f := func(seed int64) bool {
		h := runSchedWorkload(NewHeapScheduler, seed)
		w := runSchedWorkload(NewWheelScheduler, seed)
		if len(h) != len(w) {
			t.Logf("seed %d: heap fired %d, wheel fired %d", seed, len(h), len(w))
			return false
		}
		for i := range h {
			if h[i] != w[i] {
				t.Logf("seed %d: diverge at %d: heap %+v, wheel %+v", seed, i, h[i], w[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Far-future events (MaxTime parks, blackout recoveries) must take the
// overflow tier, not force the wheel cursor to crawl empty revolutions —
// and must still fire in exact order relative to wheel residents.
func TestWheelOverflowTier(t *testing.T) {
	e := New()
	w := e.sched.(*wheelSched)
	var got []int
	oh := &orderHandler{got: &got}
	e.AtCall(MaxTime, oh, 99) // parked: way beyond the horizon
	e.AtCall(500, oh, 0)
	e.AtCall(90*Millisecond, oh, 2) // beyond the ~1 ms horizon
	e.AtCall(700*Microsecond, oh, 1)
	if w.overflow.Len() != 2 {
		t.Fatalf("overflow holds %d events, want 2 (MaxTime park + 90ms)", w.overflow.Len())
	}
	e.RunUntil(Second)
	want := []int{0, 1, 2}
	if len(got) != 3 {
		t.Fatalf("fired %v, want %v (MaxTime still parked)", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (the MaxTime park)", e.Len())
	}
}

// Scheduling behind an advanced cursor must rewind it: peeking at a distant
// next event moves the cursor forward, and a subsequent near-future schedule
// must still fire first.
func TestWheelRewindAfterPeek(t *testing.T) {
	e := New()
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	e.At(10_000, rec)
	e.At(500_000, rec)
	e.RunUntil(10_000) // fires the first; the trailing peek advances the cursor
	e.At(20_000, rec)  // behind the cursor now: forces a rewind
	e.Run()
	want := []Time{10_000, 20_000, 500_000}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire times %v, want %v", got, want)
		}
	}
}

// A bucket holding residents from different wheel revolutions (reachable
// through the raw Scheduler interface after deep cursor rewinds) must serve
// only the revolution that is due: opening the bucket moves only the due
// event into the fine slots, and the exact-scan fallback still finds the
// true minimum a revolution later.
func TestWheelMultiRevolutionBucket(t *testing.T) {
	w := NewWheelScheduler().(*wheelSched)
	w.cur = 1800                           // as if the cursor had advanced to bucket number 1800
	far := &Event{at: 2000 * 1024, seq: 1} // bucket number 2000 → slot 976
	w.Push(far)                            // sole resident: its bucket opens at once
	if w.open != 2000 || w.fine[0].head != far {
		t.Fatalf("sole resident not opened into the fine slots (open = %d)", w.open)
	}
	near := &Event{at: 976 * 1024, seq: 2} // bucket number 976 → same slot, rewinds cur
	w.Push(near)
	if w.count != 2 {
		t.Fatalf("wheel count = %d, want 2 (same slot, two revolutions)", w.count)
	}
	// The rewind closed bucket 2000: its fine slots were spliced back in
	// front of the coarse list the near event then joined.
	if l := w.buckets[976]; w.open != -1 || w.fineOcc.sum != 0 || l.head != far || far.next != near || l.tail != near {
		t.Fatalf("rewind did not close the open bucket onto slot 976 (open = %d)", w.open)
	}
	if got := w.Pop(); got != near {
		t.Fatalf("first Pop = %+v, want the near-revolution event", got)
	}
	// Opening bucket 976 moved only the due event; far stays coarse.
	if l := w.buckets[976]; l.head != far || l.tail != far || far.next != nil {
		t.Fatal("later-revolution resident left slot 976's coarse list")
	}
	// Only `far` remains, a full revolution ahead of cur: the bitmap walk
	// must not serve it early, and the exact scan must locate it.
	if got := w.Peek(); got != far {
		t.Fatalf("Peek = %+v, want the far-revolution event", got)
	}
	if w.cur != 2000 || w.open != 2000 {
		t.Fatalf("cur = %d, open = %d after the exact scan, want both 2000", w.cur, w.open)
	}
	if got := w.Pop(); got != far {
		t.Fatalf("second Pop = %+v, want the far-revolution event", got)
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", w.Len())
	}
}

// deepProbe wraps the wheel to witness that runDeepWorkload reaches the
// states it exists to cover: deep buckets, open buckets closed by an
// earlier push, and residents a full revolution past the cursor.
type deepProbe struct {
	*wheelSched
	popped   map[int64]int // events popped per bucket number
	closes   int
	laterRev int
}

func (p *deepProbe) Push(ev *Event) {
	w := p.wheelSched
	wasOpen, rewind := w.fineOcc.sum != 0, int64(ev.at)>>wheelShift < w.cur
	w.Push(ev)
	if !rewind {
		return
	}
	if wasOpen {
		p.closes++
	}
	for b := range w.buckets {
		for r := w.buckets[b].head; r != nil; r = r.next {
			if int64(r.at)>>wheelShift >= w.cur+wheelBuckets {
				p.laterRev++
			}
		}
	}
}

func (p *deepProbe) Pop() *Event {
	ev := p.wheelSched.Pop()
	if ev != nil {
		p.popped[int64(ev.at)>>wheelShift]++
	}
	return ev
}

// runDeepWorkload drives the engine at paper density: each round schedules
// a burst of 600 events over two 1.024 µs buckets at scattered sub-µs
// offsets (a quarter tie to the ns with the event before), churns cancels,
// peeks past a RunUntil deadline so the burst's bucket opens, plants
// residents just inside the horizon, then schedules before the open bucket
// — closing it and leaving those residents a revolution past the cursor.
func runDeepWorkload(s Scheduler, seed int64) []fireRec {
	e := NewWith(s)
	rng := rand.New(rand.NewSource(seed))
	rec := &fireRecorder{e: e}
	type schedRec struct {
		ev *Event
		at Time
	}
	var pending []schedRec
	id := 0
	sched := func(at Time) {
		pending = append(pending, schedRec{e.AtCall(at, rec, id), at})
		id++
	}
	for round := 0; round < 12; round++ {
		now := e.Now()
		base := now + 20*Microsecond + Time(rng.Intn(5000))
		at := base
		for i := 0; i < 600; i++ {
			if rng.Intn(4) != 0 {
				at = base + Time(rng.Intn(2048))
			}
			sched(at)
		}
		for i := 0; i < len(pending)/5; i++ {
			j := rng.Intn(len(pending))
			pending[j].ev.Cancel()
			pending[j] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			if rng.Intn(2) == 0 {
				sched(base + Time(rng.Intn(2048)))
			}
		}
		e.RunUntil(now + 2*Microsecond)
		for i := 0; i < 8; i++ {
			sched((Time(base)>>wheelShift+1010+Time(rng.Intn(14)))<<wheelShift + Time(rng.Intn(1024)))
		}
		for i := 0; i < 50; i++ {
			sched(e.Now() + Time(rng.Intn(2000)))
		}
		e.RunUntil(base + 3*Microsecond)
		live := pending[:0]
		for _, p := range pending {
			if p.at > e.Now() {
				live = append(live, p)
			}
		}
		pending = live
	}
	e.Run()
	return rec.recs
}

// Deep buckets are where a sorted-bucket wheel pays its memmove and where an
// unsorted one could lose (at, seq) order: the wheel must match the heap
// oracle exactly, and the probe must confirm every state was reached.
func TestSchedulerDeepBucketDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		h := runDeepWorkload(NewHeapScheduler(), seed)
		p := &deepProbe{wheelSched: NewWheelScheduler().(*wheelSched), popped: map[int64]int{}}
		w := runDeepWorkload(p, seed)
		if len(h) != len(w) {
			t.Fatalf("seed %d: heap fired %d, wheel fired %d", seed, len(h), len(w))
		}
		for i := range h {
			if h[i] != w[i] {
				t.Fatalf("seed %d: diverge at %d: heap %+v, wheel %+v", seed, i, h[i], w[i])
			}
		}
		deepest := 0
		for _, n := range p.popped {
			deepest = max(deepest, n)
		}
		if deepest < 200 || p.closes == 0 || p.laterRev == 0 {
			t.Fatalf("seed %d: workload too shallow: deepest bucket %d, closes %d, later-revolution residents %d",
				seed, deepest, p.closes, p.laterRev)
		}
	}
}

// A raw Scheduler caller may push in any seq order, earlier than what it
// already popped, and across revolutions. The wheel's per-slot sorted
// insert must keep it identical to the heap for every Push/Peek/Pop mix.
func TestSchedulerRawOutOfSeqOrder(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, w := NewHeapScheduler(), NewWheelScheduler()
		seqs := rng.Perm(4000)
		for step, pushed := 0, 0; h.Len() > 0 || pushed < len(seqs); step++ {
			if pushed < len(seqs) && rng.Intn(3) != 0 {
				var at Time
				switch rng.Intn(6) {
				case 0, 1, 2:
					at = 5000*1024 + Time(rng.Intn(8)) // one deep bucket, ns ties
				case 3:
					at = Time(rng.Intn(6000)) * 1024 // earlier or later buckets: rewinds
				case 4:
					at = Time(5000+wheelBuckets+rng.Intn(8)) * 1024 // a revolution on
				case 5:
					at = Time(rng.Int63n(1 << 40)) // overflow
				}
				seq := uint64(seqs[pushed])
				h.Push(&Event{at: at, seq: seq})
				w.Push(&Event{at: at, seq: seq})
				pushed++
				continue
			}
			hp, wp := h.Peek(), w.Peek()
			if rng.Intn(2) == 0 {
				hp, wp = h.Pop(), w.Pop()
			}
			if hp == nil || wp == nil {
				if hp != wp {
					t.Fatalf("seed %d step %d: heap %v, wheel %v", seed, step, hp, wp)
				}
				continue
			}
			if hp.at != wp.at || hp.seq != wp.seq {
				t.Fatalf("seed %d step %d: heap (%d,%d), wheel (%d,%d)", seed, step, hp.at, hp.seq, wp.at, wp.seq)
			}
		}
		if w.Len() != 0 {
			t.Fatalf("seed %d: wheel holds %d after the heap drained", seed, w.Len())
		}
	}
}

// TestAllocsDeepBucketBurst: a burst of thousands of events in one 1.024 µs
// bucket costs nothing in steady state and leaves nothing behind — the
// intrusive lists have no backing arrays to hold their peak capacity.
func TestAllocsDeepBucketBurst(t *testing.T) {
	e := New()
	w := e.sched.(*wheelSched)
	h := &nopHandler{}
	rng := rand.New(rand.NewSource(1))
	offs := make([]Time, 4096)
	for i := range offs {
		offs[i] = Time(rng.Intn(1024)) // sub-µs offsets, many equal-ns ties
	}
	push := func() {
		base := (e.Now()>>wheelShift + 2) << wheelShift
		for _, d := range offs {
			e.AtCall(base+d, h, nil)
		}
	}
	push()
	if st := w.SchedStats(); st.Resident != len(offs) || st.Buckets != 1 {
		t.Fatalf("burst occupancy %+v, want %d residents in 1 bucket", st, len(offs))
	}
	e.Run() // warms the event pool
	if avg := testing.AllocsPerRun(20, func() { push(); e.Run() }); avg != 0 {
		t.Fatalf("deep-bucket burst allocates %.1f/op, want 0", avg)
	}
	if w.buckets != [wheelBuckets]evList{} || w.fine != [wheelBuckets]evList{} ||
		w.occ != (bitmap{}) || w.fineOcc != (bitmap{}) || w.count != 0 {
		t.Fatal("drained wheel still references events")
	}
}

// chainHop hops via ContinueCall, recording the firing event's identity at
// each hop (white-box) and the event returned by ContinueCall.
type chainHop struct {
	e        *Engine
	hopsLeft int
	entered  []*Event // e.firing observed at each hop entry
	armed    []*Event // what ContinueCall returned at each hop
	times    []Time
}

func (c *chainHop) OnEvent(any) {
	c.entered = append(c.entered, c.e.firing)
	c.times = append(c.times, c.e.Now())
	if c.hopsLeft > 0 {
		c.hopsLeft--
		c.armed = append(c.armed, c.e.ContinueCall(7, c, nil))
	}
}

// ContinueCall must re-arm the very event object that is firing — the whole
// chain rides one Event — while firing at exactly the AfterCall times.
func TestContinueCallReusesFiringEvent(t *testing.T) {
	e := New()
	c := &chainHop{e: e, hopsLeft: 5}
	e.AfterCall(3, c, nil)
	e.Run()
	if len(c.entered) != 6 {
		t.Fatalf("chain ran %d hops, want 6", len(c.entered))
	}
	for i, at := range c.times {
		if want := Time(3 + 7*i); at != want {
			t.Fatalf("hop %d fired at %v, want %v", i, at, want)
		}
	}
	for i, armed := range c.armed {
		if armed != c.entered[i] {
			t.Fatalf("hop %d: ContinueCall returned a different object than the firing event", i)
		}
		if armed != c.entered[i+1] {
			t.Fatalf("hop %d: next hop fired on a different object", i)
		}
	}
}

// ContinueCall's tie-order must be exactly AfterCall's at the same program
// point: competitors scheduled at the same instant fire in call order, no
// matter which form each call used.
func TestContinueCallTieOrderMatchesAfterCall(t *testing.T) {
	e := New()
	var got []int
	oh := &orderHandler{got: &got}
	e.At(0, func() {
		e.AfterCall(10, oh, 0)
		e.ContinueCall(10, oh, 1) // claims the firing event; seq follows the AfterCall
		e.AfterCall(10, oh, 2)
		e.ContinueCall(10, oh, 3) // firing already claimed: falls back to pooled path
	})
	e.Run()
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie order %v, want %v", got, want)
		}
	}
}

// Outside any callback there is no firing event; ContinueCall must degrade
// to a plain scheduled call.
func TestContinueCallOutsideCallback(t *testing.T) {
	e := New()
	var got []int
	oh := &orderHandler{got: &got}
	e.ContinueCall(5, oh, 7)
	e.Run()
	if len(got) != 1 || got[0] != 7 || e.Now() != 5 {
		t.Fatalf("got %v at %v, want [7] at 5", got, e.Now())
	}
}

// Timer bound via BindCall (the form pooled structs embed) must dispatch to
// the handler and re-arm without allocating.
func TestTimerBindCall(t *testing.T) {
	e := New()
	h := &countHandler{}
	arg := new(int)
	var tm Timer
	tm.BindCall(e, h, arg)
	tm.Arm(10)
	tm.Arm(20)
	e.Run()
	if h.n != 1 {
		t.Fatalf("bound timer fired %d times, want 1", h.n)
	}
	if h.args[0] != any(arg) {
		t.Fatalf("bound timer arg = %v, want %p", h.args[0], arg)
	}
	if tm.Pending() {
		t.Fatal("timer still pending after firing")
	}
}

type nopHandler struct{}

func (*nopHandler) OnEvent(any) {}

// denseDeltas replays the hot path's near-monotonic pattern: every schedule
// is now+d for a d from the handful of scales the simulator actually emits —
// serialization times, propagation delays, pacing gaps, slice ticks —
// spanning from sub-µs to just under the wheel horizon.
var denseDeltas = []Time{
	720, 500, 1500, 5 * Microsecond, 720, 40 * Microsecond, 1200,
	180 * Microsecond, 500, 950 * Microsecond, 9 * Microsecond, 720,
}

// benchSchedule measures one push+pop round trip at a steady backlog, with
// per-op deltas drawn from next.
func benchSchedule(b *testing.B, mk func() Scheduler, next func(i int) Time, backlog int) {
	e := NewWith(mk())
	h := &nopHandler{}
	for i := 0; i < backlog; i++ {
		e.AfterCall(next(i), h, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterCall(next(i), h, nil)
		e.Step()
	}
}

// BenchmarkEngineSchedule is the scheduler acceptance benchmark: on the
// dense workload the wheel must beat the heap by ≥25% ns/op (tracked in
// BENCH_engine.json via `make bench`). Deep scatters every schedule over
// the next 16 buckets, so the 4096 backlog keeps about 250 events per
// 1.024 µs bucket — websearch-ll's density at paper scale, where a sorted
// bucket pays a memmove per push. Sparse scatters events uniformly across
// 50 ms — mostly beyond the horizon, exercising the overflow tier, where
// the wheel is expected to roughly match the heap, not beat it.
func BenchmarkEngineSchedule(b *testing.B) {
	dense := func(i int) Time { return denseDeltas[i%len(denseDeltas)] }
	deepRng := rand.New(rand.NewSource(1))
	deep := func(int) Time { return Time(deepRng.Int63n(16 << wheelShift)) }
	sparseRng := rand.New(rand.NewSource(1))
	sparse := func(int) Time { return Time(sparseRng.Int63n(int64(50*Millisecond))) + 1 }
	cases := []struct {
		name    string
		mk      func() Scheduler
		next    func(i int) Time
		backlog int
	}{
		{"dense/wheel", NewWheelScheduler, dense, 4096},
		{"dense/heap", NewHeapScheduler, dense, 4096},
		{"deep/wheel", NewWheelScheduler, deep, 4096},
		{"deep/heap", NewHeapScheduler, deep, 4096},
		{"sparse/wheel", NewWheelScheduler, sparse, 4096},
		{"sparse/heap", NewHeapScheduler, sparse, 4096},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { benchSchedule(b, c.mk, c.next, c.backlog) })
	}
}
