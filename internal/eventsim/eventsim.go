// Package eventsim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock with nanosecond resolution and a
// pluggable pending-event store (see Scheduler): by default a two-level
// hierarchical timing wheel — 1.024 µs buckets of FIFO lists, each opened
// into 1 ns FIFO slots when the cursor reaches it — that schedules and pops
// the dense, near-monotonic timestamp streams of packet simulation in O(1)
// however many events share a bucket, with a binary-heap implementation
// retained as a differential-testing oracle. Events scheduled for the same
// instant fire in FIFO order of scheduling — every Scheduler must preserve
// the (time, seq) total order exactly — which, together with explicit
// seeding of all random number generators, makes every simulation in this
// repository fully deterministic and reproducible.
//
// The engine is intentionally single-threaded: datacenter packet simulation
// is dominated by fine-grained causally-ordered events, and a lock-free
// single-goroutine loop is both faster and easier to reason about than a
// parallel scheduler. Callers that want parallelism run independent engines
// (e.g. one per benchmark scenario) in separate goroutines.
package eventsim

import (
	"fmt"
	"math"

	"github.com/opera-net/opera/internal/freelist"
)

// Time is a point in virtual time, measured in integer nanoseconds from the
// start of the simulation. Durations are also expressed as Time; the zero
// value is the simulation epoch.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time. It is used as an
// "infinitely far in the future" sentinel (e.g. for disabled timers).
const MaxTime Time = math.MaxInt64

// String formats the time with an adaptive unit, e.g. "13.200µs" or "1.5ms".
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
	}
}

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Handler is a pre-bound event callback. Scheduling a Handler with AtCall
// or AfterCall avoids the per-event closure allocation of At/After: the
// handler is a long-lived object (a port, a pacer, a transmission session)
// and arg carries the per-event state — typically a pointer, which converts
// to the any interface without allocating. Together with the engine's event
// free list this makes steady-state scheduling allocation-free.
type Handler interface {
	OnEvent(arg any)
}

// Event is a scheduled callback. Events are returned by the scheduling
// methods of Engine and may be cancelled until they fire. Event objects are
// pooled: once an event has fired (or its cancelled slot has drained from
// the queue) the engine recycles the object for a future schedule, so
// callers must not retain or use an Event past its scheduled time — which
// was already the contract. The fields an implementation of Scheduler
// orders by are at and seq; nothing in the Event records which scheduler
// holds it.
type Event struct {
	at        Time
	seq       uint64 // scheduling order; breaks ties at equal time
	fn        func()
	h         Handler // pre-bound form; takes precedence over fn
	arg       any
	next      *Event // intrusive list link, owned by the wheel scheduler
	pending   bool   // in a scheduler and not yet popped
	cancelled bool
}

// At reports the virtual time at which the event is (or was) scheduled.
func (e *Event) At() Time { return e.at }

// Cancel prevents a pending event from firing, reporting whether it was
// still pending. Cancelling twice is a no-op. Cancel must not be called on
// an event that has already fired: events are pooled, so the object may by
// then back a different, unrelated schedule, and a stale Cancel would
// silently cancel that one instead. Holders that may outlive their event
// must drop the reference when it fires (as Timer does).
func (e *Event) Cancel() bool {
	if e.cancelled || !e.pending {
		return false
	}
	e.cancelled = true
	return true
}

// before reports whether e is ordered before o in the engine's total event
// order: ascending time, ties broken by ascending seq (scheduling order).
// This is the one ordering every Scheduler implementation must agree on.
func (e *Event) before(o *Event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Scheduler is the engine's pending-event store. Push inserts an event;
// Pop removes and returns the minimum event in (time, seq) order, nil when
// empty; Peek returns that minimum without removing it; Len reports how
// many events are stored (including cancelled ones, which drain lazily).
//
// The ordering contract is exact, not approximate: two schedulers fed the
// same Push sequence must Pop the identical event sequence, including FIFO
// order among events at the same instant (the intra-bucket seq-FIFO
// invariant). The wheel implementation (NewWheelScheduler, the default) is
// O(1) for the dense near-monotonic common case; the heap implementation
// (NewHeapScheduler) is the simple O(log n) oracle the differential tests
// compare against. Implementations are not safe for concurrent use.
type Scheduler interface {
	Push(*Event)
	Pop() *Event
	Peek() *Event
	Len() int
}

// Engine is a discrete-event scheduler. The zero value is not usable; call
// New or NewWith.
type Engine struct {
	now    Time
	sched  Scheduler
	seq    uint64
	nSteps uint64 // total events executed, meta events included

	// nMetaSteps and metaPending account for meta events (AtMetaCall):
	// observer bookkeeping that must stay invisible to Len and Steps so
	// attaching an observer cannot perturb done-detection or reported
	// effort. They are maintained by the meta scheduling entry points and
	// MetaStep — not on the Step hot path, which stays branch-free.
	nMetaSteps  uint64
	metaPending int

	// nCancelled counts cancelled events drained from the scheduler
	// (in Step and peek, where the cancellation branch already exists).
	nCancelled uint64

	// firing is the event whose callback is currently executing. Holding
	// it (instead of recycling before the callback runs) lets ContinueCall
	// re-arm the same object for the next hop of a deterministic chain —
	// serialize→propagate→deliver, pacer and pump self-rescheduling —
	// without a free-list round trip.
	firing *Event

	// free is the event free list. The engine is single-goroutine by
	// design, so a plain LIFO beats sync.Pool: no locking, and the pool
	// survives garbage collections (GC clears sync.Pools, which would
	// reintroduce steady-state allocations).
	free freelist.Pool[Event]
}

// New returns an empty engine with the clock at the epoch, using the
// default timing-wheel scheduler.
func New() *Engine {
	return NewWith(NewWheelScheduler())
}

// NewWith returns an empty engine using the given pending-event store.
// Simulation results are scheduler-independent by contract; NewWith exists
// for differential testing (wheel vs heap) and benchmarking.
func NewWith(s Scheduler) *Engine {
	return &Engine{sched: s}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len returns the number of pending (non-cancelled) simulation events.
// Cancelled events still occupy scheduler slots until their scheduled time,
// so Len is an upper bound on the number of callbacks that will actually
// run. Meta events (AtMetaCall) are excluded: an attached observer must not
// keep "the queue is non-empty" true on its own, or done-detection loops
// like Cluster.RunUntilDone would behave differently under observation.
func (e *Engine) Len() int { return e.sched.Len() - e.metaPending }

// Steps returns the total number of simulation events executed so far. It
// is useful for reporting simulation effort in benchmarks. Meta events are
// excluded so reported effort is identical with and without an observer.
func (e *Engine) Steps() uint64 { return e.nSteps - e.nMetaSteps }

// alloc draws an event from the free list, falling back to the heap only
// when the pool is dry (startup, or a new high-water mark of concurrently
// pending events).
func (e *Engine) alloc() *Event {
	if ev := e.free.Get(); ev != nil {
		return ev
	}
	return new(Event)
}

// recycle zeroes an event (dropping callback and arg references so they can
// be collected) and returns it to the free list.
func (e *Engine) recycle(ev *Event) {
	*ev = Event{}
	e.free.Put(ev)
}

// push stamps the next seq onto the event and hands it to the scheduler.
func (e *Engine) push(ev *Event) {
	ev.seq = e.seq
	e.seq++
	ev.pending = true
	e.sched.Push(ev)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: such bugs silently corrupt causality and must not be masked.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.at, ev.fn = t, fn
	e.push(ev)
	return ev
}

// After schedules fn to run d nanoseconds after the current time.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// AtCall schedules h.OnEvent(arg) at absolute virtual time t — the
// closure-free counterpart of At. Tie-order semantics are identical: events
// at equal times fire in scheduling order regardless of which form
// scheduled them.
func (e *Engine) AtCall(t Time, h Handler, arg any) *Event {
	if t < e.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.at, ev.h, ev.arg = t, h, arg
	e.push(ev)
	return ev
}

// AfterCall schedules h.OnEvent(arg) d nanoseconds after the current time —
// the closure-free counterpart of After.
func (e *Engine) AfterCall(d Time, h Handler, arg any) *Event {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	return e.AtCall(e.now+d, h, arg)
}

// ContinueCall schedules h.OnEvent(arg) d nanoseconds after the current
// time by re-arming the event object that is currently firing — the
// batched form for deterministic per-packet chains (a port's
// serialize→propagate→deliver hops, a pacer or session pump rescheduling
// itself). The chain then rides a single Event end to end: each hop is one
// scheduler push, with no recycle/alloc round trip between hops.
//
// Tie-order semantics are exactly those of AfterCall at the same program
// point — the seq is assigned at the moment of the call — so replacing an
// AfterCall inside a callback with ContinueCall cannot change any event
// ordering, only the object that backs it. At most one ContinueCall can
// claim the firing event; later schedules in the same callback, and calls
// made outside any callback, fall back to the pooled AfterCall path.
func (e *Engine) ContinueCall(d Time, h Handler, arg any) *Event {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	ev := e.firing
	if ev == nil {
		return e.AtCall(e.now+d, h, arg)
	}
	e.firing = nil
	ev.at, ev.h, ev.arg = e.now+d, h, arg
	ev.fn = nil
	e.push(ev)
	return ev
}

// Step executes the single next pending event, advancing the clock to its
// timestamp. It reports false if the queue is empty.
func (e *Engine) Step() bool {
	for {
		ev := e.sched.Pop()
		if ev == nil {
			return false
		}
		ev.pending = false
		if ev.cancelled {
			e.nCancelled++
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.nSteps++
		// Hold the event as the firing slot while the callback runs: a
		// ContinueCall inside the callback re-arms it for the chain's next
		// hop; otherwise it is recycled afterwards.
		h, arg, fn := ev.h, ev.arg, ev.fn
		e.firing = ev
		if h != nil {
			h.OnEvent(arg)
		} else {
			fn()
		}
		if e.firing != nil {
			e.recycle(e.firing)
			e.firing = nil
		}
		return true
	}
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to exactly deadline. Events scheduled after deadline remain pending.
func (e *Engine) RunUntil(deadline Time) {
	for {
		ev := e.peek()
		if ev == nil || ev.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d nanoseconds of virtual time.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// peek returns the next non-cancelled event without executing it, discarding
// any cancelled events encountered on the way.
func (e *Engine) peek() *Event {
	for {
		ev := e.sched.Peek()
		if ev == nil {
			return nil
		}
		if !ev.cancelled {
			return ev
		}
		e.sched.Pop()
		ev.pending = false
		e.nCancelled++
		e.recycle(ev)
	}
}
