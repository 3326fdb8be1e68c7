package eventsim

import "math/bits"

// wheelSched is the default Scheduler: a two-level hierarchical timing wheel
// (Varghese & Lauck, SOSP '87) whose lowest level is 1 ns wide, backed by a
// binary-heap overflow tier for events beyond the wheel's horizon.
//
// At paper scale one 1.024 µs bucket holds hundreds of events at scattered
// sub-µs offsets, so a bucket kept sorted pays a binary search and a memmove
// for almost every push. This wheel never sorts. Coarse buckets (1024 ×
// 1.024 µs) are intrusive FIFO lists through Event.next, and a push
// appends; since the engine stamps seq at push, append order is already
// (at, seq) order among the events of any one nanosecond. When the cursor
// reaches a bucket, its due events move, in list order, into 1024 one-ns
// fine slots — FIFO lists of one instant each — with their own bitmap; a
// push into the open bucket appends to its slot. A push earlier than the
// open bucket (a RunUntil peek opened one past its deadline) closes it,
// splicing the slots back onto its coarse list in time order. A raw
// Scheduler caller pushing out of seq order gets a sorted insert within its
// slot, so the ordering contract holds for any push sequence.
//
// Anything a full horizon (≈1.05 ms) or more past the cursor — MaxTime
// parks, blackout recoveries — goes to the overflow heap rather than make
// the cursor crawl empty revolutions. Overflow events never migrate: Pop
// and Peek serve the smaller of the wheel minimum and the overflow top.
//
// Invariants:
//   - cur never exceeds the bucket number of any wheel-resident event
//     (Push rewinds it), so the bitmap walk cannot pass an unfired event.
//   - open is -1 or cur; only bucket number open has events in fine slots,
//     and a non-empty fine level holds the wheel minimum.
//   - every fine slot is sorted by seq (the intra-bucket seq-FIFO
//     invariant), so its head is the slot's minimum.
//   - after rewinds a coarse list may hold later revolutions; opening moves
//     only the due revolution's events.
type wheelSched struct {
	buckets [wheelBuckets]evList // coarse level, one bucket per 1.024 µs
	fine    [wheelBuckets]evList // the open bucket, one slot per ns
	occ     bitmap               // occupied coarse buckets
	fineOcc bitmap               // occupied fine slots
	cur     int64                // absolute bucket number the walk resumes from
	open    int64                // bucket number held in the fine slots, or -1
	count   int                  // events resident in the wheel (not overflow)

	overflow heapSched // events ≥ one horizon past cur at push time
}

const (
	// 1.024 µs buckets of 1024 one-ns slots, so one mask serves both
	// levels. The ≈1.05 ms horizon is beyond slice periods and NDP RTOs, so
	// only genuinely far-future events hit the overflow heap.
	wheelShift   = 10
	wheelBuckets = 1 << wheelShift
	wheelMask    = wheelBuckets - 1
	wheelWords   = wheelBuckets / 64
)

// evList is an intrusive singly linked FIFO of events through Event.next.
type evList struct{ head, tail *Event }

func (l *evList) append(ev *Event) {
	if l.tail == nil {
		l.head = ev
	} else {
		l.tail.next = ev
	}
	l.tail = ev
}

// insert adds ev in (at, seq) order: an append unless pushed out of order.
func (l *evList) insert(ev *Event) {
	if l.tail == nil || l.tail.before(ev) {
		l.append(ev)
		return
	}
	p := &l.head
	for (*p).before(ev) {
		p = &(*p).next
	}
	ev.next, *p = *p, ev
}

// bitmap is an occupancy set of wheelBuckets bits, with a summary word
// (bit i set iff words[i] != 0) so finding a set bit is O(1).
type bitmap struct {
	words [wheelWords]uint64
	sum   uint16
}

func (m *bitmap) set(b int) {
	m.words[b>>6] |= 1 << (uint(b) & 63)
	m.sum |= 1 << uint(b>>6)
}

func (m *bitmap) clear(b int) {
	if m.words[b>>6] &^= 1 << (uint(b) & 63); m.words[b>>6] == 0 {
		m.sum &^= 1 << uint(b>>6)
	}
}

// first returns the lowest set bit of a non-empty bitmap.
func (m *bitmap) first() int {
	wi := bits.TrailingZeros16(m.sum)
	return wi<<6 + bits.TrailingZeros64(m.words[wi])
}

// next returns the cyclic distance from position p to the nearest set bit
// at or after it, or -1 if none. Rotating the summary so the words after
// p's come first makes "nearest non-empty word" one TrailingZeros16.
func (m *bitmap) next(p int) int {
	wi := p >> 6
	if word := m.words[wi] >> (uint(p) & 63); word != 0 {
		return bits.TrailingZeros64(word)
	}
	rot := bits.RotateLeft16(m.sum, -(wi + 1))
	if rot == 0 {
		return -1
	}
	tz := bits.TrailingZeros16(rot)
	// tz == wheelWords-1 wraps back to p's own word: its bits below p are
	// a full revolution ahead, which the unmasked TrailingZeros64 handles.
	wj := (wi + 1 + tz) & (wheelWords - 1)
	return 64 - int(uint(p)&63) + tz<<6 + bits.TrailingZeros64(m.words[wj])
}

// NewWheelScheduler returns the timing-wheel store, the engine default.
func NewWheelScheduler() Scheduler { return &wheelSched{open: -1} }

func (w *wheelSched) Len() int { return w.count + w.overflow.Len() }

// SchedStats implements SchedulerStats: wheel residents, occupied buckets
// (the open one counts while its fine slots hold events), overflow length.
func (w *wheelSched) SchedStats() SchedStats {
	buckets := 0
	for _, word := range w.occ.words {
		buckets += bits.OnesCount64(word)
	}
	if b := int(w.open & wheelMask); w.fineOcc.sum != 0 && w.occ.words[b>>6]&(1<<(uint(b)&63)) == 0 {
		buckets++
	}
	return SchedStats{Resident: w.count, Buckets: buckets, Overflow: w.overflow.Len()}
}

func (w *wheelSched) Push(ev *Event) {
	abs := int64(ev.at) >> wheelShift
	if abs < w.cur {
		// Rewind: the walk must never resume past a resident event.
		w.close()
		w.cur = abs
	}
	if abs >= w.cur+wheelBuckets {
		w.overflow.Push(ev)
		return
	}
	if w.count == 0 {
		// Sole resident: open its bucket at once, so a lightly loaded
		// engine alternating push and pop never walks the bitmap.
		w.cur, w.open = abs, abs
	}
	w.count++
	if abs == w.open {
		w.pushFine(ev)
		return
	}
	b := int(abs & wheelMask)
	w.buckets[b].append(ev)
	w.occ.set(b)
}

func (w *wheelSched) pushFine(ev *Event) {
	s := int(ev.at) & wheelMask
	w.fine[s].insert(ev)
	w.fineOcc.set(s)
}

func (w *wheelSched) Pop() *Event {
	wm, over := w.min()
	if over {
		ev := w.overflow.Pop()
		// Empty wheel: let the cursor track time through an overflow-only
		// phase, so the next near-future Push lands in the wheel.
		if abs := int64(ev.at) >> wheelShift; w.count == 0 && abs > w.cur {
			w.cur, w.open = abs, -1
		}
		return ev
	}
	if wm == nil {
		return nil
	}
	// min served wm from the head of its fine slot.
	s := int(wm.at) & wheelMask
	l := &w.fine[s]
	if l.head = wm.next; l.head == nil {
		l.tail = nil
		w.fineOcc.clear(s)
	}
	wm.next = nil
	w.count--
	return wm
}

func (w *wheelSched) Peek() *Event {
	ev, _ := w.min()
	return ev
}

// min returns the overall minimum event, reporting whether it is the
// overflow top; a wheel minimum is the head of the first fine slot.
func (w *wheelSched) min() (*Event, bool) {
	var wm *Event
	if w.fineOcc.sum != 0 || w.refill() {
		wm = w.fine[w.fineOcc.first()].head
	}
	if om := w.overflow.Peek(); om != nil && (wm == nil || om.before(wm)) {
		return om, true
	}
	return wm, false
}

// refill opens the next due bucket into the empty fine level, or reports an
// empty wheel. The bitmap walk covers one revolution; if it finds only later
// revolutions (after deep rewinds), an exact scan of the lists takes over.
func (w *wheelSched) refill() bool {
	if w.count == 0 {
		return false
	}
	for abs, limit := w.cur, w.cur+wheelBuckets; ; abs++ {
		d := w.occ.next(int(abs & wheelMask))
		if abs += int64(d); d < 0 || abs >= limit {
			break
		}
		if w.openBucket(abs) {
			return true
		}
		// Only later-revolution residents here; keep walking.
	}
	var best *Event
	for b := range w.buckets {
		for ev := w.buckets[b].head; ev != nil; ev = ev.next {
			if best == nil || ev.before(best) {
				best = ev
			}
		}
	}
	return w.openBucket(int64(best.at) >> wheelShift)
}

// openBucket moves bucket number abs's due events, in list order, into the
// fine slots and reports whether there were any. Residents of later
// revolutions stay on the coarse list. The fine level must be empty.
func (w *wheelSched) openBucket(abs int64) bool {
	b := int(abs & wheelMask)
	var keep evList
	for ev := w.buckets[b].head; ev != nil; {
		next := ev.next
		ev.next = nil
		if int64(ev.at)>>wheelShift == abs {
			w.pushFine(ev)
		} else {
			keep.append(ev)
		}
		ev = next
	}
	if w.buckets[b] = keep; keep.head == nil {
		w.occ.clear(b)
	}
	if w.fineOcc.sum == 0 {
		return false
	}
	w.cur, w.open = abs, abs
	return true
}

// close splices the open bucket's fine slots, in time order, back onto the
// front of its coarse list, ahead of any later-revolution residents.
func (w *wheelSched) close() {
	if w.fineOcc.sum != 0 {
		var chain evList
		for w.fineOcc.sum != 0 {
			s := w.fineOcc.first()
			chain.append(w.fine[s].head)
			chain.tail = w.fine[s].tail
			w.fine[s] = evList{}
			w.fineOcc.clear(s)
		}
		b := int(w.open & wheelMask)
		l := &w.buckets[b]
		if chain.tail.next = l.head; l.tail == nil {
			l.tail = chain.tail
		}
		l.head = chain.head
		w.occ.set(b)
	}
	w.open = -1
}
