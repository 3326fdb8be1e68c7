// Package idtable is a dense table of per-record state keyed by int64 IDs
// from a counter: the simulator's flow IDs. A lookup is one subtraction and
// one slice index, so finding or admitting a flow never hashes.
//
// The table is one slice plus a moving base ID: slot i holds the record of
// ID base+i. Released records leave nil slots behind. The table compacts
// into its consumed front before it grows, and moves to a smaller array once
// the live span (lowest live ID to highest slot) collapses, so its memory
// follows the live ID span, not the count of IDs ever stored.
//
// IDs are never reused for different records, so the table keeps no
// generation counters: an ID below the base, past the end, or at a nil slot
// is released (or was never put), and Get returns nil for it. A stale ID
// finds nothing, never another ID's record. Put may come in any order,
// including below the base: a receiver creates its state in packet-arrival
// order, so an older flow's first packet can arrive after newer flows were
// released.
//
// A Table is not safe for concurrent use; like the engine it serves, it
// belongs to one goroutine.
package idtable

// minShrink is the capacity up to which a table never moves to a smaller
// array: a small array costs less to keep than to rebuild on the next Put.
const minShrink = 64

// Table maps int64 IDs to *T. The zero value is an empty table.
//
// Invariants: slots[:head] and the backing array past len(slots) hold only
// nil, and live counts the non-nil slots.
type Table[T any] struct {
	slots []*T
	base  int64 // ID of slots[0]
	head  int   // index of the lowest live record (0 when empty)
	live  int
}

// Get returns the record of id, or nil when id has none.
func (t *Table[T]) Get(id int64) *T {
	if i := uint64(id - t.base); i < uint64(len(t.slots)) {
		return t.slots[i]
	}
	return nil
}

// Len returns the number of records in the table.
func (t *Table[T]) Len() int { return t.live }

// Put stores v, which must not be nil, as the record of id.
func (t *Table[T]) Put(id int64, v *T) {
	if v == nil {
		panic("idtable: Put of a nil record")
	}
	if t.live == 0 {
		t.base = id
	}
	switch end := t.base + int64(len(t.slots)); {
	case id < t.base:
		t.span(id, end)
	case id >= end && id-t.base < int64(cap(t.slots)):
		t.slots = t.slots[:id-t.base+1]
	case id >= end:
		t.span(t.base+int64(t.head), id+1)
	}
	i := int(id - t.base)
	if t.slots[i] == nil {
		t.live++
	}
	t.slots[i] = v
	t.head = min(t.head, i)
}

// Delete removes the record of id, if it has one.
func (t *Table[T]) Delete(id int64) {
	i := uint64(id - t.base)
	if i >= uint64(len(t.slots)) || t.slots[i] == nil {
		return
	}
	t.slots[i] = nil
	if t.live--; t.live == 0 {
		t.slots, t.head = t.slots[:0], 0
	}
	for t.head < len(t.slots) && t.slots[t.head] == nil {
		t.head++
	}
	if n := len(t.slots) - t.head; cap(t.slots) > minShrink && 4*n < cap(t.slots) {
		if n == 0 {
			t.slots = nil
			return
		}
		t.move(make([]*T, 2*n), t.base+int64(t.head), t.base+int64(len(t.slots)))
	}
}

// span makes the slots cover IDs [lo, hi), a range containing every live
// record: in place, compacting into the consumed front, when the new span
// fills at most half the array; otherwise in an array twice the new span.
func (t *Table[T]) span(lo, hi int64) {
	if n := int(hi - lo); n <= cap(t.slots)/2 {
		t.move(t.slots[:cap(t.slots)], lo, hi)
	} else {
		t.move(make([]*T, max(2*n, 8)), lo, hi)
	}
}

// move re-bases the table onto dst, a fresh array or the current one, so
// that its slots cover IDs [lo, hi). Every live record keeps its ID; every
// slot it leaves behind is cleared.
func (t *Table[T]) move(dst []*T, lo, hi int64) {
	recs := t.slots[t.head:]
	off := int(t.base + int64(t.head) - lo)
	stale := min(len(t.slots), len(dst))
	copy(dst[off:], recs)
	clear(dst[:off])
	if end := off + len(recs); end < stale {
		clear(dst[end:stale])
	}
	t.slots, t.base, t.head = dst[:hi-lo], lo, 0
}
