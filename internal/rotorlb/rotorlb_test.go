package rotorlb

import (
	"testing"

	"github.com/opera-net/opera/internal/sim"
)

func seg(host int32, bytes int64) segment {
	return segment{f: &sim.Flow{ID: 1}, host: host, bytes: bytes}
}

func TestSegQueueCarve(t *testing.T) {
	var q segQueue
	q.push(seg(1, 4000))
	q.push(seg(2, 1000))
	if q.bytes != 5000 {
		t.Fatalf("bytes = %d", q.bytes)
	}
	c, ok := q.carve(1500)
	if !ok || c.bytes != 1500 || c.host != 1 {
		t.Fatalf("carve = %+v ok=%v", c, ok)
	}
	c, _ = q.carve(3000)
	if c.bytes != 2500 || c.host != 1 {
		t.Fatalf("second carve should drain the head segment: %+v", c)
	}
	c, _ = q.carve(1 << 40)
	if c.bytes != 1000 || c.host != 2 {
		t.Fatalf("third carve = %+v", c)
	}
	if _, ok := q.carve(1); ok {
		t.Fatal("carve from empty queue succeeded")
	}
	if q.bytes != 0 {
		t.Fatalf("residual bytes %d", q.bytes)
	}
}

func TestSegQueuePushFront(t *testing.T) {
	var q segQueue
	q.push(seg(1, 1000))
	q.pushFront(seg(9, 500)) // NACK requeue goes to the head
	c, _ := q.carve(1 << 40)
	if c.host != 9 || c.bytes != 500 {
		t.Fatalf("head = %+v, want the requeued segment", c)
	}
}

// pushFront shifts in place; the resulting order must match prepending to
// a fresh slice, whatever the queue's length, capacity and consumed front.
func TestSegQueuePushFrontOrder(t *testing.T) {
	var q segQueue
	var want []segment
	for i := int32(0); i < 200; i++ {
		s := seg(i, int64(100+i))
		switch i % 5 {
		case 0, 3:
			q.pushFront(s)
			want = append([]segment{s}, want...)
		case 1:
			q.push(s)
			want = append(want, s)
		case 2:
			if _, ok := q.carve(1 << 40); ok {
				want = want[1:]
			}
		case 4:
			// An exhausted head: peekHost re-slices past it, leaving a
			// consumed front in the backing array.
			q.pushFront(segment{f: s.f, host: s.host})
			q.peekHost()
		}
		if len(q.segs) != len(want) {
			t.Fatalf("step %d: len %d, want %d", i, len(q.segs), len(want))
		}
		for j := range want {
			if q.segs[j] != want[j] {
				t.Fatalf("step %d: segs[%d] = %+v, want %+v", i, j, q.segs[j], want[j])
			}
		}
	}
}

func TestSegQueuePeekHost(t *testing.T) {
	var q segQueue
	if _, ok := q.peekHost(); ok {
		t.Fatal("peek on empty queue")
	}
	q.push(segment{f: &sim.Flow{}, host: 3, bytes: 0}) // exhausted segment
	q.push(seg(7, 100))
	h, ok := q.peekHost()
	if !ok || h != 7 {
		t.Fatalf("peekHost = %d ok=%v, want 7 (skipping empty head)", h, ok)
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.RelayBufferBytes <= 0 || p.StartMargin <= 0 {
		t.Fatalf("params = %+v", p)
	}
}
