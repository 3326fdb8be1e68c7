// Package routing builds and queries per-topology-slice forwarding tables.
//
// Opera's ToRs forward low-latency packets along expander paths that change
// every topology slice (§4.3): each ToR holds, per slice, a next-hop entry
// for every destination rack. This package precomputes those tables from
// port maps (which uplink reaches which rack during which slice), retaining
// every equal-cost uplink so the simulator can spray packets across the
// path diversity of each slice, and validates the loop-freedom invariant
// that makes ε a sound drain bound. A slice's tables come from one
// bit-parallel BFS that advances every rack's frontier a level at a time
// over ⌈N/64⌉-word bitsets.
//
// The same builder serves the static expander baseline (a single eternal
// "slice") and the failure analysis (port maps with failed links masked
// out). It also implements the P4 rule-count model behind Table 1.
package routing

import (
	"fmt"
	"math/bits"

	"github.com/opera-net/opera/internal/topology"
)

// Unreachable is the distance stored for unreachable rack pairs.
const Unreachable = 0xFF

// PortMap describes connectivity during one topology slice:
// PortMap[rack][uplink] is the peer rack reached through that uplink, or -1
// if the uplink is unusable this slice (transitioning switch, self-loop
// matching entry, or failed link).
type PortMap [][]int32

// NumUplinks returns the uplink count (ports per rack).
func (pm PortMap) NumUplinks() int {
	if len(pm) == 0 {
		return 0
	}
	return len(pm[0])
}

// Tables holds per-slice next-hop state for every (source, destination)
// rack pair. Uplink sets are bitmasks (bit i = uplink i usable on a
// shortest path), so a table cell is five bytes; the paper-scale 108-rack
// network's full cycle fits in ~6 MB.
type Tables struct {
	N      int // racks
	U      int // uplinks per rack
	Slices int

	dist []uint8  // [slice*N*N + src*N + dst]
	mask []uint32 // same indexing; bit u set ⇒ uplink u lies on a shortest path
}

// Build constructs tables from one PortMap per slice. All maps must agree
// on rack and uplink counts, and uplinks must be at most 32.
//
// Each slice runs one level-synchronous BFS from every rack at once over
// bitsets of ⌈N/64⌉ words. Level L₀[v] = {v}; level Lⱼ[v] is the union of
// Lⱼ₋₁ over v's uplink peers, minus every rack v has already seen. A rack
// dst in Lⱼ[v] is j hops away, and uplink k of v is on a shortest path to
// it exactly when dst is also in Lⱼ₋₁[peerₖ(v)] — its peer is one hop
// closer. Links are directed (uplink k of v reaches peerₖ(v)), so
// asymmetric and partly dark maps get the same tables as a per-source BFS.
// The level and seen bitsets are reused across slices, so the allocation
// count does not grow with the slice count.
func Build(maps []PortMap) (*Tables, error) {
	if len(maps) == 0 {
		return nil, fmt.Errorf("routing: no port maps")
	}
	n := len(maps[0])
	u := maps[0].NumUplinks()
	if u > 32 {
		return nil, fmt.Errorf("routing: %d uplinks exceed 32-bit mask", u)
	}
	for s, pm := range maps {
		if len(pm) != n || pm.NumUplinks() != u {
			return nil, fmt.Errorf("routing: slice %d port map has inconsistent shape", s)
		}
	}
	t := &Tables{
		N:      n,
		U:      u,
		Slices: len(maps),
		dist:   make([]uint8, len(maps)*n*n),
		mask:   make([]uint32, len(maps)*n*n),
	}
	w := (n + 63) / 64
	scratch := make([]uint64, 3*n*w)
	prev, cur, seen := scratch[:n*w:n*w], scratch[n*w:2*n*w:2*n*w], scratch[2*n*w:]
	for s, pm := range maps {
		lo, hi := s*n*n, (s+1)*n*n
		buildSlice(pm, t.dist[lo:hi], t.mask[lo:hi], prev, cur, seen)
	}
	return t, nil
}

// buildSlice fills one slice's n×n dist and mask rows from its port map;
// prev, cur and seen are n rows of ⌈n/64⌉-word bitsets.
func buildSlice(pm PortMap, dist []uint8, mask []uint32, prev, cur, seen []uint64) {
	n := len(pm)
	w := (n + 63) / 64
	for i := range dist {
		dist[i] = Unreachable
	}
	clear(prev)
	clear(seen)
	for v := 0; v < n; v++ {
		bit := uint64(1) << uint(v%64)
		prev[v*w+v/64] = bit
		seen[v*w+v/64] = bit
		dist[v*n+v] = 0
	}
	for j := 1; ; j++ {
		grew := false
		for v := 0; v < n; v++ {
			next := cur[v*w : (v+1)*w]
			clear(next)
			// A self-loop peer adds nothing: Lⱼ₋₁[v] is already in seen[v].
			for _, peer := range pm[v] {
				if peer < 0 {
					continue
				}
				for i, x := range prev[int(peer)*w : (int(peer)+1)*w] {
					next[i] |= x
				}
			}
			var fresh uint64
			sv := seen[v*w : (v+1)*w]
			for i := range next {
				next[i] &^= sv[i]
				sv[i] |= next[i]
				fresh |= next[i]
			}
			if fresh == 0 {
				continue
			}
			grew = true
			row := dist[v*n : (v+1)*n]
			for i, x := range next {
				for ; x != 0; x &= x - 1 {
					row[i*64+bits.TrailingZeros64(x)] = uint8(j)
				}
			}
			mrow := mask[v*n : (v+1)*n]
			for k, peer := range pm[v] {
				if peer < 0 {
					continue
				}
				pp := prev[int(peer)*w : (int(peer)+1)*w]
				for i, x := range next {
					for x &= pp[i]; x != 0; x &= x - 1 {
						mrow[i*64+bits.TrailingZeros64(x)] |= 1 << uint(k)
					}
				}
			}
		}
		if !grew {
			return
		}
		prev, cur = cur, prev
	}
}

// MustBuild is Build but panics on error.
func MustBuild(maps []PortMap) *Tables {
	t, err := Build(maps)
	if err != nil {
		panic(err)
	}
	return t
}

// Dist returns the hop distance from src to dst during slice s, or
// Unreachable.
func (t *Tables) Dist(slice, src, dst int) int {
	return int(t.dist[t.idx(slice, src, dst)])
}

// Mask returns the equal-cost uplink bitmask from src toward dst during
// slice s. A zero mask with src != dst means unreachable.
func (t *Tables) Mask(slice, src, dst int) uint32 {
	return t.mask[t.idx(slice, src, dst)]
}

// PickUplink selects one uplink from the equal-cost set using the caller's
// random value (e.g. per-packet), returning -1 if none. Selection is
// uniform across set bits.
func (t *Tables) PickUplink(slice, src, dst int, rnd uint32) int {
	m := t.mask[t.idx(slice, src, dst)]
	if m == 0 {
		return -1
	}
	k := int(rnd) % bits.OnesCount32(m)
	for {
		low := bits.TrailingZeros32(m)
		if k == 0 {
			return low
		}
		m &^= 1 << uint(low)
		k--
	}
}

// MaxDist returns the largest finite distance across all slices and pairs —
// the worst-case path length that sizes ε (§4.1).
func (t *Tables) MaxDist() int {
	max := 0
	for _, d := range t.dist {
		if d != Unreachable && int(d) > max {
			max = int(d)
		}
	}
	return max
}

func (t *Tables) idx(slice, src, dst int) int {
	if slice < 0 || slice >= t.Slices {
		panic(fmt.Sprintf("routing: slice %d out of range [0,%d)", slice, t.Slices))
	}
	return slice*t.N*t.N + src*t.N + dst
}

// Validate checks loop freedom: for every (slice, src, dst) and every
// uplink in the mask, the peer's distance to dst is exactly dist-1. This is
// the invariant that guarantees a packet forwarded within a single slice
// strictly approaches its destination.
func (t *Tables) Validate(maps []PortMap) error {
	if len(maps) != t.Slices {
		return fmt.Errorf("routing: validate: %d maps for %d slices", len(maps), t.Slices)
	}
	for s := 0; s < t.Slices; s++ {
		pm := maps[s]
		for src := 0; src < t.N; src++ {
			for dst := 0; dst < t.N; dst++ {
				if src == dst {
					continue
				}
				d := t.Dist(s, src, dst)
				m := t.Mask(s, src, dst)
				if d == Unreachable {
					if m != 0 {
						return fmt.Errorf("routing: slice %d (%d→%d): unreachable but mask %b", s, src, dst, m)
					}
					continue
				}
				if m == 0 {
					return fmt.Errorf("routing: slice %d (%d→%d): reachable (dist %d) but empty mask", s, src, dst, d)
				}
				for k := 0; k < t.U; k++ {
					if m&(1<<uint(k)) == 0 {
						continue
					}
					peer := pm[src][k]
					if peer < 0 {
						return fmt.Errorf("routing: slice %d (%d→%d): masked uplink %d unusable", s, src, dst, k)
					}
					if pd := t.Dist(s, int(peer), dst); pd != d-1 {
						return fmt.Errorf("routing: slice %d (%d→%d): uplink %d peer %d at dist %d, want %d",
							s, src, dst, k, peer, pd, d-1)
					}
				}
			}
		}
	}
	return nil
}

// OperaPortMaps derives one PortMap per slice-in-cycle from an Opera
// topology: uplink k of each rack reaches its matching peer, except when
// switch k is transitioning (drain rule, §3.1.1) or the matching entry is a
// self-loop.
func OperaPortMaps(o *topology.Opera) []PortMap {
	slices, n, u := o.SlicesPerCycle(), o.NumRacks(), o.Uplinks()
	// Every slice's rows are carved from two backing arrays.
	maps := make([]PortMap, slices)
	rows := make([][]int32, slices*n)
	cells := make([]int32, slices*n*u)
	for s := range maps {
		pm := PortMap(rows[s*n : (s+1)*n : (s+1)*n])
		for r := range pm {
			off := (s*n + r) * u
			pm[r] = cells[off : off+u : off+u]
		}
		for sw := 0; sw < u; sw++ {
			if o.IsTransitioning(sw, s) {
				for r := range pm {
					pm[r][sw] = -1
				}
				continue
			}
			m := o.SwitchMatching(sw, s)
			for r := range pm {
				peer := m.Peer(r)
				if peer == r {
					pm[r][sw] = -1
				} else {
					pm[r][sw] = int32(peer)
				}
			}
		}
		maps[s] = pm
	}
	return maps
}

// ExpanderPortMap derives the single static PortMap of an expander network:
// uplink k of each rack is its k-th neighbor.
func ExpanderPortMap(e *topology.Expander) []PortMap {
	pm := make(PortMap, e.NumRacks)
	for r := 0; r < e.NumRacks; r++ {
		ns := e.G.Neighbors(r)
		row := make([]int32, e.Degree)
		for i := range row {
			if i < len(ns) {
				row[i] = ns[i]
			} else {
				row[i] = -1
			}
		}
		pm[r] = row
	}
	return []PortMap{pm}
}
