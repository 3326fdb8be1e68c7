package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (gzipped
// profile.proto) with the standard library only, and attributes each
// sample to a layer.

const modulePath = "github.com/opera-net/opera"

// layerShares attributes every sample of a CPU profile to one bucket and
// returns each bucket's share of all samples. Walking a sample's stack from
// the leaf, the first frame that classifies decides: a frame of this module
// names its layer (so memmove under wheelSched.Push counts toward
// eventsim), while garbage collection, allocation and map operations keep
// buckets of their own. Helper packages (freelist, stats) are transparent:
// their time goes to the layer that called them. Samples with no deciding
// frame go to "other".
func layerShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		bucket := "other"
	walk:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if b := classify(p.funcName(fn)); b != "" {
					bucket = b
					break walk
				}
			}
		}
		counts[bucket] += s.values[0]
		total += s.values[0]
	}
	shares := map[string]float64{}
	for b, n := range counts {
		shares[b] = float64(n) / float64(total)
	}
	return shares, nil
}

// classify maps a function name to its bucket, or "" to keep walking.
func classify(fn string) string {
	switch {
	case fn == "runtime._GC" || strings.HasPrefix(fn, "runtime.gc") ||
		strings.HasPrefix(fn, "runtime.markroot") || fn == "runtime.scanobject" ||
		fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" || fn == "runtime.sweepone":
		return "gc"
	case fn == "runtime.mallocgc" || fn == "runtime.newobject" || fn == "runtime.growslice" ||
		fn == "runtime.makeslice" || fn == "runtime.newarray" || fn == "runtime.makemap":
		return "alloc"
	case strings.HasPrefix(fn, "runtime.map") || strings.HasPrefix(fn, "internal/runtime/maps."):
		return "map"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, modulePath+"."):
		return "opera"
	case strings.HasPrefix(fn, modulePath+"/internal/"):
		pkg := strings.TrimPrefix(fn, modulePath+"/internal/")
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		if pkg == "freelist" || pkg == "stats" {
			return ""
		}
		return pkg
	}
	return ""
}

type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, leaf first
	funcStr  map[uint64]int64    // function id → name's string-table index
	strs     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) funcName(id uint64) string {
	i := p.funcStr[id]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// parseProfile decodes the fields of profile.proto the attribution needs:
// samples (field 2), locations (4), functions (5) and the string table (6).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcStr: map[uint64]int64{}}
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line: inlined callees precede their caller
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcStr[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes (b is nil for
// varints). Fixed-width fields are skipped.
func fields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(buf) < w {
				return errTruncated
			}
			buf = buf[w:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field, packed (b set) or not.
func repeated(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
