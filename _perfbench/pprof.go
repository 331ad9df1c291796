package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// The CPU profile roll-up decodes the gzipped profile.proto that
// runtime/pprof writes, with a minimal protobuf reader, and charges each
// sample's CPU time two ways: to the innermost frame that belongs to one of
// the repository's packages (so lp time excludes nothing it calls in the
// standard library, and miqp time excludes the lp it calls), and
// cumulatively to each named function on the stack.

// Functions whose cumulative CPU time is reported.
const (
	fnRedistribute = "repro/internal/core.Redistribute"
	fnSolveEdge    = "repro/internal/core.SolveEdge"
	fnHierCoord    = "repro/internal/core.(*Scheduler).balanceOnce"
)

const modulePrefix = "repro/internal/"

type profileRollUp struct {
	pkg map[string]int64 // CPU ns by repository package (lp, miqp, core, ...)
	fn  map[string]int64 // cumulative CPU ns of the named functions
}

// pbuf reads protobuf wire format.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = fmt.Errorf("varint overflow")
	return 0
}

// field returns the next field's number and wire type; ok is false at the
// end or on error.
func (p *pbuf) field() (num int, wire int, ok bool) {
	if len(p.b) == 0 || p.err != nil {
		return 0, 0, false
	}
	key := p.varint()
	return int(key >> 3), int(key & 7), p.err == nil
}

func (p *pbuf) bytes() []byte {
	n := p.varint()
	if p.err != nil || n > uint64(len(p.b)) {
		p.err = io.ErrUnexpectedEOF
		return nil
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v
}

func (p *pbuf) skip(wire int) {
	switch wire {
	case 0:
		p.varint()
	case 1:
		p.take(8)
	case 2:
		p.bytes()
	case 5:
		p.take(4)
	default:
		p.err = fmt.Errorf("unsupported wire type %d", wire)
	}
}

func (p *pbuf) take(n int) {
	if n > len(p.b) {
		p.err = io.ErrUnexpectedEOF
		return
	}
	p.b = p.b[n:]
}

// uints appends a repeated integer field, packed (wire 2) or not (wire 0).
func (p *pbuf) uints(dst []uint64, wire int) []uint64 {
	if wire == 0 {
		return append(dst, p.varint())
	}
	inner := pbuf{b: p.bytes()}
	for len(inner.b) > 0 && inner.err == nil {
		dst = append(dst, inner.varint())
	}
	if inner.err != nil {
		p.err = inner.err
	}
	return dst
}

// rollUp decodes a CPU profile and rolls it up.
func rollUp(gz []byte) (*profileRollUp, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	p := pbuf{b: raw}
	for {
		num, wire, ok := p.field()
		if !ok {
			break
		}
		switch num {
		case 2: // Sample
			var s sample
			q := pbuf{b: p.bytes()}
			for {
				n, w, ok := q.field()
				if !ok {
					break
				}
				switch n {
				case 1:
					s.locs = q.uints(s.locs, w)
				case 2:
					s.vals = q.uints(s.vals, w)
				default:
					q.skip(w)
				}
			}
			if q.err != nil {
				return nil, fmt.Errorf("cpu profile sample: %w", q.err)
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := pbuf{b: p.bytes()}
			for {
				n, w, ok := q.field()
				if !ok {
					break
				}
				switch n {
				case 1:
					id = q.varint()
				case 4: // Line
					l := pbuf{b: q.bytes()}
					for {
						ln, lw, ok := l.field()
						if !ok {
							break
						}
						if ln == 1 {
							fns = append(fns, l.varint())
						} else {
							l.skip(lw)
						}
					}
				default:
					q.skip(w)
				}
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			q := pbuf{b: p.bytes()}
			for {
				n, w, ok := q.field()
				if !ok {
					break
				}
				switch n {
				case 1:
					id = q.varint()
				case 2:
					name = q.varint()
				default:
					q.skip(w)
				}
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(p.bytes()))
		default:
			p.skip(wire)
		}
	}
	if p.err != nil {
		return nil, fmt.Errorf("cpu profile: %w", p.err)
	}
	name := func(fn uint64) string {
		if i := funcs[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := &profileRollUp{pkg: map[string]int64{}, fn: map[string]int64{}}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ns := int64(s.vals[len(s.vals)-1]) // cpu nanoseconds
		charged := false
		var seen [3]bool
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				n := name(fn)
				if !charged && strings.HasPrefix(n, modulePrefix) {
					pkg := strings.TrimPrefix(n, modulePrefix)
					if i := strings.IndexByte(pkg, '.'); i >= 0 {
						pkg = pkg[:i]
					}
					out.pkg[pkg] += ns
					charged = true
				}
				for i, target := range [3]string{fnRedistribute, fnSolveEdge, fnHierCoord} {
					if n == target && !seen[i] {
						seen[i] = true
						out.fn[target] += ns
					}
				}
			}
		}
	}
	return out, nil
}
