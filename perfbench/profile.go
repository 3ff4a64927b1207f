package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// The CPU profile attribution: every sample of a runtime/pprof CPU profile
// goes to one bucket — "gc" when any frame of its stack is garbage-collector
// work, else the innermost frame inside repro/internal/<module>, else
// "other" (the runtime, the standard library, and the benchmark itself).

// modules are the repro/internal packages reported as <module>.cpu_frac, in
// report order. Samples in other internal packages count toward "other".
var modules = []string{
	"event", "netsim", "hdfs", "scheduler", "maxflow", "core", "policy",
	"manager", "driver", "custodyd", "obsv", "app", "cluster", "metrics",
}

const internalPrefix = "repro/internal/"

// gcFrames are function-name prefixes of collector work: background and
// assist marking, sweeping and scavenging.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.markroot", "runtime.scanobject", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.(*sweepLocked).sweep", "runtime.gcMarkTermination",
	"runtime.gcStart",
}

// bucketOf attributes one stack, innermost frame first.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				rest = rest[:i]
			}
			if slices.Contains(modules, rest) {
				return rest
			}
			return "other"
		}
	}
	return "other"
}

// attribution is the per-bucket sample count of one or more profiles.
type attribution struct {
	Samples int64            `json:"samples"`
	Buckets map[string]int64 `json:"buckets"`
}

func (a *attribution) add(b attribution) {
	if a.Buckets == nil {
		a.Buckets = map[string]int64{}
	}
	a.Samples += b.Samples
	for k, v := range b.Buckets {
		a.Buckets[k] += v
	}
}

// frac is the bucket's share of all samples.
func (a *attribution) frac(bucket string) float64 {
	if a.Samples == 0 {
		return 0
	}
	return float64(a.Buckets[bucket]) / float64(a.Samples)
}

// attribute decodes a gzipped pprof profile and attributes its samples by
// their first value (the sample count of a CPU profile). Samples labelled
// as set aside (see aside) are left out.
func attribute(gz []byte) (attribution, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return attribution{}, err
	}
	out := attribution{Buckets: map[string]int64{}}
	for _, s := range p.samples {
		if len(s.values) == 0 || s.hasLabel(p, asideKey, asideValue) {
			continue
		}
		var stack []string
		for _, locID := range s.locs {
			for _, fnID := range p.locFuncs[locID] {
				stack = append(stack, p.str(p.funcName[fnID]))
			}
		}
		out.Samples += s.values[0]
		out.Buckets[bucketOf(stack)] += s.values[0]
	}
	return out, nil
}

// profile holds the parts of a pprof profile.proto that attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location ID → function IDs, innermost first
	funcName map[uint64]int64    // function ID → string-table index of its name
	strings  []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
	labels [][2]int64 // string-table indexes of key and value
}

func (s *sample) hasLabel(p *profile, key, value string) bool {
	for _, l := range s.labels {
		if p.str(l[0]) == key && p.str(l[1]) == value {
			return true
		}
	}
	return false
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses the gzipped protobuf that runtime/pprof writes.
// Field numbers follow github.com/google/pprof/proto/profile.proto:
// Profile{sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2, label=3}, Label{key=1, str=2},
// Location{id=1, line=4}, Line{function_id=1}, Function{id=1, name=2}.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var us []uint64
					if err := appendVarints(&us, wire, v, b); err != nil {
						return err
					}
					for _, u := range us {
						s.values = append(s.values, int64(u))
					}
				case 3:
					var l [2]int64
					err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							l[num-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
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
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, u)
		b = b[n:]
	}
	return nil
}
