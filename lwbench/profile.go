package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// profile is the subset of a pprof profile.proto the layer attribution
// needs: sample values with their stacks, resolved to function names.
// runtime/pprof writes gzip-compressed protobuf; the decoder below reads it
// with the standard library alone, so the module needs no pprof dependency.
type profile struct {
	sampleTypes []string // "type/unit" per value column, e.g. "cpu/nanoseconds"
	samples     []profileSample
}

type profileSample struct {
	// frames are function names, innermost first, with inlined frames
	// expanded in place.
	frames []string
	values []int64
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1
	valueTypeUnit = 2

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// parseProfile decodes a (possibly gzip-compressed) pprof profile.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs        []string
		typeIdx     [][2]int64 // (type, unit) string indexes
		raws        []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNameIdx = map[uint64]int64{}    // function id -> name string index
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profSampleType:
			var t [2]int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == valueTypeType || num == valueTypeUnit {
					t[num-1] = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case profSample:
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					return appendUints(&s.locs, wire, v, b)
				case sampleValue:
					var u []uint64
					if err := appendUints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t[0])+"/"+str(t[1]))
	}
	for _, r := range raws {
		s := profileSample{values: r.values}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.frames = append(s.frames, str(funcNameIdx[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value (wire types 0, 1, 5) or its
// bytes (wire type 2).
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = uvarint(msg); n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, which encoders may write
// packed (one length-delimited run) or as one varint per element.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// gcWorkers are the runtime's background collector goroutines. Their
// samples carry no program frame, so they are charged to "gc" rather than
// "other". Mark assists run inside the allocating program frame and stay
// charged to that frame's layer.
var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

const internalPrefix = "liteworp/internal/"

// layerOf is the attribution rule: a sample belongs to the innermost
// liteworp/internal/<layer> frame on its stack; a stack without one is a
// GC background worker ("gc") or "other" (runtime, this command itself).
func layerOf(frames []string) string {
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	for _, fn := range frames {
		if gcWorkers[fn] {
			return "gc"
		}
	}
	return "other"
}

// attribute sums the named value column ("cpu/nanoseconds",
// "inuse_space/bytes") per layer.
func (p *profile) attribute(valueType string) (map[string]int64, error) {
	col := -1
	for i, t := range p.sampleTypes {
		if t == valueType {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("profile: no %q column (have %s)", valueType, strings.Join(p.sampleTypes, ", "))
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if col < len(s.values) {
			out[layerOf(s.frames)] += s.values[col]
		}
	}
	return out, nil
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
