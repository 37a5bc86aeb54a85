package main

import (
	"bytes"
	"compress/gzip"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for hand-built profiles.
type pb struct{ b []byte }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pb) uint(field int, x uint64) {
	p.varint(uint64(field) << 3)
	p.varint(x)
}

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) msg(field int, build func(*pb)) {
	var m pb
	build(&m)
	p.bytes(field, m.b)
}

func packed(xs ...uint64) []byte {
	var m pb
	for _, x := range xs {
		m.varint(x)
	}
	return m.b
}

// handProfile builds a CPU profile whose locations are given as function
// names, innermost line first (several names = inlined frames).
func handProfile(t *testing.T, stacks [][][]string, values []int64, packedLocs bool) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var p pb
	p.msg(profSampleType, func(m *pb) { m.uint(valueTypeType, 1); m.uint(valueTypeUnit, 2) })
	p.msg(profSampleType, func(m *pb) { m.uint(valueTypeType, 3); m.uint(valueTypeUnit, 4) })
	funcID := map[string]uint64{}
	var locID uint64
	for si, stack := range stacks {
		var locs []uint64
		for _, loc := range stack {
			locID++
			id := locID
			p.msg(profLocation, func(m *pb) {
				m.uint(locationID, id)
				for _, fn := range loc {
					fid, ok := funcID[fn]
					if !ok {
						fid = uint64(len(funcID) + 1)
						funcID[fn] = fid
						name := intern(fn)
						p.msg(profFunction, func(f *pb) { f.uint(functionID, fid); f.uint(functionName, name) })
					}
					m.msg(locationLine, func(l *pb) { l.uint(lineFunctionID, fid); l.uint(2, 42) })
				}
			})
			locs = append(locs, id)
		}
		v := values[si]
		p.msg(profSample, func(m *pb) {
			if packedLocs {
				m.bytes(sampleLocationID, packed(locs...))
			} else {
				for _, l := range locs {
					m.uint(sampleLocationID, l)
				}
			}
			m.bytes(sampleValue, packed(1, uint64(v)))
		})
	}
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributionRule(t *testing.T) {
	stacks := [][][]string{
		// Innermost internal frame wins over its callers.
		{{"runtime.mallocgc"}, {"liteworp/internal/flatmap.(*Table[go.shape.int64]).Put"},
			{"liteworp/internal/watch.(*Buffer).ExpectIdx"}, {"liteworp/internal/sim.(*Kernel).Step"}},
		// Inlined frames: the first line of a location is the innermost.
		{{"liteworp/internal/flatmap.(*ExpiryTable).Live", "liteworp/internal/watch.(*Buffer).HeardIdx"},
			{"liteworp/internal/detector.(*liteworp).Overheard"}},
		// A root-package closure between layers is skipped.
		{{"liteworp.NewScenario.func2"}, {"liteworp/internal/trafficgen.(*Source).fire"}, {"liteworp/internal/sim.(*Kernel).Step"}},
		// Background collector.
		{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker.func2"}, {"runtime.gcBgMarkWorker"}},
		// Assists are charged to the allocating layer, not to gc.
		{{"runtime.gcAssistAlloc"}, {"runtime.mallocgc"}, {"liteworp/internal/routing.(*Router).Send"}},
		// No program frame at all.
		{{"runtime.futex"}, {"runtime.findRunnable"}, {"runtime.schedule"}},
		{{"main.run"}, {"main.main"}},
	}
	values := []int64{10, 20, 40, 80, 160, 320, 640}
	want := map[string]int64{"flatmap": 30, "trafficgen": 40, "gc": 80, "routing": 160, "other": 960}
	for _, packedLocs := range []bool{true, false} {
		p, err := parseProfile(handProfile(t, stacks, values, packedLocs))
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.attribute("cpu/nanoseconds")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("packed=%v: got %v, want %v", packedLocs, got, want)
		}
		for l, v := range want {
			if got[l] != v {
				t.Errorf("packed=%v: layer %s = %d, want %d (all: %v)", packedLocs, l, got[l], v, got)
			}
		}
		if _, err := p.attribute("inuse_space/bytes"); err == nil {
			t.Error("attributing a column the profile lacks should fail")
		}
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	p := handProfile(t, [][][]string{{{"main.main"}}}, []int64{1}, true)
	var raw bytes.Buffer
	zr, err := gzip.NewReader(bytes.NewReader(p))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	if _, err := parseProfile(raw.Bytes()[:raw.Len()-3]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

// TestParseRuntimeProfiles decodes what runtime/pprof actually writes.
func TestParseRuntimeProfiles(t *testing.T) {
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	var sink []byte
	for time.Now().Before(deadline) {
		sink = append(sink[:0], make([]byte, 1024)...)
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(cpu.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.attribute("cpu/nanoseconds"); err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var heap bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&heap, 0); err != nil {
		t.Fatal(err)
	}
	h, err := parseProfile(heap.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.attribute("inuse_space/bytes"); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(sink)
}
