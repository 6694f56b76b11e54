package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

func TestClassifyStack(t *testing.T) {
	for _, c := range []struct {
		funcs []string
		want  string
	}{
		{[]string{"runtime.mapaccess2_fast64", "mtmalloc/internal/cache.(*Model).load", "mtmalloc/internal/vm.(*AddressSpace).charge", "main.(*rep).write32"}, "cache"},
		{[]string{"runtime.chansend1", "mtmalloc/internal/sim.(*Machine).switchToEngine", "main.(*rep).yield", "mtmalloc/internal/sim.(*Thread).run"}, "sim"},
		{[]string{"main.chains.func2.1", "mtmalloc/internal/sim.(*Thread).run"}, "bench"},
		{[]string{"mtmalloc/internal/bench.NewWorld", "main.runRep"}, "bench"},
		{[]string{"mtmalloc/internal/xrand.(*RNG).Float64", "main.chains.func2.1"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime_sched"},
		{[]string{"runtime.memmove"}, "other"},
	} {
		if got := classifyStack(c.funcs); got != c.want {
			t.Errorf("classifyStack(%v) = %s, want %s", c.funcs, got, c.want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(field int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pb) bytesField(field int, data []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(data))))
	b.Write(data)
}

func TestCPUSamplesFromProfile(t *testing.T) {
	var p pb
	for _, s := range []string{"", "samples", "runtime.mapaccess2", "mtmalloc/internal/cache.(*Model).load", "main.run"} {
		p.bytesField(profString, []byte(s))
	}
	for id := uint64(1); id <= 3; id++ {
		var fn pb
		fn.varint(funcID, id)
		fn.varint(funcName, id+1)
		p.bytesField(profFunction, fn.Bytes())
		var line pb
		line.varint(lineFunction, id)
		var loc pb
		loc.varint(locID, id)
		loc.bytesField(locLine, line.Bytes())
		p.bytesField(profLocation, loc.Bytes())
	}
	// Packed locations 1,2,3 (map work under the cache) with 5 samples,
	// and an unpacked lone location 3 (benchmark code) with 2.
	var s1 pb
	s1.bytesField(sampleLocation, []byte{1, 2, 3})
	s1.bytesField(sampleValue, []byte{5, 50})
	p.bytesField(profSample, s1.Bytes())
	var s2 pb
	s2.varint(sampleLocation, 3)
	s2.varint(sampleValue, 2)
	p.bytesField(profSample, s2.Bytes())

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()
	shares := map[string]int64{}
	if err := cpuSamples(gz.Bytes(), shares); err != nil {
		t.Fatal(err)
	}
	if shares["cache"] != 5 || shares["bench"] != 2 || len(shares) != 2 {
		t.Fatalf("shares = %v, want cache 5 and bench 2", shares)
	}
}
