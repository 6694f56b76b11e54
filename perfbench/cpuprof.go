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

// This file turns a runtime/pprof CPU profile into per-layer CPU shares.
// Each sample is charged to the innermost frame that belongs to the project:
// a mtmalloc/internal/<pkg> function charges <pkg>, a function of this
// benchmark charges bench. Runtime work under such a frame (map lookups
// inside cache.load, channel operations inside sim) therefore counts for
// the layer that asked for it. Samples with no project frame are Go runtime
// work on its own stacks: garbage collection, scheduling, or other.

// cpuLayers lists the share names in report order.
var cpuLayers = []string{"cache", "vm", "sim", "heap", "malloc", "bench", "runtime_sched", "runtime_gc", "other"}

// gcFrames and schedFrames mark runtime-only stacks by any frame on them.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.markroot", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcAssistAlloc", "runtime.scanobject", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.sweepone",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
		"runtime.goexit0", "runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.mstart",
		"runtime.notesleep", "runtime.futex", "runtime.usleep", "runtime.runqgrab", "runtime.sysmon",
	}
)

// classifyStack returns the layer a sample with the given function names,
// innermost first, is charged to.
func classifyStack(funcs []string) string {
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, "mtmalloc/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			switch pkg {
			case "cache", "vm", "sim", "heap", "malloc":
				return pkg
			case "bench":
				return "bench"
			}
			return "other"
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	for _, f := range funcs {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime_gc"
			}
		}
	}
	for _, f := range funcs {
		for _, s := range schedFrames {
			if strings.HasPrefix(f, s) {
				return "runtime_sched"
			}
		}
	}
	return "other"
}

// cpuSamples adds the sample counts of one gzipped profile.proto CPU
// profile to shares, keyed by layer.
func cpuSamples(profile []byte, shares map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		var funcs []string
		for _, lid := range s.locs {
			for _, fid := range p.locFuncs[lid] {
				funcs = append(funcs, p.strings[p.funcName[fid]])
			}
		}
		if len(s.values) > 0 {
			shares[classifyStack(funcs)] += s.values[0]
		}
	}
	return nil
}

// profile holds the parts of profile.proto the shares need.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs   []uint64 // location ids, leaf first
	values []int64
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case profSample:
			var s sample
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case sampleLocation:
					return appendVarints(&s.locs, v, d)
				case sampleValue:
					var vs []uint64
					if err := appendVarints(&vs, v, d); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case locID:
					id = v
				case locLine:
					return eachField(d, func(lf int, lv uint64, _ []byte) error {
						if lf == lineFunction {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited payload.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (data non-nil) or
// not (one value v).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
