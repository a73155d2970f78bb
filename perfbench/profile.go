package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced run records a CPU profile of each traced round's measured
// phase and sums it into self time per module. That splits layers the
// benchmark never calls directly (steering, jobmon, condor, fair-share,
// classad, scheduler — all driven by the engine) without instrumenting
// the program. The profile is the runtime's gzipped profile.proto; the
// few fields needed are decoded here so the benchmark stays
// standard-library only.

// profiler is a running CPU profile.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns CPU seconds by "cpu.<module>_s".
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return selfTimeByModule(p.buf.Bytes())
}

// moduleOf names the module a function belongs to: a program module,
// "runtime", or "" for the rest of the standard library.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "repro/internal/"):
		rest := fn[len("repro/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "repro/pkg/gae."):
		return "core" // the typed service binding core serves through
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// reportedModules are the modules with a cpu.<module>_s metric; every
// other module's time counts as cpu.other_s.
var reportedModules = map[string]bool{
	"steering": true, "jobmon": true, "condor": true, "classad": true,
	"fairshare": true, "simgrid": true, "scheduler": true, "estimator": true,
	"xmlrpc": true, "clarens": true, "durable": true, "core": true, "runtime": true,
}

// attribute charges one sample, given its frames innermost first, to
// the innermost program frame's module: standard-library and runtime
// code (sorting, encoding/xml, allocation, map growth) counts toward the
// program module that called it. Samples made only of runtime frames
// (GC workers, the scheduler) count as runtime; other samples with no
// program frame (HTTP serving, syscalls) and the benchmark's own code
// count as other.
func attribute(frames []string) string {
	onlyRuntime := len(frames) > 0
	for _, f := range frames {
		switch m := moduleOf(f); m {
		case "runtime":
		case "":
			onlyRuntime = false
		default:
			if reportedModules[m] {
				return m
			}
			return "other"
		}
	}
	if onlyRuntime {
		return "runtime"
	}
	return "other"
}

// selfTimeByModule decodes a gzipped CPU profile and sums sample time
// by module.
func selfTimeByModule(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strtab  []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples []pbSample
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			s, err := decodeSample(b)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			id, fns, err := decodeLocation(b)
			if err != nil {
				return err
			}
			locs[id] = fns
		case 5: // function
			var id, name uint64
			if err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := map[string]float64{}
	for m := range reportedModules {
		out["cpu."+m+"_s"] = 0
	}
	out["cpu.other_s"] = 0
	var frames []string
	for _, s := range samples {
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fid := range locs[loc] {
				name := ""
				if idx := funcs[fid]; idx < uint64(len(strtab)) {
					name = strtab[idx]
				}
				frames = append(frames, name)
			}
		}
		// CPU profiles carry [samples, nanoseconds] per sample.
		if len(s.values) < 2 {
			continue
		}
		out["cpu."+attribute(frames)+"_s"] += float64(int64(s.values[1])) / 1e9
	}
	return out, nil
}

type pbSample struct {
	locs   []uint64
	values []uint64
}

func decodeSample(b []byte) (pbSample, error) {
	var s pbSample
	err := pbFields(b, func(field, wire int, v uint64, sub []byte) error {
		switch field {
		case 1:
			return pbRepeated(wire, v, sub, &s.locs)
		case 2:
			return pbRepeated(wire, v, sub, &s.values)
		}
		return nil
	})
	return s, err
}

func decodeLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	err := pbFields(b, func(field, _ int, v uint64, sub []byte) error {
		switch field {
		case 1:
			id = v
		case 4: // line
			return pbFields(sub, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

// pbRepeated appends a repeated varint field, packed or not.
func pbRepeated(wire int, v uint64, packed []byte, dst *[]uint64) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := pbVarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// pbFields walks a protobuf message, calling fn with each field's number,
// wire type, varint value (wire type 0) or bytes (wire type 2).
func pbFields(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
