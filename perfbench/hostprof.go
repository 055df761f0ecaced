package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// modules are the repository's layers, named as the code names them
// (the packages under internal/). Host samples are attributed to the
// innermost frame in one of them. The benchmark's own frames (load
// generation, checks) count as "bench", and samples with neither count
// as "runtime".
var modules = []string{
	"sim", "nand", "bus", "ecc", "ftl", "ssd", "pcm", "blockdev", "sched",
	"core", "wal", "btree", "bufpool", "kvstore", "serve", "obs", "metrics",
	"runtime", "bench",
}

const repoPrefix = "repro/internal/"

// moduleOf maps a fully qualified function name to its layer: "bench"
// for the benchmark's own package, "" for anything else outside the
// repository's internal packages.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range modules {
		if m == rest {
			return m
		}
	}
	return "other"
}

// hostProfile accumulates host CPU samples and sampled allocation bytes
// per module over every profiled window of a run.
type hostProfile struct {
	cpu   map[string]int64
	alloc map[string]int64

	buf       bytes.Buffer
	allocBase map[string]int64
}

func newHostProfile() *hostProfile {
	return &hostProfile{cpu: map[string]int64{}, alloc: map[string]int64{}}
}

// start opens a profiled window: it snapshots the cumulative allocation
// profile and starts the CPU profiler.
func (h *hostProfile) start() error {
	h.allocBase = allocByModule()
	h.buf.Reset()
	if err := pprof.StartCPUProfile(&h.buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	return nil
}

// stop closes the window, folding its CPU samples and allocation delta
// into the run totals.
func (h *hostProfile) stop() error {
	pprof.StopCPUProfile()
	if err := foldCPUProfile(h.buf.Bytes(), h.cpu); err != nil {
		return fmt.Errorf("read cpu profile: %w", err)
	}
	// The allocation profile is published at the end of a GC cycle.
	runtime.GC()
	for m, b := range allocByModule() {
		h.alloc[m] += b - h.allocBase[m]
	}
	return nil
}

// fractions normalizes per-module totals to shares of their sum.
func fractions(per map[string]int64) map[string]float64 {
	var total int64
	for _, v := range per {
		total += v
	}
	out := make(map[string]float64, len(modules))
	for _, m := range modules {
		out[m] = ratio(float64(per[m]), float64(total))
	}
	return out
}

// allocByModule sums the cumulative sampled allocation bytes of every
// allocation site, by the innermost repository frame of its stack.
func allocByModule() map[string]int64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	out := map[string]int64{}
	for i := range recs {
		r := &recs[i]
		m := "runtime"
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if mod := moduleOf(f.Function); mod != "" {
				m = mod
				break
			}
			if !more {
				break
			}
		}
		out[m] += r.AllocBytes
	}
	return out
}

// foldCPUProfile decodes a gzipped pprof CPU profile (profile.proto)
// and adds each sample's count to the module of its innermost
// repository frame.
func foldCPUProfile(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					values = appendPacked(values, v, b)
				}
				return nil
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		m := "runtime"
	walk:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return fmt.Errorf("function %d: string index %d out of range", fn, idx)
				}
				if mod := moduleOf(strs[idx]); mod != "" {
					m = mod
					break walk
				}
			}
		}
		into[m] += s.count
	}
	return nil
}

// appendPacked appends a repeated varint field that may arrive either
// packed (b non-nil) or as a single varint v.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value (b == nil) or its length-delimited
// payload. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := varint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning its length (0 when
// truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
