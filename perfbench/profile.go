package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped protobuf CPU profiles runtime/pprof
// writes: just the samples, locations and function names needed to
// charge each sample to a layer.

// profileSample is one stack with its CPU time.
type profileSample struct {
	// frames lists function names innermost first, inlined frames
	// expanded.
	frames []string
	ns     int64
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2

	fValueTypeType = 1
)

// pbField is one decoded protobuf field: a varint or a byte slice.
type pbField struct {
	num   int
	wire  int
	varin uint64
	bytes []byte
}

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("profile: bad varint")
}

// pbFields splits a message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.varin, n, err = pbVarint(b); err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return nil, errors.New("profile: truncated field")
			}
			f.bytes, b = b[:l], b[l:]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts reads a repeated integer field in either packed or unpacked
// form, appending to dst.
func pbInts(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.varin), nil
	}
	for b := f.bytes; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes a gzipped CPU profile and returns its samples
// with their cpu/nanoseconds values.
func parseCPUProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}

	var strs []string
	var typeIdx []uint64 // string index of each sample type
	funcName := map[uint64]uint64{}
	locFuncs := map[uint64][]uint64{}
	var rawSamples []pbField
	for _, f := range top {
		switch f.num {
		case fProfileStrings:
			strs = append(strs, string(f.bytes))
		case fProfileSampleType:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			for _, g := range sub {
				if g.num == fValueTypeType {
					typeIdx = append(typeIdx, g.varin)
				}
			}
		case fProfileFunction:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case fFunctionID:
					id = g.varin
				case fFunctionName:
					name = g.varin
				}
			}
			funcName[id] = name
		case fProfileLocation:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case fLocationID:
					id = g.varin
				case fLocationLine:
					line, err := pbFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == fLineFunction {
							fns = append(fns, h.varin)
						}
					}
				}
			}
			locFuncs[id] = fns
		case fProfileSample:
			rawSamples = append(rawSamples, f)
		}
	}

	cpu := -1
	for i, s := range typeIdx {
		if s < uint64(len(strs)) && strs[s] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	name := func(fn uint64) string {
		if s := funcName[fn]; s < uint64(len(strs)) {
			return strs[s]
		}
		return ""
	}

	out := make([]profileSample, 0, len(rawSamples))
	for _, f := range rawSamples {
		sub, err := pbFields(f.bytes)
		if err != nil {
			return nil, err
		}
		var locs, vals []uint64
		for _, g := range sub {
			switch g.num {
			case fSampleLocation:
				locs, err = pbInts(locs, g)
			case fSampleValue:
				vals, err = pbInts(vals, g)
			}
			if err != nil {
				return nil, err
			}
		}
		if cpu >= len(vals) {
			return nil, errors.New("profile: sample without cpu value")
		}
		s := profileSample{ns: int64(vals[cpu])}
		for _, l := range locs {
			// A location's lines run innermost (inlined) first.
			for _, fn := range locFuncs[l] {
				s.frames = append(s.frames, name(fn))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// Buckets a sample can be charged to besides the repro/internal
// packages.
const (
	bucketGC    = "gc"    // GC workers, assists and background sweeping
	bucketCkpt  = "ckpt"  // the checkpoint call tree, whichever package runs it
	bucketBench = "bench" // the benchmark's own code, e.g. hook timing
	bucketOther = "other" // runtime and standard library outside the above
)

// chargeSample names the bucket a sample's CPU time goes to: GC work
// first, then the checkpoint call tree, then the package of
// the innermost repro/internal frame.
func chargeSample(frames []string) string {
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge":
			return bucketGC
		}
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "repro/internal/ckpt."),
			f == "repro/internal/core.(*Instance).Snapshot",
			f == "repro/internal/core.RestoreSnapshot":
			return bucketCkpt
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 {
				return rest[:i]
			}
		}
		if strings.HasPrefix(f, "main.") {
			return bucketBench
		}
	}
	return bucketOther
}

// cpuShares splits a profile's CPU time into buckets, as fractions of
// the profile's total.
func cpuShares(samples []profileSample) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		by[chargeSample(s.frames)] += s.ns
		total += s.ns
	}
	out := make(map[string]float64, len(by))
	if total == 0 {
		return out
	}
	for k, v := range by {
		out[k] = float64(v) / float64(total)
	}
	return out
}
