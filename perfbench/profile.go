package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced run attributes host time to layers with a runtime/pprof CPU
// profile: each flat sample (the innermost frame of its stack, inlined
// frames included) is charged to the layer owning that function's
// package. Only the standard library is available, so this file decodes
// the few fields of the profile.proto format it needs.

// layers lists the profile-attributed layers in report order. A function
// whose package matches none of them counts as "other".
var layers = []struct {
	name     string
	prefixes []string
}{
	{"netsim", []string{"repro/internal/netsim.", "container/heap."}},
	{"nic", []string{"repro/internal/nic."}},
	{"offload", []string{"repro/internal/offload."}},
	{"tcpip", []string{"repro/internal/tcpip."}},
	{"ktls", []string{"repro/internal/ktls."}},
	{"gcm", []string{"repro/internal/gcm.", "crypto/"}},
	{"crc32c", []string{"repro/internal/crc32c.", "hash/crc32."}},
	{"wire", []string{"repro/internal/wire.", "encoding/binary."}},
	{"nvmetcp", []string{"repro/internal/nvmetcp."}},
	{"blockdev", []string{"repro/internal/blockdev."}},
	{"runtime", []string{"runtime.", "internal/runtime/", "internal/bytealg.", "sync/atomic."}},
}

// layerOf maps a fully qualified function name to a layer index, or
// len(layers) for "other".
func layerOf(fn string) int {
	for i, l := range layers {
		for _, p := range l.prefixes {
			if strings.HasPrefix(fn, p) {
				return i
			}
		}
	}
	return len(layers)
}

// isCopy reports whether a runtime function is a memory move or clear.
func isCopy(fn string) bool {
	return strings.HasPrefix(fn, "runtime.memmove") || strings.HasPrefix(fn, "runtime.memclr")
}

// profileCapture holds one CPU profile of a measured phase.
type profileCapture struct {
	buf bytes.Buffer
	on  bool
}

func (p *profileCapture) start() error {
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return err
	}
	p.on = true
	return nil
}

// stop ends the profile and returns it gzipped, or nil if none ran.
func (p *profileCapture) stop() []byte {
	if !p.on {
		return nil
	}
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// layerSamples accumulates flat CPU samples per layer.
type layerSamples struct {
	total  int64
	copy   int64
	counts [16]int64 // indexed by layerOf; len(layers) is "other"
}

// add decodes one gzipped profile and adds its flat samples.
func (ls *layerSamples) add(gz []byte) error {
	if gz == nil {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		fn := p.leafFunc(s.locs[0])
		n := s.values[0]
		ls.total += n
		ls.counts[layerOf(fn)] += n
		if isCopy(fn) {
			ls.copy += n
		}
	}
	return nil
}

func (ls *layerSamples) frac(n int64) float64 {
	if ls.total == 0 {
		return 0
	}
	return float64(n) / float64(ls.total)
}

type pSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples []pSample
	locFunc map[uint64]uint64 // location id → innermost function id
	funName map[uint64]int64  // function id → string table index
	strings []string
}

func (p *profile) leafFunc(loc uint64) string {
	fid, ok := p.locFunc[loc]
	if !ok {
		return ""
	}
	si, ok := p.funName[fid]
	if !ok || si < 0 || int(si) >= len(p.strings) {
		return ""
	}
	return p.strings[si]
}

// parseProfile reads Profile fields sample (2), location (4), function
// (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funName: map[uint64]int64{}}
	err := eachField(b, func(num int, wt int, v uint64, data []byte) error {
		switch {
		case num == 2 && wt == 2:
			s, err := parseSample(data)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case num == 4 && wt == 2:
			var id, fid uint64
			first := true
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 4 && w == 2 && first:
					first = false
					return eachField(d, func(n, w int, v uint64, _ []byte) error {
						if n == 1 && w == 0 {
							fid = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFunc[id] = fid
		case num == 5 && wt == 2:
			var id uint64
			var name int64
			err := eachField(data, func(n, w int, v uint64, _ []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 2 && w == 0:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funName[id] = name
		case num == 6 && wt == 2:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

func parseSample(b []byte) (pSample, error) {
	var s pSample
	err := eachField(b, func(n, w int, v uint64, d []byte) error {
		switch {
		case n == 1 && w == 0:
			s.locs = append(s.locs, v)
		case n == 1 && w == 2:
			return eachVarint(d, func(x uint64) { s.locs = append(s.locs, x) })
		case n == 2 && w == 0:
			s.values = append(s.values, int64(v))
		case n == 2 && w == 2:
			return eachVarint(d, func(x uint64) { s.values = append(s.values, int64(x)) })
		}
		return nil
	})
	return s, err
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the top-level fields of one protobuf message. Varint
// fields pass their value in v, length-delimited ones their bytes in data;
// fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
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
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
