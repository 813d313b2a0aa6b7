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

// layers are the repository's modules the traced run reports CPU self time
// for, plus "syscall" (raw system calls, which the real-socket path spends
// about half its CPU in). Everything else is folded into no layer.
var layers = []string{
	"wire", "core", "cc", "pathlet", "sim", "simnet", "simhost", "topo",
	"baseline", "exp", "udpnet", "mtp", "runtime", "syscall",
}

// funcPackage returns the import path of the package a Go symbol belongs
// to: everything up to the first '.' after the last '/', ignoring any
// generic type arguments.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	start := strings.LastIndexByte(fn, '/') + 1
	if i := strings.IndexByte(fn[start:], '.'); i >= 0 {
		return fn[:start+i]
	}
	return fn
}

// layerOf maps a package import path to its layer, or "" when the package
// belongs to none.
func layerOf(pkg string) string {
	switch {
	case pkg == "mtp":
		return "mtp"
	case strings.HasPrefix(pkg, "mtp/internal/"):
		name := strings.TrimPrefix(pkg, "mtp/internal/")
		for _, l := range layers {
			if l == name {
				return l
			}
		}
		return ""
	case pkg == "syscall", pkg == "internal/runtime/syscall", pkg == "internal/poll":
		return "syscall"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/internal/"),
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return ""
}

// selfByLayer folds per-function self time into layers.
func selfByLayer(self map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for fn, v := range self {
		if l := layerOf(funcPackage(fn)); l != "" {
			out[l] += v
		}
	}
	return out
}

// selfTime decodes a gzipped pprof CPU profile (as written by
// runtime/pprof) and returns each leaf function's self time in
// nanoseconds. The leaf of a sample is the innermost line of its first
// location, so time in an inlined callee is charged to the callee.
func selfTime(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	valueIdx := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t < int64(len(p.strings)) && p.strings[t] == "cpu" {
			valueIdx = i
		}
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		if len(s.locs) == 0 || valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		fid, ok := p.locLeaf[s.locs[0]]
		if !ok {
			continue
		}
		name := p.funcName[fid]
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", fid, name, len(p.strings))
		}
		out[p.strings[name]] += s.values[valueIdx]
	}
	return out, nil
}

// profile holds the parts of profile.proto that self time needs.
type profile struct {
	sampleTypes []int64 // string index of each ValueType.type
	samples     []profSample
	locLeaf     map[uint64]uint64 // location id → innermost function id
	funcName    map[uint64]int64  // function id → name string index
	strings     []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// Field numbers from profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLeaf: make(map[uint64]uint64), funcName: make(map[uint64]int64)}
	err := eachField(b, func(num int, wt int, v uint64, sub []byte) error {
		switch num {
		case fProfileSampleType:
			var typ int64
			err := eachField(sub, func(num, wt int, v uint64, _ []byte) error {
				if num == fValueTypeType {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case fProfileSample:
			var s profSample
			err := eachField(sub, func(num, wt int, v uint64, sub []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(&s.locs, wt, v, sub, func(x uint64) uint64 { return x })
				case fSampleValue:
					return appendVarints(&s.values, wt, v, sub, func(x uint64) int64 { return int64(x) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id, leaf uint64
			haveLeaf := false
			err := eachField(sub, func(num, wt int, v uint64, sub []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					if haveLeaf {
						return nil
					}
					return eachField(sub, func(num, wt int, v uint64, _ []byte) error {
						if num == fLineFunction {
							leaf, haveLeaf = v, true
						}
						return nil
					})
				}
				return nil
			})
			if haveLeaf {
				p.locLeaf[id] = leaf
			}
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(sub, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// appendVarints appends a repeated integer field, which the encoder may
// write either packed (one length-delimited run) or as single varints.
func appendVarints[T any](dst *[]T, wt int, v uint64, sub []byte, conv func(uint64) T) error {
	if wt == wireVarint {
		*dst = append(*dst, conv(v))
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errBadVarint
		}
		*dst = append(*dst, conv(x))
		sub = sub[n:]
	}
	return nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

var errBadVarint = errors.New("malformed varint")

// eachField walks the fields of one protobuf message. For varint fields v
// holds the value; for length-delimited fields sub holds the bytes.
func eachField(b []byte, fn func(num int, wt int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadVarint
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wt {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadVarint
			}
			b = b[n:]
		case wireI64:
			if len(b) < 8 {
				return io.ErrUnexpectedEOF
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case wireI32:
			if len(b) < 4 {
				return io.ErrUnexpectedEOF
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadVarint
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return io.ErrUnexpectedEOF
			}
			sub, b = b[:l], b[l:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, sub); err != nil {
			return err
		}
	}
	return nil
}
