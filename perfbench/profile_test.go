package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"os"
	"testing"
)

func TestFuncPackage(t *testing.T) {
	for _, tc := range []struct{ fn, want string }{
		{"mtp/internal/core.(*Endpoint).OnPacket", "mtp/internal/core"},
		{"mtp.(*Node).Send", "mtp"},
		{"mtp/internal/exp.RunScale.func1", "mtp/internal/exp"},
		{"mtp/internal/sim.(*heap[go.shape.int]).push", "mtp/internal/sim"},
		{"slices.SortFunc[go.shape.[]mtp/internal/x.T]", "slices"},
		{"runtime.mallocgc", "runtime"},
		{"internal/runtime/syscall.Syscall6", "internal/runtime/syscall"},
		{"main.main", "main"},
	} {
		if got := funcPackage(tc.fn); got != tc.want {
			t.Errorf("funcPackage(%q) = %q, want %q", tc.fn, got, tc.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct{ pkg, want string }{
		{"mtp", "mtp"},
		{"mtp/internal/udpnet", "udpnet"},
		{"mtp/internal/simnet", "simnet"},
		{"mtp/internal/stats", ""},
		{"runtime", "runtime"},
		{"internal/runtime/maps", "runtime"},
		{"runtime/internal/atomic", "runtime"},
		{"internal/runtime/syscall", "syscall"},
		{"syscall", "syscall"},
		{"internal/poll", "syscall"},
		{"net", ""},
		{"main", ""},
	} {
		if got := layerOf(tc.pkg); got != tc.want {
			t.Errorf("layerOf(%q) = %q, want %q", tc.pkg, got, tc.want)
		}
	}
}

func TestSelfByLayer(t *testing.T) {
	got := selfByLayer(map[string]int64{
		"mtp/internal/core.a": 10, "mtp/internal/core.(*T).b": 5,
		"runtime.x": 7, "net.y": 3, "main.z": 1,
	})
	want := map[string]int64{"core": 15, "runtime": 7}
	if len(got) != len(want) || got["core"] != 15 || got["runtime"] != 7 {
		t.Errorf("selfByLayer = %v, want %v", got, want)
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) key(field, wt int) { p.b = binary.AppendUvarint(p.b, uint64(field<<3|wt)) }
func (p *pb) varint(field int, v uint64) *pb {
	p.key(field, wireVarint)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}
func (p *pb) bytes(field int, b []byte) *pb {
	p.key(field, wireBytes)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}
func (p *pb) packed(field int, vs ...uint64) *pb {
	var run []byte
	for _, v := range vs {
		run = binary.AppendUvarint(run, v)
	}
	return p.bytes(field, run)
}

func TestSelfTime(t *testing.T) {
	var prof pb
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"mtp/internal/core.f", "runtime.g", "mtp/internal/wire.h"}
	prof.bytes(fProfileSampleType, (&pb{}).varint(1, 1).varint(2, 2).b)
	prof.bytes(fProfileSampleType, (&pb{}).varint(1, 3).varint(2, 4).b)
	// Location 1 is wire.h inlined into core.f; location 2 is runtime.g.
	line := func(fn uint64) []byte { return (&pb{}).varint(fLineFunction, fn).b }
	prof.bytes(fProfileLocation, (&pb{}).varint(fLocationID, 1).
		bytes(fLocationLine, line(3)).bytes(fLocationLine, line(1)).b)
	prof.bytes(fProfileLocation, (&pb{}).varint(fLocationID, 2).bytes(fLocationLine, line(2)).b)
	for id, name := range []uint64{5, 6, 7} {
		prof.bytes(fProfileFunction, (&pb{}).varint(fFunctionID, uint64(id+1)).varint(fFunctionName, name).b)
	}
	// Packed and unpacked repeated fields both occur in real profiles.
	prof.bytes(fProfileSample, (&pb{}).packed(fSampleLocation, 1, 2).packed(fSampleValue, 2, 20e6).b)
	prof.bytes(fProfileSample, (&pb{}).varint(fSampleLocation, 2).varint(fSampleValue, 1).varint(fSampleValue, 10e6).b)
	prof.bytes(fProfileSample, (&pb{}).packed(fSampleLocation, 1).packed(fSampleValue, 1, 10e6).b)
	for _, s := range strs {
		prof.bytes(fProfileString, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := selfTime(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"mtp/internal/wire.h": 30e6, "runtime.g": 10e6}
	if len(got) != len(want) {
		t.Fatalf("selfTime = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %d ns, want %d", k, got[k], v)
		}
	}
	if _, err := selfTime([]byte("not gzip")); err == nil {
		t.Error("garbage profile: no error")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []m, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", what, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	// Every listed workload must exist; udp-bulk is left out on purpose
	// (README.md).
	for _, sw := range spec.Workloads {
		found := false
		for _, w := range workloads {
			found = found || w.name == sw.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json lists workload %s, which the program lacks", sw.Name)
		}
	}
}
