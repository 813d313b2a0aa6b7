package main

import (
	"hash/crc32"
	"math"
	"runtime"
	"testing"
	"time"
)

func seq(n int, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i+1) * step
	}
	return out
}

func histOf(xs []float64) *hist {
	h := newHist()
	for _, x := range xs {
		h.add(x)
	}
	return h
}

// top is what a histogram reports for a percentile that falls on value v.
func top(v, max float64) float64 { return math.Min(bucketTop(bucketOf(v)), max) }

func TestHistPercentile(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		p    float64
		at   float64 // the sample the nearest rank falls on
		ok   bool
	}{
		{"median of 20 has 10 beyond", seq(20, 1), 50, 10, true},
		{"p60 of 20 has 8 beyond", seq(20, 1), 60, 12, false},
		{"median of 5", seq(5, 1), 50, 3, false},
		{"p99 of 1000 has 10 beyond", seq(1000, 1), 99, 990, true},
		{"p99 of 999 has 9 beyond", seq(999, 1), 99, 990, false},
		{"p99.9 of 10000", seq(10000, 1), 99.9, 9990, true},
		{"p100 is the max", seq(30, 2), 100, 60, false},
		{"below 1 µs", []float64{0.25, 0.5}, 50, 0.25, false},
	} {
		h := histOf(tc.xs)
		got, ok := h.percentile(tc.p)
		want := top(tc.at, h.max)
		if got != want || ok != tc.ok {
			t.Errorf("%s: p%v = %v, %v; want %v, %v", tc.name, tc.p, got, ok, want, tc.ok)
		}
		if tc.at >= 1 && (got < tc.at || got > tc.at*histGrowth) {
			t.Errorf("%s: p%v = %v, outside [%v, %v]", tc.name, tc.p, got, tc.at, tc.at*histGrowth)
		}
	}
	if got, ok := newHist().percentile(50); got != 0 || ok {
		t.Errorf("empty histogram: %v, %v", got, ok)
	}
}

func TestHistBuckets(t *testing.T) {
	for _, i := range []int{0, 1, 500, 9000, histBuckets - 2} {
		// The geometric middle of bucket i.
		if got := bucketOf(bucketTop(i) / math.Sqrt(histGrowth)); got != i {
			t.Errorf("middle of bucket %d lands in %d", i, got)
		}
	}
	for _, tc := range []struct {
		us   float64
		want int
	}{{0, 0}, {1, 0}, {1e12, histBuckets - 1}} {
		if got := bucketOf(tc.us); got != tc.want {
			t.Errorf("bucketOf(%v) = %d, want %d", tc.us, got, tc.want)
		}
	}
	if top := bucketTop(histBuckets - 1); top < 100e6 {
		t.Errorf("buckets end at %v µs, below 100 s", top)
	}
}

func TestArithmetic(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"median odd", median([]float64{3, 1, 2}), 2},
		{"median even", median([]float64{4, 1, 3, 2}), 2.5},
		{"median empty", median(nil), 0},
		{"medianDur", medianDur([]time.Duration{3 * time.Second, time.Second, 2 * time.Second}), 2},
		{"rate", rate(30, 2*time.Second), 15},
		{"rate of no time", rate(30, 0), 0},
		{"perOp", perOp(90, 3), 30},
		{"perOp without ops", perOp(90, 0), 0},
		{"ratio", ratio(1, 4), 0.25},
		{"ratio over zero", ratio(1, 0), 0},
		{"µs", toUS(1500 * time.Nanosecond), 1.5},
		{"MB", toMB(2.5e6), 2.5},
		// 300 ticks of 10 ms stolen over 10 s of every CPU.
		{"stealFrac", stealFrac(&phase{elapsed: 10 * time.Second, use: usageDelta{steal: 300}}), 3 / (10 * float64(runtime.NumCPU()))},
		{"stealFrac of no time", stealFrac(&phase{use: usageDelta{steal: 300}}), 0},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name   string
		counts []uint64
		bounds []float64
		q      float64
		want   float64
	}{
		{"empty", []uint64{0, 0}, []float64{0, 1, 2}, 0.99, 0},
		{"p99 in the middle bucket", []uint64{1, 98, 1}, []float64{0, 1, 2, 3}, 0.99, 2},
		{"p100 in the last bucket", []uint64{1, 98, 1}, []float64{0, 1, 2, 3}, 1, 3},
		{"open last bucket reports its floor", []uint64{0, 5}, []float64{0, 1, inf}, 0.5, 1},
	} {
		if got := histQuantile(tc.counts, tc.bounds, tc.q); got != tc.want {
			t.Errorf("%s: histQuantile = %v, want %v", tc.name, got, tc.want)
		}
	}
}

const snmpText = `Ip: Forwarding DefaultTTL InReceives
Ip: 2 64 7036071
Udp: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors InCsumErrors IgnoredMulti MemErrors
Udp: 7032623 97 0 7032772 5 0 0 0 0
UdpLite: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors InCsumErrors IgnoredMulti MemErrors
UdpLite: 0 0 0 0 0 0 0 0 0
`

func TestParseSNMP(t *testing.T) {
	got, err := parseSNMP(snmpText, "Udp")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"InDatagrams": 7032623, "NoPorts": 97, "InErrors": 0, "OutDatagrams": 7032772,
		"RcvbufErrors": 5, "SndbufErrors": 0, "InCsumErrors": 0, "IgnoredMulti": 0, "MemErrors": 0,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d counters, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	for _, bad := range []struct{ name, text, proto string }{
		{"missing protocol", snmpText, "Tcp"},
		{"short value line", "Udp: A B\nUdp: 1\n", "Udp"},
		{"non-numeric value", "Udp: A\nUdp: x\n", "Udp"},
	} {
		if _, err := parseSNMP(bad.text, bad.proto); err == nil {
			t.Errorf("%s: no error", bad.name)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM("Name:\tperfbench\nVmPeak:\t 1525824 kB\nVmHWM:\t   15060 kB\nVmRSS:\t   14000 kB\n")
	if err != nil || got != 15.42144 {
		t.Errorf("parseVmHWM = %v, %v; want 15.42144", got, err)
	}
	if _, err := parseVmHWM("Name:\tperfbench\n"); err == nil {
		t.Error("status without VmHWM: no error")
	}
}

func TestNetLayerGuard(t *testing.T) {
	// The nodes hand their sockets 1000 data packets and 1000 ACKs, of which
	// 10 are dropped at the ring: 1990 datagrams over 100 operations.
	before := netCounters{udp: map[string]uint64{"OutDatagrams": 5000, "RcvbufErrors": 1}}
	after := netCounters{pktsSent: 1000, acksSent: 1000, ringDrops: 10, pktsRecv: 1000, pktsRetx: 20}
	for _, tc := range []struct {
		name                       string
		out                        uint64
		dgrams, outside, unavailed float64
	}{
		{"exact", 5000 + 1990, 19.9, 0, 0},
		{"a few still queued", 5000 + 1985, 19.85, 0, 0},
		{"outside traffic", 5000 + 1990 + 500, 19.9, 500, 0},
		{"counter misses the sockets", 5000 + 1000, 19.9, 0, 1},
	} {
		after.udp = map[string]uint64{"OutDatagrams": tc.out, "RcvbufErrors": 4}
		m := netLayer(before, after, 100)
		if m["udpnet.dgrams_per_op"] != tc.dgrams || m["udpnet.outside_dgrams"] != tc.outside ||
			m["udpnet.snmp_unavailable"] != tc.unavailed {
			t.Errorf("%s: dgrams/op %v outside %v unavailable %v; want %v %v %v", tc.name,
				m["udpnet.dgrams_per_op"], m["udpnet.outside_dgrams"], m["udpnet.snmp_unavailable"],
				tc.dgrams, tc.outside, tc.unavailed)
		}
		if m["udpnet.rcvbuf_drops"] != 3 || m["core.retx_per_msg"] != 0.2 || m["core.acks_per_data_pkt"] != 1 ||
			m["udpnet.ring_full_drops"] != 10 {
			t.Errorf("%s: counters %v", tc.name, m)
		}
	}
}

func TestSummarize(t *testing.T) {
	// 1000 operations of 1..1000 µs in 4 s, using 2 s of CPU and 3000
	// allocations.
	h := histOf(seq(1000, 1))
	use := usageDelta{cpu: 2 * time.Second, mallocs: 3000}
	for _, tc := range []struct {
		name  string
		tailP float64
		want  summary
	}{
		{"p99 tail", 99, summary{opsPerS: 250, p50: top(500, 1000), tail: top(990, 1000), cpuUS: 2000, allocs: 3}},
		{"slowest as tail", 0, summary{opsPerS: 250, p50: top(500, 1000), tail: 1000, cpuUS: 2000, allocs: 3}},
	} {
		got, err := summarize(h, 4*time.Second, use, tc.tailP)
		if err != nil || got != tc.want {
			t.Errorf("%s: summarize = %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}
	if _, err := summarize(histOf(seq(100, 1)), time.Second, use, 99); err == nil {
		t.Error("p99 from 100 operations: no error")
	}
}

func TestInputs(t *testing.T) {
	a, b := newInputs(7, 64), newInputs(7, 64)
	if a.key != b.key || string(a.bodies[3]) != string(b.bodies[3]) {
		t.Fatal("same seed gave different inputs")
	}
	if c := newInputs(8, 64); c.key == a.key {
		t.Fatal("different seeds gave the same key")
	}
	buf := make([]byte, 64)
	for _, s := range []uint64{0, 1, 12345} {
		a.fill(buf, s)
		if got := a.seqOf(buf); got != s {
			t.Errorf("seqOf(fill(%d)) = %d", s, got)
		}
	}
	// The bulk receiver's expected CRC: the body's CRC extended by the tag.
	in := newInputs(3, bulkBytes-8)
	msg := make([]byte, bulkBytes)
	in.fill(msg, 42)
	want := crc32.Update(crc32.ChecksumIEEE(in.bodies[42%bodies]), crc32.IEEETable, msg[bulkBytes-8:])
	if got := crc32.ChecksumIEEE(msg); got != want {
		t.Errorf("message CRC %08x, expected %08x", got, want)
	}
}
