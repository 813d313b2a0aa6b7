package exp

import (
	"testing"
	"time"
)

// The golden tests pin simulator outputs exactly. These configurations are
// deterministic and draw no random numbers, so any change to a pinned value
// is a change in what the model computes, never noise: a refactor or an
// optimization that is meant to leave behaviour alone must keep every pin.
// The same values are pinned by the benchmark (perfbench/sim.go), which
// checks them on every timed run.

// TestGoldenFig5 pins the mean goodput of both systems in the Fig. 5
// alternating-path experiment.
func TestGoldenFig5(t *testing.T) {
	r := RunFig5(Fig5Config{Seed: 1})
	for _, c := range []struct {
		system string
		got    float64
		want   float64
	}{
		{"MTP", r.MTP.MeanGbps, 51.38366879999992},
		{"DCTCP", r.DCTCP.MeanGbps, 46.51384800000013},
	} {
		if c.got != c.want {
			t.Errorf("%s mean goodput %v Gbps, pinned %v", c.system, c.got, c.want)
		}
	}
}

// goldenIncastConfig is 64-to-1 incast on a k=8 fat-tree (128 hosts),
// eight 256 KB messages per sender — the benchmark's sim-incast workload.
func goldenIncastConfig() ScaleConfig {
	return ScaleConfig{
		Topo: "fattree", K: 8,
		Pattern: "incast", Incast: 64, MsgSize: 256 << 10, Messages: 8,
		HostRate: 10e9, FabricRate: 10e9, Delay: time.Microsecond, QueueCap: 256, ECNK: 64,
		Shards: 1, Workers: 1, Seed: 1,
	}
}

// TestGoldenIncast pins each system's row of the k=8 64-to-1 incast:
// completions, p99 flow completion time and retransmissions.
func TestGoldenIncast(t *testing.T) {
	type row struct {
		System    string
		Completed int
		P99us     float64
		Retx      uint64
	}
	want := []row{
		{"MTP", 512, 69495, 9635},
		{"DCTCP/ECMP", 512, 17795, 72},
	}
	r := RunScale(goldenIncastConfig())
	if len(r.Rows) != len(want) {
		t.Fatalf("%d result rows, want %d", len(r.Rows), len(want))
	}
	for i, w := range want {
		g := r.Rows[i]
		if got := (row{g.System, g.Completed, g.P99us, g.Retx}); got != w {
			t.Errorf("row %d is %+v, pinned %+v", i, got, w)
		}
	}
}
