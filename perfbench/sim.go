package main

import (
	"fmt"
	"time"

	"mtp/internal/exp"
	"mtp/internal/simnet"
	"mtp/internal/topo"
)

// Results pinned from the simulator for the two sim workloads. The
// simulations are deterministic and, in these configurations, draw no
// random numbers, so the pins hold for every seed. BENCH_sim.json is not
// used as the reference: its Fig5 and Fig3 figures predate later changes
// to the simulator and no longer match what it computes.
const (
	pinFig5MTPGbps   = 51.38366879999992
	pinFig5DCTCPGbps = 46.51384800000013
)

type scalePin struct {
	system              string
	completed, expected int
	p99us               float64
	retx                uint64
}

var pinIncast = []scalePin{
	{system: "MTP", completed: 512, expected: 512, p99us: 69495, retx: 9635},
	{system: "DCTCP/ECMP", completed: 512, expected: 512, p99us: 17795, retx: 72},
}

// --- sim-fig5 ---

type fig5Bench struct{ seed int64 }

// openFig5 warms up with a 1 ms run of the same experiment, which builds
// both systems' topologies and primes the engine.
func openFig5(seed int64) (instance, error) {
	exp.RunFig5(exp.Fig5Config{Seed: seed, Duration: time.Millisecond})
	return &fig5Bench{seed: seed}, nil
}

func (f *fig5Bench) run(start time.Time, d time.Duration, tr *tracer) *phase {
	p := &phase{lat: newHist()}
	for op := uint64(0); time.Since(start) < d; op++ {
		ts := tr.now()
		t0 := time.Now()
		r := exp.RunFig5(exp.Fig5Config{Seed: f.seed})
		el := time.Since(t0)
		tr.add(op, spanSimRun, ts, tr.now())
		p.attempted++
		if r.MTP.MeanGbps != pinFig5MTPGbps || r.DCTCP.MeanGbps != pinFig5DCTCPGbps {
			p.failed++
			p.errs = append(p.errs, fmt.Errorf("fig5 run %d: MTP %v DCTCP %v Gbps, pinned %v and %v",
				op, r.MTP.MeanGbps, r.DCTCP.MeanGbps, pinFig5MTPGbps, pinFig5DCTCPGbps))
			continue
		}
		p.lat.add(toUS(el))
	}
	p.elapsed = time.Since(start)
	return p
}

func (f *fig5Bench) close() {}

// --- sim-incast ---

// incastConfig is 64-to-1 incast on a k=8 fat-tree (128 hosts), eight
// 256 KB messages per sender, both systems on one engine each, one after
// the other. The link parameters are set here, not left to exp.RunScale's
// defaults, so the fabric openIncast builds is the one the runs use.
func incastConfig(seed int64) exp.ScaleConfig {
	return exp.ScaleConfig{
		Topo: "fattree", K: 8,
		Pattern: "incast", Incast: 64, MsgSize: 256 << 10, Messages: 8,
		HostRate: 10e9, FabricRate: 10e9, Delay: time.Microsecond, QueueCap: 256, ECNK: 64,
		Shards: 1, Workers: 1, Seed: seed,
	}
}

type incastBench struct {
	cfg    exp.ScaleConfig
	builds []time.Duration
}

// openIncast builds the workload's fabric once per system — message-aware
// load balancing for MTP, ECMP for DCTCP — from the workload's config.
func openIncast(seed int64) (instance, error) {
	b := &incastBench{cfg: incastConfig(seed)}
	c := b.cfg
	host := topo.LinkSpec{Rate: c.HostRate, Delay: c.Delay, QueueCap: c.QueueCap, ECNThreshold: c.ECNK}
	fabric := topo.LinkSpec{Rate: c.FabricRate, Delay: c.Delay, QueueCap: c.QueueCap, ECNThreshold: c.ECNK}
	for _, policy := range []topo.PolicyFunc{
		func() simnet.ForwardPolicy { return simnet.NewMessageLB() },
		nil,
	} {
		t0 := time.Now()
		f := topo.NewFatTree(topo.FatTreeConfig{K: c.K, HostLink: host, FabricLink: fabric, Policy: policy, Seed: c.Seed})
		b.builds = append(b.builds, time.Since(t0))
		if f.NumHosts() != 128 {
			return nil, fmt.Errorf("fat-tree k=%d has %d hosts, want 128", c.K, f.NumHosts())
		}
	}
	return b, nil
}

func (b *incastBench) run(start time.Time, d time.Duration, tr *tracer) *phase {
	p := &phase{lat: newHist()}
	var events, completed, mtpRetx, mtpDone uint64
	var wall time.Duration
	var mtpWalls, dctcpWalls []time.Duration
	for op := uint64(0); time.Since(start) < d; op++ {
		ts := tr.now()
		t0 := time.Now()
		r := exp.RunScale(b.cfg)
		el := time.Since(t0)
		tr.add(op, spanSimRun, ts, tr.now())
		p.attempted++
		if err := checkIncast(r); err != nil {
			p.failed++
			p.errs = append(p.errs, fmt.Errorf("incast run %d: %w", op, err))
			continue
		}
		p.lat.add(toUS(el))
		for _, row := range r.Rows {
			events += row.Events
			completed += uint64(row.Completed)
			wall += row.Wall
		}
		mtpWalls = append(mtpWalls, r.Rows[0].Wall)
		dctcpWalls = append(dctcpWalls, r.Rows[1].Wall)
		mtpRetx += r.Rows[0].Retx
		mtpDone += uint64(r.Rows[0].Completed)
	}
	p.elapsed = time.Since(start)
	p.layer = map[string]float64{
		"sim.events_per_msg": ratio(float64(events), float64(completed)),
		"sim.mev_per_s":      rate(float64(events)/1e6, wall),
		"exp.mtp_run_s":      medianDur(mtpWalls),
		"exp.dctcp_run_s":    medianDur(dctcpWalls),
		"core.retx_per_msg":  ratio(float64(mtpRetx), float64(mtpDone)),
		"topo.build_ms":      medianDur(b.builds) * 1e3,
	}
	return p
}

func checkIncast(r exp.ScaleResult) error {
	if len(r.Rows) != len(pinIncast) {
		return fmt.Errorf("%d result rows, want %d", len(r.Rows), len(pinIncast))
	}
	for i, want := range pinIncast {
		row := r.Rows[i]
		got := scalePin{row.System, row.Completed, row.Expected, row.P99us, row.Retx}
		if got != want {
			return fmt.Errorf("row %d is %+v, pinned %+v", i, got, want)
		}
	}
	return nil
}

func (b *incastBench) close() {}
