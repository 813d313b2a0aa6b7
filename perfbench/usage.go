package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a snapshot of process-wide counters; phases report the
// difference between two snapshots.
type usage struct {
	cpu      time.Duration // user + system
	mallocs  uint64
	ctxSw    int64 // voluntary + involuntary context switches
	gcCPU    float64
	totalCPU float64
	sched    *metrics.Float64Histogram
	steal    uint64 // host-wide stolen CPU ticks, from /proc/stat
}

var usageMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
	"/gc/heap/allocs:objects",
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(usageMetrics))
	for i, name := range usageMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	u := usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		ctxSw: ru.Nvcsw + ru.Nivcsw,
	}
	u.steal = readSteal()
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		u.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		u.sched = s[2].Value.Float64Histogram()
	}
	if s[3].Value.Kind() == metrics.KindUint64 {
		u.mallocs = s[3].Value.Uint64()
	}
	return u
}

// usageDelta is what a phase consumed between two snapshots.
type usageDelta struct {
	cpu          time.Duration
	mallocs      uint64
	ctxSw        int64
	gcCPUFrac    float64
	schedWaitP99 float64 // seconds
	steal        uint64  // clock ticks
}

func (u usage) since(before usage) usageDelta {
	d := usageDelta{
		cpu:       u.cpu - before.cpu,
		mallocs:   u.mallocs - before.mallocs,
		ctxSw:     u.ctxSw - before.ctxSw,
		steal:     u.steal - before.steal,
		gcCPUFrac: ratio(u.gcCPU-before.gcCPU, u.totalCPU-before.totalCPU),
	}
	if u.sched != nil && before.sched != nil && len(u.sched.Counts) == len(before.sched.Counts) {
		counts := make([]uint64, len(u.sched.Counts))
		for i := range counts {
			counts[i] = u.sched.Counts[i] - before.sched.Counts[i]
		}
		d.schedWaitP99 = histQuantile(counts, u.sched.Buckets, 0.99)
	}
	return d
}

// peakRSSMB is the process's peak resident set size in megabytes, read as
// VmHWM from /proc/self/status. getrusage's ru_maxrss is not used: it
// carries over exec, so it reports at least the footprint of whatever
// process forked the benchmark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return toMB(float64(kb) * 1024), nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// readUDPCounters reads the network namespace's UDP counters.
func readUDPCounters() (map[string]uint64, error) {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return nil, err
	}
	return parseSNMP(string(b), "Udp")
}

// provenance identifies what produced a result.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Rev        string `json:"rev"`
	SrcSHA256  string `json:"src_sha256"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Network    string `json:"network"`
}

func newProvenance(root, workload string, seed int64, seconds int, traced bool) provenance {
	network := "simulated"
	if strings.HasPrefix(workload, "udp-") {
		network = "loopback"
	}
	return provenance{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Rev:        gitRev(root),
		SrcSHA256:  sourceDigest(root),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Network:    network,
	}
}

// gitRev reads the checked-out commit from root/.git without running git,
// or returns "none" outside a git checkout.
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return hash
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and module file under root (paths
// and contents, in walk order), so results from checkouts without git
// history still name the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat; 100 on every
// Linux architecture Go supports.
const clockTicks = 100

// readSteal returns the CPU time, in clock ticks, the hypervisor gave to
// other guests while this machine's CPUs wanted to run.
func readSteal() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64)
	return v
}
