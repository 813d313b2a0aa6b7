package main

import (
	"sync"
	"time"
)

// Span kinds: one per boundary the benchmark crosses into the program.
// Spans of one operation share its op ID; the parent of each kind is fixed
// (handler and deliver are caused by the call or send of the same op, done
// follows send), so spans carry no explicit parent link.
const (
	spanCall    = "call"    // Node.Call, caller side, entry to return
	spanHandler = "handler" // RPC handler, entry to return
	spanSend    = "send"    // Node.Send, entry to return
	spanDone    = "done"    // Send return to Outgoing.Done closing
	spanDeliver = "deliver" // receiver OnMessage, entry to return
	spanSimRun  = "run"     // one exp.RunFig5 / exp.RunScale call
)

type span struct {
	op         uint64
	kind       string
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory for one traced phase. A nil *tracer records
// nothing, which is how untraced phases run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now is the tracer's clock; zero for a nil tracer.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

func (t *tracer) add(op uint64, kind string, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{op, kind, start, end})
	t.mu.Unlock()
}

// durations returns every span of kind's duration.
func (t *tracer) durations(kind string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.kind == kind {
			out = append(out, toUS(s.end-s.start))
		}
	}
	return out
}

// legs splits each op's outer span (kind from) at the start of its inner
// span (kind to): first is outer start → inner start, second is inner
// start → outer end, in microseconds, for every op that has both. For an
// RPC these are the request leg and the response leg.
func (t *tracer) legs(from, to string) (first, second []float64) {
	starts := make(map[uint64]span)
	for _, s := range t.spans {
		if s.kind == from {
			starts[s.op] = s
		}
	}
	for _, s := range t.spans {
		if s.kind != to {
			continue
		}
		if f, ok := starts[s.op]; ok {
			first = append(first, toUS(s.start-f.start))
			second = append(second, toUS(f.end-s.start))
		}
	}
	return first, second
}
