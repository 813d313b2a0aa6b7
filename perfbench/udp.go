package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mtp"
)

// The loopback workloads run two mtp.Nodes in this process, each bound to
// its own UDP socket on 127.0.0.1 — two sockets in all.
const (
	rpcPort      = 7
	rpcReqBytes  = 64 // one packet each way
	rpcWarmCalls = 2000

	bulkPort     = 9
	bulkBytes    = 64 << 10 // about 55 packets at the default MSS
	bulkWarmMsgs = 200

	// opTimeout bounds how long an operation may still take after its
	// phase ends before it counts as failed.
	opTimeout = 5 * time.Second
	// bodies is how many distinct seeded payload bodies a workload cycles
	// through.
	bodies = 8
)

// inputs are a loopback workload's seeded payloads. Operation seq carries
// the tag seq^key in its payload and the body bodies[seq%len(bodies)], so
// the receiving side can tell which operation a payload belongs to and
// what it must contain.
type inputs struct {
	key    uint64
	bodies [][]byte
}

func newInputs(seed int64, bodyLen int) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{key: rng.Uint64()}
	for i := 0; i < bodies; i++ {
		b := make([]byte, bodyLen)
		rng.Read(b)
		in.bodies = append(in.bodies, b)
	}
	return in
}

// fill writes operation seq's payload into buf: the body, then the 8-byte
// tag at the end.
func (in inputs) fill(buf []byte, seq uint64) {
	copy(buf, in.bodies[seq%bodies])
	binary.BigEndian.PutUint64(buf[len(buf)-8:], seq^in.key)
}

// seqOf recovers the operation a payload was built for.
func (in inputs) seqOf(payload []byte) uint64 {
	return binary.BigEndian.Uint64(payload[len(payload)-8:]) ^ in.key
}

// nodePair is the loopback pair: client sends, server receives and serves.
type nodePair struct {
	client, server *mtp.Node
	addr           string // server address
}

func newNodePair(clientCfg, serverCfg mtp.Config) (*nodePair, error) {
	open := func(cfg mtp.Config) (*mtp.Node, error) {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		n, err := mtp.NewNode(pc, cfg)
		if err != nil {
			pc.Close()
			return nil, err
		}
		return n, nil
	}
	server, err := open(serverCfg)
	if err != nil {
		return nil, err
	}
	client, err := open(clientCfg)
	if err != nil {
		server.Close()
		return nil, err
	}
	return &nodePair{client: client, server: server, addr: server.Addr().String()}, nil
}

func (p *nodePair) close() {
	p.client.Close()
	p.server.Close()
}

// netCounters are the protocol and kernel counters a loopback phase
// reports the change of.
type netCounters struct {
	pktsSent, pktsRetx, pktsRecv, pktsDup, acksSent, timeouts, ringDrops uint64
	udp                                                                  map[string]uint64
	udpErr                                                               error
}

func (p *nodePair) counters() netCounters {
	var c netCounters
	for _, n := range []*mtp.Node{p.client, p.server} {
		s := n.Stats()
		c.pktsSent += s.PktsSent
		c.pktsRetx += s.PktsRetx
		c.pktsRecv += s.PktsReceived
		c.pktsDup += s.PktsDuplicate
		c.acksSent += s.AcksSent
		c.timeouts += s.Timeouts
		c.ringDrops += s.RingFullDrops
	}
	c.udp, c.udpErr = readUDPCounters()
	return c
}

// netLayer turns the counter changes over a phase of ops operations into
// the core and udpnet per-layer metrics.
//
// /proc/net/snmp counts the whole network namespace, so the datagram count
// is guarded against what the two nodes handed their sockets (data packets
// and ACKs, less ring-full drops). The two may differ by the few datagrams
// still queued when the phase ends. A namespace count well below the nodes'
// means the counter does not see these sockets; one well above it means
// other traffic shared the namespace. In both cases the nodes' own count is
// reported and the difference is flagged.
func netLayer(before, after netCounters, ops int64) map[string]float64 {
	d := func(a, b uint64) float64 { return float64(a - b) }
	nodeDgrams := d(after.pktsSent, before.pktsSent) + d(after.acksSent, before.acksSent) -
		d(after.ringDrops, before.ringDrops)
	m := map[string]float64{
		"core.retx_per_msg":       perOp(d(after.pktsRetx, before.pktsRetx), ops),
		"core.acks_per_data_pkt":  ratio(d(after.acksSent, before.acksSent), d(after.pktsRecv, before.pktsRecv)),
		"core.dup_pkts_per_kop":   perOp(1000*d(after.pktsDup, before.pktsDup), ops),
		"core.timeouts_per_kop":   perOp(1000*d(after.timeouts, before.timeouts), ops),
		"udpnet.ring_full_drops":  d(after.ringDrops, before.ringDrops),
		"udpnet.dgrams_per_op":    perOp(nodeDgrams, ops),
		"udpnet.outside_dgrams":   0,
		"udpnet.rcvbuf_drops":     0,
		"udpnet.snmp_unavailable": 0,
	}
	if before.udpErr != nil || after.udpErr != nil {
		m["udpnet.snmp_unavailable"] = 1
		fmt.Fprintf(os.Stderr, "perfbench: /proc/net/snmp unreadable (%v %v); datagrams counted by the nodes\n", before.udpErr, after.udpErr)
		return m
	}
	m["udpnet.rcvbuf_drops"] = d(after.udp["RcvbufErrors"], before.udp["RcvbufErrors"])
	out := d(after.udp["OutDatagrams"], before.udp["OutDatagrams"])
	switch slack := nodeDgrams/100 + 100; {
	case out < nodeDgrams-slack:
		m["udpnet.snmp_unavailable"] = 1
		fmt.Fprintf(os.Stderr, "perfbench: namespace sent %.0f datagrams, nodes %.0f; counter misses these sockets\n", out, nodeDgrams)
	case out > nodeDgrams+slack:
		m["udpnet.outside_dgrams"] = out - nodeDgrams
		fmt.Fprintf(os.Stderr, "perfbench: %.0f datagrams of outside traffic in the namespace; not reported\n", out-nodeDgrams)
	default:
		m["udpnet.dgrams_per_op"] = perOp(out, ops)
	}
	return m
}

// closedLoop repeats op from start until the deadline passes or budget
// operations have been tried, one at a time. next hands out operation
// numbers. op returns the operation's latency, or an error, after which
// the loop stops.
func closedLoop(start, deadline time.Time, budget int64, op func(seq uint64) (time.Duration, error), next *atomic.Uint64) *phase {
	p := &phase{lat: newHist()}
	for p.attempted < budget && time.Now().Before(deadline) {
		p.attempted++
		el, err := op(next.Add(1) - 1)
		if err != nil {
			p.failed++
			p.errs = append(p.errs, err)
			break
		}
		p.lat.add(toUS(el))
	}
	p.elapsed = time.Since(start)
	return p
}

// --- udp-rpc ---

type rpcBench struct {
	pair *nodePair
	in   inputs
	next atomic.Uint64
	tr   atomic.Pointer[tracer]
}

func openRPC(seed int64) (instance, error) {
	r := &rpcBench{in: newInputs(seed, rpcReqBytes)}
	pair, err := newNodePair(mtp.Config{Port: 1}, mtp.Config{Port: rpcPort})
	if err != nil {
		return nil, err
	}
	r.pair = pair
	if err := pair.server.ServeRPC(rpcPort, r.handle); err != nil {
		pair.close()
		return nil, err
	}
	if p := r.phase(time.Now(), time.Hour, rpcWarmCalls, nil); p.failed > 0 {
		pair.close()
		return nil, fmt.Errorf("warm-up: %d of %d calls failed: %v", p.failed, p.attempted, p.errs)
	}
	return r, nil
}

// handle is the echo server. In traced phases it records a span keyed by
// the operation the request's tag names.
func (r *rpcBench) handle(_ string, req []byte) ([]byte, error) {
	if tr := r.tr.Load(); tr != nil && len(req) >= 8 {
		t := tr.now()
		defer func() { tr.add(r.in.seqOf(req), spanHandler, t, tr.now()) }()
	}
	return req, nil
}

func (r *rpcBench) run(start time.Time, d time.Duration, tr *tracer) *phase {
	return r.phase(start, d, math.MaxInt64, tr)
}

func (r *rpcBench) phase(start time.Time, d time.Duration, budget int64, tr *tracer) *phase {
	r.tr.Store(tr)
	defer r.tr.Store(nil)
	ctx, cancel := context.WithTimeout(context.Background(), d+opTimeout)
	defer cancel()
	// One request buffer serves the phase: Call copies it, and the next
	// call starts only after this one returns.
	req := make([]byte, rpcReqBytes)
	call := func(seq uint64) (time.Duration, error) {
		r.in.fill(req, seq)
		ts := tr.now()
		t0 := time.Now()
		resp, err := r.pair.client.Call(ctx, r.pair.addr, rpcPort, req)
		el := time.Since(t0)
		tr.add(seq, spanCall, ts, tr.now())
		if err != nil {
			return 0, fmt.Errorf("call %d: %w", seq, err)
		}
		if !bytes.Equal(resp, req) {
			return 0, fmt.Errorf("call %d: response differs from request", seq)
		}
		return el, nil
	}
	before := r.pair.counters()
	p := closedLoop(start, start.Add(d), budget, call, &r.next)
	p.layer = netLayer(before, r.pair.counters(), p.lat.n)
	if tr != nil {
		req, resp := tr.legs(spanCall, spanHandler)
		p.layer["mtp.req_leg_us"] = median(req)
		p.layer["mtp.resp_leg_us"] = median(resp)
	}
	return p
}

func (r *rpcBench) close() { r.pair.close() }

// --- udp-bulk ---

type bulkBench struct {
	pair    *nodePair
	in      inputs
	bodyCRC []uint32 // CRC-32 of each body, extended by the tag per message
	next    atomic.Uint64
	tr      atomic.Pointer[tracer]

	mu sync.Mutex
	// seen is each operation's delivery state: 0 not delivered, 1 delivered
	// once and intact, 2 delivered again or corrupt.
	seen  []uint8
	stray int64 // deliveries that match no message sent
}

func openBulk(seed int64) (instance, error) {
	b := &bulkBench{in: newInputs(seed, bulkBytes-8)}
	for _, body := range b.in.bodies {
		b.bodyCRC = append(b.bodyCRC, crc32.ChecksumIEEE(body))
	}
	pair, err := newNodePair(mtp.Config{Port: 1}, mtp.Config{Port: bulkPort, OnMessage: b.onMessage})
	if err != nil {
		return nil, err
	}
	b.pair = pair
	if p := b.phase(time.Now(), time.Hour, bulkWarmMsgs, nil); p.failed > 0 {
		pair.close()
		return nil, fmt.Errorf("warm-up: %d of %d messages failed: %v", p.failed, p.attempted, p.errs)
	}
	return b, nil
}

// onMessage checks each delivery against its seeded payload by CRC and
// records it against its operation, so a phase can require every message
// exactly once.
func (b *bulkBench) onMessage(m mtp.Message) {
	tr := b.tr.Load()
	t := tr.now()
	valid := m.DstPort == bulkPort && len(m.Data) == bulkBytes
	var seq uint64
	var intact bool
	if valid {
		seq = b.in.seqOf(m.Data)
		tag := m.Data[bulkBytes-8:]
		intact = crc32.ChecksumIEEE(m.Data) == crc32.Update(b.bodyCRC[seq%bodies], crc32.IEEETable, tag)
	}
	b.mu.Lock()
	if !valid || seq >= b.next.Load() {
		b.stray++
	} else {
		for uint64(len(b.seen)) <= seq {
			b.seen = append(b.seen, 0)
		}
		if intact && b.seen[seq] == 0 {
			b.seen[seq] = 1
		} else {
			b.seen[seq] = 2
		}
	}
	b.mu.Unlock()
	tr.add(seq, spanDeliver, t, tr.now())
}

func (b *bulkBench) run(start time.Time, d time.Duration, tr *tracer) *phase {
	return b.phase(start, d, math.MaxInt64, tr)
}

func (b *bulkBench) phase(start time.Time, d time.Duration, budget int64, tr *tracer) *phase {
	b.tr.Store(tr)
	defer b.tr.Store(nil)
	ctx, cancel := context.WithTimeout(context.Background(), d+opTimeout)
	defer cancel()
	// One payload buffer serves the phase: the node references a payload
	// until its message is acknowledged, and the next message is built only
	// after that.
	buf := make([]byte, bulkBytes)
	send := func(seq uint64) (time.Duration, error) {
		b.in.fill(buf, seq)
		ts := tr.now()
		t0 := time.Now()
		out, err := b.pair.client.Send(b.pair.addr, bulkPort, buf)
		tsRet := tr.now()
		if err != nil {
			return 0, fmt.Errorf("send %d: %w", seq, err)
		}
		select {
		case <-out.Done():
		case <-ctx.Done():
			return 0, fmt.Errorf("message %d: not acknowledged", seq)
		}
		el := time.Since(t0)
		tr.add(seq, spanSend, ts, tsRet)
		tr.add(seq, spanDone, tsRet, tr.now())
		return el, nil
	}
	before := b.pair.counters()
	b.mu.Lock()
	stray0 := b.stray
	b.mu.Unlock()
	first := b.next.Load()
	p := closedLoop(start, start.Add(d), budget, send, &b.next)
	last := b.next.Load()
	p.layer = netLayer(before, b.pair.counters(), p.lat.n)

	// An acknowledged message may reach OnMessage a moment after Done
	// closes; give stragglers until the operation timeout.
	var once, missing, bad int64
	for wait := time.Now().Add(opTimeout); ; time.Sleep(time.Millisecond) {
		once, missing, bad = b.tally(first, last)
		if missing <= p.failed || time.Now().After(wait) {
			break
		}
	}
	b.mu.Lock()
	stray := b.stray - stray0
	b.mu.Unlock()
	// Failed sends are already counted; any other missing message, and
	// every duplicate, corrupt or stray delivery, is a failure too.
	if extra := missing - p.failed; extra > 0 {
		p.failed += extra
		p.errs = append(p.errs, fmt.Errorf("%d acknowledged messages never delivered", extra))
	}
	if bad+stray > 0 {
		p.failed += bad + stray
		p.errs = append(p.errs, fmt.Errorf("%d messages delivered twice or corrupt, %d stray deliveries", bad, stray))
	}
	p.extra = map[string]metric{
		"goodput_mb_s": {rate(toMB(float64(once*bulkBytes)), p.elapsed), "MB/s"},
	}
	// udp-bulk is not in BENCHMARK.json, so its span figures are printed
	// with the workload's own metrics rather than declared per-layer ones.
	if tr != nil {
		p.extra["mtp.send_call_us"] = metric{median(tr.durations(spanSend)), "us"}
		p.extra["mtp.ack_wait_us"] = metric{median(tr.durations(spanDone)), "us"}
	}
	return p
}

// tally counts operations in [first, last) delivered exactly once and
// intact, not delivered, and delivered again or corrupt.
func (b *bulkBench) tally(first, last uint64) (once, missing, bad int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for seq := first; seq < last; seq++ {
		switch {
		case seq >= uint64(len(b.seen)) || b.seen[seq] == 0:
			missing++
		case b.seen[seq] == 1:
			once++
		default:
			bad++
		}
	}
	return once, missing, bad
}

func (b *bulkBench) close() { b.pair.close() }
