package baseline

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"mtp/internal/cc"
	"mtp/internal/sim"
	"mtp/internal/simnet"
)

// mapModel is the reference for the sender's send-time record: a map from
// seq to first-send time, updated the way the record is specified — record
// first sends, forget retransmitted segments (Karn), sample the RTT from
// sndUna's entry on an advancing ACK and then forget everything below the
// ACK, forget everything on a go-back-N timeout.
type mapModel struct {
	at   map[int64]time.Duration
	srtt time.Duration
	// midHits counts RTT samples taken from an entry that was not the
	// oldest one — the case after a rewind that a FIFO head cannot serve.
	midHits int
}

func (m *mapModel) emit(seg *Segment, retx bool, now time.Duration) {
	if retx {
		delete(m.at, seg.Seq)
	} else {
		m.at[seg.Seq] = now
	}
}

// ack runs before the sender sees an ACK for ackNo while its sndUna is una.
func (m *mapModel) ack(una, ackNo int64, now time.Duration) {
	if ackNo <= una {
		return
	}
	if t0, ok := m.at[una]; ok {
		sample := now - t0
		if m.srtt == 0 {
			m.srtt = sample
		} else {
			m.srtt = (7*m.srtt + sample) / 8
		}
		for seq := range m.at {
			if seq < una {
				m.midHits++
				break
			}
		}
	}
	for seq := range m.at {
		if seq < ackNo {
			delete(m.at, seq)
		}
	}
}

// check compares the sender's live records with the model.
func (m *mapModel) check(s *Sender) error {
	if s.srtt != m.srtt {
		return fmt.Errorf("srtt %v, model %v", s.srtt, m.srtt)
	}
	live := s.sent.recs[s.sent.head:]
	n := 0
	for i, r := range live {
		if i > 0 && r.seq <= live[i-1].seq {
			return fmt.Errorf("records out of order: %d after %d", r.seq, live[i-1].seq)
		}
		if r.retx {
			if _, ok := m.at[r.seq]; ok {
				return fmt.Errorf("seq %d retransmitted but the model still samples it", r.seq)
			}
			continue
		}
		n++
		if t0, ok := m.at[r.seq]; !ok || t0 != r.at {
			return fmt.Errorf("seq %d sent at %v, model has %v (present %v)", r.seq, r.at, t0, ok)
		}
	}
	if n != len(m.at) {
		return fmt.Errorf("%d sampleable records, model has %d", n, len(m.at))
	}
	return nil
}

// senderHarness drives one sender through ACKs and timeouts with its RTO
// timer out of the way, mirroring every emitted segment into the model.
type senderHarness struct {
	eng   *sim.Engine
	snd   *Sender
	model *mapModel
	retx  uint64
	hi    int64 // highest byte ever sent
	segs  []Segment
}

const harnessMSS = 100

func newSenderHarness(kind cc.Kind) *senderHarness {
	h := &senderHarness{eng: sim.NewEngine(1), model: &mapModel{at: map[int64]time.Duration{}}}
	h.snd = NewSender(h.eng, h.emit, SenderConfig{
		Conn: 1, MSS: harnessMSS, CC: kind, SkipHandshake: true,
		RTO:      time.Hour, // timeouts are injected by the script
		CCConfig: cc.Config{MaxWindow: 16 * harnessMSS},
	})
	return h
}

func (h *senderHarness) emit(p *simnet.Packet) {
	seg := p.Payload.(*Segment)
	retx := h.snd.SegsRetx != h.retx
	h.retx = h.snd.SegsRetx
	h.model.emit(seg, retx, h.eng.Now())
	h.hi = max(h.hi, seg.Seq+int64(seg.Len))
	h.segs = append(h.segs, *seg)
}

// digest fingerprints the emitted segments and the final srtt.
func (h *senderHarness) digest() uint64 {
	f := fnv.New64a()
	for _, seg := range h.segs {
		_ = binary.Write(f, binary.LittleEndian, []int64{seg.Seq, int64(seg.Len)})
	}
	_ = binary.Write(f, binary.LittleEndian, int64(h.snd.srtt))
	return f.Sum64()
}

func (h *senderHarness) advance(d time.Duration) { h.eng.Run(h.eng.Now() + d) }

func (h *senderHarness) ack(ackNo int64, ecn bool) {
	h.model.ack(h.snd.sndUna, ackNo, h.eng.Now())
	h.snd.OnPacket(&simnet.Packet{Payload: &Segment{Conn: 1, Ack: true, AckNo: ackNo, ECNEcho: ecn, Wnd: 1 << 40}})
}

func (h *senderHarness) rto() {
	s := h.snd
	if s.established && !s.finAcked && s.Outstanding() != 0 {
		clear(h.model.at)
	}
	s.onRTO()
}

// TestSentLogRewindThenAckPastSndNxt walks the case a FIFO of send times
// gets wrong: after a go-back-N rewind, a cumulative ACK for pre-rewind
// data lands beyond sndNxt, pump records segments below the new sndUna,
// and the next ACK must still sample sndUna's record from the middle.
func TestSentLogRewindThenAckPastSndNxt(t *testing.T) {
	h := newSenderHarness(cc.KindAIMD)
	steps := []struct {
		name string
		do   func()
	}{
		{"first window", func() { h.snd.Write(1 << 20) }},
		{"ack two segments", func() { h.advance(10 * time.Microsecond); h.ack(2*harnessMSS, false) }},
		{"timeout rewinds", func() { h.advance(5 * time.Microsecond); h.rto() }},
		{"ack past sndNxt", func() {
			h.advance(7 * time.Microsecond)
			if h.snd.sndNxt >= 11*harnessMSS {
				t.Fatalf("sndNxt %d already past the ack point", h.snd.sndNxt)
			}
			n := len(h.segs)
			h.ack(11*harnessMSS, false)
			if h.segs[n].Seq >= h.snd.sndUna {
				t.Fatalf("first send after the jump at %d, not below sndUna %d", h.segs[n].Seq, h.snd.sndUna)
			}
		}},
		{"ack from the middle", func() { h.advance(3 * time.Microsecond); h.ack(12*harnessMSS, false) }},
	}
	for _, st := range steps {
		st.do()
		if err := h.model.check(h.snd); err != nil {
			t.Fatalf("after %s: %v", st.name, err)
		}
	}
	if h.model.midHits != 1 {
		t.Fatalf("%d samples from the middle of the record, want 1", h.model.midHits)
	}
}

// TestSentLogMatchesMapModel drives seeded random ACK and timeout sequences
// — duplicate ACKs, partial and full window ACKs, ACKs past sndNxt after a
// rewind, ECN echoes — and checks after every step that the sender's record
// and srtt equal the map model's. The digest of the emitted segments and
// final srtt is pinned from the earlier map-based record, so the segments
// the sender emits are checked against that implementation too.
func TestSentLogMatchesMapModel(t *testing.T) {
	cases := []struct {
		kind   cc.Kind
		seed   int64
		steps  int
		segs   int
		digest uint64
	}{
		{cc.KindDCTCP, 1, 3000, 11227, 0x6d69265c4835ca5f},
		{cc.KindDCTCP, 2, 3000, 12219, 0xb33dc75042be5142},
		{cc.KindAIMD, 3, 3000, 6675, 0x8e00cfa1600769b1},
		{cc.KindAIMD, 4, 3000, 6496, 0xd44d02750c452d4e},
	}
	midHits := 0
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/seed%d", c.kind, c.seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(c.seed))
			h := newSenderHarness(c.kind)
			h.snd.Write(1 << 30)
			for i := 0; i < c.steps; i++ {
				h.advance(time.Duration(1+r.Intn(20)) * time.Microsecond)
				una := h.snd.sndUna
				segs := (h.hi - una) / harnessMSS
				switch p := r.Intn(100); {
				case p < 8:
					h.rto()
				case p < 25 || segs == 0:
					h.ack(una, r.Intn(4) == 0) // duplicate
				case p < 85:
					inFlight := max(1, (h.snd.sndNxt-una)/harnessMSS)
					h.ack(una+harnessMSS*min(segs, 1+r.Int63n(inFlight)), r.Intn(5) == 0)
				default:
					h.ack(una+harnessMSS*(1+r.Int63n(segs)), false) // anywhere up to the highest byte sent
				}
				if err := h.model.check(h.snd); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			if got := h.digest(); len(h.segs) != c.segs || got != c.digest {
				t.Errorf("emitted %d segments with digest %#x, pinned %d and %#x", len(h.segs), got, c.segs, c.digest)
			}
			midHits += h.model.midHits
		})
	}
	if midHits == 0 {
		t.Fatal("no RTT sample came from the middle of the record: the scripts miss the rewind case")
	}
}

// BenchmarkSenderAckWindow measures the sender's per-ACK cost with a full
// 256 KiB window (about 180 MSS segments) in flight: every ACK advances
// one segment and releases one more, so the window stays full.
func BenchmarkSenderAckWindow(b *testing.B) {
	const wnd = 256 << 10
	eng := sim.NewEngine(1)
	snd := NewSender(eng, func(*simnet.Packet) {}, SenderConfig{
		Conn: 1, SkipHandshake: true,
		CCConfig: cc.Config{InitWindow: wnd, MaxWindow: wnd},
	})
	snd.Write(1 << 62)
	seg := &Segment{Conn: 1, Ack: true, Wnd: 1 << 40}
	pkt := &simnet.Packet{Payload: seg}
	if n := snd.Outstanding() / int64(snd.cfg.MSS); n < 170 {
		b.Fatalf("%d segments in flight, want about 180", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.AckNo = snd.Acked() + int64(snd.cfg.MSS)
		snd.OnPacket(pkt)
	}
}
