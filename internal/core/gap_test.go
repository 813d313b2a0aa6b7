package core

import (
	"slices"
	"testing"
	"time"

	"mtp/internal/wire"
)

// nackEnv drives a lone receiver by hand and records the NACKs it emits.
type nackEnv struct {
	now   time.Duration
	nacks []wire.PacketRef
}

func (ne *nackEnv) Now() time.Duration           { return ne.now }
func (ne *nackEnv) SetTimer(time.Duration)       {}
func (ne *nackEnv) Output(pkt *Outbound)         { ne.nacks = append(ne.nacks, pkt.Hdr.NACK...) }
func (ne *nackEnv) take() (out []wire.PacketRef) { out, ne.nacks = ne.nacks, nil; return out }

// arrival is one data packet reaching the receiver.
type arrival struct {
	msg  uint64
	pn   uint32
	pkts uint32        // the header's MsgPkts
	wait time.Duration // extra time before the arrival
	// nacks are the packet numbers of msg the receiver NACKs in response.
	nacks []uint32
}

// TestGapNacksOutOfOrder checks the receiver's hole detection against
// out-of-order arrival schedules: each hole below the highest packet seen
// is NACKed once when it opens, again only after rto/2, and never once
// filled — including holes that open when MsgPkts grows mid-message and
// holes in a message that reuses a delivered message's pooled state.
func TestGapNacksOutOfOrder(t *testing.T) {
	const rto = time.Millisecond
	cases := []struct {
		name     string
		arrivals []arrival
	}{
		{"in order", []arrival{
			{1, 0, 4, 0, nil}, {1, 1, 4, 0, nil}, {1, 2, 4, 0, nil}, {1, 3, 4, 0, nil},
		}},
		{"one hole", []arrival{
			{1, 0, 4, 0, nil}, {1, 2, 4, 0, []uint32{1}}, {1, 3, 4, 0, nil}, {1, 1, 4, 0, nil},
		}},
		{"hole filled before the next gap", []arrival{
			{1, 0, 6, 0, nil}, {1, 2, 6, 0, []uint32{1}}, {1, 1, 6, 0, nil},
			{1, 4, 6, 0, []uint32{3}}, {1, 5, 6, 0, nil}, {1, 3, 6, 0, nil},
		}},
		{"reverse order", []arrival{
			{1, 4, 5, 0, []uint32{0, 1, 2, 3}}, {1, 3, 5, 0, nil}, {1, 1, 5, 0, nil},
			{1, 2, 5, 0, nil}, {1, 0, 5, 0, nil},
		}},
		{"duplicates re-NACK old holes after rto/2", []arrival{
			{1, 0, 6, 0, nil}, {1, 3, 6, 0, []uint32{1, 2}}, {1, 3, 6, 0, nil},
			{1, 0, 6, rto / 2, []uint32{1, 2}}, {1, 2, 6, 0, nil},
			{1, 5, 6, 0, []uint32{4}}, {1, 5, 6, rto / 2, []uint32{1, 4}},
			{1, 1, 6, 0, nil}, {1, 4, 6, 0, nil},
		}},
		{"MsgPkts grows mid-message", []arrival{
			{1, 0, 4, 0, nil}, {1, 2, 4, 0, []uint32{1}}, {1, 5, 8, 0, []uint32{3, 4}},
			{1, 1, 8, 0, nil}, {1, 7, 8, 0, []uint32{6}}, {1, 3, 8, 0, nil},
			{1, 4, 8, 0, nil}, {1, 6, 8, 0, nil},
		}},
		{"pooled state starts a fresh scan", []arrival{
			{1, 3, 4, 0, []uint32{0, 1, 2}}, {1, 0, 4, 0, nil}, {1, 1, 4, 0, nil}, {1, 2, 4, 0, nil},
			{2, 2, 4, 0, []uint32{0, 1}}, {2, 0, 4, 0, nil}, {2, 3, 4, 0, nil}, {2, 1, 4, 0, nil},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := &nackEnv{}
			delivered := map[uint64]bool{}
			ep := NewEndpoint(env, Config{
				LocalPort: 9, RTO: rto,
				OnMessage: func(m *InMessage) { delivered[m.MsgID] = true },
			})
			for i, a := range c.arrivals {
				env.now += 10*time.Microsecond + a.wait
				hdr := &wire.Header{
					Type: wire.TypeData, SrcPort: 7, DstPort: 9,
					MsgID: a.msg, MsgPkts: a.pkts, MsgBytes: a.pkts * 100,
					PktNum: a.pn, PktOffset: a.pn * 100, PktLen: 100,
				}
				ep.OnPacket(&Inbound{From: "peer", Hdr: hdr})
				var got []uint32
				for _, r := range env.take() {
					if r.MsgID != a.msg {
						t.Fatalf("arrival %d: NACK for message %d", i, r.MsgID)
					}
					got = append(got, r.PktNum)
				}
				if !slices.Equal(got, a.nacks) {
					t.Fatalf("arrival %d (msg %d pkt %d): NACKed %v, want %v", i, a.msg, a.pn, got, a.nacks)
				}
			}
			for _, a := range c.arrivals {
				if !delivered[a.msg] {
					t.Fatalf("message %d not delivered", a.msg)
				}
			}
			if n := len(ep.inflows); n != 0 {
				t.Fatalf("%d messages left in reassembly", n)
			}
		})
	}
}
