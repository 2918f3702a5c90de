package fabric

import (
	"math/rand"
	"testing"

	"repro/internal/ib"
	"repro/internal/topo"
)

// linearGrant is the reference arbiter: peek every ring slot cyclically
// from rr and return the first whose head packet fits the credits of
// its VL (no VL-rewrite hook is installed in the test).
func linearGrant(op *swOutPort) (int, bool) {
	for i := 0; i < len(op.voqs); i++ {
		k := (op.rr + i) & op.voqMask
		head := op.voqs[k].Peek()
		if head == nil {
			continue
		}
		if op.credits[head.VL] >= head.WireBytes() {
			return k, true
		}
	}
	return -1, false
}

// TestArbiterMatchesLinearScan drives the occupancy-bitmap arbiter
// (swOutPort.tryTx) against linearGrant on port×VL shapes below one
// bitmap word, at exactly one word and across four words, from every
// starting rr, with random occupancy, random MTU and CNP heads and
// random per-VL credit stalls — including credits that admit a CNP but
// not an MTU packet, so a stalled large head must not block a
// grantable small one. Every grant must pick the reference's VoQ and
// leave its rr, and the books CheckCreditBounds audits (pending, the
// bitmap) must hold after every step until the port drains or stalls.
func TestArbiterMatchesLinearScan(t *testing.T) {
	mtu := (&ib.Packet{Type: ib.DataPacket, PayloadBytes: ib.MTU}).WireBytes()
	cnp := (&ib.Packet{Type: ib.CNPPacket}).WireBytes()
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct{ ports, vls, words int }{
		{4, 1, 1}, {18, 1, 1}, {36, 1, 1}, {5, 2, 1}, {36, 3, 4},
	} {
		tp, err := topo.SingleSwitch(tc.ports)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.NumVLs = tc.vls
		n := buildNet(t, tp, cfg, Hooks{})
		sw := n.switches[0]
		op := sw.out[0]
		if len(op.occ) != tc.words {
			t.Fatalf("%d×%d: %d bitmap words, want %d", tc.ports, tc.vls, len(op.occ), tc.words)
		}
		credits := []int{0, cnp, mtu - 1, mtu, cfg.HostIbufBytes}
		var id uint64
		for start := 0; start < len(op.voqs); start++ {
			for trial := 0; trial < 3; trial++ {
				// Fill through enqueue with the serializer held busy so
				// the real set-bit path builds the bitmap.
				op.busy = true
				density := rng.Intn(4) // 0: empty port … 3: mostly full
				for in := 0; in < tc.ports; in++ {
					for vl := 0; vl < tc.vls; vl++ {
						if rng.Intn(4) >= density {
							continue
						}
						for c := 1 + rng.Intn(3); c > 0; c-- {
							p := &ib.Packet{ID: id, Type: ib.DataPacket, VL: ib.VL(vl), PayloadBytes: ib.MTU}
							if rng.Intn(3) == 0 {
								p.Type = ib.CNPPacket
							}
							id++
							sw.in[in].free[vl] -= p.WireBytes()
							op.enqueue(in, p)
						}
					}
				}
				for vl := range op.credits {
					op.credits[vl] = credits[rng.Intn(len(credits))]
				}
				op.rr = start
				for step := 0; ; step++ {
					want, ok := linearGrant(op)
					wantRR := op.rr
					if ok {
						wantRR = (want + 1) & op.voqMask
					}
					lens := make([]int, len(op.voqs))
					for k := range op.voqs {
						lens[k] = op.voqs[k].n
					}
					op.busy = false
					op.tryTx()
					got := -1
					for k := range op.voqs {
						if op.voqs[k].n != lens[k] {
							if got >= 0 || op.voqs[k].n != lens[k]-1 {
								t.Fatalf("%d×%d rr=%d step %d: more than one packet left the VoQs", tc.ports, tc.vls, start, step)
							}
							got = k
						}
					}
					if got != want || op.rr != wantRR {
						t.Fatalf("%d×%d rr=%d step %d: granted voq %d leaving rr %d, linear scan grants %d leaving rr %d",
							tc.ports, tc.vls, start, step, got, op.rr, want, wantRR)
					}
					if err := n.CheckCreditBounds(); err != nil {
						t.Fatalf("%d×%d rr=%d step %d: %v", tc.ports, tc.vls, start, step, err)
					}
					if !ok {
						break
					}
				}
				// Drain what the stalls left so the next trial starts empty.
				for k := range op.voqs {
					for q := &op.voqs[k]; q.n > 0; {
						p := q.Pop()
						sw.in[k>>op.vlShift].free[p.VL] += p.WireBytes()
						op.qbytes[p.VL] -= p.WireBytes()
						op.pending--
					}
					op.occ[k>>6] &^= 1 << (k & 63)
				}
			}
		}
	}
}

// TestCheckCreditBoundsSeesBitmapDrift flips one occupancy bit each
// way — a set bit over an empty VoQ and a cleared bit over a non-empty
// one — and expects the credit-bounds check to report each, as it must
// report pending drifting from the VoQ contents.
func TestCheckCreditBoundsSeesBitmapDrift(t *testing.T) {
	tp, err := topo.SingleSwitch(3)
	if err != nil {
		t.Fatal(err)
	}
	n := buildNet(t, tp, testCfg(), Hooks{})
	op := n.switches[0].out[2]
	op.busy = true // hold the packet in its VoQ
	p := &ib.Packet{Type: ib.DataPacket, PayloadBytes: ib.MTU, Dst: 2}
	n.switches[0].in[1].free[0] -= p.WireBytes()
	op.enqueue(1, p)
	if err := n.CheckCreditBounds(); err != nil {
		t.Fatalf("consistent port reported: %v", err)
	}
	k := 1 << op.vlShift // (in-port 1, VL 0)
	for _, flip := range []int{k, 0} {
		op.occ[0] ^= 1 << flip
		if err := n.CheckCreditBounds(); err == nil {
			t.Fatalf("bit %d flipped: no violation reported", flip)
		}
		op.occ[0] ^= 1 << flip
	}
	op.pending++
	if err := n.CheckCreditBounds(); err == nil {
		t.Fatal("pending off by one: no violation reported")
	}
}
