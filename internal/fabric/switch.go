package fabric

import (
	"fmt"
	"math/bits"

	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/topo"
)

// SwitchNode models one crossbar: per-port input buffers with virtual
// output queuing over (output port, VL), and a round-robin arbiter per
// output port granting packets when the serializer is idle and the
// downstream VL has credits — the ibuf/obuf/vlarb composition of the
// paper's switch model.
type SwitchNode struct {
	net   *Network
	id    topo.NodeID
	index int // dense switch index, used by hooks and metrics
	in    []*swInPort
	out   []*swOutPort
}

// swInPort is the receiving side of a switch port: it accounts the
// per-VL buffer space the upstream sender sees as credits.
type swInPort struct {
	sw   *SwitchNode
	port int
	free []int // remaining buffer bytes per VL
	up   creditTaker
}

// swOutPort is the transmitting side of a switch port: VoQs per
// (input port, VL), per-VL queued-byte accounting for congestion
// detection, and the round-robin arbitration state.
//
// The VoQ array is a power-of-two ring indexed voqs[inPort<<vlShift|vl]
// (mirroring pktQueue's mask layout): ports and VLs are padded up to
// powers of two so the round-robin pointer wraps with a mask, and
// recovering the input port from a ring index is a shift. occ is the
// ring's occupancy bitmap, bit k set iff voqs[k] is non-empty: enqueue
// sets the bit when a queue fills from empty, a grant clears it when
// the Pop empties the queue. The arbiter finds its candidates with
// TrailingZeros64 over occ instead of peeking every slot, so an empty
// or padding slot costs one bit rather than a cache line, and a grant
// costs O(non-empty VoQs + ring/64). The set bits, visited cyclically
// from rr, are exactly the non-empty real (inPort, vl) pairs in the
// cyclic lexicographic order of the unpadded layout, so the grant
// sequence is unchanged; the golden trajectory tests and
// TestArbiterMatchesLinearScan pin this.
type swOutPort struct {
	linkOut
	sw      *SwitchNode
	port    int
	voqs    []pktQueue // pow2 ring: [inPort<<vlShift | vl]
	occ     []uint64   // occupancy bitmap over voqs: bit k iff voqs[k].n > 0
	qbytes  []int      // queued bytes per VL across all inputs
	rr      int        // arbitration pointer into voqs
	vlShift uint       // log2 of the padded per-input VL stride
	voqMask int        // len(voqs) - 1
	pending int        // total queued packets
	txAct   sim.Action // pre-bound serializer-done callback
}

// pow2ceil rounds x (≥ 1) up to the next power of two.
func pow2ceil(x int) int { return 1 << bits.Len(uint(x-1)) }

func newSwitchNode(n *Network, node *topo.Node, index int) *SwitchNode {
	sw := &SwitchNode{net: n, id: node.ID, index: index}
	nports := len(node.Ports)
	sw.in = make([]*swInPort, nports)
	sw.out = make([]*swOutPort, nports)
	for p := 0; p < nports; p++ {
		if !node.Ports[p].Connected() {
			continue
		}
		ip := &swInPort{sw: sw, port: p, free: make([]int, n.cfg.NumVLs)}
		for v := range ip.free {
			ip.free[v] = n.cfg.SwitchIbufBytes
		}
		sw.in[p] = ip
		op := &swOutPort{sw: sw, port: p}
		op.net = n
		op.vlShift = uint(bits.Len(uint(n.cfg.NumVLs - 1)))
		op.voqs = make([]pktQueue, pow2ceil(nports)<<op.vlShift)
		op.voqMask = len(op.voqs) - 1
		op.occ = make([]uint64, (len(op.voqs)+63)/64)
		op.qbytes = make([]int, n.cfg.NumVLs)
		op.txAct = swTxAct{op}
		sw.out[p] = op
	}
	return sw
}

// arrive admits a packet into the input buffer, routes it, and enqueues
// it on the VoQ of its output port. Buffer space is guaranteed by the
// upstream credit discipline; running out here is a model bug.
func (ip *swInPort) arrive(p *ib.Packet) {
	n := ip.sw.net
	wire := p.WireBytes()
	ip.free[p.VL] -= wire
	if n.cfg.Check && ip.free[p.VL] < 0 {
		panic(fmt.Sprintf("fabric: ibuf overflow at switch %d port %d vl %d", ip.sw.index, ip.port, p.VL))
	}
	outPort := n.routing.OutPort(ip.sw.id, p.Dst)
	op := ip.sw.out[outPort]
	if n.cfg.Check && op == nil {
		panic(fmt.Sprintf("fabric: route to %d via unconnected port %d of switch %d", p.Dst, outPort, ip.sw.index))
	}
	op.enqueue(ip.port, p)
}

// dropArrive implements the fault layer's discard at this receiver: the
// buffer slot was never occupied, so the transmitter's credit goes
// straight back upstream.
func (ip *swInPort) dropArrive(p *ib.Packet) {
	ip.sw.net.sendCredit(ip.up, p.VL, p.WireBytes())
}

func (op *swOutPort) enqueue(inPort int, p *ib.Packet) {
	n := op.net
	// Arrival-side congestion sampling: the hook sees the queue the
	// packet joins, before it is added.
	if n.hooks.SwitchEnqueue != nil && p.Type == ib.DataPacket {
		st := PortVLState{
			QueuedBytes:   op.qbytes[p.VL],
			CreditBytes:   op.credits[p.VL],
			CapacityBytes: n.cfg.SwitchIbufBytes,
			HostPort:      op.hostFacing,
		}
		n.hooks.SwitchEnqueue(op.sw.index, op.port, p, st)
	}
	k := inPort<<op.vlShift | int(p.VL)
	q := &op.voqs[k]
	if q.n == 0 {
		op.occ[k>>6] |= 1 << (k & 63)
	}
	q.Push(p)
	op.qbytes[p.VL] += p.WireBytes()
	op.pending++
	n.bus.QueueSampled(n.simr.Now(), op.sw.index, op.port, op.hostFacing, p.VL, op.qbytes[p.VL])
	if !op.busy {
		op.tryTx()
	}
}

// tryTx runs the output arbiter: starting from the round-robin pointer,
// grant the first non-empty VoQ whose head packet has downstream
// credits. It walks the set bits of occ cyclically from rr — the part
// of rr's word at or above rr, every other word in ring order, then the
// part of rr's word below rr — so each non-empty VoQ is tried at most
// once, in ring order. The grant frees input-buffer space (returning a
// credit upstream), gives the congestion-control hook a chance to
// FECN-mark the departing packet, and occupies the serializer.
func (op *swOutPort) tryTx() {
	if op.busy || op.down || op.pending == 0 {
		return
	}
	n := op.net
	w := op.rr >> 6
	below := uint64(1)<<(op.rr&63) - 1
	word := op.occ[w] &^ below
	for i := len(op.occ); ; i-- {
		for ; word != 0; word &= word - 1 {
			k := w<<6 | bits.TrailingZeros64(word)
			q := &op.voqs[k]
			head := q.Peek()
			// The packet may continue on a different VL (dateline
			// switching); the grant needs credits on the outgoing VL.
			vlNext := head.VL
			if n.hooks.SelectVL != nil {
				vlNext = n.hooks.SelectVL(op.sw.index, k>>op.vlShift, op.port, head)
			}
			if !op.canSend(vlNext, head.WireBytes()) {
				n.bus.CreditStalled(n.simr.Now(), true, op.sw.index, op.port, vlNext, op.credits[vlNext], head.WireBytes())
				continue
			}
			op.rr = (k + 1) & op.voqMask
			q.Pop()
			if q.n == 0 {
				op.occ[w] &^= 1 << (k & 63)
			}
			op.pending--
			wire := head.WireBytes()
			vl := int(head.VL)

			op.qbytes[vl] -= wire
			// Congestion-control hook sees the queue left behind the
			// departing packet and the credit state after this grant.
			if n.hooks.SwitchDeparture != nil && head.Type == ib.DataPacket {
				st := PortVLState{
					QueuedBytes:   op.qbytes[vl],
					CreditBytes:   op.credits[vl] - wire,
					CapacityBytes: n.cfg.SwitchIbufBytes,
					HostPort:      op.hostFacing,
				}
				n.hooks.SwitchDeparture(op.sw.index, op.port, head, st)
			}

			// Free the input buffer slot and return the credit upstream
			// on the VL the packet occupied locally, then move it to its
			// outgoing VL.
			ip := op.sw.in[k>>op.vlShift]
			ip.free[head.VL] += wire
			n.sendCredit(ip.up, head.VL, wire)
			head.VL = vlNext

			n.bus.QueueSampled(n.simr.Now(), op.sw.index, op.port, op.hostFacing, ib.VL(vl), op.qbytes[vl])
			n.bus.PacketSent(n.simr.Now(), true, op.sw.index, op.port, head)
			ser := op.transmit(head)
			n.simr.ScheduleAction(ser, op.txAct)
			return
		}
		if i == 0 {
			return
		}
		if w++; w == len(op.occ) {
			w = 0
		}
		word = op.occ[w]
		if i == 1 {
			word &= below
		}
	}
}

func (op *swOutPort) txDone() {
	op.busy = false
	op.tryTx()
}

// addCredit is the flow-control update from downstream; fresh credits
// may unblock the arbiter.
func (op *swOutPort) addCredit(vl ib.VL, bytes int) {
	op.credits[vl] += bytes
	if op.net.cfg.Check && op.credits[vl] > downstreamCap(op) {
		panic(fmt.Sprintf("fabric: credit overflow at switch %d port %d", op.sw.index, op.port))
	}
	if !op.busy {
		op.tryTx()
	}
}

// downstreamCap returns the downstream buffer capacity this output's
// credits are bounded by (only used under Check).
func downstreamCap(op *swOutPort) int {
	if op.hostFacing {
		return op.net.cfg.HostIbufBytes
	}
	return op.net.cfg.SwitchIbufBytes
}

// QueuedBytes reports the bytes queued for output port out on vl; tests
// and the CC manager's observability use it.
func (s *SwitchNode) QueuedBytes(out int, vl ib.VL) int {
	if s.out[out] == nil {
		return 0
	}
	return s.out[out].qbytes[vl]
}

// Index returns the dense switch index.
func (s *SwitchNode) Index() int { return s.index }

// NodeID returns the topology node of this switch.
func (s *SwitchNode) NodeID() topo.NodeID { return s.id }
