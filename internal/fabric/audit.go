package fabric

import (
	"fmt"

	"repro/internal/ib"
)

// This file is the fabric side of the runtime invariant layer
// (internal/check): a custody census of every packet the fabric holds,
// and mid-run bounds on the credit accounting. Unlike CheckQuiescent,
// which only holds after a full drain, these invariants hold at every
// event boundary, so the checker can sweep them during a run.

// AuditCounters tracks packet custody that is otherwise implicit in the
// future-event list: packets serialized onto a link whose arrival event
// has not fired yet. The counter lives behind a nil pointer so the
// unaudited hot path pays exactly one branch per link transmission.
type AuditCounters struct {
	// WirePackets counts packets currently in flight on links (arrival
	// scheduled, not yet arrived).
	WirePackets int

	// DroppedPackets counts packets the fault layer discarded on the
	// wire (see Dropper). Dropped custody is intentional, so the pool
	// accounting law becomes Puts == ΣRxPackets + DroppedPackets; the
	// per-class columns below break the total down for audit reports
	// (a FECN-marked data packet counts under DroppedFECN only).
	DroppedPackets int
	DroppedData    int
	DroppedFECN    int
	DroppedCNP     int
	DroppedAck     int
	// DroppedCredits counts discarded flow-control credit updates.
	// Each is deferred to the next refresh rather than lost (see
	// CreditRefreshDelay), so quiescence still balances.
	DroppedCredits int
}

// countDrop classifies a wire-dropped packet into the audit ledger.
func (a *AuditCounters) countDrop(p *ib.Packet) {
	a.DroppedPackets++
	switch {
	case p.Type == ib.CNPPacket:
		a.DroppedCNP++
	case p.Type == ib.AckPacket:
		a.DroppedAck++
	case p.FECN:
		a.DroppedFECN++
	default:
		a.DroppedData++
	}
}

// EnableAudit switches on the wire-custody counter and returns it. It
// must be called before Start — packets already in flight when auditing
// begins would be invisible to the census. Idempotent.
func (n *Network) EnableAudit() *AuditCounters {
	if n.aud == nil {
		n.aud = &AuditCounters{}
	}
	return n.aud
}

// Audit returns the audit counters, or nil when auditing is off.
func (n *Network) Audit() *AuditCounters { return n.aud }

// HeldCensus breaks down the fabric's packet custody by holding site.
type HeldCensus struct {
	// Staged counts HCA send-side custody: staging buffers, control
	// queues, and the packets inside the injection DMA.
	Staged int
	// RxQueued counts HCA receive-side custody: receive queues and the
	// packets inside sink service.
	RxQueued int
	// Queued counts packets in switch virtual output queues.
	Queued int
	// Wire counts packets in flight on links. It is exact only when
	// auditing is enabled (EnableAudit before Start), zero otherwise.
	Wire int
}

// Total sums the census.
func (c HeldCensus) Total() int { return c.Staged + c.RxQueued + c.Queued + c.Wire }

func (c HeldCensus) String() string {
	return fmt.Sprintf("staged=%d rx-queued=%d voq=%d wire=%d", c.Staged, c.RxQueued, c.Queued, c.Wire)
}

// Census walks every holding site and returns the custody breakdown.
// With auditing enabled, Census().Total() accounts for every packet the
// fabric owns, so pool.Live() − sources' pending == Total() is the
// packet conservation law the checker sweeps.
func (n *Network) Census() HeldCensus {
	var c HeldCensus
	for _, h := range n.hcas {
		c.Staged += h.obuf.Len() + h.ctrl.Len()
		if h.dmaPkt != nil {
			c.Staged++
		}
		c.RxQueued += h.rxQ.Len()
		if h.sinkPkt != nil {
			c.RxQueued++
		}
	}
	for _, sw := range n.switches {
		for _, op := range sw.out {
			if op != nil {
				c.Queued += op.pending
			}
		}
	}
	if n.aud != nil {
		c.Wire = n.aud.WirePackets
	}
	return c
}

// HeldPackets returns the total number of packets the fabric currently
// owns (see Census).
func (n *Network) HeldPackets() int { return n.Census().Total() }

// CheckCreditBounds verifies the credit-accounting bounds that hold at
// every event boundary, not just at quiescence: every transmitter's
// per-VL credit count within [0, downstream buffer capacity], every
// receiver's free space within [0, its capacity], no negative queue
// accounting anywhere, and on every switch output the arbiter's books
// agreeing with its VoQs — pending equal to the packets queued, and the
// occupancy bitmap marking exactly the non-empty VoQs. It returns the
// first violation found.
func (n *Network) CheckCreditBounds() error {
	for _, h := range n.hcas {
		for v, cr := range h.out.credits {
			// Hosts attach to leaf switches, so the downstream buffer
			// is always a switch input buffer.
			if cr < 0 || cr > n.cfg.SwitchIbufBytes {
				return fmt.Errorf("fabric: host %d tx vl %d credits %d outside [0, %d]",
					h.lid, v, cr, n.cfg.SwitchIbufBytes)
			}
		}
		for v, free := range h.rxFree {
			if free < 0 || free > n.cfg.HostIbufBytes {
				return fmt.Errorf("fabric: host %d rx vl %d free %d outside [0, %d]",
					h.lid, v, free, n.cfg.HostIbufBytes)
			}
		}
		if h.obufBytes < 0 || h.obufBytes > n.cfg.HostObufBytes {
			return fmt.Errorf("fabric: host %d staging %d bytes outside [0, %d]",
				h.lid, h.obufBytes, n.cfg.HostObufBytes)
		}
	}
	for _, sw := range n.switches {
		for pi, op := range sw.out {
			if op == nil {
				continue
			}
			dcap := downstreamCap(op)
			for v, cr := range op.credits {
				if cr < 0 || cr > dcap {
					return fmt.Errorf("fabric: switch %d port %d vl %d credits %d outside [0, %d]",
						sw.index, pi, v, cr, dcap)
				}
			}
			queued := 0
			for k := range op.voqs {
				c := op.voqs[k].n
				queued += c
				if set := op.occ[k>>6]&(1<<(k&63)) != 0; set != (c > 0) {
					return fmt.Errorf("fabric: switch %d port %d voq %d holds %d packets but occupancy bit is %v",
						sw.index, pi, k, c, set)
				}
			}
			if op.pending != queued {
				return fmt.Errorf("fabric: switch %d port %d pending %d packets, voqs hold %d", sw.index, pi, op.pending, queued)
			}
			for v, qb := range op.qbytes {
				if qb < 0 {
					return fmt.Errorf("fabric: switch %d port %d vl %d queued %d bytes", sw.index, pi, v, qb)
				}
			}
		}
		for pi, ip := range sw.in {
			if ip == nil {
				continue
			}
			for v, free := range ip.free {
				if free < 0 || free > n.cfg.SwitchIbufBytes {
					return fmt.Errorf("fabric: switch %d in-port %d vl %d free %d outside [0, %d]",
						sw.index, pi, v, free, n.cfg.SwitchIbufBytes)
				}
			}
		}
	}
	return nil
}
