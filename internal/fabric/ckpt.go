package fabric

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/ib"
	"repro/internal/sim"
)

// This file is the fabric half of the checkpoint/restore contract
// (internal/ckpt): a typed export of every piece of mutable fabric
// state — packet custody in staging/control/receive/VoQ queues and
// in-service slots, per-VL credit and free-space accounting, link
// serializer/fault state, traffic counters, pool books, audit ledger —
// and the action codec that maps the fabric's pending future-event-list
// entries to serializable (kind, args) records and back.
//
// Restore overlays this state onto a freshly Built network: the wiring
// (takers, upstream credit destinations, action bindings) is identical
// by construction, so only the mutable fields move.

// LinkOutState is the mutable state of one transmitter.
type LinkOutState struct {
	Credits []int   `json:"credits"`
	Busy    bool    `json:"busy,omitempty"`
	Down    bool    `json:"down,omitempty"`
	Slow    float64 `json:"slow,omitempty"`
}

// HCAState is the mutable state of one end node. Queue fields hold
// 1-based packet-table references in FIFO order.
type HCAState struct {
	Obuf      []int `json:"obuf,omitempty"`
	ObufBytes int   `json:"obuf_bytes,omitempty"`
	Ctrl      []int `json:"ctrl,omitempty"`
	DmaBusy   bool  `json:"dma_busy,omitempty"`
	DmaPkt    int   `json:"dma_pkt,omitempty"`
	RxFree    []int `json:"rx_free"`
	RxQ       []int `json:"rxq,omitempty"`
	SinkBusy  bool  `json:"sink_busy,omitempty"`
	SinkPkt   int   `json:"sink_pkt,omitempty"`

	Out LinkOutState `json:"out"`
	Ctr HCACounters  `json:"ctr"`
}

// VoQState is one non-empty virtual output queue, keyed by its ring
// index (inPort<<vlShift | vl — the layout is derived from the config,
// so the key is stable across rebuilds of the same scenario).
type VoQState struct {
	K    int   `json:"k"`
	Pkts []int `json:"pkts"`
}

// SwOutState is the mutable state of one switch output port.
type SwOutState struct {
	Link    LinkOutState `json:"link"`
	VoQs    []VoQState   `json:"voqs,omitempty"`
	Qbytes  []int        `json:"qbytes"`
	RR      int          `json:"rr,omitempty"`
	Pending int          `json:"pending,omitempty"`
}

// SwInState is the mutable state of one switch input port.
type SwInState struct {
	Free []int `json:"free"`
}

// SwitchState is the mutable state of one switch; nil entries mirror
// unconnected ports.
type SwitchState struct {
	In  []*SwInState  `json:"in"`
	Out []*SwOutState `json:"out"`
}

// State is the fabric's complete mutable state.
type State struct {
	HCAs     []HCAState     `json:"hcas"`
	Switches []SwitchState  `json:"switches"`
	Pool     ib.PoolStats   `json:"pool"`
	Audit    *AuditCounters `json:"audit,omitempty"`
}

func queueRefs(t *ckpt.PacketTable, q *pktQueue) []int {
	if q.n == 0 {
		return nil
	}
	out := make([]int, 0, q.n)
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		out = append(out, t.Ref(q.buf[(q.head+i)&mask]))
	}
	return out
}

// restoreQueue refills q from snapshot refs. A queue holds packets, so
// every ref must name a table entry: 0 (nil) or an index past the
// table is a corrupt snapshot.
func restoreQueue(t *ckpt.PacketTable, q *pktQueue, refs []int) error {
	*q = pktQueue{}
	for _, r := range refs {
		if r < 1 || r > t.Len() {
			return fmt.Errorf("packet ref %d outside [1, %d]", r, t.Len())
		}
		q.Push(t.Packet(r))
	}
	return nil
}

// restoreSlot resolves the ref of a single in-service slot, where 0
// means empty.
func restoreSlot(t *ckpt.PacketTable, r int) (*ib.Packet, error) {
	if r < 0 || r > t.Len() {
		return nil, fmt.Errorf("packet ref %d outside [0, %d]", r, t.Len())
	}
	return t.Packet(r), nil
}

func exportLink(l *linkOut) LinkOutState {
	return LinkOutState{
		Credits: append([]int(nil), l.credits...),
		Busy:    l.busy, Down: l.down, Slow: l.slow,
	}
}

func restoreLink(l *linkOut, st LinkOutState, what string) error {
	if len(st.Credits) != len(l.credits) {
		return fmt.Errorf("fabric: restore %s: %d credit lanes, want %d", what, len(st.Credits), len(l.credits))
	}
	copy(l.credits, st.Credits)
	l.busy, l.down, l.slow = st.Busy, st.Down, st.Slow
	return nil
}

// ExportState captures the fabric's mutable state, interning every held
// packet into tab.
func (n *Network) ExportState(tab *ckpt.PacketTable) *State {
	st := &State{HCAs: make([]HCAState, len(n.hcas)), Switches: make([]SwitchState, len(n.switches))}
	for i, h := range n.hcas {
		st.HCAs[i] = HCAState{
			Obuf:      queueRefs(tab, &h.obuf),
			ObufBytes: h.obufBytes,
			Ctrl:      queueRefs(tab, &h.ctrl),
			DmaBusy:   h.dmaBusy,
			DmaPkt:    tab.Ref(h.dmaPkt),
			RxFree:    append([]int(nil), h.rxFree...),
			RxQ:       queueRefs(tab, &h.rxQ),
			SinkBusy:  h.sinkBusy,
			SinkPkt:   tab.Ref(h.sinkPkt),
			Out:       exportLink(&h.out),
			Ctr:       h.ctr,
		}
	}
	for i, sw := range n.switches {
		ss := SwitchState{In: make([]*SwInState, len(sw.in)), Out: make([]*SwOutState, len(sw.out))}
		for pi, ip := range sw.in {
			if ip == nil {
				continue
			}
			ss.In[pi] = &SwInState{Free: append([]int(nil), ip.free...)}
		}
		for pi, op := range sw.out {
			if op == nil {
				continue
			}
			os := &SwOutState{
				Link:    exportLink(&op.linkOut),
				Qbytes:  append([]int(nil), op.qbytes...),
				RR:      op.rr,
				Pending: op.pending,
			}
			for k := range op.voqs {
				if refs := queueRefs(tab, &op.voqs[k]); refs != nil {
					os.VoQs = append(os.VoQs, VoQState{K: k, Pkts: refs})
				}
			}
			ss.Out[pi] = os
		}
		st.Switches[i] = ss
	}
	st.Pool = n.pool.Stats()
	if n.aud != nil {
		a := *n.aud
		st.Audit = &a
	}
	return st
}

// RestoreState overlays a checkpointed fabric state onto a freshly
// built network of the same scenario.
func (n *Network) RestoreState(st *State, tab *ckpt.PacketTable) error {
	if len(st.HCAs) != len(n.hcas) || len(st.Switches) != len(n.switches) {
		return fmt.Errorf("fabric: restore shape %d hosts/%d switches, want %d/%d",
			len(st.HCAs), len(st.Switches), len(n.hcas), len(n.switches))
	}
	for i, h := range n.hcas {
		hs := &st.HCAs[i]
		var err error
		if err = restoreQueue(tab, &h.obuf, hs.Obuf); err != nil {
			return fmt.Errorf("fabric: restore host %d staging: %w", i, err)
		}
		h.obufBytes = hs.ObufBytes
		if err = restoreQueue(tab, &h.ctrl, hs.Ctrl); err != nil {
			return fmt.Errorf("fabric: restore host %d control queue: %w", i, err)
		}
		h.dmaBusy = hs.DmaBusy
		if h.dmaPkt, err = restoreSlot(tab, hs.DmaPkt); err != nil {
			return fmt.Errorf("fabric: restore host %d dma: %w", i, err)
		}
		if len(hs.RxFree) != len(h.rxFree) {
			return fmt.Errorf("fabric: restore host %d: %d rx lanes, want %d", i, len(hs.RxFree), len(h.rxFree))
		}
		copy(h.rxFree, hs.RxFree)
		if err = restoreQueue(tab, &h.rxQ, hs.RxQ); err != nil {
			return fmt.Errorf("fabric: restore host %d rx queue: %w", i, err)
		}
		h.sinkBusy = hs.SinkBusy
		if h.sinkPkt, err = restoreSlot(tab, hs.SinkPkt); err != nil {
			return fmt.Errorf("fabric: restore host %d sink: %w", i, err)
		}
		if err := restoreLink(&h.out, hs.Out, fmt.Sprintf("host %d", i)); err != nil {
			return err
		}
		h.ctr = hs.Ctr
		h.wake, h.wakeSeq = nil, 0 // re-linked by the wake event's decode, if pending
	}
	for i, sw := range n.switches {
		ss := &st.Switches[i]
		if len(ss.In) != len(sw.in) || len(ss.Out) != len(sw.out) {
			return fmt.Errorf("fabric: restore switch %d port shape mismatch", i)
		}
		for pi, ip := range sw.in {
			is := ss.In[pi]
			if (ip == nil) != (is == nil) {
				return fmt.Errorf("fabric: restore switch %d in-port %d connectivity mismatch", i, pi)
			}
			if ip == nil {
				continue
			}
			if len(is.Free) != len(ip.free) {
				return fmt.Errorf("fabric: restore switch %d in-port %d lane count", i, pi)
			}
			copy(ip.free, is.Free)
		}
		for pi, op := range sw.out {
			osrc := ss.Out[pi]
			if (op == nil) != (osrc == nil) {
				return fmt.Errorf("fabric: restore switch %d out-port %d connectivity mismatch", i, pi)
			}
			if op == nil {
				continue
			}
			if err := restoreLink(&op.linkOut, osrc.Link, fmt.Sprintf("switch %d port %d", i, pi)); err != nil {
				return err
			}
			if len(osrc.Qbytes) != len(op.qbytes) {
				return fmt.Errorf("fabric: restore switch %d port %d lane count", i, pi)
			}
			copy(op.qbytes, osrc.Qbytes)
			// The arbiter indexes the ring with rr and trusts every
			// occupied slot to hold a packet from a connected input on
			// a real VL, so those are checked here, not at grant time.
			if osrc.RR < 0 || osrc.RR > op.voqMask {
				return fmt.Errorf("fabric: restore switch %d port %d rr %d outside [0, %d]", i, pi, osrc.RR, op.voqMask)
			}
			op.rr = osrc.RR
			for k := range op.voqs {
				op.voqs[k] = pktQueue{}
			}
			for _, vs := range osrc.VoQs {
				if vs.K < 0 || vs.K >= len(op.voqs) {
					return fmt.Errorf("fabric: restore switch %d port %d voq %d of %d", i, pi, vs.K, len(op.voqs))
				}
				if in, vl := vs.K>>op.vlShift, vs.K&(1<<op.vlShift-1); in >= len(sw.in) || sw.in[in] == nil || vl >= len(op.qbytes) {
					return fmt.Errorf("fabric: restore switch %d port %d voq %d is not a connected (in-port, VL) pair", i, pi, vs.K)
				}
				if err := restoreQueue(tab, &op.voqs[vs.K], vs.Pkts); err != nil {
					return fmt.Errorf("fabric: restore switch %d port %d voq %d: %w", i, pi, vs.K, err)
				}
			}
			restored := 0
			clear(op.occ)
			for k := range op.voqs {
				if c := op.voqs[k].n; c > 0 {
					restored += c
					op.occ[k>>6] |= 1 << (k & 63)
				}
			}
			if osrc.Pending != restored {
				return fmt.Errorf("fabric: restore switch %d port %d pending %d, but its voqs hold %d packets", i, pi, osrc.Pending, restored)
			}
			op.pending = restored
		}
	}
	n.pool.RestoreStats(st.Pool)
	if st.Audit != nil {
		a := n.EnableAudit()
		*a = *st.Audit
	}
	return nil
}

// Fabric action kinds in the checkpoint event records.
const (
	kindArrival = "arrival"
	kindCredit  = "credit"
	kindSwTx    = "swTx"
	kindHCATx   = "hcaTx"
	kindHCAWake = "hcaWake"
	kindHCADma  = "hcaDma"
	kindHCASink = "hcaSink"
)

// Codec translates the fabric's pending event actions to checkpoint
// records and back. Field use per kind:
//
//	arrival: B0/A0/A1 = receiver (atSwitch, node, port), Pkt = packet,
//	         B1 = drop, B2/A2/A3 = transmitter identity when dropping
//	credit:  B0/A0/A1 = transmitter (atSwitch, node, port), A2 = VL,
//	         A3 = bytes
//	swTx:    A0/A1 = switch index, port
//	hcaTx/hcaWake/hcaDma/hcaSink: A0 = host LID
type Codec struct {
	net *Network
	tab *ckpt.PacketTable
}

// Codec returns the fabric's action codec over the given packet table.
func (n *Network) Codec(tab *ckpt.PacketTable) *Codec { return &Codec{net: n, tab: tab} }

// EncodeAction implements the checkpoint encoder for fabric actions; ok
// is false for actions the fabric does not own.
func (c *Codec) EncodeAction(a sim.Action) (rec ckpt.EventRecord, ok bool) {
	switch v := a.(type) {
	case *arrivalAct:
		rec = ckpt.EventRecord{Kind: kindArrival, Pkt: c.tab.Ref(v.p), B1: v.drop}
		switch d := v.dst.(type) {
		case *HCA:
			rec.A0 = int64(d.lid)
		case *swInPort:
			rec.B0, rec.A0, rec.A1 = true, int64(d.sw.index), int64(d.port)
		default:
			return rec, false
		}
		if v.drop {
			rec.B2 = v.src.atSwitch
			rec.A2, rec.A3 = int64(v.src.node), int64(v.src.port)
		}
		return rec, true
	case *creditAct:
		rec = ckpt.EventRecord{Kind: kindCredit, A2: int64(v.vl), A3: int64(v.bytes)}
		switch t := v.taker.(type) {
		case *HCA:
			rec.A0 = int64(t.lid)
		case *swOutPort:
			rec.B0, rec.A0, rec.A1 = true, int64(t.sw.index), int64(t.port)
		default:
			return rec, false
		}
		return rec, true
	case swTxAct:
		return ckpt.EventRecord{Kind: kindSwTx, A0: int64(v.op.sw.index), A1: int64(v.op.port)}, true
	case hcaTxAct:
		return ckpt.EventRecord{Kind: kindHCATx, A0: int64(v.h.lid)}, true
	case hcaWakeAct:
		return ckpt.EventRecord{Kind: kindHCAWake, A0: int64(v.h.lid)}, true
	case hcaDmaAct:
		return ckpt.EventRecord{Kind: kindHCADma, A0: int64(v.h.lid)}, true
	case hcaSinkAct:
		return ckpt.EventRecord{Kind: kindHCASink, A0: int64(v.h.lid)}, true
	}
	return ckpt.EventRecord{}, false
}

func (c *Codec) host(a0 int64) (*HCA, error) {
	if a0 < 0 || int(a0) >= len(c.net.hcas) {
		return nil, fmt.Errorf("fabric: checkpoint references host %d of %d", a0, len(c.net.hcas))
	}
	return c.net.hcas[a0], nil
}

func (c *Codec) swPort(a0, a1 int64) (*SwitchNode, int, error) {
	if a0 < 0 || int(a0) >= len(c.net.switches) {
		return nil, 0, fmt.Errorf("fabric: checkpoint references switch %d of %d", a0, len(c.net.switches))
	}
	sw := c.net.switches[a0]
	if a1 < 0 || int(a1) >= len(sw.out) {
		return nil, 0, fmt.Errorf("fabric: checkpoint references port %d of switch %d", a1, a0)
	}
	return sw, int(a1), nil
}

// DecodeAction implements the checkpoint decoder for fabric actions.
// attach, when non-nil, must be called with the restored event so
// holders of event handles (the HCA wake slot) re-link.
func (c *Codec) DecodeAction(rec ckpt.EventRecord) (act sim.Action, attach func(*sim.Event), ok bool, err error) {
	switch rec.Kind {
	case kindArrival:
		if rec.Pkt < 1 || rec.Pkt > c.tab.Len() {
			return nil, nil, true, fmt.Errorf("fabric: arrival of packet ref %d outside [1, %d]", rec.Pkt, c.tab.Len())
		}
		a := c.net.popArrival()
		a.p = c.tab.Packet(rec.Pkt)
		a.drop = rec.B1
		if rec.B0 {
			sw, port, e := c.swPort(rec.A0, rec.A1)
			if e != nil {
				return nil, nil, true, e
			}
			if sw.in[port] == nil {
				return nil, nil, true, fmt.Errorf("fabric: arrival at unconnected in-port %d of switch %d", port, rec.A0)
			}
			a.dst = sw.in[port]
		} else {
			h, e := c.host(rec.A0)
			if e != nil {
				return nil, nil, true, e
			}
			a.dst = h
		}
		if a.drop {
			if rec.B2 {
				sw, port, e := c.swPort(rec.A2, rec.A3)
				if e != nil {
					return nil, nil, true, e
				}
				a.src = &sw.out[port].linkOut
			} else {
				h, e := c.host(rec.A2)
				if e != nil {
					return nil, nil, true, e
				}
				a.src = &h.out
			}
		}
		return a, nil, true, nil
	case kindCredit:
		cr := &creditAct{net: c.net, vl: ib.VL(rec.A2), bytes: int(rec.A3)}
		if rec.B0 {
			sw, port, e := c.swPort(rec.A0, rec.A1)
			if e != nil {
				return nil, nil, true, e
			}
			if sw.out[port] == nil {
				return nil, nil, true, fmt.Errorf("fabric: credit to unconnected port %d of switch %d", port, rec.A0)
			}
			cr.taker = sw.out[port]
		} else {
			h, e := c.host(rec.A0)
			if e != nil {
				return nil, nil, true, e
			}
			cr.taker = h
		}
		return cr, nil, true, nil
	case kindSwTx:
		sw, port, e := c.swPort(rec.A0, rec.A1)
		if e != nil {
			return nil, nil, true, e
		}
		if sw.out[port] == nil {
			return nil, nil, true, fmt.Errorf("fabric: tx-done on unconnected port %d of switch %d", port, rec.A0)
		}
		return sw.out[port].txAct, nil, true, nil
	case kindHCATx, kindHCAWake, kindHCADma, kindHCASink:
		h, e := c.host(rec.A0)
		if e != nil {
			return nil, nil, true, e
		}
		switch rec.Kind {
		case kindHCATx:
			return h.txAct, nil, true, nil
		case kindHCADma:
			return h.dmaAct, nil, true, nil
		case kindHCASink:
			return h.sinkAct, nil, true, nil
		default:
			return h.wakeAct, func(e *sim.Event) { h.wake, h.wakeSeq = e, e.Seq() }, true, nil
		}
	}
	return nil, nil, false, nil
}
