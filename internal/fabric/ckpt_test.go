package fabric

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestRestoreStateRejectsCorruptArbiterState exports a mid-run fabric
// whose switch VoQs hold packets, checks the pristine state restores
// with its occupancy bitmap rebuilt, then corrupts one field at a time
// — the round-robin pointer, the pending count, a queued or in-service
// packet ref — and expects RestoreState to return an error instead of
// handing the arbiter an index it would run off the ring with or a nil
// head, or panicking in the packet table.
func TestRestoreStateRejectsCorruptArbiterState(t *testing.T) {
	tp, err := topo.SingleSwitch(3)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Network {
		n := buildNet(t, tp, testCfg(), Hooks{})
		n.HCA(0).SetSource(&floodSource{src: 0, dst: 2, remaining: -1})
		n.HCA(1).SetSource(&floodSource{src: 1, dst: 2, remaining: -1})
		return n
	}
	n := build()
	n.Start()
	n.Sim().RunUntil(sim.Time(0).Add(20 * sim.Microsecond))
	tab := ckpt.NewPacketTable()
	blob, err := json.Marshal(n.ExportState(tab))
	if err != nil {
		t.Fatal(err)
	}
	op := n.switches[0].out[2]
	if op.pending < 2 {
		t.Fatalf("port toward the sink holds %d packets; the test needs a backlog", op.pending)
	}
	restore := func(corrupt func(st *State)) error {
		var st State
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatal(err)
		}
		if corrupt != nil {
			corrupt(&st)
		}
		fresh := build()
		if err := fresh.RestoreState(&st, ckpt.RestoreTable(tab.Records())); err != nil {
			return err
		}
		if err := fresh.CheckCreditBounds(); err != nil {
			t.Fatalf("restored state fails the credit-bounds check: %v", err)
		}
		return nil
	}
	if err := restore(nil); err != nil {
		t.Fatalf("pristine restore: %v", err)
	}

	port := func(f func(os *SwOutState)) func(st *State) {
		return func(st *State) { f(st.Switches[0].Out[2]) }
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(st *State)
	}{
		{"rr past ring", "rr", port(func(os *SwOutState) { os.RR = op.voqMask + 1 })},
		{"rr negative", "rr", port(func(os *SwOutState) { os.RR = -1 })},
		{"pending high", "pending", port(func(os *SwOutState) { os.Pending++ })},
		{"pending low", "pending", port(func(os *SwOutState) { os.Pending-- })},
		{"nil voq ref", "packet ref 0", port(func(os *SwOutState) { os.VoQs[0].Pkts[0] = 0 })},
		{"voq ref past table", "packet ref", port(func(os *SwOutState) { os.VoQs[0].Pkts[0] = tab.Len() + 1 })},
		{"padding voq", "not a connected", port(func(os *SwOutState) { os.VoQs[0].K = 3 << op.vlShift })},
		{"host dma ref past table", "dma", func(st *State) { st.HCAs[0].DmaPkt = tab.Len() + 1 }},
		{"host sink ref negative", "sink", func(st *State) { st.HCAs[2].SinkPkt = -1 }},
		{"nil host rx ref", "rx queue", func(st *State) { st.HCAs[2].RxQ = []int{0} }},
	} {
		err := restore(tc.corrupt)
		if err == nil {
			t.Errorf("%s: restore accepted the corrupt state", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// An arrival event must carry a packet that exists.
	codec := build().Codec(ckpt.RestoreTable(tab.Records()))
	for _, ref := range []int{0, tab.Len() + 1} {
		rec := ckpt.EventRecord{Kind: kindArrival, Pkt: ref, B0: true, A1: 2}
		if _, _, _, err := codec.DecodeAction(rec); err == nil {
			t.Errorf("arrival with packet ref %d decoded without error", ref)
		}
	}
}
