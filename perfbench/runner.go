package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// signature is a simulation's observable output. A change that only
// affects speed must leave it identical.
type signature struct {
	Events    uint64
	Delivered uint64
	// Summary aggregates, Gbit/s.
	HotGbps, NonHotGbps, AllGbps, TotalGbps float64
	// cc.Stats.
	FECNMarked, CNPSent, BECNReceived, ACKSent, TimerDecrements uint64
	MaxCCTI                                                     uint16
	// Fault drop ledger.
	DroppedPkts, DroppedCredits uint64
}

// hash is the signature's stable fingerprint, recorded per seed in
// signatures.json.
func (s signature) hash() string {
	h := fnv.New64a()
	for _, v := range []uint64{
		s.Events, s.Delivered,
		math.Float64bits(s.HotGbps), math.Float64bits(s.NonHotGbps),
		math.Float64bits(s.AllGbps), math.Float64bits(s.TotalGbps),
		s.FECNMarked, s.CNPSent, s.BECNReceived, s.ACKSent, s.TimerDecrements,
		uint64(s.MaxCCTI), s.DroppedPkts, s.DroppedCredits,
	} {
		_ = binary.Write(h, binary.LittleEndian, v) // hash writes never fail
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// simResult is what one simulation produced and what it cost.
type simResult struct {
	// err is set when the simulation errored or panicked.
	err error
	sig signature
	// Host time inside core.Build and inside Execute.
	buildNS, runNS int64
	// runtime.MemStats differences across Execute.
	mallocs  uint64
	gcCycles uint32

	peakPending          int
	poolGets, poolMisses uint64
	fecnRx               uint64
	txPkts               uint64
	txPayload, txHotspot uint64

	// Traced runs only.
	hookCalls  uint64
	hookNS     int64
	obsRecords uint64
	ckptSaves  int
	ckptBytes  int64
}

// hookTimer wraps a backend's fabric hooks to count and time each call.
// It is installed only in the traced run. No backend sets SelectVL, so
// it is left unwrapped.
type hookTimer struct {
	calls uint64
	ns    int64
}

func (t *hookTimer) wrap(h fabric.Hooks) fabric.Hooks {
	switchHook := func(f func(int, int, *ib.Packet, fabric.PortVLState)) func(int, int, *ib.Packet, fabric.PortVLState) {
		if f == nil {
			return nil
		}
		return func(sw, out int, p *ib.Packet, st fabric.PortVLState) {
			t0 := time.Now()
			f(sw, out, p, st)
			t.ns += int64(time.Since(t0))
			t.calls++
		}
	}
	h.SwitchEnqueue = switchHook(h.SwitchEnqueue)
	h.SwitchDeparture = switchHook(h.SwitchDeparture)
	if f := h.Deliver; f != nil {
		h.Deliver = func(lid ib.LID, p *ib.Packet) {
			t0 := time.Now()
			f(lid, p)
			t.ns += int64(time.Since(t0))
			t.calls++
		}
	}
	return h
}

// runner executes simulations and keeps the run's scratch state.
type runner struct {
	// ckptRoot holds one rolling-checkpoint directory per simulation.
	ckptRoot string
	// tr records spans in the traced run; nil otherwise.
	tr *tracer
	// prof records a CPU profile around each traced Execute; nil
	// otherwise.
	prof *profiler
}

func (r *runner) ckptDir(idx int) string {
	return filepath.Join(r.ckptRoot, fmt.Sprintf("sim%02d", idx))
}

// runSim builds and executes one simulation. traced wraps the CC hooks
// and counts observer records; untraced runs stay on the production
// path. Panics are returned as errors.
func (r *runner) runSim(spec simSpec, idx int, traced bool, parent int) (res simResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: panic: %v", spec.scen.Name, p)
		}
	}()
	sp := r.tr.begin("sim "+spec.scen.Name, parent)
	defer r.tr.end(sp)

	runtime.GC()
	bs := r.tr.begin("core.Build", sp)
	t0 := time.Now()
	in, err := core.Build(spec.scen)
	res.buildNS = time.Since(t0).Nanoseconds()
	r.tr.end(bs)
	if err != nil {
		return res, fmt.Errorf("%s: build: %w", spec.scen.Name, err)
	}

	if traced && in.Backend != nil {
		orig := in.Backend.Hooks()
		ht := &hookTimer{}
		in.Net.SetHooks(ht.wrap(orig))
		defer func() {
			in.Net.SetHooks(orig)
			res.hookCalls, res.hookNS = ht.calls, ht.ns
		}()
	}

	var ob *core.Observation
	var smp *telemetry.Sampler
	var copts core.CkptOpts
	if spec.observed {
		obsSpan := r.tr.begin("core.Observe", sp)
		smp = telemetry.NewSampler(spec.scen.Name, 0)
		ob = in.Observe(core.ObserveOpts{Tree: true, Counters: true, CCTILog: true, Telemetry: smp})
		if traced {
			countRecords(ob.Bus, &res.obsRecords)
		}
		r.tr.end(obsSpan)
		dir := r.ckptDir(idx)
		if err := resetDir(dir); err != nil {
			return res, err
		}
		copts = core.CkptOpts{Every: ckptEvery, Dir: dir, Keep: ckptKeep}
		if traced {
			copts.OnSave = func(path string, _ sim.Time) {
				res.ckptSaves++
				if fi, err := os.Stat(path); err == nil {
					res.ckptBytes += fi.Size()
				}
			}
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stopProf := func() {}
	if traced {
		if err := r.prof.start(); err != nil {
			return res, fmt.Errorf("%s: cpu profile: %w", spec.scen.Name, err)
		}
		// A panic inside Execute must not leave the profiler running.
		stopProf = sync.OnceFunc(r.prof.stop)
		defer stopProf()
	}
	es := r.tr.begin("core.Execute", sp)
	t1 := time.Now()
	var out *core.Result
	if spec.observed {
		out, err = in.ExecuteWithCheckpoints(copts)
	} else {
		out = in.Execute()
	}
	res.runNS = time.Since(t1).Nanoseconds()
	r.tr.end(es)
	stopProf()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return res, fmt.Errorf("%s: execute: %w", spec.scen.Name, err)
	}
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.gcCycles = m1.NumGC - m0.NumGC

	if spec.observed {
		smp.Finish()
		if ob.TreeReport() == nil || ob.CCTI == nil || ob.Registry == nil {
			return res, fmt.Errorf("%s: observers missing after the run", spec.scen.Name)
		}
		if err := ob.Close(); err != nil {
			return res, fmt.Errorf("%s: closing observers: %w", spec.scen.Name, err)
		}
	}

	res.sig = signatureOf(in, out)
	st := in.Net.PacketPool().Stats()
	res.poolGets, res.poolMisses = st.Gets, st.Misses
	res.peakPending = in.Net.Sim().PeakPending()
	for lid := 0; lid < in.Net.NumHosts(); lid++ {
		c := in.Net.HCA(ib.LID(lid)).Counters()
		res.fecnRx += c.RxFECN
		res.txPkts += c.TxPackets - c.TxCNP - c.TxAck
		res.txPayload += c.TxDataPayload
		res.txHotspot += c.TxHotspotPayload
	}
	return res, nil
}

// signatureOf reads a finished run's outputs from its instance and
// result.
func signatureOf(in *core.Instance, out *core.Result) signature {
	s := signature{
		Events:          out.Events,
		HotGbps:         out.Summary.HotspotAvgGbps,
		NonHotGbps:      out.Summary.NonHotspotAvgGbps,
		AllGbps:         out.Summary.AllAvgGbps,
		TotalGbps:       out.Summary.TotalGbps,
		FECNMarked:      out.CCStats.FECNMarked,
		CNPSent:         out.CCStats.CNPSent,
		BECNReceived:    out.CCStats.BECNReceived,
		ACKSent:         out.CCStats.ACKSent,
		TimerDecrements: out.CCStats.TimerDecrements,
		MaxCCTI:         out.CCStats.MaxCCTI,
	}
	if out.Faults != nil {
		s.DroppedPkts = out.Faults.DroppedPackets()
		s.DroppedCredits = out.Faults.DroppedCredits
	}
	for lid := 0; lid < in.Net.NumHosts(); lid++ {
		c := in.Net.HCA(ib.LID(lid)).Counters()
		s.Delivered += c.RxPackets - c.RxCNP - c.RxAck
	}
	return s
}

// countRecords subscribes a counter to every kind the attached
// observers consume, leaving the bus's kind mask unchanged.
func countRecords(b *obs.Bus, n *uint64) {
	count := obs.ConsumerFunc(func(obs.Event) { *n++ })
	for k := obs.Kind(0); k < obs.NumKinds; k++ {
		if b.Wants(k) {
			b.Subscribe(count, k)
		}
	}
}

// restoreCheck restores the newest rolling checkpoint of simulation idx,
// times one direct checkpoint of the restored state, runs it to the end
// and requires the uninterrupted run's signature.
func (r *runner) restoreCheck(spec simSpec, idx int, want signature) (restoreNS, saveNS int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: restore: panic: %v", spec.scen.Name, p)
		}
	}()
	sp := r.tr.begin("restore "+spec.scen.Name, 0)
	defer r.tr.end(sp)

	rs := r.tr.begin("core.RestoreFile", sp)
	t0 := time.Now()
	in, err := core.RestoreFile(r.ckptDir(idx))
	restoreNS = time.Since(t0).Nanoseconds()
	r.tr.end(rs)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: restore: %w", spec.scen.Name, err)
	}

	var buf bytes.Buffer
	cs := r.tr.begin("Instance.Checkpoint", sp)
	t1 := time.Now()
	err = in.Checkpoint(&buf)
	saveNS = time.Since(t1).Nanoseconds()
	r.tr.end(cs)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: checkpoint: %w", spec.scen.Name, err)
	}

	es := r.tr.begin("core.Execute restored", sp)
	out := in.Execute()
	r.tr.end(es)
	if got := signatureOf(in, out); got != want {
		return 0, 0, fmt.Errorf("%s: restored continuation %+v, uninterrupted run %+v", spec.scen.Name, got, want)
	}
	return restoreNS, saveNS, nil
}

// setupTimes builds every simulation of the set once and returns the
// summed host time of core.Build and, when withTopo, of topo.FatTree
// plus topo.ComputeLFT. The heap is collected before each call.
func (r *runner) setupTimes(specs []simSpec, withTopo bool, parent int) (buildNS, topoNS int64, err error) {
	for _, spec := range specs {
		if withTopo {
			runtime.GC()
			ts := r.tr.begin("topo.FatTree+ComputeLFT", parent)
			t0 := time.Now()
			tp, err := topo.FatTree(spec.scen.Radix)
			if err == nil {
				_, err = topo.ComputeLFT(tp)
			}
			topoNS += time.Since(t0).Nanoseconds()
			r.tr.end(ts)
			if err != nil {
				return 0, 0, fmt.Errorf("%s: topology: %w", spec.scen.Name, err)
			}
		}
		runtime.GC()
		bs := r.tr.begin("core.Build", parent)
		t0 := time.Now()
		_, err := core.Build(spec.scen)
		buildNS += time.Since(t0).Nanoseconds()
		r.tr.end(bs)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: build: %w", spec.scen.Name, err)
		}
	}
	return buildNS, topoNS, nil
}

func resetDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
