package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Setup timing: one warm-up round and setupReps rounds before the first
// pass, then setupPerPass rounds after every pass, so that set-up is
// sampled across the whole run. The median round is reported.
const (
	setupReps    = 5
	setupPerPass = 3
)

// Synthetic kernel workload timed next to the model (the workload of
// BENCH_kernel.json at a shorter length): median of syntheticReps runs.
const (
	syntheticActors = 4096
	syntheticEvents = 2_000_000
	syntheticReps   = 3
)

// bench runs one workload at one seed.
type bench struct {
	w       *workload
	seed    uint64
	seconds float64
	outDir  string
	// recorded holds the signature hashes recorded for this workload and
	// seed, nil when the seed was not recorded.
	recorded []string
	// cal takes the host readings; one calibrator serves the process.
	cal *calibrator

	attempted, failed int
	// slowdowns holds the calibrator's readings, one after every
	// simulation and every setup round; their median scales the run's
	// host times to the reference host (calib.go).
	slowdowns []float64
}

// scale converts host seconds to reference-host seconds.
func (b *bench) scale(hostS float64) float64 {
	return hostS / median(b.slowdowns)
}

func (b *bench) newRunner(tr *tracer) *runner {
	dir := fmt.Sprintf("%s-%d", b.w.name, os.Getpid())
	return &runner{ckptRoot: filepath.Join(b.outDir, "ckpt", dir), tr: tr}
}

// pass runs every simulation of the set once, in order. failed counts
// the simulations that errored or panicked; their results have err set.
func (b *bench) pass(r *runner, specs []simSpec, traced bool, parent int) (res []simResult, failed int) {
	res = make([]simResult, len(specs))
	for i, spec := range specs {
		x, err := r.runSim(spec, i, traced, parent)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			x.err = err
			failed++
		}
		b.slowdowns = append(b.slowdowns, b.cal.slowdown())
		res[i] = x
	}
	return res, failed
}

// verify checks one pass's signatures against the recorded ones (when
// the seed was recorded) and against a reference pass of the same run
// (when ref is non-nil), then runs the workload's own check. It returns
// the number of failed operations beyond the simulations that already
// errored.
func (b *bench) verify(res, ref []simResult) int {
	failed := 0
	for i, x := range res {
		if x.err != nil {
			continue
		}
		var why string
		switch {
		case b.recorded != nil && (len(b.recorded) != len(res) || b.recorded[i] != x.sig.hash()):
			why = fmt.Sprintf("signature %s differs from the one recorded for seed %d", x.sig.hash(), b.seed)
		case ref != nil && ref[i].err == nil && ref[i].sig != x.sig:
			why = fmt.Sprintf("signature %+v differs from the reference pass %+v", x.sig, ref[i].sig)
		}
		if why != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %s simulation %d: %s\n", b.w.name, i, why)
			failed++
		}
	}
	if failed == 0 && b.w.check != nil && allOK(res) {
		if err := b.w.check(res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.w.name, err)
			failed++
		}
	}
	return failed
}

func allOK(res []simResult) bool {
	for _, x := range res {
		if x.err != nil {
			return false
		}
	}
	return true
}

// run measures the workload and returns its report: end-to-end metrics
// untraced, per-layer metrics when traced.
func (b *bench) run(traced bool) (*report, error) {
	specs, err := b.w.sims(b.seed)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r := b.newRunner(tr)
	defer os.RemoveAll(r.ckptRoot)

	setupSpan := tr.begin("setup", 0)
	_, _, err = b.setup(r, specs, traced, 1, setupSpan) // warm-up
	if err != nil {
		return nil, err
	}
	builds, topos, err := b.setup(r, specs, traced, setupReps, setupSpan)
	tr.end(setupSpan)
	if err != nil {
		return nil, err
	}
	var m map[string]metric
	if traced {
		m, err = b.tracedRun(r, specs, median(builds), median(topos))
	} else {
		m, err = b.timedRun(r, specs, builds)
	}
	if err != nil {
		return nil, err
	}
	if b.failed > b.attempted {
		b.failed = b.attempted
	}
	return &report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   m,
	}, nil
}

// setup times core.Build over the whole set in each of rounds rounds
// and returns the per-round sums, in host seconds, of Build and
// (withTopo) topology time.
func (b *bench) setup(r *runner, specs []simSpec, withTopo bool, rounds int, parent int) (builds, topos []float64, err error) {
	for range rounds {
		bn, tn, err := r.setupTimes(specs, withTopo, parent)
		if err != nil {
			return nil, nil, err
		}
		b.slowdowns = append(b.slowdowns, b.cal.slowdown())
		builds = append(builds, float64(bn)/1e9)
		topos = append(topos, float64(tn)/1e9)
	}
	return builds, topos, nil
}

// timedRun repeats untraced passes, each followed by setupPerPass setup
// rounds, until the next one would end after the time budget, always
// running at least one, and reduces them to the end-to-end metrics.
func (b *bench) timedRun(r *runner, specs []simSpec, builds []float64) (map[string]metric, error) {
	start := time.Now()
	var passes [][]simResult
	for {
		res, failed := b.pass(r, specs, false, 0)
		b.attempted += len(specs)
		b.failed += failed
		passes = append(passes, res)
		if failed == 0 {
			var ns int64
			for _, x := range res {
				ns += x.buildNS
			}
			builds = append(builds, float64(ns)/1e9)
		}
		more, _, err := b.setup(r, specs, false, setupPerPass, 0)
		if err != nil {
			return nil, err
		}
		builds = append(builds, more...)
		el := time.Since(start).Seconds()
		if el+el/float64(len(passes)) > b.seconds {
			break
		}
	}
	for _, p := range passes {
		b.failed += b.verify(p, passes[0])
	}

	// Per simulation, the median over passes of its host time and
	// allocations; outputs are identical across passes once verified.
	var runNS, mallocs float64
	var events, pkts uint64
	for i := range specs {
		var ts, as []float64
		for _, p := range passes {
			if p[i].err == nil {
				ts = append(ts, float64(p[i].runNS))
				as = append(as, float64(p[i].mallocs))
			}
		}
		if len(ts) == 0 {
			continue
		}
		runNS += median(ts)
		mallocs += median(as)
		events += firstOK(passes, i).sig.Events
		pkts += firstOK(passes, i).sig.Delivered
	}
	runS := b.scale(runNS / 1e9)
	printPasses(b.w.name, specs, passes)
	fmt.Printf("  host slow-down %.3f (median of %d readings)\n", median(b.slowdowns), len(b.slowdowns))
	return map[string]metric{
		"run_s":          {runS, "s"},
		"events_per_s":   {ratio(float64(events), runS), "events/s"},
		"ns_per_pkt":     {ratio(runS*1e9, float64(pkts)), "ns"},
		"setup_s":        {b.scale(median(builds)), "s"},
		"peak_rss_mb":    {peakRSSMB(b.cal.residentMB()), "MB"},
		"allocs_per_pkt": {ratio(mallocs, float64(pkts)), "allocations"},
	}, nil
}

// tracedRun makes one untraced pass and one traced pass, checks that
// they agree and that restored checkpoints continue exactly, and reduces
// them to the per-layer metrics.
func (b *bench) tracedRun(r *runner, specs []simSpec, buildS, topoS float64) (map[string]metric, error) {
	tr := r.tr
	plain := &runner{ckptRoot: r.ckptRoot}
	untraced, failed := b.pass(plain, specs, false, 0)
	b.attempted += len(specs)
	b.failed += failed + b.verify(untraced, nil)

	r.prof = &profiler{}
	ps := tr.begin("pass traced", 0)
	traced, failed := b.pass(r, specs, true, ps)
	tr.end(ps)
	b.attempted += len(specs)
	b.failed += failed + b.verify(traced, untraced)
	var samples []profileSample
	for _, gz := range r.prof.profiles {
		s, err := parseCPUProfile(gz)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s...)
	}
	share := cpuShares(samples)

	var restores, saves []float64
	for i, spec := range specs {
		if !spec.observed || traced[i].err != nil {
			continue
		}
		b.attempted++
		restoreNS, saveNS, err := r.restoreCheck(spec, i, traced[i].sig)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			b.failed++
			continue
		}
		restores = append(restores, float64(restoreNS)/1e9)
		saves = append(saves, float64(saveNS)/1e9)
	}

	ks := tr.begin("sim.SteadyStateWorkload", 0)
	var synth []float64
	for range syntheticReps {
		t0 := time.Now()
		s := sim.SteadyStateWorkload(syntheticActors, syntheticEvents, b.seed)
		synth = append(synth, float64(time.Since(t0).Nanoseconds())/float64(s.Processed()))
	}
	tr.end(ks)

	var c struct {
		events, pkts, fecnRx, txPkts, txPayload, txHot         uint64
		gets, misses, marked, cnp, becn, dropPkts, dropCredits uint64
		gcCycles                                               uint32
		peakPending                                            int
		hookCalls, obsRecords                                  uint64
		hookNS, ckptBytes                                      int64
		ckptSaves                                              int
		untracedNS, tracedNS                                   int64
	}
	for i, u := range untraced {
		t := traced[i]
		if u.err != nil || t.err != nil {
			continue
		}
		c.events += u.sig.Events
		c.pkts += u.sig.Delivered
		c.fecnRx += u.fecnRx
		c.txPkts += u.txPkts
		c.txPayload += u.txPayload
		c.txHot += u.txHotspot
		c.gets += u.poolGets
		c.misses += u.poolMisses
		c.marked += u.sig.FECNMarked
		c.cnp += u.sig.CNPSent
		c.becn += u.sig.BECNReceived
		c.dropPkts += u.sig.DroppedPkts
		c.dropCredits += u.sig.DroppedCredits
		c.gcCycles += u.gcCycles
		c.peakPending = max(c.peakPending, u.peakPending)
		c.hookCalls += t.hookCalls
		c.hookNS += t.hookNS
		c.obsRecords += t.obsRecords
		c.ckptSaves += t.ckptSaves
		c.ckptBytes += t.ckptBytes
		c.untracedNS += u.runNS
		c.tracedNS += t.runNS
	}

	path := filepath.Join(b.outDir, "spans", fmt.Sprintf("%s-seed%d.json", b.w.name, b.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	meta := map[string]any{"workload": b.w.name, "seed": b.seed, "cpu_shares": share}
	if err := tr.write(path, meta); err != nil {
		return nil, err
	}
	printShares(share)

	count := func(v uint64) metric { return metric{float64(v), "count"} }
	frac := func(v float64) metric { return metric{v, "fraction"} }
	return map[string]metric{
		"sim.events":                 count(c.events),
		"sim.events_per_pkt":         {ratio(float64(c.events), float64(c.pkts)), "events/pkt"},
		"sim.peak_pending":           count(uint64(c.peakPending)),
		"sim.self_share":             frac(share["sim"]),
		"sim.synthetic_ns_per_event": {median(synth), "ns"},

		"fabric.delivered_pkts":  count(c.pkts),
		"fabric.self_share":      frac(share["fabric"] + share["ib"]),
		"fabric.pool_miss_ratio": frac(ratio(float64(c.misses), float64(c.gets))),
		"fabric.fecn_rx":         count(c.fecnRx),

		"cc.hook_calls":    count(c.hookCalls),
		"cc.hook_s":        {float64(c.hookNS) / 1e9, "s"},
		"cc.self_share":    frac(share["cc"]),
		"cc.fecn_marked":   count(c.marked),
		"cc.cnp_sent":      count(c.cnp),
		"cc.becn_received": count(c.becn),
		"cc.becn_per_mark": {ratio(float64(c.becn), float64(c.marked)), "becn/mark"},

		"traffic.self_share":   frac(share["traffic"]),
		"traffic.tx_pkts":      count(c.txPkts),
		"traffic.hotspot_frac": frac(ratio(float64(c.txHot), float64(c.txPayload))),

		"obs.self_share":       frac(share["obs"]),
		"telemetry.self_share": frac(share["telemetry"]),
		"metrics.self_share":   frac(share["metrics"]),
		"obs.records":          count(c.obsRecords),

		"fault.self_share":      frac(share["fault"]),
		"fault.dropped_pkts":    count(c.dropPkts),
		"fault.dropped_credits": count(c.dropCredits),

		"ckpt.saves":      count(uint64(c.ckptSaves)),
		"ckpt.bytes":      {float64(c.ckptBytes), "bytes"},
		"ckpt.self_share": frac(share[bucketCkpt]),
		"ckpt.save_s":     {median(saves), "s"},
		"ckpt.restore_s":  {median(restores), "s"},

		"topo.build_s": {b.scale(topoS), "s"},
		"core.build_s": {b.scale(buildS), "s"},

		"runtime.gc_share":  frac(share[bucketGC]),
		"runtime.gc_cycles": count(uint64(c.gcCycles)),

		"trace.overhead_frac": frac(ratio(float64(c.tracedNS), float64(c.untracedNS)) - 1),
		"host.slowdown":       {median(b.slowdowns), "ratio"},
		"failed_frac":         frac(ratio(float64(min(b.failed, b.attempted)), float64(b.attempted))),
	}, nil
}

// profileHz is the traced run's CPU sampling rate. The default 100 Hz
// leaves too few samples in a one-second simulation to resolve a layer
// holding a few percent.
const profileHz = 1000

// profiler records one CPU profile per traced Execute call.
type profiler struct {
	cur      bytes.Buffer
	profiles [][]byte
}

func (p *profiler) start() error {
	p.cur.Reset()
	// Setting the rate first makes StartCPUProfile keep it; the runtime
	// prints a warning to standard error when StartCPUProfile then tries
	// to set its default.
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(&p.cur)
}

func (p *profiler) stop() {
	pprof.StopCPUProfile()
	p.profiles = append(p.profiles, bytes.Clone(p.cur.Bytes()))
}

func firstOK(passes [][]simResult, i int) simResult {
	for _, p := range passes {
		if p[i].err == nil {
			return p[i]
		}
	}
	return simResult{}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, less
// excludeMB: the calibrator's table, which stays resident throughout.
func peakRSSMB(excludeMB float64) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb/1024 - excludeMB
		}
	}
	return 0
}

// printPasses writes a per-simulation summary for a human reader.
func printPasses(name string, specs []simSpec, passes [][]simResult) {
	fmt.Printf("%s: %d passes\n", name, len(passes))
	for i, spec := range specs {
		var ts []string
		for _, p := range passes {
			ts = append(ts, fmt.Sprintf("%.3f", float64(p[i].runNS)/1e9))
		}
		x := firstOK(passes, i)
		fmt.Printf("  %-32s events %9d pkts %8d  host_s %s\n", spec.scen.Name, x.sig.Events, x.sig.Delivered, strings.Join(ts, " "))
	}
}

// printShares writes the CPU split of the traced run for a human reader.
func printShares(share map[string]float64) {
	fmt.Print("cpu shares:")
	for _, k := range sortedKeys(share) {
		fmt.Printf(" %s %.3f", k, share[k])
	}
	fmt.Println()
}
