// Command perfbench benchmarks the InfiniBand model end to end and per
// layer. It runs one named workload, a fixed set of simulations derived
// from the seed, as a closed loop for a given number of seconds, checks
// every simulation's outputs, and prints its metrics as one JSON object
// on the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload paper-r18 --seed 1 --seconds 28 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// makes one untraced and one traced pass and prints the per-layer
// metrics. --workload all runs every workload both ways in one process.
// NOTES.md describes the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// signaturesFile holds the recorded signature hashes, by workload, seed
// and simulation; -record rewrites it, relative to the repository root.
const signaturesFile = "perfbench/signatures.json"

//go:embed signatures.json
var recordedJSON []byte

func main() {
	var (
		name    = flag.String("workload", "", `workload name, or "all" for every workload, untraced and traced`)
		seed    = flag.Uint64("seed", 1, "seed the simulations are derived from")
		seconds = flag.Float64("seconds", 28, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
		out     = flag.String("out", ".bench_build", "directory for checkpoints and span files")
		record  = flag.String("record", "", "record signatures for a seed range such as 0-20 into "+signaturesFile+", then exit")
	)
	flag.Parse()
	cal, err := newCalibrator()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: calibrator:", err)
		os.Exit(1)
	}
	if *record != "" {
		if err := recordSignatures(*record, signaturesFile, *out, cal); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var recorded map[string]map[string][]string
	if err := json.Unmarshal(recordedJSON, &recorded); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: signatures.json:", err)
		os.Exit(1)
	}
	newBench := func(w *workload) *bench {
		return &bench{
			w:        w,
			cal:      cal,
			seed:     *seed,
			seconds:  *seconds,
			outDir:   *out,
			recorded: recorded[w.name][strconv.FormatUint(*seed, 10)],
		}
	}
	var rep *report
	if *name == "all" {
		rep, err = runAll(newBench)
	} else {
		var w *workload
		if w, err = findWorkload(*name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		rep, err = newBench(w).run(*trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// recordSignatures runs one untraced pass of every workload for each
// seed in the range and writes the signatures file.
func recordSignatures(rng, path, outDir string, cal *calibrator) error {
	lo, hi, ok := strings.Cut(rng, "-")
	if !ok {
		hi = lo
	}
	first, err := strconv.ParseUint(lo, 10, 64)
	if err != nil {
		return fmt.Errorf("-record: %w", err)
	}
	last, err := strconv.ParseUint(hi, 10, 64)
	if err != nil {
		return fmt.Errorf("-record: %w", err)
	}
	all := map[string]map[string][]string{}
	for i := range workloads {
		w := &workloads[i]
		all[w.name] = map[string][]string{}
		for seed := first; seed <= last; seed++ {
			b := &bench{w: w, cal: cal, seed: seed, outDir: outDir}
			specs, err := w.sims(seed)
			if err != nil {
				return err
			}
			r := b.newRunner(nil)
			res, failed := b.pass(r, specs, false, 0)
			if failed += b.verify(res, nil); failed > 0 {
				return fmt.Errorf("%s seed %d: %d simulations failed", w.name, seed, failed)
			}
			var hs []string
			for _, x := range res {
				hs = append(hs, x.sig.hash())
			}
			all[w.name][strconv.FormatUint(seed, 10)] = hs
			fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", w.name, seed, hs)
			if err := os.RemoveAll(r.ckptRoot); err != nil {
				return err
			}
		}
	}
	buf, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runAll runs every workload, untraced and then traced, one after
// another in this process. It prints each metric with its unit and
// returns one report whose metric names carry the workload as a prefix.
func runAll(newBench func(*workload) *bench) (*report, error) {
	all := &report{Correct: true, Metrics: map[string]metric{}}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			// Return the previous workload's heap to the OS, then restart
			// the kernel's peak-RSS counter so peak_rss_mb is this
			// workload's own. Kernels before Linux 4.0 lack the reset; the
			// peak then stays the process's, which only overstates it.
			debug.FreeOSMemory()
			_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
			rep, err := newBench(w).run(traced)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			all.Correct = all.Correct && rep.Correct
			all.Attempted += rep.Attempted
			all.Failed += rep.Failed
			for _, k := range sortedKeys(rep.Metrics) {
				m := rep.Metrics[k]
				fmt.Printf("%-22s %-28s %16.6g %s\n", w.name, k, m.Value, m.Unit)
				all.Metrics[w.name+"/"+k] = m
			}
		}
	}
	return all, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
