package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
)

// simSpec is one simulation of a workload.
type simSpec struct {
	scen core.Scenario
	// observed attaches the flight-recorder consumers and writes rolling
	// checkpoints (faulted-observed-r18 only).
	observed bool
}

// workload is a named, ordered set of simulations run as a closed loop:
// each simulation starts when the previous one ends.
type workload struct {
	name string
	// sims derives the simulations from the benchmark seed.
	sims func(seed uint64) ([]simSpec, error)
	// check validates cross-simulation properties of one pass.
	check func(results []simResult) error
}

// Windows of the radix-36 workload. Short windows keep a pass near four
// seconds; at 2+4 ms a run lasted 0.6-0.8 s and varied by about 12%.
const (
	r36Warmup  = 2 * sim.Millisecond
	r36Measure = 6 * sim.Millisecond
)

// Windows of uniform-r18. Its one simulation is repeated for the whole
// run; at the default 4+8 ms a pass took four seconds, which left a run
// too few passes for its median to settle.
const (
	uniformWarmup  = 1 * sim.Millisecond
	uniformMeasure = 2 * sim.Millisecond
)

// Fault plan of faulted-observed-r18: the degradation sweep's cell at
// intensity 0.6, its plan seed salted the way core.RunDegradationOpts
// salts the first intensity of a sweep (degradationPlanSalt there).
const (
	faultIntensity  = 0.6
	degradationSalt = 0x5fa017ba5e
	faultSamples    = 64
)

// Checkpoint cadence and retention of faulted-observed-r18.
const (
	ckptEvery = 1 * sim.Millisecond
	ckptKeep  = 2
)

var workloads = []workload{
	{name: "paper-r18", sims: paperR18, check: checkTableIIGain},
	{name: "uniform-r18", sims: uniformR18},
	{name: "paper-r36", sims: paperR36},
	{name: "faulted-observed-r18", sims: faultedR18},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// windy returns fig 8's point at hotspot share p (every node a B node).
func windy(base core.Scenario, p int, ccOn bool) core.Scenario {
	s := base
	s.FracBPct = 100
	s.PPercent = p
	s.CNodesActive = true
	s.CCOn = ccOn
	s.Name = fmt.Sprintf("fig8 p=%d cc=%v", p, ccOn)
	return s
}

// paperR18 is Table II's four configurations plus fig 8 at p=60 with CC
// off and on, at radix 18 with the default windows.
func paperR18(seed uint64) ([]simSpec, error) {
	base := core.Default(18)
	base.Seed = seed
	var out []simSpec
	for _, s := range core.TableIIScenarios(base) {
		out = append(out, simSpec{scen: s})
	}
	out = append(out, simSpec{scen: windy(base, 60, false)}, simSpec{scen: windy(base, 60, true)})
	return out, nil
}

// checkTableIIGain requires Table II's CC-on non-hotspot rate (third
// simulation of paper-r18 is CC off, fourth CC on, both with hotspots)
// to exceed the CC-off rate: the paper's central claim.
func checkTableIIGain(rs []simResult) error {
	off, on := rs[2].sig.NonHotGbps, rs[3].sig.NonHotGbps
	if !(on > off) {
		return fmt.Errorf("table II non-hotspot rate with CC %.4f Gb/s not above %.4f without", on, off)
	}
	return nil
}

// uniformR18 is bare forwarding at peak load: every node sends to
// uniform destinations at full injection, CC off, with 1+2 ms windows.
func uniformR18(seed uint64) ([]simSpec, error) {
	s := windy(core.Default(18), 0, false)
	s.Seed = seed
	s.Warmup, s.Measure = uniformWarmup, uniformMeasure
	s.Name = "uniform B=100% p=0 cc=false"
	return []simSpec{{scen: s}}, nil
}

// paperR36 is Table II's hotspot configuration and fig 8 at p=60, both
// with CC on, on the paper's 648-node fabric.
func paperR36(seed uint64) ([]simSpec, error) {
	base := core.Default(36)
	base.Seed = seed
	base.Warmup, base.Measure = r36Warmup, r36Measure
	return []simSpec{
		{scen: core.TableIIScenarios(base)[3]},
		{scen: windy(base, 60, true)},
	}, nil
}

// faultedR18 is the degradation cell at radix 18: one synthesized plan
// run with CC off and on.
func faultedR18(seed uint64) ([]simSpec, error) {
	base := core.Default(18)
	base.Seed = seed
	tp, err := topo.FatTree(base.Radix)
	if err != nil {
		return nil, err
	}
	plan, err := fault.Synth(fault.SynthConfig{
		Seed:        seed ^ degradationSalt,
		Intensity:   faultIntensity,
		Links:       fault.FabricLinks(tp),
		Horizon:     sim.Time(0).Add(base.Warmup + base.Measure),
		SampleEvery: (base.Warmup + base.Measure) / faultSamples,
	})
	if err != nil {
		return nil, err
	}
	base.Faults = plan
	var out []simSpec
	for _, ccOn := range []bool{false, true} {
		s := base
		s.CCOn = ccOn
		s.Name = fmt.Sprintf("degradation in=%.2f cc=%v", faultIntensity, ccOn)
		out = append(out, simSpec{scen: s, observed: true})
	}
	return out, nil
}
