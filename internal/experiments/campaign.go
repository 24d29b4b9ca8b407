package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

// observe runs one simulation point through a system and records its cost
// (cycles simulated, flit moves, wall time) in the campaign stats, if any.
// Experiments route every worker-pool simulation through this helper so
// cmd/paper can print a campaign summary.
func observe(cfg runner.Config, label string, sys *core.System, specs []sim.PacketSpec, sc sim.Config) (sim.Result, error) {
	start := time.Now()
	res, err := sys.Simulate(specs, sc)
	if err != nil {
		return res, err
	}
	cfg.Stats.Record(runner.Stat{
		Label:     label,
		Cycles:    res.Cycles,
		FlitMoves: res.FlitMoves(),
		Wall:      time.Since(start),
	})
	return res, nil
}

// timed is observe's sibling for experiments that drive a sim.Sim directly
// instead of going through core.System: it runs the simulation closure and
// records its cost under label. This file is the nondet analyzer's
// wall-clock allowlist — experiments must route timing through these
// helpers so wall time can only ever reach runner.Stats accounting, never
// a result row.
func timed(stats *runner.Stats, label string, run func() sim.Result) sim.Result {
	start := time.Now()
	res := run()
	stats.Record(runner.Stat{
		Label:     label,
		Cycles:    res.Cycles,
		FlitMoves: res.FlitMoves(),
		Wall:      time.Since(start),
	})
	return res
}

// timedCost is timed for composite engines (dual-fabric chaos recovery)
// that report their own cycle and flit-move totals: the closure runs the
// engine and returns its cost, which is recorded under label together with
// the wall time.
func timedCost(stats *runner.Stats, label string, run func() (cycles, flitMoves int, err error)) error {
	start := time.Now()
	cycles, moves, err := run()
	if err != nil {
		return err
	}
	stats.Record(runner.Stat{
		Label:     label,
		Cycles:    cycles,
		FlitMoves: moves,
		Wall:      time.Since(start),
	})
	return nil
}
