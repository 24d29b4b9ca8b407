package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

// record runs one simulation, or one composite engine run that reports its
// own cycle and flit-move totals, and adds its cost and wall time to the
// Lab's stats, if any. This file is the nondet analyzer's wall-clock
// allowlist in experiments: every timed run goes through record, so wall
// time can only ever reach runner.Stats accounting, never a result row.
func (l *Lab) record(run func() (cycles, flitMoves int, err error)) error {
	start := time.Now()
	cycles, moves, err := run()
	if err != nil {
		return err
	}
	l.Stats.Record(runner.Stat{Cycles: cycles, FlitMoves: moves, Wall: time.Since(start)})
	return nil
}

// simulate runs specs through sys under sc and records the run's cost.
func (l *Lab) simulate(sys *core.System, specs []sim.PacketSpec, sc sim.Config) (sim.Result, error) {
	var res sim.Result
	err := l.record(func() (int, int, error) {
		var err error
		res, err = sys.Simulate(specs, sc)
		return res.Cycles, res.FlitMoves(), err
	})
	return res, err
}
