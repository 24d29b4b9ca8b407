package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fabricver"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// point is one simulated sweep point.
type point struct {
	res     sim.Result
	packets int
	runS    float64   // host time of the cycle loop
	stepsMS []float64 // host time of each 100-cycle window, traced runs only
}

// runFract is the scale target: a fat fractahedron of sz.FractLevels
// levels taken through build (set-up), static certification, and an
// open-loop Bernoulli sweep over the runner's worker pool. Every job
// simulates the same seed-generated packets.
func runFract(b *bench) error {
	levels := b.sz.FractLevels
	spec := fmt.Sprintf("fat-fract:levels=%d", levels)
	// Set-up builds the system as a user's -spec does. A traced pass builds
	// it one layer at a time instead, to time each layer.
	var sys *core.System
	err := b.setup(func(_ int, tr *tracer) error {
		var err error
		if tr == nil {
			sys, _, err = core.ParseSystem(spec)
			return err
		}
		root := tr.start(0, "setup", spec)
		defer tr.end(root)
		sys, err = buildLayered(tr, root, spec, fractTopo(levels, true))
		return err
	})
	if err != nil {
		return err
	}

	rates := b.sz.FractRates
	var deps int
	var low, high, steps, cycles, moves, delivered []float64
	err = b.loop(true, func(_ int, tr *tracer) error {
		root := tr.start(0, "job", spec)
		defer tr.end(root)
		t := time.Now()
		var cert fabricver.Certificate
		tr.do(root, "fabricver.static", spec, func() { cert = fabricver.Verify(sys, spec, fabricver.Options{SkipFaults: true}) })
		certS := time.Since(t).Seconds()
		b.check(cert.OK, "%s static certificate has %d violations", spec, len(cert.Violations))
		deps = cert.CDG.Deps

		t = time.Now()
		mapID := tr.start(root, "runner.map", spec)
		pts, err := runner.Map(runner.Config{Workers: b.workers}, len(rates), func(i int) (point, error) {
			specs := workload.Bernoulli(runner.RNG(b.seed, i), sys.Net.NumNodes(), b.sz.FractCycles, flits, rates[i])
			return simulatePoint(tr, mapID, sys, specs, fmt.Sprintf("rate=%g", rates[i]))
		})
		tr.end(mapID)
		sweepS := time.Since(t).Seconds()
		if err != nil {
			return err
		}
		var c, m, d int
		for i, p := range pts {
			r := p.res
			b.check(!r.Deadlocked && r.Dropped == 0 && r.Injected == p.packets && r.Delivered == p.packets,
				"%s rate %g: %d packets, %d injected, %d delivered, %d dropped, deadlocked %v",
				spec, rates[i], p.packets, r.Injected, r.Delivered, r.Dropped, r.Deadlocked)
			c, m, d = c+r.Cycles, m+r.FlitMoves(), d+r.Delivered
			steps = append(steps, p.stepsMS...)
		}
		if tr == nil {
			b.add("certify_s", "s", "lower", certS)
			b.add("flit_moves_per_s", "1/s", "higher", float64(m)/sweepS)
			return nil
		}
		first, last := pts[0], pts[len(pts)-1]
		low = append(low, first.runS*1e9/float64(first.res.FlitMoves()))
		high = append(high, last.runS*1e9/float64(last.res.FlitMoves()))
		cycles, moves, delivered = append(cycles, float64(c)), append(moves, float64(m)), append(delivered, float64(d))
		return nil
	})
	if err != nil {
		return err
	}
	b.add("peak_rss_mb", "MB", "lower", peakRSSMB())
	if b.tr == nil {
		return nil
	}

	spans := b.tr.snapshot()
	b.addLayer("core.build_s", spans, buildSpans...)
	b.addLayer("topology.build_s", spans, "topology.build")
	b.addLayer("routing.compile_s", spans, "routing.compile")
	b.addLayer("router.disables_s", spans, "router.disables")
	b.addLayer("fabricver.static_s", spans, "fabricver.static")
	b.add("fabricver.cdg_deps", "count", "lower", float64(deps))
	b.addLayer("sim.build_s", spans, "sim.build")
	b.addLayer("sim.run_s", spans, "sim.run")
	b.addLayer("sim.finish_s", spans, "sim.finish")
	b.add("sim.step_ms.p50", "ms", "lower", percentile(steps, 50))
	b.add("sim.step_ms.p95", "ms", "lower", percentile(steps, 95))
	b.add("sim.ns_per_flit_move.low", "ns", "lower", low...)
	b.add("sim.ns_per_flit_move.high", "ns", "lower", high...)
	b.add("sim.cycles", "count", "lower", cycles...)
	b.add("sim.flit_moves", "count", "lower", moves...)
	b.add("sim.delivered", "count", "higher", delivered...)
	b.addRunner(spans, "sim.point")
	return nil
}

// simulatePoint runs one sweep point with the shipped simulator
// defaults. A traced run steps the cycle loop in 100-cycle windows and
// times each one.
func simulatePoint(tr *tracer, parent int, sys *core.System, specs []sim.PacketSpec, name string) (point, error) {
	id := tr.start(parent, "sim.point", name)
	defer tr.end(id)
	p := point{packets: len(specs)}
	var s *sim.Simulator
	var err error
	tr.do(id, "sim.build", name, func() {
		s = sim.New(sys.Net, sys.Disables, sim.Config{})
		err = s.AddBatch(sys.Tables, specs)
	})
	if err != nil {
		return p, err
	}
	t := time.Now()
	if tr == nil {
		p.res = s.Run()
		p.runS = time.Since(t).Seconds()
		return p, nil
	}
	tr.do(id, "sim.run", name, func() {
		for s.Start(); s.Running(); {
			w := time.Now()
			s.StepTo(s.Now() + 100)
			p.stepsMS = append(p.stepsMS, float64(time.Since(w).Nanoseconds())/1e6)
		}
	})
	p.runS = time.Since(t).Seconds()
	tr.do(id, "sim.finish", name, func() { p.res = s.Finish() })
	return p, nil
}
