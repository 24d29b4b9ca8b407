package experiments

// Point-shaped campaign specs for the campaign server (internal/serve).
// A server job must be able to compute, checkpoint and resume its points
// individually, so these specs expose the same sweeps the batch
// experiments run as pure point functions: Row(i) depends only on
// (spec, i) — never on which worker ran it, or whether points before it
// were computed in this process or restored from a checkpoint. That is
// the whole resume story: re-running any subset of points reproduces the
// exact bytes of an uninterrupted campaign.

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SweepSpec describes an offered-load simulation sweep as independently
// computable points: the cross product of Specs (core.ParseSystem
// grammar) and Rates. Point i maps to spec i%len(Specs) at rate
// i/len(Specs), and every topology at one rate draws its workload from
// the same (Seed, rate-index) stream — the SimSweep convention that
// keeps curves comparable. The JSON form is the campaign server's job
// payload and cache-key input, so field names are part of the wire
// contract.
type SweepSpec struct {
	Specs     []string  `json:"specs"`
	Rates     []float64 `json:"rates"`
	Cycles    int       `json:"cycles"`
	Flits     int       `json:"flits"`
	FIFODepth int       `json:"fifo_depth"`
	VCs       int       `json:"vcs,omitempty"`
	Seed      int64     `json:"seed"`
}

// SweepPointRow is one point's result row, the NDJSON line the campaign
// server streams.
type SweepPointRow struct {
	Spec       string  `json:"spec"`
	Rate       float64 `json:"rate"`
	Offered    float64 `json:"offered"`
	Cycles     int     `json:"cycles"`
	Delivered  int     `json:"delivered"`
	AvgLatency float64 `json:"avg_latency"`
	Throughput float64 `json:"throughput_fpc"`
	Deadlocked bool    `json:"deadlocked"`
}

// Admission bounds on a sweep's simulator sizing. A spec arrives over
// HTTP, and each point builds a simulator from it: sim.New allocates
// channels × VCs × FIFO depth flit slots, and the Bernoulli workload can
// start one packet per (cycle, node) pair, numbered with int32 ids. A spec
// past these bounds would panic or exhaust memory inside a point on a
// campaignd worker instead of failing validation. They sit far above what
// the paper's experiments run (FIFOs of 1 to 16 flits, at most 3 VCs, a
// few thousand cycles).
const (
	maxSweepFIFODepth  = 256
	maxSweepVCs        = 8
	maxSweepInjections = 1 << 24 // cycles × nodes
)

// Points is the campaign size: every (spec, rate) pair.
func (s SweepSpec) Points() int { return len(s.Specs) * len(s.Rates) }

// Validate rejects empty or nonsensical sweeps up front, parsing every
// topology spec so a bad job fails at admission, not at point 17.
func (s SweepSpec) Validate() error {
	if len(s.Specs) == 0 {
		return fmt.Errorf("sweep: no topology specs")
	}
	if len(s.Rates) == 0 {
		return fmt.Errorf("sweep: no rates")
	}
	if s.Cycles < 1 {
		return fmt.Errorf("sweep: cycles %d, need >= 1", s.Cycles)
	}
	if s.Flits < 1 {
		return fmt.Errorf("sweep: flits %d, need >= 1", s.Flits)
	}
	if s.FIFODepth < 1 || s.FIFODepth > maxSweepFIFODepth {
		return fmt.Errorf("sweep: fifo_depth %d outside [1, %d]", s.FIFODepth, maxSweepFIFODepth)
	}
	if s.VCs < 0 || s.VCs > maxSweepVCs {
		return fmt.Errorf("sweep: vcs %d outside [0, %d]", s.VCs, maxSweepVCs)
	}
	for _, spec := range s.Specs {
		sys, _, err := core.ParseSystem(spec)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		n := sys.Net.NumNodes()
		if n < 2 {
			return fmt.Errorf("sweep: %s has %d nodes, need >= 2 for traffic", spec, n)
		}
		if s.Cycles > maxSweepInjections/n {
			return fmt.Errorf("sweep: %d cycles × %d nodes of %s exceeds %d", s.Cycles, n, spec, maxSweepInjections)
		}
	}
	for _, r := range s.Rates {
		if r <= 0 || r > 1 {
			return fmt.Errorf("sweep: rate %.6f outside (0, 1]", r)
		}
	}
	return nil
}

// Row computes one point. The second argument is ignored: the benchmark in
// bench/ still passes it, and the next change to the benchmark drops it.
func (s SweepSpec) Row(point, _ int) (SweepPointRow, error) {
	if point < 0 || point >= s.Points() {
		return SweepPointRow{}, fmt.Errorf("sweep: point %d outside [0, %d)", point, s.Points())
	}
	spec := s.Specs[point%len(s.Specs)]
	rateIdx := point / len(s.Specs)
	rate := s.Rates[rateIdx]
	sys, _, err := core.ParseSystem(spec)
	if err != nil {
		return SweepPointRow{}, err
	}
	rng := runner.RNG(s.Seed, rateIdx)
	specs := workload.Bernoulli(rng, sys.Net.NumNodes(), s.Cycles, s.Flits, rate)
	res, err := sys.Simulate(specs, sim.Config{FIFODepth: s.FIFODepth, VirtualChannels: s.VCs})
	if err != nil {
		return SweepPointRow{}, err
	}
	return SweepPointRow{
		Spec:       spec,
		Rate:       rate,
		Offered:    rate * float64(s.Flits),
		Cycles:     res.Cycles,
		Delivered:  res.Delivered,
		AvgLatency: res.AvgLatency,
		Throughput: res.ThroughputFPC,
		Deadlocked: res.Deadlocked,
	}, nil
}

// ChaosRecoverySpec is the chaos-recovery campaign configuration the
// ChaosRecovery experiment runs, exported so the campaign server can
// execute the same campaign trial by trial (chaos.Trial) with
// checkpoint/resume. Equal arguments produce the exact trial stream of
// the batch experiment.
func ChaosRecoverySpec(trials, packets, flits int, seed int64) chaos.CampaignSpec {
	return chaos.CampaignSpec{
		Trials:  trials,
		Packets: packets,
		Flits:   flits,
		Window:  80,
		Seed:    seed,
		Plan: chaos.PlanSpec{
			LinkKills: 1, LinkFlaps: 1, RouterKills: 1,
			Window: 40, RepairAfter: 160,
		},
		Engine: chaos.Config{
			Build:       dualFractahedron,
			Sim:         sim.Config{FIFODepth: 4, TimeoutCycles: 200, MaxRetries: 1},
			Reconfigure: true,
		},
	}
}
