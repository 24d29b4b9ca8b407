package chaos

// Campaign: many independent recovery trials over the runner worker pool.
// Each trial derives its own RNG stream from (seed, trial) via
// runner.PointSeed, draws a fault plan and a workload from it sequentially,
// and runs the lock-step recovery engine. Under the runner determinism
// contract the merged trial slice — and therefore the campaign JSON — is
// byte-identical for any worker count.

import (
	"encoding/json"
	"fmt"

	"repro/internal/runner"
	"repro/internal/workload"
)

// CampaignSpec configures a chaos campaign.
type CampaignSpec struct {
	Trials  int
	Packets int   // transfers offered per trial
	Flits   int   // flits per transfer
	Window  int   // injection window in cycles (packets spread over [0, Window))
	Seed    int64 // campaign seed; trial t uses runner.PointSeed(Seed, t)
	Plan    PlanSpec
	Engine  Config
}

// TrialResult is one trial's plan and outcome.
type TrialResult struct {
	Trial  int
	Plan   Plan
	Result Result
}

// CampaignResult is the merged outcome of all trials plus aggregates.
type CampaignResult struct {
	Seed             int64
	Trials           []TrialResult
	Transfers        int
	Delivered        int // on either fabric
	FailedOver       int // delivered on the standby fabric
	Lost             int
	Unresolved       int
	Reissues         int
	Reconfigurations int
	RecertFailures   int
	Deadlocked       int // fabrics that froze in a deadlock, across trials
}

// Trial runs one campaign trial: derive the trial's RNG stream from
// (spec.Seed, trial), draw its fault plan and workload, and execute the
// lock-step recovery engine. A trial depends only on (spec, trial) — never
// on which worker ran it — which is what lets the campaign server compute,
// checkpoint and resume trials individually while staying byte-identical
// to an uninterrupted campaign.
func Trial(spec CampaignSpec, trial int) (TrialResult, error) {
	// One stream per trial, consumed in a fixed order: plan first, then
	// workload.
	rng := runner.RNG(spec.Seed, trial)
	net := spec.Engine.System.Net
	plan, err := GeneratePlan(rng, net, spec.Plan)
	if err != nil {
		return TrialResult{}, err
	}
	specs := workload.UniformRandom(rng, net.NumNodes(), spec.Packets, spec.Flits, spec.Window)
	res, err := Run(spec.Engine, plan, specs)
	if err != nil {
		return TrialResult{}, err
	}
	return TrialResult{Trial: trial, Plan: plan, Result: res}, nil
}

// Campaign runs spec.Trials independent recovery trials over the worker
// pool and merges them in trial order.
func Campaign(spec CampaignSpec, rcfg runner.Config) (*CampaignResult, error) {
	if spec.Engine.System == nil {
		return nil, fmt.Errorf("chaos: CampaignSpec.Engine.System is required")
	}
	if spec.Trials <= 0 {
		return nil, fmt.Errorf("chaos: campaign needs a positive trial count, got %d", spec.Trials)
	}
	// Surface a nonsensical engine configuration once, before fanning out,
	// instead of from every trial.
	if _, err := spec.Engine.withDefaults(); err != nil {
		return nil, err
	}
	trials, err := runner.Map(rcfg, spec.Trials, func(trial int) (TrialResult, error) {
		return Trial(spec, trial)
	})
	if err != nil {
		return nil, err
	}
	cr := &CampaignResult{Seed: spec.Seed, Trials: trials}
	for _, t := range trials {
		r := t.Result
		cr.Transfers += r.Transfers
		cr.Delivered += r.DeliveredX + r.DeliveredY
		cr.FailedOver += r.DeliveredY
		cr.Lost += r.Lost
		cr.Unresolved += r.Unresolved
		cr.Reissues += r.Reissues
		cr.Reconfigurations += r.Reconfigurations
		cr.RecertFailures += r.RecertFailures
		if r.XDeadlocked {
			cr.Deadlocked++
		}
		if r.YDeadlocked {
			cr.Deadlocked++
		}
	}
	return cr, nil
}

// JSON renders the campaign result deterministically (fixed field order,
// two-space indent): equal campaigns marshal to equal bytes.
func (r *CampaignResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// MarshalText names the fault kind in JSON instead of a bare enum value.
func (k FaultKind) MarshalText() ([]byte, error) {
	return []byte(k.String()), nil
}

// UnmarshalText reads a fault kind back from its name, so campaign JSON
// decodes into the CampaignResult it was written from.
func (k *FaultKind) UnmarshalText(name []byte) error {
	for _, c := range []FaultKind{LinkKill, LinkFlap, RouterKill} {
		if c.String() == string(name) {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("chaos: unknown fault kind %q", name)
}
