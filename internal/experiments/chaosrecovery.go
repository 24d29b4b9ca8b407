package experiments

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/runner"
)

// ChaosRecovery runs a deterministic chaos campaign on the 64-node dual
// fat-fractahedron pair: each trial draws a fault plan — one permanent link
// kill, one transient link flap, one router kill, all on the X fabric —
// plus a uniform workload from its own (seed, trial) stream, then exercises
// the full online recovery story: end-node timeout detection, hot
// reconfiguration of the degraded fabric's routing tables and path
// disables (re-certified acyclic and component-connected before each
// swap), and retry failover onto the co-simulated Y fabric with capped
// exponential backoff. The campaign JSON is byte-identical for any worker
// count.
func (l *Lab) ChaosRecovery(trials, packets, flits int, seed int64) (*chaos.CampaignResult, error) {
	spec, err := l.ChaosRecoverySpec(trials, packets, flits, seed)
	if err != nil {
		return nil, err
	}
	var cr *chaos.CampaignResult
	err = l.record(func() (int, int, error) {
		var err error
		cr, err = chaos.Campaign(spec, runner.Config{Workers: l.Workers})
		if err != nil {
			return 0, 0, err
		}
		cycles, moves := 0, 0
		for _, t := range cr.Trials {
			cycles += t.Result.Cycles
			moves += t.Result.FlitMoves
		}
		return cycles, moves, nil
	})
	return cr, err
}

// ChaosRecoveryString renders a chaos campaign.
func ChaosRecoveryString(cr *chaos.CampaignResult) string {
	var sb strings.Builder
	sb.WriteString("§1/§2 — online fault recovery (chaos campaign, 64-node dual fractahedron)\n")
	fmt.Fprintf(&sb, "  %d trials, %d transfers; per trial: 1 link kill + 1 link flap + 1 router kill on X\n",
		len(cr.Trials), cr.Transfers)
	for _, t := range cr.Trials {
		r := t.Result
		fmt.Fprintf(&sb, "  trial %d: drops %d, re-issued %d, failed over %d, lost %d", t.Trial,
			r.Drops, r.Reissues, r.DeliveredY, r.Lost)
		fmt.Fprintf(&sb, "; reconfigured %dx (recert failures %d)", r.Reconfigurations, r.RecertFailures)
		fmt.Fprintf(&sb, "; recovery %d cycles, dip %d%% for %d cycles\n",
			r.RecoveryCycles, r.DipDepthPct, r.DipWidthCycles)
	}
	fmt.Fprintf(&sb, "  campaign: delivered %d/%d (%d failed over), lost %d, unresolved %d\n",
		cr.Delivered, cr.Transfers, cr.FailedOver, cr.Lost, cr.Unresolved)
	fmt.Fprintf(&sb, "  reconfigurations %d, recertification failures %d, deadlocked fabrics %d\n",
		cr.Reconfigurations, cr.RecertFailures, cr.Deadlocked)
	return sb.String()
}
