package chaos

// The dual-fabric recovery engine. Two identical fabrics co-simulate in
// lock step (the laggard steps one cycle at a time, so clocks never drift
// apart by more than one cycle); the engine watches each fabric's delivery
// and drop hooks, re-issues killed transfers on the alternate fabric with
// capped exponential backoff, and — when end-node drops reveal new damage —
// recomputes up*/down* tables and minimal path-disables for the degraded
// topology, re-certifies them acyclic+connected with
// fabricver.CertifyLive, and hot-swaps them into the live simulator
// between cycles.
//
// Lock-step causality: a cycle-t event on one fabric influences the other
// only through a re-issue whose InjectCycle is at least t+2 (backoff >= 1),
// and the clocks differ by at most one cycle, so processing hooks inline
// during the step is causally exact at cycle granularity.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabricver"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// dipWindow is the throughput-sampling granularity in cycles.
const dipWindow = 64

// fabricName names the primary (X) and standby (Y) fabric for messages.
var fabricName = [2]string{"X", "Y"}

// Config parameterizes one recovery run.
type Config struct {
	// System is the fabric both X and Y start as. The simulators and the
	// reconfiguration only read its network, tables and disables, so the
	// two fabrics, and concurrent trials, share it.
	System *core.System
	// Sim configures both simulators. TimeoutCycles should normally be set:
	// it is the end-node detection mechanism that surfaces worms wedged
	// behind (not aimed at) a dead link.
	Sim sim.Config
	// MaxRetries bounds cross-fabric re-issues per transfer (default 3).
	MaxRetries int
	// BackoffBase is the first re-issue delay in cycles (default 8);
	// successive re-issues double it up to BackoffCap (default 256).
	BackoffBase int
	BackoffCap  int
	// Reconfigure enables online table recomputation + hot swap. Off, the
	// engine still retries over the alternate fabric, but damaged fabrics
	// keep their stale tables.
	Reconfigure bool
}

// withDefaults validates the retry/backoff knobs and fills the zero-value
// defaults. Negative values and a cap below the base are rejected rather
// than silently patched over: a BackoffCap below BackoffBase used to be
// ignored from the very first re-issue (base<<0 already exceeds the cap,
// so every delay clamps to the cap and the configured base never acts),
// which made the configuration lie about the schedule it produced.
func (c Config) withDefaults() (Config, error) {
	if c.MaxRetries < 0 {
		return c, fmt.Errorf("chaos: MaxRetries %d is negative (0 means the default of 3)", c.MaxRetries)
	}
	if c.BackoffBase < 0 {
		return c, fmt.Errorf("chaos: BackoffBase %d is negative (0 means the default of 8)", c.BackoffBase)
	}
	if c.BackoffCap < 0 {
		return c, fmt.Errorf("chaos: BackoffCap %d is negative (0 means the default of 256)", c.BackoffCap)
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 8
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 256
	}
	if c.BackoffCap < c.BackoffBase {
		return c, fmt.Errorf("chaos: BackoffCap %d is below BackoffBase %d; the first re-issue already exceeds the cap, so the base can never take effect",
			c.BackoffCap, c.BackoffBase)
	}
	return c, nil
}

// Result summarizes one chaos recovery run.
type Result struct {
	Transfers int // logical transfers offered
	Issues    int // packet issues, including re-issues
	Drops     int // packets killed (faults, disables, retry-exhausted worms)
	Reissues  int // cross-fabric (or same-fabric) re-issues

	DeliveredX int // transfers completed on the primary fabric
	DeliveredY int // transfers completed on the standby fabric
	Lost       int // transfers dropped with the retry budget exhausted
	Unresolved int // transfers still pending at the horizon or in a deadlock

	Reconfigurations int  // successful table+disable hot swaps
	RecertFailures   int  // recomputed configurations that failed certification
	FinalCertified   bool // the last swapped configuration was re-certified

	FirstFaultCycle int
	// RecoveryCycles is the span from the first injected fault to the last
	// delivery of a re-issued transfer — how long the fault's effects
	// lingered (0 when no re-issued transfer was delivered).
	RecoveryCycles int
	// BaselineFPC is the delivered-flits-per-cycle rate before the first
	// fault; DipDepthPct and DipWidthCycles measure the throughput dip
	// after it (worst shortfall as a percentage of baseline, and the length
	// of the contiguous below-baseline stretch).
	BaselineFPC    float64
	DipDepthPct    int
	DipWidthCycles int

	Cycles            int // unified cycle count (max over fabrics)
	FlitMoves         int // both fabrics
	InOrderViolations int // both fabrics
	XDeadlocked       bool
	YDeadlocked       bool
}

// transfer is one logical end-to-end data movement; packets are its
// (re-)issue attempts.
type transfer struct {
	src, dst, flits int
	attempts        int
	resolved        bool
	lost            bool
}

// fabState is one fabric's live state.
type fabState struct {
	net *topology.Network
	tb  *routing.Tables
	s   *sim.Simulator

	lastRev    int  // FaultRevision consumed by the reconfiguration logic
	newDamage  bool // links died since the last (re)configuration
	repairSeen bool // links returned since the last (re)configuration
	dropSeen   bool // an end-node drop fired since the last (re)configuration
	knownDead  []topology.LinkID
}

type engine struct {
	cfg  Config
	fabs [2]*fabState
	res  Result

	transfers []transfer
	// pending maps (src, dst, flits) to the FIFO of in-flight transfer
	// indices per fabric. Same-shape packets on one fabric deliver in issue
	// order per (src, dst) pair up to sim-internal retries, and every issue
	// resolves exactly once, so FIFO matching keeps the books balanced.
	pending [2]map[[3]int][]int

	windows       []int // delivered flits per dipWindow-cycle bucket
	lastDelivery  int   // cycle of the last delivery (for dip scanning)
	lastRecovered int   // cycle of the last re-issued-transfer delivery
	err           error // first internal accounting error, if any
}

func key(spec sim.PacketSpec) [3]int { return [3]int{spec.Src, spec.Dst, spec.Flits} }

func (e *engine) push(fab int, spec sim.PacketSpec, ti int) {
	k := key(spec)
	e.pending[fab][k] = append(e.pending[fab][k], ti)
}

func (e *engine) pop(fab int, spec sim.PacketSpec) int {
	k := key(spec)
	q := e.pending[fab][k]
	if len(q) == 0 {
		if e.err == nil {
			e.err = fmt.Errorf("chaos: fabric %s resolved packet %d->%d (%d flits) with no pending transfer",
				fabricName[fab], spec.Src, spec.Dst, spec.Flits)
		}
		return -1
	}
	e.pending[fab][k] = q[1:]
	return q[0]
}

func (e *engine) window(now int) *int {
	w := now / dipWindow
	for len(e.windows) <= w {
		e.windows = append(e.windows, 0)
	}
	return &e.windows[w]
}

// delivered handles one fabric's delivery hook.
func (e *engine) delivered(fab int, spec sim.PacketSpec, now int) {
	ti := e.pop(fab, spec)
	if ti < 0 {
		return
	}
	t := &e.transfers[ti]
	t.resolved = true
	if fab == 0 {
		e.res.DeliveredX++
	} else {
		e.res.DeliveredY++
	}
	*e.window(now) += spec.Flits
	if now > e.lastDelivery {
		e.lastDelivery = now
	}
	if t.attempts > 1 && now > e.lastRecovered {
		e.lastRecovered = now
	}
}

// dropped handles one fabric's drop hook: account the kill, then re-issue
// on the alternate fabric (falling back to the same one when the alternate
// cannot route the pair) with capped exponential backoff, or declare the
// transfer lost when the retry budget is spent or no fabric has a path.
func (e *engine) dropped(fab int, spec sim.PacketSpec, now int) {
	e.res.Drops++
	e.fabs[fab].dropSeen = true
	ti := e.pop(fab, spec)
	if ti < 0 {
		return
	}
	t := &e.transfers[ti]
	if t.attempts > e.cfg.MaxRetries {
		t.resolved, t.lost = true, true
		e.res.Lost++
		return
	}
	backoff := e.cfg.BackoffBase << (t.attempts - 1)
	if backoff > e.cfg.BackoffCap || backoff <= 0 {
		backoff = e.cfg.BackoffCap
	}
	respec := sim.PacketSpec{
		Src: t.src, Dst: t.dst, Flits: t.flits,
		InjectCycle: now + 1 + backoff,
	}
	for _, target := range [2]int{1 - fab, fab} {
		fs := e.fabs[target]
		route, err := fs.tb.Route(t.src, t.dst)
		if err != nil {
			continue // severed on this fabric's current tables
		}
		if err := fs.s.AddPacket(respec, route); err != nil {
			continue
		}
		t.attempts++
		e.res.Issues++
		e.res.Reissues++
		e.push(target, respec, ti)
		return
	}
	t.resolved, t.lost = true, true
	e.res.Lost++
}

// observeFaults folds the simulator's fault revision into the detection
// flags: new dead links arm newDamage (reconfiguration then waits for an
// end-node drop — nodes observe timeouts, not link state), recovered links
// arm repairSeen (the repaired hardware announces itself, so reconfiguration
// may proceed immediately and re-admit the link).
func (fs *fabState) observeFaults() {
	rev := fs.s.FaultRevision()
	if rev == fs.lastRev {
		return
	}
	fs.lastRev = rev
	dead := fs.s.DeadLinks()
	// Both lists are ascending; a two-pointer sweep finds set differences.
	i, j := 0, 0
	for i < len(fs.knownDead) || j < len(dead) {
		switch {
		case j == len(dead) || (i < len(fs.knownDead) && fs.knownDead[i] < dead[j]):
			fs.repairSeen = true
			i++
		case i == len(fs.knownDead) || dead[j] < fs.knownDead[i]:
			fs.newDamage = true
			j++
		default:
			i++
			j++
		}
	}
	fs.knownDead = dead
}

// reconfigure recomputes up*/down* tables and minimal disables for the
// fabric's surviving topology (masked over the original network, which the
// live simulator keeps running on), proves the configuration acyclic and exactly
// component-connected with fabricver.CertifyLive, and hot-swaps it into the
// live simulator. On any certification failure the stale configuration is
// kept (and counted): a running fabric must never swap in an unproven
// table.
func (e *engine) reconfigure(fs *fabState) {
	fs.newDamage, fs.repairSeen, fs.dropSeen = false, false, false

	deadSet := make(map[topology.LinkID]bool, len(fs.knownDead))
	for _, l := range fs.knownDead {
		deadSet[l] = true
	}
	linkDead := func(l topology.LinkID) bool { return deadSet[l] }

	root, expected := fabricver.LiveTarget(fs.net, linkDead)
	if root < 0 {
		e.res.RecertFailures++
		return // no live router component: nothing to route
	}
	tb, err := routing.UpDownDegraded(fs.net, root, linkDead, nil)
	if err != nil {
		e.res.RecertFailures++
		return
	}
	lc, dis := fabricver.CertifyLive(tb)
	if !lc.Acyclic || lc.Reached != expected {
		e.res.RecertFailures++
		e.res.FinalCertified = false
		return
	}
	fs.tb = tb
	fs.s.SetDisables(dis)
	e.res.Reconfigurations++
	e.res.FinalCertified = true
}

// Run executes one chaos recovery trial: start X and Y from the shared
// system, schedule the plan, issue every transfer on the primary fabric, then co-simulate
// both fabrics in lock step with online detection, reconfiguration, and
// retry failover until every transfer resolves (or the horizon/deadlock
// freezes the remainder).
func Run(cfg Config, plan Plan, specs []sim.PacketSpec) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	sys := cfg.System
	if sys == nil {
		return Result{}, fmt.Errorf("chaos: Config.System is required")
	}
	e := &engine{cfg: cfg}
	e.res.FirstFaultCycle = plan.FirstCycle()
	e.res.FinalCertified = true // until a failed recertification says otherwise
	for i := 0; i < 2; i++ {
		fs := &fabState{net: sys.Net, tb: sys.Tables, s: sim.New(sys.Net, sys.Disables, cfg.Sim)}
		e.fabs[i] = fs
		e.pending[i] = make(map[[3]int][]int)
		fab := i
		fs.s.OnDelivered(func(spec sim.PacketSpec, now int) { e.delivered(fab, spec, now) })
		fs.s.OnDropped(func(spec sim.PacketSpec, now int) { e.dropped(fab, spec, now) })
	}
	for _, f := range plan.Faults {
		if f.Fabric < 0 || f.Fabric > 1 {
			return e.res, fmt.Errorf("chaos: fault fabric %d out of range", f.Fabric)
		}
		s := e.fabs[f.Fabric].s
		switch f.Kind {
		case LinkKill:
			err = s.ScheduleFault(sim.LinkFault{Cycle: f.Cycle, Link: f.Link})
		case LinkFlap:
			err = s.ScheduleFault(sim.LinkFault{Cycle: f.Cycle, Link: f.Link, RepairCycle: f.Repair})
		case RouterKill:
			err = s.ScheduleRouterFault(f.Router, f.Cycle)
		default:
			err = fmt.Errorf("chaos: unknown fault kind %d", int(f.Kind))
		}
		if err != nil {
			return e.res, err
		}
	}
	if plan.CorruptionRate > 0 {
		for i := 0; i < 2; i++ {
			// Distinct per-fabric streams from one plan seed.
			if err := e.fabs[i].s.EnableCorruption(plan.CorruptionRate,
				plan.CorruptionSeed+uint64(i)); err != nil {
				return e.res, err
			}
		}
	}

	// All transfers start on the primary fabric (§1: X primary, Y standby).
	e.transfers = make([]transfer, len(specs))
	for i, spec := range specs {
		e.transfers[i] = transfer{src: spec.Src, dst: spec.Dst, flits: spec.Flits, attempts: 1}
		route, err := e.fabs[0].tb.Route(spec.Src, spec.Dst)
		if err != nil {
			return e.res, err
		}
		if err := e.fabs[0].s.AddPacket(spec, route); err != nil {
			return e.res, err
		}
		e.push(0, spec, i)
	}
	e.res.Transfers = len(specs)
	e.res.Issues = len(specs)
	e.fabs[0].s.Start()
	e.fabs[1].s.Start()

	// Lock-step co-simulation: step the laggard one cycle (ties go to X),
	// fold its fault observations into the detection flags, reconfigure
	// when detection demands it, and drag the idle fabric's clock along so
	// a later re-issue lands in its future.
	for {
		pick := -1
		for i, fs := range e.fabs {
			if fs.s.Running() && (pick < 0 || fs.s.Now() < e.fabs[pick].s.Now()) {
				pick = i
			}
		}
		if pick < 0 {
			break
		}
		fs := e.fabs[pick]
		fs.s.StepTo(fs.s.Now() + 1)
		fs.observeFaults()
		if cfg.Reconfigure && ((fs.newDamage && fs.dropSeen) || fs.repairSeen) {
			e.reconfigure(fs)
		}
		if other := e.fabs[1-pick]; !other.s.Running() {
			other.s.StepTo(fs.s.Now())
		}
	}
	if e.err != nil {
		return e.res, e.err
	}

	resX, resY := e.fabs[0].s.Finish(), e.fabs[1].s.Finish()
	e.res.XDeadlocked = resX.Deadlocked
	e.res.YDeadlocked = resY.Deadlocked
	e.res.Cycles = resX.Cycles
	if resY.Cycles > e.res.Cycles {
		e.res.Cycles = resY.Cycles
	}
	e.res.FlitMoves = resX.FlitMoves() + resY.FlitMoves()
	e.res.InOrderViolations = resX.InOrderViolations + resY.InOrderViolations
	for _, t := range e.transfers {
		if !t.resolved {
			e.res.Unresolved++
		}
	}
	if e.lastRecovered > 0 && e.res.FirstFaultCycle > 0 {
		e.res.RecoveryCycles = e.lastRecovered - e.res.FirstFaultCycle
	}
	e.dipStats()
	return e.res, nil
}

// dipStats derives the throughput-dip metrics from the per-window delivery
// counts: the pre-fault windows set the baseline rate, and the contiguous
// below-baseline stretch starting at the fault window gives the dip's
// width and worst depth.
func (e *engine) dipStats() {
	if e.res.FirstFaultCycle <= 0 {
		return
	}
	faultWin := e.res.FirstFaultCycle / dipWindow
	if faultWin == 0 || faultWin > len(e.windows) {
		return
	}
	pre := 0
	for _, n := range e.windows[:faultWin] {
		pre += n
	}
	baseline := float64(pre) / float64(faultWin*dipWindow)
	e.res.BaselineFPC = baseline
	if baseline == 0 {
		return
	}
	lastWin := e.lastDelivery / dipWindow
	worst := 0.0
	width := 0
	for w := faultWin; w <= lastWin && w < len(e.windows); w++ {
		rate := float64(e.windows[w]) / dipWindow
		if rate >= baseline {
			break
		}
		width++
		if short := (baseline - rate) / baseline; short > worst {
			worst = short
		}
	}
	e.res.DipDepthPct = int(worst * 100)
	e.res.DipWidthCycles = width * dipWindow
}
