// Package fabricver is the whole-fabric static verifier: it consumes a
// core.System (any built-in spec or a generated fractahedron) and proves,
// from the concrete routing tables rather than from an assumed channel
// order, the full set of properties the paper argues analytically:
//
//  1. Deadlock freedom — the channel dependency graph induced by the
//     tables is acyclic, with a minimal dependency cycle printed as the
//     counterexample when it is not.
//  2. Routing-table consistency — every (router, destination) entry is
//     live: in-range, wired, terminating at the destination without
//     revisiting a router, within the topology's analytical worst-case
//     hop bound.
//  3. Endpoint reachability — every ordered node pair routes end to end
//     (the paper's §3.0 CPU→disk database pattern, with every node in
//     both roles), again within the hop bound.
//  4. Path-disable enforcement — the System's disable registers enable
//     exactly the turns the swept dependencies use (§2.4's hardware
//     backstop matches the analysis).
//  5. Single-fault survivability — every single link failure and every
//     single router failure is enumerated; the degraded fabric is
//     re-routed with generic up*/down* tables, path-disables are
//     recomputed via internal/router, and connectivity plus CDG
//     acyclicity are re-proved for every surviving component. Endpoints
//     severed structurally (a node's only link or only router) are
//     accounted as expected losses, never as survivals.
//
// The outcome is a machine-readable Certificate (stable JSON; see
// MarshalCertificate) that cmd/fabricver emits per spec and CI archives.
// Verify never panics: corrupted tables — out-of-range ports, unwired
// ports, routing loops — become violations with concrete counterexamples,
// which is what lets the fuzz tests drive it with arbitrary mutations.
package fabricver

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// Options tunes a verification run.
type Options struct {
	// Workers sizes the fault-enumeration worker pool (<= 0 means
	// GOMAXPROCS). The certificate is byte-identical for every value.
	Workers int
	// SkipFaults skips the single-fault enumeration (structure, tables,
	// CDG, reachability and disables are still checked).
	SkipFaults bool
}

// Certificate is the machine-readable verification result for one system.
// Field order is the JSON schema; MarshalCertificate renders it
// byte-stably.
type Certificate struct {
	Spec      string `json:"spec"`
	Topology  string `json:"topology"`
	Algorithm string `json:"algorithm"`

	Nodes    int `json:"nodes"`
	Routers  int `json:"routers"`
	Links    int `json:"links"`
	Channels int `json:"channels"`

	// RouterDiameter is the diameter of the router-to-router graph;
	// HopBound is the analytical worst-case router-hop count derived from
	// it per HopBoundRule (see hopbound.go). Every table walk and every
	// end-to-end route must stay within HopBound.
	RouterDiameter int    `json:"router_diameter"`
	HopBound       int    `json:"hop_bound"`
	HopBoundRule   string `json:"hop_bound_rule"`

	Tables   TableCheck    `json:"tables"`
	CDG      CDGCheck      `json:"cdg"`
	Reach    ReachCheck    `json:"reachability"`
	Disables DisablesCheck `json:"disables"`
	Faults   *FaultCheck   `json:"faults,omitempty"`

	Violations []Violation `json:"violations,omitempty"`
	OK         bool        `json:"ok"`
}

// Violation is one failed check with a concrete counterexample.
type Violation struct {
	// Check names the failed property: "tables", "cdg", "reachability",
	// "disables" or "faults".
	Check string `json:"check"`
	// Detail is the counterexample, rendered with device and port names.
	Detail string `json:"detail"`
}

// TableCheck reports the routing-table consistency walk: every
// (router, destination) entry of every table, walked to termination.
type TableCheck struct {
	Routers int  `json:"routers"`
	Entries int  `json:"entries"`
	Dead    int  `json:"dead_entries"`    // out-of-range, unwired, or mis-terminating
	Loops   int  `json:"looping_entries"` // walk revisits a router or never terminates
	MaxWalk int  `json:"max_walk_hops"`   // router hops over all entry walks
	OK      bool `json:"ok"`
}

// CDGCheck reports the channel-dependency-graph analysis built from the
// concrete tables (vertices are (channel, VC) pairs; single-VC routings
// have one vertex per channel).
type CDGCheck struct {
	Vertices        int      `json:"vertices"`
	Deps            int      `json:"dependencies"`
	Acyclic         bool     `json:"acyclic"`
	CertificateSize int      `json:"certificate_size"` // vertices an acyclic verdict covers; 0 when cyclic
	MinimalCycle    []string `json:"minimal_cycle,omitempty"`
}

// ReachCheck reports end-to-end endpoint reachability over every ordered
// node pair — the static form of §3.0's database pattern ("an arbitrary
// set of CPU nodes trying to communicate with an arbitrary set of disk
// controller nodes"): with every node eligible for either role, the
// pattern requires exactly all-pairs reachability.
type ReachCheck struct {
	Pattern     string `json:"pattern"` // "cpu-disk-all-pairs"
	Pairs       int    `json:"pairs"`
	Unreachable int    `json:"unreachable"`
	MaxHops     int    `json:"max_hops"`
	WorstPair   string `json:"worst_pair,omitempty"` // witness for MaxHops
	OK          bool   `json:"ok"`
}

// DisablesCheck reports whether the System's path-disable registers enable
// exactly the turns the swept routes depend on — §2.4's guarantee that the
// hardware enforces the analyzed dependency structure.
type DisablesCheck struct {
	UsedTurns    int  `json:"used_turns"`
	EnabledTurns int  `json:"enabled_turns"`
	OK           bool `json:"ok"`
}

// FaultCheck aggregates the single-fault enumeration.
type FaultCheck struct {
	LinkFaults   FaultClass `json:"link_faults"`
	RouterFaults FaultClass `json:"router_faults"`
	OK           bool       `json:"ok"`
}

// FaultClass summarizes one class of faults (all single links, or all
// single routers). A fault survives when every surviving component with at
// least two end nodes re-routes fully (all pairs reachable, CDG acyclic,
// hops within the degraded up*/down* bound, disables recomputed).
// SeveredPairs counts ordered endpoint pairs whose loss is structural — no
// path exists in the degraded topology, so no routing could save them;
// they are expected losses, not violations.
type FaultClass struct {
	Tried        int `json:"tried"`
	Survived     int `json:"survived"`
	SeveredPairs int `json:"severed_pairs"`
}

// maxDetail caps the rendered counterexamples per check; totals are always
// exact, and every capped list ends with an "... and N more" marker so the
// truncation is visible in the certificate.
const maxDetail = 8

// Verify runs every static check against the system and returns the
// certificate. It never panics; all failures, including structurally
// corrupted tables, are reported as violations.
func Verify(sys *core.System, spec string, opt Options) Certificate {
	net := sys.Net
	cert := Certificate{
		Spec:      spec,
		Topology:  net.Name,
		Algorithm: sys.Tables.Algorithm,
		Nodes:     net.NumNodes(),
		Routers:   net.NumRouters(),
		Links:     net.NumLinks(),
		Channels:  net.NumChannels(),
	}
	cert.RouterDiameter = newRouterGraph(net).diameter()
	cert.HopBound, cert.HopBoundRule = hopBound(sys.Tables.Algorithm, cert.RouterDiameter)

	violate := func(check, format string, args ...any) {
		cert.Violations = append(cert.Violations, Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
	}

	// 1. Table consistency. Runs first because the later sweeps walk the
	// tables and rely on every entry being in-range and terminating.
	cert.Tables = checkTables(sys.Tables, cert.HopBound, violate)
	if !cert.Tables.OK {
		cert.OK = false
		return cert
	}

	// 2. One all-pairs sweep collects the dependency edges, used turns,
	// reachability and worst hops together.
	sw := sys.Tables.Sweep()
	cert.Reach = reachCheck(sw, net, cert.HopBound, violate)
	cert.CDG = cdgCheck(sw, violate)
	cert.Disables = disablesCheck(sw, sys, violate)

	// 3. Single-fault enumeration over every link and every router.
	if !opt.SkipFaults {
		fc := enumerateFaults(net, opt.Workers, violate)
		cert.Faults = &fc
	}

	cert.OK = len(cert.Violations) == 0
	return cert
}

// VerifySpec parses a topology spec (core.ParseSystem grammar) and
// verifies it.
func VerifySpec(spec string, opt Options) (Certificate, error) {
	sys, _, err := core.ParseSystem(spec)
	if err != nil {
		return Certificate{}, err
	}
	return Verify(sys, spec, opt), nil
}

// Render writes the human-readable form of the certificate.
func (c Certificate) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s on %s\n", c.Spec, c.Algorithm, c.Topology)
	fmt.Fprintf(w, "  structure      %d nodes, %d routers, %d links, %d channels; router diameter %d\n",
		c.Nodes, c.Routers, c.Links, c.Channels, c.RouterDiameter)
	fmt.Fprintf(w, "  hop bound      %d (%s)\n", c.HopBound, c.HopBoundRule)
	fmt.Fprintf(w, "  tables         %s: %d entries across %d routers, max walk %d hops (%d dead, %d looping)\n",
		okStr(c.Tables.OK), c.Tables.Entries, c.Tables.Routers, c.Tables.MaxWalk, c.Tables.Dead, c.Tables.Loops)
	if c.Tables.OK {
		fmt.Fprintf(w, "  cdg            %s: %d vertices, %d dependencies, certificate size %d\n",
			okStr(c.CDG.Acyclic), c.CDG.Vertices, c.CDG.Deps, c.CDG.CertificateSize)
		for _, line := range c.CDG.MinimalCycle {
			fmt.Fprintf(w, "                   cycle: %s\n", line)
		}
		fmt.Fprintf(w, "  reachability   %s: %d pairs (%s), %d unreachable, max hops %d",
			okStr(c.Reach.OK), c.Reach.Pairs, c.Reach.Pattern, c.Reach.Unreachable, c.Reach.MaxHops)
		if c.Reach.WorstPair != "" {
			fmt.Fprintf(w, " (%s)", c.Reach.WorstPair)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  disables       %s: %d used turns, %d enabled\n",
			okStr(c.Disables.OK), c.Disables.UsedTurns, c.Disables.EnabledTurns)
		if c.Faults != nil {
			fmt.Fprintf(w, "  faults         %s: links %d/%d survived (%d pairs severed structurally), routers %d/%d survived (%d severed)\n",
				okStr(c.Faults.OK),
				c.Faults.LinkFaults.Survived, c.Faults.LinkFaults.Tried, c.Faults.LinkFaults.SeveredPairs,
				c.Faults.RouterFaults.Survived, c.Faults.RouterFaults.Tried, c.Faults.RouterFaults.SeveredPairs)
		}
	}
	if len(c.Violations) > 0 {
		fmt.Fprintf(w, "  VIOLATIONS (%d):\n", len(c.Violations))
		for _, v := range c.Violations {
			fmt.Fprintf(w, "    [%s] %s\n", v.Check, v.Detail)
		}
	}
}

// Summary is the one-line form used by cmd/fabricver -all.
func (c Certificate) Summary() string {
	status := "CERTIFIED"
	if !c.OK {
		status = fmt.Sprintf("FAILED (%d violations)", len(c.Violations))
	}
	var faults string
	if c.Faults != nil {
		faults = fmt.Sprintf(" faults=%d/%d",
			c.Faults.LinkFaults.Survived+c.Faults.RouterFaults.Survived,
			c.Faults.LinkFaults.Tried+c.Faults.RouterFaults.Tried)
	}
	return fmt.Sprintf("%-34s %-22s deps=%-5d maxhops=%d/%d%s %s",
		c.Spec, c.Algorithm, c.CDG.Deps, c.Reach.MaxHops, c.HopBound, faults, status)
}

func okStr(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

// capNote appends the standard truncation marker when a detail list was
// capped at maxDetail entries.
func capNote(total int) string {
	if total <= maxDetail {
		return ""
	}
	return fmt.Sprintf(" ... and %d more", total-maxDetail)
}
