package fabricver

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/topology"
)

// enumerateFaults re-proves the fabric under every single failure: each
// link in turn, then each router in turn (a router failure takes all its
// links with it). For every fault the degraded topology is decomposed into
// connected components; each surviving component with at least two end
// nodes is re-routed from scratch with generic up*/down* tables — the
// discipline that works on arbitrary topologies, hence on arbitrary
// degradations — its path-disables are recomputed via internal/router,
// and reachability, the hop bound, and CDG acyclicity are re-proved.
//
// Endpoints with no path in the degraded topology (the far side of a
// node's only link, the nodes of a failed router, a partitioned half of a
// U=1 tree) are structural losses no routing could avoid; they are counted
// in SeveredPairs, and the fault still "survives" if everything that
// remained connected re-routes deadlock-free.
//
// Faults are independent, so the enumeration fans out over a worker pool
// (runner.Map merges in fault order); the certificate is byte-identical
// for every worker count.
func enumerateFaults(net *topology.Network, workers int, violate func(check, format string, args ...any)) FaultCheck {
	nLinks := net.NumLinks()
	var routers []topology.DeviceID
	for _, d := range net.Devices() {
		if d.Kind == topology.Router {
			routers = append(routers, d.ID)
		}
	}

	type outcome struct {
		survived     bool
		severedPairs int
		violations   []string
	}

	faults := nLinks + len(routers)
	results, err := runner.Map(runner.Config{Workers: workers}, faults, func(i int) (outcome, error) {
		var o outcome
		var desc string
		var skipLink topology.LinkID = -1
		var skipDev topology.DeviceID = -1
		if i < nLinks {
			skipLink = topology.LinkID(i)
			l := net.Link(skipLink)
			desc = fmt.Sprintf("link %s[%d]--%s[%d] down",
				net.Device(l.A.Device).Name, l.A.Port, net.Device(l.B.Device).Name, l.B.Port)
		} else {
			skipDev = routers[i-nLinks]
			desc = fmt.Sprintf("router %s down", net.Device(skipDev).Name)
		}
		o.survived, o.severedPairs, o.violations = checkFault(net, skipLink, skipDev, desc)
		return o, nil
	})
	if err != nil {
		// Unreachable: the fault closure never returns an error.
		violate("faults", "fault enumeration failed: %v", err)
		return FaultCheck{}
	}

	fc := FaultCheck{OK: true}
	detail := 0
	for i, o := range results {
		class := &fc.LinkFaults
		if i >= nLinks {
			class = &fc.RouterFaults
		}
		class.Tried++
		class.SeveredPairs += o.severedPairs
		if o.survived {
			class.Survived++
		} else {
			fc.OK = false
			for _, v := range o.violations {
				if detail < maxDetail {
					violate("faults", "%s", v)
				}
				detail++
			}
		}
	}
	if detail > maxDetail {
		violate("faults", "fault violations:%s", capNote(detail))
	}
	return fc
}

// checkFault verifies one degraded fabric. It returns whether the fault is
// survived, the count of structurally severed ordered endpoint pairs, and
// the rendered violations (device names refer to the original fabric).
func checkFault(net *topology.Network, skipLink topology.LinkID, skipDev topology.DeviceID, desc string) (survived bool, severed int, violations []string) {
	// A failed router is the failure of all its links.
	dead := func(l topology.LinkID) bool {
		link := net.Link(l)
		return l == skipLink || link.A.Device == skipDev || link.B.Device == skipDev
	}
	comps := Components(net, dead)

	// Structural severance: ordered endpoint pairs that no longer share a
	// component. Pairs inside one component must re-route, pairs across
	// components (or touching a node cut off alone) are expected losses.
	total := net.NumNodes()
	severed = total * (total - 1)
	for _, c := range comps {
		severed -= len(c.Nodes) * (len(c.Nodes) - 1)
	}

	survived = true
	for _, c := range comps {
		if len(c.Nodes) < 2 {
			continue // nothing to route inside a singleton
		}
		for _, v := range verifyComponent(net, c, dead, desc) {
			violations = append(violations, v)
			survived = false
		}
	}
	return survived, severed, violations
}

// Component is one connected piece of a damaged fabric, devices in
// ascending device-ID order.
type Component struct {
	Devices []topology.DeviceID
	Nodes   []topology.DeviceID
	Routers []topology.DeviceID
}

// Components decomposes the fabric left when the links dead reports fail
// (a failed router is the failure of all its links) into connected
// components. Devices with no live link belong to none. Components come in
// order of their lowest device ID, so the rebuilds and roots derived from
// them are deterministic. It is the one component finder of every
// damaged-fabric path: the single-fault enumeration and the online
// reconfiguration (LiveTarget).
func Components(net *topology.Network, dead func(topology.LinkID) bool) []Component {
	// Label components breadth-first, in ascending order of their lowest
	// device; -1 is unlabelled, and a device whose search crosses no live
	// link stays isolated.
	label := make([]int, net.NumDevices())
	for i := range label {
		label[i] = -1
	}
	const isolated = -2
	n := 0
	var queue []topology.DeviceID
	for _, d := range net.Devices() {
		if label[d.ID] != -1 {
			continue
		}
		label[d.ID] = n
		queue = append(queue[:0], d.ID)
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			for p := 0; p < net.Device(u).Ports; p++ {
				l, ok := net.LinkAt(u, p)
				if !ok || dead(l) {
					continue
				}
				if v := net.OtherEnd(l, u).Device; label[v] == -1 {
					label[v] = n
					queue = append(queue, v)
				}
			}
		}
		if len(queue) == 1 {
			label[d.ID] = isolated
			continue
		}
		n++
	}
	comps := make([]Component, n)
	for _, d := range net.Devices() {
		if label[d.ID] == isolated {
			continue
		}
		c := &comps[label[d.ID]]
		c.Devices = append(c.Devices, d.ID)
		if d.Kind == topology.Node {
			c.Nodes = append(c.Nodes, d.ID)
		} else {
			c.Routers = append(c.Routers, d.ID)
		}
	}
	return comps
}

// verifyComponent rebuilds one surviving component as a standalone
// network, routes it with up*/down* tables rooted at its lowest-numbered
// router, and re-proves it with CertifyLive: reachability, CDG acyclicity
// and the recomputed path-disables, plus the degraded hop bound.
// Violations are rendered with the original device names, prefixed by the
// fault description.
func verifyComponent(net *topology.Network, c Component, dead func(topology.LinkID) bool, desc string) (out []string) {
	// The verifier's contract is "never panic, always produce a
	// certificate": a degradation odd enough to trip a builder panic
	// (possible with hand-written file: topologies) becomes a violation.
	defer func() {
		if r := recover(); r != nil {
			out = append(out, fmt.Sprintf("%s: degraded fabric cannot be re-routed: %v", desc, r))
		}
	}()
	if len(c.Routers) == 0 {
		// Two or more nodes with no router cannot exist: nodes have a
		// single port each, so they can only interconnect through routers.
		return []string{fmt.Sprintf("%s: component with %d nodes has no router", desc, len(c.Nodes))}
	}

	sub, newID := net.Induced(net.Name+" (degraded)", c.Devices, dead)
	root := newID[c.Routers[0]]
	tb := routing.UpDownGeneric(sub, root)

	lc, dis := CertifyLive(tb)
	for _, f := range lc.Failures {
		out = append(out, fmt.Sprintf("%s: degraded fabric unreachable pair: %s", desc, f))
	}
	if lc.Unreachable > maxDetail {
		out = append(out, fmt.Sprintf("%s: degraded fabric unreachable pairs:%s", desc, capNote(lc.Unreachable)))
	}
	// The degraded fabric is routed up*/down*, so its analytical bound is
	// 2*diameter+1 over the degraded router graph.
	g := newRouterGraph(sub)
	if v := degradedHopViolation(desc, tb.Algorithm, g, g.index[root], lc.MaxHops); v != "" {
		out = append(out, v)
	}
	if !lc.Acyclic {
		out = append(out, fmt.Sprintf("%s: degraded CDG has a cycle; minimal cycle (%d channels): %s",
			desc, len(lc.MinimalCycle), joinCycle(lc.MinimalCycle)))
	}

	// §2.4: the disable registers are reloaded to match the new tables.
	// CertifyLive derives them from the swept turns, so a mismatch here
	// means FromSweep and the sweep disagree on the fabric's turns.
	if enabled, _ := dis.Counts(); enabled != lc.UsedTurns {
		out = append(out, fmt.Sprintf("%s: recomputed disables enable %d turns but routes use %d", desc, enabled, lc.UsedTurns))
	}
	return out
}
