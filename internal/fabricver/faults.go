package fabricver

import (
	"fmt"

	"repro/internal/router"
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
	comps := survivingComponents(net, skipLink, skipDev)

	// Structural severance: ordered endpoint pairs that no longer share a
	// component. Every end node of the original fabric still exists (a
	// failed router keeps its nodes, isolated); pairs inside one component
	// must re-route, pairs across components are expected losses.
	total := net.NumNodes()
	severed = total * (total - 1)
	for _, c := range comps {
		severed -= len(c.nodes) * (len(c.nodes) - 1)
	}

	survived = true
	for _, c := range comps {
		if len(c.nodes) < 2 {
			continue // nothing to route inside a singleton
		}
		for _, v := range verifyComponent(net, c, skipLink, desc) {
			violations = append(violations, v)
			survived = false
		}
	}
	return survived, severed, violations
}

// component is one connected piece of the degraded fabric, devices in
// ascending original-ID order.
type component struct {
	devices []topology.DeviceID
	nodes   []topology.DeviceID
	routers []topology.DeviceID
}

// survivingComponents removes the faulted link or router and decomposes
// what remains into connected components, each listed in ascending
// original device order so downstream rebuilds are deterministic.
func survivingComponents(net *topology.Network, skipLink topology.LinkID, skipDev topology.DeviceID) []component {
	n := net.NumDevices()
	parentOf := make([]int, n)
	for i := range parentOf {
		parentOf[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parentOf[x] != x {
			parentOf[x] = parentOf[parentOf[x]]
			x = parentOf[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parentOf[rb] = ra
		}
	}
	for _, l := range net.Links() {
		if l.ID == skipLink || l.A.Device == skipDev || l.B.Device == skipDev {
			continue
		}
		union(int(l.A.Device), int(l.B.Device))
	}

	byRoot := make(map[int]*component)
	var order []int
	for _, d := range net.Devices() {
		if d.ID == skipDev {
			continue
		}
		r := find(int(d.ID))
		c := byRoot[r]
		if c == nil {
			c = &component{}
			byRoot[r] = c
			order = append(order, r)
		}
		c.devices = append(c.devices, d.ID)
		if d.Kind == topology.Node {
			c.nodes = append(c.nodes, d.ID)
		} else {
			c.routers = append(c.routers, d.ID)
		}
	}
	// Device iteration is ascending, so `order` (roots by first sighting)
	// and each component's member slices are already deterministic.
	comps := make([]component, 0, len(order))
	for _, r := range order {
		comps = append(comps, *byRoot[r])
	}
	return comps
}

// verifyComponent rebuilds one surviving component as a standalone
// network, routes it with up*/down* tables rooted at its lowest-numbered
// router, recomputes the path-disables, and re-proves reachability, the
// degraded hop bound and CDG acyclicity. Violations are rendered with the
// original device names, prefixed by the fault description.
func verifyComponent(net *topology.Network, c component, skipLink topology.LinkID, desc string) (out []string) {
	// The verifier's contract is "never panic, always produce a
	// certificate": a degradation odd enough to trip a builder panic
	// (possible with hand-written file: topologies) becomes a violation.
	defer func() {
		if r := recover(); r != nil {
			out = append(out, fmt.Sprintf("%s: degraded fabric cannot be re-routed: %v", desc, r))
		}
	}()
	if len(c.routers) == 0 {
		// Two or more nodes with no router cannot exist: nodes have a
		// single port each, so they can only interconnect through routers.
		return []string{fmt.Sprintf("%s: component with %d nodes has no router", desc, len(c.nodes))}
	}

	sub, newID := rebuild(net, c, skipLink)
	root := newID[c.routers[0]]
	tb := routing.UpDownGeneric(sub, root)

	sw := tb.Sweep()
	for _, f := range failureLines(sw) {
		out = append(out, fmt.Sprintf("%s: degraded fabric unreachable pair: %s", desc, f))
	}
	if len(sw.Failures) > maxDetail {
		out = append(out, fmt.Sprintf("%s: degraded fabric unreachable pairs:%s", desc, capNote(len(sw.Failures))))
	}
	// The degraded fabric is routed up*/down*, so its analytical bound is
	// 2*diameter+1 over the degraded router graph.
	g := newRouterGraph(sub)
	maxHops, _, _ := sw.MaxHops()
	if v := degradedHopViolation(desc, tb.Algorithm, g, g.index[root], maxHops); v != "" {
		out = append(out, v)
	}
	if cycle, cyclic := sw.CDG().ShortestCycle(); cyclic {
		lines := make([]string, len(cycle))
		for i, vtx := range cycle {
			lines[i] = vcChannelString(sub, vtx, tb.NumVC())
		}
		out = append(out, fmt.Sprintf("%s: degraded CDG has a cycle; minimal cycle (%d channels): %s",
			desc, len(cycle), joinCycle(lines)))
	}

	// Recompute the path-disables for the degraded fabric (§2.4: the
	// disable registers are reloaded to match the new tables). The swept
	// turns are exactly the new dependency structure; a mismatch here means
	// FromSweep and the sweep disagree on the fabric's turns.
	enabled, _ := router.FromSweep(sw, sub).Counts()
	if used := sw.NumTurns(); enabled != used {
		out = append(out, fmt.Sprintf("%s: recomputed disables enable %d turns but routes use %d", desc, enabled, used))
	}
	return out
}

// rebuild copies a component into a fresh Network. Devices keep their
// names, port counts and relative order (so node addresses are ascending
// in the original addresses), and links keep their port numbers; only the
// dense IDs change. The returned slice translates original device IDs
// (-1 for devices outside the component).
func rebuild(net *topology.Network, c component, skipLink topology.LinkID) (*topology.Network, []topology.DeviceID) {
	sub := topology.New(net.Name + " (degraded)")
	newID := make([]topology.DeviceID, net.NumDevices())
	for i := range newID {
		newID[i] = -1
	}
	for _, id := range c.devices {
		d := net.Device(id)
		if d.Kind == topology.Router {
			newID[id] = sub.AddRouter(d.Name, d.Ports)
		} else {
			newID[id] = sub.AddNode(d.Name)
		}
	}
	for _, l := range net.Links() {
		if l.ID == skipLink {
			continue // the faulted link stays down even if both ends survive
		}
		na, nb := newID[l.A.Device], newID[l.B.Device]
		if na < 0 || nb < 0 {
			continue
		}
		sub.Connect(na, l.A.Port, nb, l.B.Port)
	}
	return sub, newID
}
