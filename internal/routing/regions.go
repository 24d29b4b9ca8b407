package routing

// Region-table accounting. ServerNet routers route "by looking up entries
// in the routing table inside each router" (§2.3), and real tables hold
// address REGIONS — contiguous destination ranges sharing an output port —
// rather than one entry per node. §2.1 argues the tetrahedral group is
// attractive because it "routes packets based on exactly two bits of the
// destination node identifier", which "prevents sparse usage of the node
// address space and simplifies the routing algorithm": in region terms, a
// fractahedron router needs only a handful of entries however large the
// machine, while topologies whose output port varies irregularly with the
// address need many.

// RegionStats summarizes region-table sizes across all routers.
type RegionStats struct {
	Min, Max int
	Mean     float64
	Total    int
	Routers  int
}

// RegionSizes computes the region-count distribution over every router:
// the number of contiguous destination-address ranges with a constant
// output port, as CompileImage compresses each router's table.
func (t *Tables) RegionSizes() RegionStats {
	var st RegionStats
	st.Min = -1
	for _, ri := range CompileImage(t).Routers {
		r := len(ri.Regions)
		st.Total += r
		st.Routers++
		if st.Min < 0 || r < st.Min {
			st.Min = r
		}
		if r > st.Max {
			st.Max = r
		}
	}
	if st.Routers > 0 {
		st.Mean = float64(st.Total) / float64(st.Routers)
	}
	return st
}
