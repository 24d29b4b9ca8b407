package topology

import "fmt"

// FatTree is a D-U fat tree (§3.3 of the paper): routers with D+U ports
// spend D ports toward the leaves and U toward the root. The structure is
// recursive: a height-1 subtree is a single leaf router with D nodes; a
// height-l subtree is D height-(l-1) subtrees joined by U^(l-1) new routers,
// with exposed link j of subtree i wired to new router j's down port i.
//
// A 4-2 fat tree over 64 nodes therefore has 16+8+4 = 28 routers (Figure 6);
// a 3-3 fat tree over 64 nodes, trimmed to occupied subtrees, has exactly
// the 100 routers §3.4 quotes. U = 1 degenerates to the simple tree of §2.
//
// Port layout per router: ports 0..D-1 down, ports D..D+U-1 up.
//
// Identification: the T(l) instance with index t covers node addresses
// [t*D^l, (t+1)*D^l); its level-l routers are (l, t, j) for j in [0, U^(l-1)).
// Instances (and their routers) are built only when their node range is
// occupied.
type FatTree struct {
	*Network
	D, U   int
	Levels int
	NNodes int

	routers map[ftKey]DeviceID
	meta    map[DeviceID]FTRouter
}

type ftKey struct{ level, inst, j int }

// FTRouter is the structural position of a fat-tree router.
type FTRouter struct {
	Level int // 1 = leaf level
	Inst  int // T(Level) instance index
	J     int // router index within the instance's level, in [0, U^(Level-1))
}

// NewFatTree builds a D-U fat tree over nodes end nodes, with the minimum
// height whose capacity D^L covers them. With D = 1 no height covers more
// than one node.
func NewFatTree(d, u, nodes int) *FatTree {
	if d < 1 || u < 1 || nodes < 1 || d == 1 && nodes > 1 {
		panic(fmt.Sprintf("topology: bad fat tree d=%d u=%d nodes=%d", d, u, nodes))
	}
	levels := 1
	for cap := d; cap < nodes; cap *= d {
		levels++
	}
	return NewFatTreeLevels(d, u, levels, nodes)
}

// NewFatTreeLevels builds a D-U fat tree with an explicit height.
func NewFatTreeLevels(d, u, levels, nodes int) *FatTree {
	if pow(d, levels) < nodes {
		panic(fmt.Sprintf("topology: %d levels of %d-%d fat tree hold only %d nodes, need %d",
			levels, d, u, pow(d, levels), nodes))
	}
	ft := &FatTree{
		Network: New(fmt.Sprintf("fattree-%d-%d-n%d", d, u, nodes)),
		D:       d,
		U:       u,
		Levels:  levels,
		NNodes:  nodes,
		routers: make(map[ftKey]DeviceID),
		meta:    make(map[DeviceID]FTRouter),
	}
	// Routers level by level, instantiating only occupied instances.
	for l := 1; l <= levels; l++ {
		capacity := pow(d, l)
		insts := (nodes + capacity - 1) / capacity
		perInst := pow(u, l-1)
		for t := 0; t < insts; t++ {
			for j := 0; j < perInst; j++ {
				r := ft.AddRouter(fmt.Sprintf("L%d.%d.%d", l, t, j), d+u)
				ft.routers[ftKey{l, t, j}] = r
				ft.meta[r] = FTRouter{Level: l, Inst: t, J: j}
			}
		}
	}
	// Nodes, attached to leaves. Node address n is port n%D of leaf n/D.
	for n := 0; n < nodes; n++ {
		nd := ft.AddNode(fmt.Sprintf("N%d", n))
		ft.Connect(ft.routers[ftKey{1, n / d, 0}], n%d, nd, 0)
	}
	// Up links: router (l, t, j), up port v, connects to parent
	// (l+1, t/D, j*U+v) down port t%D.
	for l := 1; l < levels; l++ {
		capacity := pow(d, l)
		insts := (nodes + capacity - 1) / capacity
		perInst := pow(u, l-1)
		for t := 0; t < insts; t++ {
			for j := 0; j < perInst; j++ {
				for v := 0; v < u; v++ {
					child := ft.routers[ftKey{l, t, j}]
					parent := ft.routers[ftKey{l + 1, t / d, j*u + v}]
					ft.Connect(child, d+v, parent, t%d)
				}
			}
		}
	}
	// Structural cut: lower half of node addresses vs upper half.
	if nodes%2 == 0 {
		side := make([]bool, ft.NumDevices())
		for _, nd := range ft.Nodes() {
			side[nd] = ft.NodeIndex(nd) >= nodes/2
		}
		ft.AddSeedCut(side)
	}
	ft.MustValidate()
	return ft
}

// Meta returns the structural position of a fat-tree router.
func (ft *FatTree) Meta(r DeviceID) FTRouter {
	m, ok := ft.meta[r]
	if !ok {
		panic(fmt.Sprintf("topology: device %d is not a fat-tree router", r))
	}
	return m
}

// RouterAt returns the router at structural position (level, inst, j).
func (ft *FatTree) RouterAt(level, inst, j int) DeviceID {
	r, ok := ft.routers[ftKey{level, inst, j}]
	if !ok {
		panic(fmt.Sprintf("topology: no fat-tree router at L%d.%d.%d", level, inst, j))
	}
	return r
}

// Leaf returns the leaf router serving node address n.
func (ft *FatTree) Leaf(n int) DeviceID { return ft.RouterAt(1, n/ft.D, 0) }

// CommonLevel returns the lowest level l such that node addresses a and b
// fall in the same T(l) instance (1 if they share a leaf).
func (ft *FatTree) CommonLevel(a, b int) int {
	capacity := ft.D
	for l := 1; l <= ft.Levels; l++ {
		if a/capacity == b/capacity {
			return l
		}
		capacity *= ft.D
	}
	panic(fmt.Sprintf("topology: nodes %d and %d share no subtree", a, b))
}

// InstAt returns the T(level) instance index containing node address n.
func (ft *FatTree) InstAt(n, level int) int { return n / pow(ft.D, level) }

// RouterCountAtLevel reports the number of routers instantiated at a level.
func (ft *FatTree) RouterCountAtLevel(l int) int {
	cnt := 0
	for k := range ft.routers {
		if k.level == l {
			cnt++
		}
	}
	return cnt
}

func pow(b, e int) int {
	p := 1
	for i := 0; i < e; i++ {
		p *= b
	}
	return p
}
