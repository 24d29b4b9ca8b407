package core

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/routing"
	"repro/internal/topology"
)

// ParseSystem builds a System from a compact textual specification, the
// grammar shared by the command-line tools:
//
//	fat-fract:levels=2[,fanout][,fanout-depth=2][,group=4][,down=2][,populate=40]
//	thin-fract:levels=3[,fanout][,group=4][,down=2]
//	fattree:d=4,u=2,nodes=64
//	tree:d=4,nodes=16               (a U=1 fat tree)
//	mesh:cols=6,rows=6,nodes=2
//	hypercube:dim=3[,updown]
//	ring:size=4[,unsafe]
//	fullmesh:m=4[,ports=6]
//	ccc:dim=3                       (cube-connected cycles, up*/down* tables)
//	shuffle:dim=4                   (shuffle-exchange, up*/down* tables)
//	file:PATH                       (custom topology file, up*/down* tables;
//	                                 see topology.Parse for the format)
//
// Unknown keys are rejected before anything is built. The returned
// description names the built network for display. The builders panic on
// out-of-range parameters; ParseSystem returns those panics as errors,
// because a spec arrives from a flag or an HTTP request and a bad one is
// a rejected input, not a crash.
func ParseSystem(spec string) (sys *System, desc string, err error) {
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprint(r)
			if !strings.HasPrefix(msg, "topology") && !strings.HasPrefix(msg, "routing:") {
				panic(r)
			}
			sys, desc, err = nil, "", fmt.Errorf("core: spec %q: %s", spec, msg)
		}
	}()
	if path, ok := strings.CutPrefix(spec, "file:"); ok {
		return loadSystemFile(path)
	}
	build, _, err := parseSpec(spec)
	if err != nil {
		return nil, "", err
	}
	if sys, err = build(); err != nil {
		return nil, "", err
	}
	return sys, sys.Net.Name, nil
}

// SpecDevices reports how many devices, routers and end nodes, a built-in
// spec builds, from its arguments alone: nothing is built, so a caller
// taking specs from outside can refuse an oversized one before paying for
// a build whose time grows faster than its size. A fractahedron is counted
// fully populated, so populate= makes the count an upper bound. The count
// saturates instead of wrapping on absurd arguments. An unknown kind or
// key fails as in ParseSystem; a file: spec has no size before it is read
// and fails too.
func SpecDevices(spec string) (int, error) {
	if strings.HasPrefix(spec, "file:") {
		return 0, fmt.Errorf("core: spec %q: a file: spec has no size before it is read", spec)
	}
	_, devices, err := parseSpec(spec)
	if !(devices <= math.MaxInt32) { // also NaN, from arguments no builder accepts
		return math.MaxInt32, err
	}
	return int(devices), err
}

// parseSpec takes a built-in spec's arguments and returns its builder and
// the number of devices it builds (see SpecDevices).
func parseSpec(spec string) (build func() (*System, error), devices float64, err error) {
	kind, opts, err := splitSpec(spec)
	if err != nil {
		return nil, 0, err
	}
	get := func(key string, def int) int {
		if v, ok := opts[key]; ok {
			delete(opts, key)
			return v
		}
		return def
	}
	flag := func(key string) bool {
		if _, ok := opts[key]; ok {
			delete(opts, key)
			return true
		}
		return false
	}
	pow := func(base, exp int) float64 { return math.Pow(float64(base), float64(exp)) }
	// Every kind takes its arguments first, so an unknown key is refused
	// before anything is built.
	switch kind {
	case "fat-fract", "thin-fract":
		cfg := topology.FractConfig{
			Group:       get("group", 4),
			Down:        get("down", 2),
			Levels:      get("levels", 2),
			Fat:         kind == "fat-fract",
			Fanout:      flag("fanout"),
			FanoutDepth: get("fanout-depth", 0),
			Populate:    get("populate", 0),
		}
		if cfg.FanoutDepth > 0 {
			cfg.Fanout = true
		}
		build = func() (*System, error) { return first(NewFractahedron(cfg)) }
		// Each level-l ensemble has Layers(l) layers of Group routers.
		addrs := pow(cfg.Children(), cfg.Levels)
		for level := 1; level <= min(cfg.Levels, 64); level++ {
			layers := 1.0
			if cfg.Fat && level > 1 {
				layers = pow(cfg.Group, level-1)
			}
			devices += pow(cfg.Children(), cfg.Levels-level) * layers * float64(cfg.Group)
		}
		if cfg.Fanout {
			// A k-ary fan-out tree per address: k^depth nodes under
			// (k^depth - 1) / (k - 1) routers.
			k := float64(cfg.FanoutNodesOrDefault())
			leaves := math.Pow(k, float64(cfg.FanoutDepthOrDefault()))
			devices += addrs * (leaves + (leaves-1)/(k-1))
		} else {
			devices += addrs
		}
	case "fattree", "tree":
		d, u, nodes := get("d", 4), 1, 16
		if kind == "fattree" {
			u, nodes = get("u", 2), 64
		}
		nodes = get("nodes", nodes)
		build = func() (*System, error) { return first(NewFatTree(d, u, nodes)) }
		// Level l holds ceil(nodes / d^l) instances of u^(l-1) routers,
		// up to the level whose d^l covers every node.
		devices = float64(nodes)
		for l := 1; d >= 1 && (l == 1 || d >= 2 && pow(d, l-1) < float64(nodes)); l++ {
			devices += math.Ceil(float64(nodes)/pow(d, l)) * pow(u, l-1)
		}
	case "mesh":
		cols, rows, nodes := get("cols", 4), get("rows", 4), get("nodes", 2)
		build = func() (*System, error) { return first(NewMesh(cols, rows, nodes)) }
		devices = float64(cols) * float64(rows) * float64(1+nodes)
	case "hypercube":
		dim, nodes, updown := get("dim", 3), get("nodes", 1), flag("updown")
		build = func() (*System, error) { return first(NewHypercube(dim, nodes, updown)) }
		devices = pow(2, dim) * float64(1+nodes)
	case "ring":
		size, nodes, safe := get("size", 4), get("nodes", 1), !flag("unsafe")
		build = func() (*System, error) { return first(NewRing(size, nodes, safe)) }
		devices = float64(size) * float64(1+nodes)
	case "fullmesh":
		m, ports := get("m", 4), get("ports", 6)
		build = func() (*System, error) { return first(NewFullMesh(m, ports)) }
		devices = float64(m) * float64(1+ports-m+1)
	case "ccc":
		dim := get("dim", 3)
		build = func() (*System, error) { return first(NewCCC(dim)) }
		devices = 2 * float64(dim) * pow(2, dim) // one node per router
	case "shuffle":
		dim := get("dim", 4)
		build = func() (*System, error) { return first(NewShuffleExchange(dim)) }
		devices = 2 * pow(2, dim) // one node per router
	default:
		return nil, 0, fmt.Errorf("core: unknown topology kind %q (spec %q)", kind, spec)
	}
	if len(opts) > 0 {
		// Report the alphabetically first unknown key so the error message
		// does not depend on map iteration order.
		var keys []string
		for k := range opts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return nil, 0, fmt.Errorf("core: unknown option %q in spec %q", keys[0], spec)
	}
	return build, devices, nil
}

// first drops a builder's concrete topology.
func first[T any](sys *System, _ T, err error) (*System, error) { return sys, err }

// loadSystemFile builds a System from a topology description file, routed
// with generic up*/down* tables rooted at the first router.
func loadSystemFile(path string) (*System, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	net, err := topology.Parse(f, path)
	if err != nil {
		return nil, "", err
	}
	var root topology.DeviceID = -1
	for _, d := range net.Devices() {
		if d.Kind == topology.Router {
			root = d.ID
			break
		}
	}
	if root < 0 {
		return nil, "", fmt.Errorf("core: %s has no routers", path)
	}
	sys, err := newSystem(net, routing.UpDownGeneric(net, root))
	if err != nil {
		return nil, "", err
	}
	return sys, net.Name, nil
}

func splitSpec(spec string) (kind string, opts map[string]int, err error) {
	opts = make(map[string]int)
	kind, rest, found := strings.Cut(spec, ":")
	kind = strings.TrimSpace(kind)
	if kind == "" {
		return "", nil, fmt.Errorf("core: empty topology spec")
	}
	if !found {
		return kind, opts, nil
	}
	for _, part := range strings.Split(rest, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, hasVal := strings.Cut(part, "=")
		if !hasVal {
			opts[key] = 1 // boolean flag
			continue
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return "", nil, fmt.Errorf("core: option %q: %v", part, err)
		}
		opts[key] = n
	}
	return kind, opts, nil
}
