package core

import (
	"fmt"
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
	kind, opts, err := splitSpec(spec)
	if err != nil {
		return nil, "", err
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
	// Every kind takes its arguments first, so an unknown key is refused
	// before anything is built.
	var build func() (*System, error)
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
	case "fattree":
		d, u, nodes := get("d", 4), get("u", 2), get("nodes", 64)
		build = func() (*System, error) { return first(NewFatTree(d, u, nodes)) }
	case "tree":
		d, nodes := get("d", 4), get("nodes", 16)
		build = func() (*System, error) { return first(NewFatTree(d, 1, nodes)) }
	case "mesh":
		cols, rows, nodes := get("cols", 4), get("rows", 4), get("nodes", 2)
		build = func() (*System, error) { return first(NewMesh(cols, rows, nodes)) }
	case "hypercube":
		dim, nodes, updown := get("dim", 3), get("nodes", 1), flag("updown")
		build = func() (*System, error) { return first(NewHypercube(dim, nodes, updown)) }
	case "ring":
		size, nodes, safe := get("size", 4), get("nodes", 1), !flag("unsafe")
		build = func() (*System, error) { return first(NewRing(size, nodes, safe)) }
	case "fullmesh":
		m, ports := get("m", 4), get("ports", 6)
		build = func() (*System, error) { return first(NewFullMesh(m, ports)) }
	case "ccc":
		dim := get("dim", 3)
		build = func() (*System, error) { return first(NewCCC(dim)) }
	case "shuffle":
		dim := get("dim", 4)
		build = func() (*System, error) { return first(NewShuffleExchange(dim)) }
	default:
		return nil, "", fmt.Errorf("core: unknown topology kind %q (spec %q)", kind, spec)
	}
	if len(opts) > 0 {
		// Report the alphabetically first unknown key so the error message
		// does not depend on map iteration order.
		var keys []string
		for k := range opts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return nil, "", fmt.Errorf("core: unknown option %q in spec %q", keys[0], spec)
	}
	if sys, err = build(); err != nil {
		return nil, "", err
	}
	return sys, sys.Net.Name, nil
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
