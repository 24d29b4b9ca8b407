// Package viz renders networks as SVG drawings: routers as rectangles, end
// nodes as circles, links as lines, laid out in layers. Fractahedrons and
// fat trees use their structural levels (the style of the paper's Figures
// 5-7, which draw the fractahedron "in the style of a fat tree"); any other
// topology is laid out by breadth-first distance from a root router.
package viz

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/topology"
)

// Device spacings in pixels: horizontal within a layer, vertical between
// layers.
const (
	cellW = 56
	cellH = 96
)

// layerFunc assigns each device a layer index (smaller = drawn higher).
type layerFunc func(topology.DeviceID) int

// WriteSVG renders the network with devices grouped into layers by BFS
// distance from the given root router (end nodes hang one layer below
// their router).
func WriteSVG(w io.Writer, net *topology.Network, root topology.DeviceID) error {
	levels := bfsLevels(net, root)
	maxLevel := 0
	for _, l := range levels {
		if l > maxLevel {
			maxLevel = l
		}
	}
	return render(w, net, func(d topology.DeviceID) int {
		dev := net.Device(d)
		if dev.Kind == topology.Node {
			return maxLevel + 1
		}
		return levels[d]
	})
}

// WriteFractahedronSVG renders a fractahedron with one row per recursion
// level: the top ensemble first, fan-out routers and end nodes at the
// bottom — the orientation of the paper's Figure 7.
func WriteFractahedronSVG(w io.Writer, f *topology.Fractahedron) error {
	top := f.Cfg.Levels + 1
	return render(w, f.Network, func(d topology.DeviceID) int {
		if f.Device(d).Kind == topology.Node {
			return top
		}
		m := f.Meta(d)
		return f.Cfg.Levels - m.Level // level N at row 0; fan-outs (level 0) above nodes
	})
}

// WriteFatTreeSVG renders a fat tree with the roots on top.
func WriteFatTreeSVG(w io.Writer, ft *topology.FatTree) error {
	return render(w, ft.Network, func(d topology.DeviceID) int {
		if ft.Device(d).Kind == topology.Node {
			return ft.Levels
		}
		return ft.Levels - ft.Meta(d).Level
	})
}

func render(w io.Writer, net *topology.Network, layer layerFunc) error {
	// Group devices by layer, order within a layer by ID (builders create
	// devices in structural order, so this keeps siblings adjacent).
	byLayer := make(map[int][]topology.DeviceID)
	minLayer, maxLayer := 0, 0
	for _, d := range net.Devices() {
		l := layer(d.ID)
		byLayer[l] = append(byLayer[l], d.ID)
		if l < minLayer {
			minLayer = l
		}
		if l > maxLayer {
			maxLayer = l
		}
	}
	widest := 0
	for _, ds := range byLayer {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		if len(ds) > widest {
			widest = len(ds)
		}
	}

	type point struct{ x, y int }
	pos := make(map[topology.DeviceID]point, net.NumDevices())
	width := widest*cellW + cellW
	height := (maxLayer-minLayer+1)*cellH + cellH
	for l := minLayer; l <= maxLayer; l++ {
		ds := byLayer[l]
		span := len(ds) * cellW
		x0 := (width - span) / 2
		for i, d := range ds {
			pos[d] = point{x0 + i*cellW + cellW/2, (l-minLayer)*cellH + cellH/2}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&sb, `<title>%s</title>`+"\n", xmlEscape(net.Name))
	// Links first so devices draw over them.
	for _, l := range net.Links() {
		a, b := pos[l.A.Device], pos[l.B.Device]
		fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999" stroke-width="1"/>`+"\n",
			a.x, a.y, b.x, b.y)
	}
	for _, d := range net.Devices() {
		p := pos[d.ID]
		if d.Kind == topology.Router {
			fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="28" height="18" fill="#e8eefc" stroke="#335"/>`+"\n",
				p.x-14, p.y-9)
			fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="7" text-anchor="middle">%s</text>`+"\n",
				p.x, p.y+2, xmlEscape(d.Name))
		} else {
			fmt.Fprintf(&sb, `<circle cx="%d" cy="%d" r="7" fill="#f6e8c8" stroke="#553"/>`+"\n", p.x, p.y)
			fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="6" text-anchor="middle">%s</text>`+"\n",
				p.x, p.y+2, xmlEscape(d.Name))
		}
	}
	sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

func bfsLevels(net *topology.Network, root topology.DeviceID) map[topology.DeviceID]int {
	if net.Device(root).Kind != topology.Router {
		panic(fmt.Sprintf("viz: root %d is not a router", root))
	}
	lvl := map[topology.DeviceID]int{root: 0}
	queue := []topology.DeviceID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for p := 0; p < net.Device(u).Ports; p++ {
			l, ok := net.LinkAt(u, p)
			if !ok {
				continue
			}
			v := net.OtherEnd(l, u).Device
			if net.Device(v).Kind != topology.Router {
				continue
			}
			if _, seen := lvl[v]; !seen {
				lvl[v] = lvl[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return lvl
}

func xmlEscape(s string) string {
	var sb strings.Builder
	_ = xml.EscapeText(&sb, []byte(s))
	return sb.String()
}
