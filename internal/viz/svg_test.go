package viz

import (
	"bytes"
	"crypto/sha256"
	"encoding/xml"
	"fmt"
	"strings"
	"testing"

	"repro/internal/topology"
)

// wellFormed checks the output parses as XML.
func wellFormed(t *testing.T, svg string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed: %v\n%s", err, svg[:min(len(svg), 400)])
		}
	}
}

func TestFractahedronSVG(t *testing.T) {
	f := topology.NewFractahedron(topology.Tetra(2, true))
	var buf bytes.Buffer
	if err := WriteFractahedronSVG(&buf, f); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	wellFormed(t, svg)
	if got := strings.Count(svg, "<rect"); got != f.NumRouters() {
		t.Errorf("rects = %d, want %d routers", got, f.NumRouters())
	}
	if got := strings.Count(svg, "<circle"); got != f.NumNodes() {
		t.Errorf("circles = %d, want %d nodes", got, f.NumNodes())
	}
	if got := strings.Count(svg, "<line"); got != f.NumLinks() {
		t.Errorf("lines = %d, want %d links", got, f.NumLinks())
	}
}

func TestFatTreeSVG(t *testing.T) {
	ft := topology.NewFatTree(4, 2, 16)
	var buf bytes.Buffer
	if err := WriteFatTreeSVG(&buf, ft); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.String())
	if got := strings.Count(buf.String(), "<rect"); got != ft.NumRouters() {
		t.Errorf("rects = %d, want %d", got, ft.NumRouters())
	}
}

// TestGenericSVG checks the BFS layout used for topologies without
// structural levels: every router of the cube-connected cycles draws once.
func TestGenericSVG(t *testing.T) {
	c := topology.NewCCC(3)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, c.Network, c.Routers[0][0]); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	wellFormed(t, svg)
	if got := strings.Count(svg, "<rect"); got != c.NumRouters() {
		t.Errorf("rects = %d, want %d routers", got, c.NumRouters())
	}
}

// TestSVGBytesPinned pins the rendered bytes of the Figure 7 fat
// fractahedron and of the Figure 1 ring, so a layout or styling change
// shows up as a deliberate edit here. The digests equal those of
// `fractagen -svg -spec fat-fract:levels=2` and `-spec ring:size=4`.
func TestSVGBytesPinned(t *testing.T) {
	ring := topology.NewRing(4, 1)
	for _, tc := range []struct {
		name   string
		render func(*bytes.Buffer) error
		want   string
	}{
		{"fat-fract:levels=2", func(b *bytes.Buffer) error {
			return WriteFractahedronSVG(b, topology.NewFractahedron(topology.Tetra(2, true)))
		}, "99b9c3eeb4fe5c65055aca25674a60891e134d7f3d34ff34629bf28390d9a7dd"},
		{"ring:size=4", func(b *bytes.Buffer) error {
			return WriteSVG(b, ring.Network, ring.Routers[0])
		}, "8c976def6d5b4043781a42ec95272bca8f7a7f51c93ca4aef3c4d3573d80d1fe"},
	} {
		var buf bytes.Buffer
		if err := tc.render(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
			t.Errorf("%s: sha256 = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestSVGEscapesNames(t *testing.T) {
	n := topology.New("a<b>&c")
	r0 := n.AddRouter("r<&>", 2)
	nd := n.AddNode("n<&>")
	n.ConnectNext(r0, nd)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, n, r0); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.String())
	if strings.Contains(buf.String(), "r<&>") {
		t.Error("unescaped device name in SVG")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFanoutFractahedronSVG(t *testing.T) {
	cfg := topology.Tetra(1, false)
	cfg.Fanout = true
	f := topology.NewFractahedron(cfg)
	var buf bytes.Buffer
	if err := WriteFractahedronSVG(&buf, f); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.String())
	if got := strings.Count(buf.String(), "<rect"); got != f.NumRouters() {
		t.Errorf("rects = %d, want %d (tetra + fan-outs)", got, f.NumRouters())
	}
}
