package routing

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/topology"
)

// TableImage is a compiled, loadable form of a network's routing tables:
// per router, a sorted list of destination-address regions each mapping to
// one output port — the representation a table-driven router like
// ServerNet's actually stores (§2.3: "these matches are actually done by
// looking up entries in the routing table inside each router"). Images
// serialize to a compact deterministic binary form, round-trip losslessly,
// and answer lookups by binary search.
type TableImage struct {
	Algorithm string
	Nodes     int
	Routers   []RouterImage
}

// RouterImage is one router's compiled region table.
type RouterImage struct {
	Device  topology.DeviceID
	Regions []Region
}

// Region maps destination addresses in [Lo, Hi] to an output port.
type Region struct {
	Lo, Hi int
	Port   int
}

// CompileImage compresses the tables into region form.
func CompileImage(t *Tables) *TableImage {
	img := &TableImage{Algorithm: t.Algorithm, Nodes: t.Net.NumNodes()}
	nr := len(t.routers)
	for r, dev := range t.routers {
		ri := RouterImage{Device: dev}
		for lo := 0; lo < t.nodes; {
			port, hi := t.port(lo*nr+r), lo
			for hi+1 < t.nodes && t.port((hi+1)*nr+r) == port {
				hi++
			}
			ri.Regions = append(ri.Regions, Region{Lo: lo, Hi: hi, Port: port})
			lo = hi + 1
		}
		img.Routers = append(img.Routers, ri)
	}
	return img
}

// Lookup returns the output port for a destination at a router, or -1 if
// the router or destination is unknown.
func (img *TableImage) Lookup(dev topology.DeviceID, dst int) int {
	i := sort.Search(len(img.Routers), func(i int) bool { return img.Routers[i].Device >= dev })
	if i == len(img.Routers) || img.Routers[i].Device != dev {
		return -1
	}
	regions := img.Routers[i].Regions
	j := sort.Search(len(regions), func(j int) bool { return regions[j].Hi >= dst })
	if j == len(regions) || dst < regions[j].Lo {
		return -1
	}
	return regions[j].Port
}

// Entries reports the total region count across all routers — the table
// storage the hardware must provide.
func (img *TableImage) Entries() int {
	n := 0
	for _, r := range img.Routers {
		n += len(r.Regions)
	}
	return n
}

const imageMagic = "SNRT1\n"

// WriteTo serializes the image in a compact deterministic binary format:
// magic, algorithm, node count, then per router its device ID and regions
// as varints.
func (img *TableImage) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	write := func(p []byte) error {
		m, err := bw.Write(p)
		n += int64(m)
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		return write(buf[:binary.PutUvarint(buf[:], v)])
	}
	if err := write([]byte(imageMagic)); err != nil {
		return n, err
	}
	if err := writeUvarint(uint64(len(img.Algorithm))); err != nil {
		return n, err
	}
	if err := write([]byte(img.Algorithm)); err != nil {
		return n, err
	}
	if err := writeUvarint(uint64(img.Nodes)); err != nil {
		return n, err
	}
	if err := writeUvarint(uint64(len(img.Routers))); err != nil {
		return n, err
	}
	for _, r := range img.Routers {
		if err := writeUvarint(uint64(r.Device)); err != nil {
			return n, err
		}
		if err := writeUvarint(uint64(len(r.Regions))); err != nil {
			return n, err
		}
		for _, reg := range r.Regions {
			if err := writeUvarint(uint64(reg.Lo)); err != nil {
				return n, err
			}
			if err := writeUvarint(uint64(reg.Hi - reg.Lo)); err != nil {
				return n, err
			}
			if err := writeUvarint(uint64(reg.Port)); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// ReadImage parses a serialized table image.
func ReadImage(r io.Reader) (*TableImage, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(imageMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("routing: image magic: %w", err)
	}
	if string(magic) != imageMagic {
		return nil, fmt.Errorf("routing: bad image magic %q", magic)
	}
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	algLen, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if algLen > 1<<16 {
		return nil, fmt.Errorf("routing: absurd algorithm length %d", algLen)
	}
	alg := make([]byte, algLen)
	if _, err := io.ReadFull(br, alg); err != nil {
		return nil, err
	}
	nodes, err := readUvarint()
	if err != nil {
		return nil, err
	}
	nr, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if nr > 1<<24 {
		return nil, fmt.Errorf("routing: absurd router count %d", nr)
	}
	img := &TableImage{Algorithm: string(alg), Nodes: int(nodes)}
	for i := uint64(0); i < nr; i++ {
		dev, err := readUvarint()
		if err != nil {
			return nil, err
		}
		cnt, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if cnt > 1<<24 {
			return nil, fmt.Errorf("routing: absurd region count %d", cnt)
		}
		ri := RouterImage{Device: topology.DeviceID(dev)}
		for j := uint64(0); j < cnt; j++ {
			lo, err := readUvarint()
			if err != nil {
				return nil, err
			}
			span, err := readUvarint()
			if err != nil {
				return nil, err
			}
			port, err := readUvarint()
			if err != nil {
				return nil, err
			}
			ri.Regions = append(ri.Regions, Region{Lo: int(lo), Hi: int(lo + span), Port: int(port)})
		}
		img.Routers = append(img.Routers, ri)
	}
	return img, nil
}

// VerifyImage checks that the image answers every (router, destination)
// lookup exactly as the live tables do — the load-time integrity check a
// ServerNet service processor would run before enabling a fabric.
func VerifyImage(img *TableImage, t *Tables) error {
	if img.Nodes != t.Net.NumNodes() {
		return fmt.Errorf("routing: image covers %d nodes, tables %d", img.Nodes, t.Net.NumNodes())
	}
	for _, d := range t.Net.Devices() {
		if d.Kind != topology.Router {
			continue
		}
		for dst := 0; dst < t.Net.NumNodes(); dst++ {
			if got, want := img.Lookup(d.ID, dst), t.OutPort(d.ID, dst); got != want {
				return fmt.Errorf("routing: image lookup (%s, %d) = %d, tables say %d",
					d.Name, dst, got, want)
			}
		}
	}
	return nil
}
