package sim

// Per-output-port crossbar arbitration on reusable scratch state. The old
// implementation built a map of request slices every cycle and sorted both
// the map keys and each slice; this version classifies each request online
// into four slots per port as candidates arrive in ascending buffer-key
// order, which is all the old sort ever computed:
//
//   - contMin / hdrMin:   the lowest-keyed continuing / header request —
//     the old sorted class's first element;
//   - contNext / hdrNext: the lowest-keyed request above the round-robin
//     pointer — the old "first with from > last" pick.
//
// Continuing worms outrank new headers so body flits are not starved
// mid-worm, and the grant updates the port's round-robin pointer exactly as
// before. Ports are identified by a global (device, port)-ordered index and
// requested ports are marked in a bitset over that index, so scanning the
// bitset word by word reproduces the old sorted-physKey grant emission
// order byte for byte.

import "math/bits"

type arbSlot struct{ from, to int32 }

// arbPort is one output port's per-cycle request state. Its slots are
// reset when the port's bit in Simulator.arbBits is first set in a cycle.
type arbPort struct {
	contMin  arbSlot
	contNext arbSlot
	hdrMin   arbSlot
	hdrNext  arbSlot
}

type move struct {
	from int // buffer key; -1 == injection from the source node
	to   int // buffer key
	src  int // injecting node when from == -1
}

// planMoves selects at most one flit movement per physical output port (and
// per injection channel) based on start-of-cycle state. It first moves the
// sources whose queue fronts have come due off the wait heap into the due
// set, then visits only the non-empty buffers and due sources whose head or
// front is not parked, parks each one that finds its next buffer full or
// its output VC owned by another worm, and allocates nothing on the
// steady-state path.
//
//simlint:hotpath
func (s *Simulator) planMoves(now int) []move {
	moves := s.moves[:0]
	v := s.cfg.VirtualChannels
	for len(s.srcHeap) > 0 && s.srcHeap[0].cycle <= now {
		src := s.popWait()
		s.due[src>>6] |= 1 << (src & 63)
	}

	for w, word := range s.activeBits {
		for word &^= s.parked[w]; word != 0; word &= word - 1 {
			key := w<<6 | bits.TrailingZeros64(word)
			f := &s.bufFlits[key*s.depth+int(s.bufHead[key])]
			p := f.pkt
			if p.dropped {
				continue // reaped separately
			}
			next := p.route[f.hop+1]
			nextVC := 0
			if p.vcs != nil {
				nextVC = p.vcs[f.hop+1]
			}
			if f.idx == 0 && !s.chAllowed[key/v][s.chSrcPort[next]] {
				// Path-disable logic rejects the turn: the packet is
				// discarded (ServerNet raises a transmission error).
				p.dropped = true
				s.markDropped(p)
				continue
			}
			if s.deadCount[s.chLink[next]] > 0 {
				// The worm is aimed at a failed link: the hardware kills it.
				p.dropped = true
				s.markDropped(p)
				continue
			}
			nextKey := int(next)*v + nextVC
			if !s.space(nextKey) {
				s.park(key, nextKey)
				continue
			}
			// Ownership of the output VC — which is the destination buffer
			// key itself, every wired port driving exactly one outgoing
			// channel — decides whether this is a continuing worm or a new
			// header.
			var continuing bool
			switch own := s.owner[nextKey]; {
			case own == int32(p.id):
				continuing = true
			case own < 0 && f.idx == 0:
				continuing = false
			default:
				s.park(key, nextKey)
				continue
			}
			port := s.chOutPort[next]
			a := &s.arb[port]
			if bit := uint64(1) << (port & 63); s.arbBits[port>>6]&bit == 0 {
				s.arbBits[port>>6] |= bit
				a.contMin.from, a.contNext.from = -1, -1
				a.hdrMin.from, a.hdrNext.from = -1, -1
			}
			k32 := int32(key)
			slot := arbSlot{from: k32, to: int32(nextKey)}
			if continuing {
				if a.contMin.from < 0 {
					a.contMin = slot
				}
				if a.contNext.from < 0 && k32 > s.arbLast[port] {
					a.contNext = slot
				}
			} else {
				if a.hdrMin.from < 0 {
					a.hdrMin = slot
				}
				if a.hdrNext.from < 0 && k32 > s.arbLast[port] {
					a.hdrNext = slot
				}
			}
		}
	}
	moves = s.emitGrants(moves)

	// Injection: one flit per unparked due source. Scanning the due
	// bitset visits node addresses in ascending order, so no sort is
	// needed to reproduce the old sorted source iteration.
	for w, word := range s.due {
		for ; word != 0; word &= word - 1 {
			src := w<<6 | bits.TrailingZeros64(word)
			id := s.srcBase + src
			if s.parked[id>>6]&(1<<(id&63)) != 0 {
				continue
			}
			p := s.queues[src][0]
			if p.dropped {
				continue
			}
			if s.deadCount[s.chLink[p.route[0]]] > 0 {
				p.dropped = true
				s.markDropped(p)
				continue
			}
			injKey := int(p.route[0])*v + p.vcAt(0)
			if !s.space(injKey) {
				s.park(id, injKey)
				continue
			}
			moves = append(moves, move{from: -1, to: injKey, src: src})
		}
	}
	s.moves = moves
	return moves
}

// emitGrants resolves the filled arbitration slots into at most one granted
// move per requested output port, visiting ports in ascending global index
// so grant emission order is canonical, and advances each port's
// round-robin pointer. It zeroes arbBits word by word as it scans, leaving
// the bitset clear for the next cycle.
//
//simlint:hotpath
func (s *Simulator) emitGrants(moves []move) []move {
	for w, word := range s.arbBits {
		if word == 0 {
			continue
		}
		s.arbBits[w] = 0
		for ; word != 0; word &= word - 1 {
			port := w<<6 | bits.TrailingZeros64(word)
			a := &s.arb[port]
			var g arbSlot
			if a.contMin.from >= 0 {
				g = a.contMin
				if a.contNext.from >= 0 {
					g = a.contNext
				}
			} else {
				g = a.hdrMin
				if a.hdrNext.from >= 0 {
					g = a.hdrNext
				}
			}
			s.arbLast[port] = g.from
			moves = append(moves, move{from: int(g.from), to: int(g.to)})
		}
	}
	return moves
}
