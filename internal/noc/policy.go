package noc

import "waferscale/internal/geom"

// RoutingPolicy decides which output ports a packet at cur may take,
// in preference order. The full packet is supplied, by pointer so the
// call copies nothing, because turn-model algorithms need the source
// column; a policy only reads it. arrivalPort is the input port the
// packet sits in (the local port for freshly injected packets).
//
// Candidates writes the ports into buf — a caller-provided scratch of
// at least numPorts entries — and returns how many it wrote, so the
// switch allocator's inner loop allocates nothing. A policy must never
// return 0 for an in-grid destination (the packet would wedge).
//
// The switch allocator calls Candidates once per cycle for the head
// packet of each non-empty input of each router holding packets and
// turns the answer into a port set (only membership counts, not the
// order). It never asks for empty inputs or idle routers and never
// re-asks per output port, so a policy must be pure: the same answer
// for the same arguments.
//
// A policy must be safe for concurrent use: Sim.Fork shares the
// original's Policy with every fork, and parallel trials step their
// forks side by side, each with its own buf. Stateless policies — both
// DoRPolicy and OddEvenPolicy — satisfy this trivially; a policy that
// keeps per-call mutable state must synchronize it.
type RoutingPolicy interface {
	Candidates(net Network, p *Packet, cur geom.Coord, arrivalPort int, buf []int) int
}

// DoRPolicy is the prototype's strict dimension-ordered routing: one
// legal output per packet per network (X-then-Y or Y-then-X).
type DoRPolicy struct{}

// Candidates writes the single DoR port.
func (DoRPolicy) Candidates(net Network, p *Packet, cur geom.Coord, _ int, buf []int) int {
	d, ok := NextHop(net, cur, p.Dst)
	if !ok {
		buf[0] = portLocal
		return 1
	}
	buf[0] = int(d)
	return 1
}

// OddEvenPolicy is the future-work adaptive scheme (Wu/Chiu odd-even
// turn model, paper footnote 4) run at packet level: minimal adaptive
// routing restricted by the odd-even turn rules — EN/ES turns banned
// in even columns, NW/SW turns banned in odd columns — which is
// deadlock-free without virtual channels. Both physical networks run
// the same algorithm (the request/response split still prevents
// protocol deadlock).
//
// Candidates implements Chiu's ROUTE function, which guarantees a
// non-empty legal minimal set at every hop:
//
//   - same column (e0 = 0): continue vertically;
//   - eastbound: a vertical move is offered only in odd columns or at
//     the source (no turn happens at injection); the east move is
//     withheld when one hop from an even destination column, forcing
//     the mandatory turn to happen in the preceding odd column;
//   - westbound: west is always offered; vertical moves only in even
//     columns so the later N->W / S->W turn is legal.
type OddEvenPolicy struct{}

// Candidates writes the legal minimal output ports into buf. When two
// dimensions are productive, the one with more remaining hops is
// preferred (dimension balancing); the switch allocator takes whichever
// candidate has credit.
func (OddEvenPolicy) Candidates(_ Network, p *Packet, cur geom.Coord, _ int, buf []int) int {
	dst, src := p.Dst, p.Src
	e0 := dst.X - cur.X
	e1 := dst.Y - cur.Y
	if e0 == 0 && e1 == 0 {
		buf[0] = portLocal
		return 1
	}
	vertical := portN
	if e1 < 0 {
		vertical = portS
	}
	n := 0
	switch {
	case e0 == 0:
		buf[n] = vertical
		n++
	case e0 > 0: // eastbound
		if e1 == 0 {
			buf[n] = portE
			n++
		} else {
			if cur.X%2 == 1 || cur.X == src.X {
				buf[n] = vertical
				n++
			}
			if dst.X%2 == 1 || e0 != 1 {
				buf[n] = portE
				n++
			}
		}
	default: // westbound
		buf[n] = portW
		n++
		if e1 != 0 && cur.X%2 == 0 {
			buf[n] = vertical
			n++
		}
	}
	// Dimension balancing: put the longer dimension first.
	if n == 2 {
		dx, dy := abs(e0), abs(e1)
		firstVertical := buf[0] == portN || buf[0] == portS
		if (dx > dy) == firstVertical {
			buf[0], buf[1] = buf[1], buf[0]
		}
	}
	return n
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
