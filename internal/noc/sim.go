package noc

import (
	"fmt"
	"math/bits"
	"sort"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// Port indices inside a mesh router: the four mesh directions plus the
// local inject/eject port. These are the mesh topology's layout; other
// topologies may populate more ports, but ports 0-3 always mean the
// four mesh directions wherever a topology wires them, and the local
// port is always the last one (Topology.Ports()-1).
const (
	portN = iota
	portE
	portS
	portW
	portLocal
	numPorts
)

// inFlight is a packet crossing an inter-chiplet link.
type inFlight struct {
	pkt     Packet
	arrive  int64 // cycle it lands in the downstream FIFO
	dstTile geom.Coord
	dstPort int
}

// router is one tile's switch on one physical network: input-buffered,
// round-robin arbitration per output port, credit (space-) checked
// forwarding. The input FIFOs and round-robin pointers are slices into
// per-network slabs sized by the topology's port count.
type router struct {
	at     geom.Coord
	idx    int32     // grid index, for O(1) neighbor-table lookups
	queued int32     // packets queued over all input FIFOs
	in     []pktFIFO // input FIFOs (ring buffers, FIFODepth each), one per port
	rrAt   []int     // round-robin pointer per output port
}

// grant is one switch-allocation decision: move the head packet of
// (r, inPort) to outPort.
type grant struct {
	r       *router
	inPort  int
	outPort int
}

// meshNet is one of the two physical networks. Beyond the routers and
// the in-flight link population it carries the incrementally maintained
// occupancy counters and the per-cycle scratch buffers that make
// stepNet allocation-free:
//
//   - inAir[tile*np+port] counts flights destined for that input
//     FIFO, updated on launch and landing, replacing an O(flights) scan
//     per credit check;
//   - reserved[...] holds this cycle's switch-allocation reservations
//     (zeroed via the touched list after traversal);
//   - active is an ascending bitset of the routers holding at least one
//     queued packet, so allocation visits only those (an empty router
//     makes no grants, writes no round-robin pointer and reserves
//     nothing, so skipping it leaves the grant order unchanged);
//   - grants is the reusable grant list.
//
// Every FIFO push and pop goes through push/pop, which keep the
// router's queued count and the active bit in step.
type meshNet struct {
	net      Network
	routers  []*router
	flights  []inFlight
	inAir    []int32
	reserved []int32
	active   []uint64
	touched  []int32
	grants   []grant
}

// push queues p on router r's input port and marks r active.
func (mn *meshNet) push(r *router, port int, p Packet) {
	r.in[port].push(p)
	r.queued++
	if r.queued == 1 {
		mn.active[r.idx>>6] |= 1 << (r.idx & 63)
	}
}

// pop dequeues the head packet of router r's input port, clearing r's
// active bit when it empties.
func (mn *meshNet) pop(r *router, port int) Packet {
	p := r.in[port].pop()
	r.queued--
	if r.queued == 0 {
		mn.active[r.idx>>6] &^= 1 << (r.idx & 63)
	}
	return p
}

// Sim is the cycle-level simulator of the dual-network waferscale NoC.
// The link graph it steps comes from a Topology (NewSimTopology); the
// default is the reference dual-DoR mesh.
type Sim struct {
	grid geom.Grid
	fm   *fault.Map
	cfg  SimConfig
	topo Topology
	nets [2]*meshNet

	// np is the per-router port count (topo.Ports()); local is the
	// inject/eject port index, always np-1.
	np, local int

	// Neighbor tables, precomputed from the topology at construction so
	// the hot loop never calls Topology.Link: for link slot tile*np+port,
	// nbrTile is the destination tile index (-1 = no link there),
	// nbrPort the arrival port on that tile, and nbrLat the link flight
	// time (length x LinkLatency). They are immutable and shared with
	// forks.
	nbrTile []int32
	nbrPort []int8
	nbrLat  []int64

	// Policy selects output ports; defaults to the topology's policy
	// (strict dimension-ordered routing on the mesh). Set to
	// OddEvenPolicy before injecting to run the future-work adaptive
	// scheme (paper footnote 4) — mesh topology only.
	Policy RoutingPolicy

	cycle   int64
	nextID  uint64
	stats   SimStats
	linkUse [2][]int64 // per network: traversals of (tile, port) links
	// linkDown marks out-of-service (tile, port) links, shared by
	// both physical networks (a flapped inter-chiplet channel takes the
	// buses of both meshes with it). Packets queued behind a down link
	// wait; they are not lost.
	linkDown []bool

	// live counts packets currently in the system (queued or in flight,
	// both networks), so Drained is O(1) instead of a full scan per
	// RunUntilDrained iteration. Every injection and forward increments
	// it; every delivery and drop decrements it.
	live int

	// candBuf is the scratch buffer RoutingPolicy.Candidates writes
	// into (stepNet runs the two networks sequentially, so one buffer
	// serves both).
	candBuf [MaxPorts]int

	// OnDeliver, when set, observes every delivered packet (after stats
	// are updated). Used by the functional simulator to implement the
	// remote-memory protocol.
	OnDeliver func(Packet)

	delivered []Packet // retained when RetainDelivered is true
	// RetainDelivered keeps every delivered packet for inspection.
	RetainDelivered bool
}

// NewSim builds a simulator of the reference dual-DoR mesh over a
// fault map — identical to NewSimTopology with a nil topology. Routers
// are instantiated only on healthy tiles; a packet forwarded into a
// faulty tile is dropped and counted (the kernel must prevent this by
// construction).
func NewSim(fm *fault.Map, cfg SimConfig) (*Sim, error) {
	return NewSimTopology(fm, cfg, nil)
}

// NewSimTopology builds a simulator over a fault map and a link graph
// (nil topology = the reference mesh). The topology's graph invariants
// — bidirectional links with consistent endpoints, a unique incoming
// link per (tile, port) — are validated here, because the engine's
// per-(tile, port) occupancy counters depend on them; a violating
// topology is rejected, never silently mis-simulated.
func NewSimTopology(fm *fault.Map, cfg SimConfig, topo Topology) (*Sim, error) {
	if fm == nil {
		return nil, fmt.Errorf("noc: nil fault map")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := fm.Grid()
	if g.W <= 0 || g.H <= 0 {
		return nil, fmt.Errorf("noc: fault map has empty grid %v (construct with fault.NewMap)", g)
	}
	if topo == nil {
		topo = MeshTopology(g)
	}
	if topo.Grid() != g {
		return nil, fmt.Errorf("noc: topology grid %v does not match fault map grid %v", topo.Grid(), g)
	}
	np := topo.Ports()
	if np < 2 || np > MaxPorts {
		return nil, fmt.Errorf("noc: topology %q has %d ports per router, want 2..%d", topo.Name(), np, MaxPorts)
	}
	s := &Sim{grid: g, fm: fm, cfg: cfg, topo: topo, np: np, local: np - 1, Policy: topo.Policy()}
	if err := s.buildLinkTables(); err != nil {
		return nil, err
	}
	s.linkDown = make([]bool, g.Size()*np)
	for n := range s.linkUse {
		s.linkUse[n] = make([]int64, g.Size()*np)
	}
	for n := range s.nets {
		mn := &meshNet{
			net:      Network(n),
			routers:  make([]*router, g.Size()),
			inAir:    make([]int32, g.Size()*np),
			reserved: make([]int32, g.Size()*np),
			active:   make([]uint64, (g.Size()+63)/64),
		}
		// All routers of a mesh and their ring buffers, FIFO headers and
		// round-robin pointers come from four slab allocations, keeping
		// NewSim cheap inside Monte Carlo loops.
		routers := make([]router, g.Size())
		fifos := make([]pktFIFO, g.Size()*np)
		rr := make([]int, g.Size()*np)
		slab := make([]Packet, g.Size()*np*cfg.FIFODepth)
		g.All(func(c geom.Coord) {
			if !fm.Healthy(c) {
				return
			}
			i := g.Index(c)
			r := &routers[i]
			r.at = c
			r.idx = int32(i)
			r.in = fifos[i*np : (i+1)*np]
			r.rrAt = rr[i*np : (i+1)*np]
			base := i * np * cfg.FIFODepth
			for p := 0; p < np; p++ {
				r.in[p].buf = slab[base+p*cfg.FIFODepth : base+(p+1)*cfg.FIFODepth]
			}
			mn.routers[i] = r
		})
		s.nets[n] = mn
	}
	return s, nil
}

// buildLinkTables flattens the topology's link graph into the neighbor
// tables the hot loop indexes, validating the Topology contract along
// the way: links resolve inside the grid, are bidirectional with
// consistent endpoints and lengths, and no two links arrive at the
// same (tile, port), so each input FIFO's in-flight and reservation
// counters (slot tile*np+port) track exactly one upstream link.
func (s *Sim) buildLinkTables() error {
	g, np, topo := s.grid, s.np, s.topo
	s.nbrTile = make([]int32, g.Size()*np)
	s.nbrPort = make([]int8, g.Size()*np)
	s.nbrLat = make([]int64, g.Size()*np)
	for i := range s.nbrTile {
		s.nbrTile[i] = -1
	}
	incoming := make([]bool, g.Size()*np)
	var fail error
	g.All(func(c geom.Coord) {
		if fail != nil {
			return
		}
		i := g.Index(c)
		for p := 0; p < np-1; p++ {
			far, ap, ln, ok := topo.Link(c, p)
			if !ok {
				continue
			}
			switch {
			case !g.In(far):
				fail = fmt.Errorf("noc: topology %q: link (%v, port %d) leaves the grid (-> %v)", topo.Name(), c, p, far)
			case far == c:
				fail = fmt.Errorf("noc: topology %q: link (%v, port %d) is a self-loop", topo.Name(), c, p)
			case ap < 0 || ap >= np-1:
				fail = fmt.Errorf("noc: topology %q: link (%v, port %d) arrives on invalid port %d", topo.Name(), c, p, ap)
			case ln < 1:
				fail = fmt.Errorf("noc: topology %q: link (%v, port %d) has non-positive length %d", topo.Name(), c, p, ln)
			}
			if fail != nil {
				return
			}
			rfar, rap, rln, rok := topo.Link(far, ap)
			if !rok || rfar != c || rap != p || rln != ln {
				fail = fmt.Errorf("noc: topology %q: link (%v, port %d) -> (%v, port %d) is not bidirectional", topo.Name(), c, p, far, ap)
				return
			}
			fi := g.Index(far)
			slot := fi*np + ap
			if incoming[slot] {
				fail = fmt.Errorf("noc: topology %q: two links arrive at (%v, port %d) — an input FIFO must have a single upstream link", topo.Name(), far, ap)
				return
			}
			incoming[slot] = true
			s.nbrTile[i*np+p] = int32(fi)
			s.nbrPort[i*np+p] = int8(ap)
			s.nbrLat[i*np+p] = int64(ln * s.cfg.LinkLatency)
		}
	})
	return fail
}

// Cycle returns the current simulation cycle.
func (s *Sim) Cycle() int64 { return s.cycle }

// Stats returns a copy of the running statistics.
func (s *Sim) Stats() SimStats { return s.stats }

// Topology returns the link graph the simulator steps.
func (s *Sim) Topology() Topology { return s.topo }

// Delivered returns a copy of the retained packets (RetainDelivered
// must be set). Callers get their own slice, so the simulator's
// delivered-packet history cannot be corrupted through the return
// value.
func (s *Sim) Delivered() []Packet {
	out := make([]Packet, len(s.delivered))
	copy(out, s.delivered)
	return out
}

// Inject queues a packet at its source tile's local port on the given
// network. It fails if the source is faulty (at construction or killed
// at runtime) or the local FIFO is full (caller retries next cycle —
// modelling injection backpressure).
func (s *Sim) Inject(net Network, src, dst geom.Coord, kind Kind, tag uint32, payload uint64) (uint64, error) {
	if err := validatePair(s.grid, src, dst); err != nil {
		return 0, err
	}
	if s.fm.Faulty(src) {
		return 0, fmt.Errorf("noc: cannot inject from faulty tile %v", src)
	}
	r := s.nets[net].routers[s.grid.Index(src)]
	if r == nil {
		return 0, fmt.Errorf("noc: no router at source tile %v (killed at runtime)", src)
	}
	if r.in[s.local].len() >= s.cfg.FIFODepth {
		return 0, ErrBackpressure
	}
	s.nextID++
	p := Packet{
		ID: s.nextID, Kind: kind, Net: net, Src: src, Dst: dst,
		Tag: tag, Payload: payload, InjectedAt: s.cycle,
	}
	s.nets[net].push(r, s.local, p)
	s.stats.Injected++
	s.live++
	return p.ID, nil
}

// ErrBackpressure reports a full injection FIFO.
var ErrBackpressure = fmt.Errorf("noc: injection FIFO full")

// Forward re-injects a delivered packet at a relay tile toward a new
// destination, preserving its identity (ID, Src, Tag, Payload,
// InjectedAt, accumulated Hops). This is the kernel's Section VI
// relay workaround exercised live: system software on the relay tile
// receives the packet at its local port and sends it on the next leg.
// The response still names the original Src, so the final destination
// answers the requester directly.
func (s *Sim) Forward(net Network, at, newDst geom.Coord, p Packet) error {
	if err := validatePair(s.grid, at, newDst); err != nil {
		return err
	}
	if s.fm.Faulty(at) {
		return fmt.Errorf("noc: cannot forward from faulty tile %v", at)
	}
	r := s.nets[net].routers[s.grid.Index(at)]
	if r == nil {
		return fmt.Errorf("noc: no router at relay tile %v", at)
	}
	if r.in[s.local].len() >= s.cfg.FIFODepth {
		return ErrBackpressure
	}
	p.Net = net
	p.Dst = newDst
	s.nets[net].push(r, s.local, p)
	s.stats.Forwarded++
	s.live++
	return nil
}

// KillRouter removes the tile's router from both networks between
// cycles, modelling a tile dying at runtime. Packets queued inside the
// dead router are destroyed (counted in Dropped and DroppedQueued);
// packets already in flight toward it are dropped on arrival (counted
// in Dropped and DroppedInFlight), exactly like flights into a
// construction-time faulty tile. In-flight state
// elsewhere is untouched. Killing an already-dead or out-of-grid tile
// is a no-op. It returns the number of queued packets destroyed.
func (s *Sim) KillRouter(c geom.Coord) int {
	if !s.grid.In(c) {
		return 0
	}
	i := s.grid.Index(c)
	dropped := 0
	killed := false
	for _, mn := range s.nets {
		r := mn.routers[i]
		if r == nil {
			continue
		}
		killed = true
		dropped += int(r.queued)
		mn.active[i>>6] &^= 1 << (i & 63)
		mn.routers[i] = nil
	}
	if killed {
		s.stats.RoutersKilled++
		s.stats.Dropped += dropped
		s.stats.DroppedQueued += dropped
		s.live -= dropped
	}
	return dropped
}

// SetLinkDown marks the inter-chiplet link at (tile, dir) out of (or
// back in) service on both physical networks. Ports 0-3 are the mesh
// directions on every topology that wires them; on topologies where
// the tile has no such link the flag is recorded but can never block a
// grant. Both endpoints of an existing link are updated, so traffic is
// blocked in either direction. Down links exert backpressure: the
// switch allocator withholds grants over them and packets wait in the
// upstream FIFOs.
func (s *Sim) SetLinkDown(c geom.Coord, d geom.Dir, down bool) {
	s.SetPortDown(c, int(d), down)
}

// SetPortDown is the generalized SetLinkDown: it addresses any link
// port of the topology (express links, CMesh hub spokes, vertical
// links), so the fault-injection layer can kill topology-specific
// links too. The local port cannot be taken down.
func (s *Sim) SetPortDown(c geom.Coord, port int, down bool) {
	if !s.grid.In(c) || port < 0 || port >= s.local {
		return
	}
	i := s.grid.Index(c)
	s.linkDown[i*s.np+port] = down
	if ni := s.nbrTile[i*s.np+port]; ni >= 0 {
		s.linkDown[int(ni)*s.np+int(s.nbrPort[i*s.np+port])] = down
	}
}

// LinkIsDown reports whether the link at (tile, dir) is out of service.
func (s *Sim) LinkIsDown(c geom.Coord, d geom.Dir) bool {
	return s.PortIsDown(c, int(d))
}

// PortIsDown reports whether the link at (tile, port) is out of
// service.
func (s *Sim) PortIsDown(c geom.Coord, port int) bool {
	return s.grid.In(c) && port >= 0 && port < s.local && s.linkDown[s.grid.Index(c)*s.np+port]
}

// CorruptPayload XORs mask into the payload of the first packet found
// buffered at tile c (scanning networks, then ports, FIFO heads first)
// — a deterministic model of a transient link bit error. It reports
// whether a packet was hit; false means the error struck an idle
// buffer and is harmless.
func (s *Sim) CorruptPayload(c geom.Coord, mask uint64) bool {
	if !s.grid.In(c) || mask == 0 {
		return false
	}
	i := s.grid.Index(c)
	for _, mn := range s.nets {
		r := mn.routers[i]
		if r == nil {
			continue
		}
		for p := 0; p < s.np; p++ {
			if r.in[p].len() > 0 {
				r.in[p].front().Payload ^= mask
				s.stats.BitErrors++
				return true
			}
		}
	}
	return false
}

// CountTimeout records a remote-op deadline expiry observed by the
// machine layer, so the network statistics tell the whole chaos story.
func (s *Sim) CountTimeout() { s.stats.Timeouts++ }

// Step advances the simulation one cycle.
func (s *Sim) Step() {
	s.cycle++
	for _, mn := range s.nets {
		s.stepNet(mn)
	}
}

// StepN advances n cycles.
func (s *Sim) StepN(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// stepNet advances one network one cycle: land, allocate, traverse,
// clear.
func (s *Sim) stepNet(mn *meshNet) {
	s.landFlights(mn)
	s.allocate(mn)
	s.traverse(mn)
	// Clear this cycle's reservations (touched may hold duplicates;
	// zeroing twice is harmless).
	for _, slot := range mn.touched {
		mn.reserved[slot] = 0
	}
	mn.touched = mn.touched[:0]
}

// landFlights lands in-flight packets whose link delay elapsed.
func (s *Sim) landFlights(mn *meshNet) {
	g := s.grid
	remaining := mn.flights[:0]
	for _, f := range mn.flights {
		if f.arrive > s.cycle {
			remaining = append(remaining, f)
			continue
		}
		di := g.Index(f.dstTile)
		mn.inAir[di*s.np+f.dstPort]--
		r := mn.routers[di]
		if r == nil {
			// Link into a faulty tile: the packet is lost. The kernel's
			// fault-map routing must make this unreachable.
			s.stats.Dropped++
			s.stats.DroppedInFlight++
			s.live--
			continue
		}
		mn.push(r, f.dstPort, f.pkt)
	}
	mn.flights = remaining
}

// allocate runs switch allocation for the active routers in ascending
// index order into mn.grants: per router, per output port, grant one
// input whose head packet requests that port, round-robin over inputs.
// Each non-empty input's head packet asks the policy once, and the
// answer becomes a port bitmask the output loop tests. Space accounting
// reserves downstream slots before movement so a FIFO never overfills
// within a cycle. The grant and touched lists and the candidate buffer
// are reused scratch, so this loop allocates nothing in steady state.
func (s *Sim) allocate(mn *meshNet) {
	mn.grants = mn.grants[:0]
	for w, word := range mn.active {
		for ; word != 0; word &= word - 1 {
			s.allocRouter(mn, mn.routers[w<<6+bits.TrailingZeros64(word)])
		}
	}
}

// allocRouter is allocate's per-router body for one active router.
func (s *Sim) allocRouter(mn *meshNet, r *router) {
	np, local := s.np, s.local
	cand := s.candBuf[:]
	// want[in] is the candidate port mask of input in's head packet (0
	// for an empty input); union is their union.
	var want [MaxPorts]uint32
	var union uint32
	for in := 0; in < np; in++ {
		q := &r.in[in]
		if q.len() == 0 {
			continue
		}
		nc := s.Policy.Candidates(mn.net, q.front(), r.at, in, cand)
		var m uint32
		for _, c := range cand[:nc] {
			if c >= 0 && c < np {
				m |= 1 << c
			}
		}
		want[in] = m
		union |= m
	}
	var taken uint32 // inputs already granted this cycle
	base := int(r.idx) * np
	for out := 0; out < np; out++ {
		bit := uint32(1) << out
		if union&bit == 0 {
			continue
		}
		if out != local && s.linkDown[base+out] {
			continue // link out of service: packets wait upstream
		}
		// Round-robin: start after the last granted input.
		inPort := r.rrAt[out]
		for k := 0; k < np; k++ {
			if inPort++; inPort == np {
				inPort = 0
			}
			if taken&(1<<inPort) != 0 || want[inPort]&bit == 0 {
				continue
			}
			if out != local {
				// Ejection always has room (the tile consumes it); a route
				// off the link graph is granted and dropped in traversal
				// (cannot happen for in-grid destinations; defensive).
				if ni := s.nbrTile[base+out]; ni >= 0 {
					port := s.nbrPort[base+out]
					slot := ni*int32(np) + int32(port)
					if !s.spaceFor(mn, int(ni), int(port), slot) {
						continue // no credit; try another input for this port
					}
					mn.reserved[slot]++
					mn.touched = append(mn.touched, slot)
				}
			}
			mn.grants = append(mn.grants, grant{r, inPort, out})
			r.rrAt[out] = inPort
			taken |= 1 << inPort
			break
		}
	}
}

// traverse applies this cycle's grants in list order: ejections update
// stats and fire OnDeliver, link crossings launch flights. List order is
// the delivery order the determinism contract pins.
func (s *Sim) traverse(mn *meshNet) {
	for _, gr := range mn.grants {
		pkt := mn.pop(gr.r, gr.inPort)
		if gr.outPort == s.local {
			pkt.DeliveredAt = s.cycle
			s.stats.Delivered++
			s.stats.TotalLatency += pkt.Latency()
			s.stats.TotalHops += pkt.Hops
			if pkt.Latency() > s.stats.MaxLatency {
				s.stats.MaxLatency = pkt.Latency()
			}
			s.live--
			if s.RetainDelivered {
				s.delivered = append(s.delivered, pkt)
			}
			if s.OnDeliver != nil {
				s.OnDeliver(pkt)
			}
			continue
		}
		lslot := int(gr.r.idx)*s.np + gr.outPort
		ni := s.nbrTile[lslot]
		if ni < 0 {
			s.stats.Dropped++
			s.stats.DroppedInFlight++ // left its router, lost in traversal
			s.live--
			continue
		}
		pkt.Hops++
		s.linkUse[mn.net][lslot]++
		dstPort := int(s.nbrPort[lslot])
		mn.inAir[int(ni)*s.np+dstPort]++
		mn.flights = append(mn.flights, inFlight{
			pkt:     pkt,
			arrive:  s.cycle + s.nbrLat[lslot],
			dstTile: s.grid.Coord(int(ni)),
			dstPort: dstPort,
		})
	}
}

// spaceFor reports whether input FIFO port of tile tileIdx (reservation
// slot = tile*np + port) can absorb one more packet, counting queued packets, packets
// in flight toward it and this cycle's reservations — all O(1) from
// the incrementally maintained counters.
func (s *Sim) spaceFor(mn *meshNet, tileIdx, port int, slot int32) bool {
	r := mn.routers[tileIdx]
	if r == nil {
		// Faulty destination: allow the move; the packet drops on
		// arrival (hardware would see an unresponsive link).
		return true
	}
	return r.in[port].len()+int(mn.inAir[slot])+int(mn.reserved[slot]) < s.cfg.FIFODepth
}

// dirOfPort converts a mesh direction-port index back to a geom.Dir.
func dirOfPort(p int) geom.Dir { return geom.Dir(p) }

// Drained reports whether no packet remains anywhere in the network.
// The live-packet counter makes this O(1); RunUntilDrained calls it
// every cycle.
func (s *Sim) Drained() bool { return s.live == 0 }

// drainedScan is the reference O(routers) drain check the live counter
// replaced; tests cross-validate the two on every step of chaos runs.
func (s *Sim) drainedScan() bool {
	for _, mn := range s.nets {
		if len(mn.flights) > 0 {
			return false
		}
		for _, r := range mn.routers {
			if r == nil {
				continue
			}
			for p := 0; p < s.np; p++ {
				if r.in[p].len() > 0 {
					return false
				}
			}
		}
	}
	return true
}

// RunUntilDrained steps until the network empties or maxCycles elapse;
// it returns an error on timeout, which in a deadlock-free network with
// finite traffic indicates a bug (or, in a chaos run, a down link or
// dead router wedging traffic). The error carries a congestion report —
// in-flight population and the most-backed-up routers per network — so
// hangs are debuggable without a debugger.
func (s *Sim) RunUntilDrained(maxCycles int) error {
	for i := 0; i < maxCycles; i++ {
		if s.Drained() {
			return nil
		}
		s.Step()
	}
	if s.Drained() {
		return nil
	}
	return fmt.Errorf("noc: network not drained after %d cycles (possible deadlock): %s",
		maxCycles, s.CongestionReport(4))
}

// CongestionReport summarizes where packets are stuck: per network, the
// in-flight link population, the number of routers holding packets, the
// total queued, and the topK routers by queue depth with coordinates.
// topK <= 0 lists no per-router detail; topK beyond the router count
// lists every congested router.
func (s *Sim) CongestionReport(topK int) string {
	if topK < 0 {
		topK = 0
	}
	out := ""
	for _, mn := range s.nets {
		type stuck struct {
			at geom.Coord
			n  int
		}
		var worst []stuck
		queued := 0
		for _, r := range mn.routers {
			if r == nil {
				continue
			}
			if n := int(r.queued); n > 0 {
				queued += n
				worst = append(worst, stuck{r.at, n})
			}
		}
		sort.Slice(worst, func(i, j int) bool {
			if worst[i].n != worst[j].n {
				return worst[i].n > worst[j].n
			}
			return s.grid.Index(worst[i].at) < s.grid.Index(worst[j].at)
		})
		if out != "" {
			out += "; "
		}
		out += fmt.Sprintf("%v: %d in flight, %d queued in %d routers",
			mn.net, len(mn.flights), queued, len(worst))
		if len(worst) > topK {
			worst = worst[:topK]
		}
		for _, w := range worst {
			out += fmt.Sprintf(" %v×%d", w.at, w.n)
		}
	}
	return out
}
