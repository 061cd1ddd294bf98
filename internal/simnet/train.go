package simnet

import (
	"time"

	"repro/internal/packet"
	"repro/internal/rns"
)

// This file is the link transport: packet trains. Every link
// direction keeps one train — an ordered slice of undelivered
// transmissions — and each scheduler lane holds a second, small
// priority lane of its active trains keyed by their next member's
// (at, key). The main loop always dispatches the global (at, key)
// minimum across events and trains, so a member is delivered exactly
// where a per-packet delivery event with the same key would run; what
// the train buys is cost: advancing a train is one shallow sift among
// O(active links) trains instead of a push/pop pair in a heap of
// O(in-flight packets) events, queue releases are a lazily drained
// ring with no events at all, and a switch-bound train resolves its
// members' output ports with one amortized rns.ReduceBatch instead of
// a per-packet policy call.
//
// Exactness is by construction:
//
//   - Keys: enqueue stamps one key from the direction's entity for the
//     queue-slot release and then one for the delivery, at the instant
//     of the send. Those are the keys a two-events-per-packet transport
//     would give its release and delivery events, so every other
//     event's tie-break key is unchanged too.
//   - Queue occupancy: the only reader of a direction's queue depth is
//     the tail-drop check in enqueue. The sender's release ring drains
//     the entries whose (release time, key) precede its lane's current
//     (now, curKey) — precisely the releases that have matured.
//   - Ownership: a train belongs to the lane of the receiving node,
//     which delivers its members; the release ring belongs to the
//     sending lane. Inside a lane both are the same lane. On a cut
//     (cross-shard) direction the sender hands each member over
//     through its outbox at the window barrier, or appends it directly
//     when the run is serialized or between windows; the lookahead
//     bound keeps every handed-over member at or past the window end.
//   - Fault semantics: link failures, repairs, detections and gray
//     windows are scheduler events; because the loop interleaves lanes
//     in global order, they split trains for free. Each member runs the
//     in-flight kill check at its own delivery instant, and a member
//     delivered while an impairment is installed draws from the
//     impairment's RNG in that global order.
//   - Peel-outs: sampled packets take the full switch pipeline
//     (flight-recorder hooks), corrupted packets invalidate only their
//     own precomputed residue, and non-batch handlers (edges) receive
//     plain HandlePacket calls.

// BatchHandler is a Handler that can accept batched deliveries with a
// precomputed port residue. The simulated switch implements it; edges
// do not (their trains skip residue precomputation entirely).
type BatchHandler interface {
	Handler
	// BatchReducer exposes the handler's modulus reduction for train-
	// side residue precomputation; ok is false when the handler cannot
	// accept precomputed residues (modulus wider than uint16).
	BatchReducer() (rns.Reducer, bool)
	// HandleBatchPacket is HandlePacket with the route-ID reduction
	// already done: residue == RouteID mod the handler's modulus.
	HandleBatchPacket(pkt *packet.Packet, inPort int, residue uint16)
}

// trainMember is one queued transmission: the packet, its delivery key
// (at, key), the serialization start for the in-flight kill check, and
// the precomputed port residue.
type trainMember struct {
	at      time.Duration
	key     uint64
	txStart time.Duration
	pkt     *packet.Packet
	res     uint16
	resOK   bool
}

// train is one link direction's pending transmissions. members[head:]
// are undelivered; members[:resLen] have residues. The owning lane's
// train heap holds a pointer while hpos ≥ 0.
type train struct {
	line *Line
	dir  uint8
	hpos int32 // index in Scheduler.trains; -1 when inactive

	// keyAt/keyOrd mirror members[head]'s (at, key) while the train is
	// active, so heap comparisons touch only the train struct instead
	// of chasing the members slice.
	keyAt  time.Duration
	keyOrd uint64

	head    int // next member to deliver
	resLen  int // members with computed residues
	members []trainMember

	// Cached receiving endpoint (resolved on first use; handlers are
	// bound before traffic starts).
	h        Handler
	bh       BatchHandler
	red      rns.Reducer
	resValid bool

	// Scratch for gather → ReduceBatch → scatter.
	ids []rns.RouteID
	out []uint16
}

// reset empties a train whose members are all delivered; endpoint
// caches survive (the topology is static).
func (tr *train) reset() {
	tr.members = tr.members[:0]
	tr.head, tr.resLen = 0, 0
}

// resolveEndpoint caches the receiving handler and, when it accepts
// batched deliveries, its reducer. A nil handler is not latched:
// delivery falls back to Network.Deliver's fresh lookup (and its
// no-port drop), so a handler bound late is still found.
func (tr *train) resolveEndpoint() {
	ds := &tr.line.dirs[tr.dir]
	h, ok := tr.line.net.handlers[ds.dst]
	if !ok {
		return
	}
	tr.h = h
	if bh, ok := h.(BatchHandler); ok {
		if red, rok := bh.BatchReducer(); rok {
			tr.bh, tr.red, tr.resValid = bh, red, true
		}
	}
}

// extendResidues computes residues for every member past resLen with
// one ReduceBatch call — the word-parallel amortization: it runs once
// per train-load, not once per packet, regardless of how deliveries
// interleave with other links' traffic.
func (tr *train) extendResidues() {
	if tr.h == nil {
		tr.resolveEndpoint()
	}
	n := len(tr.members)
	if !tr.resValid {
		tr.resLen = n
		return
	}
	need := n - tr.resLen
	if cap(tr.ids) < need {
		tr.ids = make([]rns.RouteID, need, need*2)
		tr.out = make([]uint16, need, need*2)
	}
	ids, out := tr.ids[:need], tr.out[:need]
	for i := 0; i < need; i++ {
		ids[i] = tr.members[tr.resLen+i].pkt.RouteID
	}
	tr.red.ReduceBatch(ids, out)
	for i := 0; i < need; i++ {
		tr.members[tr.resLen+i].res = out[i]
		tr.members[tr.resLen+i].resOK = true
	}
	tr.resLen = n
}

// --- Scheduler train lane -------------------------------------------------

// trainBefore is the lane's heap order: the trains' next members'
// (at, key), via the cached copies.
func trainBefore(a, b *train) bool {
	if a.keyAt != b.keyAt {
		return a.keyAt < b.keyAt
	}
	return a.keyOrd < b.keyOrd
}

// trainPush activates a train (first member just appended).
func (s *Scheduler) trainPush(tr *train) {
	m := &tr.members[tr.head]
	tr.keyAt, tr.keyOrd = m.at, m.key
	s.trains = append(s.trains, tr)
	i := len(s.trains) - 1
	tr.hpos = int32(i)
	for i > 0 {
		p := (i - 1) / 4
		if !trainBefore(s.trains[i], s.trains[p]) {
			break
		}
		s.trains[i], s.trains[p] = s.trains[p], s.trains[i]
		s.trains[i].hpos, s.trains[p].hpos = int32(i), int32(p)
		i = p
	}
}

// trainSiftDown restores heap order after the root's key increased
// (its head member advanced).
func (s *Scheduler) trainSiftDown() {
	q := s.trains
	i := 0
	for {
		min := i
		c := 4*i + 1
		end := c + 4
		if end > len(q) {
			end = len(q)
		}
		for ; c < end; c++ {
			if trainBefore(q[c], q[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		q[i].hpos, q[min].hpos = int32(i), int32(min)
		i = min
	}
}

// trainPopTop deactivates the root train (no members left).
func (s *Scheduler) trainPopTop() {
	q := s.trains
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[0].hpos = 0
	q[last] = nil
	s.trains = q[:last]
	top.hpos = -1
	if last > 0 {
		s.trainSiftDown()
	}
}

// stepTrain delivers the root train's next member: advance the clock
// and curKey to the member's key, fix the lane, then hand the packet
// to the line — mirroring pop-then-dispatch so handlers may freely
// enqueue more traffic (including onto this train).
func (s *Scheduler) stepTrain() {
	tr := s.trains[0]
	if tr.resLen <= tr.head {
		tr.extendResidues()
	}
	m := tr.members[tr.head]
	tr.members[tr.head].pkt = nil // no stale pin until reset/compact
	tr.head++
	s.trainMembers--
	if tr.head == len(tr.members) {
		s.trainPopTop()
		tr.reset()
	} else {
		next := &tr.members[tr.head]
		tr.keyAt, tr.keyOrd = next.at, next.key
		s.trainSiftDown()
	}
	s.now = m.at
	s.curKey = m.key
	tr.line.deliverMember(tr, &m)
}

// addMember appends m to tr — a train this lane owns — and activates
// the train if idle. An active train's heap key is its head member,
// which neither an append nor a compaction changes.
func (s *Scheduler) addMember(tr *train, m trainMember) {
	tr.compact()
	tr.members = append(tr.members, m)
	s.trainMembers++
	if tr.hpos < 0 {
		s.trainPush(tr)
	}
}

// compact reclaims the delivered prefix once it dominates the slice,
// so a continuously busy train does not grow without bound. Member
// order is preserved and head re-bases to 0.
func (tr *train) compact() {
	if tr.head < 256 || tr.head*2 < len(tr.members) {
		return
	}
	n := copy(tr.members, tr.members[tr.head:])
	tr.members = tr.members[:n]
	tr.resLen -= tr.head
	if tr.resLen < 0 {
		tr.resLen = 0
	}
	tr.head = 0
}

// --- Sender-side queue occupancy ------------------------------------------

// release is one occupied queue slot: the instant its packet finishes
// serializing and the tie-break key the slot's release carries.
type release struct {
	at  time.Duration
	key uint64
}

// releaseRing is a link direction's FIFO of occupied queue slots, in
// release order (a direction's serializer finishes packets in send
// order). It is allocated on first use and grows by doubling.
type releaseRing struct {
	buf  []release // len is 0 or a power of two
	head int
	n    int
}

// push records one more occupied slot.
func (r *releaseRing) push(e release) {
	if r.n == len(r.buf) {
		grown := make([]release, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

// drain frees the slots whose release — (release time, key) — precedes
// the current dispatch position (now, cur): exactly the releases that
// have already happened.
func (r *releaseRing) drain(now time.Duration, cur uint64) {
	for r.n > 0 {
		e := &r.buf[r.head]
		if e.at > now || (e.at == now && e.key >= cur) {
			return
		}
		r.head = (r.head + 1) & (len(r.buf) - 1)
		r.n--
	}
}

// deliverMember completes one member's transit — the only transit
// path: the packet dies if the link failed at any point after its
// transmission began, then runs the line's gray-failure impairment (if
// any), and is otherwise delivered to the cached endpoint — the
// batched fast lane when the handler takes residues, the plain handler
// call otherwise.
func (l *Line) deliverMember(tr *train, m *trainMember) {
	ds := &l.dirs[tr.dir]
	pkt := m.pkt
	if l.downRefs > 0 || (l.everDown && l.lastDownAt >= m.txStart) {
		ds.inFlightDrops.Inc()
		l.net.Drop(pkt, DropInFlight, l.link.Name())
		return
	}
	resOK := m.resOK
	if imp := l.imp; imp != nil {
		r := imp.Rand.Float64()
		switch {
		case r < imp.DropProb:
			l.cGrayDrops.Inc()
			l.net.Drop(pkt, DropGray, l.link.Name())
			return
		case r < imp.DropProb+imp.CorruptProb:
			if !l.corrupt(pkt, imp.Rand) {
				return // gray-dropped (and released) inside corrupt
			}
			resOK = false // route ID changed under the residue
		}
	}
	if tr.h == nil {
		tr.resolveEndpoint()
		if tr.h == nil {
			l.net.Deliver(pkt, ds.dst, ds.dstPort) // unbound: no-port drop
			return
		}
	}
	n := l.net
	pkt.Hops++
	n.dDelivered.Inc()
	if tr.bh != nil && resOK {
		tr.bh.HandleBatchPacket(pkt, ds.dstPort, m.res)
		return
	}
	tr.h.HandlePacket(pkt, ds.dstPort)
}
