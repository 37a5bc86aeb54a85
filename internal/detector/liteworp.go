package detector

import (
	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/watch"
)

// liteworpDetector is the paper's guard logic (§4.2.3) behind the
// Detector interface: the watch buffer tracks forwarding obligations and
// windowed MalC counters, fabrication and drop observations feed the
// accusation callback, and the threshold callback hands revocation to the
// engine's response protocol. It is the extraction of the pre-detector
// core engine's monitoring path and must stay observation-for-observation
// identical to it (the golden trace hashes pin this).
type liteworpDetector struct {
	env    Env
	cfg    Config
	buffer *watch.Buffer
}

func newLiteworpDetector(env Env, cfg Config) Detector {
	wcfg := cfg.Watch
	if env.DropFilter != nil {
		wcfg.DropFilter = env.DropFilter
	}
	if wcfg.Wheel == nil {
		wcfg.Wheel = env.Wheel
	}
	if wcfg.Index == nil && env.Table != nil {
		// Share the host table's dense neighbor index so the buffer, the
		// routing layer and the scoreboard agree on nbrIdx values.
		wcfg.Index = env.Table.Index()
	}
	d := &liteworpDetector{env: env, cfg: cfg}
	d.buffer = watch.New(env.Clock, wcfg, env.OnAccusation, env.OnThreshold)
	return d
}

// Name returns KindLiteworp.
func (d *liteworpDetector) Name() string { return KindLiteworp }

// Buffer exposes the watch buffer (for inspection and tests); the engine
// surfaces it through the same type assertion.
func (d *liteworpDetector) Buffer() *watch.Buffer { return d.buffer }

// OwnSend remembers the host's own control transmissions in the heard
// cache: a node is the guard of all its own outgoing links (§4.2.1), so
// when a neighbor forwards a packet claiming "I got this from you", the
// node must be able to tell whether it really sent it.
func (d *liteworpDetector) OwnSend(p *packet.Packet) {
	d.buffer.RecordHeard(d.env.Table.Self(), p.Key())
}

// Interference forwards a radio CRC-failure signal to the guard
// bookkeeping (see watch.Buffer.NoteInterference).
func (d *liteworpDetector) Interference() { d.buffer.NoteInterference() }

// Announcement is ignored: local monitoring judges forwarding behavior,
// not announced tables.
func (d *liteworpDetector) Announcement(field.NodeID, int) {}

// Overheard runs the guard logic of §4.2.3 on one overheard control
// frame:
//
//  1. If the frame is a forward (PrevHop != Sender) and we guard the link
//     PrevHop->Sender: if we never heard PrevHop transmit this packet,
//     Sender fabricated it (V_f).
//  2. Remember that Sender transmitted this packet (the "heard" cache),
//     which also keeps later flood copies from re-arming an expectation
//     on it, and clear any matching watch entry.
//  3. Arm forwarding expectations for the receivers we guard: the unicast
//     receiver of a REP, or every common neighbor for a flooded REQ. If an
//     expectation expires unforwarded, the watch buffer raises a drop (V_d).
func (d *liteworpDetector) Overheard(p *packet.Packet) {
	table := d.env.Table
	sender := p.Sender
	key := p.Key()

	// Fabrication check for forwarded packets on links we guard: sender
	// claims PrevHop gave it this packet, but we watch that link and
	// never saw it (strict mode: from that hop; default: from anyone).
	// This must be evaluated against the heard cache *before* the current
	// transmission is recorded into it.
	if p.PrevHop != sender && table.IsGuardOf(p.PrevHop, sender) {
		fabricated := false
		if d.cfg.StrictFabricationCheck {
			fabricated = !d.buffer.Heard(p.PrevHop, key)
		} else {
			fabricated = !d.buffer.HeardAny(key)
		}
		// Negative evidence ("I never heard this packet") is unreliable
		// while the guard's own radio is reporting corrupted receptions:
		// the missing transmission may be among the frames it failed to
		// decode. Real wormhole re-injections are caught in quiet
		// neighborhoods, where the tunnel wins the race precisely because
		// nothing else is on the air yet.
		if fabricated && d.buffer.RecentInterference(2*d.buffer.Config().Timeout) {
			fabricated = false
		}
		if fabricated {
			d.buffer.AccuseFabrication(sender, key)
		}
	}

	// Any overheard transmission of this packet by sender satisfies a
	// pending forwarding expectation on sender, and its heard record keeps
	// later flood copies from re-arming an expectation the node has
	// already met.
	d.buffer.MarkForwardedIdx(d.buffer.Intern(sender), key)

	// Do not arm forwarding expectations for packets transmitted by a
	// suspect: once this guard has heard any alert about the sender,
	// other neighbors may already have isolated it, and their refusal to
	// serve its traffic is compliance, not dropping.
	if d.env.Suspect(sender) {
		return
	}

	if d.cfg.DisableDropDetection {
		return
	}

	// Arm expectations on the nodes that must forward next.
	switch p.Type {
	case packet.TypeRouteReply:
		a := p.Receiver
		if a == p.FinalDest {
			return // destination consumes the REP
		}
		if !table.IsGuardOf(sender, a) || table.IsRevoked(a) || table.IsStale(a) {
			return // stale: a is presumed crashed, expecting a forward is futile
		}
		// The REP's route names a's next hop toward the source; if we
		// consider that next hop suspect or revoked, a may rightly
		// refuse to forward to it.
		if next, ok := repNextHop(p, a); ok {
			if table.IsRevoked(next) || d.env.Suspect(next) {
				return
			}
		}
		if aidx, _, ok := table.Lookup(a); ok {
			d.buffer.ExpectIdx(aidx, key)
		}
	case packet.TypeRouteRequest:
		// Broadcast: every common neighbor of us and the sender should
		// rebroadcast exactly once (unless it is the flood's origin,
		// its destination, or already listed on the accumulated route).
		//
		// IsGuardOf(sender, a) is loop-invariant here: a ranges over
		// active neighbors (a != self, HasEntry(a) holds) and a == sender
		// is skipped first, so the predicate reduces to HasEntry(sender)
		// (always true when sender is the host itself). Hoisting it takes
		// one table lookup instead of one per neighbor.
		if sender != table.Self() && !table.HasEntry(sender) {
			return
		}
		// Every copy of a flood reaches this loop, and most neighbors
		// are already watched or have already forwarded by the later
		// copies. The coverage mask names those (see watch.Buffer.Covered)
		// so the loop skips them without probing the watch tables; an
		// nbrIdx past the mask's 64 bits shifts to 0 and takes ExpectIdx.
		covered := d.buffer.Covered(key)
		nbrs := table.Neighbors()
		idxs := table.NeighborIdxs()
		for i, a := range nbrs {
			if covered>>uint32(idxs[i])&1 != 0 {
				continue
			}
			if a == sender || a == p.Origin || a == p.FinalDest {
				continue
			}
			if routeContains(p.Route, a) {
				continue
			}
			d.buffer.ExpectIdx(idxs[i], key)
		}
	}
}

// repNextHop returns the node a REP must be forwarded to by node a: the
// route entry preceding a (REPs travel destination -> source).
func repNextHop(p *packet.Packet, a field.NodeID) (field.NodeID, bool) {
	for i, x := range p.Route {
		if x == a {
			if i == 0 {
				return 0, false
			}
			return p.Route[i-1], true
		}
	}
	return 0, false
}

func routeContains(route []field.NodeID, id field.NodeID) bool {
	for _, x := range route {
		if x == id {
			return true
		}
	}
	return false
}
