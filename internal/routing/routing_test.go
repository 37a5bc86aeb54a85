package routing

import (
	"errors"
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/medium"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// harness runs plain routers (no LITEWORP checks) over a medium.
type harness struct {
	kernel  *sim.Kernel
	topo    *field.Field
	med     *medium.Medium
	routers map[field.NodeID]*Router
}

func chain(t testing.TB, n int) *field.Field {
	t.Helper()
	f := field.New(float64(n*20+40), 40, 30)
	for i := 1; i <= n; i++ {
		if err := f.Place(field.NodeID(i), field.Point{X: float64(i * 20), Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func newHarness(t testing.TB, topo *field.Field, seed int64, cfg Config, events func(field.NodeID) Events) *harness {
	t.Helper()
	k := sim.New(seed)
	med := medium.New(k, topo, medium.Config{BandwidthBps: 250_000})
	h := &harness{kernel: k, topo: topo, med: med, routers: make(map[field.NodeID]*Router)}
	for _, id := range topo.IDs() {
		id := id
		var ev Events
		if events != nil {
			ev = events(id)
		}
		rt := New(k, id, cfg, med.Broadcast, ev)
		h.routers[id] = rt
		if err := med.Attach(id, func(p *packet.Packet) { dispatch(rt, p) }); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// dispatch is the minimal node layer: route REQ floods and frames addressed
// to this node into the router.
func dispatch(rt *Router, p *packet.Packet) {
	switch p.Type {
	case packet.TypeRouteRequest:
		rt.HandleRouteRequest(p)
	case packet.TypeRouteReply:
		if p.Receiver == rt.Self() {
			rt.HandleRouteReply(p)
		}
	case packet.TypeData:
		if p.Receiver == rt.Self() {
			_ = rt.HandleData(p)
		}
	}
}

func TestEndToEndDelivery(t *testing.T) {
	var delivered []*packet.Packet
	h := newHarness(t, chain(t, 5), 1, Config{}, func(id field.NodeID) Events {
		if id != 5 {
			return Events{}
		}
		return Events{DataDelivered: func(p *packet.Packet) { delivered = append(delivered, p.Clone()) }}
	})
	if err := h.routers[1].Send(5, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(delivered))
	}
	p := delivered[0]
	if string(p.Payload) != "payload" {
		t.Fatalf("payload = %q", p.Payload)
	}
	wantRoute := []field.NodeID{1, 2, 3, 4, 5}
	if len(p.Route) != len(wantRoute) {
		t.Fatalf("route = %v, want %v", p.Route, wantRoute)
	}
	for i := range wantRoute {
		if p.Route[i] != wantRoute[i] {
			t.Fatalf("route = %v, want %v", p.Route, wantRoute)
		}
	}
	// The last transmitter is node 4, which announces it received the
	// packet from node 3.
	if p.Sender != 4 || p.PrevHop != 3 {
		t.Fatalf("last hop sender=%d prev=%d, want 4,3", p.Sender, p.PrevHop)
	}
}

func TestRouteEstablishedEvent(t *testing.T) {
	var routes [][]field.NodeID
	h := newHarness(t, chain(t, 4), 2, Config{}, func(id field.NodeID) Events {
		if id != 1 {
			return Events{}
		}
		return Events{RouteEstablished: func(dest field.NodeID, route []field.NodeID) {
			routes = append(routes, route)
		}}
	})
	if err := h.routers[1].Send(4, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(routes) != 1 {
		t.Fatalf("RouteEstablished fired %d times", len(routes))
	}
	if !h.routers[1].HasRoute(4) {
		t.Fatal("route not cached")
	}
	if got := h.routers[1].Route(4); len(got) != 4 {
		t.Fatalf("Route = %v", got)
	}
}

func TestEachNodeForwardsRequestOnce(t *testing.T) {
	h := newHarness(t, chain(t, 6), 3, Config{}, nil)
	if err := h.routers[1].Send(6, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for id, rt := range h.routers {
		st := rt.Stats()
		if id == 1 || id == 6 {
			continue
		}
		if st.RequestsForwarded != 1 {
			t.Fatalf("node %d forwarded REQ %d times, want 1", id, st.RequestsForwarded)
		}
	}
	if st := h.routers[6].Stats(); st.RepliesOriginated != 1 {
		t.Fatalf("destination sent %d replies, want 1", st.RepliesOriginated)
	}
}

func TestCachedRouteAvoidsRediscovery(t *testing.T) {
	h := newHarness(t, chain(t, 4), 4, Config{}, nil)
	if err := h.routers[1].Send(4, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	reqs := h.routers[1].Stats().RequestsOriginated
	if err := h.routers[1].Send(4, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := h.routers[1].Stats().RequestsOriginated; got != reqs {
		t.Fatalf("cached send triggered rediscovery: %d -> %d", reqs, got)
	}
	if got := h.routers[4].Stats().DataDelivered; got != 2 {
		t.Fatalf("delivered = %d, want 2", got)
	}
}

func TestRouteEviction(t *testing.T) {
	evicted := 0
	cfg := Config{RouteTimeout: 5 * time.Second}
	h := newHarness(t, chain(t, 3), 5, cfg, func(id field.NodeID) Events {
		if id != 1 {
			return Events{}
		}
		return Events{RouteEvicted: func(field.NodeID) { evicted++ }}
	})
	if err := h.routers[1].Send(3, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !h.routers[1].HasRoute(3) {
		t.Fatal("route missing before timeout")
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if h.routers[1].HasRoute(3) {
		t.Fatal("route survived timeout")
	}
	if evicted != 1 {
		t.Fatalf("RouteEvicted fired %d times", evicted)
	}
	// A new send re-discovers.
	before := h.routers[1].Stats().RequestsOriginated
	if err := h.routers[1].Send(3, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if h.routers[1].Stats().RequestsOriginated <= before {
		t.Fatal("no rediscovery after eviction")
	}
}

func TestDiscoveryFailureReportsSendFailed(t *testing.T) {
	// Two disconnected islands: 1-2 and a far-away 3.
	f := field.New(1000, 40, 30)
	for id, x := range map[field.NodeID]float64{1: 0, 2: 20, 3: 900} {
		if err := f.Place(id, field.Point{X: x, Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	var failedDest field.NodeID
	var discarded int
	cfg := Config{RequestTimeout: time.Second, MaxRetries: 1}
	h := newHarness(t, f, 6, cfg, func(id field.NodeID) Events {
		if id != 1 {
			return Events{}
		}
		return Events{SendFailed: func(d field.NodeID, n int) { failedDest = d; discarded = n }}
	})
	if err := h.routers[1].Send(3, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := h.routers[1].Send(3, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if failedDest != 3 || discarded != 2 {
		t.Fatalf("SendFailed dest=%d n=%d, want 3,2", failedDest, discarded)
	}
	if st := h.routers[1].Stats(); st.SendsFailed != 2 {
		t.Fatalf("SendsFailed = %d", st.SendsFailed)
	}
	// Retried once => two REQ floods.
	if st := h.routers[1].Stats(); st.RequestsOriginated != 2 {
		t.Fatalf("RequestsOriginated = %d, want 2", st.RequestsOriginated)
	}
}

func TestSendToSelfRejected(t *testing.T) {
	h := newHarness(t, chain(t, 2), 7, Config{}, nil)
	if err := h.routers[1].Send(1, []byte("x")); !errors.Is(err, ErrSelfSend) {
		t.Fatalf("err = %v", err)
	}
}

func TestQueueFull(t *testing.T) {
	cfg := Config{MaxQueue: 2, RequestTimeout: time.Hour}
	// Disconnected destination so discovery never resolves.
	f := field.New(1000, 40, 30)
	f.Place(1, field.Point{X: 0, Y: 0})
	f.Place(2, field.Point{X: 900, Y: 0})
	h := newHarness(t, f, 8, cfg, nil)
	if err := h.routers[1].Send(2, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := h.routers[1].Send(2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := h.routers[1].Send(2, []byte("c")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v", err)
	}
}

func TestQueuedPayloadsFlushOnRoute(t *testing.T) {
	delivered := 0
	h := newHarness(t, chain(t, 4), 9, Config{}, func(id field.NodeID) Events {
		if id != 4 {
			return Events{}
		}
		return Events{DataDelivered: func(*packet.Packet) { delivered++ }}
	})
	for i := 0; i < 5; i++ {
		if err := h.routers[1].Send(4, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.kernel.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 5 {
		t.Fatalf("delivered = %d, want 5", delivered)
	}
	// Only one discovery for the burst.
	if st := h.routers[1].Stats(); st.RequestsOriginated != 1 {
		t.Fatalf("RequestsOriginated = %d, want 1", st.RequestsOriginated)
	}
}

func TestNeighborsRouteDirectly(t *testing.T) {
	delivered := 0
	h := newHarness(t, chain(t, 2), 10, Config{}, func(id field.NodeID) Events {
		if id != 2 {
			return Events{}
		}
		return Events{DataDelivered: func(*packet.Packet) { delivered++ }}
	})
	if err := h.routers[1].Send(2, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatal("neighbor delivery failed")
	}
	route := h.routers[1].Route(2)
	if len(route) != 2 || route[0] != 1 || route[1] != 2 {
		t.Fatalf("route = %v", route)
	}
}

func TestHandleDataNotOnRoute(t *testing.T) {
	h := newHarness(t, chain(t, 3), 11, Config{}, nil)
	p := &packet.Packet{
		Type: packet.TypeData, Seq: 1, Origin: 1, FinalDest: 3,
		Sender: 1, PrevHop: 1, Receiver: 2,
		Route: []field.NodeID{1, 9, 3}, // node 2 not on route
	}
	if err := h.routers[2].HandleData(p); !errors.Is(err, ErrNotOnRoute) {
		t.Fatalf("err = %v", err)
	}
}

func TestEvictRouteManually(t *testing.T) {
	h := newHarness(t, chain(t, 3), 12, Config{}, nil)
	if err := h.routers[1].Send(3, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !h.routers[1].HasRoute(3) {
		t.Fatal("no route")
	}
	h.routers[1].EvictRoute(3)
	if h.routers[1].HasRoute(3) {
		t.Fatal("route survived manual eviction")
	}
	if got := h.routers[1].CachedDestinations(); len(got) != 0 {
		t.Fatalf("CachedDestinations = %v", got)
	}
	// Evicting again is a no-op.
	h.routers[1].EvictRoute(3)
}

func TestDataForwardedEventAndPrevHopAnnouncement(t *testing.T) {
	type fwd struct {
		sender, prev, next field.NodeID
	}
	var fwds []fwd
	h := newHarness(t, chain(t, 4), 13, Config{}, func(id field.NodeID) Events {
		return Events{DataForwarded: func(p *packet.Packet, next field.NodeID) {
			fwds = append(fwds, fwd{sender: p.Sender, prev: p.PrevHop, next: next})
		}}
	})
	if err := h.routers[1].Send(4, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fwds) != 2 {
		t.Fatalf("forwards = %v, want 2 (nodes 2 and 3)", fwds)
	}
	// Node 2 forwards announcing prev hop 1; node 3 announces prev hop 2.
	if fwds[0] != (fwd{sender: 2, prev: 1, next: 3}) {
		t.Fatalf("first forward = %+v", fwds[0])
	}
	if fwds[1] != (fwd{sender: 3, prev: 2, next: 4}) {
		t.Fatalf("second forward = %+v", fwds[1])
	}
}

func TestDeterministicRouting(t *testing.T) {
	run := func() Stats {
		h := newHarness(t, chain(t, 6), 42, Config{}, nil)
		if err := h.routers[1].Send(6, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := h.kernel.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		return h.routers[1].Stats()
	}
	if run() != run() {
		t.Fatal("routing nondeterministic under equal seeds")
	}
}

func TestGridTopologyShortishRoutes(t *testing.T) {
	// 4x4 grid, 20m spacing, range 30 (horizontal/vertical + diagonal links).
	f := field.New(200, 200, 30)
	id := field.NodeID(1)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if err := f.Place(id, field.Point{X: float64(x * 20), Y: float64(y * 20)}); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	delivered := 0
	h := newHarness(t, f, 14, Config{}, func(nid field.NodeID) Events {
		if nid != 16 {
			return Events{}
		}
		return Events{DataDelivered: func(*packet.Packet) { delivered++ }}
	})
	if err := h.routers[1].Send(16, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatal("grid delivery failed")
	}
	route := h.routers[1].Route(16)
	// Corner to corner with diagonal links is 3 hops minimum (route len 4);
	// first-arrival routing should find something close.
	if len(route) < 4 || len(route) > 7 {
		t.Fatalf("route length %d outside plausible band: %v", len(route), route)
	}
}
