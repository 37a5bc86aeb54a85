package routing

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
)

func hopCfg() Config {
	return Config{HopByHop: true}
}

func TestHopByHopEndToEnd(t *testing.T) {
	var delivered []*packet.Packet
	h := newHarness(t, chain(t, 5), 21, hopCfg(), func(id field.NodeID) Events {
		if id != 5 {
			return Events{}
		}
		return Events{DataDelivered: func(p *packet.Packet) { delivered = append(delivered, p.Clone()) }}
	})
	if err := h.routers[1].Send(5, []byte("aodv")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 1 {
		t.Fatalf("delivered %d packets", len(delivered))
	}
	// Data packets carry no source route in hop-by-hop mode.
	if len(delivered[0].Route) != 0 {
		t.Fatalf("hop-by-hop data carries a route: %v", delivered[0].Route)
	}
	if string(delivered[0].Payload) != "aodv" {
		t.Fatalf("payload %q", delivered[0].Payload)
	}
}

func TestHopByHopTablesInstalled(t *testing.T) {
	h := newHarness(t, chain(t, 4), 22, hopCfg(), nil)
	if err := h.routers[1].Send(4, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Source knows its first hop.
	if next, ok := h.routers[1].NextHop(4); !ok || next != 2 {
		t.Fatalf("source NextHop = %d,%v", next, ok)
	}
	// Intermediate nodes learned both directions while relaying the REP.
	if next, ok := h.routers[2].NextHop(4); !ok || next != 3 {
		t.Fatalf("node 2 toward 4: %d,%v", next, ok)
	}
	if next, ok := h.routers[2].NextHop(1); !ok || next != 1 {
		t.Fatalf("node 2 toward 1: %d,%v", next, ok)
	}
	if next, ok := h.routers[3].NextHop(1); !ok || next != 2 {
		t.Fatalf("node 3 toward 1: %d,%v", next, ok)
	}
}

func TestHopByHopEntriesExpire(t *testing.T) {
	cfg := hopCfg()
	cfg.RouteTimeout = 3 * time.Second
	h := newHarness(t, chain(t, 3), 23, cfg, nil)
	if err := h.routers[1].Send(3, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.routers[2].NextHop(3); !ok {
		t.Fatal("entry missing before timeout")
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.routers[2].NextHop(3); ok {
		t.Fatal("entry survived timeout")
	}
}

func TestHopByHopDataWithoutEntryFails(t *testing.T) {
	h := newHarness(t, chain(t, 3), 24, hopCfg(), nil)
	p := &packet.Packet{
		Type: packet.TypeData, Seq: 9, Origin: 1, FinalDest: 3,
		Sender: 1, PrevHop: 1, Receiver: 2,
	}
	if err := h.routers[2].HandleData(p); err == nil {
		t.Fatal("forwarding without a table entry succeeded")
	}
}

func TestHopByHopSourceStillSeesFullRoute(t *testing.T) {
	// The REP still carries the accumulated route, so the source can
	// classify the path (wormhole/phantom metrics stay meaningful).
	var got []field.NodeID
	h := newHarness(t, chain(t, 4), 25, hopCfg(), func(id field.NodeID) Events {
		if id != 1 {
			return Events{}
		}
		return Events{RouteEstablished: func(_ field.NodeID, route []field.NodeID) { got = route }}
	})
	if err := h.routers[1].Send(4, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("route at source = %v", got)
	}
}

func TestHopByHopMultipleFlows(t *testing.T) {
	delivered := map[field.NodeID]int{}
	h := newHarness(t, chain(t, 6), 26, hopCfg(), func(id field.NodeID) Events {
		return Events{DataDelivered: func(p *packet.Packet) { delivered[id]++ }}
	})
	// Crossing flows: 1 -> 6 and 6 -> 1 and 2 -> 5.
	if err := h.routers[1].Send(6, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := h.routers[6].Send(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := h.routers[2].Send(5, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := h.kernel.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if delivered[6] != 1 || delivered[1] != 1 || delivered[5] != 1 {
		t.Fatalf("deliveries = %v", delivered)
	}
}
