package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/flatmap"
	"liteworp/internal/keys"
	"liteworp/internal/medium"
	"liteworp/internal/neighbor"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
	"liteworp/internal/watch"
)

// probeSize is what the layer probes take from the workload's own counts.
type probeSize struct {
	seed        int64
	pending     int                    // kernel queue depth at the horizon
	occupancy   int                    // watch.peak_entries
	degree      float64                // mean discovered neighbor count
	bytesByType map[packet.Type]uint64 // on-air packet mix
	airtime     bool                   // the workload's channel model
}

// probeBatches is how many timed batches each probe runs; the median batch
// is reported, so a batch hit by a GC cycle or a preemption drops out.
const probeBatches = 9

// probeScale scales every probe's operation count; tests shrink it.
var probeScale = 1.0

// timeOps runs setup then n calls of op per batch, and returns the median
// batch's nanoseconds per op.
func timeOps(n int, setup func(), op func(i int)) float64 {
	n = max(1, int(float64(n)*probeScale))
	per := make([]float64, probeBatches)
	for b := range per {
		setup()
		t := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		per[b] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// runProbes times direct calls into the exported functions of the sim,
// flatmap, watch, neighbor, medium, packet and keys layers.
func runProbes(sz probeSize) map[string]float64 {
	rng := rand.New(rand.NewSource(sz.seed))
	deg := max(1, int(math.Round(sz.degree)))
	out := map[string]float64{}

	// sim: one Post and one Step against a queue as deep as the
	// workload's at its horizon, so depth stays constant.
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(rng.Int63n(int64(time.Second)))
	}
	var k *sim.Kernel
	noop := func() {}
	out["probe.sim.post_step_ns"] = timeOps(200_000, func() {
		k = sim.New(sz.seed)
		for i := 0; i < max(sz.pending, 1); i++ {
			k.Post(time.Duration(rng.Int63n(int64(100*time.Second))), noop)
		}
	}, func(i int) {
		k.Post(delays[i&4095], noop)
		k.Step()
	})

	// flatmap: tables holding the watch layer's peak occupancy (at least
	// 64 keys, the smallest table a node keeps busy).
	occ := max(sz.occupancy, 64)
	fkeys := make([]flatmap.Key, 2*occ)
	for i := range fkeys {
		fkeys[i] = flatmap.PackIdxKey(int32(rng.Intn(deg)), uint32(rng.Intn(1000)+1), uint64(i+1), uint8(packet.TypeRouteRequest))
	}
	tab := &flatmap.Table[int64]{}
	for i := 0; i < occ; i++ {
		tab.Put(fkeys[i], int64(i))
	}
	var sink int64
	out["probe.flatmap.get_ns"] = timeOps(200_000, func() {}, func(i int) {
		// Half the probes hit, half miss.
		v, _ := tab.Get(fkeys[i%len(fkeys)])
		sink += v
	})
	out["probe.flatmap.put_ns"] = timeOps(100_000, func() {}, func(i int) {
		// Fill fresh tables to the occupancy, growth included.
		if i%occ == 0 {
			tab = &flatmap.Table[int64]{}
		}
		tab.Put(fkeys[i%occ], int64(i))
	})
	// Sweep cost per entry held: each op sweeps one pre-filled table in
	// which half the entries have expired.
	tables := make([]*flatmap.ExpiryTable, max(1, 50_000/occ))
	out["probe.flatmap.sweep_ns"] = timeOps(len(tables), func() {
		for s := range tables {
			et := &flatmap.ExpiryTable{}
			for i := 0; i < occ; i++ {
				et.Put(fkeys[i], time.Duration(i))
			}
			tables[s] = et
		}
	}, func(s int) {
		tables[s].Sweep(time.Duration(occ / 2))
	}) / float64(occ)

	// watch: one arm-and-match cycle (ExpectIdx on a fresh packet, then
	// MarkForwardedIdx on the oldest pending one) at peak occupancy, and
	// RecordHeardIdx of fresh packets.
	var buf *watch.Buffer
	var fidx []int32
	wkey := func(i int) packet.Key {
		return packet.Key{Type: packet.TypeRouteReply, Origin: field.NodeID(i%997 + 1), Seq: uint64(i + 1)}
	}
	newBuffer := func() {
		buf = watch.New(sim.New(sz.seed), watch.Config{}, nil, nil)
		fidx = fidx[:0]
		for j := 0; j < deg; j++ {
			fidx = append(fidx, buf.Intern(field.NodeID(j+2)))
		}
		for i := 0; i < sz.occupancy; i++ {
			buf.ExpectIdx(fidx[i%deg], wkey(i))
		}
	}
	out["probe.watch.expect_ns"] = timeOps(50_000, newBuffer, func(i int) {
		j := i + sz.occupancy
		buf.ExpectIdx(fidx[j%deg], wkey(j))
		buf.MarkForwardedIdx(fidx[i%deg], wkey(i))
	})
	out["probe.watch.record_heard_ns"] = timeOps(50_000, newBuffer, func(i int) {
		buf.RecordHeardIdx(fidx[i%deg], wkey(i))
	})

	// neighbor: Lookup in a table of deg direct neighbors, each announcing
	// deg neighbors of its own; a third of the lookups are second-hop IDs.
	tbl := neighbor.NewTable(1)
	ids := make([]field.NodeID, 0, 3*deg)
	for j := 0; j < deg; j++ {
		id := field.NodeID(j + 2)
		tbl.AddDirect(id)
		ids = append(ids, id, id)
	}
	for j := 0; j < deg; j++ {
		set := make([]field.NodeID, deg)
		for m := range set {
			set[m] = field.NodeID(2 + rng.Intn(3*deg))
		}
		tbl.SetNeighborSet(field.NodeID(j+2), set)
		ids = append(ids, field.NodeID(2+deg+rng.Intn(2*deg)))
	}
	var hits int
	out["probe.neighbor.lookup_ns"] = timeOps(200_000, func() {}, func(i int) {
		if _, _, ok := tbl.Lookup(ids[i%len(ids)]); ok {
			hits++
		}
	})

	// medium: one broadcast from a station with deg neighbors in range,
	// delivered to all of them, on the workload's channel model.
	var mk *sim.Kernel
	var med *medium.Medium
	req := &packet.Packet{
		Type: packet.TypeRouteRequest, Origin: 1, Sender: 1, PrevHop: 1,
		Receiver: packet.Broadcast, FinalDest: 99, Route: []field.NodeID{1},
	}
	out["probe.medium.broadcast_ns"] = timeOps(20_000, func() {
		mk = sim.New(sz.seed)
		f := field.New(100, 100, 30)
		must(f.Place(1, field.Point{X: 50, Y: 50}))
		for j := 0; j < deg; j++ {
			a := 2 * math.Pi * float64(j) / float64(deg)
			must(f.Place(field.NodeID(j+2), field.Point{X: 50 + 15*math.Cos(a), Y: 50 + 15*math.Sin(a)}))
		}
		med = medium.New(mk, f, medium.DefaultConfig())
		if sz.airtime {
			med.SetAirtime(medium.AirtimeConfig{Enabled: true, CarrierSense: true})
		}
		for _, id := range f.IDs() {
			must(med.Attach(id, func(*packet.Packet) {}))
		}
	}, func(i int) {
		req.Seq = uint64(i + 1)
		must(med.Broadcast(req))
		must(mk.Run())
	})

	// packet: Marshal and Unmarshal over a batch whose type mix follows
	// the workload's on-air bytes by type.
	pkts := packetMix(sz.bytesByType, deg)
	wires := make([][]byte, len(pkts))
	for i, p := range pkts {
		w, err := p.Marshal()
		must(err)
		wires[i] = w
	}
	var wbuf []byte
	out["probe.packet.marshal_ns"] = timeOps(100_000, func() {}, func(i int) {
		var err error
		wbuf, err = pkts[i%len(pkts)].MarshalAppend(wbuf[:0])
		must(err)
	})
	out["probe.packet.unmarshal_ns"] = timeOps(100_000, func() {}, func(i int) {
		_, err := packet.Unmarshal(wires[i%len(wires)])
		must(err)
	})

	// keys: pairwise MAC Sign and Verify of a HELLO-REPLY across deg peers.
	server := keys.NewKeyServer(uint64(sz.seed))
	ring := keys.NewRing(1, server)
	signed := make([]*packet.Packet, deg)
	for j := range signed {
		peer := field.NodeID(j + 2)
		p := &packet.Packet{Type: packet.TypeHelloReply, Origin: peer, Sender: peer, PrevHop: peer, Receiver: 1, FinalDest: 1, Seq: uint64(j)}
		must(keys.NewRing(peer, server).Sign(p, 1))
		signed[j] = p
	}
	reply := &packet.Packet{Type: packet.TypeHelloReply, Origin: 1, Sender: 1, PrevHop: 1}
	out["probe.keys.sign_ns"] = timeOps(100_000, func() {}, func(i int) {
		peer := field.NodeID(i%deg + 2)
		reply.Receiver, reply.FinalDest, reply.Seq = peer, peer, uint64(i)
		must(ring.Sign(reply, peer))
	})
	var valid int
	out["probe.keys.verify_ns"] = timeOps(100_000, func() {}, func(i int) {
		j := i % deg
		if ring.Verify(signed[j], field.NodeID(j+2)) {
			valid++
		}
	})
	if valid == 0 || hits == 0 || sink < 0 {
		panic("probe: keys or neighbor probe did no useful work")
	}
	return out
}

// packetMix builds 64 representative frames whose type counts are
// proportional to the on-air bytes of each type.
func packetMix(bytesByType map[packet.Type]uint64, deg int) []*packet.Packet {
	const batch = 64
	types := make([]packet.Type, 0, len(bytesByType))
	var total uint64
	for t, n := range bytesByType {
		types = append(types, t)
		total += n
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	route := []field.NodeID{3, 9, 14, 22, 31}
	var out []*packet.Packet
	for _, t := range types {
		count := int(math.Round(batch * float64(bytesByType[t]) / float64(total)))
		for c := 0; c < count; c++ {
			p := &packet.Packet{Type: t, Origin: 3, Sender: 9, PrevHop: 3, Receiver: 14, FinalDest: 31, Seq: uint64(c + 1)}
			switch t {
			case packet.TypeHello:
				p.Receiver = packet.Broadcast
			case packet.TypeHelloReply:
				p.MAC = make([]byte, packet.MACSize)
			case packet.TypeNeighborList:
				p.Payload = make([]byte, 4*deg)
				p.MAC = make([]byte, packet.MACSize)
			case packet.TypeRouteRequest:
				p.Receiver = packet.Broadcast
				p.Route = route[:3]
			case packet.TypeRouteReply, packet.TypeRouteError:
				p.Route = route
			case packet.TypeData:
				p.Route = route
				p.Payload = make([]byte, 32)
			case packet.TypeAlert:
				p.Payload = make([]byte, 8)
				p.MAC = make([]byte, packet.MACSize)
			case packet.TypeTunnelEncap:
				p.Payload = make([]byte, 64)
			}
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		out = append(out, &packet.Packet{Type: packet.TypeRouteRequest, Origin: 3, Sender: 3, PrevHop: 3, Receiver: packet.Broadcast, Route: route[:1]})
	}
	return out
}

// must panics on an error no correct probe input produces; simulate's
// caller reports it as a failed run.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
