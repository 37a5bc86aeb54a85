package medium

import (
	"fmt"
	"math"
	"testing"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// starMedium puts node 1 at the center of a ring of degree receivers, all
// in its range, and returns a broadcast REQ from the center. airtime
// selects the contention model (with carrier sense) over the loss model.
func starMedium(tb testing.TB, degree int, airtime bool) (*sim.Kernel, *Medium, *packet.Packet) {
	tb.Helper()
	f := field.New(100, 100, 30)
	if err := f.Place(1, field.Point{X: 50, Y: 50}); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < degree; i++ {
		a := 2 * math.Pi * float64(i) / float64(degree)
		pt := field.Point{X: 50 + 20*math.Cos(a), Y: 50 + 20*math.Sin(a)}
		if err := f.Place(field.NodeID(i+2), pt); err != nil {
			tb.Fatal(err)
		}
	}
	k := sim.New(1)
	cfg := Config{}
	if airtime {
		cfg.Airtime = AirtimeConfig{Enabled: true, CarrierSense: true}
	}
	m := New(k, f, cfg)
	for _, id := range f.IDs() {
		if err := m.Attach(id, func(*packet.Packet) {}); err != nil {
			tb.Fatal(err)
		}
	}
	p := &packet.Packet{
		Type: packet.TypeRouteRequest, Sender: 1, PrevHop: 1, Origin: 1,
		Receiver: packet.Broadcast, Route: []field.NodeID{1},
	}
	return k, m, p
}

// broadcastAndDrain transmits p and runs the kernel until every delivery
// has fired.
func broadcastAndDrain(tb testing.TB, k *sim.Kernel, m *Medium, p *packet.Packet) {
	tb.Helper()
	if err := m.Broadcast(p); err != nil {
		tb.Fatal(err)
	}
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
}

// warmBroadcastAllocs measures the allocations of one warm broadcast to
// degree receivers, delivery included.
func warmBroadcastAllocs(t *testing.T, degree int, airtime bool) float64 {
	k, m, p := starMedium(t, degree, airtime)
	// Warm the wire buffer, the delivery record pool, the interval slab
	// and the kernel's event pool.
	broadcastAndDrain(t, k, m, p)
	if got := m.Stats().Deliveries; got != uint64(degree) {
		t.Fatalf("warm-up broadcast reached %d of %d receivers", got, degree)
	}
	return testing.AllocsPerRun(200, func() { broadcastAndDrain(t, k, m, p) })
}

// deliveryAllocBudget is what a warm broadcast may allocate whatever its
// receiver count: the single Unmarshal (packet struct + route slice). The
// whole transmission is one pooled delivery record posted as one kernel
// event, and every receiver is handed the record's own packet struct.
const deliveryAllocBudget = 2

// assertDeliveryAllocs is the delivery-path allocation regression pin: a
// warm broadcast stays within deliveryAllocBudget, and 8 receivers cost
// exactly what 2 do. Before batching, every receiver cost a delivery
// closure plus a struct copy; a budget increase, or a count that grows
// with degree, means the hot path regressed.
func assertDeliveryAllocs(t *testing.T, airtime bool) {
	two := warmBroadcastAllocs(t, 2, airtime)
	eight := warmBroadcastAllocs(t, 8, airtime)
	if two > deliveryAllocBudget {
		t.Fatalf("2-receiver broadcast allocates %.1f objects, budget %d", two, deliveryAllocBudget)
	}
	if eight != two {
		t.Fatalf("allocations grow with receivers: 2 receivers %.1f, 8 receivers %.1f", two, eight)
	}
}

func TestBroadcastDeliveryAllocBudget(t *testing.T) { assertDeliveryAllocs(t, false) }

func TestAirtimeBroadcastDeliveryAllocBudget(t *testing.T) { assertDeliveryAllocs(t, true) }

// BenchmarkBroadcastDelivery times one broadcast and its deliveries under
// both channel models at degree 9 (about 1.5·ln N at N=400, the dense-quiet
// workload) and 24, the degrees BenchmarkOverheardREQFlood uses. ns/rx is
// the cost per reception.
func BenchmarkBroadcastDelivery(b *testing.B) {
	for _, model := range []struct {
		name    string
		airtime bool
	}{{"loss", false}, {"airtime", true}} {
		for _, degree := range []int{9, 24} {
			b.Run(fmt.Sprintf("%s/degree=%d", model.name, degree), func(b *testing.B) {
				k, m, p := starMedium(b, degree, model.airtime)
				broadcastAndDrain(b, k, m, p)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					broadcastAndDrain(b, k, m, p)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*degree), "ns/rx")
			})
		}
	}
}
