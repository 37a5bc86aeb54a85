package medium

import (
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
)

// reception is one receiver's slot in a delivery batch.
type reception struct {
	st *station
	rx field.NodeID
	// Airtime model only: the reception's slot in the interval slab (read
	// at arrival for the overlap verdict) and the residual noise-floor
	// loss drawn at transmit time.
	iv    int32
	noise bool
}

// delivery carries every surviving reception of one transmission to the
// shared arrival instant as a single kernel event.
//
// The batch is exact. The per-receiver events it replaces all had the same
// timestamp and consecutive sequence numbers, so no other event could run
// between them, and anything a receiver schedules gets a later sequence
// number under either design. Loss and noise are still drawn at transmit
// time in ascending receiver order, and ARQ backoffs at arrival in the same
// order, so the RNG sequence is unchanged. The one observable difference
// is Kernel.Processed, which now counts a transmission once — and a
// receiver that calls Kernel.Stop no longer halts the rest of its batch.
//
// Records are pooled on the medium: taken at transmit, recycled once run
// returns.
type delivery struct {
	m       *Medium
	tx      field.NodeID
	decoded *packet.Packet
	rxs     []reception
	// pkt is the one struct handed to each receiver in turn: a copy of
	// *decoded, zeroed again when the receiver returns.
	pkt packet.Packet

	// Airtime model only.
	airtime     bool
	sent        *packet.Packet // the sender's frame, as the trace reports it
	target      field.NodeID   // the frame's addressed receiver at transmit time
	retransmit  *packet.Packet // the ARQ copy, when target is in the batch
	rangeFactor float64
	arq         int

	// run is d.deliver, bound once when the record is first allocated so
	// posting it costs no closure.
	run func()
}

// newDelivery takes a record from the free list (or allocates one).
func (m *Medium) newDelivery(tx field.NodeID, decoded *packet.Packet) *delivery {
	if n := len(m.freeDeliveries); n > 0 {
		d := m.freeDeliveries[n-1]
		m.freeDeliveries[n-1] = nil
		m.freeDeliveries = m.freeDeliveries[:n-1]
		d.tx, d.decoded = tx, decoded
		return d
	}
	d := &delivery{m: m, tx: tx, decoded: decoded}
	d.run = d.deliver
	return d
}

// recycleDelivery clears a record's references and returns it to the free
// list, keeping its receiver slice's capacity.
func (m *Medium) recycleDelivery(d *delivery) {
	clear(d.rxs)
	d.rxs = d.rxs[:0]
	d.decoded, d.sent, d.retransmit = nil, nil, nil
	d.airtime = false
	m.freeDeliveries = append(m.freeDeliveries, d)
}

// post schedules the batch at arrival, or recycles it at once when no
// reception survived transmit.
func (m *Medium) post(d *delivery, arrival time.Duration) {
	if len(d.rxs) == 0 {
		m.recycleDelivery(d)
		return
	}
	m.kernel.Post(arrival, d.run)
}

// deliver runs the batch at its arrival instant: each reception in
// ascending receiver order, with every check the medium makes at delivery
// time applied per receiver.
func (d *delivery) deliver() {
	m := d.m
	for i := range d.rxs {
		r := &d.rxs[i]
		if r.st.down {
			// The receiver crashed while the frame was in flight.
			m.stats.DownSuppressed++
			if d.airtime {
				m.air.release(r.iv)
			}
			continue
		}
		if d.airtime && !d.airtimeReceive(r) {
			continue
		}
		m.stats.Deliveries++
		// The slice sections (Route, Payload, MAC) are shared read-only
		// among this frame's receivers; stacks clone before mutating.
		d.pkt = *d.decoded
		r.st.recv(&d.pkt)
		d.pkt = packet.Packet{}
	}
	m.recycleDelivery(d)
}

// airtimeReceive settles one airtime reception at arrival: it traces the
// attempt, and on an overlap or noise loss counts it, raises the
// CRC-failure signal and, for the addressed receiver of a unicast, schedules
// the MAC ARQ retransmission. It reports whether the frame was decoded.
func (d *delivery) airtimeReceive(r *reception) bool {
	m := d.m
	corrupted := m.air.ivs[r.iv].corrupted
	m.air.release(r.iv)
	lost := corrupted || r.noise
	if m.trace != nil {
		m.trace(TraceEvent{At: m.kernel.Now(), From: d.tx, To: r.rx, Packet: d.sent, Lost: lost})
	}
	if !lost {
		return true
	}
	m.stats.Losses++
	if corrupted {
		m.stats.AirtimeCollisions++
		if m.corrupted != nil {
			m.corrupted(r.rx)
		}
	}
	// MAC ARQ: the addressed receiver of a unicast frame failed to
	// acknowledge; retransmit after a backoff.
	if r.rx == d.target && d.arq < m.airUnicastRetries() {
		m.stats.ARQRetransmissions++
		backoff := m.kernel.UniformDuration(m.airMaxBackoff()) + time.Microsecond
		tx, frame, rangeFactor, arq := d.tx, d.retransmit, d.rangeFactor, d.arq+1
		m.kernel.Post(backoff, func() {
			_ = m.transmitAirtimeARQ(tx, frame, rangeFactor, 0, arq)
		})
	}
	return false
}
