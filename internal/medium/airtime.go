package medium

import (
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
)

// This file implements the medium's physical contention model, an
// alternative to the probabilistic LossModel: collisions emerge from
// actual frame airtime overlap at each receiver, the way they do in the
// paper's ns-2 substrate ("the simulation also accounts for losses due to
// natural collisions").
//
// Semantics:
//
//   - a frame occupies the air at every station in the transmitter's range
//     for [start, start+txDelay];
//   - a station that is covered by two temporally overlapping frames from
//     different transmitters decodes neither (no capture effect);
//   - with carrier sense enabled, a transmitter that can itself hear an
//     ongoing frame defers by a random backoff before trying again, up to
//     a bounded number of attempts (CSMA without RTS/CTS, as broadcast
//     traffic cannot use virtual carrier reservation).

// AirtimeConfig tunes the contention model.
type AirtimeConfig struct {
	// Enabled switches the medium from probabilistic losses to airtime
	// collisions. The LossModel still applies on top (so residual noise
	// can be modeled); set Loss to nil/NoLoss for pure contention.
	Enabled bool
	// CarrierSense makes transmitters defer while they hear an ongoing
	// frame.
	CarrierSense bool
	// MaxBackoff is the upper bound of the uniform deferral delay
	// (default: 4 frame times of a typical control packet).
	MaxBackoff time.Duration
	// MaxAttempts bounds carrier-sense retries before the frame is
	// dropped at the transmitter (default 8).
	MaxAttempts int
	// UnicastRetries is the MAC-level ARQ limit for addressed frames
	// (802.11 retransmits unlucky unicasts; broadcasts rely on flood
	// redundancy instead). Each retransmission is a full physical
	// broadcast, so overhearers get another chance too. Acknowledgments
	// are modeled as instantaneous and reliable. Default 3; negative
	// disables ARQ.
	UnicastRetries int
}

type airInterval struct {
	from       field.NodeID
	start, end time.Duration
	// corrupted marks the reception destroyed by an overlap.
	corrupted bool
	// refs counts the interval's holders: the receiving station's list
	// (until prune drops it) and the reception's pending delivery (until
	// it reads the verdict at arrival). The slot is reused at zero.
	refs uint8
}

// airState is the slab the reception intervals live in, so a reception
// costs no allocation once the slab has grown to the peak number of live
// intervals. Stations list their intervals by slot (station.air).
type airState struct {
	ivs  []airInterval
	free []int32
}

// release drops one holder of interval i, freeing the slot when it was the
// last.
func (a *airState) release(i int32) {
	a.ivs[i].refs--
	if a.ivs[i].refs == 0 {
		a.free = append(a.free, i)
	}
}

// prune drops intervals that ended before now from st's list. An ended
// interval overlaps nothing from now on, so pruning it changes no verdict.
func (a *airState) prune(st *station, now time.Duration) {
	keep := st.air[:0]
	for _, i := range st.air {
		if a.ivs[i].end > now {
			keep = append(keep, i)
		} else {
			a.release(i)
		}
	}
	st.air = keep
}

// add registers a reception interval at st, held by st's list and by the
// caller, and returns its slot, marking it and any overlapping interval
// from a different transmitter as corrupted. The caller releases its hold
// once it has read the verdict.
func (a *airState) add(st *station, from field.NodeID, start, end time.Duration) int32 {
	a.prune(st, start)
	iv := airInterval{from: from, start: start, end: end, refs: 2}
	for _, j := range st.air {
		other := &a.ivs[j]
		if other.from == from {
			continue
		}
		if other.start < end && start < other.end {
			other.corrupted = true
			iv.corrupted = true
		}
	}
	var i int32
	if n := len(a.free); n > 0 {
		i = a.free[n-1]
		a.free = a.free[:n-1]
		a.ivs[i] = iv
	} else {
		i = int32(len(a.ivs))
		a.ivs = append(a.ivs, iv)
	}
	st.air = append(st.air, i)
	return i
}

// busy reports whether station st currently hears an ongoing frame.
func (a *airState) busy(st *station, now time.Duration) bool {
	a.prune(st, now)
	for _, i := range st.air {
		if iv := &a.ivs[i]; iv.start <= now && now < iv.end {
			return true
		}
	}
	return false
}

// transmitAirtime carries a frame under the contention model.
func (m *Medium) transmitAirtime(tx field.NodeID, p *packet.Packet, rangeFactor float64, attempt int) error {
	if err := m.transmitAirtimeARQ(tx, p, rangeFactor, attempt, 0); err != nil {
		return err
	}
	// Surface the MAC no-ack signal for unicasts whose addressed receiver
	// cannot possibly acknowledge (down station or flapped link) — ARQ
	// retries would be futile.
	return m.unicastResult(tx, p)
}

func (m *Medium) transmitAirtimeARQ(tx field.NodeID, p *packet.Packet, rangeFactor float64, attempt, arq int) error {
	txSt, ok := m.stations[tx]
	if !ok || txSt.down {
		// The transmitter crashed between a carrier-sense deferral or ARQ
		// backoff and this retry.
		return nil
	}
	cfg := m.airCfg
	now := m.kernel.Now()
	if cfg.CarrierSense && m.air.busy(txSt, now) {
		if attempt >= m.airMaxAttempts() {
			m.stats.CarrierDrops++
			return nil
		}
		defer1 := m.kernel.UniformDuration(m.airMaxBackoff()) + time.Microsecond
		frame := p.Clone()
		m.kernel.Post(defer1, func() {
			_ = m.transmitAirtimeARQ(tx, frame, rangeFactor, attempt+1, arq)
		})
		m.stats.CarrierDeferrals++
		return nil
	}

	// Marshal once, decode once: receivers share the decoded frame and get
	// per-delivery struct copies (see Medium.transmit for the contract).
	wire, err := p.MarshalAppend(m.wireBuf[:0])
	if err != nil {
		return err
	}
	m.wireBuf = wire
	decoded, err := packet.Unmarshal(wire)
	if err != nil {
		return err
	}
	m.stats.Transmissions++
	m.stats.BytesOnAir += uint64(len(wire))
	m.countBytes(p.Type, len(wire))
	dur := m.TxDelay(len(wire))
	end := now + dur
	arrival := dur + m.cfg.PropagationDelay

	// Intervals and noise are settled here, at transmit time; the overlap
	// verdict, trace and ARQ are read at arrival by the batched delivery.
	d := m.newDelivery(tx, decoded)
	d.airtime, d.sent, d.target, d.rangeFactor, d.arq = true, p, p.Receiver, rangeFactor, arq
	for _, rx := range m.topo.NeighborsScaled(tx, rangeFactor) {
		st, ok := m.stations[rx]
		if !ok {
			continue
		}
		if !m.hears(st, tx, rx) {
			m.stats.DownSuppressed++
			continue
		}
		iv := m.air.add(st, tx, now, end)
		if m.fault != nil && m.fault(tx, rx, p) {
			m.air.release(iv) // no delivery will read this one
			m.stats.FaultDrops++
			if m.trace != nil {
				m.trace(TraceEvent{At: now, From: tx, To: rx, Packet: p, Lost: true})
			}
			continue
		}
		// Residual probabilistic loss still applies (noise floor).
		noise := m.kernel.Rand().Float64() < m.cfg.Loss.LossProb(tx, rx)
		// Only the addressed receiver can trigger an ARQ retransmission,
		// so only it needs a private deep copy of the frame.
		if rx == d.target {
			d.retransmit = p.Clone()
		}
		d.rxs = append(d.rxs, reception{st: st, rx: rx, iv: iv, noise: noise})
	}
	m.post(d, arrival)
	return nil
}

func (m *Medium) airUnicastRetries() int {
	switch {
	case m.airCfg.UnicastRetries > 0:
		return m.airCfg.UnicastRetries
	case m.airCfg.UnicastRetries < 0:
		return 0
	default:
		return 3
	}
}

func (m *Medium) airMaxBackoff() time.Duration {
	if m.airCfg.MaxBackoff > 0 {
		return m.airCfg.MaxBackoff
	}
	// Default: four airtime slots of a ~60-byte control frame.
	return 4 * m.TxDelay(60)
}

func (m *Medium) airMaxAttempts() int {
	if m.airCfg.MaxAttempts > 0 {
		return m.airCfg.MaxAttempts
	}
	return 8
}
