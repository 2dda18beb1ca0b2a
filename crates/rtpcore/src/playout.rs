//! Adaptive playout (jitter) buffer.
//!
//! Receivers do not play packets as they arrive; they delay the first
//! packet of a talkspurt by a target amount and then play at a fixed
//! 20 ms cadence, absorbing network jitter. Packets that miss their
//! deadline are concealed (see [`crate::plc`]); packets that arrive after
//! their slot has played are late drops. The E-model's effective loss is
//! network loss *plus* these late drops, and its delay includes the buffer
//! depth — this module is where those two quantities actually arise.
//!
//! Storage is a fixed-capacity ring indexed by frame number: slot
//! `index % RING_CAPACITY` holds the (shared, never-copied) payload for
//! frame `index`. Because frames play strictly in order, the ring can
//! only hold indices in `[next_index, next_index + RING_CAPACITY)`, so a
//! slot is unambiguous — no tree, no rebalancing, and `pull_due` is O(due
//! slots). Payloads are `Arc<[u8]>`, keeping the packetizer → relay →
//! playout → scoring path zero-copy end to end.

use crate::jitter::JitterEstimator;
use crate::packet::RtpHeader;
use std::sync::Arc;

/// Frame period in seconds (20 ms, fixed by the G.711 media plane).
const FRAME_S: f64 = 0.020;

/// Ring capacity in frames: the reorder/jitter horizon the buffer can
/// hold, ≈ 20.5 s of audio. A packet further than this ahead of the
/// playout point cannot be stored and counts as an overflow drop; real
/// jitter is three orders of magnitude smaller.
const RING_CAPACITY: usize = 1024;

/// What happened at one playout slot or insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlayoutEvent {
    /// A frame played from the buffer (shared payload attached).
    Played(Arc<[u8]>),
    /// The slot's packet had not arrived: conceal.
    Concealed,
}

/// Counters over the buffer's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlayoutStats {
    /// Frames played from real packets.
    pub played: u64,
    /// Slots concealed (packet missing at its deadline).
    pub concealed: u64,
    /// Packets discarded because their slot had already played.
    pub late_drops: u64,
    /// Duplicate packets discarded.
    pub duplicates: u64,
    /// Packets discarded because they were further than the ring horizon
    /// ahead of the playout point.
    pub overflow_drops: u64,
}

/// The adaptive playout buffer for one stream.
#[derive(Debug, Clone)]
pub struct PlayoutBuffer {
    min_delay_s: f64,
    max_delay_s: f64,
    target_delay_s: f64,
    jitter: JitterEstimator,
    /// Ring of pending frames; frame `index` lives in slot
    /// `index % RING_CAPACITY`.
    slots: Box<[Option<Arc<[u8]>>]>,
    /// Sequence number of the first packet (frame index 0).
    base_seq: Option<u16>,
    /// Wall time frame 0 plays.
    base_play_time: f64,
    /// Next frame index due to play.
    next_index: i64,
    /// Highest frame index seen (for extension).
    highest_index: i64,
    stats: PlayoutStats,
    /// Pending retarget to apply at the next talkspurt start.
    retarget: Option<f64>,
}

impl PlayoutBuffer {
    /// A buffer with the given initial/minimum and maximum target delays
    /// (seconds). Typical VoIP defaults: 40 ms initial, 120 ms cap.
    #[must_use]
    pub fn new(min_delay_s: f64, max_delay_s: f64) -> Self {
        assert!(min_delay_s >= 0.0 && max_delay_s >= min_delay_s);
        PlayoutBuffer {
            min_delay_s,
            max_delay_s,
            target_delay_s: min_delay_s,
            jitter: JitterEstimator::new(8000.0),
            slots: vec![None; RING_CAPACITY].into_boxed_slice(),
            base_seq: None,
            base_play_time: 0.0,
            next_index: 0,
            highest_index: 0,
            stats: PlayoutStats::default(),
            retarget: None,
        }
    }

    /// The standard 40 ms / 120 ms configuration.
    #[must_use]
    pub fn standard() -> Self {
        PlayoutBuffer::new(0.040, 0.120)
    }

    /// Current target delay in seconds.
    #[must_use]
    pub fn target_delay_s(&self) -> f64 {
        self.target_delay_s
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> PlayoutStats {
        self.stats
    }

    /// Effective loss seen by the decoder: concealed slots over total slots.
    #[must_use]
    pub fn effective_loss(&self) -> f64 {
        let total = self.stats.played + self.stats.concealed;
        if total == 0 {
            0.0
        } else {
            self.stats.concealed as f64 / total as f64
        }
    }

    /// Offer an arriving packet to the buffer. The payload is shared —
    /// passing a `Vec<u8>` converts it once; passing an `Arc<[u8]>` from
    /// the zero-copy relay path just bumps the refcount.
    pub fn insert(&mut self, arrival_s: f64, header: &RtpHeader, payload: impl Into<Arc<[u8]>>) {
        self.jitter.record(arrival_s, header.timestamp);
        let index = match self.base_seq {
            None => {
                self.base_seq = Some(header.sequence);
                self.base_play_time = arrival_s + self.target_delay_s;
                0
            }
            Some(base) => {
                // Signed 16-bit distance handles wrap in either direction.
                let delta = header.sequence.wrapping_sub(base) as i16;
                // Extend around the highest index seen so long streams
                // (> 32k packets) keep extending upward.
                let mut idx = i64::from(delta);
                while idx < self.highest_index - 0x8000 {
                    idx += 0x1_0000;
                }
                idx
            }
        };
        self.highest_index = self.highest_index.max(index);

        // A marker bit opens a talkspurt: apply any pending retarget by
        // re-basing the playout clock for this and subsequent frames.
        if header.marker && index > 0 {
            if let Some(new_target) = self.retarget.take() {
                self.target_delay_s = new_target;
                self.base_play_time = arrival_s + new_target - index as f64 * FRAME_S;
            }
        }

        if index < self.next_index {
            self.stats.late_drops += 1;
            return;
        }
        if index - self.next_index >= RING_CAPACITY as i64 {
            self.stats.overflow_drops += 1;
            return;
        }
        let slot = &mut self.slots[(index as u64 % RING_CAPACITY as u64) as usize];
        if slot.replace(payload.into()).is_some() {
            self.stats.duplicates += 1;
        }
    }

    /// Drain every slot whose deadline has passed at wall time `now`.
    ///
    /// Slots are only concealed up to the highest sequence number seen —
    /// a gap is only knowable once a later packet has arrived; trailing
    /// silence is the end of the stream, not loss.
    pub fn pull_due(&mut self, now: f64) -> Vec<PlayoutEvent> {
        let mut out = Vec::new();
        if self.base_seq.is_none() {
            return out;
        }
        while self.next_index <= self.highest_index && self.play_time(self.next_index) <= now {
            let slot = (self.next_index as u64 % RING_CAPACITY as u64) as usize;
            match self.slots[slot].take() {
                Some(payload) => {
                    self.stats.played += 1;
                    out.push(PlayoutEvent::Played(payload));
                }
                None => {
                    self.stats.concealed += 1;
                    out.push(PlayoutEvent::Concealed);
                }
            }
            self.next_index += 1;
        }
        // Underrun adaptation: if this drain concealed anything, ask for a
        // deeper buffer at the next talkspurt (bounded by the cap).
        if out.contains(&PlayoutEvent::Concealed) {
            let deeper = (self.target_delay_s + 0.010).min(self.max_delay_s);
            // Also fold in the measured jitter: 2J + one frame is the
            // classic rule.
            let by_jitter = (2.0 * self.jitter.jitter_ms() / 1000.0 + FRAME_S)
                .clamp(self.min_delay_s, self.max_delay_s);
            self.retarget = Some(deeper.max(by_jitter));
        }
        out
    }

    fn play_time(&self, index: i64) -> f64 {
        self.base_play_time + index as f64 * FRAME_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(seq: u16, marker: bool) -> RtpHeader {
        RtpHeader {
            marker,
            payload_type: 0,
            sequence: seq,
            timestamp: u32::from(seq) * 160,
            ssrc: 1,
        }
    }

    fn feed_in_order(buf: &mut PlayoutBuffer, n: u16, delay: f64) -> Vec<PlayoutEvent> {
        let mut events = Vec::new();
        for i in 0..n {
            let t = f64::from(i) * FRAME_S + delay;
            buf.insert(t, &header(i, i == 0), vec![i as u8]);
            events.extend(buf.pull_due(t));
        }
        // Drain the tail.
        events.extend(buf.pull_due(f64::from(n) * FRAME_S + delay + 1.0));
        events
    }

    #[test]
    fn clean_stream_plays_everything() {
        let mut buf = PlayoutBuffer::standard();
        let events = feed_in_order(&mut buf, 100, 0.010);
        let played = events
            .iter()
            .filter(|e| matches!(e, PlayoutEvent::Played(_)))
            .count();
        assert_eq!(played, 100);
        assert_eq!(buf.stats().concealed, 0);
        assert_eq!(buf.stats().late_drops, 0);
        assert_eq!(buf.effective_loss(), 0.0);
        // Payloads come out in order.
        let first = events.iter().find_map(|e| match e {
            PlayoutEvent::Played(p) => Some(p[0]),
            PlayoutEvent::Concealed => None,
        });
        assert_eq!(first, Some(0));
    }

    #[test]
    fn missing_packet_is_concealed() {
        let mut buf = PlayoutBuffer::standard();
        for i in 0..10u16 {
            if i == 5 {
                continue; // lost
            }
            let t = f64::from(i) * FRAME_S;
            buf.insert(t, &header(i, i == 0), vec![i as u8]);
        }
        let events = buf.pull_due(10.0);
        assert_eq!(events.len(), 10);
        assert_eq!(events[5], PlayoutEvent::Concealed);
        assert_eq!(buf.stats().concealed, 1);
        assert!((buf.effective_loss() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn late_packet_is_dropped() {
        let mut buf = PlayoutBuffer::new(0.040, 0.120);
        buf.insert(0.000, &header(0, true), vec![0]);
        buf.insert(0.045, &header(2, false), vec![2]); // 1 is missing
                                                       // Slots 0 (t=0.040), 1 (0.060), 2 (0.080) all play.
        let events = buf.pull_due(0.085);
        assert_eq!(events.len(), 3);
        assert_eq!(events[1], PlayoutEvent::Concealed, "slot 1 had no packet");
        assert_eq!(buf.stats().concealed, 1);
        // Packet 1 finally arrives — its slot already played.
        buf.insert(0.090, &header(1, false), vec![1]);
        assert_eq!(buf.stats().late_drops, 1);
    }

    #[test]
    fn duplicates_are_counted_once() {
        let mut buf = PlayoutBuffer::standard();
        buf.insert(0.0, &header(0, true), vec![7]);
        buf.insert(0.001, &header(0, false), vec![7]);
        assert_eq!(buf.stats().duplicates, 1);
        let events = buf.pull_due(1.0);
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn reordered_packets_still_play_in_order() {
        let mut buf = PlayoutBuffer::standard();
        buf.insert(0.000, &header(0, true), vec![0]);
        buf.insert(0.002, &header(2, false), vec![2]);
        buf.insert(0.004, &header(1, false), vec![1]);
        let events = buf.pull_due(1.0);
        let order: Vec<u8> = events
            .iter()
            .filter_map(|e| match e {
                PlayoutEvent::Played(p) => Some(p[0]),
                PlayoutEvent::Concealed => None,
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(buf.stats().concealed, 0);
    }

    #[test]
    fn underrun_deepens_buffer_at_next_talkspurt() {
        let mut buf = PlayoutBuffer::new(0.020, 0.120);
        let t0_target = buf.target_delay_s();
        // A burst of jitter causes an underrun: packets 1..3 are severely
        // delayed; packet 4's arrival reveals the gap.
        buf.insert(0.000, &header(0, true), vec![0]);
        buf.insert(0.095, &header(4, false), vec![4]);
        let _ = buf.pull_due(0.100); // slots 0..4 due; only 0 and 4 present
        assert!(buf.stats().concealed > 0);
        // Next talkspurt (marker) applies the retarget.
        buf.insert(0.200, &header(10, true), vec![10]);
        assert!(
            buf.target_delay_s() > t0_target,
            "deepened: {} -> {}",
            t0_target,
            buf.target_delay_s()
        );
        assert!(buf.target_delay_s() <= 0.120, "bounded by the cap");
    }

    #[test]
    fn sequence_wraparound_keeps_playing() {
        let mut buf = PlayoutBuffer::standard();
        let mut played = 0;
        for k in 0..100u32 {
            let seq = (65_530u32 + k) as u16; // wraps after 6 packets
            let t = f64::from(k) * FRAME_S;
            buf.insert(t, &header(seq, k == 0), vec![k as u8]);
            played += buf
                .pull_due(t)
                .iter()
                .filter(|e| matches!(e, PlayoutEvent::Played(_)))
                .count();
        }
        played += buf
            .pull_due(10.0)
            .iter()
            .filter(|e| matches!(e, PlayoutEvent::Played(_)))
            .count();
        assert_eq!(played, 100, "no packets lost to the wrap");
        assert_eq!(buf.stats().late_drops, 0);
    }

    #[test]
    fn pull_before_first_packet_is_empty() {
        let mut buf = PlayoutBuffer::standard();
        assert!(buf.pull_due(100.0).is_empty());
    }

    #[test]
    fn far_future_packet_overflows_instead_of_growing() {
        let mut buf = PlayoutBuffer::standard();
        buf.insert(0.0, &header(0, true), vec![0]);
        // 2000 frames ahead is beyond the 1024-frame ring horizon.
        buf.insert(0.001, &header(2000, false), vec![1]);
        assert_eq!(buf.stats().overflow_drops, 1);
        // The in-horizon stream is unaffected.
        buf.insert(0.020, &header(1, false), vec![2]);
        let played = buf
            .pull_due(0.1)
            .iter()
            .filter(|e| matches!(e, PlayoutEvent::Played(_)))
            .count();
        assert_eq!(played, 2);
    }

    #[test]
    #[should_panic]
    fn invalid_delays_rejected() {
        let _ = PlayoutBuffer::new(0.1, 0.05);
    }
}

#[cfg(test)]
mod trace_equivalence {
    //! Property test: the ring buffer emits the identical `PlayoutEvent`
    //! sequence (and counters) as the original `BTreeMap<i64, Vec<u8>>`
    //! implementation under arbitrary reorder / duplication / loss traces
    //! whose span stays under the ring horizon.

    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The pre-ring implementation, kept verbatim as the model.
    struct ModelBuffer {
        min_delay_s: f64,
        max_delay_s: f64,
        target_delay_s: f64,
        jitter: JitterEstimator,
        pending: BTreeMap<i64, Vec<u8>>,
        base_seq: Option<u16>,
        base_play_time: f64,
        next_index: i64,
        highest_index: i64,
        stats: PlayoutStats,
        retarget: Option<f64>,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum ModelEvent {
        Played(Vec<u8>),
        Concealed,
    }

    impl ModelBuffer {
        fn new(min_delay_s: f64, max_delay_s: f64) -> Self {
            ModelBuffer {
                min_delay_s,
                max_delay_s,
                target_delay_s: min_delay_s,
                jitter: JitterEstimator::new(8000.0),
                pending: BTreeMap::new(),
                base_seq: None,
                base_play_time: 0.0,
                next_index: 0,
                highest_index: 0,
                stats: PlayoutStats::default(),
                retarget: None,
            }
        }

        fn insert(&mut self, arrival_s: f64, header: &RtpHeader, payload: Vec<u8>) {
            self.jitter.record(arrival_s, header.timestamp);
            let index = match self.base_seq {
                None => {
                    self.base_seq = Some(header.sequence);
                    self.base_play_time = arrival_s + self.target_delay_s;
                    0
                }
                Some(base) => {
                    let delta = header.sequence.wrapping_sub(base) as i16;
                    let mut idx = i64::from(delta);
                    while idx < self.highest_index - 0x8000 {
                        idx += 0x1_0000;
                    }
                    idx
                }
            };
            self.highest_index = self.highest_index.max(index);
            if header.marker && index > 0 {
                if let Some(new_target) = self.retarget.take() {
                    self.target_delay_s = new_target;
                    self.base_play_time = arrival_s + new_target - index as f64 * FRAME_S;
                }
            }
            if index < self.next_index {
                self.stats.late_drops += 1;
                return;
            }
            if self.pending.insert(index, payload).is_some() {
                self.stats.duplicates += 1;
            }
        }

        fn pull_due(&mut self, now: f64) -> Vec<ModelEvent> {
            let mut out = Vec::new();
            if self.base_seq.is_none() {
                return out;
            }
            while self.next_index <= self.highest_index
                && self.base_play_time + self.next_index as f64 * FRAME_S <= now
            {
                match self.pending.remove(&self.next_index) {
                    Some(payload) => {
                        self.stats.played += 1;
                        out.push(ModelEvent::Played(payload));
                    }
                    None => {
                        self.stats.concealed += 1;
                        out.push(ModelEvent::Concealed);
                    }
                }
                self.next_index += 1;
            }
            if out.contains(&ModelEvent::Concealed) {
                let deeper = (self.target_delay_s + 0.010).min(self.max_delay_s);
                let by_jitter = (2.0 * self.jitter.jitter_ms() / 1000.0 + FRAME_S)
                    .clamp(self.min_delay_s, self.max_delay_s);
                self.retarget = Some(deeper.max(by_jitter));
            }
            out
        }
    }

    fn header(seq: u16, marker: bool) -> RtpHeader {
        RtpHeader {
            marker,
            payload_type: 0,
            sequence: seq,
            timestamp: u32::from(seq) * 160,
            ssrc: 1,
        }
    }

    /// One generated packet of a trace before arrival-order sorting.
    #[derive(Debug, Clone)]
    struct TracePacket {
        seq_offset: u16,
        arrival_s: f64,
        marker: bool,
        duplicate: bool,
        lost: bool,
    }

    proptest! {
        #[test]
        fn ring_matches_btreemap_model(
            // Starting sequence number (exercises wrap) plus, per packet:
            // arrival jitter wide enough to reorder across frames, a marker
            // candidate, a 1-in-20 duplicate draw and a 1-in-10 loss draw.
            start_seq in any::<u16>(),
            raw in proptest::collection::vec(
                (0.0f64..0.080, any::<bool>(), 0u8..20, 0u8..10),
                1..80,
            ),
        ) {
            let mut pkts: Vec<TracePacket> = raw
                .into_iter()
                .enumerate()
                .map(|(i, (jit, marker, dup, lost))| TracePacket {
                    seq_offset: i as u16,
                    arrival_s: i as f64 * FRAME_S + jit,
                    marker: i == 0 || (marker && i % 7 == 0),
                    duplicate: dup == 0,
                    lost: i != 0 && lost == 0,
                })
                .collect();
            // Arrival order, not send order — jitter induces reordering.
            pkts.sort_by(|a, b| a.arrival_s.partial_cmp(&b.arrival_s).unwrap());
            let mut ring = PlayoutBuffer::standard();
            let mut model = ModelBuffer::new(0.040, 0.120);
            let mut ring_events = Vec::new();
            let mut model_events = Vec::new();
            let feed = |ring: &mut PlayoutBuffer,
                            model: &mut ModelBuffer,
                            p: &TracePacket| {
                let seq = start_seq.wrapping_add(p.seq_offset);
                let h = header(seq, p.marker);
                let payload = vec![p.seq_offset as u8, (p.seq_offset >> 8) as u8];
                ring.insert(p.arrival_s, &h, payload.clone());
                model.insert(p.arrival_s, &h, payload);
            };
            let mut last_t = 0.0f64;
            for p in &pkts {
                if p.lost {
                    continue;
                }
                feed(&mut ring, &mut model, p);
                if p.duplicate {
                    feed(&mut ring, &mut model, p);
                }
                ring_events.extend(ring.pull_due(p.arrival_s));
                model_events.extend(model.pull_due(p.arrival_s));
                last_t = p.arrival_s;
            }
            ring_events.extend(ring.pull_due(last_t + 2.0));
            model_events.extend(model.pull_due(last_t + 2.0));

            prop_assert_eq!(ring_events.len(), model_events.len());
            for (r, m) in ring_events.iter().zip(&model_events) {
                match (r, m) {
                    (PlayoutEvent::Played(a), ModelEvent::Played(b)) => {
                        prop_assert_eq!(&a[..], &b[..]);
                    }
                    (PlayoutEvent::Concealed, ModelEvent::Concealed) => {}
                    _ => prop_assert!(false, "event kind mismatch: {:?} vs {:?}", r, m),
                }
            }
            prop_assert_eq!(ring.stats().played, model.stats.played);
            prop_assert_eq!(ring.stats().concealed, model.stats.concealed);
            prop_assert_eq!(ring.stats().late_drops, model.stats.late_drops);
            prop_assert_eq!(ring.stats().duplicates, model.stats.duplicates);
            prop_assert_eq!(ring.stats().overflow_drops, 0);
            prop_assert!((ring.target_delay_s() - model.target_delay_s).abs() < 1e-12);
        }
    }
}
