//! RTP reception statistics: interarrival jitter (RFC 3550 §6.4.1) and
//! sequence-number bookkeeping (§A.1 style).
//!
//! These are the quantities VoIPmonitor derives from captured RTP and feeds
//! into its MOS estimate; the `vmon` crate does the same with this module.

/// RFC 3550 interarrival jitter estimator.
///
/// For packets `i` and `j`, the difference in relative transit times is
/// `D(i,j) = (Rj − Ri) − (Sj − Si)` (arrival clock minus media timestamp,
/// both in timestamp units); jitter is the exponentially smoothed mean of
/// `|D|`: `J += (|D| − J)/16`.
///
/// The 32-bit media timestamp wraps (senders start it at a random value,
/// so a two-minute G.711 stream crosses 2³² about once in 4 500 calls);
/// it is unwrapped to a 64-bit extended timestamp before the subtraction,
/// so a wrap is 160 units like any other frame, not −2³².
#[derive(Debug, Clone, Copy, Default)]
pub struct JitterEstimator {
    jitter_units: f64,
    last_transit: Option<f64>,
    clock_hz: f64,
    /// The last packet's timestamp, extended: the first packet's value as
    /// is, then moved by each packet's signed 32-bit distance from its
    /// predecessor. Its low 32 bits are the last raw timestamp.
    ext_timestamp: i64,
}

impl JitterEstimator {
    /// Estimator for a media clock of `clock_hz` Hz (8000 for G.711).
    #[must_use]
    pub fn new(clock_hz: f64) -> Self {
        JitterEstimator {
            jitter_units: 0.0,
            last_transit: None,
            clock_hz,
            ext_timestamp: 0,
        }
    }

    /// Record a packet arriving at wall time `arrival_s` (seconds) carrying
    /// media timestamp `rtp_timestamp` (clock units).
    pub fn record(&mut self, arrival_s: f64, rtp_timestamp: u32) {
        self.ext_timestamp = match self.last_transit {
            None => i64::from(rtp_timestamp),
            Some(_) => {
                let step = rtp_timestamp.wrapping_sub(self.ext_timestamp as u32) as i32;
                self.ext_timestamp + i64::from(step)
            }
        };
        // Until a stream wraps, `ext_timestamp` *is* the raw timestamp and
        // this is the expression it always was, bit for bit.
        let transit = arrival_s * self.clock_hz - self.ext_timestamp as f64;
        if let Some(prev) = self.last_transit {
            let d = (transit - prev).abs();
            self.jitter_units += (d - self.jitter_units) / 16.0;
        }
        self.last_transit = Some(transit);
    }

    /// Current jitter in milliseconds.
    #[must_use]
    pub fn jitter_ms(&self) -> f64 {
        self.jitter_units / self.clock_hz * 1000.0
    }
}

/// Sequence-number tracker: expected/received counts, losses, duplicates
/// and reorders, with wrap-around handling.
#[derive(Debug, Clone, Default)]
pub struct SequenceTracker {
    base_seq: Option<u16>,
    highest_ext: u64,
    received: u64,
    duplicates: u64,
    reordered: u64,
    /// Extended seqs seen recently, for dup detection. Used as a circular
    /// buffer once full: `seen_head` is the oldest entry, overwritten next.
    /// The `pending` newest seqs are not in it yet.
    seen_window: Vec<u64>,
    seen_head: usize,
    /// Length of the in-order run ending at `highest_ext` whose seqs are
    /// still owed to `seen_window`: the run is contiguous, so its values
    /// are known without storing them, and only a packet that leaves the
    /// fast path needs the window written.
    pending: u64,
    /// Number of distinct loss gaps observed (runs of missing packets).
    gap_count: u64,
    /// Total packets missing across those gaps at observation time.
    gap_lost: u64,
}

const DUP_WINDOW: usize = 64;

impl SequenceTracker {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        SequenceTracker::default()
    }

    /// Record a received sequence number. Returns `true` if the packet is
    /// new (not a duplicate).
    #[inline]
    pub fn record(&mut self, seq: u16) -> bool {
        if self.base_seq.is_none() {
            self.base_seq = Some(seq);
            self.highest_ext = u64::from(seq);
            self.received = 1;
            self.pending = 1;
            return true;
        }
        // In-order fast path: the common case on a healthy stream. The
        // 16-bit successor of the highest seq extends to `highest + 1`
        // (every other reading is 2^16 away), which cannot be in the dup
        // window (every entry is ≤ highest): count it and owe the window.
        if seq == (self.highest_ext as u16).wrapping_add(1) {
            self.received += 1;
            self.highest_ext += 1;
            self.pending += 1;
            return true;
        }
        self.record_out_of_order(seq)
    }

    /// [`SequenceTracker::record`] for a packet that is not the next in
    /// order: settle the window, then judge the packet against it.
    fn record_out_of_order(&mut self, seq: u16) -> bool {
        // The window keeps the last `DUP_WINDOW` seqs, so an older part of
        // the run would only be overwritten by its newer part.
        let owed = self.pending.min(DUP_WINDOW as u64);
        for ext in self.highest_ext + 1 - owed..=self.highest_ext {
            self.push_seen(ext);
        }
        self.pending = 0;
        let ext = self.extend(seq);
        if self.seen_window.contains(&ext) {
            self.duplicates += 1;
            return false;
        }
        self.push_seen(ext);
        self.received += 1;
        if ext > self.highest_ext {
            // A run of missing packets between highest and this one (the
            // next in order took the fast path).
            self.gap_count += 1;
            self.gap_lost += ext - self.highest_ext - 1;
            self.highest_ext = ext;
        } else {
            self.reordered += 1;
        }
        true
    }

    /// Extend a 16-bit sequence to 64 bits relative to the current highest,
    /// choosing the closest interpretation across wraps.
    fn extend(&self, seq: u16) -> u64 {
        let cycle = self.highest_ext & !0xFFFF;
        let candidates = [
            cycle.wrapping_sub(0x1_0000) | u64::from(seq),
            cycle | u64::from(seq),
            (cycle + 0x1_0000) | u64::from(seq),
        ];
        *candidates
            .iter()
            .min_by_key(|&&c| c.abs_diff(self.highest_ext))
            .expect("non-empty")
    }

    fn push_seen(&mut self, ext: u64) {
        if self.seen_window.len() < DUP_WINDOW {
            self.seen_window.push(ext);
        } else {
            // Overwrite the oldest entry in place — same FIFO window as a
            // shift-down, without moving 63 entries per packet.
            self.seen_window[self.seen_head] = ext;
            self.seen_head = (self.seen_head + 1) % DUP_WINDOW;
        }
    }

    /// Unique packets received.
    #[must_use]
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Packets the sender must have emitted (span of sequence numbers).
    #[must_use]
    pub fn expected(&self) -> u64 {
        match self.base_seq {
            None => 0,
            Some(base) => self.highest_ext - u64::from(base) + 1,
        }
    }

    /// Packets lost = expected − received (saturating: late arrivals can
    /// transiently exceed).
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.expected().saturating_sub(self.received)
    }

    /// Loss fraction in `[0, 1]` (0 when nothing expected).
    #[must_use]
    pub fn loss_fraction(&self) -> f64 {
        let e = self.expected();
        if e == 0 {
            0.0
        } else {
            self.lost() as f64 / e as f64
        }
    }

    /// Duplicate packets seen.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Packets that arrived after a later sequence number.
    #[must_use]
    pub fn reordered(&self) -> u64 {
        self.reordered
    }

    /// Mean length of observed loss runs (NaN when no loss was seen).
    /// Late (reordered) arrivals that later fill a gap are not subtracted —
    /// this is the burst structure as a playout buffer experiences it.
    #[must_use]
    fn mean_loss_burst(&self) -> f64 {
        if self.gap_count == 0 {
            f64::NAN
        } else {
            self.gap_lost as f64 / self.gap_count as f64
        }
    }

    /// Burst ratio for the E-model: observed mean burst length over the
    /// length expected under independent (Bernoulli) loss at the same
    /// rate, `1/(1−p)`. 1.0 for random loss; larger when losses clump.
    /// Returns 1.0 when no loss occurred.
    #[must_use]
    pub fn burst_ratio(&self) -> f64 {
        if self.gap_count == 0 {
            return 1.0;
        }
        let p = self.loss_fraction().min(0.99);
        let expected = 1.0 / (1.0 - p);
        (self.mean_loss_burst() / expected).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_jitter_for_perfect_clocking() {
        let mut j = JitterEstimator::new(8000.0);
        for i in 0..200u32 {
            // Exactly 20 ms apart, timestamps advancing 160 units.
            j.record(f64::from(i) * 0.020, i * 160);
        }
        assert!(j.jitter_ms() < 1e-9, "jitter={}", j.jitter_ms());
    }

    #[test]
    fn constant_delay_offset_adds_no_jitter() {
        // A fixed network delay shifts all transit times equally.
        let mut j = JitterEstimator::new(8000.0);
        for i in 0..200u32 {
            j.record(0.150 + f64::from(i) * 0.020, i * 160);
        }
        assert!(j.jitter_ms() < 1e-9);
    }

    #[test]
    fn alternating_delay_converges_to_expected_jitter() {
        // Delays alternating ±2 ms give |D| = 4 ms each step; the RFC filter
        // converges towards 4 ms (never exceeds it).
        let mut j = JitterEstimator::new(8000.0);
        for i in 0..2000u32 {
            let wobble = if i % 2 == 0 { 0.002 } else { -0.002 };
            j.record(f64::from(i) * 0.020 + wobble, i * 160);
        }
        assert!(
            (j.jitter_ms() - 4.0).abs() < 0.2,
            "jitter={}",
            j.jitter_ms()
        );
    }

    #[test]
    fn paced_stream_across_the_timestamp_wrap_has_no_jitter() {
        // Perfect 20 ms pacing, 160 units a frame, starting 100 frames
        // short of 2^32. Without unwrapping, the frame after the wrap read
        // as 2^32 units (about 149 hours) early and reported 33 554 432 ms.
        let mut j = JitterEstimator::new(8000.0);
        let first = 0u32.wrapping_sub(100 * 160 + 7);
        let mut worst: f64 = 0.0;
        for i in 0..400u32 {
            j.record(5.0 + f64::from(i) * 0.020, first.wrapping_add(i * 160));
            worst = worst.max(j.jitter_ms());
        }
        assert!(worst < 0.001, "worst jitter across the wrap: {worst} ms");
        // Backwards across the wrap too: a reordered pair straddling it
        // is one frame out of place, not 2^32 units.
        let mut j = JitterEstimator::new(8000.0);
        j.record(0.000, u32::MAX - 200);
        j.record(0.020, 119); // 320 units later, wrapped
        j.record(0.040, u32::MAX - 40); // the frame in between, late
        assert!(
            j.jitter_ms() < 5.0,
            "reorder over the wrap: {}",
            j.jitter_ms()
        );
    }

    #[test]
    fn non_wrapping_trajectory_is_pinned_bit_for_bit() {
        // A stream that never wraps must fold exactly as it did before
        // timestamps were unwrapped: literals printed by the estimator
        // that subtracted `f64::from(rtp_timestamp)` directly. Starts
        // above 2^31 so a signed reading of the first timestamp would show.
        let mut j = JitterEstimator::new(8000.0);
        let mut lcg = 0x2015u64;
        let mut bits = Vec::new();
        for i in 0..1000u32 {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let late_s = (lcg >> 40) as f64 * 1e-9; // up to ~17 ms
            j.record(
                1.25 + f64::from(i) * 0.020 + late_s,
                3_000_000_000 + i * 160,
            );
            if (i + 1) % 250 == 0 {
                bits.push(j.jitter_units.to_bits());
            }
        }
        let pinned = [
            0x4042_3ab6_b176_2c31,
            0x4043_8af0_33fa_2515,
            0x4049_c662_9980_dee0,
            0x4041_86a9_8899_5612u64,
        ];
        assert_eq!(bits, pinned, "{bits:#x?}");
    }

    #[test]
    fn jitter_units_and_ms_agree() {
        let mut j = JitterEstimator::new(8000.0);
        j.record(0.0, 0);
        j.record(0.025, 160); // 5 ms late
        assert!((j.jitter_ms() - j.jitter_units / 8.0).abs() < 1e-12);
        assert!(j.jitter_ms() > 0.0);
    }

    #[test]
    fn tracker_counts_in_order_stream() {
        let mut t = SequenceTracker::new();
        for s in 100..200u16 {
            assert!(t.record(s));
        }
        assert_eq!(t.received(), 100);
        assert_eq!(t.expected(), 100);
        assert_eq!(t.lost(), 0);
        assert_eq!(t.loss_fraction(), 0.0);
        assert_eq!(t.duplicates(), 0);
        assert_eq!(t.reordered(), 0);
    }

    #[test]
    fn tracker_detects_loss() {
        let mut t = SequenceTracker::new();
        for s in [1u16, 2, 3, 6, 7, 10] {
            t.record(s);
        }
        assert_eq!(t.expected(), 10);
        assert_eq!(t.received(), 6);
        assert_eq!(t.lost(), 4);
        assert!((t.loss_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn tracker_detects_duplicates_and_reorders() {
        let mut t = SequenceTracker::new();
        t.record(1);
        t.record(2);
        assert!(!t.record(2), "duplicate rejected");
        t.record(4);
        assert!(t.record(3), "late packet still new");
        assert_eq!(t.duplicates(), 1);
        assert_eq!(t.reordered(), 1);
        assert_eq!(t.received(), 4);
        assert_eq!(t.lost(), 0, "the late packet filled its gap");
    }

    #[test]
    fn tracker_handles_wraparound() {
        let mut t = SequenceTracker::new();
        for s in [65533u16, 65534, 65535, 0, 1, 2] {
            assert!(t.record(s));
        }
        assert_eq!(t.received(), 6);
        assert_eq!(t.expected(), 6, "wrap not counted as 65k losses");
        assert_eq!(t.lost(), 0);
    }

    #[test]
    fn tracker_wraparound_with_reorder_across_boundary() {
        let mut t = SequenceTracker::new();
        t.record(65535);
        t.record(1); // 0 missing so far
        t.record(0); // arrives late, across the wrap
        assert_eq!(t.received(), 3);
        assert_eq!(t.expected(), 3);
        assert_eq!(t.reordered(), 1);
    }

    #[test]
    fn burst_structure_random_vs_clumped() {
        // Isolated single losses: mean burst 1, ratio ≈ 1·(1−p) ≈ 1.
        let mut random = SequenceTracker::new();
        for s in 0..100u16 {
            if s % 10 == 5 {
                continue;
            }
            random.record(s);
        }
        assert!((random.mean_loss_burst() - 1.0).abs() < 1e-12);
        assert!(
            (random.burst_ratio() - 1.0).abs() < 0.05,
            "ratio={}",
            random.burst_ratio()
        );

        // Same loss rate, but in one clump of 10: burst ratio ≈ 9.
        let mut bursty = SequenceTracker::new();
        for s in 0..100u16 {
            if (40..50).contains(&s) {
                continue;
            }
            bursty.record(s);
        }
        assert!((bursty.mean_loss_burst() - 10.0).abs() < 1e-12);
        assert!(bursty.burst_ratio() > 5.0, "ratio={}", bursty.burst_ratio());
        assert!(
            (bursty.loss_fraction() - random.loss_fraction()).abs() < 1e-12,
            "same loss rate, different structure"
        );
    }

    #[test]
    fn burst_ratio_without_loss_is_one() {
        let mut t = SequenceTracker::new();
        for s in 0..50u16 {
            t.record(s);
        }
        assert!(t.mean_loss_burst().is_nan());
        assert_eq!(t.burst_ratio(), 1.0);
    }

    #[test]
    fn empty_tracker_is_sane() {
        let t = SequenceTracker::new();
        assert_eq!(t.expected(), 0);
        assert_eq!(t.received(), 0);
        assert_eq!(t.lost(), 0);
        assert_eq!(t.loss_fraction(), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The tracker before its in-order fast path: every packet is
    /// extended three ways and written to the window. Runs on the same
    /// fields, leaving `pending` at 0, so the accessors read both alike.
    fn reference_record(t: &mut SequenceTracker, seq: u16) -> bool {
        let ext = match t.base_seq {
            None => {
                t.base_seq = Some(seq);
                t.highest_ext = u64::from(seq);
                let e = t.highest_ext;
                t.received = 1;
                t.push_seen(e);
                return true;
            }
            Some(_) => t.extend(seq),
        };
        if ext == t.highest_ext + 1 {
            t.push_seen(ext);
            t.received += 1;
            t.highest_ext = ext;
            return true;
        }
        if t.seen_window.contains(&ext) {
            t.duplicates += 1;
            return false;
        }
        t.push_seen(ext);
        t.received += 1;
        if ext > t.highest_ext {
            if ext > t.highest_ext + 1 {
                t.gap_count += 1;
                t.gap_lost += ext - t.highest_ext - 1;
            }
            t.highest_ext = ext;
        } else {
            t.reordered += 1;
        }
        true
    }

    proptest! {
        /// The fast path is invisible: on in-order runs longer than the
        /// window, loss gaps, duplicates and late packets inside and
        /// outside it, and the 16-bit wrap, every verdict and counter
        /// matches the tracker that writes the window on every packet.
        #[test]
        fn fast_path_matches_reference_tracker(
            near_wrap in any::<bool>(),
            first in any::<u16>(),
            steps in proptest::collection::vec((0u8..10, any::<u16>()), 1..60),
        ) {
            let (mut fast, mut reference) = (SequenceTracker::new(), SequenceTracker::new());
            let mut next = if near_wrap { u16::MAX - first % 300 } else { first };
            let mut seqs = Vec::new();
            for (kind, raw) in steps {
                seqs.clear();
                match kind {
                    // An in-order run, often longer than the window.
                    0..=3 => {
                        let n = 1 + raw % 200;
                        seqs.extend((0..n).map(|i| next.wrapping_add(i)));
                        next = next.wrapping_add(n);
                    }
                    // A loss gap.
                    4 | 5 => next = next.wrapping_add(1 + raw % 100),
                    // A duplicate or a late packet at the 64-entry window's
                    // edge (after an in-order run: the oldest entry, or one
                    // beyond it), then anywhere inside or outside it.
                    6 => seqs.push(next.wrapping_sub(63 + raw % 3)),
                    7 | 8 => seqs.push(next.wrapping_sub(1 + raw % 140)),
                    // Any sequence number at all.
                    _ => seqs.push(raw),
                }
                for &seq in &seqs {
                    prop_assert_eq!(fast.record(seq), reference_record(&mut reference, seq), "seq {}", seq);
                    prop_assert_eq!(fast.received(), reference.received());
                    prop_assert_eq!(fast.expected(), reference.expected());
                    prop_assert_eq!(fast.lost(), reference.lost());
                    prop_assert_eq!(fast.duplicates(), reference.duplicates());
                    prop_assert_eq!(fast.reordered(), reference.reordered());
                    prop_assert_eq!(fast.burst_ratio().to_bits(), reference.burst_ratio().to_bits());
                }
            }
        }

        /// received + lost == expected whenever no duplicates are involved
        /// and arrivals are a subset of a contiguous range.
        #[test]
        fn conservation_without_dups(present in proptest::collection::btree_set(0u16..500, 1..200)) {
            let mut t = SequenceTracker::new();
            for &s in &present {
                t.record(s);
            }
            prop_assert_eq!(t.received() + t.lost(), t.expected());
            prop_assert_eq!(t.duplicates(), 0);
        }

        /// Jitter is always non-negative and finite.
        #[test]
        fn jitter_non_negative(deltas in proptest::collection::vec(0.001f64..0.2, 1..100)) {
            let mut j = JitterEstimator::new(8000.0);
            let mut tnow = 0.0;
            for (i, d) in deltas.iter().enumerate() {
                tnow += d;
                j.record(tnow, (i as u32) * 160);
            }
            prop_assert!(j.jitter_units >= 0.0);
            prop_assert!(j.jitter_units.is_finite());
        }
    }
}
