//! Passive traffic analysis — the VoIPmonitor + Wireshark stand-in.
//!
//! The paper observes its testbed with VoIPmonitor (per-call MOS) and
//! Wireshark (RTP packet counts). This crate taps every delivered packet of
//! the simulation and derives the same quantities:
//!
//! * SIP message accounting by method and status code (Table I's
//!   INVITE / 100 TRY / RING / OK / ACK / BYE / error rows);
//! * per-flow RTP statistics — RFC 3550 sequence bookkeeping (loss,
//!   duplicates, reorders) and interarrival jitter, plus one-way delay
//!   sampling;
//! * per-call MOS via the G.107 E-model ([`voiceq`]), mirroring
//!   VoIPmonitor's method — and, like VoIPmonitor (a caveat the paper
//!   makes explicit), scoring **only completed calls**: blocked calls
//!   never carry media and therefore never enter the MOS average.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pcap;

use des::{FastMap, Slab, Welford};
use rtpcore::jitter::{JitterEstimator, SequenceTracker};
use rtpcore::packet::RtpHeader;
use serde::Serialize;
use sipcore::SipTally;
use std::collections::BTreeMap;
use voiceq::EModelInputs;

/// Identifies one unidirectional media flow as observed at its receiver.
/// The experiment layer builds it from (destination node, destination
/// port), which is unique per leg in this testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

impl FlowId {
    /// Compose from a node number and a UDP port.
    #[must_use]
    pub fn from_node_port(node: u16, port: u16) -> Self {
        FlowId((u64::from(node) << 16) | u64::from(port))
    }
}

/// Reception statistics of one flow.
#[derive(Debug, Clone)]
pub struct StreamStats {
    tracker: SequenceTracker,
    jitter: JitterEstimator,
    /// Running mean of the one-way delay (s) over the `packets` seen.
    mean_delay_s: f64,
    packets: u64,
}

impl Default for StreamStats {
    fn default() -> Self {
        StreamStats {
            tracker: SequenceTracker::new(),
            jitter: JitterEstimator::new(8000.0),
            mean_delay_s: 0.0,
            packets: 0,
        }
    }
}

impl StreamStats {
    /// Fold one packet arriving at wall time `arrival_s` having spent
    /// `delay_s` in the network.
    #[inline]
    fn record(&mut self, arrival_s: f64, delay_s: f64, header: &RtpHeader) {
        self.packets += 1;
        self.tracker.record(header.sequence);
        self.jitter.record(arrival_s, header.timestamp);
        // Welford's mean recurrence, bit for bit; nothing reads a spread.
        self.mean_delay_s += (delay_s - self.mean_delay_s) / self.packets as f64;
    }

    /// Packets seen.
    #[must_use]
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Loss fraction so far.
    #[must_use]
    pub fn loss(&self) -> f64 {
        self.tracker.loss_fraction()
    }

    /// Interarrival jitter in milliseconds.
    #[must_use]
    pub fn jitter_ms(&self) -> f64 {
        self.jitter.jitter_ms()
    }

    /// Mean one-way delay in milliseconds.
    #[must_use]
    fn mean_delay_ms(&self) -> f64 {
        if self.mean_delay_s.is_nan() {
            0.0
        } else {
            self.mean_delay_s * 1000.0
        }
    }

    /// Observed loss burst ratio (1.0 = random loss; >1 = clumped).
    #[must_use]
    pub fn burst_ratio(&self) -> f64 {
        self.tracker.burst_ratio()
    }
}

/// A flow resolved to its stream slot by [`Monitor::tap_rtp`], so the
/// packets that follow can fold without the flow-table probe
/// ([`Monitor::tap_rtp_on`]).
///
/// A handle may outlive its stream ([`Monitor::retire_call`] frees the
/// slot for the next flow): it carries the flow it was resolved for, and
/// a slot that no longer holds that flow sends the packet back through
/// the probe — never into the new tenant's statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHandle {
    flow: FlowId,
    slot: u32,
}

/// One entry of the monitor's stream slab: a flow and its statistics.
#[derive(Debug, Clone)]
struct StreamSlot {
    flow: FlowId,
    stats: StreamStats,
}

/// Aggregate monitor report.
#[derive(Debug, Clone, Serialize)]
pub struct MonitorReport {
    /// Total RTP packets observed (the paper's "Msg" row).
    pub rtp_packets: u64,
    /// Total SIP messages observed.
    pub sip_total: u64,
    /// SIP request counts by method token.
    pub sip_requests: BTreeMap<String, u64>,
    /// SIP response counts by status code.
    pub sip_responses: BTreeMap<u16, u64>,
    /// Mean MOS over completed calls (NaN when none scored).
    pub mos_mean: f64,
    /// Minimum per-call MOS.
    pub mos_min: f64,
    /// Number of calls scored.
    pub calls_scored: u64,
    /// Mean observed packet loss across flows.
    pub mean_loss: f64,
    /// Mean observed jitter (ms) across flows.
    pub mean_jitter_ms: f64,
    /// Number of RTP flows the loss/jitter means were taken over.
    pub flows: u64,
}

impl MonitorReport {
    /// SIP request count for a method token.
    #[must_use]
    pub fn sip_request_count(&self, method: &str) -> u64 {
        self.sip_requests.get(method).copied().unwrap_or(0)
    }

    /// SIP response count for a status code.
    #[must_use]
    pub fn sip_response_count(&self, code: u16) -> u64 {
        self.sip_responses.get(&code).copied().unwrap_or(0)
    }

    /// Total error-class (≥400) responses.
    #[must_use]
    pub fn sip_error_count(&self) -> u64 {
        self.sip_responses
            .iter()
            .filter(|(c, _)| **c >= 400)
            .map(|(_, n)| *n)
            .sum()
    }
}

/// The passive monitor.
///
/// Per-flow statistics live in a slab; a deterministic [`FastMap`] maps a
/// flow to its slot, and a sender that keeps the [`StreamHandle`] of its
/// first packet skips even that probe. Slab order is allocation order,
/// not flow order, so every aggregation over the streams sorts by flow id
/// first: floating-point summation order — and therefore every reported
/// statistic — stays bit-reproducible across runs and processes. SIP
/// messages are counted in an indexed [`SipTally`], read only through
/// [`Monitor::report`], whose SIP maps are ordered (`BTreeMap`).
///
/// Call-ids are interned to `u32` handles when a flow is registered, so
/// nothing on or after the packet path ever hashes or compares a `String`:
/// flows map to handles in a [`FastMap`], and each call's flow list is
/// grouped once at registration (kept sorted by [`FlowId`] so per-call
/// float folds keep the order the old `BTreeMap<FlowId, String>` scan
/// produced). Scoring a call is then O(its flows) instead of a rescan of
/// every registered flow per call.
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    /// Live streams; [`Monitor::retire_call`] frees their slots for the
    /// next flows.
    streams: Slab<StreamSlot>,
    /// Flow → live slot in `streams`.
    stream_index: FastMap<FlowId, u32>,
    /// Call-id → handle; only touched at registration and report time.
    call_handles: BTreeMap<String, u32>,
    /// Flow → interned call handle.
    flow_call: FastMap<FlowId, u32>,
    /// Per-call flow lists, sorted by flow id, keyed by call handle; a
    /// retired call's handle is the next call's.
    call_flows: Slab<Vec<FlowId>>,
    /// Streaming accumulator for calls scored-and-freed by
    /// [`Monitor::retire_call`]; empty (and digest-invisible) unless
    /// retirement is used.
    retired: RetiredCalls,
    /// SIP messages by method and status code; folded into the report's
    /// ordered maps only in [`Monitor::report`].
    sip: SipTally,
    rtp_packets: u64,
}

/// What one call's streams (in flow-id order) say about its quality: the
/// inputs of its E-model score and the columns of its CSV row.
struct CallQuality {
    /// Mean loss fraction over the call's directions.
    loss: f64,
    /// Worst interarrival jitter over the call's directions (ms).
    jitter_ms: f64,
    /// Mean one-way delay over the call's directions (ms).
    delay_ms: f64,
    /// Worst observed burstiness across the call's directions: clumped
    /// loss defeats concealment, and the E-model penalises it.
    burst_ratio: f64,
}

impl CallQuality {
    /// `None` for a call none of whose flows has carried media.
    fn of(flows: &[&StreamStats]) -> Option<Self> {
        if flows.is_empty() {
            return None;
        }
        let n = flows.len() as f64;
        Some(CallQuality {
            loss: flows.iter().map(|f| f.loss()).sum::<f64>() / n,
            jitter_ms: flows.iter().map(|f| f.jitter_ms()).fold(0.0, f64::max),
            delay_ms: flows.iter().map(|f| f.mean_delay_ms()).sum::<f64>() / n,
            burst_ratio: flows.iter().map(|f| f.burst_ratio()).fold(1.0, f64::max),
        })
    }

    /// E-model MOS of the call.
    fn mos(&self) -> f64 {
        voiceq::estimate_mos(&EModelInputs::measured_g711(
            self.delay_ms,
            self.jitter_ms,
            self.loss,
            self.burst_ratio,
        ))
    }

    /// One [`Monitor::per_call_csv`] row.
    fn write_csv_row(&self, out: &mut String, call_id: &str) {
        use std::fmt::Write as _;
        let (loss, jitter, delay, burst) =
            (self.loss, self.jitter_ms, self.delay_ms, self.burst_ratio);
        let mos = self.mos();
        let _ = writeln!(
            out,
            "{call_id},{loss:.6},{jitter:.3},{delay:.3},{burst:.3},{mos:.3}"
        );
    }
}

/// Accumulated statistics of calls already retired: their contribution
/// to the report without their per-call/per-flow state.
#[derive(Debug, Clone, Copy)]
struct RetiredCalls {
    /// MOS fold over retired calls, in retirement order.
    mos: Welford,
    /// Σ loss fraction over retired flows (for the report's flow mean).
    loss_sum: f64,
    /// Σ jitter (ms) over retired flows.
    jitter_sum: f64,
    /// Number of retired flows behind the two sums.
    flows: u64,
}

impl Default for RetiredCalls {
    fn default() -> Self {
        RetiredCalls {
            // NOT `Welford::default()`, whose derived zeros would poison
            // min/max; `new()` seeds them at ±∞.
            mos: Welford::new(),
            loss_sum: 0.0,
            jitter_sum: 0.0,
            flows: 0,
        }
    }
}

impl Monitor {
    /// A fresh monitor.
    #[must_use]
    pub fn new() -> Self {
        Monitor::default()
    }

    /// Associate a flow with a call so per-call quality can be reported.
    /// Re-registering a flow moves it (and its accumulated stream stats)
    /// to the new call — the behaviour a port reuse produces.
    pub fn register_flow(&mut self, flow: FlowId, call_id: &str) {
        let handle = match self.call_handles.get(call_id) {
            Some(&h) => h,
            None => {
                // A retired call's slot first: under steady churn with
                // retirement the live table stays O(active calls) rather
                // than O(calls ever observed).
                let h = self.call_flows.insert(Vec::new());
                self.call_handles.insert(call_id.to_owned(), h);
                h
            }
        };
        if let Some(old) = self.flow_call.insert(flow, handle) {
            if old != handle {
                self.call_flows[old].retain(|&f| f != flow);
            }
        }
        let flows = &mut self.call_flows[handle];
        if let Err(pos) = flows.binary_search(&flow) {
            flows.insert(pos, flow);
        }
    }

    /// Observe one delivered SIP message.
    pub fn tap_sip(&mut self, msg: &sipcore::SipMessage) {
        self.sip.count(msg);
    }

    /// The slot holding `flow`'s statistics, opened (on a recycled slot
    /// if one is free) when the flow has none.
    fn resolve(&mut self, flow: FlowId) -> StreamHandle {
        let streams = &mut self.streams;
        let slot = *self.stream_index.entry(flow).or_insert_with(|| {
            streams.insert(StreamSlot {
                flow,
                stats: StreamStats::default(),
            })
        });
        StreamHandle { flow, slot }
    }

    /// Observe one delivered RTP packet on `flow`, arriving at wall time
    /// `arrival_s` having spent `delay_s` in the network: the by-name
    /// entry to [`Monitor::tap_rtp_on`]. The first packet of a flow opens
    /// its stream. Returns the handle the packet was folded under.
    pub fn tap_rtp(
        &mut self,
        flow: FlowId,
        arrival_s: f64,
        delay_s: f64,
        header: &RtpHeader,
    ) -> StreamHandle {
        let handle = self.resolve(flow);
        self.tap_rtp_on(handle, arrival_s, delay_s, header);
        handle
    }

    /// [`Monitor::tap_rtp`] for a flow already resolved: no probe while
    /// the handle's slot still holds its flow, the by-name path (probe,
    /// and a fresh stream if the old one was retired) once it does not.
    #[inline]
    pub fn tap_rtp_on(
        &mut self,
        handle: StreamHandle,
        arrival_s: f64,
        delay_s: f64,
        header: &RtpHeader,
    ) {
        let slot = match self.streams.get(handle.slot) {
            Some(s) if s.flow == handle.flow => handle.slot,
            _ => self.resolve(handle.flow).slot,
        };
        self.rtp_packets += 1;
        self.streams[slot].stats.record(arrival_s, delay_s, header);
    }

    /// Statistics of one flow, if observed.
    #[must_use]
    pub fn stream(&self, flow: FlowId) -> Option<&StreamStats> {
        let &slot = self.stream_index.get(&flow)?;
        Some(&self.streams[slot].stats)
    }

    /// Every live stream, sorted by flow id — the one order float folds
    /// over streams may use.
    fn streams_by_flow(&self) -> Vec<&StreamStats> {
        let mut live: Vec<&StreamSlot> = self.streams.iter().map(|(_, s)| s).collect();
        live.sort_unstable_by_key(|s| s.flow);
        live.into_iter().map(|s| &s.stats).collect()
    }

    /// Aggregate `(loss fraction, jitter ms, mean one-way delay ms)` over
    /// every stream that has carried media — the live link-quality signal
    /// the MOS-aware admission law samples. Streams are folded in flow-id
    /// order so the floating-point sums are independent of slab order
    /// (determinism across runs and platforms).
    #[must_use]
    pub fn link_quality(&self) -> (f64, f64, f64) {
        let flows = self.streams_by_flow();
        if flows.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let n = flows.len() as f64;
        let (mut loss, mut jitter, mut delay) = (0.0, 0.0, 0.0);
        for s in flows {
            loss += s.loss();
            jitter += s.jitter_ms();
            delay += s.mean_delay_ms();
        }
        (loss / n, jitter / n, delay / n)
    }

    /// Total observed RTP packets.
    #[must_use]
    pub fn rtp_packets(&self) -> u64 {
        self.rtp_packets
    }

    /// The streams of one interned call, in flow-id order, restricted to
    /// flows that have actually carried media.
    fn call_streams(&self, handle: u32) -> Vec<&StreamStats> {
        self.call_flows[handle]
            .iter()
            .filter_map(|&flow| self.stream(flow))
            .collect()
    }

    fn call_mos_by_handle(&self, handle: u32) -> Option<f64> {
        CallQuality::of(&self.call_streams(handle)).map(|q| q.mos())
    }

    /// E-model MOS for one call, combining all of its registered flows.
    /// `None` if the call has no media yet. (The tests' probe; runs read
    /// MOS through [`Monitor::report`].)
    #[cfg(test)]
    fn call_mos(&self, call_id: &str) -> Option<f64> {
        let handle = *self.call_handles.get(call_id)?;
        self.call_mos_by_handle(handle)
    }

    /// Per-call measurement export as CSV (VoIPmonitor's per-call table):
    /// `call_id,loss,jitter_ms,delay_ms,burst_ratio,mos`, calls sorted by id.
    #[must_use]
    pub fn per_call_csv(&self) -> String {
        let mut out = String::from("call_id,loss,jitter_ms,delay_ms,burst_ratio,mos\n");
        // `call_handles` iterates in lexicographic call-id order.
        for (call_id, &handle) in &self.call_handles {
            if let Some(q) = CallQuality::of(&self.call_streams(handle)) {
                q.write_csv_row(&mut out, call_id);
            }
        }
        out
    }

    /// Score a finished call now and free all of its per-call and
    /// per-flow state, keeping only its contribution to the aggregate
    /// report. Returns `true` if the call was known.
    ///
    /// This is the monitor's population-scale memory valve: a legacy run
    /// keeps every call until [`Monitor::report`] (bit-identical digests,
    /// nothing changes), while a long churn run retires each call once
    /// its media has drained, so live monitor state is O(active calls)
    /// instead of O(calls ever observed). The call's MOS is folded into a
    /// streaming [`Welford`] *in retirement order* — retirement order is
    /// event order, which is deterministic, so reports stay
    /// bit-reproducible. Retired calls no longer appear in
    /// [`Monitor::per_call_csv`] or [`Monitor::link_quality`] (both are
    /// live-state views).
    pub fn retire_call(&mut self, call_id: &str) -> bool {
        let Some(handle) = self.call_handles.remove(call_id) else {
            return false;
        };
        if let Some(m) = self.call_mos_by_handle(handle) {
            self.retired.mos.record(m);
        }
        let flows = self.call_flows.remove(handle).unwrap_or_default();
        for flow in flows {
            self.flow_call.remove(&flow);
            if let Some(slot) = self.stream_index.remove(&flow) {
                let s = self.streams.remove(slot).expect("an indexed stream").stats;
                self.retired.loss_sum += s.loss();
                self.retired.jitter_sum += s.jitter_ms();
                self.retired.flows += 1;
            }
        }
        true
    }

    /// Build the aggregate report.
    #[must_use]
    pub fn report(&self) -> MonitorReport {
        // Calls enter the MOS aggregate ordered by their smallest flow id
        // (first occurrence in flow-id order) — the same insertion order
        // the original ordered flow→call map produced, so the Welford
        // float folds are bit-identical. Retired calls were folded at
        // retirement time; their accumulator seeds the fold (empty — and
        // bit-invisible — unless `retire_call` was used).
        let mut mos = self.retired.mos;
        let mut flow_handles: Vec<(FlowId, u32)> =
            self.flow_call.iter().map(|(&f, &h)| (f, h)).collect();
        flow_handles.sort_unstable_by_key(|&(f, _)| f);
        let mut scored = vec![false; self.call_flows.slots()];
        for (_, handle) in flow_handles {
            if !std::mem::replace(&mut scored[handle as usize], true) {
                if let Some(m) = self.call_mos_by_handle(handle) {
                    mos.record(m);
                }
            }
        }
        // Slab order is arbitrary: fold floats in flow-id order so the
        // sums are bit-reproducible. Retired flows contribute their
        // accumulated sums (exactly 0.0 when retirement is unused,
        // leaving the legacy arithmetic bit-identical).
        let flows = self.streams_by_flow();
        let total_flows = self.retired.flows + flows.len() as u64;
        let nflows = total_flows.max(1) as f64;
        let mean_loss =
            (self.retired.loss_sum + flows.iter().map(|s| s.loss()).sum::<f64>()) / nflows;
        let mean_jitter =
            (self.retired.jitter_sum + flows.iter().map(|s| s.jitter_ms()).sum::<f64>()) / nflows;
        MonitorReport {
            rtp_packets: self.rtp_packets,
            sip_total: self.sip.total(),
            sip_requests: self
                .sip
                .by_method()
                .map(|(method, n)| (method.as_str().to_owned(), n))
                .collect(),
            sip_responses: self.sip.by_status().collect(),
            mos_mean: mos.mean(),
            mos_min: mos.min(),
            calls_scored: mos.count(),
            mean_loss,
            mean_jitter_ms: mean_jitter,
            flows: total_flows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sipcore::headers::HeaderName;
    use sipcore::{Method, Request, Response, SipUri, StatusCode};

    fn header(seq: u16, ts: u32) -> RtpHeader {
        RtpHeader {
            marker: seq == 0,
            payload_type: 0,
            sequence: seq,
            timestamp: ts,
            ssrc: 0x42,
        }
    }

    fn feed_clean_stream(mon: &mut Monitor, flow: FlowId, packets: u16) {
        for i in 0..packets {
            let t = f64::from(i) * 0.020;
            mon.tap_rtp(flow, t + 0.001, 0.001, &header(i, u32::from(i) * 160));
        }
    }

    #[test]
    fn clean_stream_scores_high_mos() {
        let mut mon = Monitor::new();
        let flow = FlowId::from_node_port(1, 20_000);
        mon.register_flow(flow, "call-1");
        feed_clean_stream(&mut mon, flow, 500);
        let mos = mon.call_mos("call-1").unwrap();
        assert!(mos > 4.3, "mos={mos}");
        let s = mon.stream(flow).unwrap();
        assert_eq!(s.packets(), 500);
        assert_eq!(s.loss(), 0.0);
        assert!(s.jitter_ms() < 0.1);
        assert!((s.mean_delay_ms() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn lossy_stream_scores_lower() {
        let mut mon = Monitor::new();
        let flow = FlowId::from_node_port(1, 20_000);
        mon.register_flow(flow, "lossy");
        for i in 0..500u16 {
            if i % 10 == 0 {
                continue; // 10% loss
            }
            let t = f64::from(i) * 0.020;
            mon.tap_rtp(flow, t + 0.001, 0.001, &header(i, u32::from(i) * 160));
        }
        let mos = mon.call_mos("lossy").unwrap();
        assert!(mos < 3.9, "mos={mos}");
    }

    #[test]
    fn both_directions_combine() {
        let mut mon = Monitor::new();
        let f1 = FlowId::from_node_port(1, 20_000);
        let f2 = FlowId::from_node_port(2, 30_000);
        mon.register_flow(f1, "c");
        mon.register_flow(f2, "c");
        feed_clean_stream(&mut mon, f1, 100);
        // Second direction suffers loss; combined MOS sits between.
        for i in 0..100u16 {
            if i % 5 == 0 {
                continue;
            }
            mon.tap_rtp(
                f2,
                f64::from(i) * 0.02,
                0.002,
                &header(i, u32::from(i) * 160),
            );
        }
        let combined = mon.call_mos("c").unwrap();
        let clean_only = {
            let mut m2 = Monitor::new();
            m2.register_flow(f1, "c");
            feed_clean_stream(&mut m2, f1, 100);
            m2.call_mos("c").unwrap()
        };
        assert!(combined < clean_only);
        assert!(combined > 3.0);
    }

    #[test]
    fn unknown_call_has_no_mos() {
        let mon = Monitor::new();
        assert!(mon.call_mos("nope").is_none());
        let mut mon2 = Monitor::new();
        mon2.register_flow(FlowId(1), "early");
        assert!(mon2.call_mos("early").is_none(), "registered but no media");
    }

    #[test]
    fn sip_accounting() {
        let mut mon = Monitor::new();
        let invite =
            Request::new(Method::Invite, SipUri::new("a", "h")).header(HeaderName::CallId, "x");
        mon.tap_sip(&invite.clone().into());
        mon.tap_sip(&invite.into());
        mon.tap_sip(&Response::new(StatusCode::TRYING).into());
        mon.tap_sip(&Response::new(StatusCode::RINGING).into());
        mon.tap_sip(&Response::new(StatusCode::OK).into());
        mon.tap_sip(&Response::new(StatusCode::BUSY_HERE).into());
        let report = mon.report();
        assert_eq!(report.sip_request_count("INVITE"), 2);
        assert_eq!(report.sip_request_count("BYE"), 0);
        assert_eq!(report.sip_response_count(100), 1);
        assert_eq!(report.sip_response_count(180), 1);
        assert_eq!(report.sip_error_count(), 1);
        assert_eq!(report.sip_total, 6);
    }

    #[test]
    fn report_aggregates_calls() {
        let mut mon = Monitor::new();
        for k in 0..3u16 {
            let flow = FlowId::from_node_port(1, 20_000 + k);
            mon.register_flow(flow, &format!("call-{k}"));
            feed_clean_stream(&mut mon, flow, 200);
        }
        let report = mon.report();
        assert_eq!(report.calls_scored, 3);
        assert_eq!(report.rtp_packets, 600);
        assert!(report.mos_mean > 4.3);
        assert!(report.mos_min > 4.3);
        assert!(report.mean_loss < 1e-12);
        assert!(report.mean_jitter_ms < 0.1);
    }

    #[test]
    fn bursty_loss_scores_worse_than_random_loss() {
        // Same 10% loss; random spread vs one clump. The burst-aware MOS
        // must punish the clump harder.
        let feed = |mon: &mut Monitor, flow: FlowId, skip: &dyn Fn(u16) -> bool| {
            for i in 0..500u16 {
                if skip(i) {
                    continue;
                }
                let t = f64::from(i) * 0.020;
                mon.tap_rtp(flow, t + 0.001, 0.001, &header(i, u32::from(i) * 160));
            }
        };
        let mut random = Monitor::new();
        let f1 = FlowId::from_node_port(1, 100);
        random.register_flow(f1, "r");
        feed(&mut random, f1, &|i| i % 10 == 0);
        let mut bursty = Monitor::new();
        let f2 = FlowId::from_node_port(1, 100);
        bursty.register_flow(f2, "b");
        feed(&mut bursty, f2, &|i| (100..150).contains(&i));
        let mr = random.call_mos("r").unwrap();
        let mb = bursty.call_mos("b").unwrap();
        assert!(mb < mr - 0.1, "bursty {mb} should score below random {mr}");
    }

    #[test]
    fn per_call_csv_export() {
        let mut mon = Monitor::new();
        let flow = FlowId::from_node_port(1, 20_000);
        mon.register_flow(flow, "csv-call");
        feed_clean_stream(&mut mon, flow, 100);
        let csv = mon.per_call_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("call_id,loss,jitter_ms,delay_ms,burst_ratio,mos")
        );
        let row = lines.next().expect("one call row");
        assert!(row.starts_with("csv-call,0.000000,"), "{row}");
        let mos: f64 = row.rsplit(',').next().unwrap().parse().unwrap();
        assert!(mos > 4.3, "{row}");
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn retire_call_preserves_the_report_and_frees_state() {
        // Oracle: keep everything until report time.
        let mut keep = Monitor::new();
        // Churn path: retire each call right after its media drains.
        let mut churn = Monitor::new();
        for k in 0..4u16 {
            let flow = FlowId::from_node_port(1, 20_000 + k);
            let call = format!("call-{k}");
            keep.register_flow(flow, &call);
            feed_clean_stream(&mut keep, flow, 200);
            churn.register_flow(flow, &call);
            feed_clean_stream(&mut churn, flow, 200);
            assert!(churn.retire_call(&call));
        }
        assert!(!churn.retire_call("call-0"), "already retired");
        // Live state is gone...
        assert!(churn.call_mos("call-2").is_none());
        assert_eq!(churn.per_call_csv().lines().count(), 1, "header only");
        // ...but the aggregate report is intact. Calls were fed (and
        // retired) in flow-id order, so even the streaming MOS fold
        // matches the oracle bit-for-bit here.
        let (r_keep, r_churn) = (keep.report(), churn.report());
        assert_eq!(r_churn.calls_scored, r_keep.calls_scored);
        assert_eq!(r_churn.flows, r_keep.flows);
        assert_eq!(r_churn.rtp_packets, r_keep.rtp_packets);
        assert_eq!(r_churn.mos_mean.to_bits(), r_keep.mos_mean.to_bits());
        assert_eq!(r_churn.mos_min.to_bits(), r_keep.mos_min.to_bits());
        assert_eq!(r_churn.mean_loss.to_bits(), r_keep.mean_loss.to_bits());
        assert_eq!(
            r_churn.mean_jitter_ms.to_bits(),
            r_keep.mean_jitter_ms.to_bits()
        );
    }

    #[test]
    fn retired_call_slots_are_recycled() {
        let mut mon = Monitor::new();
        // 100 sequential calls on the same port (port reuse after each
        // retirement): the handle table must not grow past the first.
        for i in 0..100u32 {
            let flow = FlowId::from_node_port(1, 20_000);
            let call = format!("c-{i}");
            mon.register_flow(flow, &call);
            feed_clean_stream(&mut mon, flow, 50);
            assert!(mon.retire_call(&call));
        }
        assert_eq!(mon.call_flows.slots(), 1, "one slot, recycled 100 times");
        assert!(mon.call_flows.is_empty());
        assert!(mon.stream_index.is_empty(), "per-flow stats freed");
        assert_eq!(mon.streams.slots(), 1, "one stream slot, recycled too");
        assert!(mon.streams.is_empty());
        assert!(mon.flow_call.is_empty());
        let r = mon.report();
        assert_eq!(r.calls_scored, 100);
        assert_eq!(r.flows, 100);
        assert!(r.mos_mean > 4.3);
    }

    #[test]
    fn retiring_an_unknown_call_is_a_no_op() {
        let mut mon = Monitor::new();
        assert!(!mon.retire_call("ghost"));
        mon.register_flow(FlowId(9), "real");
        assert!(mon.retire_call("real"), "no media yet: frees, scores none");
        let r = mon.report();
        assert_eq!(r.calls_scored, 0);
        assert_eq!(r.flows, 0, "flow never carried media");
    }

    /// The monitor as it was before the slab: streams in an ordered map
    /// keyed by flow, calls found by scanning an ordered flow → call map.
    /// Scores through the same [`CallQuality`] arithmetic, so any
    /// disagreement is about *which* stream a packet was folded into or
    /// the order streams were visited in.
    #[derive(Default)]
    struct ModelMonitor {
        streams: BTreeMap<FlowId, StreamStats>,
        flow_call: BTreeMap<FlowId, String>,
        calls: std::collections::BTreeSet<String>,
        retired: RetiredCalls,
        rtp_packets: u64,
    }

    impl ModelMonitor {
        fn register_flow(&mut self, flow: FlowId, call: &str) {
            self.flow_call.insert(flow, call.to_owned());
            self.calls.insert(call.to_owned());
        }

        fn tap_rtp(&mut self, flow: FlowId, arrival_s: f64, delay_s: f64, header: &RtpHeader) {
            self.rtp_packets += 1;
            self.streams
                .entry(flow)
                .or_default()
                .record(arrival_s, delay_s, header);
        }

        fn call_quality(&self, call: &str) -> Option<CallQuality> {
            let flows: Vec<&StreamStats> = self
                .flow_call
                .iter()
                .filter(|(_, c)| *c == call)
                .filter_map(|(flow, _)| self.streams.get(flow))
                .collect();
            CallQuality::of(&flows)
        }

        fn retire_call(&mut self, call: &str) -> bool {
            if !self.calls.remove(call) {
                return false;
            }
            if let Some(q) = self.call_quality(call) {
                self.retired.mos.record(q.mos());
            }
            let flows: Vec<FlowId> = self
                .flow_call
                .iter()
                .filter(|(_, c)| *c == call)
                .map(|(&flow, _)| flow)
                .collect();
            for flow in flows {
                self.flow_call.remove(&flow);
                if let Some(s) = self.streams.remove(&flow) {
                    self.retired.loss_sum += s.loss();
                    self.retired.jitter_sum += s.jitter_ms();
                    self.retired.flows += 1;
                }
            }
            true
        }

        /// `(rtp_packets, calls_scored, flows)` and the bit patterns of
        /// `(mos_mean, mos_min, mean_loss, mean_jitter_ms)`.
        fn report(&self) -> ([u64; 3], [u64; 4]) {
            let mut mos = self.retired.mos;
            let mut scored = std::collections::BTreeSet::new();
            for call in self.flow_call.values() {
                if scored.insert(call) {
                    if let Some(q) = self.call_quality(call) {
                        mos.record(q.mos());
                    }
                }
            }
            let flows = self.retired.flows + self.streams.len() as u64;
            let n = flows.max(1) as f64;
            let loss = self.retired.loss_sum + self.streams.values().map(|s| s.loss()).sum::<f64>();
            let jitter =
                self.retired.jitter_sum + self.streams.values().map(|s| s.jitter_ms()).sum::<f64>();
            (
                [self.rtp_packets, mos.count(), flows],
                [mos.mean(), mos.min(), loss / n, jitter / n].map(f64::to_bits),
            )
        }

        fn link_quality(&self) -> [u64; 3] {
            let n = self.streams.len() as f64;
            if self.streams.is_empty() {
                return [0.0f64; 3].map(f64::to_bits);
            }
            let (mut loss, mut jitter, mut delay) = (0.0, 0.0, 0.0);
            for s in self.streams.values() {
                loss += s.loss();
                jitter += s.jitter_ms();
                delay += s.mean_delay_ms();
            }
            [loss / n, jitter / n, delay / n].map(f64::to_bits)
        }

        fn per_call_csv(&self) -> String {
            let mut out = String::from("call_id,loss,jitter_ms,delay_ms,burst_ratio,mos\n");
            for call in &self.calls {
                if let Some(q) = self.call_quality(call) {
                    q.write_csv_row(&mut out, call);
                }
            }
            out
        }
    }

    /// What the tests can read of one stream, floats as bit patterns.
    fn stream_bits(s: Option<&StreamStats>) -> Option<(u64, [u64; 4])> {
        s.map(|s| {
            let floats = [s.loss(), s.jitter_ms(), s.mean_delay_ms(), s.burst_ratio()];
            (s.packets(), floats.map(f64::to_bits))
        })
    }

    proptest::proptest! {
        /// Random registration, media, retirement and port re-binding over
        /// six ports and four call-ids. Half the packets go through
        /// handles, each kept from the flow's first by-name tap and never
        /// refreshed — across retirements of its call and across other
        /// flows moving into its freed slot. After every step the slab
        /// monitor and the map model agree on the report, the link-quality
        /// fold, every stream and the per-call table.
        #[test]
        fn monitor_slab_matches_map_model(
            ops in proptest::collection::vec(
                (0u8..12, 0usize..6, 0usize..4, 1u16..4, 0u32..9),
                1..250,
            ),
        ) {
            const CALLS: [&str; 4] = ["uac-0-1", "uac-0-2", "b2b-7", "uac-0-10"];
            let flows: Vec<FlowId> = (0..6u16)
                .map(|p| FlowId::from_node_port(1 + p % 2, 20_000 + 2 * p))
                .collect();
            let mut slab = Monitor::new();
            let mut model = ModelMonitor::default();
            let mut held: [Option<StreamHandle>; 6] = [None; 6];
            let mut next = [(0u16, 0u32); 6];
            let mut now_s = 0.0;
            for (op, p, c, seq_step, late_ms) in ops {
                let (flow, call) = (flows[p], CALLS[c]);
                match op {
                    0 | 1 => {
                        slab.register_flow(flow, call);
                        model.register_flow(flow, call);
                    }
                    2 => proptest::prop_assert_eq!(
                        slab.retire_call(call),
                        model.retire_call(call)
                    ),
                    _ => {
                        // Sequence gaps are losses; lateness is jitter.
                        let (seq, ts) = &mut next[p];
                        *seq = seq.wrapping_add(seq_step);
                        *ts = ts.wrapping_add(160 * u32::from(seq_step));
                        now_s += 0.02;
                        let delay_s = 0.000_3 + f64::from(late_ms) * 1e-3;
                        let h = header(*seq, *ts);
                        match held[p] {
                            Some(handle) if op % 2 == 0 => {
                                slab.tap_rtp_on(handle, now_s + delay_s, delay_s, &h);
                            }
                            _ => {
                                let handle = slab.tap_rtp(flow, now_s + delay_s, delay_s, &h);
                                held[p].get_or_insert(handle);
                            }
                        }
                        model.tap_rtp(flow, now_s + delay_s, delay_s, &h);
                    }
                }
                let r = slab.report();
                let got = (
                    [r.rtp_packets, r.calls_scored, r.flows],
                    [r.mos_mean, r.mos_min, r.mean_loss, r.mean_jitter_ms].map(f64::to_bits),
                );
                proptest::prop_assert_eq!(got, model.report());
                let (loss, jitter, delay) = slab.link_quality();
                proptest::prop_assert_eq!(
                    [loss, jitter, delay].map(f64::to_bits),
                    model.link_quality()
                );
                for &flow in &flows {
                    proptest::prop_assert_eq!(
                        stream_bits(slab.stream(flow)),
                        stream_bits(model.streams.get(&flow))
                    );
                }
                proptest::prop_assert_eq!(slab.per_call_csv(), model.per_call_csv());
            }
            // The slab never outgrows the flows that were live at once.
            proptest::prop_assert!(slab.streams.slots() <= flows.len());
        }
    }

    #[test]
    fn stale_handle_never_folds_into_the_slots_next_tenant() {
        let mut mon = Monitor::new();
        let (old, new) = (
            FlowId::from_node_port(1, 20_000),
            FlowId::from_node_port(2, 30_000),
        );
        mon.register_flow(old, "first");
        let stale = mon.tap_rtp(old, 0.001, 0.001, &header(0, 0));
        assert!(mon.retire_call("first"));
        // The next flow moves into the freed slot...
        mon.register_flow(new, "second");
        let fresh = mon.tap_rtp(new, 0.021, 0.001, &header(0, 0));
        assert_eq!(fresh.slot, stale.slot);
        // ...and a packet under the retired flow's handle opens a stream
        // of its own, exactly as a by-name tap would.
        mon.tap_rtp_on(stale, 0.041, 0.001, &header(1, 160));
        assert_eq!(mon.stream(new).unwrap().packets(), 1);
        assert_eq!(mon.stream(old).unwrap().packets(), 1);
        assert_eq!(mon.streams.slots(), 2);
        // A handle made up for a slot that was never allocated probes too.
        let wild = StreamHandle { slot: 99, ..stale };
        mon.tap_rtp_on(wild, 0.061, 0.001, &header(2, 320));
        assert_eq!(mon.stream(old).unwrap().packets(), 2);
    }

    #[test]
    fn flow_id_composition_is_injective() {
        let a = FlowId::from_node_port(1, 500);
        let b = FlowId::from_node_port(2, 500);
        let c = FlowId::from_node_port(1, 501);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
