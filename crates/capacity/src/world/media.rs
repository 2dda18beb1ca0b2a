//! The media cadence: which stream owes a packet when.
//!
//! Every stream keeps its own 20 ms cadence; its *phase within the
//! period* is quantised to one of [`SUB_SLOTS`] sub-slots so that one
//! recurring `Ev::MediaFrame` per non-empty slot drives every stream
//! sharing that phase. [`MediaPlane`] owns the streams, the slots and the
//! re-arm rule; the world owns the wire and asks three things of it:
//! [`start`](MediaPlane::start), [`stop`](MediaPlane::stop) and, per frame
//! event, the slot's due streams one by one
//! ([`next_due`](MediaPlane::next_due), then [`armed`](MediaPlane::armed)).

use crate::experiment::EmpiricalConfig;
use des::{FastMap, SimDuration, SimTime, Slab, StreamRng};
use netsim::{LinkId, NodeId};
use rtpcore::packet::{RtpDatagram, RtpHeader};
use rtpcore::packetizer::{FastVoiceSource, Law, Packetizer, SAMPLES_PER_FRAME};
use rtpcore::vad::TalkspurtSource;
use std::sync::Arc;
use vmon::StreamHandle;

/// Media frame period.
pub(super) const FRAME_PERIOD: SimDuration = SimDuration::from_millis(20);

/// Frame period in nanoseconds.
const FRAME_NS: u64 = 20_000_000;

/// Phase sub-slots per frame period.
const SUB_SLOTS: usize = 64;

/// Width of one phase sub-slot (312.5 µs).
const SUB_NS: u64 = FRAME_NS / SUB_SLOTS as u64;

/// One real G.711 encode per this many frames of a stream; the frames
/// between reuse the cached payload. It matters only where a span port
/// reads payload bytes: elsewhere no frame is encoded at all.
const ENCODE_EVERY: u32 = 10;

/// What a stream's packets cross to reach its PBX — fixed for the life
/// of the stream, resolved once when it starts.
#[derive(Clone, Copy)]
pub(super) struct UpRoute {
    /// Endpoint → switch, switch → PBX.
    pub(super) links: [LinkId; 2],
    /// The PBX's index in the farm.
    pub(super) pbx: usize,
}

/// Where the PBX relayed a stream's last packet, and everything that is
/// constant while it keeps answering that: the express path re-resolves
/// it whenever `Pbx::relay_rtp` names a different `(node, port)`.
#[derive(Clone, Copy)]
pub(super) struct DownRoute {
    pub(super) to: NodeId,
    pub(super) port: u16,
    /// PBX → switch, switch → `to`.
    pub(super) links: [LinkId; 2],
    /// The monitor's stream for flow `(to, port)`, learned from the first
    /// packet *delivered* there — so a stream exists no earlier than its
    /// first tap, exactly as by name.
    pub(super) stream: Option<StreamHandle>,
}

pub(super) struct MediaSession {
    /// Owning call id (UAC-side or UAS/b2b-side, per the local node).
    call: String,
    /// `(local node, remote node, remote port)` of the stream.
    pub(super) route: (NodeId, NodeId, u16),
    packetizer: Packetizer,
    /// The stream's one voice source, only where a span port reads
    /// payload bytes; it advances only on refresh frames.
    voice: Option<Box<FastVoiceSource>>,
    /// The talkspurt gate in front of `voice` when silence suppression is
    /// on (the VAD ablation); `None` is the paper's continuous speech.
    talkspurts: Option<TalkspurtSource>,
    /// `None` if the star cannot reach the remote node as a PBX: the
    /// express path then sends nothing.
    pub(super) up: Option<UpRoute>,
    pub(super) down: Option<DownRoute>,
    cached_payload: Arc<[u8]>,
    /// Frames still to send from `cached_payload` before the next one
    /// re-encodes it (frames 10, 20, … of the stream).
    refresh_in: u32,
    active: bool,
    /// Next grid-aligned emission time.
    next_due: SimTime,
}

// The 96 B voice source rides behind a pointer that only observed runs fill.
const _: () = assert!(std::mem::size_of::<MediaSession>() <= 208);

impl MediaSession {
    /// The packet `header` belongs to, as a frame payload: the cached
    /// companded bytes ride along by refcount.
    pub(super) fn datagram(&self, header: RtpHeader) -> RtpDatagram {
        RtpDatagram {
            header,
            payload: self.cached_payload.clone(),
        }
    }
}

/// Every live media session and the slot cadence that drives them.
pub(super) struct MediaPlane {
    rng: StreamRng,
    silence_suppression: bool,
    /// Whether a span port reads payload bytes. Without one, streams
    /// still advance every clock and counter but no frame is synthesised
    /// or companded, and they all carry `unobserved_payload`.
    observed: bool,
    /// One frame of μ-law silence standing in for every payload nobody
    /// can read — the per-hop first packet of a stream needs 160 bytes to
    /// have a wire length.
    unobserved_payload: Arc<[u8]>,
    /// Reused PCM frame buffer: synthesis fills it in place, companding
    /// reads it — no per-frame sample allocation.
    scratch: [i16; SAMPLES_PER_FRAME],
    /// Live media sessions, by slab key.
    sessions: Slab<MediaSession>,
    /// Call-ID → slab key. A caller leg's `uac-<tag>-<n>` and a callee
    /// leg's `b2b-<n>@host` never collide, so the Call-ID alone names a
    /// stream. Point lookups only — never iterated, so the map cannot
    /// perturb determinism.
    index: FastMap<String, u32>,
    /// Per-phase-slot session lists; emission order within a slot is
    /// insertion order. A slot has a recurring frame event pending exactly
    /// while its list is non-empty (ended sessions stay listed until the
    /// event sweeps them), so there is no armed flag to go stale.
    phase_buckets: Vec<Vec<u32>>,
    /// Cursor of the frame event being served: entries of its slot read so
    /// far and, of those, how many stay (ended sessions are compacted out,
    /// survivors keep insertion order). `(0, 0)` between events.
    walk: (usize, usize),
}

impl MediaPlane {
    pub(super) fn new(config: &EmpiricalConfig, rng: StreamRng) -> Self {
        MediaPlane {
            rng,
            silence_suppression: config.silence_suppression,
            observed: config.capture_traffic,
            unobserved_payload: Arc::from([0xFF; SAMPLES_PER_FRAME]),
            scratch: [0i16; SAMPLES_PER_FRAME],
            sessions: Slab::new(),
            index: FastMap::default(),
            phase_buckets: vec![Vec::new(); SUB_SLOTS],
            walk: (0, 0),
        }
    }

    /// Open the stream of `call` along `route` (local node, remote node,
    /// remote port). Returns its first packet, due right away, and — if
    /// the stream's phase slot had no frame event pending — the `(instant,
    /// slot)` of the one the caller must arm.
    pub(super) fn start(
        &mut self,
        now: SimTime,
        call: String,
        route: (NodeId, NodeId, u16),
        up: Option<UpRoute>,
    ) -> (RtpDatagram, Option<(SimTime, usize)>) {
        let ssrc = self.rng.next_raw() as u32;
        let first_seq = (self.rng.next_raw() & 0xFFFF) as u16;
        let first_ts = self.rng.next_raw() as u32;
        let source_seed = self.rng.next_raw();
        let mut voice = self
            .observed
            .then(|| Box::new(FastVoiceSource::new(source_seed)));
        let mut talkspurts = self
            .silence_suppression
            .then(|| TalkspurtSource::conversational(source_seed));
        // The first packet is sent whatever the gate says of its slot.
        if let Some(gate) = &mut talkspurts {
            gate.next_slot();
        }
        let mut packetizer = Packetizer::new(ssrc, Law::Mu, first_seq, first_ts);
        // Pre-encode one real frame to seed the cached payload, if anyone
        // can read it.
        let cached = if let Some(voice) = &mut voice {
            voice.fill(&mut self.scratch);
            packetizer.encode_shared(&self.scratch)
        } else {
            self.unobserved_payload.clone()
        };
        let first_packet = packetizer.packetize_shared(cached.clone());
        // Follow-up frames fire on the session's own 20 ms cadence, its
        // phase quantised to the sub-slot grid.
        let slot = ((now.as_nanos() % FRAME_NS) / SUB_NS) as usize;
        let grid = SimTime::from_nanos(now.as_nanos() / FRAME_NS * FRAME_NS + slot as u64 * SUB_NS);
        let session = MediaSession {
            call: call.clone(),
            route,
            packetizer,
            voice,
            talkspurts,
            up,
            down: None,
            cached_payload: cached,
            // The first packet was frame 0; frame `ENCODE_EVERY` is the
            // first refresh.
            refresh_in: ENCODE_EVERY - 1,
            active: true,
            next_due: grid + FRAME_PERIOD,
        };
        let idx = self.sessions.insert(session);
        if let Some(old) = self.index.insert(call, idx) {
            // A reused Call-ID (shed-then-retried call): the stale session
            // stops; its bucket entry sweeps it out lazily.
            if let Some(s) = self.sessions.get_mut(old) {
                s.active = false;
            }
        }
        // The slot's grid time next period is exactly when this session's
        // second packet is due. If the slot is already armed, its pending
        // event fires at that same grid time (one grid point per slot per
        // period), so the new session is picked up without an extra event.
        let arm = (!self.armed(slot)).then_some((grid + FRAME_PERIOD, slot));
        self.phase_buckets[slot].push(idx);
        (first_packet, arm)
    }

    /// End the stream of `call`; its slot entry is swept out when its
    /// frame event next comes round.
    pub(super) fn stop(&mut self, call: &str) {
        let idx = self.index.get(call);
        if let Some(s) = idx.and_then(|&i| self.sessions.get_mut(i)) {
            s.active = false;
        }
    }

    /// Session `idx`, as handed out by [`MediaPlane::next_due`].
    pub(super) fn session_mut(&mut self, idx: u32) -> &mut MediaSession {
        &mut self.sessions[idx]
    }

    /// Drop slab entry `idx`, clearing its key mapping unless the key has
    /// already been re-bound to a newer session.
    fn free_session(&mut self, idx: u32) {
        if let Some(s) = self.sessions.remove(idx) {
            if self.index.get(&s.call) == Some(&idx) {
                self.index.remove(&s.call);
            }
        }
    }

    /// Serving `slot`'s frame event at `now`: the next session with a packet
    /// to emit, as its slab index and the packet's header (the payload is
    /// the session's [`MediaSession::datagram`]). Ended sessions met on the
    /// way are freed. `None` once the slot has been walked — ask
    /// [`MediaPlane::armed`] whether the event recurs.
    pub(super) fn next_due(&mut self, now: SimTime, slot: usize) -> Option<(u32, RtpHeader)> {
        while let Some(&idx) = self.phase_buckets[slot].get(self.walk.0) {
            self.walk.0 += 1;
            let Some(session) = self.sessions.get_mut(idx) else {
                continue;
            };
            if !session.active {
                self.free_session(idx);
                continue;
            }
            self.phase_buckets[slot][self.walk.1] = idx;
            self.walk.1 += 1;
            // Sessions with next_due > now joined after this event was
            // scheduled; they start on the next period.
            if session.next_due <= now {
                session.next_due += FRAME_PERIOD;
                if let Some(header) = Self::advance(session, &mut self.scratch) {
                    return Some((idx, header));
                }
            }
        }
        self.phase_buckets[slot].truncate(self.walk.1);
        self.walk = (0, 0);
        None
    }

    /// Whether `slot` holds sessions: after its walk, the caller then
    /// re-arms its frame event one period on; an emptied slot is armed
    /// again by the next [`MediaPlane::start`] into it.
    pub(super) fn armed(&self, slot: usize) -> bool {
        !self.phase_buckets[slot].is_empty()
    }

    /// Advance one session by one frame: the header of the packet to
    /// emit, or `None` for a silence-suppressed slot. The payload the
    /// packet carries is `session.cached_payload` as this leaves it; only
    /// callers that put real octets on a frame clone it (see
    /// [`MediaSession::datagram`]). Only an observed stream (one with a
    /// voice source) runs the refresh countdown and re-synthesises and
    /// re-compands the payload on a refresh frame; sequence, timestamp and
    /// talkspurt state move identically either way.
    fn advance(
        session: &mut MediaSession,
        scratch: &mut [i16; SAMPLES_PER_FRAME],
    ) -> Option<RtpHeader> {
        // With VAD, a silent slot advances the media clock and sends
        // nothing; the frame cadence continues and the packetizer marks
        // the next packet.
        if session.talkspurts.as_mut().is_some_and(|g| !g.next_slot()) {
            session.packetizer.skip_frame();
            return None;
        }
        // Only a span port reads payload bytes, so only an observed
        // stream counts down to its next re-encode.
        if let Some(voice) = &mut session.voice {
            if session.refresh_in == 0 {
                voice.fill(scratch);
                session.cached_payload = session.packetizer.encode_shared(&scratch[..]);
                session.refresh_in = ENCODE_EVERY;
            }
            session.refresh_in -= 1;
        }
        Some(session.packetizer.next_header())
    }
}
