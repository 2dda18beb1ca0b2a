//! The back-to-back user agent (B2BUA) — how Asterisk actually carries a
//! call.
//!
//! Asterisk terminates the caller's SIP dialog, originates a fresh dialog
//! to the callee, bridges the two, and relays the media between per-call
//! RTP ports (non-directmedia mode). Every SIP message and every RTP packet
//! of the paper's Fig. 2 ladder transits the server, which is exactly why
//! its CPU and channel pool bound the system's capacity.
//!
//! The implementation is a pure state machine: SIP messages and RTP
//! datagrams go in, [`PbxAction`]s come out; the surrounding world (the
//! `capacity` experiment, tests, benches) owns transport and time.

use crate::cdr::{CdrLog, Disposition};
use crate::channels::{ChannelId, ChannelPool};
use crate::cpu::CpuModel;
use crate::directory::Directory;
use crate::ports::PortTable;
use crate::registrar::{RegisterOutcome, Registrar};
use des::FastMap;
use des::{SimDuration, SimTime, Slab};
use netsim::NodeId;
use overload::{ControlLaw, Feedback, LoadSignals};
use sipcore::auth::{CredentialsView, DigestChallenge, HexDigest};
use sipcore::headers::{HeaderMap, HeaderName};
use sipcore::message::{Decimal, Request, Response, SipMessage, SDP_HEADERS_ROOM};
use sipcore::sdp::wire::SdpBody;
use sipcore::sdp::SdpCodec;
use sipcore::{Method, SipUri, StatusCode};
use std::fmt::Write as _;
use std::sync::Arc;

/// PBX configuration.
#[derive(Debug, Clone)]
pub struct PbxConfig {
    /// This PBX's node on the network.
    pub node: NodeId,
    /// Channel pool size — the capacity knob `N` (the paper infers ≈165
    /// for its Xeon host).
    pub channels: u32,
    /// Hostname used in Via/Contact headers.
    pub hostname: String,
    /// Optional per-user concurrent-call ceiling — the "effective call
    /// policy" the paper's §IV proposes for protecting a large population
    /// from a few heavy users. `None` = unlimited (the paper's testbed).
    pub max_calls_per_user: Option<u32>,
    /// Optional overload-control law from the `overload` crate (`None` =
    /// the paper's testbed, which never sheds and simply saturates).
    pub overload_law: Option<ControlLaw>,
}

impl PbxConfig {
    /// The evaluation defaults: 165 channels, host `pbx.unb.br`.
    #[must_use]
    pub fn evaluation_default(node: NodeId) -> Self {
        PbxConfig {
            node,
            channels: 165,
            hostname: "pbx.unb.br".to_owned(),
            max_calls_per_user: None,
            overload_law: None,
        }
    }
}

/// Something the PBX wants the transport to do.
#[derive(Debug, Clone, PartialEq)]
pub enum PbxAction {
    /// Send a SIP message to a node.
    SendSip {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: SipMessage,
    },
    /// Relay an RTP datagram to a node's media port.
    SendRtp {
        /// Destination node.
        to: NodeId,
        /// Destination media port (from the leg's SDP).
        to_port: u16,
        /// The unmodified datagram (payload shared, never copied).
        datagram: rtpcore::RtpDatagram,
    },
}

/// Aggregated PBX counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PbxStats {
    /// SIP messages received.
    pub sip_in: u64,
    /// SIP messages sent.
    pub sip_out: u64,
    /// Error (4xx/5xx) responses sent.
    pub sip_errors_sent: u64,
    /// RTP packets relayed.
    pub rtp_relayed: u64,
    /// RTP packets dropped (no session for the port).
    pub rtp_dropped: u64,
    /// INVITEs refused for lack of a channel (the CDR's `Blocked` tally).
    pub calls_blocked: u64,
    /// INVITEs refused by the per-user call policy (the CDR's
    /// `PolicyRefused` tally).
    pub calls_policy_refused: u64,
    /// INVITEs shed by overload control, 503 + Retry-After (the CDR's
    /// `Shed` tally).
    pub calls_shed: u64,
    /// Calls the callee answered (each counted once, at its first 200).
    pub calls_answered: u64,
    /// Crash faults this PBX has absorbed.
    pub crashes: u64,
}

/// Call bridge state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallState {
    /// Outbound INVITE sent, waiting for the callee.
    Inviting,
    /// Callee ringing.
    Ringing,
    /// 200 OK relayed; waiting for/after ACK, media flowing.
    Answered,
    /// BYE relayed, waiting for the 200.
    TearingDown,
}

/// One leg of a bridged call.
#[derive(Debug, Clone)]
struct Leg {
    node: NodeId,
    /// PBX media port facing this leg (endpoints send RTP here). Where the
    /// PBX relays that media lives in the port table, not here.
    pbx_port: u16,
}

#[derive(Debug, Clone)]
struct Call {
    /// Admission serial: names the callee leg (`b2b-<serial>`) and the
    /// branches of the requests the PBX sends on it.
    serial: u64,
    channel: ChannelId,
    state: CallState,
    caller: Leg,
    callee: Leg,
    /// The caller's original INVITE (responses to the caller derive from it).
    caller_invite: Request,
    /// Call-ID of the PBX-originated callee leg.
    callee_call_id: String,
    /// The dialled extension, shared with the caller's Request-URI: the
    /// user of every request the PBX sends on the callee leg.
    callee_user: Arc<str>,
    /// The caller's uid, from its From header: the user of the callee
    /// leg's From and of a BYE the PBX forwards to the caller.
    caller_uid: Arc<str>,
    /// Which leg initiated teardown (true = caller sent the BYE).
    bye_from_caller: bool,
    /// To-tag the PBX uses on caller-facing responses.
    pbx_tag: String,
    /// The call's negotiated codec: the caller's offer at admission,
    /// replaced by the callee's answer when it arrives — what the
    /// caller-facing 200 advertises (no hardcoded PCMU).
    codec: SdpCodec,
}

/// The PBX.
///
/// An INVITE is routed by the registrar alone: the dialled extension
/// reaches the subscriber [`Registrar::lookup`] binds it to, or gets 404.
/// Every directory range starts at 1000, so only extensions of four or
/// more digits can route; a range below 1000 would route shorter
/// extensions too.
///
/// An SDP offer is read like an answer, through the body's accessors:
/// its port counts only with a known codec, otherwise the caller's media
/// port stays 0 and the offer codec PCMU.
pub struct Pbx {
    /// Configuration (public for inspection).
    pub config: PbxConfig,
    /// The channel pool (public: experiments read peak/occupancy).
    pub pool: ChannelPool,
    /// CPU model (public: experiments read utilisation).
    pub cpu: CpuModel,
    /// CDR journal.
    pub cdr: CdrLog,
    /// User directory ("LDAP").
    pub directory: Directory,
    /// Registrar bindings.
    pub registrar: Registrar,
    stats: PbxStats,
    /// Live calls per caller uid, kept only under
    /// `config.max_calls_per_user`; a uid leaves when its count reaches 0.
    active_per_user: FastMap<String, u32>,
    /// Live calls; a closed call's slot is the next call's.
    calls: Slab<Call>,
    by_caller_call_id: FastMap<String, u32>,
    by_callee_call_id: FastMap<String, u32>,
    by_pbx_port: PortTable, // port -> far leg's (node, rtp port)
    next_call_serial: u64,
    /// Overload-control law (built from `config.overload_law`).
    law: Option<overload::Law>,
    /// Last observed access-link media quality (loss fraction, jitter ms,
    /// one-way delay ms) — fed by the world's quality ticks, consumed by
    /// MOS-predictive admission. Zero until the first observation.
    link_quality: (f64, f64, f64),
    /// Per-instance digest nonce, derived once from the hostname (a real
    /// server rotates nonces; a deterministic constant suffices here and
    /// keeps the MD5 off the REGISTER hot path).
    nonce: String,
    /// The `WWW-Authenticate` value every 401 carries: realm = hostname
    /// plus the nonce above, so it is as constant as they are.
    challenge: String,
    /// The registrar's own URI, `sip:<hostname>`, as REGISTERs address it
    /// and, rendered, as their digests quote it.
    registrar_uri: SipUri,
    registrar_uri_str: String,
    /// `HA2 = MD5("REGISTER:sip:<hostname>")` — per registrar, not per
    /// user; covers exactly the credentials whose `uri` is
    /// `registrar_uri_str`.
    register_ha2: HexDigest,
    /// Shared `o=` origin string for PBX-built SDP bodies ("asterisk").
    sdp_origin: Arc<str>,
    /// The hostname, shared: the `c=` connection of PBX-built SDP bodies
    /// and the host of every Request-URI the PBX builds.
    host: Arc<str>,
}

impl Pbx {
    /// Build a PBX with the given configuration and subscriber directory.
    #[must_use]
    pub fn new(config: PbxConfig, directory: Directory) -> Self {
        let registrar = Registrar::default();
        let pool = ChannelPool::new(config.channels);
        let nonce = format!(
            "nonce-{}",
            sipcore::auth::md5_hex(config.hostname.as_bytes())
        );
        let challenge = DigestChallenge {
            realm: config.hostname.clone(),
            nonce: nonce.clone(),
        }
        .to_header_value();
        let registrar_uri = SipUri::server(&config.hostname);
        let registrar_uri_str = registrar_uri.to_string();
        let register_ha2 = sipcore::auth::ha2("REGISTER", &registrar_uri_str);
        let law = config.overload_law.map(ControlLaw::build);
        let host: Arc<str> = Arc::from(config.hostname.as_str());
        Pbx {
            config,
            pool,
            cpu: CpuModel::calibrated(),
            cdr: CdrLog::new(),
            directory,
            registrar,
            stats: PbxStats::default(),
            active_per_user: FastMap::default(),
            calls: Slab::new(),
            by_caller_call_id: FastMap::default(),
            by_callee_call_id: FastMap::default(),
            by_pbx_port: PortTable::new(),
            next_call_serial: 0,
            law,
            link_quality: (0.0, 0.0, 0.0),
            nonce,
            challenge,
            registrar_uri,
            registrar_uri_str,
            register_ha2,
            sdp_origin: Arc::from("asterisk"),
            host,
        }
    }

    /// Counters; the three refusal counts are the CDR's tallies.
    #[must_use]
    pub fn stats(&self) -> PbxStats {
        let tally = |d| self.cdr.count(d) as u64;
        PbxStats {
            calls_blocked: tally(Disposition::Blocked),
            calls_policy_refused: tally(Disposition::PolicyRefused),
            calls_shed: tally(Disposition::Shed),
            ..self.stats
        }
    }

    /// Number of live bridged calls.
    #[must_use]
    pub fn active_calls(&self) -> usize {
        self.calls.len()
    }

    /// Map a PBX-originated (callee-leg) Call-ID back to the caller-leg
    /// Call-ID of the same bridged call. Monitoring uses this to account
    /// both media directions to one call.
    #[must_use]
    pub fn peer_call_id(&self, callee_call_id: &str) -> Option<&str> {
        let idx = *self.by_callee_call_id.get(callee_call_id)?;
        self.calls.get(idx)?.caller_invite.call_id()
    }

    /// The signal set a control law observes: channel occupancy, the last
    /// completed CPU window, pool headroom and link media quality.
    #[must_use]
    fn load_signals(&self) -> LoadSignals {
        let occupancy = if self.config.channels == 0 {
            0.0
        } else {
            f64::from(self.pool.in_use()) / f64::from(self.config.channels)
        };
        let (link_loss, link_jitter_ms, link_delay_ms) = self.link_quality;
        LoadSignals {
            occupancy,
            cpu: self.cpu.last_window_utilisation().unwrap_or(0.0),
            free_channels: self.config.channels.saturating_sub(self.pool.in_use()),
            link_loss,
            link_jitter_ms,
            link_delay_ms,
        }
    }

    /// Feed the latest observed access-link media quality (from the
    /// world's monitor) to MOS-predictive admission control.
    pub fn observe_link_quality(&mut self, loss: f64, jitter_ms: f64, delay_ms: f64) {
        self.link_quality = (loss, jitter_ms, delay_ms);
    }

    /// True while overload control is actively shedding new INVITEs.
    #[must_use]
    pub fn is_shedding(&self) -> bool {
        self.law.as_ref().is_some_and(overload::Law::is_shedding)
    }

    /// Crash fault: the Asterisk process dies and is restarted by its
    /// supervisor. All live calls drop (CDR `Failed` — the far ends hear
    /// silence then give up), the channel pool flushes, and the in-memory
    /// registrar location table is lost, so every endpoint must
    /// re-REGISTER before it is reachable again. Returns the number of
    /// calls that were dropped.
    pub fn crash(&mut self, now: SimTime) -> u32 {
        let mut dropped = 0u32;
        for idx in 0..self.calls.slots() as u32 {
            if self.calls.get(idx).is_some() {
                self.close_call(now, idx, Disposition::Failed);
                dropped += 1;
            }
        }
        self.pool.flush(now);
        self.registrar.clear();
        self.clear_calls();
        if let Some(law) = self.law.as_mut() {
            law.on_crash();
        }
        self.stats.crashes += 1;
        dropped
    }

    /// Close the books at the end of an experiment: flush CPU windows and
    /// record still-open calls as in-progress.
    pub fn finish(&mut self, now: SimTime) {
        self.cpu.finish(now);
        for _ in 0..self.calls.len() {
            self.cdr.file(now, Disposition::InProgress);
        }
        self.clear_calls();
    }

    /// Forget the call slots and every index into them — Call-IDs, media
    /// ports and per-user counts — once each live call has been filed.
    fn clear_calls(&mut self) {
        self.calls.clear();
        self.by_caller_call_id.clear();
        self.by_callee_call_id.clear();
        self.by_pbx_port.clear();
        self.active_per_user.clear();
    }

    // -- SIP entry point ---------------------------------------------------

    /// Handle one inbound SIP message.
    pub fn handle_sip(&mut self, now: SimTime, from: NodeId, msg: SipMessage) -> Vec<PbxAction> {
        self.stats.sip_in += 1;
        self.cpu.on_sip_message(now);

        match msg {
            SipMessage::Request(req) => match req.method {
                Method::Register => self.on_register(now, from, &req),
                Method::Invite => self.on_invite(now, from, req),
                Method::Ack => self.on_ack(now, &req),
                Method::Bye => self.on_bye(now, from, &req),
                Method::Cancel => self.on_cancel(now, &req),
                Method::Options => {
                    vec![self.reply(from, req.make_response(StatusCode::OK))]
                }
            },
            SipMessage::Response(resp) => self.on_response(now, resp),
        }
    }

    /// Handle one inbound RTP datagram addressed to PBX port `dst_port`.
    pub fn handle_rtp(
        &mut self,
        now: SimTime,
        dst_port: u16,
        datagram: rtpcore::RtpDatagram,
    ) -> Vec<PbxAction> {
        match self.relay_rtp(now, dst_port) {
            Some((to, to_port)) => vec![PbxAction::SendRtp {
                to,
                to_port,
                datagram,
            }],
            None => vec![],
        }
    }

    /// Route one inbound RTP datagram without touching its bytes: returns
    /// the destination `(node, port)` for the opposite leg, or `None` when
    /// the packet is dropped. This is the allocation-free relay fast path —
    /// the caller keeps holding the datagram and forwards it itself.
    #[inline]
    pub fn relay_rtp(&mut self, now: SimTime, dst_port: u16) -> Option<(NodeId, u16)> {
        self.cpu.on_rtp_packet(now);
        match self.by_pbx_port.get(dst_port) {
            // RTP port 0: the far leg's SDP is not seen yet (early-media
            // race), so there is nowhere to send it.
            Some(target) if target.1 != 0 => {
                self.stats.rtp_relayed += 1;
                Some(target)
            }
            _ => {
                self.stats.rtp_dropped += 1;
                None
            }
        }
    }

    // -- request handlers ---------------------------------------------------

    fn on_register(&mut self, now: SimTime, from: NodeId, req: &Request) -> Vec<PbxAction> {
        let auth = req.headers.get(&HeaderName::Authorization);

        // RFC 2617 digest credentials, or the lightweight `Simple` scheme
        // the bulk experiments register with; either way the directory
        // is consulted.
        let outcome = if let Some(creds) = auth.and_then(CredentialsView::parse) {
            // RFC 2617 §3.2.2.5: the digest must cover this request's
            // Request-URI. A REGISTER to the registrar's own URI — all
            // generated traffic — costs a string compare and the cached
            // HA2; any other Request-URI is rendered and hashed.
            let (uri_ok, ha2) = if req.uri == self.registrar_uri {
                (creds.uri == self.registrar_uri_str, self.register_ha2)
            } else {
                (
                    creds.uri == req.uri.to_string(),
                    sipcore::auth::ha2("REGISTER", creds.uri),
                )
            };
            if !uri_ok || creds.realm != self.config.hostname {
                RegisterOutcome::AuthFailed
            } else {
                // The directory lends the secret (`pw-<uid>`, built on the
                // stack) to the response check; HA1 is computed on the fly
                // and never stored.
                let nonce = &self.nonce;
                self.registrar
                    .register_with(&self.directory, now, creds.username, from, |pw| {
                        creds.verify_with_ha2(pw, &ha2, nonce)
                    })
            }
        } else {
            // No usable credentials: the 401 carries a digest challenge, so
            // a digest-capable client (the population churn path) completes
            // REGISTER → 401 → REGISTER+digest.
            let Some((uid, password)) = auth.and_then(parse_simple_auth) else {
                let mut resp = req.make_response(StatusCode::UNAUTHORIZED);
                resp.headers
                    .push(HeaderName::WwwAuthenticate, &self.challenge);
                return vec![self.reply(from, resp)];
            };
            self.registrar
                .register(&self.directory, now, uid, password, from)
        };
        let status = match outcome {
            RegisterOutcome::Ok => StatusCode::OK,
            RegisterOutcome::AuthFailed => StatusCode::FORBIDDEN,
        };
        vec![self.reply(from, req.make_response(status))]
    }

    fn on_invite(&mut self, now: SimTime, from: NodeId, req: Request) -> Vec<PbxAction> {
        let Some(call_id) = req.call_id() else {
            return vec![self.error_reply(from, &req, StatusCode::BAD_REQUEST)];
        };
        // A second INVITE on a known caller Call-ID is either a
        // retransmission (absorb; the 100/180 path will have been
        // retransmitted by the network layer if needed) or a mid-dialog
        // re-INVITE renegotiating media — dispatch on CSeq and state.
        if let Some(&idx) = self.by_caller_call_id.get(call_id) {
            return self.on_reinvite(from, idx, &req);
        }
        // A new INVITE: it files exactly one CDR, at refusal or when the
        // call it opens is closed.
        self.cdr.open(now);
        let extension = &*req.uri.user;
        // Overload control: shed *new* work before spending any routing or
        // channel effort on it (that is the point of shedding). A law may
        // also advertise feedback, which rides on this call's 100 Trying
        // when it is admitted.
        let mut admit_feedback: Option<Feedback> = None;
        if self.law.is_some() {
            let signals = self.load_signals();
            let decision = self
                .law
                .as_mut()
                .expect("law presence checked above")
                .on_invite(&signals);
            if !decision.admit {
                let mut resp = req.make_response(StatusCode::SERVICE_UNAVAILABLE);
                let retry_after = decision
                    .retry_after
                    .unwrap_or_else(|| SimDuration::from_secs(2));
                let seconds = retry_after.as_secs_f64().ceil() as u64;
                resp.headers
                    .push(HeaderName::RetryAfter, Decimal::new(seconds));
                if let Some(fb) = decision.feedback {
                    resp.headers.push_with(HeaderName::OverloadControl, |b| {
                        let _ = write!(b, "{fb}");
                    });
                }
                return self.refuse(now, from, Disposition::Shed, resp);
            }
            admit_feedback = decision.feedback;
        }

        // Route the dialled extension: only a registered local subscriber
        // is reachable.
        let Some(callee_node) = self.registrar.lookup(now, extension).map(|b| b.node) else {
            let resp = req.make_response(StatusCode::NOT_FOUND);
            return self.refuse(now, from, Disposition::Failed, resp);
        };

        // The caller's uid keys the policy ceiling and names the caller on
        // the callee leg.
        let caller_uid = req
            .headers
            .get(&HeaderName::From)
            .and_then(extract_user)
            .unwrap_or_default();
        // Call policy: per-user concurrent-call ceiling (paper §IV).
        if let Some(limit) = self.config.max_calls_per_user {
            let active = self.active_per_user.get(caller_uid).copied().unwrap_or(0);
            if active >= limit {
                let resp = req.make_response(StatusCode::FORBIDDEN);
                return self.refuse(now, from, Disposition::PolicyRefused, resp);
            }
        }

        // Admission control: the finite channel pool.
        let Some(channel) = self.pool.allocate(now) else {
            let resp = req.make_response(StatusCode::BUSY_HERE);
            return self.refuse(now, from, Disposition::Blocked, resp);
        };
        // Admitted: the Call-ID also keys the live-call index.
        let caller_call_id = call_id.to_owned();
        let caller_uid: Arc<str> = Arc::from(caller_uid);

        // Caller's media coordinates and codec from its SDP offer, read
        // like an answer. The port counts only with a known codec.
        let (offer_codec, caller_rtp_port) = req
            .body
            .sdp_codec()
            .zip(req.body.sdp_audio_port())
            .unwrap_or((SdpCodec::Pcmu, 0));

        let admitted = self.next_call_serial;
        self.next_call_serial += 1;
        let pbx_port_for_caller = self.by_pbx_port.alloc();
        let pbx_port_for_callee = self.by_pbx_port.alloc();
        let host = self.config.hostname.as_str();
        let serial = Decimal::new(admitted);
        let callee_call_id = ["b2b-", &serial, "@", host].concat();

        // Build the PBX-originated INVITE towards the callee, offering the
        // PBX's own media port (the relay behaviour of Asterisk). The body
        // stays structured — serialization happens only if this message
        // crosses a byte-materializing boundary.
        let sdp = SdpBody::new(
            Arc::clone(&self.sdp_origin),
            Arc::clone(&self.host),
            pbx_port_for_callee,
            offer_codec,
        );
        let callee_user = Arc::clone(&req.uri.user);
        let uri = SipUri::shared(Arc::clone(&callee_user), Arc::clone(&self.host));
        let mut out_invite = Request::new(Method::Invite, uri);
        out_invite.headers = HeaderMap::from_parts(
            [
                (
                    HeaderName::Via,
                    &["SIP/2.0/UDP ", host, ":5060;branch=z9hG4bKpbx", &serial],
                ),
                (
                    HeaderName::From,
                    &["<sip:", &caller_uid, "@", host, ">;tag=pbxout", &serial],
                ),
                (HeaderName::To, &["<sip:", extension, "@", host, ">"]),
                (HeaderName::CallId, &[&callee_call_id]),
                (HeaderName::CSeq, &["1 INVITE"]),
                (HeaderName::MaxForwards, &["69"]),
                (
                    HeaderName::UserAgent,
                    &["pbx-sim (Asterisk-compatible B2BUA)"],
                ),
            ],
            SDP_HEADERS_ROOM,
        );
        let out_invite = out_invite.with_sdp(sdp);

        if self.config.max_calls_per_user.is_some() {
            match self.active_per_user.get_mut(&*caller_uid) {
                Some(active) => *active += 1,
                None => {
                    self.active_per_user.insert(caller_uid.to_string(), 1);
                }
            }
        }
        let pbx_tag = ["pbxuas", &serial].concat();
        // Build the 100 Trying before the INVITE moves into the call slot
        // (the stored original serves every later caller-facing response).
        let mut trying = req.make_response(StatusCode::TRYING);
        if let Some(fb) = admit_feedback {
            trying.headers.push_with(HeaderName::OverloadControl, |b| {
                let _ = write!(b, "{fb}");
            });
        }
        let call = Call {
            serial: admitted,
            channel,
            state: CallState::Inviting,
            caller: Leg {
                node: from,
                pbx_port: pbx_port_for_caller,
            },
            callee: Leg {
                node: callee_node,
                pbx_port: pbx_port_for_callee,
            },
            caller_invite: req,
            callee_call_id: callee_call_id.clone(),
            callee_user,
            caller_uid,
            bye_from_caller: true,
            pbx_tag,
            codec: offer_codec,
        };
        let idx = self.calls.insert(call);
        self.by_caller_call_id.insert(caller_call_id, idx);
        self.by_callee_call_id.insert(callee_call_id, idx);
        // Media from the caller goes to the callee, whose port its 200
        // will name; media from the callee goes back to the caller's offer.
        self.by_pbx_port.bind(pbx_port_for_caller, callee_node, 0);
        self.by_pbx_port
            .bind(pbx_port_for_callee, from, caller_rtp_port);

        // 100 Trying to the caller + INVITE onward (the Fig. 2 ladder).
        vec![
            self.reply(from, trying),
            self.send(callee_node, out_invite.into()),
        ]
    }

    /// Second INVITE on a live caller Call-ID. A genuine retransmission
    /// (CSeq not newer, or the call not yet answered) is absorbed. A
    /// re-INVITE on an answered call renegotiates media (RFC 3261 §14):
    /// the PBX relearns the caller's RTP port/codec from the fresh offer —
    /// the endpoint may have moved its media socket — and answers 200 with
    /// its own caller-facing SDP; the callee leg is untouched because the
    /// PBX relays media either way.
    fn on_reinvite(&mut self, from: NodeId, idx: u32, req: &Request) -> Vec<PbxAction> {
        let Some(call) = self.calls.get_mut(idx) else {
            return vec![];
        };
        let old_cseq = call.caller_invite.cseq_number().unwrap_or(1);
        let new_cseq = req.cseq_number().unwrap_or(0);
        if call.state != CallState::Answered || new_cseq <= old_cseq {
            return vec![];
        }
        if let Some((codec, port)) = req.body.sdp_codec().zip(req.body.sdp_audio_port()) {
            self.by_pbx_port.learn(call.callee.pbx_port, port);
            call.codec = codec;
        }
        // Later responses (and the BYE 200) must echo the current CSeq.
        call.caller_invite = req.clone();
        let ok = self.caller_ok_with_sdp(idx);
        vec![self.reply(from, ok)]
    }

    fn on_ack(&mut self, _now: SimTime, req: &Request) -> Vec<PbxAction> {
        let Some(idx) = req
            .call_id()
            .and_then(|c| self.by_caller_call_id.get(c))
            .copied()
        else {
            return vec![]; // ACK for an errored/unknown call: absorb
        };
        let Some(call) = self.calls.get_mut(idx) else {
            return vec![];
        };
        // Forward the ACK on the callee leg to complete its handshake.
        let host = self.config.hostname.as_str();
        let (caller, callee) = (&*call.caller_uid, &*call.callee_user);
        let serial = Decimal::new(call.serial);
        let uri = SipUri::shared(Arc::clone(&call.callee_user), Arc::clone(&self.host));
        let mut ack = Request::new(Method::Ack, uri);
        ack.headers = HeaderMap::from_parts(
            [
                (
                    HeaderName::Via,
                    &["SIP/2.0/UDP ", host, ":5060;branch=z9hG4bKpbxack", &serial],
                ),
                (HeaderName::CallId, &[&call.callee_call_id]),
                (HeaderName::CSeq, &["1 ACK"]),
                (
                    HeaderName::From,
                    &["<sip:", caller, "@", host, ">;tag=pbxout"],
                ),
                (HeaderName::To, &["<sip:", callee, "@", host, ">"]),
            ],
            (0, 0),
        );
        let to = call.callee.node;
        vec![self.send(to, ack.into())]
    }

    fn on_bye(&mut self, _now: SimTime, from: NodeId, req: &Request) -> Vec<PbxAction> {
        let Some(cid) = req.call_id() else {
            return vec![self.error_reply(from, req, StatusCode::BAD_REQUEST)];
        };
        // A BYE can arrive on either leg.
        let (idx, from_caller) = if let Some(&i) = self.by_caller_call_id.get(cid) {
            (i, true)
        } else if let Some(&i) = self.by_callee_call_id.get(cid) {
            (i, false)
        } else {
            // Unknown call (already gone): answer 200 to stop retransmits.
            return vec![self.reply(from, req.make_response(StatusCode::OK))];
        };
        let Some(call) = self.calls.get_mut(idx) else {
            return vec![self.reply(from, req.make_response(StatusCode::OK))];
        };
        call.state = CallState::TearingDown;
        call.bye_from_caller = from_caller;
        // Forward the BYE to the other leg (Fig. 2: BYE is forwarded, the
        // 200 comes back through us).
        let (other_node, other_user, other_call_id) = if from_caller {
            (
                call.callee.node,
                Arc::clone(&call.callee_user),
                call.callee_call_id.as_str(),
            )
        } else {
            (
                call.caller.node,
                Arc::clone(&call.caller_uid),
                call.caller_invite.call_id().unwrap_or(""),
            )
        };
        let host = self.config.hostname.as_str();
        let serial = Decimal::new(call.serial);
        let uri = SipUri::shared(other_user, Arc::clone(&self.host));
        let mut bye = Request::new(Method::Bye, uri);
        bye.headers = HeaderMap::from_parts(
            [
                (
                    HeaderName::Via,
                    &["SIP/2.0/UDP ", host, ":5060;branch=z9hG4bKpbxbye", &serial],
                ),
                (HeaderName::CallId, &[other_call_id]),
                (HeaderName::CSeq, &["2 BYE"]),
                (HeaderName::From, &["<sip:pbx@", host, ">;tag=pbxbye"]),
                (HeaderName::To, &["<sip:peer>"]),
            ],
            (0, 0),
        );
        vec![self.send(other_node, bye.into())]
    }

    fn on_cancel(&mut self, now: SimTime, req: &Request) -> Vec<PbxAction> {
        let Some(idx) = req
            .call_id()
            .and_then(|c| self.by_caller_call_id.get(c))
            .copied()
        else {
            return vec![];
        };
        let Some(call) = self.calls.get(idx) else {
            return vec![];
        };
        if call.state == CallState::Answered {
            return vec![]; // too late to cancel
        }
        let caller_node = call.caller.node;
        let callee_node = call.callee.node;
        let callee_call_id = call.callee_call_id.clone();
        // 200 for the CANCEL, 487 for the INVITE, CANCEL onward.
        let ok = req.make_response(StatusCode::OK);
        let invite_487 = self.caller_response(idx, StatusCode::REQUEST_TERMINATED);
        let cancel_out = Request::new(
            Method::Cancel,
            sipcore::SipUri::new("peer", &self.config.hostname),
        )
        .header(HeaderName::CallId, callee_call_id)
        .header(HeaderName::CSeq, "1 CANCEL");
        self.close_call(now, idx, Disposition::NoAnswer);
        vec![
            self.reply(caller_node, ok),
            self.reply(caller_node, invite_487),
            self.send(callee_node, cancel_out.into()),
        ]
    }

    // -- response handling ---------------------------------------------------

    fn on_response(&mut self, now: SimTime, resp: Response) -> Vec<PbxAction> {
        let Some(cid) = resp.call_id() else {
            return vec![];
        };
        // Responses to PBX-originated requests arrive on the callee leg...
        if let Some(idx) = self.by_callee_call_id.get(cid).copied() {
            return self.on_callee_response(now, idx, resp);
        }
        // ...or are 200-to-BYE on the caller leg when the callee hung up.
        if let Some(idx) = self.by_caller_call_id.get(cid).copied() {
            if resp.cseq_method() == Some(Method::Bye) && resp.status.is_final() {
                return self.on_bye_confirmed(now, idx);
            }
        }
        vec![]
    }

    fn on_callee_response(&mut self, now: SimTime, idx: u32, resp: Response) -> Vec<PbxAction> {
        let Some(call) = self.calls.get_mut(idx) else {
            return vec![];
        };
        match resp.cseq_method() {
            Some(Method::Invite) => {
                if resp.status == StatusCode::RINGING {
                    call.state = CallState::Ringing;
                    let caller_node = call.caller.node;
                    let fwd = self.caller_response(idx, StatusCode::RINGING);
                    vec![self.reply(caller_node, fwd)]
                } else if resp.status.is_success() {
                    // Callee answered: learn its media port and the codec
                    // it accepted, bridge, relay a 200 whose caller-facing
                    // SDP advertises the *negotiated* codec.
                    if let Some(port) = resp.body.sdp_audio_port() {
                        self.by_pbx_port.learn(call.caller.pbx_port, port);
                    }
                    if let Some(codec) = resp.body.sdp_codec() {
                        call.codec = codec;
                    }
                    if matches!(call.state, CallState::Inviting | CallState::Ringing) {
                        self.stats.calls_answered += 1;
                    }
                    call.state = CallState::Answered;
                    let caller_node = call.caller.node;
                    let fwd = self.caller_ok_with_sdp(idx);
                    vec![self.reply(caller_node, fwd)]
                } else if resp.status.is_error() {
                    // Callee refused: ACK the error (non-2xx), relay it,
                    // tear down.
                    let caller_node = call.caller.node;
                    let callee_node = call.callee.node;
                    let callee_call_id = call.callee_call_id.clone();
                    let status = resp.status;
                    let fwd = self.caller_response(idx, status);
                    self.close_call(now, idx, Disposition::Failed);
                    let ack = Request::new(
                        Method::Ack,
                        sipcore::SipUri::new("peer", &self.config.hostname),
                    )
                    .header(HeaderName::CallId, callee_call_id)
                    .header(HeaderName::CSeq, "1 ACK");
                    vec![
                        self.send(callee_node, ack.into()),
                        self.reply(caller_node, fwd),
                    ]
                } else {
                    vec![] // other provisionals absorbed
                }
            }
            Some(Method::Bye) if resp.status.is_final() => self.on_bye_confirmed(now, idx),
            _ => vec![],
        }
    }

    /// The far leg confirmed our forwarded BYE: send the 200 back to the
    /// leg that hung up and close the call.
    fn on_bye_confirmed(&mut self, now: SimTime, idx: u32) -> Vec<PbxAction> {
        let Some(call) = self.calls.get(idx) else {
            return vec![];
        };
        let (hangup_node, ok) = if call.bye_from_caller {
            // Caller hung up; 200 goes back to the caller leg.
            let invite = &call.caller_invite;
            let mut ok = invite.make_response_tagged(StatusCode::OK, &call.pbx_tag);
            ok.headers.set(HeaderName::CSeq, "2 BYE");
            (call.caller.node, ok)
        } else {
            let ok = Response::new(StatusCode::OK)
                .header(HeaderName::CallId, &call.callee_call_id)
                .header(HeaderName::CSeq, "2 BYE");
            (call.callee.node, ok)
        };
        self.close_call(now, idx, Disposition::Answered);
        vec![self.reply(hangup_node, ok)]
    }

    // -- helpers ---------------------------------------------------------

    /// Build a caller-facing response derived from the stored INVITE.
    fn caller_response(&self, idx: u32, status: StatusCode) -> Response {
        let call = &self.calls[idx];
        let invite = &call.caller_invite;
        let mut resp = invite.make_response_tagged(status, &call.pbx_tag);
        let host = self.config.hostname.as_str();
        resp.headers
            .push_parts(HeaderName::Contact, &["<sip:", host, ":5060>"]);
        resp
    }

    /// The caller-facing 200 (the callee's answer relayed, or a re-INVITE's
    /// reply), its SDP advertising the PBX's caller-facing port and the
    /// call's negotiated codec (not a hardcoded PCMU — an A-law call stays
    /// A-law end to end).
    fn caller_ok_with_sdp(&self, idx: u32) -> Response {
        let call = &self.calls[idx];
        let sdp = SdpBody::new(
            Arc::clone(&self.sdp_origin),
            Arc::clone(&self.host),
            call.caller.pbx_port,
            call.codec,
        );
        self.caller_response(idx, StatusCode::OK).with_sdp(sdp)
    }

    /// Refuse a new INVITE with `resp`, filing its CDR as `disposition`.
    fn refuse(
        &mut self,
        now: SimTime,
        from: NodeId,
        disposition: Disposition,
        resp: Response,
    ) -> Vec<PbxAction> {
        self.cdr.file(now, disposition);
        vec![self.reply(from, resp)]
    }

    fn close_call(&mut self, now: SimTime, idx: u32, disposition: Disposition) {
        if let Some(call) = self.calls.remove(idx) {
            self.pool.release(now, call.channel);
            if let Some(n) = self.active_per_user.get_mut(&*call.caller_uid) {
                *n -= 1;
                if *n == 0 {
                    self.active_per_user.remove(&*call.caller_uid);
                }
            }
            self.by_pbx_port.remove(call.caller.pbx_port);
            self.by_pbx_port.remove(call.callee.pbx_port);
            if let Some(cid) = call.caller_invite.call_id() {
                self.by_caller_call_id.remove(cid);
            }
            self.by_callee_call_id.remove(&call.callee_call_id);
            self.cdr.file(now, disposition);
        }
    }

    fn send(&mut self, to: NodeId, msg: SipMessage) -> PbxAction {
        self.stats.sip_out += 1;
        PbxAction::SendSip { to, msg }
    }

    fn reply(&mut self, to: NodeId, resp: Response) -> PbxAction {
        if resp.status.is_error() {
            self.stats.sip_errors_sent += 1;
        }
        self.stats.sip_out += 1;
        PbxAction::SendSip {
            to,
            msg: resp.into(),
        }
    }

    fn error_reply(&mut self, to: NodeId, req: &Request, status: StatusCode) -> PbxAction {
        self.reply(to, req.make_response(status))
    }
}

/// Parse `Simple <uid> <password>` authorization values.
fn parse_simple_auth(value: &str) -> Option<(&str, &str)> {
    let mut parts = value.split_whitespace();
    if parts.next()? != "Simple" {
        return None;
    }
    Some((parts.next()?, parts.next()?))
}

/// Extract the user part from a From/To header value.
fn extract_user(value: &str) -> Option<&str> {
    let start = value.find("sip:")? + 4;
    let rest = &value[start..];
    let end = rest.find('@')?;
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::{FIRST_MEDIA_PORT, MEDIA_PORTS};
    use sipcore::message::format_via;
    use sipcore::Body;

    const CALLER_NODE: NodeId = NodeId(1);
    const CALLEE_NODE: NodeId = NodeId(2);
    const PBX_NODE: NodeId = NodeId(3);

    fn pbx_with_users() -> Pbx {
        let dir = Directory::with_subscribers(1000, 100);
        let mut pbx = Pbx::new(PbxConfig::evaluation_default(PBX_NODE), dir);
        // Register caller 1001 at node 1 and callee 1002 at node 2.
        for (uid, node) in [("1001", CALLER_NODE), ("1002", CALLEE_NODE)] {
            let req = register_request(uid);
            let acts = pbx.handle_sip(SimTime::ZERO, node, req.into());
            assert!(matches!(
                &acts[0],
                PbxAction::SendSip { msg: SipMessage::Response(r), .. } if r.status == StatusCode::OK
            ));
        }
        pbx
    }

    fn register_request(uid: &str) -> Request {
        Request::new(Method::Register, sipcore::SipUri::server("pbx.unb.br"))
            .header(HeaderName::Via, format_via("host", 5060, "z9hG4bKreg"))
            .header(HeaderName::From, format!("<sip:{uid}@pbx.unb.br>;tag=r"))
            .header(HeaderName::To, format!("<sip:{uid}@pbx.unb.br>"))
            .header(HeaderName::CallId, format!("reg-{uid}"))
            .header(HeaderName::CSeq, "1 REGISTER")
            .header(HeaderName::Authorization, format!("Simple {uid} pw-{uid}"))
    }

    fn invite(call_id: &str, from_uid: &str, to_ext: &str, rtp_port: u16) -> Request {
        invite_offering(call_id, from_uid, to_ext, rtp_port, SdpCodec::Pcmu)
    }

    fn invite_offering(
        call_id: &str,
        from_uid: &str,
        to_ext: &str,
        rtp_port: u16,
        codec: SdpCodec,
    ) -> Request {
        let sdp = SdpBody::new(from_uid, "10.0.0.1", rtp_port, codec);
        Request::new(Method::Invite, sipcore::SipUri::new(to_ext, "pbx.unb.br"))
            .header(
                HeaderName::Via,
                format_via("10.0.0.1", 5060, &format!("z9hG4bK{call_id}")),
            )
            .header(
                HeaderName::From,
                format!("<sip:{from_uid}@pbx.unb.br>;tag=c{call_id}"),
            )
            .header(HeaderName::To, format!("<sip:{to_ext}@pbx.unb.br>"))
            .header(HeaderName::CallId, call_id)
            .header(HeaderName::CSeq, "1 INVITE")
            .with_body("application/sdp", Body::from(sdp).to_vec())
    }

    fn sip_of(a: &PbxAction) -> &SipMessage {
        match a {
            PbxAction::SendSip { msg, .. } => msg,
            other => panic!("expected SIP action, got {other:?}"),
        }
    }

    /// Drive a full call to the answered state; returns (pbx, callee 200's
    /// SDP port facing caller, callee-facing pbx port).
    fn establish_call(pbx: &mut Pbx, call_id: &str) -> (u16, u16) {
        let acts = pbx.handle_sip(
            SimTime::from_secs(1),
            CALLER_NODE,
            invite(call_id, "1001", "1002", 6000).into(),
        );
        assert_eq!(acts.len(), 2, "100 Trying + forwarded INVITE");
        let trying = sip_of(&acts[0]).as_response().unwrap();
        assert_eq!(trying.status, StatusCode::TRYING);
        let fwd_invite = sip_of(&acts[1]).as_request().unwrap().clone();
        assert_eq!(fwd_invite.method, Method::Invite);
        let callee_facing = fwd_invite.body.sdp_audio_port().unwrap();
        assert!(
            callee_facing >= FIRST_MEDIA_PORT,
            "PBX offers its own media port"
        );

        // Callee rings then answers with its SDP (port 7000).
        let ringing = fwd_invite.make_response(StatusCode::RINGING);
        let acts = pbx.handle_sip(SimTime::from_secs(2), CALLEE_NODE, ringing.into());
        assert_eq!(acts.len(), 1);
        assert_eq!(
            sip_of(&acts[0]).as_response().unwrap().status,
            StatusCode::RINGING
        );

        let mut ok = fwd_invite.make_response(StatusCode::OK);
        let answer = SdpBody::new("1002", "10.0.0.2", 7000, SdpCodec::Pcmu);
        ok = ok.with_body("application/sdp", Body::from(answer).to_vec());
        let acts = pbx.handle_sip(SimTime::from_secs(3), CALLEE_NODE, ok.into());
        assert_eq!(acts.len(), 1);
        let fwd_ok = sip_of(&acts[0]).as_response().unwrap();
        assert_eq!(fwd_ok.status, StatusCode::OK);
        let caller_facing = fwd_ok.body.sdp_audio_port().unwrap();

        // Caller ACKs; PBX forwards it to the callee.
        let ack = Request::new(Method::Ack, sipcore::SipUri::new("1002", "pbx.unb.br"))
            .header(HeaderName::CallId, call_id)
            .header(HeaderName::CSeq, "1 ACK");
        let acts = pbx.handle_sip(SimTime::from_secs(3), CALLER_NODE, ack.into());
        assert_eq!(acts.len(), 1);
        assert_eq!(sip_of(&acts[0]).as_request().unwrap().method, Method::Ack);

        (caller_facing, callee_facing)
    }

    /// Satellite of the SDP fast path: an A-law call stays A-law on both
    /// legs — the caller-facing 200 advertises the codec the callee
    /// accepted, not a hardcoded PCMU.
    #[test]
    fn negotiated_codec_survives_to_caller_facing_answer() {
        let mut pbx = pbx_with_users();
        let inv = invite_offering("alaw", "1001", "1002", 6000, SdpCodec::Pcma);
        let acts = pbx.handle_sip(SimTime::from_secs(1), CALLER_NODE, inv.into());
        let fwd_invite = sip_of(&acts[1]).as_request().unwrap().clone();
        assert_eq!(
            fwd_invite.body.sdp_codec(),
            Some(SdpCodec::Pcma),
            "offer codec relayed to the callee leg"
        );

        let ok = fwd_invite
            .make_response(StatusCode::OK)
            .with_sdp(SdpBody::new("1002", "10.0.0.2", 7000, SdpCodec::Pcma));
        let acts = pbx.handle_sip(SimTime::from_secs(2), CALLEE_NODE, ok.into());
        let fwd_ok = sip_of(&acts[0]).as_response().unwrap();
        assert_eq!(fwd_ok.status, StatusCode::OK);
        assert_eq!(
            fwd_ok.body.sdp_codec(),
            Some(SdpCodec::Pcma),
            "caller-facing answer carries the negotiated codec"
        );
    }

    /// A mid-dialog re-INVITE (same Call-ID, higher CSeq) relearns the
    /// caller's media port; a plain retransmission is still absorbed.
    #[test]
    fn reinvite_relearns_caller_media_port() {
        let mut pbx = pbx_with_users();
        let (_, callee_facing_port) = establish_call(&mut pbx, "re1");
        assert_eq!(
            pbx.relay_rtp(SimTime::from_secs(4), callee_facing_port),
            Some((CALLER_NODE, 6000)),
            "media relays to the original caller port"
        );

        // Retransmitted INVITE (same CSeq): absorbed, nothing sent.
        let retrans = invite("re1", "1001", "1002", 6000);
        assert!(pbx
            .handle_sip(SimTime::from_secs(4), CALLER_NODE, retrans.into())
            .is_empty());

        // Re-INVITE with a higher CSeq moving media to port 6400.
        let mut re = invite("re1", "1001", "1002", 6400);
        re.headers.set(HeaderName::CSeq, "2 INVITE");
        let acts = pbx.handle_sip(SimTime::from_secs(5), CALLER_NODE, re.into());
        assert_eq!(acts.len(), 1, "200 OK straight back, no callee traffic");
        let ok = sip_of(&acts[0]).as_response().unwrap();
        assert_eq!(ok.status, StatusCode::OK);
        assert_eq!(ok.cseq_number(), Some(2));
        assert!(
            ok.body.sdp_audio_port().is_some(),
            "200 re-offers the PBX's caller-facing media port"
        );
        assert_eq!(
            pbx.relay_rtp(SimTime::from_secs(6), callee_facing_port),
            Some((CALLER_NODE, 6400)),
            "media now relays to the relearned port"
        );
    }

    #[test]
    fn fig2_ladder_message_counts() {
        let mut pbx = pbx_with_users();
        let base_in = pbx.stats().sip_in;
        let base_out = pbx.stats().sip_out;
        establish_call(&mut pbx, "ladder");
        // Teardown: caller BYE -> forwarded; callee 200 -> forwarded.
        let bye = Request::new(Method::Bye, sipcore::SipUri::new("1002", "pbx.unb.br"))
            .header(HeaderName::CallId, "ladder")
            .header(HeaderName::CSeq, "2 BYE");
        let acts = pbx.handle_sip(SimTime::from_secs(120), CALLER_NODE, bye.into());
        let fwd_bye = sip_of(&acts[0]).as_request().unwrap().clone();
        assert_eq!(fwd_bye.method, Method::Bye);
        let ok = fwd_bye.make_response(StatusCode::OK);
        let acts = pbx.handle_sip(SimTime::from_secs(120), CALLEE_NODE, ok.into());
        assert_eq!(
            sip_of(&acts[0]).as_response().unwrap().status,
            StatusCode::OK
        );

        // Fig. 2: the PBX receives 6 messages (INVITE, 180, 200, ACK, BYE,
        // 200-BYE — the 100 is generated, not received... from the PBX's
        // perspective: in = INVITE, 180, 200, ACK, BYE, 200) and sends 7
        // (100, INVITE, 180, 200, ACK, BYE, 200).
        assert_eq!(pbx.stats().sip_in - base_in, 6);
        assert_eq!(pbx.stats().sip_out - base_out, 7);
        // 13 total messages crossed the wire: 6 + 7.
        assert_eq!(
            pbx.stats().sip_in - base_in + pbx.stats().sip_out - base_out,
            13
        );
    }

    #[test]
    fn answered_call_files_one_answered_cdr() {
        let mut pbx = pbx_with_users();
        establish_call(&mut pbx, "cdr-test");
        let bye = Request::new(Method::Bye, sipcore::SipUri::new("1002", "pbx.unb.br"))
            .header(HeaderName::CallId, "cdr-test")
            .header(HeaderName::CSeq, "2 BYE");
        let acts = pbx.handle_sip(SimTime::from_secs(123), CALLER_NODE, bye.into());
        let fwd_bye = sip_of(&acts[0]).as_request().unwrap().clone();
        assert_eq!(&*fwd_bye.uri.user, "1002", "the BYE goes to the callee");
        pbx.handle_sip(
            SimTime::from_secs(123),
            CALLEE_NODE,
            fwd_bye.make_response(StatusCode::OK).into(),
        );
        assert_eq!(pbx.cdr.total(), 1);
        assert_eq!(pbx.cdr.count(Disposition::Answered), 1);
        assert_eq!(pbx.stats().calls_answered, 1);
        assert_eq!(pbx.active_calls(), 0);
        assert_eq!(pbx.pool.in_use(), 0, "channel released");
    }

    fn test_datagram(seq: u16) -> rtpcore::RtpDatagram {
        rtpcore::RtpDatagram {
            header: rtpcore::RtpHeader {
                marker: false,
                payload_type: 0,
                sequence: seq,
                timestamp: 0,
                ssrc: 1,
            },
            payload: vec![0u8; 160].into(),
        }
    }

    #[test]
    fn rtp_is_relayed_between_legs() {
        let mut pbx = pbx_with_users();
        let (caller_facing_port, callee_facing_port) = establish_call(&mut pbx, "media");
        // Caller sends RTP to the PBX's caller-facing port; it must come
        // out towards the callee's advertised port 7000.
        let d1 = test_datagram(1);
        let acts = pbx.handle_rtp(SimTime::from_secs(4), caller_facing_port, d1.clone());
        assert_eq!(
            acts,
            vec![PbxAction::SendRtp {
                to: CALLEE_NODE,
                to_port: 7000,
                datagram: d1.clone(),
            }]
        );
        // The relayed payload is the caller's buffer, not a copy.
        match &acts[0] {
            PbxAction::SendRtp { datagram, .. } => {
                assert!(std::sync::Arc::ptr_eq(&datagram.payload, &d1.payload));
            }
            other => panic!("unexpected action {other:?}"),
        }
        // Callee's media flows back to the caller's port 6000.
        let d2 = test_datagram(2);
        let acts = pbx.handle_rtp(SimTime::from_secs(4), callee_facing_port, d2.clone());
        assert_eq!(
            acts,
            vec![PbxAction::SendRtp {
                to: CALLER_NODE,
                to_port: 6000,
                datagram: d2,
            }]
        );
        assert_eq!(pbx.stats().rtp_relayed, 2);
        assert_eq!(pbx.stats().rtp_dropped, 0);
        // The route-only fast path agrees with handle_rtp.
        assert_eq!(
            pbx.relay_rtp(SimTime::from_secs(5), caller_facing_port),
            Some((CALLEE_NODE, 7000))
        );
        assert_eq!(pbx.stats().rtp_relayed, 3);
    }

    /// More admit→BYE cycles than the media-port range holds: the
    /// allocator wraps instead of panicking, and a port still bound to a
    /// live call is never handed to another.
    #[test]
    fn media_ports_wrap_and_skip_live_calls() {
        let mut pbx = pbx_with_users();
        let admit = |pbx: &mut Pbx, cid: &str| {
            let acts = pbx.handle_sip(
                SimTime::from_secs(1),
                CALLER_NODE,
                invite(cid, "1001", "1002", 6000).into(),
            );
            assert_eq!(acts.len(), 2, "{cid} admitted");
        };
        // Two calls held across the wrap sit on the first four ports.
        admit(&mut pbx, "held-a");
        admit(&mut pbx, "held-b");
        // Two ports per call, so this outruns the range by ~600 calls.
        for i in 0..MEDIA_PORTS / 2 + 600 {
            let cid = format!("c{i}");
            admit(&mut pbx, &cid);
            // Two map entries per live call: a reused live port would
            // have overwritten one.
            assert_eq!(
                pbx.by_pbx_port.len(),
                6,
                "cycle {i}: live calls share a port"
            );
            let bye = Request::new(Method::Bye, sipcore::SipUri::new("1002", "pbx.unb.br"))
                .header(HeaderName::CallId, cid)
                .header(HeaderName::CSeq, "2 BYE");
            let acts = pbx.handle_sip(SimTime::from_secs(2), CALLER_NODE, bye.into());
            let fwd = sip_of(&acts[0]).as_request().unwrap().clone();
            pbx.handle_sip(
                SimTime::from_secs(2),
                CALLEE_NODE,
                fwd.make_response(StatusCode::OK).into(),
            );
            assert_eq!(pbx.active_calls(), 2);
        }
        let mut live: Vec<u16> = pbx
            .calls
            .iter()
            .flat_map(|(_, c)| [c.caller.pbx_port, c.callee.pbx_port])
            .collect();
        live.sort_unstable();
        assert_eq!(
            live,
            [
                FIRST_MEDIA_PORT,
                FIRST_MEDIA_PORT + 2,
                FIRST_MEDIA_PORT + 4,
                FIRST_MEDIA_PORT + 6
            ]
        );
    }

    #[test]
    fn rtp_to_unknown_port_is_dropped() {
        let mut pbx = pbx_with_users();
        let acts = pbx.handle_rtp(SimTime::ZERO, 40_000, test_datagram(1));
        assert!(acts.is_empty());
        assert_eq!(pbx.stats().rtp_dropped, 1);
        assert_eq!(pbx.relay_rtp(SimTime::ZERO, 40_000), None);
        assert_eq!(pbx.stats().rtp_dropped, 2);
    }

    #[test]
    fn channel_exhaustion_blocks_with_486() {
        let dir = Directory::with_subscribers(1000, 100);
        let mut cfg = PbxConfig::evaluation_default(PBX_NODE);
        cfg.channels = 1;
        let mut pbx = Pbx::new(cfg, dir);
        for (uid, node) in [("1001", CALLER_NODE), ("1002", CALLEE_NODE)] {
            pbx.handle_sip(SimTime::ZERO, node, register_request(uid).into());
        }
        // First call occupies the only channel.
        let acts = pbx.handle_sip(
            SimTime::from_secs(1),
            CALLER_NODE,
            invite("c1", "1001", "1002", 6000).into(),
        );
        assert_eq!(acts.len(), 2);
        // Second call is refused with 486.
        let acts = pbx.handle_sip(
            SimTime::from_secs(2),
            CALLER_NODE,
            invite("c2", "1001", "1002", 6002).into(),
        );
        assert_eq!(acts.len(), 1);
        let resp = sip_of(&acts[0]).as_response().unwrap();
        assert_eq!(resp.status, StatusCode::BUSY_HERE);
        assert_eq!(pbx.stats().calls_blocked, 1);
        assert_eq!(pbx.stats().sip_errors_sent, 1);
        // A refused call's record is filed when it is refused; the
        // admitted one stays open.
        assert_eq!(pbx.cdr.count(Disposition::Blocked), 1);
        assert_eq!(pbx.cdr.total(), 1, "1 of 1 filed records blocked so far");
        assert_eq!(pbx.cdr.steady(), (2, 1));
    }

    #[test]
    fn unknown_extension_gets_404() {
        let mut pbx = pbx_with_users();
        let acts = pbx.handle_sip(
            SimTime::from_secs(1),
            CALLER_NODE,
            invite("x", "1001", "7777", 6000).into(),
        );
        let resp = sip_of(&acts[0]).as_response().unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND, "7777 never registered");
        assert_eq!(pbx.cdr.count(Disposition::Failed), 1);
        assert_eq!(pbx.pool.in_use(), 0, "no channel leaked");
    }

    /// The registrar's lookup is the whole routing rule: anything that is
    /// not a registered subscriber's uid, written as the directory writes
    /// it, gets 404 and files one `Failed` CDR.
    #[test]
    fn unroutable_extensions_get_404() {
        for ext in ["y", "", "abcd", "1000x", "01002", "999", "1099"] {
            let mut pbx = pbx_with_users();
            let acts = pbx.handle_sip(
                SimTime::from_secs(1),
                CALLER_NODE,
                invite("y", "1001", ext, 6000).into(),
            );
            assert_eq!(acts.len(), 1, "{ext:?}: only the refusal goes out");
            let resp = sip_of(&acts[0]).as_response().unwrap();
            assert_eq!(resp.status, StatusCode::NOT_FOUND, "{ext:?}");
            assert_eq!(pbx.cdr.count(Disposition::Failed), 1, "{ext:?}");
            assert_eq!(pbx.cdr.total(), 1, "{ext:?}: exactly one CDR");
            assert_eq!(pbx.pool.in_use(), 0, "{ext:?}: no channel taken");
        }
        let mut pbx = pbx_with_users();
        let acts = pbx.handle_sip(
            SimTime::from_secs(1),
            CALLER_NODE,
            invite("y", "1001", "1002", 6000).into(),
        );
        assert_eq!(acts.len(), 2, "the registered callee routes");
        assert!(matches!(&acts[1], PbxAction::SendSip { to, .. } if *to == CALLEE_NODE));
    }

    /// An offer whose port parses but whose only payload type is unknown
    /// counts as no offer: the callee leg is offered PCMU and media from
    /// the callee has nowhere to go until a usable offer arrives.
    #[test]
    fn offer_with_only_an_unknown_codec_is_no_offer() {
        let offer_with = |pt: u8| {
            let sdp = format!("c=IN IP4 10.0.0.1\r\nm=audio 6000 RTP/AVP {pt}\r\n");
            invite("u", "1001", "1002", 0).with_body("application/sdp", sdp.into_bytes())
        };

        let mut pbx = pbx_with_users();
        let acts = pbx.handle_sip(SimTime::from_secs(1), CALLER_NODE, offer_with(18).into());
        let fwd_invite = sip_of(&acts[1]).as_request().unwrap();
        assert_eq!(fwd_invite.body.sdp_codec(), Some(SdpCodec::Pcmu));
        let callee_facing = fwd_invite.body.sdp_audio_port().unwrap();
        assert_eq!(pbx.relay_rtp(SimTime::from_secs(2), callee_facing), None);
        assert_eq!(pbx.stats().rtp_dropped, 1);

        let mut pbx = pbx_with_users();
        let acts = pbx.handle_sip(SimTime::from_secs(1), CALLER_NODE, offer_with(0).into());
        let fwd_invite = sip_of(&acts[1]).as_request().unwrap();
        let callee_facing = fwd_invite.body.sdp_audio_port().unwrap();
        assert_eq!(
            pbx.relay_rtp(SimTime::from_secs(2), callee_facing),
            Some((CALLER_NODE, 6000))
        );
        assert_eq!(pbx.stats().rtp_dropped, 0);
    }

    #[test]
    fn register_with_bad_password_forbidden() {
        let dir = Directory::with_subscribers(1000, 10);
        let mut pbx = Pbx::new(PbxConfig::evaluation_default(PBX_NODE), dir);
        let mut req = register_request("1001");
        req.headers
            .set(HeaderName::Authorization, "Simple 1001 wrong");
        let acts = pbx.handle_sip(SimTime::ZERO, CALLER_NODE, req.into());
        let resp = sip_of(&acts[0]).as_response().unwrap();
        assert_eq!(resp.status, StatusCode::FORBIDDEN);
        // Missing auth entirely -> 401.
        let mut req = register_request("1001");
        req.headers.remove_first(&HeaderName::Authorization);
        let acts = pbx.handle_sip(SimTime::ZERO, CALLER_NODE, req.into());
        assert_eq!(
            sip_of(&acts[0]).as_response().unwrap().status,
            StatusCode::UNAUTHORIZED
        );
    }

    #[test]
    fn callee_busy_is_relayed_and_cleaned_up() {
        let mut pbx = pbx_with_users();
        let acts = pbx.handle_sip(
            SimTime::from_secs(1),
            CALLER_NODE,
            invite("busy", "1001", "1002", 6000).into(),
        );
        let fwd_invite = sip_of(&acts[1]).as_request().unwrap().clone();
        let busy = fwd_invite.make_response(StatusCode::BUSY_HERE);
        let acts = pbx.handle_sip(SimTime::from_secs(2), CALLEE_NODE, busy.into());
        // ACK towards callee + relayed 486 towards caller.
        assert_eq!(acts.len(), 2);
        assert_eq!(sip_of(&acts[0]).as_request().unwrap().method, Method::Ack);
        assert_eq!(
            sip_of(&acts[1]).as_response().unwrap().status,
            StatusCode::BUSY_HERE
        );
        assert_eq!(pbx.pool.in_use(), 0);
        assert_eq!(pbx.cdr.count(Disposition::Failed), 1);
    }

    #[test]
    fn cancel_before_answer() {
        let mut pbx = pbx_with_users();
        pbx.handle_sip(
            SimTime::from_secs(1),
            CALLER_NODE,
            invite("cx", "1001", "1002", 6000).into(),
        );
        let cancel = Request::new(Method::Cancel, sipcore::SipUri::new("1002", "pbx.unb.br"))
            .header(HeaderName::CallId, "cx")
            .header(HeaderName::CSeq, "1 CANCEL");
        let acts = pbx.handle_sip(SimTime::from_secs(2), CALLER_NODE, cancel.into());
        assert_eq!(acts.len(), 3, "200-CANCEL, 487-INVITE, CANCEL onward");
        assert_eq!(
            sip_of(&acts[0]).as_response().unwrap().status,
            StatusCode::OK
        );
        assert_eq!(
            sip_of(&acts[1]).as_response().unwrap().status,
            StatusCode::REQUEST_TERMINATED
        );
        assert_eq!(pbx.cdr.count(Disposition::NoAnswer), 1);
        assert_eq!(pbx.pool.in_use(), 0);
    }

    #[test]
    fn callee_can_hang_up_too() {
        let mut pbx = pbx_with_users();
        establish_call(&mut pbx, "chu");
        // The callee leg's call-id is the b2b one.
        let callee_cid = "b2b-0@pbx.unb.br";
        let bye = Request::new(Method::Bye, sipcore::SipUri::new("1001", "pbx.unb.br"))
            .header(HeaderName::CallId, callee_cid)
            .header(HeaderName::CSeq, "2 BYE");
        let acts = pbx.handle_sip(SimTime::from_secs(100), CALLEE_NODE, bye.into());
        let fwd = sip_of(&acts[0]).as_request().unwrap().clone();
        assert_eq!(fwd.method, Method::Bye);
        // Caller confirms.
        let acts = pbx.handle_sip(
            SimTime::from_secs(100),
            CALLER_NODE,
            fwd.make_response(StatusCode::OK).into(),
        );
        assert_eq!(acts.len(), 1, "200 back to the callee");
        assert_eq!(pbx.cdr.count(Disposition::Answered), 1);
        assert_eq!(pbx.pool.in_use(), 0);
    }

    #[test]
    fn retransmitted_invite_absorbed() {
        let mut pbx = pbx_with_users();
        let inv = invite("retx", "1001", "1002", 6000);
        let first = pbx.handle_sip(SimTime::from_secs(1), CALLER_NODE, inv.clone().into());
        assert_eq!(first.len(), 2);
        let second = pbx.handle_sip(SimTime::from_secs(1), CALLER_NODE, inv.into());
        assert!(second.is_empty(), "no duplicate call created");
        assert_eq!(pbx.pool.in_use(), 1);
    }

    #[test]
    fn finish_records_in_progress_calls() {
        let mut pbx = pbx_with_users();
        establish_call(&mut pbx, "open-ended");
        pbx.finish(SimTime::from_secs(200));
        assert_eq!(pbx.cdr.count(Disposition::InProgress), 1);
        assert_eq!(pbx.active_calls(), 0);
    }

    /// A closed call's slot serves the next call, and the requests the
    /// PBX sends on the callee leg still name the admission serial.
    #[test]
    fn closed_call_slots_are_reused_and_branches_keep_the_serial() {
        let mut pbx = pbx_with_users();
        let hang_up = |pbx: &mut Pbx, cid: &str| {
            let bye = Request::new(Method::Bye, sipcore::SipUri::new("1002", "pbx.unb.br"))
                .header(HeaderName::CallId, cid)
                .header(HeaderName::CSeq, "2 BYE");
            let acts = pbx.handle_sip(SimTime::from_secs(5), CALLER_NODE, bye.into());
            let fwd = sip_of(&acts[0]).as_request().unwrap().clone();
            let via = fwd.headers.get(&HeaderName::Via).unwrap().to_owned();
            pbx.handle_sip(
                SimTime::from_secs(5),
                CALLEE_NODE,
                fwd.make_response(StatusCode::OK).into(),
            );
            via
        };
        for (serial, cid) in ["first", "second", "third"].into_iter().enumerate() {
            establish_call(&mut pbx, cid);
            let via = hang_up(&mut pbx, cid);
            assert!(via.ends_with(&format!("z9hG4bKpbxbye{serial}")), "{via}");
            assert_eq!(pbx.calls.slots(), 1, "{cid} reused the one slot");
        }
        assert_eq!(pbx.cdr.count(Disposition::Answered), 3);
    }

    #[test]
    fn active_calls_is_the_live_index() {
        // The O(1) answer equals a scan of the call slots after every
        // step that opens or closes a call.
        fn check(pbx: &Pbx, want: usize) {
            let scanned = pbx.calls.iter().count();
            assert_eq!((pbx.active_calls(), scanned), (want, want));
        }
        let mut pbx = pbx_with_users();
        check(&pbx, 0);
        let placed = invite("placed", "1001", "1002", 6200);
        pbx.handle_sip(SimTime::from_secs(1), CALLER_NODE, placed.into());
        check(&pbx, 1);
        establish_call(&mut pbx, "answered");
        check(&pbx, 2);
        let bye = Request::new(Method::Bye, sipcore::SipUri::new("1002", "pbx.unb.br"))
            .header(HeaderName::CallId, "answered")
            .header(HeaderName::CSeq, "2 BYE");
        let acts = pbx.handle_sip(SimTime::from_secs(9), CALLER_NODE, bye.into());
        let bye_ok = sip_of(&acts[0])
            .as_request()
            .unwrap()
            .make_response(StatusCode::OK);
        pbx.handle_sip(SimTime::from_secs(9), CALLEE_NODE, bye_ok.into());
        check(&pbx, 1);
        pbx.crash(SimTime::from_secs(10));
        check(&pbx, 0);
        for (uid, node) in [("1001", CALLER_NODE), ("1002", CALLEE_NODE)] {
            pbx.handle_sip(SimTime::from_secs(11), node, register_request(uid).into());
        }
        establish_call(&mut pbx, "after-restart");
        check(&pbx, 1);
        pbx.finish(SimTime::from_secs(20));
        check(&pbx, 0);
    }

    #[test]
    fn peer_call_id_maps_legs() {
        let mut pbx = pbx_with_users();
        establish_call(&mut pbx, "legmap");
        assert_eq!(pbx.peer_call_id("b2b-0@pbx.unb.br"), Some("legmap"));
        assert_eq!(pbx.peer_call_id("nope"), None);
    }

    #[test]
    fn options_keepalive_gets_200() {
        let mut pbx = pbx_with_users();
        let opt = Request::new(Method::Options, sipcore::SipUri::server("pbx.unb.br"))
            .header(HeaderName::CallId, "opt1")
            .header(HeaderName::CSeq, "1 OPTIONS");
        let acts = pbx.handle_sip(SimTime::ZERO, CALLER_NODE, opt.into());
        assert_eq!(
            sip_of(&acts[0]).as_response().unwrap().status,
            StatusCode::OK
        );
    }

    #[test]
    fn per_user_call_policy_refuses_over_the_ceiling() {
        let dir = Directory::with_subscribers(1000, 100);
        let mut cfg = PbxConfig::evaluation_default(PBX_NODE);
        cfg.max_calls_per_user = Some(2);
        let mut pbx = Pbx::new(cfg, dir);
        for (uid, node) in [("1001", CALLER_NODE), ("1002", CALLEE_NODE)] {
            pbx.handle_sip(SimTime::ZERO, node, register_request(uid).into());
        }
        // 1001's first two calls are admitted.
        for cid in ["pol1", "pol2"] {
            let acts = pbx.handle_sip(
                SimTime::from_secs(1),
                CALLER_NODE,
                invite(cid, "1001", "1002", 6000).into(),
            );
            assert_eq!(acts.len(), 2, "{cid} admitted");
        }
        // The third is refused by policy, not for channels.
        let acts = pbx.handle_sip(
            SimTime::from_secs(2),
            CALLER_NODE,
            invite("pol3", "1001", "1002", 6000).into(),
        );
        assert_eq!(acts.len(), 1);
        assert_eq!(
            sip_of(&acts[0]).as_response().unwrap().status,
            StatusCode::FORBIDDEN
        );
        assert_eq!(pbx.stats().calls_policy_refused, 1);
        assert_eq!(pbx.stats().calls_blocked, 0);
        assert_eq!(pbx.cdr.count(Disposition::PolicyRefused), 1);
        // A different caller is unaffected.
        pbx.handle_sip(SimTime::ZERO, CALLEE_NODE, register_request("1003").into());
        let acts = pbx.handle_sip(
            SimTime::from_secs(3),
            CALLEE_NODE,
            invite("pol4", "1003", "1001", 7000).into(),
        );
        assert_eq!(acts.len(), 2, "other users unaffected");
    }

    #[test]
    fn policy_count_decrements_on_teardown() {
        let dir = Directory::with_subscribers(1000, 100);
        let mut cfg = PbxConfig::evaluation_default(PBX_NODE);
        cfg.max_calls_per_user = Some(1);
        let mut pbx = Pbx::new(cfg, dir);
        for (uid, node) in [("1001", CALLER_NODE), ("1002", CALLEE_NODE)] {
            pbx.handle_sip(SimTime::ZERO, node, register_request(uid).into());
        }
        establish_call(&mut pbx, "seq1");
        // Second concurrent call refused...
        let acts = pbx.handle_sip(
            SimTime::from_secs(5),
            CALLER_NODE,
            invite("seq2", "1001", "1002", 6100).into(),
        );
        assert_eq!(
            sip_of(&acts[0]).as_response().unwrap().status,
            StatusCode::FORBIDDEN
        );
        // ...but after hanging up, a new call is admitted.
        let bye = Request::new(Method::Bye, sipcore::SipUri::new("1002", "pbx.unb.br"))
            .header(HeaderName::CallId, "seq1")
            .header(HeaderName::CSeq, "2 BYE");
        let acts = pbx.handle_sip(SimTime::from_secs(100), CALLER_NODE, bye.into());
        let fwd = sip_of(&acts[0]).as_request().unwrap().clone();
        pbx.handle_sip(
            SimTime::from_secs(100),
            CALLEE_NODE,
            fwd.make_response(StatusCode::OK).into(),
        );
        assert!(pbx.active_per_user.is_empty(), "an idle caller is dropped");
        let acts = pbx.handle_sip(
            SimTime::from_secs(101),
            CALLER_NODE,
            invite("seq3", "1001", "1002", 6200).into(),
        );
        assert_eq!(acts.len(), 2, "ceiling freed after hangup");
    }

    #[test]
    fn overload_sheds_with_503_and_retry_after() {
        let dir = Directory::with_subscribers(1000, 100);
        let mut cfg = PbxConfig::evaluation_default(PBX_NODE);
        cfg.channels = 4;
        cfg.overload_law = Some(ControlLaw::Hysteresis {
            high_watermark: 0.75,
            low_watermark: 0.30,
            retry_after: SimDuration::from_secs(3),
        });
        let mut pbx = Pbx::new(cfg, dir);
        for (uid, node) in [("1001", CALLER_NODE), ("1002", CALLEE_NODE)] {
            pbx.handle_sip(SimTime::ZERO, node, register_request(uid).into());
        }
        // Three calls -> occupancy 0.75 = high watermark.
        for cid in ["s1", "s2", "s3"] {
            let acts = pbx.handle_sip(
                SimTime::from_secs(1),
                CALLER_NODE,
                invite(cid, "1001", "1002", 6000).into(),
            );
            assert_eq!(acts.len(), 2, "{cid} admitted");
        }
        // The next INVITE sees load >= high and is shed.
        let acts = pbx.handle_sip(
            SimTime::from_secs(2),
            CALLER_NODE,
            invite("s4", "1001", "1002", 6000).into(),
        );
        assert_eq!(acts.len(), 1);
        let resp = sip_of(&acts[0]).as_response().unwrap();
        assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(resp.headers.get(&HeaderName::RetryAfter), Some("3"));
        assert!(pbx.is_shedding());
        assert_eq!(pbx.stats().calls_shed, 1);
        assert_eq!(pbx.cdr.count(Disposition::Shed), 1);
        assert_eq!(pbx.stats().calls_blocked, 0, "shed, not capacity-blocked");
        // A free channel remains: shedding protects headroom.
        assert_eq!(pbx.pool.in_use(), 3);
    }

    /// The hysteresis law end to end through the PBX: admit up to the
    /// high watermark, shed with a bare `503 + Retry-After` (no feedback
    /// header on the wire), release below the low watermark.
    #[test]
    fn hysteresis_law_sheds_without_feedback_then_releases() {
        let dir = Directory::with_subscribers(1000, 100);
        let mut cfg = PbxConfig::evaluation_default(PBX_NODE);
        cfg.channels = 4;
        cfg.overload_law = Some(ControlLaw::Hysteresis {
            high_watermark: 0.75,
            low_watermark: 0.30,
            retry_after: SimDuration::from_secs(3),
        });
        let mut pbx = Pbx::new(cfg, dir);
        for (uid, node) in [("1001", CALLER_NODE), ("1002", CALLEE_NODE)] {
            pbx.handle_sip(SimTime::ZERO, node, register_request(uid).into());
        }
        // Admit three calls (reaching the high watermark), shed the
        // fourth, tear down to below the low watermark, admit again.
        for cid in ["p1", "p2", "p3"] {
            pbx.handle_sip(
                SimTime::from_secs(1),
                CALLER_NODE,
                invite(cid, "1001", "1002", 6000).into(),
            );
        }
        let acts = pbx.handle_sip(
            SimTime::from_secs(2),
            CALLER_NODE,
            invite("p4", "1001", "1002", 6000).into(),
        );
        let resp = sip_of(&acts[0]).as_response().unwrap();
        assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(resp.headers.get(&HeaderName::RetryAfter), Some("3"));
        assert!(
            !resp.headers.contains(&HeaderName::OverloadControl),
            "hysteresis advertises no feedback"
        );
        assert!(pbx.is_shedding());
        for cid in ["p1", "p2"] {
            let bye = Request::new(Method::Bye, sipcore::SipUri::new("1002", "pbx.unb.br"))
                .header(HeaderName::CallId, cid)
                .header(HeaderName::CSeq, "2 BYE");
            let acts = pbx.handle_sip(SimTime::from_secs(10), CALLER_NODE, bye.into());
            let fwd = sip_of(&acts[0]).as_request().unwrap().clone();
            pbx.handle_sip(
                SimTime::from_secs(10),
                CALLEE_NODE,
                fwd.make_response(StatusCode::OK).into(),
            );
        }
        let acts = pbx.handle_sip(
            SimTime::from_secs(11),
            CALLER_NODE,
            invite("p5", "1001", "1002", 6000).into(),
        );
        assert_eq!(acts.len(), 2, "released below low watermark");
        assert!(!pbx.is_shedding());
        assert_eq!(pbx.stats().calls_shed, 1);
        assert_eq!(pbx.cdr.count(Disposition::Shed), 1);
    }

    /// Feedback-driven laws advertise their state on the 100 Trying of
    /// admitted calls and on 503 rejects.
    #[test]
    fn rate_law_feedback_rides_trying_and_503() {
        let dir = Directory::with_subscribers(1000, 100);
        let mut cfg = PbxConfig::evaluation_default(PBX_NODE);
        cfg.channels = 2;
        cfg.overload_law = Some(ControlLaw::RateBased {
            target_load: 0.5,
            max_rate_cps: 10.0,
            min_rate_cps: 1.0,
            retry_after: SimDuration::from_secs(4),
        });
        let mut pbx = Pbx::new(cfg, dir);
        for (uid, node) in [("1001", CALLER_NODE), ("1002", CALLEE_NODE)] {
            pbx.handle_sip(SimTime::ZERO, node, register_request(uid).into());
        }
        // First INVITE admitted: the Trying carries rate feedback.
        let acts = pbx.handle_sip(
            SimTime::from_secs(1),
            CALLER_NODE,
            invite("f1", "1001", "1002", 6000).into(),
        );
        assert_eq!(acts.len(), 2);
        let trying = sip_of(&acts[0]).as_response().unwrap();
        assert_eq!(trying.status, StatusCode::TRYING);
        let fb = trying
            .headers
            .get(&HeaderName::OverloadControl)
            .expect("rate law advertises on Trying");
        assert!(fb.starts_with("rate="), "got {fb:?}");
        // Fill the pool; the next INVITE is shed with 503 + feedback.
        pbx.handle_sip(
            SimTime::from_secs(1),
            CALLER_NODE,
            invite("f2", "1001", "1002", 6000).into(),
        );
        let acts = pbx.handle_sip(
            SimTime::from_secs(2),
            CALLER_NODE,
            invite("f3", "1001", "1002", 6000).into(),
        );
        assert_eq!(acts.len(), 1);
        let resp = sip_of(&acts[0]).as_response().unwrap();
        assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(resp.headers.get(&HeaderName::RetryAfter), Some("4"));
        assert!(resp
            .headers
            .get(&HeaderName::OverloadControl)
            .is_some_and(|v| v.starts_with("rate=")));
        assert_eq!(pbx.stats().calls_shed, 1);
        assert_eq!(pbx.cdr.count(Disposition::Shed), 1);
    }

    /// MOS-predictive CAC rejects on observed link quality even with free
    /// channels — the "3D" axis of 3D-CAC.
    #[test]
    fn mos_cac_rejects_on_poor_link_quality_with_channels_free() {
        let dir = Directory::with_subscribers(1000, 100);
        let mut cfg = PbxConfig::evaluation_default(PBX_NODE);
        cfg.channels = 8;
        cfg.overload_law = Some(ControlLaw::mos_cac_default());
        let mut pbx = Pbx::new(cfg, dir);
        for (uid, node) in [("1001", CALLER_NODE), ("1002", CALLEE_NODE)] {
            pbx.handle_sip(SimTime::ZERO, node, register_request(uid).into());
        }
        // Clean link: admitted.
        let acts = pbx.handle_sip(
            SimTime::from_secs(1),
            CALLER_NODE,
            invite("q1", "1001", "1002", 6000).into(),
        );
        assert_eq!(acts.len(), 2, "clean link admits");
        // The world reports a degraded link; prediction falls below 3.5.
        pbx.observe_link_quality(0.15, 60.0, 150.0);
        let acts = pbx.handle_sip(
            SimTime::from_secs(2),
            CALLER_NODE,
            invite("q2", "1001", "1002", 6000).into(),
        );
        assert_eq!(acts.len(), 1);
        let resp = sip_of(&acts[0]).as_response().unwrap();
        assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE);
        assert!(pbx.is_shedding());
        assert!(pbx.pool.in_use() < 8, "channels were free — quality shed");
        // Link heals: admission resumes.
        pbx.observe_link_quality(0.0, 2.0, 10.0);
        let acts = pbx.handle_sip(
            SimTime::from_secs(3),
            CALLER_NODE,
            invite("q3", "1001", "1002", 6000).into(),
        );
        assert_eq!(acts.len(), 2, "healed link admits again");
        assert!(!pbx.is_shedding());
    }

    #[test]
    fn shedding_hysteresis_disengages_below_low_watermark() {
        let dir = Directory::with_subscribers(1000, 100);
        let mut cfg = PbxConfig::evaluation_default(PBX_NODE);
        cfg.channels = 4;
        cfg.overload_law = Some(ControlLaw::Hysteresis {
            high_watermark: 0.75,
            low_watermark: 0.30,
            retry_after: SimDuration::from_secs(2),
        });
        let mut pbx = Pbx::new(cfg, dir);
        for (uid, node) in [("1001", CALLER_NODE), ("1002", CALLEE_NODE)] {
            pbx.handle_sip(SimTime::ZERO, node, register_request(uid).into());
        }
        for cid in ["h1", "h2", "h3"] {
            pbx.handle_sip(
                SimTime::from_secs(1),
                CALLER_NODE,
                invite(cid, "1001", "1002", 6000).into(),
            );
        }
        pbx.handle_sip(
            SimTime::from_secs(2),
            CALLER_NODE,
            invite("h4", "1001", "1002", 6000).into(),
        );
        assert!(pbx.is_shedding());
        // Tear two calls down -> occupancy 0.25 < low watermark... but the
        // controller only re-evaluates on the next INVITE.
        for cid in ["h1", "h2"] {
            let bye = Request::new(Method::Bye, sipcore::SipUri::new("1002", "pbx.unb.br"))
                .header(HeaderName::CallId, cid)
                .header(HeaderName::CSeq, "2 BYE");
            let acts = pbx.handle_sip(SimTime::from_secs(10), CALLER_NODE, bye.into());
            let fwd = sip_of(&acts[0]).as_request().unwrap().clone();
            pbx.handle_sip(
                SimTime::from_secs(10),
                CALLEE_NODE,
                fwd.make_response(StatusCode::OK).into(),
            );
        }
        assert_eq!(pbx.pool.in_use(), 1);
        // 1/4 = 0.25 <= 0.30: shedding disengages and the call is admitted.
        let acts = pbx.handle_sip(
            SimTime::from_secs(11),
            CALLER_NODE,
            invite("h5", "1001", "1002", 6000).into(),
        );
        assert_eq!(acts.len(), 2, "admitted again");
        assert!(!pbx.is_shedding());
    }

    #[test]
    fn hysteresis_keeps_shedding_between_watermarks() {
        let dir = Directory::with_subscribers(1000, 100);
        let mut cfg = PbxConfig::evaluation_default(PBX_NODE);
        cfg.channels = 4;
        cfg.overload_law = Some(ControlLaw::Hysteresis {
            high_watermark: 0.75,
            low_watermark: 0.30,
            retry_after: SimDuration::from_secs(2),
        });
        let mut pbx = Pbx::new(cfg, dir);
        for (uid, node) in [("1001", CALLER_NODE), ("1002", CALLEE_NODE)] {
            pbx.handle_sip(SimTime::ZERO, node, register_request(uid).into());
        }
        for cid in ["m1", "m2", "m3"] {
            pbx.handle_sip(
                SimTime::from_secs(1),
                CALLER_NODE,
                invite(cid, "1001", "1002", 6000).into(),
            );
        }
        pbx.handle_sip(
            SimTime::from_secs(2),
            CALLER_NODE,
            invite("m4", "1001", "1002", 6000).into(),
        );
        assert!(pbx.is_shedding());
        // Drop one call: occupancy 0.5 is between the watermarks, so the
        // controller keeps shedding (hysteresis).
        let bye = Request::new(Method::Bye, sipcore::SipUri::new("1002", "pbx.unb.br"))
            .header(HeaderName::CallId, "m1")
            .header(HeaderName::CSeq, "2 BYE");
        let acts = pbx.handle_sip(SimTime::from_secs(10), CALLER_NODE, bye.into());
        let fwd = sip_of(&acts[0]).as_request().unwrap().clone();
        pbx.handle_sip(
            SimTime::from_secs(10),
            CALLEE_NODE,
            fwd.make_response(StatusCode::OK).into(),
        );
        let acts = pbx.handle_sip(
            SimTime::from_secs(11),
            CALLER_NODE,
            invite("m5", "1001", "1002", 6000).into(),
        );
        assert_eq!(
            sip_of(&acts[0]).as_response().unwrap().status,
            StatusCode::SERVICE_UNAVAILABLE
        );
        assert!(pbx.is_shedding());
    }

    #[test]
    fn crash_drops_calls_and_loses_registrations() {
        let mut pbx = pbx_with_users();
        establish_call(&mut pbx, "crash1");
        establish_call(&mut pbx, "crash2");
        assert_eq!(pbx.pool.in_use(), 2);
        assert_eq!(pbx.registrar.len(), 2);
        assert!(pbx.active_per_user.is_empty(), "no ceiling, no counts");

        let dropped = pbx.crash(SimTime::from_secs(50));
        assert_eq!(dropped, 2);
        assert_eq!(pbx.active_calls(), 0);
        assert_eq!(pbx.pool.in_use(), 0);
        assert!(pbx.registrar.is_empty(), "location table lost");
        assert_eq!(pbx.cdr.count(Disposition::Failed), 2);
        assert_eq!(pbx.stats().crashes, 1);

        // Until re-registration, calls to the lost extension 404.
        let acts = pbx.handle_sip(
            SimTime::from_secs(51),
            CALLER_NODE,
            invite("post", "1001", "1002", 6000).into(),
        );
        assert_eq!(
            sip_of(&acts[0]).as_response().unwrap().status,
            StatusCode::NOT_FOUND
        );

        // After the endpoints re-REGISTER the system serves calls again.
        for (uid, node) in [("1001", CALLER_NODE), ("1002", CALLEE_NODE)] {
            pbx.handle_sip(SimTime::from_secs(52), node, register_request(uid).into());
        }
        establish_call(&mut pbx, "recovered");
        assert_eq!(pbx.cdr.count(Disposition::Answered), 0); // still open
        assert_eq!(pbx.active_calls(), 1);
    }

    #[test]
    fn channel_peak_tracks_concurrency() {
        let mut pbx = pbx_with_users();
        establish_call(&mut pbx, "p1");
        // A second simultaneous call (re-using same users is fine for the pool).
        pbx.handle_sip(
            SimTime::from_secs(5),
            CALLER_NODE,
            invite("p2", "1001", "1002", 6100).into(),
        );
        assert_eq!(pbx.pool.peak(), 2);
        assert_eq!(pbx.active_calls(), 2);
    }
}
