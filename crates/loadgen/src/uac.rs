//! The UAC (caller) scenario engine — SIPp's client side.
//!
//! Scenario, exactly as the paper's Fig. 2 ladder: send INVITE with an SDP
//! offer, collect 100/180, ACK the 200, stream RTP for the holding time,
//! send BYE, collect its 200. Blocked (486/503) and failed (other 4xx/5xx)
//! attempts are ACKed and recorded.
//!
//! With a [`RetryPolicy`] installed, a 503 is not terminal: the UAC honours
//! the server's `Retry-After`, waits at least a capped exponential backoff,
//! and re-INVITEs the same logical call. A call that completes after one or
//! more sheds is journalled [`CallOutcome::ShedThenOk`] so goodput under
//! overload control can be compared honestly against uncontrolled runs.

use crate::journal::{CallOutcome, Journal};
use des::{FastMap, SimDuration, SimTime};
use netsim::NodeId;
use overload::Feedback;
use sipcore::auth::{digest_response, CredentialsView, DigestChallenge, HexDigest};
use sipcore::headers::{HeaderMap, HeaderName};
use sipcore::message::{Decimal, Request, SipMessage, SDP_HEADERS_ROOM};
use sipcore::sdp::wire::SdpBody;
use sipcore::sdp::SdpCodec;
use sipcore::{AtomTable, Method, SipUri, StatusCode};
use std::collections::VecDeque;
use std::sync::Arc;

/// How a UAC reacts to `503 Service Unavailable` + `Retry-After`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Give up (outcome `Blocked`) after this many retries of one call.
    pub max_retries: u32,
    /// Floor of the exponential backoff (doubles per retry).
    pub base_backoff: SimDuration,
    /// Backoff ceiling.
    pub max_backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: SimDuration::from_secs(2),
            max_backoff: SimDuration::from_secs(32),
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `retry_no` (0-based), honouring the
    /// server's `Retry-After` as a lower bound: the UAC waits the *longer*
    /// of the server's ask and its own backoff, capped at `max_backoff`.
    /// Never zero: a missing/malformed `Retry-After` combined with a
    /// zero-base policy still waits a capped default rather than
    /// retrying immediately (which would just hammer a shedding server).
    #[must_use]
    pub fn delay(&self, retry_no: u32, retry_after: Option<SimDuration>) -> SimDuration {
        let shift = retry_no.min(16);
        let backoff = self.base_backoff.times(1u64 << shift);
        let floor = retry_after.unwrap_or(SimDuration::ZERO);
        let chosen = if backoff > floor { backoff } else { floor };
        let capped = if chosen > self.max_backoff {
            self.max_backoff
        } else {
            chosen
        };
        if capped == SimDuration::ZERO {
            let fallback = SimDuration::from_secs(2);
            if self.max_backoff < fallback && self.max_backoff > SimDuration::ZERO {
                self.max_backoff
            } else {
                fallback
            }
        } else {
            capped
        }
    }
}

/// Parse a `Retry-After` header value tolerantly (RFC 3261 §20.33 allows
/// `18000;duration=3600` and `120 (I'm in a meeting)`): take the leading
/// integer, ignore parameters and comments, reject anything else.
#[must_use]
fn parse_retry_after(value: &str) -> Option<SimDuration> {
    let v = value.split(';').next().unwrap_or("");
    let v = v.split('(').next().unwrap_or("").trim();
    v.parse::<u64>().ok().map(SimDuration::from_secs)
}

/// One logical call: who calls whom and for how long once answered. It
/// waits in the pacer queue before its first INVITE, rides on the live
/// call while an INVITE is out, and is parked while a shed call waits out
/// its backoff; every retry is the same intent with one more shed.
///
/// Both users are the UAC's interned text, so an intent, its offer's
/// origin and its Request-URI share them instead of copying.
#[derive(Debug, Clone)]
struct CallIntent {
    caller: Arc<str>,
    callee: Arc<str>,
    hold: SimDuration,
    /// How many times this logical call has been shed and retried.
    shed_retries: u32,
}

/// The allowance a [`Pacer`] enforces, with the state only that law reads.
#[derive(Debug, Clone)]
enum Allowance {
    /// Space INVITEs at least `1/rate_cps` apart (rate-based feedback).
    Rate {
        /// Current advertised max call rate, calls/sec.
        rate_cps: f64,
        /// Earliest time the next INVITE may leave.
        next_allowed: SimTime,
        /// A `PacerWake` is already outstanding.
        wake_armed: bool,
    },
    /// Cap the number of concurrently open calls (window-based feedback).
    Window {
        /// Current advertised max open calls.
        window: u32,
        /// Calls opened through the pacer and not yet terminal.
        in_flight: u32,
    },
}

/// Upstream pacing state driven by downstream `X-Overload-Control`
/// feedback: the UAC-side half of the rate/window control loops. New call
/// intents that exceed the current allowance are queued FIFO and released
/// either on a [`UacEvent::PacerWake`] (rate law) or when an open call
/// terminates (window law). Retries of shed calls bypass the pacer —
/// their backoff is already pacing them.
#[derive(Debug, Clone)]
pub struct Pacer {
    allowance: Allowance,
    /// Deferred intents, oldest first, under either law.
    queue: VecDeque<CallIntent>,
}

impl Pacer {
    /// Rate-law pacer starting at `initial_cps` calls/sec.
    #[must_use]
    pub fn rate(initial_cps: f64) -> Pacer {
        Pacer {
            allowance: Allowance::Rate {
                rate_cps: initial_cps.max(0.01),
                next_allowed: SimTime::ZERO,
                wake_armed: false,
            },
            queue: VecDeque::new(),
        }
    }

    /// Window-law pacer starting with `initial` allowed open calls.
    #[must_use]
    pub fn window(initial: u32) -> Pacer {
        Pacer {
            allowance: Allowance::Window {
                window: initial.max(1),
                in_flight: 0,
            },
            queue: VecDeque::new(),
        }
    }

    /// Adopt downstream feedback. A `rate=` update retunes a rate pacer, a
    /// `win=` update a window pacer; mismatched feedback kinds are ignored
    /// (the downstream law and the upstream pacer are configured in pairs).
    pub fn apply(&mut self, feedback: Feedback) {
        match (&mut self.allowance, feedback) {
            (Allowance::Rate { rate_cps, .. }, Feedback::Rate(r)) => *rate_cps = r.max(0.01),
            (Allowance::Window { window, .. }, Feedback::Window(w)) => *window = w.max(1),
            _ => {}
        }
    }

    /// Call intents currently deferred.
    #[cfg(test)]
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

/// The INVITE spacing at `rate_cps` calls/sec.
fn spacing(rate_cps: f64) -> SimDuration {
    SimDuration::from_secs_f64(1.0 / rate_cps)
}

/// Something the UAC asks the world to do or reports.
#[derive(Debug, Clone, PartialEq)]
pub enum UacEvent {
    /// Transmit a SIP message.
    SendSip {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: SipMessage,
    },
    /// A call was answered: start media and schedule the hangup.
    Answered {
        /// The call's Call-ID.
        call_id: String,
        /// Local media port for this call.
        local_rtp_port: u16,
        /// Peer (PBX) node to stream to.
        remote_node: NodeId,
        /// Peer media port (from the answer SDP).
        remote_rtp_port: u16,
        /// How long to hold before sending BYE.
        hangup_after: SimDuration,
    },
    /// A call reached a terminal outcome.
    Ended {
        /// The call's Call-ID.
        call_id: String,
        /// The intent's caller, the same text across every retry of a
        /// shed call.
        caller: Arc<str>,
        /// How it ended.
        outcome: CallOutcome,
    },
    /// A call was shed with 503; re-INVITE it via [`Uac::retry_call`] after
    /// `delay` (the world owns time, so it owns the timer too).
    RetryAfter {
        /// The shed call's Call-ID — pass it back to [`Uac::retry_call`].
        call_id: String,
        /// Minimum wait before the retry (Retry-After ∨ backoff, capped).
        delay: SimDuration,
    },
    /// The rate pacer deferred a call; call [`Uac::pacer_wake`] at `at` to
    /// release queued intents (the world owns time, so it owns the timer).
    PacerWake {
        /// When the next queued INVITE becomes eligible.
        at: SimTime,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UacState {
    Inviting,
    Answered,
    ByeSent,
}

#[derive(Debug, Clone)]
struct UacCall {
    state: UacState,
    /// The INVITE's serial: with the intent and the PBX host it spells
    /// the dialog text the ACK and BYE repeat (see [`dialog`]).
    serial: u64,
    local_rtp_port: u16,
    intent: CallIntent,
}

/// The From and To values of the dialog an INVITE with `serial` opens,
/// as parts: the INVITE writes them, and its ACK and BYE repeat them.
fn dialog<'a>(
    intent: &'a CallIntent,
    host: &'a str,
    serial: &'a str,
) -> ([&'a str; 6], [&'a str; 5]) {
    let from = ["<sip:", &intent.caller, "@", host, ">;tag=uac", serial];
    (from, ["<sip:", &intent.callee, "@", host, ">"])
}

/// The INVITE's Via value with `serial`, which its ACK repeats.
fn invite_via(serial: &str) -> [&str; 2] {
    ["SIP/2.0/UDP sipp-client:5060;branch=z9hG4bKinv", serial]
}

/// The uid inside a digest registration's `dreg-<uid>-<tag>` Call-ID.
fn digest_registration_uid(call_id: &str) -> Option<&str> {
    let (uid, _tag) = call_id.strip_prefix("dreg-")?.rsplit_once('-')?;
    Some(uid)
}

/// The UAC engine: many concurrent calls from one generator host.
pub struct Uac {
    /// This generator's node.
    pub node: NodeId,
    /// The PBX node all signalling goes to.
    pub pbx_node: NodeId,
    /// PBX hostname for request URIs (fixed: the REGISTER caches below
    /// are derived from it), shared by every URI this UAC builds.
    pbx_host: Arc<str>,
    /// Instance tag embedded in Call-IDs — lets several UAC engines share
    /// one host (e.g. one engine per PBX in a server-farm experiment)
    /// while keeping their dialogs distinguishable.
    pub tag: u32,
    /// Accounting ledger.
    pub journal: Journal,
    /// Retry behaviour on 503 (`None` = a shed call is simply blocked,
    /// SIPp's default).
    pub retry_policy: Option<RetryPolicy>,
    /// Upstream pacing state for feedback-driven overload control
    /// (`None` = send every intent immediately, the SIPp default).
    pub pacer: Option<Pacer>,
    calls: FastMap<String, UacCall>,
    /// Shed calls waiting out their backoff, keyed by the shed Call-ID.
    pending_retries: FastMap<String, CallIntent>,
    /// Registrations awaiting completion (digest flow): call-id → next
    /// CSeq to use on the authenticated retry. The uid is read back out
    /// of the `dreg-<uid>-<tag>` Call-ID ([`digest_registration_uid`]).
    pending_registrations: FastMap<String, u32>,
    /// `sip:<pbx_host>`, the Request-URI of every REGISTER, and
    /// `HA2 = MD5("REGISTER:" + that)` — per engine, not per user.
    register_uri: String,
    register_ha2: HexDigest,
    /// Reused buffer for the password of the registration being answered.
    secret: String,
    /// Registrations confirmed with a 200.
    pub registrations_confirmed: u64,
    next_serial: u64,
    next_port: u16,
    /// Interner for the users this UAC writes: callers (SDP `o=` origins)
    /// and the extensions it dials (Request-URI users). Both pools are
    /// finite, so after warm-up each is a refcount bump.
    users: AtomTable,
    /// Shared `c=` connection string for offer bodies.
    sdp_host: Arc<str>,
}

impl Uac {
    /// A UAC on `node` talking to the PBX at `pbx_node`/`pbx_host`.
    #[must_use]
    pub fn new(node: NodeId, pbx_node: NodeId, pbx_host: &str) -> Self {
        Uac::with_tag(node, pbx_node, pbx_host, u32::from(node.0))
    }

    /// Like [`Uac::new`] with an explicit Call-ID instance tag.
    #[must_use]
    pub fn with_tag(node: NodeId, pbx_node: NodeId, pbx_host: &str, tag: u32) -> Self {
        let register_uri = format!("sip:{pbx_host}");
        Uac {
            node,
            pbx_node,
            pbx_host: Arc::from(pbx_host),
            register_ha2: sipcore::auth::ha2("REGISTER", &register_uri),
            register_uri,
            secret: String::new(),
            tag,
            journal: Journal::new(),
            retry_policy: None,
            pacer: None,
            calls: FastMap::default(),
            pending_retries: FastMap::default(),
            pending_registrations: FastMap::default(),
            registrations_confirmed: 0,
            next_serial: 0,
            // Stagger port ranges per instance so several engines sharing
            // one host never collide on local media ports.
            next_port: 20_000 + ((tag as u16) % 16) * 2048,
            users: AtomTable::new(),
            sdp_host: Arc::from("sipp-client"),
        }
    }

    /// PBX hostname used in request URIs.
    #[must_use]
    pub fn pbx_host(&self) -> &str {
        &self.pbx_host
    }

    /// Number of calls not yet terminally resolved.
    #[must_use]
    pub fn open_calls(&self) -> usize {
        self.calls.len()
    }

    /// Replace the user interner with a pre-seeded table (typically a
    /// clone of a process-wide base table holding the finite caller and
    /// callee pools). Digest-safe at any point: interning is idempotent
    /// and only the *resolved strings* ever reach the wire, so a warm
    /// table changes setup cost, never message bytes. A user outside the
    /// seeded pools simply interns cold, as before.
    pub fn preseed_users(&mut self, table: AtomTable) {
        self.users = table;
    }

    /// `user` as this UAC's shared text.
    fn user(&mut self, user: &str) -> Arc<str> {
        let atom = self.users.intern(user);
        self.users.resolve_shared(atom)
    }

    /// The Request-URI of every REGISTER: `sip:<pbx_host>`.
    fn registrar(&self) -> SipUri {
        SipUri::shared(Arc::default(), Arc::clone(&self.pbx_host))
    }

    /// Build and send a REGISTER for `uid` (password per the directory's
    /// `pw-<uid>` convention).
    pub fn register(&mut self, uid: &str) -> Vec<UacEvent> {
        let host = &*self.pbx_host;
        let mut req = Request::new(Method::Register, self.registrar());
        req.headers = HeaderMap::from_parts(
            [
                (
                    HeaderName::Via,
                    &["SIP/2.0/UDP uac:5060;branch=z9hG4bKr", uid],
                ),
                (HeaderName::From, &["<sip:", uid, "@", host, ">;tag=reg"]),
                (HeaderName::To, &["<sip:", uid, "@", host, ">"]),
                (
                    HeaderName::CallId,
                    &["reg-", uid, "-", &Decimal::new(self.tag.into())],
                ),
                (HeaderName::CSeq, &["1 REGISTER"]),
                (HeaderName::Authorization, &["Simple ", uid, " pw-", uid]),
                (HeaderName::Expires, &["3600"]),
            ],
            (0, 0),
        );
        vec![self.send(req.into())]
    }

    /// Start an RFC 2617 digest registration for `uid`: send the initial
    /// REGISTER without credentials and answer the 401 challenge when it
    /// arrives (handled in [`Uac::on_sip`]).
    pub fn register_digest(&mut self, uid: &str) -> Vec<UacEvent> {
        let call_id = ["dreg-", uid, "-", &Decimal::new(self.tag.into())].concat();
        let req = self.build_register(uid, &call_id, 1, None);
        self.pending_registrations.insert(call_id, 2);
        vec![self.send(req.into())]
    }

    fn build_register(
        &self,
        uid: &str,
        call_id: &str,
        cseq: u32,
        authorization: Option<&CredentialsView<'_>>,
    ) -> Request {
        let host = &*self.pbx_host;
        let cseq = Decimal::new(cseq.into());
        let authorization = authorization.map(CredentialsView::header_value_parts);
        let auth_bytes = authorization.iter().flatten().map(|part| part.len()).sum();
        let mut req = Request::new(Method::Register, self.registrar());
        req.headers = HeaderMap::from_parts(
            [
                (
                    HeaderName::Via,
                    &["SIP/2.0/UDP uac:5060;branch=z9hG4bKdr", uid, &cseq],
                ),
                (HeaderName::From, &["<sip:", uid, "@", host, ">;tag=reg"]),
                (HeaderName::To, &["<sip:", uid, "@", host, ">"]),
                (HeaderName::CallId, &[call_id]),
                (HeaderName::CSeq, &[&cseq, " REGISTER"]),
                (HeaderName::Expires, &["3600"]),
            ],
            (usize::from(authorization.is_some()), auth_bytes),
        );
        if let Some(parts) = authorization {
            req.headers.push_parts(HeaderName::Authorization, &parts);
        }
        req
    }

    /// Handle a response to a pending digest registration. Returns `None`
    /// when the response does not belong to one.
    fn on_register_response(&mut self, resp: &sipcore::Response) -> Option<Vec<UacEvent>> {
        let call_id = resp.call_id()?;
        let next_cseq = self.pending_registrations.get_mut(call_id)?;
        if resp.status == StatusCode::UNAUTHORIZED {
            let cseq = *next_cseq;
            *next_cseq += 1;
            let uid = digest_registration_uid(call_id)?;
            let www = resp.headers.get(&HeaderName::WwwAuthenticate)?;
            let challenge = DigestChallenge::parse(www)?;
            // The directory's `pw-<uid>` convention, in a reused buffer.
            self.secret.clear();
            self.secret.push_str("pw-");
            self.secret.push_str(uid);
            let response = digest_response(
                uid,
                &challenge.realm,
                &self.secret,
                &challenge.nonce,
                &self.register_ha2,
            );
            let authorization = CredentialsView {
                username: uid,
                realm: &challenge.realm,
                nonce: &challenge.nonce,
                uri: &self.register_uri,
                response: response.as_str(),
            };
            let req = self.build_register(uid, call_id, cseq, Some(&authorization));
            return Some(vec![self.send(req.into())]);
        }
        if resp.status.is_success() {
            self.pending_registrations.remove(call_id);
            self.registrations_confirmed += 1;
        } else if resp.status.is_error() {
            self.pending_registrations.remove(call_id);
        }
        Some(vec![])
    }

    /// Place a call from `caller_uid` to `callee_ext`, holding for `hold`
    /// once answered. Returns the new Call-ID and the INVITE to transmit.
    /// With a [`Pacer`] installed, intents over the current allowance are
    /// deferred (the returned Call-ID is then empty — the INVITE goes out
    /// later, on a wake or a window release).
    pub fn start_call(
        &mut self,
        now: SimTime,
        caller_uid: &str,
        callee_ext: &str,
        hold: SimDuration,
    ) -> (String, Vec<UacEvent>) {
        self.journal.call_attempted();
        let intent = CallIntent {
            caller: self.user(caller_uid),
            callee: self.user(callee_ext),
            hold,
            shed_retries: 0,
        };
        if let Some(pacer) = self.pacer.as_mut() {
            // Over the allowance, or behind intents already waiting (FIFO):
            // defer. A rate pacer arms one wake for when the next may go.
            let behind = !pacer.queue.is_empty();
            match &mut pacer.allowance {
                Allowance::Rate {
                    rate_cps,
                    next_allowed,
                    wake_armed,
                } => {
                    if behind || now < *next_allowed {
                        pacer.queue.push_back(intent);
                        let mut evs = Vec::new();
                        if !*wake_armed {
                            *wake_armed = true;
                            evs.push(UacEvent::PacerWake {
                                at: (*next_allowed).max(now),
                            });
                        }
                        return (String::new(), evs);
                    }
                    *next_allowed = now + spacing(*rate_cps);
                }
                Allowance::Window { window, in_flight } => {
                    if behind || *in_flight >= *window {
                        pacer.queue.push_back(intent);
                        return (String::new(), Vec::new());
                    }
                    *in_flight += 1;
                }
            }
        }
        self.place_invite(intent)
    }

    /// Release rate-paced intents that have become eligible (driven by a
    /// [`UacEvent::PacerWake`]). Sends at most one INVITE per wake and
    /// re-arms for the next queued intent.
    pub fn pacer_wake(&mut self, now: SimTime) -> Vec<UacEvent> {
        let Some(Pacer {
            allowance:
                Allowance::Rate {
                    rate_cps,
                    next_allowed,
                    wake_armed,
                },
            queue,
        }) = self.pacer.as_mut()
        else {
            return vec![];
        };
        *wake_armed = false;
        let Some(next) = queue.pop_front() else {
            return vec![];
        };
        *next_allowed = now + spacing(*rate_cps);
        let rearm_at = *next_allowed;
        let more_queued = !queue.is_empty();
        *wake_armed = more_queued;
        let (_, mut evs) = self.place_invite(next);
        if more_queued {
            evs.push(UacEvent::PacerWake { at: rearm_at });
        }
        evs
    }

    /// Window law: one open call reached a terminal state — free its slot
    /// and release queued intents that now fit.
    fn pacer_note_terminal(&mut self) -> Vec<UacEvent> {
        let Some(Pacer {
            allowance: Allowance::Window { window, in_flight },
            queue,
        }) = self.pacer.as_mut()
        else {
            return vec![];
        };
        *in_flight = in_flight.saturating_sub(1);
        let mut release = Vec::new();
        while *in_flight < *window {
            let Some(q) = queue.pop_front() else {
                break;
            };
            *in_flight += 1;
            release.push(q);
        }
        let mut out = Vec::new();
        for intent in release {
            let (_, evs) = self.place_invite(intent);
            out.extend(evs);
        }
        out
    }

    /// Re-INVITE a call previously shed with 503, after its backoff has
    /// elapsed (driven by a [`UacEvent::RetryAfter`]). `call_id` is the
    /// *shed* attempt's Call-ID; the retry gets a fresh one.
    pub fn retry_call(&mut self, _now: SimTime, call_id: &str) -> Vec<UacEvent> {
        let Some(intent) = self.pending_retries.remove(call_id) else {
            return vec![];
        };
        self.journal.retries += 1;
        self.place_invite(intent).1
    }

    /// INVITE `intent` now: a fresh Call-ID, media port and offer.
    fn place_invite(&mut self, intent: CallIntent) -> (String, Vec<UacEvent>) {
        let number = self.next_serial;
        self.next_serial += 1;
        let serial = Decimal::new(number);
        let call_id = ["uac-", &Decimal::new(self.tag.into()), "-", &serial].concat();
        let local_rtp_port = self.next_port;
        self.next_port = self.next_port.wrapping_add(2).max(20_000);
        // Structured offer: the origin is the intent's interned caller,
        // the connection string shared — no SDP text is built unless the
        // signalling path materializes the wire.
        let sdp = SdpBody::new(
            Arc::clone(&intent.caller),
            Arc::clone(&self.sdp_host),
            local_rtp_port,
            SdpCodec::Pcmu,
        );
        let (from, to) = dialog(&intent, &self.pbx_host, &serial);
        let mut invite = Request::new(Method::Invite, self.request_uri(&intent));
        invite.headers = HeaderMap::from_parts(
            [
                (HeaderName::Via, &invite_via(&serial)),
                (HeaderName::From, &from),
                (HeaderName::To, &to),
                (HeaderName::CallId, &[&call_id]),
                (HeaderName::CSeq, &["1 INVITE"]),
                (HeaderName::MaxForwards, &["70"]),
                (HeaderName::UserAgent, &["loadgen-uac (SIPp-compatible)"]),
            ],
            SDP_HEADERS_ROOM,
        );
        let invite = invite.with_sdp(sdp);
        self.calls.insert(
            call_id.clone(),
            UacCall {
                state: UacState::Inviting,
                serial: number,
                local_rtp_port,
                intent,
            },
        );
        let ev = self.send(invite.into());
        (call_id, vec![ev])
    }

    /// Hang up an answered call: send the BYE.
    pub fn hangup(&mut self, _now: SimTime, call_id: &str) -> Vec<UacEvent> {
        let Some(call) = self.calls.get_mut(call_id) else {
            return vec![];
        };
        if call.state != UacState::Answered {
            return vec![];
        }
        call.state = UacState::ByeSent;
        let call = &self.calls[call_id];
        let serial = Decimal::new(call.serial);
        let (from, to) = dialog(&call.intent, &self.pbx_host, &serial);
        let mut bye = Request::new(Method::Bye, self.request_uri(&call.intent));
        bye.headers = HeaderMap::from_parts(
            [
                (
                    HeaderName::Via,
                    &["SIP/2.0/UDP sipp-client:5060;branch=z9hG4bKbye-", call_id],
                ),
                (HeaderName::From, &from),
                (HeaderName::To, &to),
                (HeaderName::CallId, &[call_id]),
                (HeaderName::CSeq, &["2 BYE"]),
            ],
            (0, 0),
        );
        vec![self.send(bye.into())]
    }

    /// Handle an inbound SIP message.
    pub fn on_sip(&mut self, _now: SimTime, msg: SipMessage) -> Vec<UacEvent> {
        let SipMessage::Response(resp) = msg else {
            return vec![]; // the UAC never receives requests in this scenario
        };
        // Downstream overload feedback rides 100 Trying and 503 responses;
        // adopt it before anything else so even responses to unknown calls
        // still retune the pacer.
        if let Some(pacer) = self.pacer.as_mut() {
            if let Some(v) = resp.headers.get(&HeaderName::OverloadControl) {
                if let Some(fb) = Feedback::parse(v) {
                    pacer.apply(fb);
                }
            }
        }
        if resp.cseq_method() == Some(Method::Register) {
            return self.on_register_response(&resp).unwrap_or_default();
        }
        let Some(call_id) = resp.call_id() else {
            return vec![];
        };
        let Some(call) = self.calls.get_mut(call_id) else {
            return vec![];
        };
        match resp.cseq_method() {
            Some(Method::Invite) => {
                if resp.status.is_provisional() {
                    return vec![]; // 100/180: progress only
                }
                if resp.status.is_success() && call.state == UacState::Inviting {
                    call.state = UacState::Answered;
                    // Lazy answer read: port straight off the body bytes
                    // (or a field read when the answer stayed structured).
                    let remote_rtp_port = resp.body.sdp_audio_port().unwrap_or(0);
                    let local_rtp_port = call.local_rtp_port;
                    let hold = call.intent.hold;
                    let ack = self.build_ack(call_id);
                    return vec![
                        self.send(ack.into()),
                        UacEvent::Answered {
                            call_id: call_id.to_owned(),
                            local_rtp_port,
                            remote_node: self.pbx_node,
                            remote_rtp_port,
                            hangup_after: hold,
                        },
                    ];
                }
                if resp.status.is_error() {
                    // A 503 shed may be retried rather than closed.
                    let retry_no = call.intent.shed_retries;
                    let retry_delay = match self.retry_policy {
                        Some(policy)
                            if resp.status == StatusCode::SERVICE_UNAVAILABLE
                                && retry_no < policy.max_retries =>
                        {
                            let retry_after = resp
                                .headers
                                .get(&HeaderName::RetryAfter)
                                .and_then(parse_retry_after);
                            Some(policy.delay(retry_no, retry_after))
                        }
                        _ => None,
                    };
                    // ACK the failure; this attempt is over either way.
                    let ack = self.build_ack(call_id);
                    let (call_id, call) =
                        self.calls.remove_entry(call_id).expect("looked up above");
                    let ack = self.send(ack.into());
                    if let Some(delay) = retry_delay {
                        let mut intent = call.intent;
                        intent.shed_retries += 1;
                        self.pending_retries.insert(call_id.clone(), intent);
                        return vec![ack, UacEvent::RetryAfter { call_id, delay }];
                    }
                    let outcome = match resp.status {
                        StatusCode::BUSY_HERE | StatusCode::SERVICE_UNAVAILABLE => {
                            CallOutcome::Blocked
                        }
                        _ => CallOutcome::Failed,
                    };
                    self.journal.call_finished(outcome);
                    let caller = call.intent.caller;
                    let mut evs = vec![
                        ack,
                        UacEvent::Ended {
                            call_id,
                            caller,
                            outcome,
                        },
                    ];
                    evs.extend(self.pacer_note_terminal());
                    return evs;
                }
                vec![]
            }
            Some(Method::Bye) if resp.status.is_final() => {
                let (call_id, call) = self.calls.remove_entry(call_id).expect("looked up above");
                let outcome = if call.intent.shed_retries > 0 {
                    CallOutcome::ShedThenOk
                } else {
                    CallOutcome::Completed
                };
                self.journal.call_finished(outcome);
                let mut evs = vec![UacEvent::Ended {
                    call_id,
                    caller: call.intent.caller,
                    outcome,
                }];
                evs.extend(self.pacer_note_terminal());
                evs
            }
            _ => vec![],
        }
    }

    /// Close the books: journal every call still open as abandoned —
    /// shed calls whose backoff never elapsed, and pacer-deferred intents
    /// that never sent an INVITE (they were counted as attempts when
    /// offered), included.
    pub fn finish(&mut self) {
        let deferred = self.pacer.as_mut().map_or(0, |p| p.queue.drain(..).count());
        let open = self.calls.len() + self.pending_retries.len() + deferred;
        self.calls.clear();
        self.pending_retries.clear();
        for _ in 0..open {
            self.journal.call_finished(CallOutcome::Abandoned);
        }
    }

    fn build_ack(&self, call_id: &str) -> Request {
        let call = &self.calls[call_id];
        let serial = Decimal::new(call.serial);
        let (from, to) = dialog(&call.intent, &self.pbx_host, &serial);
        let mut ack = Request::new(Method::Ack, self.request_uri(&call.intent));
        ack.headers = HeaderMap::from_parts(
            [
                (HeaderName::Via, &invite_via(&serial)),
                (HeaderName::CallId, &[call_id]),
                (HeaderName::CSeq, &["1 ACK"]),
                (HeaderName::From, &from),
                (HeaderName::To, &to),
            ],
            (0, 0),
        );
        ack
    }

    /// The Request-URI of every request in `intent`'s dialog: the dialled
    /// extension at the PBX, both shared.
    fn request_uri(&self, intent: &CallIntent) -> SipUri {
        SipUri::shared(Arc::clone(&intent.callee), Arc::clone(&self.pbx_host))
    }

    fn send(&self, msg: SipMessage) -> UacEvent {
        UacEvent::SendSip {
            to: self.pbx_node,
            msg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sipcore::sdp::wire::SdpView;
    use sipcore::{Body, Response};

    const UAC_NODE: NodeId = NodeId(1);
    const PBX_NODE: NodeId = NodeId(3);

    fn uac() -> Uac {
        Uac::new(UAC_NODE, PBX_NODE, "pbx.unb.br")
    }

    fn sip_of(ev: &UacEvent) -> &SipMessage {
        match ev {
            UacEvent::SendSip { msg, .. } => msg,
            other => panic!("expected SendSip, got {other:?}"),
        }
    }

    fn respond(invite: &Request, status: StatusCode, sdp_port: Option<u16>) -> Response {
        let mut r = invite.make_response(status);
        if let Some(port) = sdp_port {
            r = r.with_body(
                "application/sdp",
                Body::from(SdpBody::new("pbx", "pbx.unb.br", port, SdpCodec::Pcmu)).to_vec(),
            );
        }
        r
    }

    #[test]
    fn happy_path_invite_ack_bye() {
        let mut u = uac();
        let (cid, evs) = u.start_call(SimTime::ZERO, "1001", "2001", SimDuration::from_secs(120));
        assert_eq!(evs.len(), 1);
        let invite = sip_of(&evs[0]).as_request().unwrap().clone();
        assert_eq!(invite.method, Method::Invite);
        assert_eq!(invite.call_id(), Some(cid.as_str()));
        let wire = invite.body.to_vec();
        let offer = SdpView::parse(&wire).unwrap();
        assert_eq!(
            offer.codec(),
            Some(SdpCodec::Pcmu),
            "the offer parses off the wire"
        );
        assert!(offer.audio_port().is_some());
        assert_eq!(
            invite.body.sdp_origin_user(),
            Some("1001"),
            "offer origin is the caller uid"
        );
        assert_eq!(u.open_calls(), 1);

        // 100 and 180 produce nothing.
        assert!(u
            .on_sip(
                SimTime::ZERO,
                respond(&invite, StatusCode::TRYING, None).into()
            )
            .is_empty());
        assert!(u
            .on_sip(
                SimTime::ZERO,
                respond(&invite, StatusCode::RINGING, None).into()
            )
            .is_empty());

        // 200 with SDP: ACK + Answered.
        let evs = u.on_sip(
            SimTime::ZERO,
            respond(&invite, StatusCode::OK, Some(10_000)).into(),
        );
        assert_eq!(evs.len(), 2);
        assert_eq!(sip_of(&evs[0]).as_request().unwrap().method, Method::Ack);
        match &evs[1] {
            UacEvent::Answered {
                call_id,
                remote_rtp_port,
                remote_node,
                hangup_after,
                ..
            } => {
                assert_eq!(call_id, &cid);
                assert_eq!(*remote_rtp_port, 10_000);
                assert_eq!(*remote_node, PBX_NODE);
                assert_eq!(*hangup_after, SimDuration::from_secs(120));
            }
            other => panic!("{other:?}"),
        }

        // Hang up: BYE goes out.
        let evs = u.hangup(SimTime::from_secs(120), &cid);
        assert_eq!(evs.len(), 1);
        let bye = sip_of(&evs[0]).as_request().unwrap().clone();
        assert_eq!(bye.method, Method::Bye);
        assert_eq!(bye.headers.get(&HeaderName::CSeq), Some("2 BYE"));

        // 200 for the BYE closes the call.
        let evs = u.on_sip(
            SimTime::from_secs(120),
            respond(&bye, StatusCode::OK, None).into(),
        );
        assert_eq!(
            evs,
            vec![UacEvent::Ended {
                call_id: cid,
                caller: Arc::from("1001"),
                outcome: CallOutcome::Completed
            }]
        );
        assert_eq!(u.open_calls(), 0);
        assert_eq!(u.journal.outcome_count(CallOutcome::Completed), 1);
    }

    #[test]
    fn busy_is_blocked_and_acked() {
        let mut u = uac();
        let (cid, evs) = u.start_call(SimTime::ZERO, "1001", "2001", SimDuration::from_secs(120));
        let invite = sip_of(&evs[0]).as_request().unwrap().clone();
        let evs = u.on_sip(
            SimTime::ZERO,
            respond(&invite, StatusCode::BUSY_HERE, None).into(),
        );
        assert_eq!(evs.len(), 2);
        assert_eq!(sip_of(&evs[0]).as_request().unwrap().method, Method::Ack);
        assert_eq!(
            evs[1],
            UacEvent::Ended {
                call_id: cid,
                caller: Arc::from("1001"),
                outcome: CallOutcome::Blocked
            }
        );
        assert_eq!(u.journal.outcome_count(CallOutcome::Blocked), 1);
        assert!((u.journal.blocking_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn service_unavailable_also_blocked_404_failed() {
        let mut u = uac();
        let (_, evs) = u.start_call(SimTime::ZERO, "1001", "2001", SimDuration::from_secs(1));
        let invite = sip_of(&evs[0]).as_request().unwrap().clone();
        u.on_sip(
            SimTime::ZERO,
            respond(&invite, StatusCode::SERVICE_UNAVAILABLE, None).into(),
        );
        assert_eq!(u.journal.outcome_count(CallOutcome::Blocked), 1);

        let (_, evs) = u.start_call(SimTime::ZERO, "1001", "9999", SimDuration::from_secs(1));
        let invite = sip_of(&evs[0]).as_request().unwrap().clone();
        u.on_sip(
            SimTime::ZERO,
            respond(&invite, StatusCode::NOT_FOUND, None).into(),
        );
        assert_eq!(u.journal.outcome_count(CallOutcome::Failed), 1);
    }

    #[test]
    fn hangup_before_answer_is_noop() {
        let mut u = uac();
        let (cid, _) = u.start_call(SimTime::ZERO, "1001", "2001", SimDuration::from_secs(1));
        assert!(u.hangup(SimTime::ZERO, &cid).is_empty());
        assert!(u.hangup(SimTime::ZERO, "no-such-call").is_empty());
    }

    #[test]
    fn duplicate_200_does_not_double_answer() {
        let mut u = uac();
        let (_, evs) = u.start_call(SimTime::ZERO, "1001", "2001", SimDuration::from_secs(1));
        let invite = sip_of(&evs[0]).as_request().unwrap().clone();
        let ok = respond(&invite, StatusCode::OK, Some(10_000));
        let first = u.on_sip(SimTime::ZERO, ok.clone().into());
        assert_eq!(first.len(), 2);
        let second = u.on_sip(SimTime::ZERO, ok.into());
        assert!(second.is_empty(), "retransmitted 200 absorbed");
    }

    #[test]
    fn register_message_shape() {
        let mut u = uac();
        let evs = u.register("1001");
        let req = sip_of(&evs[0]).as_request().unwrap();
        assert_eq!(req.method, Method::Register);
        assert_eq!(
            req.headers.get(&HeaderName::Authorization),
            Some("Simple 1001 pw-1001")
        );
    }

    #[test]
    fn finish_abandons_open_calls() {
        let mut u = uac();
        u.start_call(SimTime::ZERO, "1001", "2001", SimDuration::from_secs(1));
        u.start_call(SimTime::ZERO, "1002", "2002", SimDuration::from_secs(1));
        u.finish();
        assert_eq!(u.journal.outcome_count(CallOutcome::Abandoned), 2);
        assert_eq!(u.open_calls(), 0);
    }

    #[test]
    fn retry_policy_delay_honours_retry_after_and_caps() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff: SimDuration::from_secs(2),
            max_backoff: SimDuration::from_secs(10),
        };
        // Backoff doubles: 2, 4, 8, then the cap.
        assert_eq!(p.delay(0, None), SimDuration::from_secs(2));
        assert_eq!(p.delay(1, None), SimDuration::from_secs(4));
        assert_eq!(p.delay(2, None), SimDuration::from_secs(8));
        assert_eq!(p.delay(3, None), SimDuration::from_secs(10), "capped");
        // Retry-After is a floor: the UAC never retries earlier than asked.
        assert_eq!(
            p.delay(0, Some(SimDuration::from_secs(5))),
            SimDuration::from_secs(5)
        );
        // ...but backoff dominates once it is larger.
        assert_eq!(
            p.delay(2, Some(SimDuration::from_secs(5))),
            SimDuration::from_secs(8)
        );
    }

    #[test]
    fn shed_503_is_retried_and_completes_as_shed_then_ok() {
        let mut u = uac();
        u.retry_policy = Some(RetryPolicy::default());
        let (cid, evs) = u.start_call(SimTime::ZERO, "1001", "2001", SimDuration::from_secs(60));
        let invite = sip_of(&evs[0]).as_request().unwrap().clone();

        // PBX sheds with 503 + Retry-After: 3.
        let mut shed = respond(&invite, StatusCode::SERVICE_UNAVAILABLE, None);
        shed.headers.push(HeaderName::RetryAfter, "3");
        let evs = u.on_sip(SimTime::ZERO, shed.into());
        assert_eq!(evs.len(), 2);
        assert_eq!(sip_of(&evs[0]).as_request().unwrap().method, Method::Ack);
        match &evs[1] {
            UacEvent::RetryAfter { call_id, delay } => {
                assert_eq!(call_id, &cid);
                // max(Retry-After 3, base backoff 2) = 3.
                assert_eq!(*delay, SimDuration::from_secs(3));
            }
            other => panic!("expected RetryAfter, got {other:?}"),
        }
        assert_eq!(u.open_calls(), 0);
        assert_eq!(u.pending_retries.len(), 1);
        assert_eq!(
            u.journal.outcome_count(CallOutcome::Blocked),
            0,
            "not terminal yet"
        );

        // Backoff elapses; retry goes out as a fresh INVITE.
        let evs = u.retry_call(SimTime::from_secs(3), &cid);
        assert_eq!(evs.len(), 1);
        let retry_invite = sip_of(&evs[0]).as_request().unwrap().clone();
        assert_eq!(retry_invite.method, Method::Invite);
        assert_ne!(retry_invite.call_id(), Some(cid.as_str()), "fresh Call-ID");
        assert_eq!(u.journal.retries, 1);
        assert_eq!(u.journal.attempted, 1, "retry is the same logical call");

        // This time the call goes through and completes.
        let ok = respond(&retry_invite, StatusCode::OK, Some(10_000));
        let evs = u.on_sip(SimTime::from_secs(4), ok.into());
        assert!(matches!(evs[1], UacEvent::Answered { .. }));
        let retry_cid = retry_invite.call_id().unwrap().to_owned();
        let evs = u.hangup(SimTime::from_secs(64), &retry_cid);
        let bye = sip_of(&evs[0]).as_request().unwrap().clone();
        let evs = u.on_sip(
            SimTime::from_secs(64),
            respond(&bye, StatusCode::OK, None).into(),
        );
        // The retry ends under its own Call-ID but the shed intent's caller.
        assert_eq!(
            evs,
            vec![UacEvent::Ended {
                call_id: retry_cid,
                caller: Arc::from("1001"),
                outcome: CallOutcome::ShedThenOk
            }]
        );
        assert_eq!(u.journal.outcome_count(CallOutcome::ShedThenOk), 1);
        assert_eq!(u.journal.outcome_count(CallOutcome::Completed), 0);
    }

    #[test]
    fn retries_exhausted_become_blocked() {
        let mut u = uac();
        u.retry_policy = Some(RetryPolicy {
            max_retries: 1,
            base_backoff: SimDuration::from_secs(1),
            max_backoff: SimDuration::from_secs(8),
        });
        let (cid, evs) = u.start_call(SimTime::ZERO, "1001", "2001", SimDuration::from_secs(60));
        let invite = sip_of(&evs[0]).as_request().unwrap().clone();
        let evs = u.on_sip(
            SimTime::ZERO,
            respond(&invite, StatusCode::SERVICE_UNAVAILABLE, None).into(),
        );
        assert!(matches!(evs[1], UacEvent::RetryAfter { .. }));
        let evs = u.retry_call(SimTime::from_secs(1), &cid);
        let retry_invite = sip_of(&evs[0]).as_request().unwrap().clone();
        // Shed again: the retry budget (1) is spent, so this is terminal.
        let evs = u.on_sip(
            SimTime::from_secs(1),
            respond(&retry_invite, StatusCode::SERVICE_UNAVAILABLE, None).into(),
        );
        assert_eq!(
            evs[1],
            UacEvent::Ended {
                call_id: retry_invite.call_id().unwrap().to_owned(),
                caller: Arc::from("1001"),
                outcome: CallOutcome::Blocked
            }
        );
        assert_eq!(u.journal.outcome_count(CallOutcome::Blocked), 1);
        assert_eq!(u.pending_retries.len(), 0);
    }

    #[test]
    fn without_policy_503_stays_blocked() {
        let mut u = uac();
        let (_, evs) = u.start_call(SimTime::ZERO, "1001", "2001", SimDuration::from_secs(1));
        let invite = sip_of(&evs[0]).as_request().unwrap().clone();
        let mut shed = respond(&invite, StatusCode::SERVICE_UNAVAILABLE, None);
        shed.headers.push(HeaderName::RetryAfter, "2");
        let evs = u.on_sip(SimTime::ZERO, shed.into());
        assert!(matches!(
            evs[1],
            UacEvent::Ended {
                outcome: CallOutcome::Blocked,
                ..
            }
        ));
        assert_eq!(u.journal.retries, 0);
    }

    #[test]
    fn finish_abandons_pending_retries_too() {
        let mut u = uac();
        u.retry_policy = Some(RetryPolicy::default());
        let (_, evs) = u.start_call(SimTime::ZERO, "1001", "2001", SimDuration::from_secs(1));
        let invite = sip_of(&evs[0]).as_request().unwrap().clone();
        u.on_sip(
            SimTime::ZERO,
            respond(&invite, StatusCode::SERVICE_UNAVAILABLE, None).into(),
        );
        assert_eq!(u.pending_retries.len(), 1);
        u.finish();
        assert_eq!(u.journal.outcome_count(CallOutcome::Abandoned), 1);
        assert_eq!(u.pending_retries.len(), 0);
    }

    /// Satellite: Retry-After tolerance. Params and comments are ignored,
    /// garbage is rejected, and a rejected header never yields an
    /// immediate retry — the capped default backoff applies instead.
    #[test]
    fn retry_after_parsing_is_tolerant_and_never_immediate() {
        assert_eq!(parse_retry_after("3"), Some(SimDuration::from_secs(3)));
        assert_eq!(
            parse_retry_after("  18000 "),
            Some(SimDuration::from_secs(18000))
        );
        assert_eq!(
            parse_retry_after("18000;duration=3600"),
            Some(SimDuration::from_secs(18000))
        );
        assert_eq!(
            parse_retry_after("120 (I'm in a meeting)"),
            Some(SimDuration::from_secs(120))
        );
        for bad in ["", "abc", "-5", "3.7", "soon;duration=1"] {
            assert_eq!(parse_retry_after(bad), None, "{bad:?} must not parse");
        }
        // A zero-base policy with no usable Retry-After must still wait.
        let p = RetryPolicy {
            max_retries: 3,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::from_secs(32),
        };
        assert_eq!(
            p.delay(0, None),
            SimDuration::from_secs(2),
            "capped default"
        );
        assert!(p.delay(0, parse_retry_after("junk")) > SimDuration::ZERO);
        // An explicit Retry-After still floors it.
        assert_eq!(
            p.delay(0, parse_retry_after("5;duration=60")),
            SimDuration::from_secs(5)
        );
        // A tiny max_backoff bounds even the fallback.
        let tight = RetryPolicy {
            max_retries: 3,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::from_millis(500),
        };
        assert_eq!(tight.delay(0, None), SimDuration::from_millis(500));
    }

    /// End-to-end through the UAC: a malformed Retry-After on a 503 does
    /// not produce an immediate (zero-delay) retry.
    #[test]
    fn malformed_retry_after_gets_backoff_not_immediate_retry() {
        let mut u = uac();
        u.retry_policy = Some(RetryPolicy {
            max_retries: 3,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::from_secs(8),
        });
        let (_, evs) = u.start_call(SimTime::ZERO, "1001", "2001", SimDuration::from_secs(60));
        let invite = sip_of(&evs[0]).as_request().unwrap().clone();
        let mut shed = respond(&invite, StatusCode::SERVICE_UNAVAILABLE, None);
        shed.headers.push(HeaderName::RetryAfter, "later, maybe");
        let evs = u.on_sip(SimTime::ZERO, shed.into());
        match &evs[1] {
            UacEvent::RetryAfter { delay, .. } => {
                assert!(*delay > SimDuration::ZERO, "retry must not be immediate");
            }
            other => panic!("expected RetryAfter, got {other:?}"),
        }
    }

    #[test]
    fn rate_pacer_defers_and_releases_on_wake() {
        let mut u = uac();
        u.pacer = Some(Pacer::rate(2.0)); // one INVITE per 500 ms
                                          // First intent goes out immediately.
        let (cid, evs) = u.start_call(SimTime::ZERO, "1001", "2001", SimDuration::from_secs(10));
        assert!(!cid.is_empty());
        assert_eq!(evs.len(), 1);
        assert!(matches!(evs[0], UacEvent::SendSip { .. }));
        // Second intent inside the spacing window: deferred, wake armed.
        let (cid2, evs) = u.start_call(
            SimTime::from_millis(100),
            "1002",
            "2002",
            SimDuration::from_secs(10),
        );
        assert!(cid2.is_empty(), "deferred intent has no Call-ID yet");
        assert_eq!(evs.len(), 1);
        let at = match &evs[0] {
            UacEvent::PacerWake { at } => *at,
            other => panic!("expected PacerWake, got {other:?}"),
        };
        assert_eq!(at, SimTime::from_millis(500));
        assert_eq!(u.pacer.as_ref().unwrap().queued(), 1);
        // Third intent: queued behind the second, no duplicate wake.
        let (_, evs) = u.start_call(
            SimTime::from_millis(200),
            "1003",
            "2003",
            SimDuration::from_secs(10),
        );
        assert!(evs.is_empty(), "wake already armed");
        assert_eq!(u.pacer.as_ref().unwrap().queued(), 2);
        // Both counted as offered load at intent time.
        assert_eq!(u.journal.attempted, 3);
        // Wake at 500 ms: one INVITE out, re-armed for the third.
        let evs = u.pacer_wake(SimTime::from_millis(500));
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[0], UacEvent::SendSip { .. }));
        match &evs[1] {
            UacEvent::PacerWake { at } => assert_eq!(*at, SimTime::from_millis(1000)),
            other => panic!("expected re-arm, got {other:?}"),
        }
        // Second wake drains the queue with no further re-arm.
        let evs = u.pacer_wake(SimTime::from_millis(1000));
        assert_eq!(evs.len(), 1);
        assert!(matches!(evs[0], UacEvent::SendSip { .. }));
        assert_eq!(u.pacer.as_ref().unwrap().queued(), 0);
        assert_eq!(u.open_calls(), 3);
    }

    #[test]
    fn rate_pacer_adopts_downstream_feedback() {
        let assert_rate = |u: &Uac, want: f64| match u.pacer.as_ref().unwrap().allowance {
            Allowance::Rate { rate_cps, .. } => assert!((rate_cps - want).abs() < 1e-9),
            Allowance::Window { .. } => panic!("a rate pacer"),
        };
        let mut u = uac();
        u.pacer = Some(Pacer::rate(10.0));
        let (_, evs) = u.start_call(SimTime::ZERO, "1001", "2001", SimDuration::from_secs(10));
        let invite = sip_of(&evs[0]).as_request().unwrap().clone();
        // The PBX's 100 Trying advertises a lower rate.
        let mut trying = respond(&invite, StatusCode::TRYING, None);
        trying
            .headers
            .push(HeaderName::OverloadControl, "rate=1.000");
        u.on_sip(SimTime::ZERO, trying.into());
        assert_rate(&u, 1.0);
        // Malformed feedback is ignored.
        let mut bad = respond(&invite, StatusCode::TRYING, None);
        bad.headers.push(HeaderName::OverloadControl, "rate=???");
        u.on_sip(SimTime::ZERO, bad.into());
        assert_rate(&u, 1.0);
    }

    #[test]
    fn window_pacer_caps_open_calls_and_releases_on_terminal() {
        let mut u = uac();
        u.pacer = Some(Pacer::window(2));
        let (cid1, evs1) = u.start_call(SimTime::ZERO, "1001", "2001", SimDuration::from_secs(10));
        let (_cid2, evs2) = u.start_call(SimTime::ZERO, "1002", "2002", SimDuration::from_secs(10));
        assert_eq!(evs1.len() + evs2.len(), 2, "window of 2 admits both");
        // Third intent: over the window, deferred silently.
        let (cid3, evs3) = u.start_call(SimTime::ZERO, "1003", "2003", SimDuration::from_secs(10));
        assert!(cid3.is_empty() && evs3.is_empty());
        assert_eq!(u.pacer.as_ref().unwrap().queued(), 1);
        // First call fails; its slot frees and the queued intent goes out.
        let invite1 = sip_of(&evs1[0]).as_request().unwrap().clone();
        let evs = u.on_sip(
            SimTime::from_secs(1),
            respond(&invite1, StatusCode::NOT_FOUND, None).into(),
        );
        // ACK + Ended for cid1, then the released INVITE for the intent.
        assert_eq!(evs.len(), 3);
        assert!(matches!(
            &evs[1],
            UacEvent::Ended { call_id, .. } if call_id == &cid1
        ));
        let released = sip_of(&evs[2]).as_request().unwrap();
        assert_eq!(released.method, Method::Invite);
        assert_eq!(u.pacer.as_ref().unwrap().queued(), 0);
        // Window feedback shrinks the allowance for future admissions.
        let mut resp = respond(&invite1, StatusCode::TRYING, None);
        resp.headers.push(HeaderName::OverloadControl, "win=1");
        u.on_sip(SimTime::from_secs(1), resp.into());
        assert!(matches!(
            u.pacer.as_ref().unwrap().allowance,
            Allowance::Window { window: 1, .. }
        ));
        let (cid4, evs4) = u.start_call(
            SimTime::from_secs(2),
            "1004",
            "2004",
            SimDuration::from_secs(10),
        );
        assert!(cid4.is_empty() && evs4.is_empty(), "shrunk window defers");
    }

    #[test]
    fn finish_abandons_pacer_deferred_intents() {
        let mut u = uac();
        u.pacer = Some(Pacer::window(1));
        u.start_call(SimTime::ZERO, "1001", "2001", SimDuration::from_secs(10));
        u.start_call(SimTime::ZERO, "1002", "2002", SimDuration::from_secs(10));
        assert_eq!(u.pacer.as_ref().unwrap().queued(), 1);
        u.finish();
        // One open call + one deferred intent, both abandoned.
        assert_eq!(u.journal.outcome_count(CallOutcome::Abandoned), 2);
        assert_eq!(u.pacer.as_ref().unwrap().queued(), 0);
    }
}
