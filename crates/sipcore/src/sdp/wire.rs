//! Lazy SDP wire views, interned summaries and allocation-free builders —
//! the session-description counterpart of [`crate::wire::WireMessage`].
//!
//! Every INVITE/200 in the stack carries a one-audio-stream session
//! description. The eager [`SessionDescription`] round-trips it through
//! owned `String` parse and `Vec<u8>` rebuild per hop — the last per-call
//! allocation hot spot the zero-alloc signalling plane left uncovered.
//! This module closes it with three pieces:
//!
//! * [`SdpView`] — a borrowed, zero-allocation view over raw body bytes
//!   answering the fields signalling actually routes on (origin user,
//!   connection address, audio port, payload-type list) straight from
//!   the wire. Tolerant: a non-UTF-8 or malformed line never poisons the
//!   rest of the body, the affected accessor just skips it.
//! * [`SdpSummary`] — the `Copy` compact form for dialog state: port and
//!   codec inline, origin/connection interned through
//!   [`crate::atoms::AtomTable`]. Four machine words per leg instead of
//!   two heap strings.
//! * [`SdpBody`] — a self-contained structured body (shared `Arc<str>`
//!   endpoints, analytic [`SdpBody::len`]) that a [`crate::message::Body`]
//!   carries across hops without the text ever being materialized; and
//!   the allocation-free serializers [`write_sdp`] / [`body_len`] /
//!   [`SdpSummary::to_body_into`] that write it into pooled buffers when
//!   bytes are finally needed.
//!
//! On any body the owned parser accepts, every accessor here agrees with
//! [`SessionDescription::parse`] field-for-field; a property test below
//! pins that agreement together with the build→parse round-trip.

use crate::atoms::{Atom, AtomTable};
use crate::message::decimal_len;
use crate::pool::BufferPool;
use crate::sdp::{SdpCodec, SessionDescription};
use std::sync::Arc;

/// A borrowed, zero-allocation view over one SDP body.
///
/// Accessors scan lazily, byte-line-wise: lines are split on `\n`
/// (tolerating `\r\n`), each line is considered independently, and the
/// first line that yields a usable value wins. Garbage — including
/// non-UTF-8 bytes — in one line never hides a well-formed line elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct SdpView<'a> {
    body: &'a [u8],
}

impl<'a> SdpView<'a> {
    /// Build a view over `body`. Returns `None` only for an empty body —
    /// the one case where no accessor could ever answer.
    #[must_use]
    pub fn parse(body: &'a [u8]) -> Option<SdpView<'a>> {
        if body.is_empty() {
            return None;
        }
        Some(SdpView { body })
    }

    /// The underlying body bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &'a [u8] {
        self.body
    }

    /// Lines as `&str`, skipping non-UTF-8 lines, with trailing `\r` and
    /// whitespace trimmed.
    fn lines(&self) -> impl Iterator<Item = &'a str> {
        self.body
            .split(|&b| b == b'\n')
            .filter_map(|raw| std::str::from_utf8(raw).ok())
            .map(str::trim_end)
    }

    /// Origin username: the first token of the first `o=` line that has
    /// one.
    #[must_use]
    pub fn origin_user(&self) -> Option<&'a str> {
        self.lines()
            .filter_map(|l| l.strip_prefix("o="))
            .find_map(|rest| rest.split_whitespace().next())
    }

    /// Connection address: the third token (`c=IN IP4 <addr>`) of the
    /// first `c=` line that has one.
    #[must_use]
    pub fn connection(&self) -> Option<&'a str> {
        self.lines()
            .filter_map(|l| l.strip_prefix("c="))
            .find_map(|rest| rest.split_whitespace().nth(2))
    }

    /// The first `m=audio` line with a parseable port: `(port, rest after
    /// the proto token)`.
    fn audio_media(&self) -> Option<(u16, &'a str)> {
        self.lines()
            .filter_map(|l| l.strip_prefix("m=audio "))
            .find_map(|rest| {
                let (port_tok, after_port) = split_token(rest)?;
                let port: u16 = port_tok.parse().ok()?;
                let (_proto, after_proto) = split_token(after_port)?;
                Some((port, after_proto))
            })
    }

    /// Audio media port from the winning `m=audio` line.
    #[must_use]
    pub fn audio_port(&self) -> Option<u16> {
        Some(self.audio_media()?.0)
    }

    /// RTP payload types listed on the winning `m=audio` line, straight
    /// from the wire (tokens that do not parse as `u8` are skipped).
    fn payload_types(&self) -> impl Iterator<Item = u8> + 'a {
        self.audio_media()
            .map(|(_, rest)| rest)
            .unwrap_or("")
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
    }

    /// The negotiable codec: the first listed payload type, if this stack
    /// knows it. `None` when the body offers only unknown payload types
    /// (or no audio stream at all).
    #[must_use]
    pub fn codec(&self) -> Option<SdpCodec> {
        SdpCodec::from_payload_type(self.payload_types().next()?)
    }

    /// Compact the view into a [`SdpSummary`], interning the endpoint
    /// strings. `None` when no usable audio stream is present — the same
    /// condition under which [`SessionDescription::parse`] returns `None`.
    /// Steady state (endpoint strings already interned) allocates nothing.
    #[must_use]
    pub fn summarize(&self, atoms: &mut AtomTable) -> Option<SdpSummary> {
        let (audio_port, _) = self.audio_media()?;
        let codec = self.codec()?;
        Some(SdpSummary {
            audio_port,
            codec,
            conn: atoms.intern(self.connection().unwrap_or("")),
            origin: atoms.intern(self.origin_user().unwrap_or("")),
        })
    }

    /// Upgrade to the eager owned form (the fields the view answers,
    /// copied into `String`s). Agrees with [`SessionDescription::parse`]
    /// by construction — the owned parser delegates here.
    #[must_use]
    pub fn to_session(&self) -> Option<SessionDescription> {
        let (audio_port, _) = self.audio_media()?;
        Some(SessionDescription {
            origin_user: self.origin_user().unwrap_or("").to_owned(),
            connection: self.connection().unwrap_or("").to_owned(),
            audio_port,
            codec: self.codec()?,
        })
    }
}

/// A session description compacted for dialog state: `Copy`, four machine
/// words, endpoint strings interned through an [`AtomTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdpSummary {
    /// Audio media port (`m=audio <port> ...`).
    pub audio_port: u16,
    /// Negotiated codec (first recognized payload type).
    pub codec: SdpCodec,
    /// Interned connection address (`c=IN IP4 <addr>`).
    pub conn: Atom,
    /// Interned origin username (`o=<user> ...`).
    pub origin: Atom,
}

impl SdpSummary {
    /// Summarize any message body form: a structured [`crate::message::Body::Sdp`]
    /// by direct field reads, raw bytes through a lazy [`SdpView`].
    #[must_use]
    pub fn of_body(body: &crate::message::Body, atoms: &mut AtomTable) -> Option<SdpSummary> {
        match body {
            crate::message::Body::Bytes(b) => SdpView::parse(b)?.summarize(atoms),
            crate::message::Body::Sdp(s) => Some(SdpSummary {
                audio_port: s.audio_port,
                codec: s.codec,
                conn: atoms.intern(&s.connection),
                origin: atoms.intern(&s.origin_user),
            }),
        }
    }

    /// Exact length of the body [`SdpSummary::write_sdp`] produces,
    /// computed without serializing.
    #[must_use]
    pub fn body_len(&self, atoms: &AtomTable) -> usize {
        body_len(
            atoms.resolve(self.origin),
            atoms.resolve(self.conn),
            self.audio_port,
            self.codec,
        )
    }

    /// Serialize into a caller-supplied buffer (appending), allocating
    /// nothing beyond what the buffer itself must grow.
    pub fn write_sdp(&self, atoms: &AtomTable, out: &mut Vec<u8>) {
        write_sdp(
            out,
            atoms.resolve(self.origin),
            atoms.resolve(self.conn),
            self.audio_port,
            self.codec,
        );
    }

    /// Serialize into a pooled buffer — zero allocations once the pool
    /// has a released buffer of working capacity. Release the buffer back
    /// with [`BufferPool::release`] after use.
    #[must_use]
    pub fn to_body_into(&self, atoms: &AtomTable, pool: &mut BufferPool) -> Vec<u8> {
        let mut buf = pool.acquire();
        buf.reserve(self.body_len(atoms));
        self.write_sdp(atoms, &mut buf);
        buf
    }
}

/// A self-contained structured SDP body: what an SDP-bearing message on
/// the interned signalling path carries instead of serialized text. The
/// endpoint strings are shared (`Arc<str>`), so building one from warm
/// state is two refcount bumps; the text form exists only if a consumer
/// actually serializes the message ([`SdpBody::write_into`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdpBody {
    /// Origin username field (`o=`).
    pub origin_user: Arc<str>,
    /// Connection address (`c=IN IP4 <addr>`).
    pub connection: Arc<str>,
    /// Audio media port (`m=audio <port> ...`).
    pub audio_port: u16,
    /// Offered codec.
    pub codec: SdpCodec,
}

impl SdpBody {
    /// Build a structured offer/answer body.
    #[must_use]
    pub fn new(
        origin_user: impl Into<Arc<str>>,
        connection: impl Into<Arc<str>>,
        audio_port: u16,
        codec: SdpCodec,
    ) -> Self {
        SdpBody {
            origin_user: origin_user.into(),
            connection: connection.into(),
            audio_port,
            codec,
        }
    }

    /// Exact serialized length, computed without serializing — what the
    /// interned signalling path uses for frame sizing and Content-Length.
    #[must_use]
    pub fn len(&self) -> usize {
        body_len(
            &self.origin_user,
            &self.connection,
            self.audio_port,
            self.codec,
        )
    }

    /// An SDP body always has content.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Serialize into a caller-supplied buffer (appending). Byte-identical
    /// to [`SessionDescription::to_body`] for the same fields.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        write_sdp(
            out,
            &self.origin_user,
            &self.connection,
            self.audio_port,
            self.codec,
        );
    }

    /// The eager owned form (copies the endpoint strings).
    #[must_use]
    pub fn to_session(&self) -> SessionDescription {
        SessionDescription {
            origin_user: self.origin_user.to_string(),
            connection: self.connection.to_string(),
            audio_port: self.audio_port,
            codec: self.codec,
        }
    }
}

/// Serialize a one-audio-stream session description into `out`
/// (appending) — the zero-allocation core every SDP builder shares.
/// Byte-identical to [`SessionDescription::to_body`].
pub fn write_sdp(
    out: &mut Vec<u8>,
    origin_user: &str,
    connection: &str,
    port: u16,
    codec: SdpCodec,
) {
    let pt = codec.payload_type();
    out.extend_from_slice(b"v=0\r\no=");
    out.extend_from_slice(origin_user.as_bytes());
    out.extend_from_slice(b" 0 0 IN IP4 ");
    out.extend_from_slice(connection.as_bytes());
    out.extend_from_slice(b"\r\ns=call\r\nc=IN IP4 ");
    out.extend_from_slice(connection.as_bytes());
    out.extend_from_slice(b"\r\nt=0 0\r\nm=audio ");
    write_decimal(out, u32::from(port));
    out.extend_from_slice(b" RTP/AVP ");
    write_decimal(out, u32::from(pt));
    out.extend_from_slice(b"\r\na=rtpmap:");
    write_decimal(out, u32::from(pt));
    out.push(b' ');
    out.extend_from_slice(codec.encoding_name().as_bytes());
    out.extend_from_slice(b"/8000\r\na=ptime:20\r\n");
}

/// Exact length of [`write_sdp`]'s output for these fields, computed
/// without serializing.
#[must_use]
pub fn body_len(origin_user: &str, connection: &str, port: u16, codec: SdpCodec) -> usize {
    let pt_len = decimal_len(u32::from(codec.payload_type()));
    // v=0 | o=<user> 0 0 IN IP4 <conn> | s=call | c=IN IP4 <conn> | t=0 0
    5 + 2 + origin_user.len() + 12 + connection.len() + 2
        + 8
        + 9 + connection.len() + 2
        + 7
        // m=audio <port> RTP/AVP <pt>
        + 8 + decimal_len(u32::from(port)) + 9 + pt_len + 2
        // a=rtpmap:<pt> <enc>/8000 | a=ptime:20
        + 9 + pt_len + 1 + codec.encoding_name().len() + 7
        + 12
}

/// Split the first whitespace-delimited token off `s`: `(token, rest)`.
fn split_token(s: &str) -> Option<(&str, &str)> {
    let s = s.trim_start();
    if s.is_empty() {
        return None;
    }
    match s.find(char::is_whitespace) {
        Some(i) => Some((&s[..i], &s[i..])),
        None => Some((s, "")),
    }
}

/// Write `n` in decimal without a heap round-trip.
fn write_decimal(out: &mut Vec<u8>, n: u32) {
    let mut buf = [0u8; 10];
    let mut i = buf.len();
    let mut n = n;
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer() -> SessionDescription {
        SessionDescription::new("1001", "sipp-client", 20_000, SdpCodec::Pcmu)
    }

    #[test]
    fn view_agrees_with_owned_parse_on_built_bodies() {
        let body = offer().to_body();
        let v = SdpView::parse(&body).unwrap();
        assert_eq!(v.origin_user(), Some("1001"));
        assert_eq!(v.connection(), Some("sipp-client"));
        assert_eq!(v.audio_port(), Some(20_000));
        assert_eq!(v.payload_types().collect::<Vec<_>>(), vec![0]);
        assert_eq!(v.codec(), Some(SdpCodec::Pcmu));
        assert_eq!(v.to_session(), Some(offer()));
    }

    #[test]
    fn view_is_tolerant_of_garbage_lines() {
        // A non-UTF-8 line and a malformed o= line ride along with a
        // valid media description: the view (and through it the owned
        // parser) still answers from the good lines.
        let mut body = Vec::new();
        body.extend_from_slice(b"o=\r\n");
        body.extend_from_slice(&[0xFF, 0xFE, 0x01, b'\n']);
        body.extend_from_slice(b"o=alice 0 0 IN IP4 h\r\n");
        body.extend_from_slice(b"c=IN IP4 10.0.0.9\r\n");
        body.extend_from_slice(b"m=audio bad RTP/AVP 0\r\n");
        body.extend_from_slice(b"m=audio 7000 RTP/AVP 8\r\n");
        let v = SdpView::parse(&body).unwrap();
        assert_eq!(v.origin_user(), Some("alice"));
        assert_eq!(v.connection(), Some("10.0.0.9"));
        assert_eq!(v.audio_port(), Some(7000));
        assert_eq!(v.codec(), Some(SdpCodec::Pcma));
    }

    #[test]
    fn view_rejects_only_the_empty_body() {
        assert!(SdpView::parse(b"").is_none());
        let v = SdpView::parse(&[0xFF, 0xFE]).unwrap();
        assert_eq!(v.audio_port(), None);
        assert_eq!(v.codec(), None);
        assert_eq!(v.to_session(), None);
    }

    #[test]
    fn unknown_payload_types_are_listed_but_not_negotiable() {
        let body = b"c=IN IP4 h\r\nm=audio 5000 RTP/AVP 96 101\r\n";
        let v = SdpView::parse(body).unwrap();
        assert_eq!(v.payload_types().collect::<Vec<_>>(), vec![96, 101]);
        assert_eq!(v.codec(), None, "first listed PT wins, and it is unknown");
        assert_eq!(v.to_session(), None);
    }

    #[test]
    fn summary_interns_and_round_trips() {
        let body = offer().to_body();
        let mut atoms = AtomTable::new();
        let s = SdpView::parse(&body)
            .unwrap()
            .summarize(&mut atoms)
            .unwrap();
        assert_eq!(s.audio_port, 20_000);
        assert_eq!(s.codec, SdpCodec::Pcmu);
        assert_eq!(atoms.resolve(s.origin), "1001");
        assert_eq!(atoms.resolve(s.conn), "sipp-client");

        // Analytic length is exact and the rebuilt body is byte-identical.
        let mut pool = BufferPool::default();
        let rebuilt = s.to_body_into(&atoms, &mut pool);
        assert_eq!(rebuilt.len(), s.body_len(&atoms));
        assert_eq!(rebuilt, body);
        pool.release(rebuilt);
    }

    #[test]
    fn summary_of_structured_body_reads_fields_directly() {
        let mut atoms = AtomTable::new();
        let body = crate::message::Body::Sdp(SdpBody::new("a", "h", 9000, SdpCodec::Pcma));
        let s = SdpSummary::of_body(&body, &mut atoms).unwrap();
        assert_eq!(s.audio_port, 9000);
        assert_eq!(s.codec, SdpCodec::Pcma);
        assert_eq!(atoms.resolve(s.conn), "h");
        assert_eq!(atoms.resolve(s.origin), "a");
    }

    #[test]
    fn body_len_matches_write_for_extreme_ports() {
        for port in [0u16, 9, 10, 65_535] {
            for codec in [SdpCodec::Pcmu, SdpCodec::Pcma] {
                let mut out = Vec::new();
                write_sdp(&mut out, "u", "conn.example", port, codec);
                assert_eq!(out.len(), body_len("u", "conn.example", port, codec));
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One generated SDP line from a `(kind, token, port, pt, extra_pts)`
    /// draw: well-formed o=/c=/m= lines in arbitrary order, m= lines with
    /// unknown or multiple payload types, and malformed/garbage lines.
    fn render_line(kind: u8, tok: &str, port: u16, pt: u8, extra: &[u8]) -> String {
        match kind {
            0 => format!("o={tok} 0 0 IN IP4 h"),
            1 => format!("c=IN IP4 {tok}"),
            2 => format!("m=audio {port} RTP/AVP {pt}"),
            3 => {
                let mut l = format!("m=audio {port} RTP/AVP {pt}");
                for e in extra {
                    l.push(' ');
                    l.push_str(&e.to_string());
                }
                l
            }
            4 => "v=0".to_owned(),
            5 => "a=ptime:20".to_owned(),
            6 => "m=audio junk RTP/AVP 0".to_owned(),
            7 => "o=".to_owned(),
            _ => tok.to_owned(), // free-form token line, no prefix
        }
    }

    proptest! {
        /// Build → parse round-trips exactly, through both the owned
        /// parser and the wire view, and the analytic length is exact.
        #[test]
        fn build_parse_round_trip(
            user in "[a-z0-9.@-]{1,12}",
            conn in "[a-z0-9.@-]{1,12}",
            port in 0u16..=u16::MAX,
            alaw in any::<bool>(),
        ) {
            let codec = if alaw { SdpCodec::Pcma } else { SdpCodec::Pcmu };
            let sdp = SessionDescription::new(&user, &conn, port, codec);
            let body = sdp.to_body();
            prop_assert_eq!(body.len(), body_len(&user, &conn, port, codec));
            let reparsed = SessionDescription::parse(&body);
            prop_assert_eq!(reparsed.as_ref(), Some(&sdp));
            let v = SdpView::parse(&body).unwrap();
            prop_assert_eq!(v.origin_user(), Some(user.as_str()));
            prop_assert_eq!(v.connection(), Some(conn.as_str()));
            prop_assert_eq!(v.audio_port(), Some(port));
            prop_assert_eq!(v.codec(), Some(codec));
        }

        /// On arbitrary line soups — reordered lines, unknown payload
        /// types, junk bytes — the view and the owned parser agree
        /// field-for-field and nothing panics.
        #[test]
        fn view_agrees_with_owned_parse_on_generated_bodies(
            draws in proptest::collection::vec(
                (
                    0u8..9,
                    "[a-z0-9.@-]{1,8}",
                    0u16..=u16::MAX,
                    any::<u8>(),
                    proptest::collection::vec(any::<u8>(), 0..3),
                ),
                0..8,
            ),
            junk in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            let mut body = Vec::new();
            for (kind, tok, port, pt, extra) in &draws {
                body.extend_from_slice(render_line(*kind, tok, *port, *pt, extra).as_bytes());
                body.extend_from_slice(b"\r\n");
            }
            body.extend_from_slice(&junk);
            let owned = SessionDescription::parse(&body);
            match SdpView::parse(&body) {
                None => prop_assert!(owned.is_none()),
                Some(v) => {
                    let viewed = v.to_session();
                    prop_assert_eq!(&owned, &viewed);
                    if let Some(s) = owned {
                        prop_assert_eq!(v.origin_user().unwrap_or(""), s.origin_user);
                        prop_assert_eq!(v.connection().unwrap_or(""), s.connection);
                        prop_assert_eq!(v.audio_port(), Some(s.audio_port));
                        prop_assert_eq!(v.codec(), Some(s.codec));
                        let mut atoms = AtomTable::new();
                        let sum = v.summarize(&mut atoms).unwrap();
                        prop_assert_eq!(sum.audio_port, s.audio_port);
                        prop_assert_eq!(sum.codec, s.codec);
                    }
                }
            }
        }
    }
}
