//! SIP request/response model and wire serialization.

use crate::headers::{tag_of, HeaderMap, HeaderName};
use crate::method::Method;
use crate::sdp::wire::{SdpBody, SdpView};
use crate::sdp::SdpCodec;
use crate::status::StatusCode;
use crate::uri::SipUri;

/// The SIP protocol version token used on every start line.
pub const SIP_VERSION: &str = "SIP/2.0";

/// A SIP message body.
///
/// The engines build SDP-bearing messages with the structured
/// [`Body::Sdp`] form — analytic length, shared endpoint strings,
/// serialized only if a consumer materializes the wire. Anything parsed
/// off the wire carries raw [`Body::Bytes`]. The SDP accessors answer
/// over both forms — direct field reads on `Sdp`, a lazy zero-allocation
/// [`SdpView`] scan on `Bytes` — so endpoints never see whether a message
/// was built or parsed.
///
/// Cross-form equality compares serialized bytes, so a structured body
/// and the bytes it would produce are the same body.
#[derive(Debug, Clone)]
pub enum Body {
    /// Raw body bytes (possibly empty).
    Bytes(Vec<u8>),
    /// A structured session description, serialized on demand.
    Sdp(SdpBody),
}

impl Body {
    /// The empty body.
    #[must_use]
    pub fn empty() -> Body {
        Body::Bytes(Vec::new())
    }

    /// Serialized length, computed without serializing.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Body::Bytes(b) => b.len(),
            Body::Sdp(s) => s.len(),
        }
    }

    /// Whether the serialized body would be empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match self {
            Body::Bytes(b) => b.is_empty(),
            Body::Sdp(_) => false,
        }
    }

    /// The raw bytes, when this body already is bytes. Structured bodies
    /// return `None` — use the SDP accessors or [`Body::to_vec`].
    #[must_use]
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Body::Bytes(b) => Some(b),
            Body::Sdp(_) => None,
        }
    }

    /// Serialize into a caller-supplied buffer (appending).
    pub fn write_into(&self, out: &mut Vec<u8>) {
        match self {
            Body::Bytes(b) => out.extend_from_slice(b),
            Body::Sdp(s) => s.write_into(out),
        }
    }

    /// Materialize the serialized bytes (allocates; cold paths only).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        match self {
            Body::Bytes(b) => b.clone(),
            Body::Sdp(s) => {
                let mut out = Vec::with_capacity(s.len());
                s.write_into(&mut out);
                out
            }
        }
    }

    /// SDP audio media port, over either form, without allocating.
    #[must_use]
    pub fn sdp_audio_port(&self) -> Option<u16> {
        match self {
            Body::Bytes(b) => SdpView::parse(b)?.audio_port(),
            Body::Sdp(s) => Some(s.audio_port),
        }
    }

    /// SDP negotiable codec (first recognized payload type), over either
    /// form, without allocating.
    #[must_use]
    pub fn sdp_codec(&self) -> Option<SdpCodec> {
        match self {
            Body::Bytes(b) => SdpView::parse(b)?.codec(),
            Body::Sdp(s) => Some(s.codec),
        }
    }

    /// SDP origin username, over either form, without allocating.
    #[must_use]
    pub fn sdp_origin_user(&self) -> Option<&str> {
        match self {
            Body::Bytes(b) => SdpView::parse(b)?.origin_user(),
            Body::Sdp(s) => Some(&s.origin_user),
        }
    }
}

impl Default for Body {
    fn default() -> Self {
        Body::empty()
    }
}

impl From<Vec<u8>> for Body {
    fn from(b: Vec<u8>) -> Self {
        Body::Bytes(b)
    }
}

impl From<SdpBody> for Body {
    fn from(s: SdpBody) -> Self {
        Body::Sdp(s)
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Body::Bytes(a), Body::Bytes(b)) => a == b,
            (Body::Sdp(a), Body::Sdp(b)) => a == b,
            // Cross-form: a structured body equals the bytes it writes.
            (a, b) => a.to_vec() == b.to_vec(),
        }
    }
}

impl Eq for Body {}

/// A SIP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request-URI (the target of this hop).
    pub uri: SipUri,
    /// Header fields.
    pub headers: HeaderMap,
    /// Message body (SDP for INVITE/200, empty otherwise).
    pub body: Body,
}

/// A SIP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Header fields.
    pub headers: HeaderMap,
    /// Message body.
    pub body: Body,
}

/// Either kind of SIP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SipMessage {
    /// A request.
    Request(Request),
    /// A response.
    Response(Response),
}

impl Request {
    /// A new request with empty headers and body.
    #[must_use]
    pub fn new(method: Method, uri: SipUri) -> Self {
        Request {
            method,
            uri,
            headers: HeaderMap::new(),
            body: Body::empty(),
        }
    }

    /// Builder: add a header.
    #[must_use]
    pub fn header(mut self, name: HeaderName, value: impl AsRef<str>) -> Self {
        self.headers.push(name, value);
        self
    }

    /// Builder: set the body and its Content-Type/Content-Length headers.
    #[must_use]
    pub fn with_body(mut self, content_type: &str, body: Vec<u8>) -> Self {
        describe_body(&mut self.headers, content_type, body.len());
        self.body = Body::Bytes(body);
        self
    }

    /// Builder: attach a structured SDP body without serializing it. The
    /// Content-Length comes from the analytic [`SdpBody::len`]; the text
    /// form exists only if the message is later written to the wire.
    #[must_use]
    pub fn with_sdp(mut self, sdp: SdpBody) -> Self {
        describe_body(&mut self.headers, "application/sdp", sdp.len());
        self.body = Body::Sdp(sdp);
        self
    }

    /// CSeq number (from the `CSeq: n METHOD` header), if parseable.
    #[must_use]
    pub fn cseq_number(&self) -> Option<u32> {
        let v = self.headers.get(&HeaderName::CSeq)?;
        v.split_whitespace().next()?.parse().ok()
    }

    /// Call-ID header value.
    #[must_use]
    pub fn call_id(&self) -> Option<&str> {
        self.headers.get(&HeaderName::CallId)
    }

    /// Top Via branch parameter — the transaction key.
    #[must_use]
    pub fn top_via_branch(&self) -> Option<&str> {
        let via = self.headers.get(&HeaderName::Via)?;
        branch_of(via)
    }

    /// Serialize to the RFC 3261 wire format. Allocates exactly once
    /// (the returned buffer, sized by [`Request::wire_len`]).
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.to_wire_into(&mut out);
        out
    }

    /// Serialize into a caller-supplied buffer (appending), allocating
    /// nothing beyond what the buffer itself must grow — the pooled-
    /// buffer serialization path.
    pub fn to_wire_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        out.extend_from_slice(self.method.as_str().as_bytes());
        out.push(b' ');
        let _ = core::fmt::Write::write_fmt(&mut ByteWriter(out), format_args!("{}", self.uri));
        out.push(b' ');
        out.extend_from_slice(SIP_VERSION.as_bytes());
        out.extend_from_slice(b"\r\n");
        write_headers_and_body(out, &self.headers, &self.body);
    }

    /// Exact length of [`Request::to_wire`]'s output, computed without
    /// serializing. The interned signalling path uses this for frame
    /// sizing so the wire never has to be materialized; equality with
    /// the serialized length is asserted in tests.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        self.method.as_str().len()
            + 1
            + self.uri.wire_len()
            + 1
            + SIP_VERSION.len()
            + 2
            + headers_and_body_wire_len(&self.headers, &self.body)
    }

    /// Build the canonical response to this request with the mandatory
    /// copied headers (Via stack, From, To, Call-ID, CSeq) per RFC 3261
    /// §8.2.6.
    #[must_use]
    pub fn make_response(&self, status: StatusCode) -> Response {
        self.response(status, None)
    }

    /// [`Request::make_response`] as a UAS creating the dialog: a To
    /// header that carries no tag yet gets `;tag=<to_tag>` (RFC 3261
    /// §8.2.6.2), written as the value is copied.
    #[must_use]
    pub fn make_response_tagged(&self, status: StatusCode, to_tag: &str) -> Response {
        self.response(status, Some(to_tag))
    }

    fn response(&self, status: StatusCode, to_tag: Option<&str>) -> Response {
        // Every value goes arena to arena; the arena is the map's first
        // reservation, which holds a response and what a UAS adds to it.
        let mut r = Response::new(status);
        for via in self.headers.get_all(&HeaderName::Via) {
            r.headers.push(HeaderName::Via, via);
        }
        for name in [
            HeaderName::From,
            HeaderName::To,
            HeaderName::CallId,
            HeaderName::CSeq,
        ] {
            let Some(value) = self.headers.get(&name) else {
                continue;
            };
            match to_tag.filter(|_| name == HeaderName::To && tag_of(value).is_none()) {
                Some(tag) => r.headers.push_parts(name, &[value, ";tag=", tag]),
                None => r.headers.push(name, value),
            }
        }
        r.headers.push(HeaderName::ContentLength, "0");
        r
    }
}

impl Response {
    /// A new response with empty headers and body.
    #[must_use]
    pub fn new(status: StatusCode) -> Self {
        Response {
            status,
            headers: HeaderMap::new(),
            body: Body::empty(),
        }
    }

    /// Builder: add a header.
    #[must_use]
    pub fn header(mut self, name: HeaderName, value: impl AsRef<str>) -> Self {
        self.headers.push(name, value);
        self
    }

    /// Builder: set the body and its Content-Type/Content-Length headers.
    #[must_use]
    pub fn with_body(mut self, content_type: &str, body: Vec<u8>) -> Self {
        describe_body(&mut self.headers, content_type, body.len());
        self.body = Body::Bytes(body);
        self
    }

    /// Builder: attach a structured SDP body without serializing it. The
    /// Content-Length comes from the analytic [`SdpBody::len`]; the text
    /// form exists only if the message is later written to the wire.
    #[must_use]
    pub fn with_sdp(mut self, sdp: SdpBody) -> Self {
        describe_body(&mut self.headers, "application/sdp", sdp.len());
        self.body = Body::Sdp(sdp);
        self
    }

    /// Call-ID header value.
    #[must_use]
    pub fn call_id(&self) -> Option<&str> {
        self.headers.get(&HeaderName::CallId)
    }

    /// The method echoed in the CSeq header — identifies which request this
    /// response answers.
    #[must_use]
    pub fn cseq_method(&self) -> Option<Method> {
        let v = self.headers.get(&HeaderName::CSeq)?;
        Method::from_token(v.split_whitespace().nth(1)?)
    }

    /// CSeq number.
    #[must_use]
    pub fn cseq_number(&self) -> Option<u32> {
        let v = self.headers.get(&HeaderName::CSeq)?;
        v.split_whitespace().next()?.parse().ok()
    }

    /// Top Via branch parameter — the transaction key.
    #[must_use]
    pub fn top_via_branch(&self) -> Option<&str> {
        let via = self.headers.get(&HeaderName::Via)?;
        branch_of(via)
    }

    /// Serialize to the RFC 3261 wire format. Allocates exactly once
    /// (the returned buffer, sized by [`Response::wire_len`]).
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.to_wire_into(&mut out);
        out
    }

    /// Serialize into a caller-supplied buffer (appending), allocating
    /// nothing beyond what the buffer itself must grow.
    pub fn to_wire_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        out.extend_from_slice(SIP_VERSION.as_bytes());
        out.push(b' ');
        let _ =
            core::fmt::Write::write_fmt(&mut ByteWriter(out), format_args!("{}", self.status.0));
        out.push(b' ');
        out.extend_from_slice(self.status.reason_phrase().as_bytes());
        out.extend_from_slice(b"\r\n");
        write_headers_and_body(out, &self.headers, &self.body);
    }

    /// Exact length of [`Response::to_wire`]'s output, computed without
    /// serializing.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        SIP_VERSION.len()
            + 1
            + decimal_len(u32::from(self.status.0))
            + 1
            + self.status.reason_phrase().len()
            + 2
            + headers_and_body_wire_len(&self.headers, &self.body)
    }
}

impl SipMessage {
    /// Serialize either kind to wire bytes.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        match self {
            SipMessage::Request(r) => r.to_wire(),
            SipMessage::Response(r) => r.to_wire(),
        }
    }

    /// Serialize either kind into a caller-supplied buffer (appending).
    pub fn to_wire_into(&self, out: &mut Vec<u8>) {
        match self {
            SipMessage::Request(r) => r.to_wire_into(out),
            SipMessage::Response(r) => r.to_wire_into(out),
        }
    }

    /// Exact serialized length of either kind, without serializing.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        match self {
            SipMessage::Request(r) => r.wire_len(),
            SipMessage::Response(r) => r.wire_len(),
        }
    }

    /// Shared header access.
    #[must_use]
    pub fn headers(&self) -> &HeaderMap {
        match self {
            SipMessage::Request(r) => &r.headers,
            SipMessage::Response(r) => &r.headers,
        }
    }

    /// Shared body access.
    #[must_use]
    pub fn body(&self) -> &Body {
        match self {
            SipMessage::Request(r) => &r.body,
            SipMessage::Response(r) => &r.body,
        }
    }

    /// Mutable body access.
    pub fn body_mut(&mut self) -> &mut Body {
        match self {
            SipMessage::Request(r) => &mut r.body,
            SipMessage::Response(r) => &mut r.body,
        }
    }

    /// Call-ID of either kind.
    #[must_use]
    pub fn call_id(&self) -> Option<&str> {
        self.headers().get(&HeaderName::CallId)
    }

    /// The request inside, if any.
    #[must_use]
    pub fn as_request(&self) -> Option<&Request> {
        match self {
            SipMessage::Request(r) => Some(r),
            SipMessage::Response(_) => None,
        }
    }

    /// The response inside, if any.
    #[must_use]
    pub fn as_response(&self) -> Option<&Response> {
        match self {
            SipMessage::Request(_) => None,
            SipMessage::Response(r) => Some(r),
        }
    }
}

impl From<Request> for SipMessage {
    fn from(r: Request) -> Self {
        SipMessage::Request(r)
    }
}

impl From<Response> for SipMessage {
    fn from(r: Response) -> Self {
        SipMessage::Response(r)
    }
}

/// `n` in decimal, on the stack: a number as a header value, or as one
/// part of one, without `core::fmt` and without a `String`.
#[derive(Debug, Clone, Copy)]
pub struct Decimal {
    digits: [u8; 20],
    start: usize,
}

impl Decimal {
    /// Render `n`.
    #[must_use]
    pub fn new(mut n: u64) -> Self {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                return Decimal { digits, start };
            }
        }
    }
}

impl core::ops::Deref for Decimal {
    type Target = str;
    fn deref(&self) -> &str {
        core::str::from_utf8(&self.digits[self.start..]).expect("ASCII digits")
    }
}

impl AsRef<str> for Decimal {
    fn as_ref(&self) -> &str {
        self
    }
}

/// Room for what [`Request::with_sdp`] adds to a request's headers:
/// `Content-Type: application/sdp` and a Content-Length of up to five
/// digits. For [`HeaderMap::from_parts`].
pub const SDP_HEADERS_ROOM: (usize, usize) = (2, 20);

/// Content-Type and Content-Length for a body of `len` bytes: pushed
/// straight on when the message has neither yet (a request under
/// construction), replaced where they stand otherwise (a response, whose
/// [`Request::make_response`] wrote `Content-Length: 0`).
fn describe_body(headers: &mut HeaderMap, content_type: &str, len: usize) {
    let len = Decimal::new(len as u64);
    if headers.contains(&HeaderName::ContentType) || headers.contains(&HeaderName::ContentLength) {
        headers.set(HeaderName::ContentType, content_type);
        headers.set(HeaderName::ContentLength, len);
    } else {
        headers.push(HeaderName::ContentType, content_type);
        headers.push(HeaderName::ContentLength, len);
    }
}

/// Extract the `branch=` parameter from a Via header value.
#[must_use]
pub fn branch_of(via_value: &str) -> Option<&str> {
    for part in via_value.split(';').skip(1) {
        if let Some(v) = part.trim().strip_prefix("branch=") {
            return Some(v);
        }
    }
    None
}

/// Write a Via header value for this protocol hop into a caller-supplied
/// buffer — the zero-allocation core every Via formatter shares. Reuse
/// one cleared `String` across calls and retransmissions pay nothing.
fn write_via(out: &mut impl core::fmt::Write, host: &str, port: u16, branch: &str) {
    let _ = write!(out, "SIP/2.0/UDP {host}:{port};branch={branch}");
}

/// Like `write_via` but with the branch supplied as preformatted
/// arguments, so callers composing a branch from parts (`z9hG4bKpbx{n}`)
/// skip the intermediate `String` entirely.
pub fn write_via_args(
    out: &mut impl core::fmt::Write,
    host: &str,
    port: u16,
    branch: core::fmt::Arguments<'_>,
) {
    let _ = write!(out, "SIP/2.0/UDP {host}:{port};branch={branch}");
}

/// Format a Via header value for this protocol hop. Convenience wrapper
/// over `write_via` for cold paths; hot paths should write into a
/// reused buffer instead.
#[must_use]
pub fn format_via(host: &str, port: u16, branch: &str) -> String {
    let mut s = String::with_capacity("SIP/2.0/UDP ".len() + host.len() + branch.len() + 16);
    write_via(&mut s, host, port, branch);
    s
}

/// Adapter so `fmt::Display` values (URIs, integers) can be written
/// straight into a wire byte buffer without an intermediate `String`.
struct ByteWriter<'a>(&'a mut Vec<u8>);

impl core::fmt::Write for ByteWriter<'_> {
    fn write_str(&mut self, s: &str) -> core::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Decimal digit count of `n` (for exact wire-length computation).
pub(crate) fn decimal_len(n: u32) -> usize {
    match n {
        0..=9 => 1,
        10..=99 => 2,
        100..=999 => 3,
        1_000..=9_999 => 4,
        10_000..=99_999 => 5,
        100_000..=999_999 => 6,
        1_000_000..=9_999_999 => 7,
        10_000_000..=99_999_999 => 8,
        100_000_000..=999_999_999 => 9,
        _ => 10,
    }
}

/// Serialized length of the header block, blank line and body.
fn headers_and_body_wire_len(headers: &HeaderMap, body: &Body) -> usize {
    headers.wire_len() + 2 + body.len()
}

fn write_headers_and_body(out: &mut Vec<u8>, headers: &HeaderMap, body: &Body) {
    for (name, value) in headers.iter() {
        out.extend_from_slice(name.as_str().as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    body.write_into(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invite() -> Request {
        Request::new(Method::Invite, SipUri::parse("sip:bob@pbx").unwrap())
            .header(HeaderName::Via, format_via("10.0.0.2", 5060, "z9hG4bKabc"))
            .header(HeaderName::From, "<sip:alice@pbx>;tag=a1")
            .header(HeaderName::To, "<sip:bob@pbx>")
            .header(HeaderName::CallId, "cid-1@10.0.0.2")
            .header(HeaderName::CSeq, "1 INVITE")
            .header(HeaderName::MaxForwards, "70")
    }

    #[test]
    fn request_wire_format() {
        let w = invite().to_wire();
        let text = String::from_utf8(w).unwrap();
        assert!(text.starts_with("INVITE sip:bob@pbx SIP/2.0\r\n"));
        assert!(text.contains("Call-ID: cid-1@10.0.0.2\r\n"));
        assert!(
            text.ends_with("\r\n\r\n"),
            "empty body ends with blank line"
        );
    }

    #[test]
    fn response_wire_format() {
        let r = Response::new(StatusCode::RINGING).header(HeaderName::CSeq, "1 INVITE");
        let text = String::from_utf8(r.to_wire()).unwrap();
        assert!(text.starts_with("SIP/2.0 180 Ringing\r\n"));
    }

    #[test]
    fn body_sets_length_and_type() {
        let r = invite().with_body("application/sdp", b"v=0\r\n".to_vec());
        assert_eq!(r.headers.get(&HeaderName::ContentLength), Some("5"));
        assert_eq!(
            r.headers.get(&HeaderName::ContentType),
            Some("application/sdp")
        );
        let wire = r.to_wire();
        assert!(wire.ends_with(b"\r\n\r\nv=0\r\n"));
    }

    #[test]
    fn make_response_copies_mandatory_headers() {
        let req = invite();
        let resp = req.make_response(StatusCode::OK);
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.headers.get(&HeaderName::CallId), req.call_id());
        assert_eq!(resp.headers.get(&HeaderName::CSeq), Some("1 INVITE"));
        assert_eq!(
            resp.headers.get(&HeaderName::From),
            Some("<sip:alice@pbx>;tag=a1")
        );
        assert_eq!(resp.top_via_branch(), Some("z9hG4bKabc"));
        assert_eq!(resp.headers.get(&HeaderName::ContentLength), Some("0"));
    }

    #[test]
    fn tagged_response_adds_a_to_tag_only_when_there_is_none() {
        let resp = invite().make_response_tagged(StatusCode::RINGING, "uas7");
        let to = resp.headers.get(&HeaderName::To);
        assert_eq!(to, Some("<sip:bob@pbx>;tag=uas7"));
        // Mid-dialog: the To already names the dialog; it is echoed as is.
        let mut reinvite = invite();
        reinvite.headers.set(HeaderName::To, "<sip:bob@pbx>;tag=d1");
        let resp = reinvite.make_response_tagged(StatusCode::OK, "uas8");
        let to = resp.headers.get(&HeaderName::To);
        assert_eq!(to, Some("<sip:bob@pbx>;tag=d1"));
        assert_eq!(
            resp.headers.len(),
            6,
            "Via, From, To, Call-ID, CSeq, length"
        );
    }

    #[test]
    fn decimal_renders_like_display() {
        for n in [0, 7, 10, 132, 65_535, 1_000_000, u64::MAX] {
            assert_eq!(&*Decimal::new(n), n.to_string());
        }
    }

    #[test]
    fn make_response_copies_whole_via_stack() {
        let mut req = invite();
        req.headers
            .push_front(HeaderName::Via, format_via("proxy", 5060, "z9hG4bKproxy"));
        let resp = req.make_response(StatusCode::TRYING);
        let vias: Vec<_> = resp.headers.get_all(&HeaderName::Via).collect();
        assert_eq!(vias.len(), 2);
        assert!(vias[0].contains("proxy"));
    }

    #[test]
    fn cseq_accessors() {
        let req = invite();
        assert_eq!(req.cseq_number(), Some(1));
        let resp = req.make_response(StatusCode::OK);
        assert_eq!(resp.cseq_method(), Some(Method::Invite));
        assert_eq!(resp.cseq_number(), Some(1));
        let empty = Response::new(StatusCode::OK);
        assert_eq!(empty.cseq_method(), None);
        assert_eq!(empty.cseq_number(), None);
    }

    #[test]
    fn branch_extraction() {
        assert_eq!(
            branch_of("SIP/2.0/UDP h:5060;branch=z9hG4bK77;rport"),
            Some("z9hG4bK77")
        );
        assert_eq!(branch_of("SIP/2.0/UDP h:5060"), None);
    }

    #[test]
    fn sip_message_accessors() {
        let m: SipMessage = invite().into();
        assert!(m.as_request().is_some());
        assert!(m.as_response().is_none());
        assert_eq!(m.call_id(), Some("cid-1@10.0.0.2"));
        let mut r = Response::new(StatusCode::OK);
        r.headers.push(HeaderName::CallId, "x@y");
        let m2: SipMessage = r.into();
        assert_eq!(m2.call_id(), Some("x@y"));
        assert!(m2.as_response().is_some());
        assert_eq!(m.to_wire(), m.as_request().unwrap().to_wire());
    }
}
