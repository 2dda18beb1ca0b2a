//! Wire-format parser: bytes → [`SipMessage`].
//!
//! Accepts the RFC 3261 text format as produced by
//! [`crate::message::Request::to_wire`] / [`crate::message::Response::to_wire`],
//! plus the usual leniencies found in real traffic: LF-only line endings,
//! whitespace around the header colon, and compact header names.

use crate::headers::{HeaderMap, HeaderName};
use crate::message::{Body, Request, Response, SipMessage, SIP_VERSION};
use crate::method::Method;
use crate::status::StatusCode;
use crate::uri::SipUri;
use core::fmt;

/// Why a byte buffer failed to parse as a SIP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer is empty or all-whitespace.
    Empty,
    /// The start line is not valid UTF-8 or has the wrong shape.
    MalformedStartLine,
    /// Unknown request method token.
    UnknownMethod(String),
    /// The Request-URI failed to parse.
    BadUri,
    /// The status code is not a number in 100..=699.
    BadStatusCode,
    /// A header line has no colon.
    MalformedHeader(String),
    /// Headers are not valid UTF-8.
    NotUtf8,
    /// The Content-Length header disagrees with the actual body length.
    BodyLengthMismatch {
        /// Declared Content-Length.
        declared: usize,
        /// Bytes actually present after the blank line.
        actual: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty message"),
            ParseError::MalformedStartLine => write!(f, "malformed start line"),
            ParseError::UnknownMethod(m) => write!(f, "unknown method {m:?}"),
            ParseError::BadUri => write!(f, "malformed request-URI"),
            ParseError::BadStatusCode => write!(f, "malformed status code"),
            ParseError::MalformedHeader(h) => write!(f, "malformed header line {h:?}"),
            ParseError::NotUtf8 => write!(f, "message head is not UTF-8"),
            ParseError::BodyLengthMismatch { declared, actual } => {
                write!(f, "Content-Length {declared} but body has {actual} bytes")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse one SIP message from a byte buffer.
///
/// The buffer must contain exactly one message (datagram framing, as over
/// UDP — the transport used throughout the evaluation).
pub fn parse_message(buf: &[u8]) -> Result<SipMessage, ParseError> {
    // Locate the blank line separating head from body. Accept CRLF or LF.
    let (head_end, body_start) = find_blank_line(buf).ok_or(ParseError::Empty)?;
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| ParseError::NotUtf8)?;
    let body = &buf[body_start..];

    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let start = loop {
        match lines.next() {
            Some(l) if l.trim().is_empty() => continue, // tolerate leading blank lines
            Some(l) => break l,
            None => return Err(ParseError::Empty),
        }
    };

    let mut headers = HeaderMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::MalformedHeader(line.to_owned()))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(ParseError::MalformedHeader(line.to_owned()));
        }
        headers.push(HeaderName::from_wire(name), value.trim());
    }

    // Validate declared body length when present.
    if let Some(cl) = headers.get(&HeaderName::ContentLength) {
        if let Ok(declared) = cl.parse::<usize>() {
            if declared != body.len() {
                return Err(ParseError::BodyLengthMismatch {
                    declared,
                    actual: body.len(),
                });
            }
        }
    }

    if let Some(rest) = start.strip_prefix(SIP_VERSION) {
        // Response: "SIP/2.0 200 OK"
        let rest = rest.trim_start();
        let code_txt = rest
            .split_whitespace()
            .next()
            .ok_or(ParseError::MalformedStartLine)?;
        let code: u16 = code_txt.parse().map_err(|_| ParseError::BadStatusCode)?;
        if !(100..700).contains(&code) {
            return Err(ParseError::BadStatusCode);
        }
        Ok(SipMessage::Response(Response {
            status: StatusCode(code),
            headers,
            body: Body::Bytes(body.to_vec()),
        }))
    } else {
        // Request: "INVITE sip:x SIP/2.0"
        let mut parts = start.split_whitespace();
        let method_txt = parts.next().ok_or(ParseError::MalformedStartLine)?;
        let uri_txt = parts.next().ok_or(ParseError::MalformedStartLine)?;
        let version = parts.next().ok_or(ParseError::MalformedStartLine)?;
        if version != SIP_VERSION || parts.next().is_some() {
            return Err(ParseError::MalformedStartLine);
        }
        let method = Method::from_token(method_txt)
            .ok_or_else(|| ParseError::UnknownMethod(method_txt.to_owned()))?;
        let uri = SipUri::parse(uri_txt).ok_or(ParseError::BadUri)?;
        Ok(SipMessage::Request(Request {
            method,
            uri,
            headers,
            body: Body::Bytes(body.to_vec()),
        }))
    }
}

/// Find the head/body split: returns (head_end, body_start). Shared with
/// the lazy [`crate::wire::WireMessage`] view so both framings agree.
pub(crate) fn find_blank_line(buf: &[u8]) -> Option<(usize, usize)> {
    if buf.is_empty() {
        return None;
    }
    let mut i = 0;
    while i < buf.len() {
        if buf[i..].starts_with(b"\r\n\r\n") {
            return Some((i, i + 4));
        }
        if buf[i..].starts_with(b"\n\n") {
            return Some((i, i + 2));
        }
        i += 1;
    }
    // No blank line: the whole buffer is the head, no body.
    Some((buf.len(), buf.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::format_via;

    fn sample_invite_wire() -> Vec<u8> {
        Request::new(Method::Invite, SipUri::parse("sip:bob@pbx:5060").unwrap())
            .header(HeaderName::Via, format_via("10.0.0.2", 5060, "z9hG4bK1"))
            .header(HeaderName::From, "<sip:alice@pbx>;tag=a")
            .header(HeaderName::To, "<sip:bob@pbx>")
            .header(HeaderName::CallId, "cid@host")
            .header(HeaderName::CSeq, "1 INVITE")
            .with_body(
                "application/sdp",
                b"v=0\r\no=- 0 0 IN IP4 10.0.0.2\r\n".to_vec(),
            )
            .to_wire()
    }

    #[test]
    fn round_trip_request() {
        let wire = sample_invite_wire();
        let msg = parse_message(&wire).unwrap();
        let req = msg.as_request().unwrap();
        assert_eq!(req.method, Method::Invite);
        assert_eq!(req.uri.to_string(), "sip:bob@pbx:5060");
        assert_eq!(req.call_id(), Some("cid@host"));
        assert_eq!(
            req.body.as_bytes(),
            Some(b"v=0\r\no=- 0 0 IN IP4 10.0.0.2\r\n".as_slice())
        );
        // Serialize again: byte-identical.
        assert_eq!(req.to_wire(), wire);
    }

    #[test]
    fn round_trip_response() {
        let wire = Response::new(StatusCode::RINGING)
            .header(HeaderName::Via, format_via("h", 5060, "z9hG4bK1"))
            .header(HeaderName::CSeq, "1 INVITE")
            .header(HeaderName::ContentLength, "0")
            .to_wire();
        let msg = parse_message(&wire).unwrap();
        let resp = msg.as_response().unwrap();
        assert_eq!(resp.status, StatusCode::RINGING);
        assert_eq!(resp.cseq_method(), Some(Method::Invite));
        assert_eq!(resp.to_wire(), wire);
    }

    #[test]
    fn accepts_lf_only_and_sloppy_whitespace() {
        let text =
            "INVITE sip:bob@pbx SIP/2.0\nVia : SIP/2.0/UDP h;branch=z9hG4bKx\nCall-ID:  abc \n\n";
        let msg = parse_message(text.as_bytes()).unwrap();
        let req = msg.as_request().unwrap();
        assert_eq!(req.call_id(), Some("abc"));
        assert_eq!(req.top_via_branch(), Some("z9hG4bKx"));
    }

    #[test]
    fn accepts_compact_header_names() {
        let text = "BYE sip:bob@pbx SIP/2.0\r\ni: xyz\r\nf: <sip:a@h>;tag=1\r\n\r\n";
        let req_msg = parse_message(text.as_bytes()).unwrap();
        let req = req_msg.as_request().unwrap();
        assert_eq!(req.call_id(), Some("xyz"));
        assert_eq!(req.headers.get(&HeaderName::From), Some("<sip:a@h>;tag=1"));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(parse_message(b""), Err(ParseError::Empty));
        assert!(matches!(
            parse_message(b"SUBSCRIBE sip:x@h SIP/2.0\r\n\r\n"),
            Err(ParseError::UnknownMethod(_))
        ));
        assert_eq!(
            parse_message(b"INVITE nota-uri SIP/2.0\r\n\r\n"),
            Err(ParseError::BadUri)
        );
        assert_eq!(
            parse_message(b"INVITE sip:x@h\r\n\r\n"),
            Err(ParseError::MalformedStartLine)
        );
        assert_eq!(
            parse_message(b"SIP/2.0 9x9 Nope\r\n\r\n"),
            Err(ParseError::BadStatusCode)
        );
        assert_eq!(
            parse_message(b"SIP/2.0 999 Nope\r\n\r\n"),
            Err(ParseError::BadStatusCode)
        );
        assert!(matches!(
            parse_message(b"INVITE sip:x@h SIP/2.0\r\nBroken header line\r\n\r\n"),
            Err(ParseError::MalformedHeader(_))
        ));
    }

    #[test]
    fn body_length_mismatch_detected() {
        let mut wire = sample_invite_wire();
        wire.pop(); // truncate one body byte
        assert!(matches!(
            parse_message(&wire),
            Err(ParseError::BodyLengthMismatch { .. })
        ));
    }

    #[test]
    fn message_without_blank_line_has_no_body() {
        let msg = parse_message(b"OPTIONS sip:h SIP/2.0\r\nCSeq: 7 OPTIONS").unwrap();
        let req = msg.as_request().unwrap();
        assert_eq!(req.method, Method::Options);
        assert!(req.body.is_empty());
        assert_eq!(req.cseq_number(), Some(7));
    }

    #[test]
    fn error_display() {
        let e = ParseError::BodyLengthMismatch {
            declared: 10,
            actual: 3,
        };
        assert!(e.to_string().contains("10"));
        assert!(ParseError::Empty.to_string().contains("empty"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::message::format_via;
    use proptest::prelude::*;

    fn method_strategy() -> impl Strategy<Value = Method> {
        proptest::sample::select(Method::ALL.to_vec())
    }

    proptest! {
        /// parse ∘ to_wire = id for arbitrary structured requests.
        #[test]
        fn request_round_trip(
            method in method_strategy(),
            user in "[a-z]{1,8}",
            host in "[a-z]{1,8}",
            cseq in 1u32..9999,
            body in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let req = Request::new(method, SipUri::new(&user, &host))
                .header(HeaderName::Via, format_via(&host, 5060, "z9hG4bKpt"))
                .header(HeaderName::CallId, format!("{user}@{host}"))
                .header(HeaderName::CSeq, format!("{cseq} {method}"))
                .with_body("application/octet-stream", body);
            let wire = req.to_wire();
            let back = parse_message(&wire).unwrap();
            prop_assert_eq!(back.as_request().unwrap(), &req);
        }

        /// parse ∘ to_wire = id for arbitrary structured responses.
        #[test]
        fn response_round_trip(
            code in 100u16..700,
            cseq in 1u32..9999,
            body in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let resp = Response::new(StatusCode(code))
                .header(HeaderName::Via, format_via("h", 5060, "z9hG4bKpt"))
                .header(HeaderName::CSeq, format!("{cseq} INVITE"))
                .with_body("application/octet-stream", body);
            let wire = resp.to_wire();
            let back = parse_message(&wire).unwrap();
            prop_assert_eq!(back.as_response().unwrap(), &resp);
        }

        /// The parser never panics on arbitrary bytes.
        #[test]
        fn parser_total_on_garbage(buf in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = parse_message(&buf);
        }
    }

    /// Header names a generated set may draw from. Content-Type and
    /// Content-Length are managed by `with_body`, so they stay out of the
    /// pool; values are generated over a trim-stable charset so the
    /// parser's whitespace normalization is the identity on them.
    fn header_pool() -> Vec<HeaderName> {
        vec![
            HeaderName::Via,
            HeaderName::From,
            HeaderName::To,
            HeaderName::Contact,
            HeaderName::MaxForwards,
            HeaderName::Expires,
            HeaderName::UserAgent,
            HeaderName::Allow,
            HeaderName::Authorization,
            HeaderName::WwwAuthenticate,
            HeaderName::RetryAfter,
            HeaderName::Other("X-Custom".to_owned()),
            HeaderName::Other("X-Trace-Id".to_owned()),
        ]
    }

    fn generated_headers(
    ) -> proptest::collection::VecStrategy<(proptest::sample::Select<HeaderName>, &'static str)>
    {
        proptest::collection::vec(
            (
                proptest::sample::select(header_pool()),
                "[a-zA-Z0-9<>@:;=./-]{1,24}",
            ),
            0..10,
        )
    }

    proptest! {
        /// parse ∘ to_wire = id over *generated* header sets (repeats,
        /// arbitrary order, extension headers), and the analytic
        /// `wire_len` matches the serialized length exactly.
        #[test]
        fn generated_request_round_trip(
            method in method_strategy(),
            user in "[a-z]{1,8}",
            host in "[a-z]{1,8}",
            headers in generated_headers(),
            body in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut req = Request::new(method, SipUri::new(&user, &host))
                .header(HeaderName::Via, format_via(&host, 5060, "z9hG4bKgen"))
                .header(HeaderName::CallId, format!("{user}@{host}"))
                .header(HeaderName::CSeq, format!("1 {method}"));
            for (name, value) in &headers {
                req.headers.push(name.clone(), value.clone());
            }
            let req = req.with_body("application/octet-stream", body);
            let wire = req.to_wire();
            prop_assert_eq!(wire.len(), req.wire_len(), "analytic wire_len is exact");
            let back = parse_message(&wire).unwrap();
            prop_assert_eq!(back.as_request().unwrap(), &req);
        }

        /// Same for responses.
        #[test]
        fn generated_response_round_trip(
            code in 100u16..700,
            headers in generated_headers(),
            body in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut resp = Response::new(StatusCode(code))
                .header(HeaderName::Via, format_via("h", 5060, "z9hG4bKgen"))
                .header(HeaderName::CSeq, "1 INVITE");
            for (name, value) in &headers {
                resp.headers.push(name.clone(), value.clone());
            }
            let resp = resp.with_body("application/octet-stream", body);
            let wire = resp.to_wire();
            prop_assert_eq!(wire.len(), resp.wire_len(), "analytic wire_len is exact");
            let back = parse_message(&wire).unwrap();
            prop_assert_eq!(back.as_response().unwrap(), &resp);
        }

        /// The lazy wire view answers every field exactly as the eager
        /// parser does on the same bytes.
        #[test]
        fn wire_view_agrees_with_eager_parser(
            method in method_strategy(),
            user in "[a-z]{1,8}",
            host in "[a-z]{1,8}",
            from_tag in "[a-z0-9]{1,6}",
            headers in generated_headers(),
            body in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut req = Request::new(method, SipUri::new(&user, &host))
                .header(HeaderName::Via, format_via(&host, 5060, "z9hG4bKview"))
                .header(HeaderName::From, format!("<sip:{user}@{host}>;tag={from_tag}"))
                .header(HeaderName::To, format!("<sip:peer@{host}>"))
                .header(HeaderName::CallId, format!("{user}@{host}"))
                .header(HeaderName::CSeq, format!("7 {method}"));
            for (name, value) in &headers {
                req.headers.push(name.clone(), value.clone());
            }
            let req = req.with_body("application/octet-stream", body);
            let wire = req.to_wire();

            let msg = parse_message(&wire).unwrap();
            let parsed = msg.as_request().unwrap();
            let view = crate::wire::WireMessage::parse(&wire).unwrap();

            prop_assert!(view.is_request());
            prop_assert_eq!(view.method_token(), Some(parsed.method.as_str()));
            prop_assert_eq!(view.uri_str().map(str::to_owned),
                            Some(parsed.uri.to_string()));
            prop_assert_eq!(view.call_id(), parsed.call_id());
            prop_assert_eq!(view.top_via_branch(), parsed.top_via_branch());
            prop_assert_eq!(view.cseq().map(|(n, _)| n), parsed.cseq_number());
            prop_assert_eq!(
                view.from_tag(),
                parsed.headers.get(&HeaderName::From).and_then(crate::headers::tag_of)
            );
            prop_assert_eq!(
                view.to_tag(),
                parsed.headers.get(&HeaderName::To).and_then(crate::headers::tag_of)
            );
            prop_assert_eq!(Some(view.body()), parsed.body.as_bytes());
            // Every pooled name: first-value agreement (including absent).
            for name in header_pool() {
                prop_assert_eq!(view.header(&name), parsed.headers.get(&name));
            }
        }
    }
}
