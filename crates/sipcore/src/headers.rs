//! SIP headers: typed names plus an order-preserving multimap.
//!
//! SIP allows repeated headers (Via stacks, Route sets) and header order is
//! semantically meaningful for them, so the map preserves insertion order
//! and supports multiple values per name. Lookup is linear — SIP messages
//! carry a dozen headers, where a hash map would cost more than it saves
//! (see the workspace's performance notes on small-collection handling).

/// A header field name: well-known names are interned as variants so that
/// comparisons are integer-cheap on the hot path; anything else is carried
/// verbatim in `Other`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HeaderName {
    /// `Via` — the response routing stack.
    Via,
    /// `From` — logical caller identity (with `tag`).
    From,
    /// `To` — logical callee identity (with `tag` once a dialog exists).
    To,
    /// `Call-ID` — dialog correlation identifier.
    CallId,
    /// `CSeq` — command sequence number + method.
    CSeq,
    /// `Contact` — where to reach the sender directly.
    Contact,
    /// `Max-Forwards` — hop limit.
    MaxForwards,
    /// `Content-Type` — body MIME type.
    ContentType,
    /// `Content-Length` — body length in bytes.
    ContentLength,
    /// `Expires` — registration lifetime.
    Expires,
    /// `User-Agent` — software identification.
    UserAgent,
    /// `Allow` — supported methods.
    Allow,
    /// `Authorization` — credentials.
    Authorization,
    /// `WWW-Authenticate` — challenge.
    WwwAuthenticate,
    /// `Retry-After` — seconds to wait before retrying (RFC 3261 §20.33),
    /// carried on 503 responses by overload-shedding servers.
    RetryAfter,
    /// `X-Overload-Control` — ad-hoc overload feedback from a downstream
    /// server to its upstream (`rate=<cps>` or `win=<calls>`), attached to
    /// 100 Trying and 503 responses by feedback-driven control laws.
    OverloadControl,
    /// Any other header, with its original name.
    Other(String),
}

impl HeaderName {
    /// Canonical wire name.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match self {
            HeaderName::Via => "Via",
            HeaderName::From => "From",
            HeaderName::To => "To",
            HeaderName::CallId => "Call-ID",
            HeaderName::CSeq => "CSeq",
            HeaderName::Contact => "Contact",
            HeaderName::MaxForwards => "Max-Forwards",
            HeaderName::ContentType => "Content-Type",
            HeaderName::ContentLength => "Content-Length",
            HeaderName::Expires => "Expires",
            HeaderName::UserAgent => "User-Agent",
            HeaderName::Allow => "Allow",
            HeaderName::Authorization => "Authorization",
            HeaderName::WwwAuthenticate => "WWW-Authenticate",
            HeaderName::RetryAfter => "Retry-After",
            HeaderName::OverloadControl => "X-Overload-Control",
            HeaderName::Other(s) => s,
        }
    }

    /// True when `token` names this header on the wire: canonical or
    /// compact form, case-insensitive per RFC 3261 §7.3.1. Unlike
    /// [`HeaderName::from_wire`] this never allocates, which is what the
    /// lazy [`crate::wire::WireMessage`] view needs on the hot path.
    #[must_use]
    pub fn matches_wire(&self, token: &str) -> bool {
        let eq = |s: &str| token.eq_ignore_ascii_case(s);
        match self {
            HeaderName::Via => eq("via") || eq("v"),
            HeaderName::From => eq("from") || eq("f"),
            HeaderName::To => eq("to") || eq("t"),
            HeaderName::CallId => eq("call-id") || eq("i"),
            HeaderName::CSeq => eq("cseq"),
            HeaderName::Contact => eq("contact") || eq("m"),
            HeaderName::MaxForwards => eq("max-forwards"),
            HeaderName::ContentType => eq("content-type") || eq("c"),
            HeaderName::ContentLength => eq("content-length") || eq("l"),
            HeaderName::Expires => eq("expires"),
            HeaderName::UserAgent => eq("user-agent"),
            HeaderName::Allow => eq("allow"),
            HeaderName::Authorization => eq("authorization"),
            HeaderName::WwwAuthenticate => eq("www-authenticate"),
            HeaderName::RetryAfter => eq("retry-after"),
            HeaderName::OverloadControl => eq("x-overload-control"),
            HeaderName::Other(s) => eq(s),
        }
    }

    /// Parse a header name (case-insensitive per RFC 3261 §7.3.1).
    #[must_use]
    pub fn from_wire(s: &str) -> HeaderName {
        match s.to_ascii_lowercase().as_str() {
            "via" | "v" => HeaderName::Via,
            "from" | "f" => HeaderName::From,
            "to" | "t" => HeaderName::To,
            "call-id" | "i" => HeaderName::CallId,
            "cseq" => HeaderName::CSeq,
            "contact" | "m" => HeaderName::Contact,
            "max-forwards" => HeaderName::MaxForwards,
            "content-type" | "c" => HeaderName::ContentType,
            "content-length" | "l" => HeaderName::ContentLength,
            "expires" => HeaderName::Expires,
            "user-agent" => HeaderName::UserAgent,
            "allow" => HeaderName::Allow,
            "authorization" => HeaderName::Authorization,
            "www-authenticate" => HeaderName::WwwAuthenticate,
            "retry-after" => HeaderName::RetryAfter,
            "x-overload-control" => HeaderName::OverloadControl,
            _ => HeaderName::Other(s.to_owned()),
        }
    }
}

impl core::fmt::Display for HeaderName {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// First reservation of a map its builder did not size: room for any
/// message of the call ladder (an INVITE is nine headers and ≈ 180 value
/// bytes; a 401 with its challenge ≈ 200), so a message assembled header
/// by header — every response, and anything built with
/// [`crate::Request::header`] — allocates twice, not once per header.
/// Requests that outlive their transaction are built exact-size by
/// [`HeaderMap::from_parts`] instead.
const FIRST_HEADERS: usize = 10;
const FIRST_VALUE_BYTES: usize = 256;

/// An insertion-ordered multimap of headers.
///
/// All values live back to back in one text arena and each header is a
/// `(name, start, end)` span into it, so a message costs two allocations
/// however many headers it carries, a copy is two `memcpy`s, and a builder
/// can write a value in place ([`HeaderMap::push_with`]) instead of
/// formatting a `String` and moving it in.
#[derive(Clone, Default)]
pub struct HeaderMap {
    /// Value text in the order it was written. Replacing or removing a
    /// header leaves its old bytes behind, dead — only `entries` says what
    /// is live, so nothing may read `buf` as a whole.
    buf: String,
    /// `(name, start, end)` of each header's value in `buf`, in header
    /// order.
    entries: Vec<(HeaderName, u32, u32)>,
}

impl HeaderMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        HeaderMap::default()
    }

    /// A map of `headers`, each value the concatenation of its parts, in
    /// an arena sized exactly for them plus `room`: the `(headers, value
    /// bytes)` the caller is about to add (a body's Content-Type and
    /// Content-Length, say). This is how the engines build a request — a
    /// table of headers, every value written once, nothing formatted.
    #[must_use]
    pub fn from_parts<const N: usize>(
        headers: [(HeaderName, &[&str]); N],
        room: (usize, usize),
    ) -> Self {
        let text = headers.iter().flat_map(|(_, parts)| parts.iter());
        let bytes: usize = text.map(|part| part.len()).sum();
        let mut map = HeaderMap {
            buf: String::with_capacity(bytes + room.1),
            entries: Vec::with_capacity(N + room.0),
        };
        for (name, parts) in headers {
            map.push_parts(name, parts);
        }
        map
    }

    fn value(&self, &(_, start, end): &(HeaderName, u32, u32)) -> &str {
        &self.buf[start as usize..end as usize]
    }

    /// Let `write` append one value's text to the arena; returns its span.
    fn write_value(&mut self, write: impl FnOnce(&mut String)) -> (u32, u32) {
        if self.entries.capacity() == 0 {
            self.entries.reserve(FIRST_HEADERS);
        }
        if self.buf.capacity() == 0 {
            self.buf.reserve(FIRST_VALUE_BYTES);
        }
        let start = self.buf.len();
        write(&mut self.buf);
        // Every earlier span ends at or before `start`: holding this keeps
        // them all in bounds whatever `write` did.
        assert!(self.buf.len() >= start, "a value writer may only append");
        let offset = |n: usize| u32::try_from(n).expect("header arena under 4 GiB");
        (offset(start), offset(self.buf.len()))
    }

    /// Append a header (keeps existing occurrences).
    pub fn push(&mut self, name: HeaderName, value: impl AsRef<str>) {
        self.push_with(name, |buf| buf.push_str(value.as_ref()));
    }

    /// Append a header whose value `write` appends to the arena it is
    /// handed — the value is written once, where it will live. `write`
    /// must only append.
    pub fn push_with(&mut self, name: HeaderName, write: impl FnOnce(&mut String)) {
        let (start, end) = self.write_value(write);
        self.entries.push((name, start, end));
    }

    /// Append a header whose value is the concatenation of `parts`.
    pub fn push_parts(&mut self, name: HeaderName, parts: &[&str]) {
        self.push_with(name, |buf| parts.iter().for_each(|part| buf.push_str(part)));
    }

    /// Replace all occurrences of `name` with a single value (appends if
    /// absent).
    pub fn set(&mut self, name: HeaderName, value: impl AsRef<str>) {
        self.set_with(name, |buf| buf.push_str(value.as_ref()));
    }

    /// [`HeaderMap::set`] with the value written in place, as in
    /// [`HeaderMap::push_with`].
    fn set_with(&mut self, name: HeaderName, write: impl FnOnce(&mut String)) {
        let (start, end) = self.write_value(write);
        let mut kept = false;
        self.entries.retain_mut(|entry| {
            if entry.0 != name {
                return true;
            }
            if kept {
                return false;
            }
            kept = true;
            (entry.1, entry.2) = (start, end);
            true
        });
        if !kept {
            self.entries.push((name, start, end));
        }
    }

    /// First value for `name`.
    #[must_use]
    pub fn get(&self, name: &HeaderName) -> Option<&str> {
        self.entries
            .iter()
            .find(|entry| entry.0 == *name)
            .map(|entry| self.value(entry))
    }

    /// All values for `name`, in order.
    pub fn get_all<'a>(&'a self, name: &'a HeaderName) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .filter(move |entry| entry.0 == *name)
            .map(|entry| self.value(entry))
    }

    /// Remove the **first** occurrence of `name`, returning its value.
    /// (Used to pop the top Via when routing a response.)
    pub fn remove_first(&mut self, name: &HeaderName) -> Option<String> {
        let idx = self.entries.iter().position(|entry| entry.0 == *name)?;
        let entry = self.entries.remove(idx);
        Some(self.value(&entry).to_owned())
    }

    /// Insert at the front (used to push a Via when forwarding a request).
    pub fn push_front(&mut self, name: HeaderName, value: impl AsRef<str>) {
        let (start, end) = self.write_value(|buf| buf.push_str(value.as_ref()));
        self.entries.insert(0, (name, start, end));
    }

    /// Number of header fields (counting repeats).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no headers are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate all (name, value) pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&HeaderName, &str)> {
        self.entries
            .iter()
            .map(|entry| (&entry.0, self.value(entry)))
    }

    /// True if any occurrence of `name` exists.
    #[must_use]
    pub fn contains(&self, name: &HeaderName) -> bool {
        self.entries.iter().any(|entry| entry.0 == *name)
    }
}

/// Two maps are equal when they hold the same `(name, value)` sequence;
/// where the text sits in each arena (and what dead bytes surround it) is
/// not part of the value.
impl PartialEq for HeaderMap {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for HeaderMap {}

impl core::fmt::Debug for HeaderMap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Extract a `tag=` parameter from a From/To header value.
///
/// Only header-level parameters count: with a bracketed `<sip:...>` URI,
/// parameters inside the brackets belong to the URI, not the header.
#[must_use]
pub fn tag_of(header_value: &str) -> Option<&str> {
    let param_region = match header_value.rfind('>') {
        Some(idx) => &header_value[idx + 1..],
        None => header_value,
    };
    for part in param_region.split(';').skip(1) {
        if let Some(v) = part.trim().strip_prefix("tag=") {
            return Some(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_round_trip() {
        for name in [
            HeaderName::Via,
            HeaderName::From,
            HeaderName::To,
            HeaderName::CallId,
            HeaderName::CSeq,
            HeaderName::Contact,
            HeaderName::MaxForwards,
            HeaderName::ContentType,
            HeaderName::ContentLength,
            HeaderName::Expires,
            HeaderName::UserAgent,
            HeaderName::Allow,
            HeaderName::Authorization,
            HeaderName::WwwAuthenticate,
            HeaderName::RetryAfter,
            HeaderName::OverloadControl,
        ] {
            assert_eq!(HeaderName::from_wire(name.as_str()), name);
        }
    }

    #[test]
    fn case_insensitive_and_compact_forms() {
        assert_eq!(HeaderName::from_wire("CALL-ID"), HeaderName::CallId);
        assert_eq!(HeaderName::from_wire("i"), HeaderName::CallId);
        assert_eq!(HeaderName::from_wire("v"), HeaderName::Via);
        assert_eq!(HeaderName::from_wire("f"), HeaderName::From);
        assert_eq!(
            HeaderName::from_wire("X-Custom"),
            HeaderName::Other("X-Custom".to_owned())
        );
    }

    #[test]
    fn matches_wire_agrees_with_from_wire() {
        for token in [
            "Via",
            "v",
            "FROM",
            "f",
            "To",
            "t",
            "call-id",
            "I",
            "CSeq",
            "Contact",
            "m",
            "Max-Forwards",
            "content-type",
            "c",
            "Content-Length",
            "l",
            "expires",
            "User-Agent",
            "ALLOW",
            "Authorization",
            "WWW-Authenticate",
            "Retry-After",
            "X-Overload-Control",
            "x-overload-control",
            "X-Custom",
        ] {
            let name = HeaderName::from_wire(token);
            assert!(name.matches_wire(token), "{name:?} should match {token:?}");
        }
        assert!(!HeaderName::Via.matches_wire("from"));
        assert!(!HeaderName::CallId.matches_wire("cseq"));
        assert!(HeaderName::Other("X-Custom".into()).matches_wire("x-custom"));
    }

    #[test]
    fn multimap_preserves_order_and_repeats() {
        let mut h = HeaderMap::new();
        h.push(HeaderName::Via, "SIP/2.0/UDP a;branch=z9hG4bK1");
        h.push(HeaderName::From, "<sip:alice@x>");
        h.push(HeaderName::Via, "SIP/2.0/UDP b;branch=z9hG4bK2");
        assert_eq!(h.len(), 3);
        let vias: Vec<_> = h.get_all(&HeaderName::Via).collect();
        assert_eq!(vias.len(), 2);
        assert!(vias[0].contains(";branch=z9hG4bK1"));
        assert!(vias[1].contains(";branch=z9hG4bK2"));
        assert_eq!(h.get(&HeaderName::Via).unwrap(), vias[0], "get = first");
    }

    #[test]
    fn set_collapses_repeats() {
        let mut h = HeaderMap::new();
        h.push(HeaderName::Via, "one");
        h.push(HeaderName::Via, "two");
        h.set(HeaderName::Via, "only");
        assert_eq!(h.get_all(&HeaderName::Via).count(), 1);
        assert_eq!(h.get(&HeaderName::Via), Some("only"));
        h.set(HeaderName::To, "fresh");
        assert_eq!(h.get(&HeaderName::To), Some("fresh"));
    }

    #[test]
    fn via_stack_discipline() {
        let mut h = HeaderMap::new();
        h.push(HeaderName::Via, "client");
        h.push_front(HeaderName::Via, "proxy");
        assert_eq!(h.get(&HeaderName::Via), Some("proxy"));
        let popped = h.remove_first(&HeaderName::Via).unwrap();
        assert_eq!(popped, "proxy");
        assert_eq!(h.get(&HeaderName::Via), Some("client"));
        assert!(h.remove_first(&HeaderName::Expires).is_none());
    }

    /// The storage `HeaderMap` had before the arena — one `String` per
    /// header, in a `Vec` — kept as the model the arena is checked against.
    #[derive(Debug, Clone, Default)]
    struct Model(Vec<(HeaderName, String)>);

    impl Model {
        fn set(&mut self, name: HeaderName, value: &str) {
            let mut kept = false;
            self.0.retain_mut(|(n, v)| {
                if *n != name {
                    return true;
                }
                if !kept {
                    value.clone_into(v);
                }
                !std::mem::replace(&mut kept, true)
            });
            if !kept {
                self.0.push((name, value.to_owned()));
            }
        }

        fn remove_first(&mut self, name: &HeaderName) -> Option<String> {
            let idx = self.0.iter().position(|(n, _)| n == name)?;
            Some(self.0.remove(idx).1)
        }

        /// What a 200 OK carrying these headers and no body serializes to.
        fn wire(&self) -> Vec<u8> {
            let mut out = String::from("SIP/2.0 200 OK\r\n");
            for (name, value) in &self.0 {
                out += &format!("{name}: {value}\r\n");
            }
            (out + "\r\n").into_bytes()
        }
    }

    fn names() -> Vec<HeaderName> {
        vec![
            HeaderName::Via,
            HeaderName::To,
            HeaderName::ContentLength,
            HeaderName::Other("X-Custom".to_owned()),
            HeaderName::Other("x-custom".to_owned()),
        ]
    }

    /// Every read the map offers answers as the model does.
    fn assert_agrees(map: &HeaderMap, model: &Model) {
        let pairs: Vec<_> = model.0.iter().map(|(n, v)| (n, v.as_str())).collect();
        assert_eq!(map.iter().collect::<Vec<_>>(), pairs);
        assert_eq!(map.len(), model.0.len());
        assert_eq!(map.is_empty(), model.0.is_empty());
        for name in names() {
            let all = model.0.iter().filter(|(n, _)| *n == name);
            let all: Vec<_> = all.map(|(_, v)| v.as_str()).collect();
            assert_eq!(map.get_all(&name).collect::<Vec<_>>(), all);
            assert_eq!(map.get(&name), all.first().copied());
            assert_eq!(map.contains(&name), !all.is_empty());
        }
        // Equality is logical: a map freshly built from the same pairs has
        // another arena layout (no dead bytes) and must still compare equal.
        let mut fresh = HeaderMap::new();
        for (name, value) in &model.0 {
            fresh.push(name.clone(), value);
        }
        assert_eq!(*map, fresh);
        let resp = crate::Response {
            status: crate::StatusCode::OK,
            headers: map.clone(),
            body: crate::Body::empty(),
        };
        assert_eq!(resp.to_wire(), model.wire());
        assert_eq!(resp.wire_len(), model.wire().len());
    }

    proptest::proptest! {
        /// Random edit sequences: after every step the arena answers
        /// exactly as one-`String`-per-header storage would.
        #[test]
        fn arena_matches_vec_of_strings_model(
            ops in proptest::collection::vec((0u8..7, 0usize..5, "[ -~]{0,24}"), 1..60),
        ) {
            let (mut map, mut model) = (HeaderMap::new(), Model::default());
            for (op, name, value) in ops {
                let name = names().swap_remove(name);
                match op {
                    0 | 1 => {
                        map.push(name.clone(), &value);
                        model.0.push((name, value));
                    }
                    2 => {
                        map.set(name.clone(), &value);
                        model.set(name, &value);
                    }
                    3 => {
                        // Written in two pieces, as the in-place builders do.
                        let (head, tail) = value.split_at(value.len() / 2);
                        map.set_with(name.clone(), |buf| {
                            buf.push_str(head);
                            buf.push_str(tail);
                        });
                        model.set(name, &value);
                    }
                    4 => {
                        map.push_front(name.clone(), &value);
                        model.0.insert(0, (name, value));
                    }
                    5 => proptest::prop_assert_eq!(
                        map.remove_first(&name),
                        model.remove_first(&name)
                    ),
                    _ => map = map.clone(),
                }
                assert_agrees(&map, &model);
            }
        }
    }

    #[test]
    fn set_then_clone_compares_equal() {
        let mut h = HeaderMap::new();
        h.push(HeaderName::Via, "one");
        h.push(HeaderName::Other("X-Custom".to_owned()), "né");
        h.push(HeaderName::Via, "two");
        h.set(HeaderName::Via, "only");
        h.set(HeaderName::To, "");
        let model = Model(vec![
            (HeaderName::Via, "only".to_owned()),
            (HeaderName::Other("X-Custom".to_owned()), "né".to_owned()),
            (HeaderName::To, String::new()),
        ]);
        assert_agrees(&h, &model);
        assert_eq!(h.clone(), h);
    }

    #[test]
    fn a_value_larger_than_any_reservation() {
        let big = "x".repeat(70_000);
        let mut h = HeaderMap::new();
        h.push(HeaderName::CallId, "small");
        h.push(HeaderName::Other("X-Big".to_owned()), &big);
        h.push(HeaderName::CSeq, "1 INVITE");
        assert_eq!(h.get(&HeaderName::Other("X-Big".to_owned())), Some(&*big));
        assert_eq!(h.get(&HeaderName::CSeq), Some("1 INVITE"));
        assert_eq!(h.clone(), h);
    }

    #[test]
    fn contains_and_iter() {
        let mut h = HeaderMap::new();
        assert!(h.is_empty());
        h.push(HeaderName::CallId, "abc@host");
        assert!(h.contains(&HeaderName::CallId));
        assert!(!h.contains(&HeaderName::CSeq));
        let all: Vec<_> = h.iter().collect();
        assert_eq!(all, vec![(&HeaderName::CallId, "abc@host")]);
    }

    #[test]
    fn tag_extraction() {
        assert_eq!(tag_of("<sip:a@x>;tag=77"), Some("77"));
        assert_eq!(tag_of("<sip:a@x>"), None);
        assert_eq!(tag_of("<sip:a@x;tag=inner-uri-not-counted>"), None);
    }
}
