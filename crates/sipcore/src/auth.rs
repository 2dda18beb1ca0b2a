//! SIP digest authentication (RFC 2617 as profiled by RFC 3261 §22).
//!
//! The UnB deployment authenticates SIP users against LDAP; on the wire
//! that is digest authentication: the registrar challenges with a nonce
//! (`401` + `WWW-Authenticate`), the client answers with
//! `MD5(MD5(user:realm:password) : nonce : MD5(method:uri))`. Both sides
//! are implemented here, including the MD5 primitive itself (RFC 1321,
//! implemented from scratch — cryptographically broken since 2004, but
//! mandated by the SIP digest scheme and perfectly adequate for a
//! simulation).

// ---------------------------------------------------------------------------
// MD5 (RFC 1321)
// ---------------------------------------------------------------------------

const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// The RFC 1321 compression function: fold one 64-byte block into `state`.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (w, b) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
    let [mut a, mut b, mut c, mut d] = *state;

    // One step; the caller rotates the roles of a/b/c/d instead of
    // shuffling four registers every step.
    macro_rules! step {
        ($f:expr, $a:ident, $b:ident, $c:ident, $d:ident, $i:expr, $g:expr, $s:expr) => {
            $a = $b.wrapping_add(
                $a.wrapping_add($f($b, $c, $d))
                    .wrapping_add(K[$i])
                    .wrapping_add(m[$g & 15])
                    .rotate_left($s),
            );
        };
    }
    // One 16-step round: four unrolled steps per trip, with the round's
    // mixing function, message schedule `g(i)` and shifts fixed at
    // compile time.
    macro_rules! round {
        ($f:expr, $first:expr, $g:expr, [$s0:expr, $s1:expr, $s2:expr, $s3:expr]) => {
            for i in ($first..$first + 16).step_by(4) {
                step!($f, a, b, c, d, i, $g(i), $s0);
                step!($f, d, a, b, c, i + 1, $g(i + 1), $s1);
                step!($f, c, d, a, b, i + 2, $g(i + 2), $s2);
                step!($f, b, c, d, a, i + 3, $g(i + 3), $s3);
            }
        };
    }
    // RFC 1321's F, G, H, I.
    let ff = |x: u32, y: u32, z: u32| (x & y) | (!x & z);
    let gg = |x: u32, y: u32, z: u32| (z & x) | (!z & y);
    let hh = |x: u32, y: u32, z: u32| x ^ y ^ z;
    let ii = |x: u32, y: u32, z: u32| y ^ (x | !z);
    round!(ff, 0, |i: usize| i, [7, 12, 17, 22]);
    round!(gg, 16, |i: usize| 5 * i + 1, [5, 9, 14, 20]);
    round!(hh, 32, |i: usize| 3 * i + 5, [4, 11, 16, 23]);
    round!(ii, 48, |i: usize| 7 * i, [6, 10, 15, 21]);

    for (s, v) in state.iter_mut().zip([a, b, c, d]) {
        *s = s.wrapping_add(v);
    }
}

/// MD5 of the concatenation of `parts`. Input streams through one
/// 64-byte block on the stack: `user`, `:`, `realm`, … are hashed piece
/// by piece and never joined on the heap.
fn md5_parts(parts: &[&[u8]]) -> [u8; 16] {
    let mut state = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];
    let mut block = [0u8; 64];
    let (mut fill, mut len) = (0usize, 0u64);
    for mut part in parts.iter().copied() {
        len = len.wrapping_add(part.len() as u64);
        while !part.is_empty() {
            let take = part.len().min(64 - fill);
            block[fill..fill + take].copy_from_slice(&part[..take]);
            (fill, part) = (fill + take, &part[take..]);
            if fill == 64 {
                compress(&mut state, &block);
                fill = 0;
            }
        }
    }
    block[fill] = 0x80;
    block[fill + 1..].fill(0);
    if fill >= 56 {
        // No room for the length: it goes into a block of its own.
        compress(&mut state, &block);
        block = [0; 64];
    }
    block[56..].copy_from_slice(&len.wrapping_mul(8).to_le_bytes());
    compress(&mut state, &block);
    let mut out = [0u8; 16];
    for (o, w) in out.chunks_exact_mut(4).zip(state) {
        o.copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// Compute the MD5 digest of a byte string: the probe the RFC 1321
/// vectors and the reference model check `md5_parts` through.
#[cfg(test)]
fn md5(input: &[u8]) -> [u8; 16] {
    md5_parts(&[input])
}

/// An MD5 digest as 32 lower-case hex digits — the form digest auth
/// exchanges and chains (`HA1`, `HA2`, `response`) — held on the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HexDigest([u8; 32]);

impl HexDigest {
    /// MD5 of the concatenation of `parts`, in hex.
    fn of(parts: &[&[u8]]) -> HexDigest {
        let mut hex = [0u8; 32];
        for (pair, byte) in hex.chunks_exact_mut(2).zip(md5_parts(parts)) {
            pair[0] = b"0123456789abcdef"[usize::from(byte >> 4)];
            pair[1] = b"0123456789abcdef"[usize::from(byte & 15)];
        }
        HexDigest(hex)
    }

    /// The 32 hex digits.
    #[must_use]
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("hex digits are ASCII")
    }
}

/// MD5 as a lower-case hex string (the form digest auth exchanges).
#[must_use]
pub fn md5_hex(input: &[u8]) -> String {
    HexDigest::of(&[input]).as_str().to_owned()
}

// ---------------------------------------------------------------------------
// Digest challenge / response
// ---------------------------------------------------------------------------

/// `HA2 = MD5(method:uri)`. It depends on nothing per user, so a registrar
/// and a client engine each compute it once for `REGISTER:sip:<host>`.
#[must_use]
pub fn ha2(method: &str, uri: &str) -> HexDigest {
    HexDigest::of(&[method.as_bytes(), b":", uri.as_bytes()])
}

/// `response = MD5(HA1:nonce:HA2)` with `HA1 = MD5(user:realm:password)`
/// per RFC 2617 (no qop). HA1 lives only on this stack frame.
#[must_use]
pub fn digest_response(
    username: &str,
    realm: &str,
    password: &str,
    nonce: &str,
    ha2: &HexDigest,
) -> HexDigest {
    let [user, realm, pw] = [username, realm, password].map(str::as_bytes);
    let ha1 = HexDigest::of(&[user, b":", realm, b":", pw]);
    HexDigest::of(&[&ha1.0, b":", nonce.as_bytes(), b":", &ha2.0])
}

/// A `WWW-Authenticate: Digest ...` challenge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestChallenge {
    /// Protection realm.
    pub realm: String,
    /// Server nonce.
    pub nonce: String,
}

impl DigestChallenge {
    /// Serialize as a `WWW-Authenticate` header value.
    #[must_use]
    pub fn to_header_value(&self) -> String {
        format!(
            "Digest realm=\"{}\", nonce=\"{}\", algorithm=MD5",
            self.realm, self.nonce
        )
    }

    /// Parse a `WWW-Authenticate` header value.
    #[must_use]
    pub fn parse(value: &str) -> Option<DigestChallenge> {
        let [_, realm, nonce, ..] = scan_digest_params(value)?;
        Some(DigestChallenge {
            realm: realm?.to_owned(),
            nonce: nonce?.to_owned(),
        })
    }
}

/// The fields of an `Authorization: Digest ...` credential, borrowed —
/// from the header value a registrar is checking, or from the parts a
/// client is about to serialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CredentialsView<'a> {
    /// Authenticating user.
    pub username: &'a str,
    /// Realm echoed from the challenge.
    pub realm: &'a str,
    /// Nonce echoed from the challenge.
    pub nonce: &'a str,
    /// Request-URI the digest covers.
    pub uri: &'a str,
    /// The 32-hex-digit response.
    pub response: &'a str,
}

impl<'a> CredentialsView<'a> {
    /// Parse an `Authorization` header value without copying it.
    #[must_use]
    pub fn parse(value: &'a str) -> Option<Self> {
        let [username, realm, nonce, uri, response] = scan_digest_params(value)?;
        Some(CredentialsView {
            username: username?,
            realm: realm?,
            nonce: nonce?,
            uri: uri?,
            response: response?,
        })
    }

    /// Serialize as an `Authorization` header value.
    #[must_use]
    pub fn to_header_value(&self) -> String {
        self.header_value_parts().concat()
    }

    /// The `Authorization` header value as the pieces it concatenates —
    /// for [`crate::HeaderMap::push_parts`], which writes it in place.
    #[must_use]
    pub fn header_value_parts(&self) -> [&'a str; 11] {
        [
            "Digest username=\"",
            self.username,
            "\", realm=\"",
            self.realm,
            "\", nonce=\"",
            self.nonce,
            "\", uri=\"",
            self.uri,
            "\", response=\"",
            self.response,
            "\", algorithm=MD5",
        ]
    }

    /// Server-side check against a precomputed `HA2`: does this
    /// credential prove knowledge of `password` for the expected nonce?
    /// The caller vouches that `ha2` covers this credential's `uri`.
    #[must_use]
    pub fn verify_with_ha2(&self, password: &str, ha2: &HexDigest, expected_nonce: &str) -> bool {
        if self.nonce != expected_nonce || self.response.len() != 32 {
            return false;
        }
        let expect = digest_response(self.username, self.realm, password, self.nonce, ha2);
        // Constant-time-ish comparison (length is fixed at 32).
        let diff = expect.0.iter().zip(self.response.bytes());
        diff.fold(0u8, |acc, (a, b)| acc | (a ^ b)) == 0
    }
}

/// An `Authorization: Digest ...` credential.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestCredentials {
    /// Authenticating user.
    pub username: String,
    /// Realm echoed from the challenge.
    pub realm: String,
    /// Nonce echoed from the challenge.
    pub nonce: String,
    /// Request-URI the digest covers.
    pub uri: String,
    /// The 32-hex-digit response.
    pub response: String,
}

impl DigestCredentials {
    /// Compute credentials for a challenge per RFC 2617 (no qop):
    /// `response = MD5(HA1:nonce:HA2)` with `HA1 = MD5(user:realm:pw)` and
    /// `HA2 = MD5(method:uri)`.
    #[must_use]
    pub fn answer(
        challenge: &DigestChallenge,
        username: &str,
        password: &str,
        method: &str,
        uri: &str,
    ) -> DigestCredentials {
        let (realm, nonce) = (&challenge.realm, &challenge.nonce);
        let response = digest_response(username, realm, password, nonce, &ha2(method, uri));
        DigestCredentials {
            username: username.to_owned(),
            realm: realm.clone(),
            nonce: nonce.clone(),
            uri: uri.to_owned(),
            response: response.as_str().to_owned(),
        }
    }

    /// The same fields, borrowed.
    #[must_use]
    pub fn view(&self) -> CredentialsView<'_> {
        CredentialsView {
            username: &self.username,
            realm: &self.realm,
            nonce: &self.nonce,
            uri: &self.uri,
            response: &self.response,
        }
    }

    /// Serialize as an `Authorization` header value.
    #[must_use]
    pub fn to_header_value(&self) -> String {
        self.view().to_header_value()
    }

    /// Server-side check: does this credential prove knowledge of
    /// `password` for the expected nonce and method?
    #[must_use]
    pub fn verify(&self, password: &str, method: &str, expected_nonce: &str) -> bool {
        let ha2 = ha2(method, &self.uri);
        self.view().verify_with_ha2(password, &ha2, expected_nonce)
    }
}

/// One borrowed pass over `Digest k1="v1", k2=v2, ...`, returning the
/// values of `username`, `realm`, `nonce`, `uri` and `response` in that
/// order. Unknown keys (`algorithm`, `opaque`) are skipped; a repeated
/// key keeps its last value. A value is either a quoted string, which
/// runs to the next `"` and may hold commas and `=`, or a bare token,
/// which runs to the next comma. Escapes are not interpreted (a borrowed
/// value cannot be unescaped), so a `\"` inside a quoted string ends it
/// and what follows fails the parse, as do a missing `=` and an
/// unterminated quote.
fn scan_digest_params(value: &str) -> Option<[Option<&str>; 5]> {
    const KEYS: [&str; 5] = ["username", "realm", "nonce", "uri", "response"];
    let mut rest = value.trim().strip_prefix("Digest ")?;
    let mut out = [None; 5];
    loop {
        let (key, after) = rest.split_once('=')?;
        if key.contains(',') {
            return None;
        }
        let after = after.trim_start();
        let (val, tail) = match after.strip_prefix('"') {
            Some(quoted) => {
                let (val, tail) = quoted.split_once('"')?;
                (val, tail.trim_start())
            }
            None => {
                let end = after.find(',').unwrap_or(after.len());
                (after[..end].trim_end(), &after[end..])
            }
        };
        if let Some(slot) = KEYS.iter().position(|k| *k == key.trim()) {
            out[slot] = Some(val);
        }
        if tail.is_empty() {
            return Some(out);
        }
        rest = tail.strip_prefix(',')?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md5_rfc1321_test_vectors() {
        // The official test suite from RFC 1321 §A.5.
        let cases = [
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(md5_hex(input.as_bytes()), want, "md5({input:?})");
        }
    }

    /// The byte-at-a-time MD5 this module shipped before the block-wise
    /// kernel — heap-padded message, one 64-iteration loop with the
    /// round selected per step — kept as the model the kernel is tested
    /// against.
    pub(super) fn md5_reference(input: &[u8]) -> [u8; 16] {
        const S: [u32; 16] = [7, 12, 17, 22, 5, 9, 14, 20, 4, 11, 16, 23, 6, 10, 15, 21];
        let mut msg = input.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(input.len() as u64).wrapping_mul(8).to_le_bytes());
        let mut h: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];
        for chunk in msg.chunks_exact(64) {
            let m: Vec<u32> = chunk
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
                .collect();
            let [mut a, mut b, mut c, mut d] = h;
            for i in 0..64 {
                let (f, g) = match i / 16 {
                    0 => ((b & c) | (!b & d), i),
                    1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                    2 => (b ^ c ^ d, (3 * i + 5) % 16),
                    _ => (c ^ (b | !d), (7 * i) % 16),
                };
                let sum = a.wrapping_add(f).wrapping_add(K[i]).wrapping_add(m[g]);
                (a, d, c) = (d, c, b);
                b = b.wrapping_add(sum.rotate_left(S[i / 16 * 4 + i % 4]));
            }
            for (h, v) in h.iter_mut().zip([a, b, c, d]) {
                *h = h.wrapping_add(v);
            }
        }
        let mut out = [0u8; 16];
        for (o, w) in out.chunks_exact_mut(4).zip(h) {
            o.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    #[test]
    fn md5_padding_boundaries() {
        // Lengths on both sides of every padding decision: the 0x80 byte
        // and the length fit the last block (55, 119), the length needs a
        // block of its own (56, 57, 63, 120), the input ends exactly on a
        // block (64, 128) or one byte past it (65). Digests from an
        // independent implementation (Python's hashlib).
        let cases = [
            (55, "6912ee65fff2d9f9ce2508cddf8bcda0"),
            (56, "51fdd1acda72405dfdfa03fcb85896d7"),
            (57, "5320ef4c17ef34a0cf2db763338d25eb"),
            (63, "48a6295221902e8e0938f773a7185e72"),
            (64, "b2d3f56bc197fd985d5965079b5e7148"),
            (65, "8bd7053801c768420faf816fadba971c"),
            (119, "1c772251899a7ff007400b888d6b2042"),
            (120, "b7ba1efc6022e9ed272f00b8831e26e6"),
            (128, "37eff01866ba3f538421b30b7cbefcac"),
        ];
        for (len, want) in cases {
            let input: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            assert_eq!(md5_hex(&input), want, "md5 of {len} bytes");
            assert_eq!(md5(&input), md5_reference(&input), "model at {len} bytes");
        }
    }

    #[test]
    fn md5_is_independent_of_how_the_input_is_split() {
        // The streaming front end must give one digest however the bytes
        // arrive — piece boundaries before, on and after block boundaries.
        let input: Vec<u8> = (0..200u32).map(|i| (i * 7) as u8).collect();
        let whole = HexDigest::of(&[&input]);
        for cut in [0, 1, 55, 63, 64, 65, 127, 128, 129, 199, 200] {
            let (head, tail) = input.split_at(cut);
            assert_eq!(HexDigest::of(&[head, tail]), whole, "cut at {cut}");
            assert_eq!(HexDigest::of(&[head, &[], tail]), whole, "cut at {cut}");
        }
    }

    #[test]
    fn rfc2617_digest_example() {
        // The worked example from RFC 2617 §3.5 (adapted: SIP uses the
        // same computation; this checks HA1/HA2 chaining end to end).
        let challenge = DigestChallenge {
            realm: "testrealm@host.com".to_owned(),
            nonce: "dcd98b7102dd2f0e8b11d0f600bfb0c093".to_owned(),
        };
        let creds = DigestCredentials::answer(
            &challenge,
            "Mufasa",
            "Circle Of Life",
            "GET",
            "/dir/index.html",
        );
        assert_eq!(creds.response, "670fd8c2df070c60b045671b8b24ff02");
        assert!(creds.verify("Circle Of Life", "GET", &challenge.nonce));
        assert!(!creds.verify("wrong password", "GET", &challenge.nonce));
        assert!(!creds.verify("Circle Of Life", "PUT", &challenge.nonce));
        assert!(!creds.verify("Circle Of Life", "GET", "other-nonce"));
    }

    #[test]
    fn header_round_trips() {
        let ch = DigestChallenge {
            realm: "pbx.unb.br".to_owned(),
            nonce: "abc123".to_owned(),
        };
        let parsed = DigestChallenge::parse(&ch.to_header_value()).unwrap();
        assert_eq!(parsed, ch);

        let creds = DigestCredentials::answer(&ch, "1001", "pw-1001", "REGISTER", "sip:pbx.unb.br");
        let header = creds.to_header_value();
        let parsed = CredentialsView::parse(&header).unwrap();
        assert_eq!(parsed, creds.view());
        let ha2 = ha2("REGISTER", "sip:pbx.unb.br");
        assert!(parsed.verify_with_ha2("pw-1001", &ha2, "abc123"));
    }

    #[test]
    fn parse_rejects_non_digest() {
        assert!(DigestChallenge::parse("Basic realm=\"x\"").is_none());
        assert!(CredentialsView::parse("Simple 1001 pw").is_none());
        assert!(
            DigestChallenge::parse("Digest realm=\"x\"").is_none(),
            "nonce required"
        );
    }

    #[test]
    fn digest_params_respect_quoted_strings() {
        // A comma inside quotes is part of the value, not a separator.
        let c = CredentialsView::parse(
            r#"Digest username="u", realm="a, b", nonce="n,1", uri="sip:a,b@h", response="r""#,
        )
        .unwrap();
        assert_eq!((c.realm, c.nonce, c.uri), ("a, b", "n,1", "sip:a,b@h"));
        // So is an `=`, quoted or bare.
        let c = CredentialsView::parse(
            r#"Digest username="u", realm="r", nonce=ab=cd, uri="sip:h;x=1", response="r""#,
        )
        .unwrap();
        assert_eq!((c.nonce, c.uri), ("ab=cd", "sip:h;x=1"));
        // Exactly one pair of quotes delimits a value; inner quotes are
        // not stripped away, they end the parse.
        assert!(DigestChallenge::parse(r#"Digest realm=""x"", nonce="n""#).is_none());
        // An unterminated quote is malformed.
        assert!(DigestChallenge::parse(r#"Digest realm="x", nonce="n"#).is_none());
        assert!(DigestChallenge::parse(r#"Digest realm="x, nonce=n"#).is_none());
        // Junk after a closing quote, a part without `=`, a trailing comma.
        assert!(DigestChallenge::parse(r#"Digest realm="x"y, nonce="n""#).is_none());
        assert!(DigestChallenge::parse(r#"Digest realm="x", bare, nonce="n""#).is_none());
        assert!(DigestChallenge::parse(r#"Digest realm="x", nonce="n","#).is_none());
        // A repeated key keeps its last value; unknown keys are skipped.
        let ch = DigestChallenge::parse(
            r#"Digest realm="first", opaque="o", nonce="n", realm = "last" , algorithm=MD5"#,
        )
        .unwrap();
        assert_eq!((ch.realm.as_str(), ch.nonce.as_str()), ("last", "n"));
    }

    #[test]
    fn tampered_response_rejected() {
        let ch = DigestChallenge {
            realm: "r".to_owned(),
            nonce: "n".to_owned(),
        };
        let mut creds = DigestCredentials::answer(&ch, "u", "p", "REGISTER", "sip:r");
        // Flip one hex digit.
        let mut chars: Vec<char> = creds.response.chars().collect();
        chars[0] = if chars[0] == '0' { '1' } else { '0' };
        creds.response = chars.into_iter().collect();
        assert!(!creds.verify("p", "REGISTER", "n"));
        // Truncated response rejected too.
        creds.response.truncate(31);
        assert!(!creds.verify("p", "REGISTER", "n"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// MD5 is deterministic and spreads inputs (no trivial collisions
        /// on small perturbations).
        #[test]
        fn md5_deterministic(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            prop_assert_eq!(md5(&data), md5(&data));
        }

        #[test]
        fn md5_bit_flip_changes_digest(
            mut data in proptest::collection::vec(any::<u8>(), 1..128),
            idx in 0usize..128,
        ) {
            let original = md5(&data);
            let i = idx % data.len();
            data[i] ^= 1;
            prop_assert_ne!(md5(&data), original);
        }

        /// The block-wise kernel and streaming front end against the
        /// byte-at-a-time model, across every padding case.
        #[test]
        fn md5_matches_reference_model(
            data in proptest::collection::vec(any::<u8>(), 0..300),
            cut in 0usize..300,
        ) {
            let want = super::tests::md5_reference(&data);
            prop_assert_eq!(md5(&data), want);
            let (head, tail) = data.split_at(cut.min(data.len()));
            prop_assert_eq!(md5_parts(&[head, tail]), want);
        }

        /// Arbitrary `Digest …` header values never panic the scanner,
        /// and whatever it accepts it borrowed from the input.
        #[test]
        fn digest_param_scanner_never_panics(
            soup in "[a-c =\",\\é]{0,48}",
            val in "[a-c,=\"é ]{0,12}",
            glue in "[,\" =]{0,3}",
        ) {
            let values = [
                format!("Digest {soup}"),
                format!("Digest realm={glue}{val}{glue}, nonce=\"{val}\""),
                format!("Digest username=\"u\", realm=\"{val}\", nonce=n, uri={val}{glue}response=r"),
                soup,
            ];
            for value in &values {
                let _ = DigestChallenge::parse(value);
                if let Some(c) = CredentialsView::parse(value) {
                    for field in [c.username, c.realm, c.nonce, c.uri, c.response] {
                        prop_assert!(value.contains(field));
                    }
                }
            }
        }

        /// Any password authenticates against itself and fails against a
        /// different one.
        #[test]
        fn digest_soundness(user in "[a-z]{1,8}", pw in "[a-z0-9]{1,12}", other in "[A-Z]{1,12}") {
            let ch = DigestChallenge { realm: "r".to_owned(), nonce: "n0".to_owned() };
            let creds = DigestCredentials::answer(&ch, &user, &pw, "REGISTER", "sip:r");
            prop_assert!(creds.verify(&pw, "REGISTER", "n0"));
            prop_assert!(!creds.verify(&other, "REGISTER", "n0"));
        }
    }
}
