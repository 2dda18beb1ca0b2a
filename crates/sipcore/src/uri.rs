//! SIP URIs (`sip:user@host:port;param=value`).

use std::sync::Arc;

/// A SIP URI — the subset used for addressing users and servers in the
/// evaluation: scheme `sip`, optional user part, host, optional port, and
/// `;`-separated parameters (e.g. `;transport=udp`, `;tag=...` when embedded
/// in From/To headers is handled at the header level).
///
/// User and host are shared text, as in [`crate::SdpBody`]: an engine
/// that already holds its hostname and the extensions it dials builds
/// and clones Request-URIs without allocating.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SipUri {
    /// User part (the extension / account), empty for server URIs.
    pub user: Arc<str>,
    /// Host (name or IPv4 literal).
    pub host: Arc<str>,
    /// Explicit port if present.
    pub port: Option<u16>,
    /// URI parameters in order of appearance, as (name, optional value).
    pub params: Vec<(String, Option<String>)>,
}

impl SipUri {
    /// `sip:user@host`.
    #[must_use]
    pub fn new(user: &str, host: &str) -> Self {
        SipUri::shared(shared(user), shared(host))
    }

    /// `sip:user@host` over text the caller already shares.
    #[must_use]
    pub fn shared(user: Arc<str>, host: Arc<str>) -> Self {
        SipUri {
            user,
            host,
            port: None,
            params: Vec::new(),
        }
    }

    /// A server URI without a user part: `sip:host`.
    #[must_use]
    pub fn server(host: &str) -> Self {
        SipUri::new("", host)
    }

    /// Builder: set the port.
    #[must_use]
    pub fn with_port(mut self, port: u16) -> Self {
        self.port = Some(port);
        self
    }

    /// Parse `sip:user@host:port;params`. Returns `None` on malformed input.
    #[must_use]
    pub fn parse(s: &str) -> Option<SipUri> {
        let rest = s.strip_prefix("sip:")?;
        if rest.is_empty() {
            return None;
        }
        // Split off parameters first.
        let mut parts = rest.split(';');
        let core = parts.next()?;
        let mut params = Vec::new();
        for p in parts {
            if p.is_empty() {
                return None;
            }
            match p.split_once('=') {
                Some((n, v)) => {
                    if n.is_empty() {
                        return None;
                    }
                    params.push((n.to_owned(), Some(v.to_owned())));
                }
                None => params.push((p.to_owned(), None)),
            }
        }
        // user@host:port | host:port | user@host | host
        let (user, hostport) = match core.split_once('@') {
            Some((u, hp)) => {
                if u.is_empty() {
                    return None;
                }
                (Arc::from(u), hp)
            }
            None => (Arc::default(), core),
        };
        let (host, port) = match hostport.rsplit_once(':') {
            Some((h, p)) => (h, Some(p.parse::<u16>().ok()?)),
            None => (hostport, None),
        };
        if host.is_empty() || host.contains('@') || host.contains(' ') {
            return None;
        }
        Some(SipUri {
            user,
            host: Arc::from(host),
            port,
            params,
        })
    }

    /// Exact length of this URI's `Display` rendering, computed without
    /// formatting — one term of the analytic
    /// [`crate::message::Request::wire_len`].
    #[must_use]
    pub fn wire_len(&self) -> usize {
        let mut n = 4 + self.host.len(); // "sip:" + host
        if !self.user.is_empty() {
            n += self.user.len() + 1; // user + '@'
        }
        if let Some(p) = self.port {
            n += 1 + crate::message::decimal_len(u32::from(p)); // ':' + digits
        }
        for (name, value) in &self.params {
            n += 1 + name.len(); // ';' + name
            if let Some(v) = value {
                n += 1 + v.len(); // '=' + value
            }
        }
        n
    }
}

/// `text` as shared text; the empty string allocates nothing.
fn shared(text: &str) -> Arc<str> {
    if text.is_empty() {
        Arc::default()
    } else {
        Arc::from(text)
    }
}

impl core::fmt::Display for SipUri {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "sip:")?;
        if !self.user.is_empty() {
            write!(f, "{}@", self.user)?;
        }
        f.write_str(&self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        for (n, v) in &self.params {
            match v {
                Some(v) => write!(f, ";{n}={v}")?,
                None => write!(f, ";{n}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_uri() {
        let u = SipUri::parse("sip:1001@pbx.unb.br:5060;transport=udp;lr").unwrap();
        assert_eq!(&*u.user, "1001");
        assert_eq!(&*u.host, "pbx.unb.br");
        assert_eq!(u.port, Some(5060));
        let lr = ("lr".to_owned(), None);
        assert_eq!(
            u.params,
            [("transport".to_owned(), Some("udp".to_owned())), lr]
        );
    }

    #[test]
    fn parse_minimal_forms() {
        let u = SipUri::parse("sip:pbx.unb.br").unwrap();
        assert!(u.user.is_empty());
        assert_eq!(&*u.host, "pbx.unb.br");
        assert_eq!(u.port, None);

        let u = SipUri::parse("sip:alice@10.0.0.1").unwrap();
        assert_eq!(&*u.user, "alice");
        assert_eq!(&*u.host, "10.0.0.1");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "sips:alice@host", // unsupported scheme here
            "alice@host",
            "sip:",
            "sip:@host",
            "sip:alice@",
            "sip:alice@host:notaport",
            "sip:alice@host:70000",
            "sip:alice@host;;x",
            "sip:alice@host;=v",
        ] {
            assert!(SipUri::parse(bad).is_none(), "should reject {bad:?}");
        }
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "sip:1001@pbx.unb.br",
            "sip:1001@pbx.unb.br:5060",
            "sip:pbx.unb.br:5060;transport=udp",
            "sip:bob@host;x=1;flag",
        ] {
            let u = SipUri::parse(s).unwrap();
            assert_eq!(u.to_string(), s);
            // And re-parsing yields the identical structure.
            assert_eq!(SipUri::parse(&u.to_string()).unwrap(), u);
        }
    }

    #[test]
    fn shared_text_is_not_copied() {
        let (user, host): (Arc<str>, Arc<str>) = (Arc::from("1501"), Arc::from("pbx"));
        let uri = SipUri::shared(Arc::clone(&user), Arc::clone(&host));
        let copy = uri.clone();
        assert!(Arc::ptr_eq(&copy.user, &user) && Arc::ptr_eq(&copy.host, &host));
        assert_eq!(uri, SipUri::new("1501", "pbx"));
        assert_eq!(uri.to_string(), "sip:1501@pbx");
    }

    #[test]
    fn builders() {
        let mut u = SipUri::new("2002", "pbx").with_port(5062);
        u.params.push(("ob".to_owned(), None));
        assert_eq!(u.to_string(), "sip:2002@pbx:5062;ob");
        assert_eq!(SipUri::server("pbx").to_string(), "sip:pbx");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn token() -> impl Strategy<Value = String> {
        "[a-z][a-z0-9]{0,11}"
    }

    proptest! {
        /// parse ∘ display = id over structurally valid URIs.
        #[test]
        fn display_parse_round_trip(
            user in token(),
            host in "[a-z][a-z0-9.]{0,15}[a-z0-9]",
            port in proptest::option::of(1u16..65535),
            nparams in 0usize..4,
        ) {
            let mut u = SipUri::new(&user, &host);
            u.port = port;
            for i in 0..nparams {
                u.params.push((format!("p{i}"), if i % 2 == 0 { Some(format!("v{i}")) } else { None }));
            }
            let text = u.to_string();
            prop_assert_eq!(text.len(), u.wire_len(), "analytic length is exact");
            let back = SipUri::parse(&text).unwrap();
            prop_assert_eq!(back, u);
        }
    }
}
