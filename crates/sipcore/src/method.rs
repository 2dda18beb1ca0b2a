//! SIP request methods.

/// The request methods used by the evaluation (RFC 3261 core set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Initiate a session.
    Invite,
    /// Acknowledge a final response to an INVITE.
    Ack,
    /// Terminate a session.
    Bye,
    /// Cancel a pending INVITE.
    Cancel,
    /// Bind a contact to an address-of-record.
    Register,
    /// Capability query / keep-alive.
    Options,
}

impl Method {
    /// Canonical upper-case token.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Invite => "INVITE",
            Method::Ack => "ACK",
            Method::Bye => "BYE",
            Method::Cancel => "CANCEL",
            Method::Register => "REGISTER",
            Method::Options => "OPTIONS",
        }
    }

    /// Parse a method token (case-sensitive per RFC 3261 §7.1).
    #[must_use]
    pub fn from_token(s: &str) -> Option<Method> {
        Some(match s {
            "INVITE" => Method::Invite,
            "ACK" => Method::Ack,
            "BYE" => Method::Bye,
            "CANCEL" => Method::Cancel,
            "REGISTER" => Method::Register,
            "OPTIONS" => Method::Options,
            _ => return None,
        })
    }

    /// INVITE transactions have distinct state machines from all others.
    #[must_use]
    pub fn is_invite(self) -> bool {
        self == Method::Invite
    }

    /// All methods (for exhaustive tests/benches).
    pub const ALL: [Method; 6] = [
        Method::Invite,
        Method::Ack,
        Method::Bye,
        Method::Cancel,
        Method::Register,
        Method::Options,
    ];
}

impl core::fmt::Display for Method {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_round_trip() {
        for m in Method::ALL {
            assert_eq!(Method::from_token(m.as_str()), Some(m));
            assert_eq!(format!("{m}"), m.as_str());
        }
    }

    #[test]
    fn unknown_and_case_sensitivity() {
        assert_eq!(Method::from_token("SUBSCRIBE"), None);
        assert_eq!(
            Method::from_token("invite"),
            None,
            "methods are case-sensitive"
        );
        assert_eq!(Method::from_token(""), None);
    }

    #[test]
    fn classification() {
        assert!(Method::Invite.is_invite());
        assert!(!Method::Bye.is_invite());
    }
}
