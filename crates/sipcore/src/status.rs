//! SIP response status codes.

/// A three-digit SIP status code.
///
/// The constants cover every code the evaluation touches (the paper's
/// Table I accounts 100 Trying, 180 Ringing, 200 OK and the error classes);
/// arbitrary codes are representable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 100 Trying.
    pub const TRYING: StatusCode = StatusCode(100);
    /// 180 Ringing.
    pub const RINGING: StatusCode = StatusCode(180);
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 400 Bad Request.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 401 Unauthorized.
    pub const UNAUTHORIZED: StatusCode = StatusCode(401);
    /// 403 Forbidden.
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 486 Busy Here — what a callee at capacity answers.
    pub const BUSY_HERE: StatusCode = StatusCode(486);
    /// 487 Request Terminated (answered to a CANCELled INVITE).
    pub const REQUEST_TERMINATED: StatusCode = StatusCode(487);
    /// 503 Service Unavailable — what an overloaded PBX answers.
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// Provisional (1xx) responses do not end a transaction.
    #[must_use]
    pub fn is_provisional(self) -> bool {
        (100..200).contains(&self.0)
    }

    /// Final responses (≥ 200) complete a transaction.
    #[must_use]
    pub fn is_final(self) -> bool {
        self.0 >= 200
    }

    /// 2xx success.
    #[must_use]
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// 4xx/5xx/6xx failure.
    #[must_use]
    pub fn is_error(self) -> bool {
        self.0 >= 400
    }

    /// The canonical reason phrase.
    #[must_use]
    pub fn reason_phrase(self) -> &'static str {
        match self.0 {
            100 => "Trying",
            180 => "Ringing",
            183 => "Session Progress",
            200 => "OK",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            408 => "Request Timeout",
            486 => "Busy Here",
            487 => "Request Terminated",
            500 => "Server Internal Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

impl core::fmt::Display for StatusCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} {}", self.0, self.reason_phrase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(StatusCode::TRYING.is_provisional());
        assert!(StatusCode::RINGING.is_provisional());
        assert!(!StatusCode::OK.is_provisional());
        assert!(StatusCode::OK.is_final());
        assert!(StatusCode::OK.is_success());
        assert!(!StatusCode::OK.is_error());
        assert!(StatusCode::BUSY_HERE.is_error());
        assert!(StatusCode::BUSY_HERE.is_final());
        assert!(StatusCode::SERVICE_UNAVAILABLE.is_error());
    }

    #[test]
    fn reason_phrases() {
        assert_eq!(StatusCode::OK.to_string(), "200 OK");
        assert_eq!(StatusCode::BUSY_HERE.to_string(), "486 Busy Here");
        assert_eq!(StatusCode(599).reason_phrase(), "Unknown");
    }

    #[test]
    fn ordering_follows_numeric_code() {
        assert!(StatusCode::TRYING < StatusCode::OK);
        assert!(StatusCode::OK < StatusCode::BUSY_HERE);
    }
}
