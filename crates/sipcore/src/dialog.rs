//! SIP dialog identification and lifecycle.
//!
//! A dialog is identified by (Call-ID, local tag, remote tag) — RFC 3261
//! §12. The evaluation uses dialogs to correlate the BYE with the INVITE
//! that created the session and to pair RTP streams with their signalling.

use crate::atoms::{Atom, AtomTable};
use crate::headers::{tag_of, HeaderName};
use crate::message::{Request, Response};
use serde::{Deserialize, Serialize};

/// Dialog identifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DialogId {
    /// Call-ID header value.
    pub call_id: String,
    /// Tag of this endpoint.
    pub local_tag: String,
    /// Tag of the peer (empty while half-established).
    pub remote_tag: String,
}

impl DialogId {
    /// Construct from explicit parts.
    #[must_use]
    pub fn new(call_id: &str, local_tag: &str, remote_tag: &str) -> Self {
        DialogId {
            call_id: call_id.to_owned(),
            local_tag: local_tag.to_owned(),
            remote_tag: remote_tag.to_owned(),
        }
    }

    /// Derive the dialog ID as seen by the **caller** (UAC) from a response:
    /// local = From tag, remote = To tag.
    #[must_use]
    pub fn from_response_uac(resp: &Response) -> Option<DialogId> {
        let call_id = resp.call_id()?;
        let from = resp.headers.get(&HeaderName::From)?;
        let to = resp.headers.get(&HeaderName::To)?;
        Some(DialogId {
            call_id: call_id.to_owned(),
            local_tag: tag_of(from)?.to_owned(),
            remote_tag: tag_of(to).unwrap_or("").to_owned(),
        })
    }

    /// Derive the dialog ID as seen by the **callee** (UAS) from a request:
    /// local = To tag, remote = From tag.
    #[must_use]
    pub fn from_request_uas(req: &Request) -> Option<DialogId> {
        let call_id = req.call_id()?;
        let from = req.headers.get(&HeaderName::From)?;
        let to = req.headers.get(&HeaderName::To)?;
        Some(DialogId {
            call_id: call_id.to_owned(),
            local_tag: tag_of(to).unwrap_or("").to_owned(),
            remote_tag: tag_of(from)?.to_owned(),
        })
    }
}

/// An interned dialog identifier: the (Call-ID, local tag, remote tag)
/// triple as three [`Atom`] handles. `Copy`, 12 bytes, integer hash —
/// the map-key form of [`DialogId`] for dialog tables on the signalling
/// hot path, where hashing three `String`s per lookup is measurable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DialogKey {
    /// Interned Call-ID.
    pub call_id: Atom,
    /// Interned local tag.
    pub local_tag: Atom,
    /// Interned remote tag (the empty string while half-established).
    pub remote_tag: Atom,
}

impl DialogId {
    /// Intern this identifier's parts into `atoms`, yielding the compact
    /// map-key form. Repeated calls for the same dialog allocate nothing
    /// (the strings are already in the table).
    #[must_use]
    pub fn key(&self, atoms: &mut AtomTable) -> DialogKey {
        DialogKey {
            call_id: atoms.intern(&self.call_id),
            local_tag: atoms.intern(&self.local_tag),
            remote_tag: atoms.intern(&self.remote_tag),
        }
    }
}

/// Dialog lifecycle state (RFC 3261 §12 simplified to the flows the
/// evaluation exercises).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DialogState {
    /// INVITE sent/received, no final answer yet.
    Early,
    /// 200 OK exchanged and ACKed — media flows.
    Confirmed,
    /// BYE exchanged.
    Terminated,
}

/// A tracked dialog with its sequence numbers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dialog {
    /// The dialog identifier.
    pub id: DialogId,
    /// Current state.
    pub state: DialogState,
    /// Next CSeq this side will use.
    pub local_cseq: u32,
    /// Highest CSeq seen from the peer.
    pub remote_cseq: u32,
}

impl Dialog {
    /// A fresh early dialog.
    #[must_use]
    pub fn early(id: DialogId, local_cseq: u32, remote_cseq: u32) -> Self {
        Dialog {
            id,
            state: DialogState::Early,
            local_cseq,
            remote_cseq,
        }
    }

    /// Transition to confirmed (on 200 OK / ACK).
    pub fn confirm(&mut self) {
        if self.state == DialogState::Early {
            self.state = DialogState::Confirmed;
        }
    }

    /// Transition to terminated (on BYE).
    pub fn terminate(&mut self) {
        self.state = DialogState::Terminated;
    }

    /// Allocate the next local CSeq number.
    pub fn next_cseq(&mut self) -> u32 {
        self.local_cseq += 1;
        self.local_cseq
    }

    /// Validate and record a peer CSeq; rejects regressions (out-of-order
    /// or replayed in-dialog requests).
    pub fn accept_remote_cseq(&mut self, cseq: u32) -> bool {
        if cseq > self.remote_cseq {
            self.remote_cseq = cseq;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::format_via;
    use crate::method::Method;
    use crate::status::StatusCode;
    use crate::uri::SipUri;

    fn invite() -> Request {
        Request::new(Method::Invite, SipUri::parse("sip:bob@pbx").unwrap())
            .header(HeaderName::Via, format_via("a", 5060, "z9hG4bK1"))
            .header(HeaderName::From, "<sip:alice@pbx>;tag=fromtag")
            .header(HeaderName::To, "<sip:bob@pbx>")
            .header(HeaderName::CallId, "cid-dialog")
            .header(HeaderName::CSeq, "1 INVITE")
    }

    #[test]
    fn uac_dialog_id_from_response() {
        let req = invite();
        let resp = req.make_response_tagged(StatusCode::OK, "totag");
        let id = DialogId::from_response_uac(&resp).unwrap();
        assert_eq!(id.call_id, "cid-dialog");
        assert_eq!(id.local_tag, "fromtag");
        assert_eq!(id.remote_tag, "totag");
    }

    #[test]
    fn uas_dialog_id_from_request() {
        let req = invite();
        let id = DialogId::from_request_uas(&req).unwrap();
        assert_eq!(id.local_tag, "", "no To tag before answering");
        assert_eq!(id.remote_tag, "fromtag");
    }

    #[test]
    fn uac_and_uas_views_are_mirrored() {
        let req = invite();
        let uas = DialogId::from_request_uas(&req).unwrap();
        let resp = req.make_response_tagged(StatusCode::OK, "totag");
        let uac = DialogId::from_response_uac(&resp).unwrap();
        assert_eq!(uac.call_id, uas.call_id);
        assert_eq!(uac.local_tag, uas.remote_tag);
    }

    #[test]
    fn missing_headers_yield_none() {
        let bare = Request::new(Method::Invite, SipUri::parse("sip:x@h").unwrap());
        assert!(DialogId::from_request_uas(&bare).is_none());
        let bare_resp = Response::new(StatusCode::OK);
        assert!(DialogId::from_response_uac(&bare_resp).is_none());
    }

    #[test]
    fn lifecycle_transitions() {
        let mut d = Dialog::early(DialogId::new("c", "l", "r"), 1, 0);
        assert_eq!(d.state, DialogState::Early);
        d.confirm();
        assert_eq!(d.state, DialogState::Confirmed);
        d.confirm(); // idempotent
        assert_eq!(d.state, DialogState::Confirmed);
        d.terminate();
        assert_eq!(d.state, DialogState::Terminated);
        // Confirm after terminate must not resurrect.
        d.confirm();
        assert_eq!(d.state, DialogState::Terminated);
    }

    #[test]
    fn interned_keys_compare_like_ids() {
        let mut atoms = AtomTable::new();
        let a = DialogId::new("c1", "alice", "bob").key(&mut atoms);
        let b = DialogId::new("c1", "alice", "bob").key(&mut atoms);
        let c = DialogId::new("c1", "bob", "alice").key(&mut atoms);
        assert_eq!(a, b, "same triple, same key");
        assert_ne!(a, c, "mirrored tags are a different dialog");
        assert_eq!(atoms.resolve(a.call_id), "c1");
        // Repeats allocate nothing new: 3 distinct strings total.
        assert_eq!(atoms.len(), 3, "c1, alice, bob — nothing interned twice");
    }

    #[test]
    fn cseq_discipline() {
        let mut d = Dialog::early(DialogId::new("c", "l", "r"), 1, 1);
        assert_eq!(d.next_cseq(), 2);
        assert_eq!(d.next_cseq(), 3);
        assert!(d.accept_remote_cseq(2));
        assert!(!d.accept_remote_cseq(2), "replay rejected");
        assert!(!d.accept_remote_cseq(1), "regression rejected");
        assert!(d.accept_remote_cseq(5));
        assert_eq!(d.remote_cseq, 5);
    }
}
