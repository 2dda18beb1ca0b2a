//! Dialplan: extension-pattern routing, Asterisk style.
//!
//! Patterns use Asterisk's classic alphabet: literal digits, `X` = 0–9,
//! `Z` = 1–9, `N` = 2–9, and a trailing `.` matching one-or-more of
//! anything. First matching rule wins, in priority (insertion) order.

/// Where a matched extension routes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// Deliver to a registered local subscriber (lookup in the registrar).
    LocalSubscriber,
    /// Hand off to the campus telephone exchange trunk.
    Trunk(String),
    /// Refuse the call.
    Deny,
}

/// One dialplan rule.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rule {
    /// The pattern, e.g. `1XXX` or `0.`.
    pattern: String,
    /// Where matching extensions go.
    route: Route,
}

/// An ordered rule list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dialplan {
    rules: Vec<Rule>,
}

impl Dialplan {
    /// An empty dialplan (denies everything).
    #[must_use]
    pub fn new() -> Self {
        Dialplan::default()
    }

    /// The evaluation's default plan: four-digit campus extensions are
    /// local subscribers, `0`-prefixed numbers go to the university trunk,
    /// and longer extensions (the callees of pools above 4 000 users) are
    /// local subscribers too.
    #[must_use]
    pub fn campus_default() -> Self {
        let mut dp = Dialplan::new();
        dp.add("XXXX", Route::LocalSubscriber);
        dp.add("0.", Route::Trunk("university-exchange".to_owned()));
        dp.add("XXXX.", Route::LocalSubscriber);
        dp
    }

    /// Append a rule (lower priority than existing ones).
    pub fn add(&mut self, pattern: &str, route: Route) {
        self.rules.push(Rule {
            pattern: pattern.to_owned(),
            route,
        });
    }

    /// Number of rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Route a dialled extension; `None` if no rule matches.
    #[must_use]
    pub fn route(&self, extension: &str) -> Option<&Route> {
        self.rules
            .iter()
            .find(|r| pattern_matches(&r.pattern, extension))
            .map(|r| &r.route)
    }
}

/// Match one Asterisk-style pattern against an extension, walking both
/// a character at a time (no allocation: every INVITE tries each rule).
#[must_use]
fn pattern_matches(pattern: &str, ext: &str) -> bool {
    let mut pat = pattern.chars();
    let mut ext = ext.chars();
    while let Some(p) = pat.next() {
        if p == '.' {
            // One-or-more of anything; must be the final pattern char.
            return pat.next().is_none() && ext.next().is_some();
        }
        let Some(c) = ext.next() else {
            return false;
        };
        let ok = match p {
            'X' => c.is_ascii_digit(),
            'Z' => ('1'..='9').contains(&c),
            'N' => ('2'..='9').contains(&c),
            lit => c == lit,
        };
        if !ok {
            return false;
        }
    }
    ext.next().is_none()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_patterns() {
        assert!(pattern_matches("1001", "1001"));
        assert!(!pattern_matches("1001", "1002"));
        assert!(!pattern_matches("1001", "100"));
        assert!(!pattern_matches("1001", "10011"));
        assert!(!pattern_matches("", "1"));
        assert!(pattern_matches("", ""));
    }

    #[test]
    fn character_classes() {
        assert!(pattern_matches("1XXX", "1234"));
        assert!(pattern_matches("1XXX", "1000"));
        assert!(!pattern_matches("1XXX", "2000"));
        assert!(!pattern_matches("1XXX", "1ABC"));
        assert!(pattern_matches("ZXXX", "1000"));
        assert!(!pattern_matches("ZXXX", "0000"), "Z excludes 0");
        assert!(pattern_matches("NXXX", "2000"));
        assert!(!pattern_matches("NXXX", "1000"), "N excludes 0 and 1");
    }

    #[test]
    fn wildcard_tail() {
        assert!(pattern_matches("0.", "06133072000"));
        assert!(pattern_matches("0.", "00"));
        assert!(!pattern_matches("0.", "0"), ". needs at least one char");
        assert!(!pattern_matches("0.", "16133072000"));
        // '.' mid-pattern is invalid and never matches.
        assert!(!pattern_matches("0.1", "0x1"));
    }

    #[test]
    fn non_ascii_is_matched_by_character() {
        // Classes take ASCII digits only, not other scripts' digits.
        assert!(!pattern_matches("1XXX", "1٢٣٤"));
        assert!(!pattern_matches("XXXX", "12é4"));
        // Literals and lengths count characters, not bytes.
        assert!(pattern_matches("1ñ", "1ñ"));
        assert!(!pattern_matches("é", "e"));
        assert!(!pattern_matches("XX", "1é"));
        assert!(!pattern_matches("XXX", "1é"), "é is one character");
        assert!(pattern_matches("0.", "0ß"));
        assert!(!pattern_matches("ñ.", "ñ"), ". needs one more character");
        assert!(pattern_matches("ñ.", "ñü"));
    }

    #[test]
    fn campus_default_routing() {
        let dp = Dialplan::campus_default();
        assert_eq!(dp.len(), 3);
        assert!(!dp.is_empty());
        assert_eq!(dp.route("1234"), Some(&Route::LocalSubscriber));
        assert_eq!(dp.route("16999"), Some(&Route::LocalSubscriber));
        assert_eq!(dp.route("1000000"), Some(&Route::LocalSubscriber));
        let trunk = Some(&Route::Trunk("university-exchange".to_owned()));
        assert_eq!(dp.route("061330720"), trunk);
        assert_eq!(dp.route("01234"), trunk, "the trunk rule wins");
        assert_eq!(dp.route("99"), None, "no rule for two digits");
        assert_eq!(dp.route(""), None);
    }

    #[test]
    fn first_match_wins() {
        let mut dp = Dialplan::new();
        dp.add("1XXX", Route::Deny);
        dp.add("XXXX", Route::LocalSubscriber);
        assert_eq!(dp.route("1500"), Some(&Route::Deny));
        assert_eq!(dp.route("2500"), Some(&Route::LocalSubscriber));
    }

    #[test]
    fn empty_dialplan_denies() {
        let dp = Dialplan::new();
        assert!(dp.is_empty());
        assert_eq!(dp.route("1234"), None);
    }
}
