//! The tagged workload reference: *which instruction stream a job runs*.
//!
//! Since API v1.2 a job's `workload` is no longer restricted to the 13
//! Table II profile names — it can reference a user-uploaded resource by
//! content address:
//!
//! * `Profile("redis")` — a synthetic Table II profile (or an enabled
//!   test pseudo-workload);
//! * `Program(hash)` — a ucasm program uploaded via `POST /v1/programs`;
//! * `Trace(hash)` — a recorded instruction trace (the std big-endian
//!   `UCT1` format) uploaded the same way.
//!
//! On the wire (API v1.2) the reference is either a tagged object —
//! `{"profile":"redis"}`, `{"program":"<16-hex>"}` or
//! `{"trace":"<16-hex>"}` — or the same reference as a plain ref string
//! (`"redis"`, `"program:<16-hex>"`). Both spellings are supported; the
//! string form is what the bundled clients send. Internally (canonical [`JobSpec`]
//! encodings, trace keys, store records, peer forwarding) the reference
//! is always the *normalized ref string*: the bare profile name, or
//! `program:<16-hex>` / `trace:<16-hex>`. Keeping profile names unprefixed
//! preserves every pre-v1.2 content address.
//!
//! [`JobSpec`]: https://docs.rs/ucsim-serve

use crate::json::Json;

/// A parsed workload reference. See the module docs for the wire forms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WorkloadRef {
    /// A named synthetic profile (Table II or test pseudo-workload).
    Profile(String),
    /// A content-addressed ucasm program resource.
    Program(u64),
    /// A content-addressed recorded-trace resource.
    Trace(u64),
}

/// Formats a content hash the way resource ids appear on the wire.
fn format_hash(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parses a resource id (1–16 hex digits, as `POST /v1/programs` returns).
fn parse_hash(hex: &str) -> Result<u64, String> {
    if hex.is_empty() || hex.len() > 16 {
        return Err(format!("bad resource id {hex:?}: want up to 16 hex digits"));
    }
    u64::from_str_radix(hex, 16).map_err(|_| format!("bad resource id {hex:?}: not hexadecimal"))
}

impl WorkloadRef {
    /// Parses a normalized ref string (`program:<hex>`, `trace:<hex>`,
    /// or a bare profile name).
    ///
    /// # Errors
    ///
    /// A human-readable message when a `program:`/`trace:` prefix carries
    /// a malformed hash. Bare names never fail — whether the profile
    /// exists is the caller's concern.
    pub fn parse(s: &str) -> Result<WorkloadRef, String> {
        if let Some(hex) = s.strip_prefix("program:") {
            return parse_hash(hex).map(WorkloadRef::Program);
        }
        if let Some(hex) = s.strip_prefix("trace:") {
            return parse_hash(hex).map(WorkloadRef::Trace);
        }
        Ok(WorkloadRef::Profile(s.to_owned()))
    }

    /// Parses the wire `workload` member: a tagged object
    /// (`{"profile":…}` | `{"program":…}` | `{"trace":…}`) or a plain
    /// string in ref-string syntax.
    ///
    /// # Errors
    ///
    /// A human-readable message for the `bad_request` envelope.
    pub fn from_json(v: &Json) -> Result<WorkloadRef, String> {
        if let Some(s) = v.as_str() {
            return WorkloadRef::parse(s);
        }
        let tags = [
            ("profile", v.get("profile")),
            ("program", v.get("program")),
            ("trace", v.get("trace")),
        ];
        let mut found = tags.iter().filter(|(_, m)| m.is_some());
        let (Some((tag, Some(member))), None) = (found.next(), found.next()) else {
            return Err("workload must be a string or exactly one of \
                 {\"profile\":…}, {\"program\":…}, {\"trace\":…}"
                .to_owned());
        };
        let value = member
            .as_str()
            .ok_or_else(|| format!("workload.{tag} must be a string"))?;
        match *tag {
            "profile" => Ok(WorkloadRef::Profile(value.to_owned())),
            "program" => parse_hash(value).map(WorkloadRef::Program),
            _ => parse_hash(value).map(WorkloadRef::Trace),
        }
    }

    /// The normalized ref string — the form stored in canonical job
    /// specs, trace keys and store records.
    pub fn to_ref_string(&self) -> String {
        match self {
            WorkloadRef::Profile(name) => name.clone(),
            WorkloadRef::Program(h) => format!("program:{}", format_hash(*h)),
            WorkloadRef::Trace(h) => format!("trace:{}", format_hash(*h)),
        }
    }

    /// A short human label for sweep ledgers and metrics: the profile
    /// name, or `prog-`/`trace-` plus the first 8 hex digits of the hash
    /// — collision-free across resources without dragging the full hash
    /// into every Prometheus label.
    pub fn short_label(&self) -> String {
        match self {
            WorkloadRef::Profile(name) => name.clone(),
            WorkloadRef::Program(h) => format!("prog-{}", &format_hash(*h)[..8]),
            WorkloadRef::Trace(h) => format!("trace-{}", &format_hash(*h)[..8]),
        }
    }

    /// The referenced resource hash, if this is not a profile.
    pub fn resource_hash(&self) -> Option<u64> {
        match self {
            WorkloadRef::Profile(_) => None,
            WorkloadRef::Program(h) | WorkloadRef::Trace(h) => Some(*h),
        }
    }
}

impl std::fmt::Display for WorkloadRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_ref_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_strings_round_trip() {
        for s in [
            "redis",
            "program:00000000deadbeef",
            "trace:0000000000000001",
        ] {
            let r = WorkloadRef::parse(s).unwrap();
            assert_eq!(r.to_ref_string(), s);
        }
        // Short hex normalizes to the padded 16-digit form.
        assert_eq!(
            WorkloadRef::parse("program:ff").unwrap().to_ref_string(),
            "program:00000000000000ff"
        );
    }

    #[test]
    fn profile_names_with_colons_stay_profiles() {
        // The test pseudo-workload syntax must not be mistaken for a ref.
        let r = WorkloadRef::parse("test-sleep:50").unwrap();
        assert_eq!(r, WorkloadRef::Profile("test-sleep:50".to_owned()));
    }

    #[test]
    fn bad_hashes_are_rejected() {
        assert!(WorkloadRef::parse("program:").is_err());
        assert!(WorkloadRef::parse("program:zz").is_err());
        assert!(WorkloadRef::parse("trace:0123456789abcdef0").is_err());
    }

    #[test]
    fn tagged_json_and_string_alias_both_parse() {
        for (tagged, want) in [
            (
                r#"{"program":"00000000deadbeef"}"#,
                WorkloadRef::Program(0xdead_beef),
            ),
            (
                r#"{"profile":"bm-cc"}"#,
                WorkloadRef::Profile("bm-cc".to_owned()),
            ),
            (r#"{"program":"abc"}"#, WorkloadRef::Program(0xabc)),
            (
                r#"{"trace":"ffffffffffffffff"}"#,
                WorkloadRef::Trace(u64::MAX),
            ),
        ] {
            let v = Json::parse(tagged).unwrap();
            assert_eq!(WorkloadRef::from_json(&v).unwrap(), want, "{tagged}");
        }
        let alias = Json::Str("redis".to_owned());
        assert_eq!(
            WorkloadRef::from_json(&alias).unwrap(),
            WorkloadRef::Profile("redis".to_owned())
        );
        let prefixed = Json::Str("trace:10".to_owned());
        assert_eq!(
            WorkloadRef::from_json(&prefixed).unwrap(),
            WorkloadRef::Trace(0x10)
        );
    }

    #[test]
    fn ambiguous_or_empty_tags_are_rejected() {
        for bad in [
            r#"{"profile":"redis","program":"ff"}"#,
            r#"{}"#,
            r#"{"program":7}"#,
            r#"{"workloadz":"redis"}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(WorkloadRef::from_json(&v).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn short_labels_are_stable() {
        assert_eq!(
            WorkloadRef::Profile("redis".to_owned()).short_label(),
            "redis"
        );
        assert_eq!(
            WorkloadRef::Program(0xdead_beef).short_label(),
            "prog-00000000"
        );
        assert_eq!(
            WorkloadRef::Trace(0x0123_4567_89ab_cdef).short_label(),
            "trace-01234567"
        );
    }
}
