//! `ucsim-obs` — zero-dependency observability for the ucsim stack.
//!
//! Three facilities:
//!
//! 1. **Span tracing** ([`span`], [`emit`], [`drain_since`]): short
//!    structured events (kind, start, duration, request id, detail)
//!    appended to one process-wide ring under a `Mutex`, which keeps
//!    the newest [`RING_SLOTS`] events in sequence order. The serve
//!    layer drains it via `GET /v1/trace?since=`.
//! 2. **Request-ID scope** ([`request_scope`], [`current_request`]):
//!    a thread-local request identifier installed at the HTTP edge and
//!    re-installed on pool workers, so every span emitted on behalf of
//!    a request carries its id without threading it through call
//!    signatures.
//! 3. **Per-job stage profiles** ([`profile_begin`], [`profile_end`],
//!    [`stage_start`], [`counter_add`]): a thread-local collector the
//!    pipeline hot loop feeds with per-stage call counts, wall times
//!    sampled on one call per [`Stage::stride`], and counter deltas.
//!    Profiles never touch simulated state — results stay
//!    byte-identical with or without profiling.
//!
//! Only the profile half sits behind the `enabled` feature: without it,
//! stage timers and counters compile to no-ops, so the simulator hot
//! loop pays nothing in builds without the serving stack. Spans are
//! always live; only the serving stack emits them.
//!
//! The hot-loop instrumentation (stage timers) deliberately does *not*
//! emit ring events: a simulation executes millions of stage calls and
//! would cycle any bounded ring in milliseconds. Stage timings go to the
//! profile collector only; ring events are reserved for request-scale
//! operations (accept, parse, handle, store I/O, queue wait, execute,
//! supervise).

mod profile;
mod ring;

pub use profile::{
    counter_add, profile_begin, profile_end, Counter, JobProfile, Stage, StageStat, StageTimer,
    COUNTER_COUNT, STAGE_BOUNDS_NS, STAGE_COUNT,
};
pub use ring::{
    current_request, drain_since, emit, now_us, request_scope, span, Event, QueueToken, ScopeGuard,
    Span, SpanKind, RING_SLOTS,
};

/// Whether this build carries live per-job profiling (`enabled` feature).
pub const ENABLED: bool = cfg!(feature = "enabled");

/// FNV-1a hash of a request-id string — the numeric form spans carry.
///
/// Deterministic and dependency-free; the same function the serve layer
/// uses for content addressing, duplicated here so the crate stays leaf.
pub fn hash_id(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Entry point used by [`stage_start`] callers; re-exported for docs.
#[inline]
pub fn stage_start(stage: Stage) -> StageTimer {
    profile::stage_start(stage)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_id_is_stable_and_distinguishes() {
        assert_eq!(hash_id(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(hash_id("a"), hash_id("b"));
        assert_eq!(hash_id("req-1"), hash_id("req-1"));
    }
}
