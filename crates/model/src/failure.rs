//! Stable failure vocabulary for job execution.
//!
//! Every way a simulation job can fail maps to one [`FailureKind`] with a
//! stable wire string — the `code` clients dispatch on, the record tag
//! the persistent store replays, and the label failure metrics count
//! under. Keeping the enum here (the bottom of the dependency graph) lets
//! the worker-pool supervisor, the pipeline, and the serving layer all
//! speak the same codes without depending on each other.

/// Why a job failed. The wire strings are a stable contract: they appear
/// in error envelopes, persisted `FAILED` store records, and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The simulation itself failed — a panic in the worker (payload
    /// captured in the message) or an unrunnable spec. Deterministic: the
    /// same spec fails the same way, so this outcome may be cached and
    /// persisted.
    SimulationFailed,
    /// The job exceeded its wall-clock deadline and was cancelled by the
    /// watchdog. Environment-dependent (load, scheduling), so never
    /// persisted — a retry may succeed.
    DeadlineExceeded,
    /// The server began draining before the job left the queue; it was
    /// failed rather than silently dropped. Transient by definition.
    ShuttingDown,
    /// The job was cancelled by an explicit client request
    /// (`DELETE /v1/jobs/:id`, `DELETE /v1/matrix/:id`) before it could
    /// finish. Environmental: resubmitting the same spec may succeed, so
    /// never persisted or negatively cached.
    Cancelled,
}

impl FailureKind {
    /// Every kind, in wire order (stable for iteration in docs/tests).
    pub const ALL: [FailureKind; 4] = [
        FailureKind::SimulationFailed,
        FailureKind::DeadlineExceeded,
        FailureKind::ShuttingDown,
        FailureKind::Cancelled,
    ];

    /// The stable wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::SimulationFailed => "simulation_failed",
            FailureKind::DeadlineExceeded => "deadline_exceeded",
            FailureKind::ShuttingDown => "shutting_down",
            FailureKind::Cancelled => "cancelled",
        }
    }

    /// Parses a wire string back to the kind.
    pub fn parse(s: &str) -> Option<FailureKind> {
        FailureKind::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// True when the same spec would deterministically fail again — the
    /// soundness condition for caching and persisting this failure.
    pub fn is_deterministic(self) -> bool {
        matches!(self, FailureKind::SimulationFailed)
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_strings_round_trip() {
        for k in FailureKind::ALL {
            assert_eq!(FailureKind::parse(k.as_str()), Some(k));
            assert_eq!(format!("{k}"), k.as_str());
        }
        assert_eq!(FailureKind::parse("nope"), None);
    }

    #[test]
    fn only_simulation_failures_are_deterministic() {
        assert!(FailureKind::SimulationFailed.is_deterministic());
        assert!(!FailureKind::DeadlineExceeded.is_deterministic());
        assert!(!FailureKind::ShuttingDown.is_deterministic());
        assert!(!FailureKind::Cancelled.is_deterministic());
    }
}
