//! Deterministic, feature-gated fault injection.
//!
//! Production code marks *named sites* where a fault could occur —
//! `faults::check("worker.simulate")` before running a job,
//! `faults::take_io("store.append")` before a write — and a chaos test
//! installs a seeded rule set saying which sites misbehave and how. With
//! the `fault-injection` feature disabled (the default), every site
//! compiles to an inline no-op: production binaries carry no injection
//! machinery and no global state.
//!
//! Determinism: each rule owns a [`SplitMix64`](ucsim_model::SplitMix64)
//! stream seeded from `seed ^ fnv1a(site)`, and fire decisions consume
//! that stream in site-hit order. Which *thread* observes a given hit is
//! scheduling-dependent, but the number of fires across N hits — the
//! quantity chaos tests assert on — is a pure function of `(seed, rules,
//! N)`.
//!
//! Rules may optionally carry a `target` — a dynamic instance label such
//! as a peer's `host:port` — checked by the `*_at` site markers. A rule
//! with `target: None` fires at every instance of its site; a targeted
//! rule fires only when the site reports a matching target. Cluster chaos
//! tests use this to partition *one* node of an in-process cluster (the
//! harness is process-global, so all nodes share it).
//!
//! Sites currently instrumented (see DESIGN.md §4.2):
//!
//! | site              | faults honored            | placed at                       |
//! |-------------------|---------------------------|---------------------------------|
//! | `worker.pre_sim`  | [`FaultAction::DelayMs`]  | after a job is marked running   |
//! | `worker.simulate` | [`FaultAction::Panic`]    | immediately before simulation   |
//! | `store.append`    | [`FaultAction::IoError`], [`FaultAction::TornWrite`] | the `results.log` write path |
//! | `peer.connect`    | [`FaultAction::IoError`]  | peer transport, before connect (connect refused; target = peer addr) |
//! | `peer.request`    | [`FaultAction::DelayMs`]  | peer transport, before the request is written (response delay; target = peer addr) |
//! | `peer.recv`       | [`FaultAction::IoError`], [`FaultAction::TornWrite`] | peer transport, while reading the response (mid-body drop; target = peer addr) |

/// What an installed rule does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Panic with a recognizable payload (`injected fault at <site>`).
    Panic,
    /// Sleep this many milliseconds (push a job past its deadline).
    DelayMs(u64),
    /// Report an I/O error to the caller of [`take_io`].
    IoError,
    /// Report a torn write: the caller should write only the first
    /// `keep` bytes of the record, then fail — simulating a crash
    /// mid-append.
    TornWrite {
        /// Bytes of the record that reach the disk before the "crash".
        keep: usize,
    },
}

/// When a rule fires, as a function of the site's hit count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FireMode {
    /// Fire on each hit independently with this probability, drawn from
    /// the rule's seeded stream.
    Prob(f64),
    /// Fire on the first `n` hits, then never again.
    First(u64),
    /// Fire on every `n`-th hit (1-based: hits n, 2n, 3n, …).
    EveryNth(u64),
}

/// An I/O fault surfaced to a store write path via [`take_io`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Fail the write outright.
    Error,
    /// Write only the first `keep` bytes, then fail.
    Torn {
        /// Bytes that reach the disk before the simulated crash.
        keep: usize,
    },
}

/// One injection rule: at `site`, perform `action` per `mode`.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// The named site this rule arms.
    pub site: &'static str,
    /// What happens when the rule fires.
    pub action: FaultAction,
    /// When it fires.
    pub mode: FireMode,
    /// Restricts the rule to one site instance (e.g. a peer address seen
    /// by the `*_at` markers). `None` fires at every instance.
    pub target: Option<String>,
}

#[cfg(feature = "fault-injection")]
mod armed {
    use super::{FaultAction, FaultRule, FireMode, IoFault};
    use std::sync::{Mutex, OnceLock};
    use ucsim_model::{fnv1a, SplitMix64};

    struct ArmedRule {
        rule: FaultRule,
        rng: SplitMix64,
        hits: u64,
        fired: u64,
    }

    impl ArmedRule {
        /// Decides whether this hit fires, consuming the seeded stream.
        fn draw(&mut self) -> bool {
            self.hits += 1;
            let fire = match self.rule.mode {
                FireMode::Prob(p) => self.rng.chance(p),
                FireMode::First(n) => self.hits <= n,
                FireMode::EveryNth(n) => n > 0 && self.hits.is_multiple_of(n),
            };
            if fire {
                self.fired += 1;
            }
            fire
        }
    }

    #[derive(Default)]
    struct Harness {
        rules: Vec<ArmedRule>,
    }

    fn state() -> &'static Mutex<Option<Harness>> {
        static STATE: OnceLock<Mutex<Option<Harness>>> = OnceLock::new();
        STATE.get_or_init(|| Mutex::new(None))
    }

    /// Installs a rule set, replacing any previous one. Each rule's RNG is
    /// seeded from `seed ^ fnv1a(site)` (targeted rules additionally fold
    /// in `fnv1a(target)`) so distinct rules draw independent
    /// deterministic streams.
    pub fn install(seed: u64, rules: Vec<FaultRule>) {
        let armed = rules
            .into_iter()
            .map(|rule| ArmedRule {
                rng: SplitMix64::new(
                    seed ^ fnv1a(rule.site.as_bytes())
                        ^ rule.target.as_deref().map_or(0, |t| fnv1a(t.as_bytes())),
                ),
                rule,
                hits: 0,
                fired: 0,
            })
            .collect();
        *state().lock().expect("faults lock") = Some(Harness { rules: armed });
    }

    /// Whether `rule` applies to this hit: the site must match, and a
    /// targeted rule additionally requires the site to report the same
    /// target instance.
    fn applies(rule: &FaultRule, site: &str, target: Option<&str>) -> bool {
        rule.site == site && rule.target.as_deref().is_none_or(|t| Some(t) == target)
    }

    /// Disarms every site. Subsequent checks are no-ops.
    pub fn clear() {
        *state().lock().expect("faults lock") = None;
    }

    /// Evaluates `site` against Panic/Delay rules. Panics or sleeps
    /// *after* releasing the harness lock, so an injected panic never
    /// poisons the injection state.
    pub fn check(site: &str) {
        check_impl(site, None);
    }

    /// Like [`check`], for a specific site instance: untargeted rules and
    /// rules targeting exactly `target` fire.
    pub fn check_at(site: &str, target: &str) {
        check_impl(site, Some(target));
    }

    fn check_impl(site: &str, target: Option<&str>) {
        let mut action: Option<FaultAction> = None;
        {
            let mut guard = state().lock().expect("faults lock");
            if let Some(h) = guard.as_mut() {
                for r in h
                    .rules
                    .iter_mut()
                    .filter(|r| applies(&r.rule, site, target))
                {
                    let a = r.rule.action;
                    match a {
                        FaultAction::Panic | FaultAction::DelayMs(_) if r.draw() => {
                            action = Some(a);
                            break;
                        }
                        _ => {}
                    }
                }
            }
        }
        match action {
            Some(FaultAction::Panic) => panic!("injected fault at {site}"),
            Some(FaultAction::DelayMs(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            _ => {}
        }
    }

    /// Evaluates `site` against I/O rules, returning the fault the write
    /// path must emulate, if one fired.
    pub fn take_io(site: &str) -> Option<IoFault> {
        take_io_impl(site, None)
    }

    /// Like [`take_io`], for a specific site instance: untargeted rules
    /// and rules targeting exactly `target` fire.
    pub fn take_io_at(site: &str, target: &str) -> Option<IoFault> {
        take_io_impl(site, Some(target))
    }

    fn take_io_impl(site: &str, target: Option<&str>) -> Option<IoFault> {
        let mut guard = state().lock().expect("faults lock");
        let h = guard.as_mut()?;
        for r in h
            .rules
            .iter_mut()
            .filter(|r| applies(&r.rule, site, target))
        {
            let a = r.rule.action;
            match a {
                FaultAction::IoError if r.draw() => return Some(IoFault::Error),
                FaultAction::TornWrite { keep } if r.draw() => return Some(IoFault::Torn { keep }),
                _ => {}
            }
        }
        None
    }

    /// Total fires across all rules armed at `site` since [`install`].
    pub fn fired(site: &str) -> u64 {
        state()
            .lock()
            .expect("faults lock")
            .as_ref()
            .map(|h| {
                h.rules
                    .iter()
                    .filter(|r| r.rule.site == site)
                    .map(|r| r.fired)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Total draws across all rules armed at `site` since [`install`].
    pub fn hits(site: &str) -> u64 {
        state()
            .lock()
            .expect("faults lock")
            .as_ref()
            .map(|h| {
                h.rules
                    .iter()
                    .filter(|r| r.rule.site == site)
                    .map(|r| r.hits)
                    .sum()
            })
            .unwrap_or(0)
    }
}

#[cfg(feature = "fault-injection")]
pub use armed::{check, check_at, clear, fired, hits, install, take_io, take_io_at};

/// No-op site marker (the `fault-injection` feature is disabled).
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn check(_site: &str) {}

/// No-op targeted site marker (the `fault-injection` feature is
/// disabled).
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn check_at(_site: &str, _target: &str) {}

/// No-op I/O site marker (the `fault-injection` feature is disabled).
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn take_io(_site: &str) -> Option<IoFault> {
    None
}

/// No-op targeted I/O site marker (the `fault-injection` feature is
/// disabled).
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn take_io_at(_site: &str, _target: &str) -> Option<IoFault> {
    None
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    // The harness is process-global; tests that install rules must not
    // run concurrently with each other. Serialize them with a local lock.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn seeded_prob_fire_count_is_deterministic() {
        let _g = serial();
        let rules = || {
            vec![FaultRule {
                site: "t.prob",
                action: FaultAction::DelayMs(0),
                mode: FireMode::Prob(0.3),
                target: None,
            }]
        };
        install(7, rules());
        for _ in 0..1000 {
            check("t.prob");
        }
        let first = fired("t.prob");
        assert_eq!(hits("t.prob"), 1000);
        assert!(first > 200 && first < 400, "p=0.3 of 1000: {first}");
        install(7, rules());
        for _ in 0..1000 {
            check("t.prob");
        }
        assert_eq!(fired("t.prob"), first, "same seed, same fire count");
        clear();
    }

    #[test]
    fn first_n_and_every_nth_modes() {
        let _g = serial();
        install(
            1,
            vec![
                FaultRule {
                    site: "t.first",
                    action: FaultAction::IoError,
                    mode: FireMode::First(2),
                    target: None,
                },
                FaultRule {
                    site: "t.nth",
                    action: FaultAction::TornWrite { keep: 3 },
                    mode: FireMode::EveryNth(3),
                    target: None,
                },
            ],
        );
        let got: Vec<_> = (0..5).map(|_| take_io("t.first")).collect();
        assert_eq!(
            got,
            vec![Some(IoFault::Error), Some(IoFault::Error), None, None, None]
        );
        let torn: Vec<_> = (0..6).map(|_| take_io("t.nth")).collect();
        assert_eq!(torn[2], Some(IoFault::Torn { keep: 3 }));
        assert_eq!(torn[5], Some(IoFault::Torn { keep: 3 }));
        assert_eq!(torn.iter().filter(|t| t.is_some()).count(), 2);
        clear();
    }

    #[test]
    fn injected_panic_carries_site_name_and_spares_the_harness() {
        let _g = serial();
        install(
            3,
            vec![FaultRule {
                site: "t.panic",
                action: FaultAction::Panic,
                mode: FireMode::First(1),
                target: None,
            }],
        );
        let r = std::panic::catch_unwind(|| check("t.panic"));
        let payload = r.expect_err("first hit panics");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("injected fault at t.panic"), "{msg}");
        // The harness survived the panic (lock released before unwinding).
        check("t.panic"); // First(1) exhausted: no panic
        assert_eq!(fired("t.panic"), 1);
        assert_eq!(hits("t.panic"), 2);
        clear();
    }

    #[test]
    fn unarmed_sites_are_no_ops() {
        let _g = serial();
        clear();
        check("t.nothing");
        assert_eq!(take_io("t.nothing"), None);
        assert_eq!(fired("t.nothing"), 0);
    }

    #[test]
    fn targeted_rules_fire_only_for_their_instance() {
        let _g = serial();
        install(
            5,
            vec![FaultRule {
                site: "t.peer",
                action: FaultAction::IoError,
                mode: FireMode::First(10),
                target: Some("10.0.0.2:7199".to_owned()),
            }],
        );
        // A different instance of the same site: the rule stays silent.
        assert_eq!(take_io_at("t.peer", "10.0.0.3:7199"), None);
        // The untargeted marker never matches a targeted rule.
        assert_eq!(take_io("t.peer"), None);
        // The matching instance fires.
        assert_eq!(take_io_at("t.peer", "10.0.0.2:7199"), Some(IoFault::Error));
        assert_eq!(fired("t.peer"), 1);
        clear();
    }

    #[test]
    fn untargeted_rules_fire_at_every_instance() {
        let _g = serial();
        install(
            5,
            vec![FaultRule {
                site: "t.any",
                action: FaultAction::IoError,
                mode: FireMode::First(10),
                target: None,
            }],
        );
        assert_eq!(take_io_at("t.any", "a:1"), Some(IoFault::Error));
        assert_eq!(take_io_at("t.any", "b:2"), Some(IoFault::Error));
        assert_eq!(take_io("t.any"), Some(IoFault::Error));
        assert_eq!(fired("t.any"), 3);
        clear();
    }

    #[test]
    fn targeted_delay_rules_follow_the_same_filter() {
        let _g = serial();
        install(
            9,
            vec![FaultRule {
                site: "t.delay",
                action: FaultAction::DelayMs(0),
                mode: FireMode::First(1),
                target: Some("x:1".to_owned()),
            }],
        );
        check_at("t.delay", "y:2"); // no match: draw not consumed
        assert_eq!(fired("t.delay"), 0);
        check_at("t.delay", "x:1");
        assert_eq!(fired("t.delay"), 1);
        clear();
    }
}
