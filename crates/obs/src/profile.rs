//! Per-job stage profiles: where did the wall time go inside one job?
//!
//! The pipeline's hot loop calls [`stage_start`]/[`StageTimer::stop`]
//! around each front-end stage and [`counter_add`] once per run with
//! structure-counter deltas. Both write to a *thread-local* collector
//! that the serve worker installs with [`profile_begin`] just before
//! running a job and harvests with [`profile_end`] right after. When no
//! collector is active (CLI runs, benchmarks) the timers cost one
//! thread-local flag read; when the `enabled` feature is off they cost
//! nothing at all.
//!
//! Every stage call is counted, but only one call per [`Stage::stride`]
//! of each stage reads the clock: the middle call of each stride (calls
//! `32, 96, 160, …` of the job at stride 64), counted from
//! [`profile_begin`], so a job always times the same calls. Reading the
//! clock twice around a 20–100 ns stage call cost a third of a served
//! job's simulation time; sampling keeps the call counts exact and
//! scales the timed calls' sum up to all calls. Sampling mid-stride
//! keeps a job's first call, which pays for cold caches and freshly
//! built structures, from standing in for a whole stride (timing it
//! inflated `predict` by about a sixth).
//!
//! Profiles observe wall clocks only — never simulated state — so a
//! profiled run's report is byte-identical to an unprofiled one.

use ucsim_model::Json;

/// Per-call duration bucket bounds in nanoseconds (inclusive); a sixth
/// implicit bucket catches the overflow.
pub const STAGE_BOUNDS_NS: [u64; 5] = [1_000, 4_000, 16_000, 65_000, 262_000];

/// Number of instrumented pipeline stages.
pub const STAGE_COUNT: usize = 5;

/// Number of structure counters a profile carries.
pub const COUNTER_COUNT: usize = 5;

/// An instrumented front-end pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Branch prediction / prediction-window generation.
    Predict = 0,
    /// Uop-cache lookup and hit-path uop delivery.
    UcLookup = 1,
    /// Uop-cache fill (entry build + placement).
    UcFill = 2,
    /// Legacy decode path (I-cache fetch + decoders).
    Decode = 3,
    /// End-of-batch backend accounting (redirects, retire bookkeeping).
    Retire = 4,
}

impl Stage {
    /// All stages, in index order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Predict,
        Stage::UcLookup,
        Stage::UcFill,
        Stage::Decode,
        Stage::Retire,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Predict => "predict",
            Stage::UcLookup => "uc_lookup",
            Stage::UcFill => "uc_fill",
            Stage::Decode => "decode",
            Stage::Retire => "retire",
        }
    }

    /// Calls per timed call: the stage reads the clock on its calls
    /// `k·stride + stride/2` within a job.
    ///
    /// The cheap stages take 20–100 ns a call, about what reading the
    /// clock twice costs, so they time one call in 64. A decode call walks
    /// the I-cache and memory hierarchy for a whole window and takes
    /// 1–16 µs, so timing one in 8 costs under 1% of its time; at one in
    /// 64 a 4500-instruction job timed only 2–7 of those widely spread
    /// calls and its decode estimate came out up to twice the unsampled
    /// value.
    pub const fn stride(self) -> u64 {
        match self {
            Stage::Decode => 8,
            Stage::Predict | Stage::UcLookup | Stage::UcFill | Stage::Retire => 64,
        }
    }
}

/// Structure-counter deltas a job reports when it finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Uop-cache lookup hits.
    OcHits = 0,
    /// Uop-cache lookup misses.
    OcMisses = 1,
    /// Uop-cache entries evicted by fills.
    OcEvictions = 2,
    /// Fills compacted into an existing line (RAC/PWAC/F-PWAC).
    OcCompactions = 3,
    /// Prediction windows dispatched by the BPU.
    PwsDispatched = 4,
}

impl Counter {
    /// All counters, in index order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::OcHits,
        Counter::OcMisses,
        Counter::OcEvictions,
        Counter::OcCompactions,
        Counter::PwsDispatched,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::OcHits => "oc_hits",
            Counter::OcMisses => "oc_misses",
            Counter::OcEvictions => "oc_evictions",
            Counter::OcCompactions => "oc_compactions",
            Counter::PwsDispatched => "pws_dispatched",
        }
    }
}

/// Timing summary for one stage: call count, estimated total
/// nanoseconds, and a per-call duration histogram over
/// [`STAGE_BOUNDS_NS`] of the calls that were timed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageStat {
    /// Calls of the stage, every one counted.
    pub count: u64,
    /// Calls that read the clock: one per [`Stage::stride`], mid-stride,
    /// so `(count + stride/2 − 1) / stride` of them.
    pub timed: u64,
    /// Wall time of all `count` calls, nanoseconds: the timed calls' sum
    /// scaled by `count / timed` when the job ends.
    pub total_ns: u64,
    /// Per-call duration buckets of the timed calls (last = overflow).
    pub buckets: [u64; STAGE_BOUNDS_NS.len() + 1],
}

impl StageStat {
    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    fn record(&mut self, ns: u64) {
        self.timed += 1;
        self.total_ns += ns;
        let idx = STAGE_BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(STAGE_BOUNDS_NS.len());
        self.buckets[idx] += 1;
    }

    /// Closes a job's stat: `count` calls ran, of which the recorded
    /// `timed` ones read the clock; scales their sum to all calls.
    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    fn finish(&mut self, count: u64) {
        self.count = count;
        if self.timed > 0 {
            let scaled = u128::from(self.total_ns) * u128::from(count) / u128::from(self.timed);
            self.total_ns = u64::try_from(scaled).unwrap_or(u64::MAX);
        }
    }

    fn merge(&mut self, other: &StageStat) {
        self.count += other.count;
        self.timed += other.timed;
        self.total_ns += other.total_ns;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// A finished job's profile: per-stage timing plus counter deltas.
///
/// Mergeable ([`JobProfile::merge`]) so a sweep can aggregate its cells.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobProfile {
    /// Per-stage stats, indexed by [`Stage`] discriminant.
    pub stages: [StageStat; STAGE_COUNT],
    /// Counter deltas, indexed by [`Counter`] discriminant.
    pub counters: [u64; COUNTER_COUNT],
    /// Wall time between `profile_begin` and `profile_end`, ns.
    pub wall_ns: u64,
    /// Jobs folded into this profile (1 for a single job).
    pub jobs: u64,
}

impl JobProfile {
    /// Folds another profile into this one (sweep aggregation).
    pub fn merge(&mut self, other: &JobProfile) {
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            a.merge(b);
        }
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        self.wall_ns += other.wall_ns;
        self.jobs += other.jobs;
    }

    /// Canonical JSON form served by `GET /v1/jobs/:id/profile`.
    pub fn to_json(&self) -> Json {
        let stages = Stage::ALL
            .iter()
            .map(|&s| {
                let st = &self.stages[s as usize];
                (
                    s.name().to_owned(),
                    Json::Obj(vec![
                        ("count".to_owned(), Json::Uint(st.count)),
                        ("timed".to_owned(), Json::Uint(st.timed)),
                        ("total_ns".to_owned(), Json::Uint(st.total_ns)),
                        (
                            "bounds_ns".to_owned(),
                            Json::Arr(STAGE_BOUNDS_NS.iter().map(|&b| Json::Uint(b)).collect()),
                        ),
                        (
                            "buckets".to_owned(),
                            Json::Arr(st.buckets.iter().map(|&c| Json::Uint(c)).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name().to_owned(), Json::Uint(self.counters[c as usize])))
            .collect();
        Json::Obj(vec![
            ("jobs".to_owned(), Json::Uint(self.jobs)),
            ("wall_ns".to_owned(), Json::Uint(self.wall_ns)),
            ("stages".to_owned(), Json::Obj(stages)),
            ("counters".to_owned(), Json::Obj(counters)),
        ])
    }
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{JobProfile, Stage, STAGE_COUNT};
    use std::cell::{Cell, RefCell};
    use std::time::Instant;

    struct Active {
        profile: JobProfile,
        t0: Instant,
    }

    /// The state every stage call touches, in one thread-local.
    struct Hot {
        profiling: Cell<bool>,
        /// Calls of each stage since `profile_begin`.
        calls: [Cell<u64>; STAGE_COUNT],
    }

    thread_local! {
        // The hot path reads the flag and bumps a call count; only every
        // stride-th call touches the RefCell or the clock.
        static HOT: Hot = const {
            Hot {
                profiling: Cell::new(false),
                calls: [const { Cell::new(0) }; STAGE_COUNT],
            }
        };
        static COLLECTOR: RefCell<Option<Active>> = const { RefCell::new(None) };
    }

    pub fn profile_begin() {
        COLLECTOR.with(|c| {
            *c.borrow_mut() = Some(Active {
                profile: JobProfile {
                    jobs: 1,
                    ..JobProfile::default()
                },
                t0: Instant::now(),
            });
        });
        HOT.with(|h| {
            h.calls.iter().for_each(|c| c.set(0));
            h.profiling.set(true);
        });
    }

    pub fn profile_end() -> Option<JobProfile> {
        let calls = HOT.with(|h| {
            h.profiling.set(false);
            std::array::from_fn::<u64, STAGE_COUNT, _>(|i| h.calls[i].replace(0))
        });
        COLLECTOR.with(|c| {
            c.borrow_mut().take().map(|a| {
                let mut p = a.profile;
                p.wall_ns = a.t0.elapsed().as_nanos() as u64;
                for (stat, count) in p.stages.iter_mut().zip(calls) {
                    stat.finish(count);
                }
                p
            })
        })
    }

    /// An in-flight stage timing; `None` inside when profiling is off or
    /// this call is not one the stride times.
    pub struct StageTimer(Option<(Stage, Instant)>);

    #[inline]
    pub fn stage_start(stage: Stage) -> StageTimer {
        let timed = HOT.with(|h| {
            if !h.profiling.get() {
                return false;
            }
            let calls = &h.calls[stage as usize];
            let n = calls.get();
            calls.set(n + 1);
            n % stage.stride() == stage.stride() / 2
        });
        StageTimer(timed.then(|| (stage, Instant::now())))
    }

    impl StageTimer {
        /// Stops the timer and records the elapsed time.
        #[inline]
        pub fn stop(self) {
            if let Some((stage, t0)) = self.0 {
                let ns = t0.elapsed().as_nanos() as u64;
                COLLECTOR.with(|c| {
                    if let Some(a) = c.borrow_mut().as_mut() {
                        a.profile.stages[stage as usize].record(ns);
                    }
                });
            }
        }

        /// Whether this call reads the clock.
        #[cfg(test)]
        pub(crate) fn is_timed(&self) -> bool {
            self.0.is_some()
        }
    }

    #[inline]
    pub fn counter_add(counter: super::Counter, delta: u64) {
        if !HOT.with(|h| h.profiling.get()) {
            return;
        }
        COLLECTOR.with(|c| {
            if let Some(a) = c.borrow_mut().as_mut() {
                a.profile.counters[counter as usize] += delta;
            }
        });
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::{JobProfile, Stage};

    #[inline(always)]
    pub fn profile_begin() {}

    #[inline(always)]
    pub fn profile_end() -> Option<JobProfile> {
        None
    }

    /// Zero-sized stand-in for an in-flight stage timing.
    pub struct StageTimer;

    #[inline(always)]
    pub fn stage_start(_stage: Stage) -> StageTimer {
        StageTimer
    }

    impl StageTimer {
        /// No-op.
        #[inline(always)]
        pub fn stop(self) {}
    }

    #[inline(always)]
    pub fn counter_add(_counter: super::Counter, _delta: u64) {}
}

pub(crate) use imp::stage_start;
pub use imp::{counter_add, profile_begin, profile_end, StageTimer};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_json_names_every_stage_and_counter() {
        let p = JobProfile::default();
        let j = p.to_json();
        for s in Stage::ALL {
            assert!(j.get("stages").and_then(|v| v.get(s.name())).is_some());
        }
        for c in Counter::ALL {
            assert!(j.get("counters").and_then(|v| v.get(c.name())).is_some());
        }
    }

    #[test]
    fn merge_accumulates() {
        let mut a = JobProfile {
            jobs: 1,
            wall_ns: 10,
            ..JobProfile::default()
        };
        a.stages[0].record(500);
        a.stages[0].finish(64);
        a.counters[0] = 3;
        let mut b = JobProfile {
            jobs: 1,
            wall_ns: 20,
            ..JobProfile::default()
        };
        b.stages[0].record(2_000_000);
        b.stages[0].finish(1);
        b.counters[0] = 4;
        a.merge(&b);
        assert_eq!(a.jobs, 2);
        assert_eq!(a.wall_ns, 30);
        assert_eq!(a.counters[0], 7);
        assert_eq!(a.stages[0].count, 65);
        assert_eq!(a.stages[0].timed, 2);
        assert_eq!(a.stages[0].total_ns, 500 * 64 + 2_000_000);
        assert_eq!(a.stages[0].buckets[0], 1, "500ns in the first bucket");
        assert_eq!(
            a.stages[0].buckets[STAGE_BOUNDS_NS.len()],
            1,
            "2ms in the overflow bucket"
        );
    }

    #[test]
    fn finish_scales_the_timed_sum_to_every_call() {
        let mut s = StageStat::default();
        s.record(100);
        s.record(300);
        s.finish(128);
        assert_eq!((s.count, s.timed, s.total_ns), (128, 2, 200 * 128));
        assert_eq!(s.buckets[0], 2);
        // A stage that never read the clock stays at zero time.
        let mut idle = StageStat::default();
        idle.finish(0);
        assert_eq!(idle, StageStat::default());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn stride_counts_every_call_and_times_one_per_stride() {
        profile_begin();
        for _ in 0..1000 {
            stage_start(Stage::UcLookup).stop();
            stage_start(Stage::Decode).stop();
        }
        let p = profile_end().expect("collector active");
        let s = &p.stages[Stage::UcLookup as usize];
        assert_eq!(s.count, 1000);
        assert_eq!(s.timed, 16, "calls 32, 96, ..., 992");
        assert_eq!(s.buckets.iter().sum::<u64>(), 16);
        let d = &p.stages[Stage::Decode as usize];
        assert_eq!((d.count, d.timed), (1000, 125), "calls 4, 12, ..., 996");
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn back_to_back_jobs_time_the_same_calls() {
        // One job of `n` lookups: the indices of the calls it timed.
        let job = |n: usize| -> Vec<usize> {
            profile_begin();
            let idx: Vec<usize> = (0..n)
                .filter(|_| {
                    let t = stage_start(Stage::UcLookup);
                    let timed = t.is_timed();
                    t.stop();
                    timed
                })
                .collect();
            let p = profile_end().expect("collector active");
            assert_eq!(p.stages[Stage::UcLookup as usize].timed, idx.len() as u64);
            idx
        };
        // The first job stops mid-stride; the next starts over at call 0.
        assert_eq!(job(100), [32, 96]);
        assert_eq!(job(200), [32, 96, 160]);
        assert_eq!(job(200), job(200));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn collector_records_and_detaches() {
        assert!(profile_end().is_none(), "no collector installed yet");
        profile_begin();
        let t = stage_start(Stage::Decode);
        std::hint::black_box(());
        t.stop();
        counter_add(Counter::OcHits, 11);
        let p = profile_end().expect("collector active");
        assert_eq!(p.jobs, 1);
        assert_eq!(p.stages[Stage::Decode as usize].count, 1);
        assert_eq!(
            p.stages[Stage::Decode as usize].timed,
            0,
            "only call 32 on is timed"
        );
        assert_eq!(p.counters[Counter::OcHits as usize], 11);
        // After harvest the timers go quiet again.
        let t = stage_start(Stage::Decode);
        t.stop();
        counter_add(Counter::OcHits, 1);
        assert!(profile_end().is_none());
    }
}
