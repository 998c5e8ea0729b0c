//! Pieces every workload shares: the workload interface, op samples,
//! quantiles, repeat digests, the reference loop and host facts.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ucsim_model::SplitMix64;
use ucsim_serve::fnv1a;

use crate::spans::Tracer;

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Host latency of every completed op, in milliseconds.
    pub lat_ms: Vec<f64>,
    /// Latencies split by op class (served workloads).
    pub by_class: BTreeMap<&'static str, Vec<f64>>,
    /// Wall time of the phase.
    pub wall_s: f64,
    /// Simulated instructions (warm-up + measured) completed in the phase.
    pub sim_insts: u64,
    pub attempted: u64,
    /// Ops that failed, were refused, or failed a correctness check.
    pub failed: u64,
}

impl Timed {
    pub fn record(&mut self, class: &'static str, lat: Duration, insts: u64) {
        let ms = lat.as_secs_f64() * 1e3;
        self.lat_ms.push(ms);
        self.by_class.entry(class).or_default().push(ms);
        self.sim_insts += insts;
    }

    /// Folds another client's samples into this one (same phase).
    pub fn merge(&mut self, other: Timed) {
        self.lat_ms.extend(other.lat_ms);
        for (k, v) in other.by_class {
            self.by_class.entry(k).or_default().extend(v);
        }
        self.sim_insts += other.sim_insts;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Output checks made outside the timed phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub run: u64,
    pub failed: u64,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: &str) {
        self.run += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// Thread counts of a workload, for provenance.
#[derive(Debug, Default, Clone, Copy)]
pub struct Threads {
    pub clients: usize,
    pub nodes: usize,
    pub workers_per_node: usize,
    pub sim_threads: usize,
}

/// One benchmark workload.
pub trait Workload {
    /// One complete set-up: every piece of one-time work the workload
    /// pays before its first timed op, ending with the untimed warm-up
    /// (one op, or one per profile class). Calling it again replaces
    /// the previous state.
    fn setup(&mut self, tr: &Tracer) -> Result<(), String>;

    /// Runs ops until `dur` has passed or `max_ops` ops were attempted
    /// (split evenly over the clients). Ops that fail, or whose output
    /// fails an inline check, count in `failed`.
    fn timed(&mut self, tr: &Tracer, dur: Duration, max_ops: u64) -> Timed;

    /// Correctness checks made after the timed phase.
    fn check(&mut self, tr: &Tracer) -> Checks;

    /// Releases servers and temporary files.
    fn teardown(&mut self);

    /// Digest of the generated inputs (differs between seeds).
    fn input_digest(&self) -> u64;

    /// Digest of every distinct report the run produced, in schedule
    /// order (equal across runs with the same seed).
    fn report_digest(&self) -> u64;

    fn threads(&self) -> Threads;

    /// The workload profiles the layer probes run on.
    fn probe_profiles(&self) -> Vec<ucsim_trace::WorkloadProfile>;
}

/// Linear-interpolated quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Tracks the report of each schedule slot: the first completion sets
/// it, every repeat must match it.
#[derive(Debug, Default)]
pub struct RepeatCheck {
    seen: BTreeMap<usize, u64>,
}

impl RepeatCheck {
    /// Records slot `slot`'s report hash; false when a repeat differs.
    pub fn observe(&mut self, slot: usize, hash: u64) -> bool {
        *self.seen.entry(slot).or_insert(hash) == hash
    }

    /// Digest over every slot's report hash, in slot order.
    pub fn digest(&self) -> u64 {
        let mut buf = Vec::with_capacity(16 * self.seen.len());
        for (slot, h) in &self.seen {
            buf.extend_from_slice(&(*slot as u64).to_le_bytes());
            buf.extend_from_slice(&h.to_le_bytes());
        }
        fnv1a(&buf)
    }
}

/// Seeded stream of derived values; every generated input comes from it.
pub fn rng(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::new(ucsim_model::mix64(
        seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    ))
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// A scratch directory inside the working directory, removed by `Drop`.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let dir = std::env::current_dir()?
            .join(".perfbench")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Rate of a fixed integer loop, in million iterations per second: the
/// median of five ~40 ms passes. Host speed drift moves this number and
/// a code regression does not, so the two can be told apart.
pub fn ref_loop_mops() -> f64 {
    const ITERS: u64 = 4_000_000;
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = black_box(0x1234_5678_u64);
        for i in 0..ITERS {
            x = ucsim_model::mix64(x ^ i);
        }
        black_box(x);
        rates.push(ITERS as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    median(&rates)
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
