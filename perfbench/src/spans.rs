//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call it
//! makes into a workspace crate; nothing inside the program is
//! instrumented. A span carries its name, start and end, the span that
//! was open on the same thread when it began (its parent), the id of the
//! operation it belongs to (carried as `X-Request-Id` on served ops), and
//! an optional work count (instructions, branches, fills) so per-unit
//! rates are measured where the work happens. Spans stay in memory until
//! the run ends and are then written out as one JSON file.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which part of a run a span was recorded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Workload set-up (server start, recording, warm-up op).
    Setup = 0,
    /// The workload's own timed ops.
    Workload = 1,
    /// The per-layer probes.
    Probe = 2,
}

impl Phase {
    fn from_u8(v: u8) -> Phase {
        match v {
            0 => Phase::Setup,
            1 => Phase::Workload,
            _ => Phase::Probe,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Workload => "workload",
            Phase::Probe => "probe",
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    /// Operation id shared by every span of one op; 0 outside ops.
    pub op: u64,
    pub name: &'static str,
    pub phase: Phase,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work the call did (0 when not counted).
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans on this thread (innermost last) and the current op id.
    static STACK: RefCell<(Vec<u64>, u64)> = const { RefCell::new((Vec::new(), 0)) };
}

/// The recorder. Disabled, every method just runs its closure.
pub struct Tracer {
    on: AtomicBool,
    phase: AtomicU8,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            phase: AtomicU8::new(Phase::Setup as u8),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn set_phase(&self, phase: Phase) {
        self.phase.store(phase as u8, Ordering::Relaxed);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_work(name, 0, f)
    }

    /// Runs `f` inside a span that did `work` units of work.
    pub fn span_work<T>(&self, name: &'static str, work: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, op) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.0.last().copied().unwrap_or(0);
            s.0.push(id);
            (parent, s.1)
        });
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        STACK.with(|s| s.borrow_mut().0.pop());
        let span = Span {
            id,
            parent,
            op,
            name,
            phase: Phase::from_u8(self.phase.load(Ordering::Relaxed)),
            start_ns: start,
            end_ns: end,
            work,
        };
        self.spans.lock().expect("span buffer lock").push(span);
        out
    }

    /// Runs one op: a root span whose descendants share `op` as op id.
    pub fn op<T>(&self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let prev = STACK.with(|s| std::mem::replace(&mut s.borrow_mut().1, op));
        let out = self.span(name, f);
        STACK.with(|s| s.borrow_mut().1 = prev);
        out
    }

    /// Every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }
}

/// Durations (ns) of the spans named `name` in `phase`.
pub fn durations(spans: &[Span], phase: Phase, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.phase == phase && s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Total nanoseconds per unit of work over the spans named `name`; NaN
/// (which the result rejects as not measured) when there was no work.
pub fn ns_per_work(spans: &[Span], phase: Phase, name: &str) -> f64 {
    let (ns, work) = spans
        .iter()
        .filter(|s| s.phase == phase && s.name == name)
        .fold((0u64, 0u64), |(ns, w), s| (ns + s.dur_ns(), w + s.work));
    if work == 0 {
        return f64::NAN;
    }
    ns as f64 / work as f64
}

/// Per (phase, name): span count, total time and self time (total minus
/// the time covered by child spans), in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<(Phase, &'static str), (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<(Phase, &'static str), (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry((s.phase, s.name)).or_default();
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(children);
    }
    out
}

/// The self-time table as a JSON object keyed `<phase>/<name>`.
pub fn self_times_json(spans: &[Span]) -> String {
    let rows: Vec<String> = self_times(spans)
        .iter()
        .map(|((phase, name), (count, total, own))| {
            format!(
                "\"{}/{}\":{{\"count\":{},\"total_ms\":{:.3},\"self_ms\":{:.3}}}",
                phase.name(),
                name,
                count,
                *total as f64 / 1e6,
                *own as f64 / 1e6
            )
        })
        .collect();
    format!("{{{}}}", rows.join(","))
}

/// Writes every span as one JSON document.
pub fn write_json(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "{{\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":\"{:016x}\",\"name\":\"{}\",\"phase\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{}}}{sep}",
            s.id,
            s.parent,
            s.op,
            s.name,
            s.phase.name(),
            s.start_ns,
            s.end_ns,
            s.work
        )?;
    }
    writeln!(w, "],\"self_time\":{}}}", self_times_json(spans))?;
    w.flush()
}
