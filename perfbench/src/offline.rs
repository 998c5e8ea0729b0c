//! The offline workloads: `cold-cells` (direct single-cell runs, nothing
//! shared) and `sweep-replay` (a capacity × policy sweep replayed over
//! recorded streams).

use std::time::{Duration, Instant};

use ucsim_bench::{MatrixCross, SweepPolicy};
use ucsim_model::ToJson;
use ucsim_pipeline::{run_configs_on_trace, LabeledConfig, PwTrace, SimConfig, Simulator};
use ucsim_trace::{record_workload, Program, SharedTrace, WorkloadProfile};

use ucsim_serve::fnv1a;

use crate::common::{rng, shuffle, Checks, RepeatCheck, Threads, Timed, Workload};
use crate::spans::Tracer;

/// `cold-cells` run length: short enough that a run times well over a
/// thousand cells, long enough that the simulator, not set-up of its
/// structures, is most of a cell.
const COLD_WARMUP: u64 = 2_000;
const COLD_INSTS: u64 = 18_000;
/// Seeds per Table II profile in the schedule. Cells rotate through all
/// thirteen profiles, so every stretch of the schedule has the same
/// profile mix and the latency quantiles do not depend on the seed.
const COLD_SEEDS_PER_PROFILE: usize = 16;

/// Samples checked against the trace path after the timed phase.
const CHECK_SAMPLES: usize = 6;

/// Many distinct (Table II profile, seed) cells, each generated and
/// simulated from scratch through `Program::generate` + `Simulator::run`
/// at the Table I configuration.
pub struct ColdCells {
    seed: u64,
    cfg: SimConfig,
    schedule: Vec<WorkloadProfile>,
    next: usize,
    repeats: RepeatCheck,
}

impl ColdCells {
    pub fn new(seed: u64) -> ColdCells {
        ColdCells {
            seed,
            cfg: SimConfig::table1().with_insts(COLD_WARMUP, COLD_INSTS),
            schedule: Vec::new(),
            next: 0,
            repeats: RepeatCheck::default(),
        }
    }

    fn run_cell(&self, tr: &Tracer, p: &WorkloadProfile) -> ucsim_pipeline::SimReport {
        let program = tr.span("trace.generate", || Program::generate(p));
        tr.span_work(
            "pipeline.run",
            self.cfg.warmup_insts + self.cfg.measure_insts,
            || Simulator::new(self.cfg.clone()).run(p, &program),
        )
    }
}

impl Workload for ColdCells {
    fn setup(&mut self, tr: &Tracer) -> Result<(), String> {
        let mut r = rng(self.seed, 1);
        let table2 = WorkloadProfile::table2();
        let mut schedule = Vec::with_capacity(table2.len() * COLD_SEEDS_PER_PROFILE);
        for _ in 0..COLD_SEEDS_PER_PROFILE {
            let mut round = table2.clone();
            shuffle(&mut round, &mut r);
            for mut p in round {
                p.seed = r.next_u64();
                schedule.push(p);
            }
        }
        self.schedule = schedule;
        self.repeats = RepeatCheck::default();
        // The warm-up op: the first cell of every profile class.
        for slot in 0..table2.len() {
            let rep = tr.op(slot as u64 + 1, "warmup", || {
                self.run_cell(tr, &self.schedule[slot])
            });
            self.repeats
                .observe(slot, fnv1a(rep.to_json_string().as_bytes()));
        }
        self.next = table2.len();
        Ok(())
    }

    fn timed(&mut self, tr: &Tracer, dur: Duration, max_ops: u64) -> Timed {
        let mut t = Timed::default();
        let start = Instant::now();
        while start.elapsed() < dur && t.attempted < max_ops {
            let slot = self.next % self.schedule.len();
            self.next += 1;
            let t0 = Instant::now();
            let rep = tr.op(self.next as u64, "op", || {
                self.run_cell(tr, &self.schedule[slot])
            });
            let lat = t0.elapsed();
            t.attempted += 1;
            if !self
                .repeats
                .observe(slot, fnv1a(rep.to_json_string().as_bytes()))
            {
                t.failed += 1;
                eprintln!("perfbench: cold-cells slot {slot}: report differs from its first run");
            }
            t.record("cell", lat, self.cfg.warmup_insts + rep.insts);
        }
        t.wall_s = start.elapsed().as_secs_f64();
        t
    }

    fn check(&mut self, tr: &Tracer) -> Checks {
        // The direct path must equal the recorded-trace path byte for byte.
        let mut c = Checks::default();
        let mut r = rng(self.seed, 2);
        for _ in 0..CHECK_SAMPLES {
            let slot = r.index(self.schedule.len());
            let p = &self.schedule[slot];
            let direct = self.run_cell(tr, p).to_json_string();
            let program = Program::generate(p);
            let trace = record_workload(p, &program, COLD_WARMUP + COLD_INSTS);
            let via_trace = Simulator::new(self.cfg.clone())
                .run_trace(p.name, &trace)
                .to_json_string();
            c.expect(
                direct == via_trace,
                &format!("cold-cells {}: run == run_trace", p.name),
            );
            c.expect(
                self.repeats.observe(slot, fnv1a(direct.as_bytes())),
                &format!("cold-cells {}: check run equals timed run", p.name),
            );
        }
        c
    }

    fn teardown(&mut self) {}

    fn input_digest(&self) -> u64 {
        let mut buf = Vec::new();
        for p in &self.schedule {
            buf.extend_from_slice(p.name.as_bytes());
            buf.extend_from_slice(&p.seed.to_le_bytes());
        }
        fnv1a(&buf)
    }

    fn report_digest(&self) -> u64 {
        self.repeats.digest()
    }

    fn threads(&self) -> Threads {
        Threads {
            sim_threads: 1,
            ..Threads::default()
        }
    }

    fn probe_profiles(&self) -> Vec<WorkloadProfile> {
        // The sweep's profiles: both ends of the footprint range and two between.
        let mut r = rng(self.seed, 3);
        SWEEP_PROFILES
            .iter()
            .map(|name| {
                let mut p = WorkloadProfile::by_name(name).expect("Table II profile");
                p.seed = r.next_u64();
                p
            })
            .collect()
    }
}

/// Profiles of the sweep: code footprints from ~5K to ~57K static
/// instructions, so the 2K..64K capacity axis crosses each one's knee.
const SWEEP_PROFILES: [&str; 4] = ["bm-x64", "redis", "jvm", "bm-cc"];
const SWEEP_WARMUP: u64 = 10_000;
const SWEEP_INSTS: u64 = 40_000;

struct Recorded {
    profile: WorkloadProfile,
    trace: SharedTrace,
    pwt: PwTrace,
}

/// A Table I capacity (2K..64K) × policy (baseline/CLASP/RAC/PWAC/F-PWAC)
/// sweep over four profiles. Recording happens in set-up; each op
/// replays one cell, which is the per-cell step of
/// `run_configs_on_trace`.
pub struct SweepReplay {
    seed: u64,
    ladder: Vec<LabeledConfig>,
    recorded: Vec<Recorded>,
    /// (profile index, ladder index), in a seeded order.
    cells: Vec<(usize, usize)>,
    next: usize,
    repeats: RepeatCheck,
}

impl SweepReplay {
    pub fn new(seed: u64) -> SweepReplay {
        let ladder = MatrixCross {
            capacities: MatrixCross::table1_capacities(),
            policies: SweepPolicy::ALL.to_vec(),
            max_entries: 2,
        }
        .expand()
        .into_iter()
        .map(|lc| LabeledConfig::new(&lc.label, lc.config.with_insts(SWEEP_WARMUP, SWEEP_INSTS)))
        .collect();
        SweepReplay {
            seed,
            ladder,
            recorded: Vec::new(),
            cells: Vec::new(),
            next: 0,
            repeats: RepeatCheck::default(),
        }
    }

    fn replay(&self, tr: &Tracer, cell: (usize, usize)) -> ucsim_pipeline::SimReport {
        let rec = &self.recorded[cell.0];
        tr.span_work("pipeline.replay", SWEEP_WARMUP + SWEEP_INSTS, || {
            rec.pwt
                .replay(rec.profile.name, &self.ladder[cell.1].config)
        })
    }

    fn slot(&self, cell: (usize, usize)) -> usize {
        cell.0 * self.ladder.len() + cell.1
    }
}

impl Workload for SweepReplay {
    fn setup(&mut self, tr: &Tracer) -> Result<(), String> {
        let mut r = rng(self.seed, 1);
        let total = SWEEP_WARMUP + SWEEP_INSTS;
        self.recorded = SWEEP_PROFILES
            .iter()
            .map(|name| {
                let mut profile = WorkloadProfile::by_name(name).expect("Table II profile");
                profile.seed = r.next_u64();
                let program = tr.span("trace.generate", || Program::generate(&profile));
                let trace = tr.span_work("trace.record", total, || {
                    record_workload(&profile, &program, total)
                });
                let pwt = tr.span_work("bpu.pw_record", total, || {
                    PwTrace::record(&trace, &self.ladder[0].config)
                });
                Recorded {
                    profile,
                    trace,
                    pwt,
                }
            })
            .collect();
        let mut cells: Vec<(usize, usize)> = (0..self.recorded.len())
            .flat_map(|p| (0..self.ladder.len()).map(move |c| (p, c)))
            .collect();
        shuffle(&mut cells, &mut r);
        self.cells = cells;
        self.repeats = RepeatCheck::default();
        let first = self.cells[0];
        let rep = tr.op(1, "warmup", || self.replay(tr, first));
        let slot = self.slot(first);
        self.repeats
            .observe(slot, fnv1a(rep.to_json_string().as_bytes()));
        self.next = 1;
        Ok(())
    }

    fn timed(&mut self, tr: &Tracer, dur: Duration, max_ops: u64) -> Timed {
        let mut t = Timed::default();
        let start = Instant::now();
        while start.elapsed() < dur && t.attempted < max_ops {
            let cell = self.cells[self.next % self.cells.len()];
            self.next += 1;
            let t0 = Instant::now();
            let rep = tr.op(self.next as u64, "op", || self.replay(tr, cell));
            let lat = t0.elapsed();
            t.attempted += 1;
            let slot = self.slot(cell);
            if !self
                .repeats
                .observe(slot, fnv1a(rep.to_json_string().as_bytes()))
            {
                t.failed += 1;
                eprintln!("perfbench: sweep-replay cell {slot}: report differs from its first run");
            }
            t.record("cell", lat, SWEEP_WARMUP + rep.insts);
        }
        t.wall_s = start.elapsed().as_secs_f64();
        t
    }

    fn check(&mut self, tr: &Tracer) -> Checks {
        let mut c = Checks::default();
        let mut r = rng(self.seed, 2);
        for _ in 0..CHECK_SAMPLES {
            let cell = self.cells[r.index(self.cells.len())];
            let rec = &self.recorded[cell.0];
            let lc = &self.ladder[cell.1];
            let replayed = self.replay(tr, cell).to_json_string();
            let direct = Simulator::new(lc.config.clone())
                .run_trace(rec.profile.name, &rec.trace)
                .to_json_string();
            c.expect(
                replayed == direct,
                &format!(
                    "sweep-replay {} {}: replay == run_trace",
                    rec.profile.name, lc.label
                ),
            );
            c.expect(
                self.repeats
                    .observe(self.slot(cell), fnv1a(replayed.as_bytes())),
                &format!(
                    "sweep-replay {} {}: check equals timed run",
                    rec.profile.name, lc.label
                ),
            );
        }
        // The public sweep entry point agrees with per-cell replay.
        let rec = &self.recorded[r.index(self.recorded.len())];
        let sweep = run_configs_on_trace(rec.profile.name, &rec.trace, &self.ladder[..3]);
        for (lc, rep) in self.ladder.iter().zip(&sweep) {
            c.expect(
                rep.to_json_string()
                    == rec
                        .pwt
                        .replay(rec.profile.name, &lc.config)
                        .to_json_string(),
                &format!(
                    "sweep-replay {} {}: run_configs_on_trace == replay",
                    rec.profile.name, lc.label
                ),
            );
        }
        c
    }

    fn teardown(&mut self) {}

    fn input_digest(&self) -> u64 {
        let mut buf = Vec::new();
        for rec in &self.recorded {
            buf.extend_from_slice(rec.profile.name.as_bytes());
            buf.extend_from_slice(&rec.profile.seed.to_le_bytes());
        }
        for (p, c) in &self.cells {
            buf.extend_from_slice(&(*p as u64).to_le_bytes());
            buf.extend_from_slice(&(*c as u64).to_le_bytes());
        }
        fnv1a(&buf)
    }

    fn report_digest(&self) -> u64 {
        self.repeats.digest()
    }

    fn threads(&self) -> Threads {
        Threads {
            sim_threads: 1,
            ..Threads::default()
        }
    }

    fn probe_profiles(&self) -> Vec<WorkloadProfile> {
        self.recorded.iter().map(|r| r.profile.clone()).collect()
    }
}
