//! Microbenchmarks of the front-end substrates: trace generation, TAGE
//! prediction, prediction-window generation throughput, and the cost of
//! building (and tearing down) a simulator before it runs anything.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ucsim_bpu::{BpuConfig, SlicePwGen, Tage};
use ucsim_model::Addr;
use ucsim_pipeline::{SimConfig, Simulator};
use ucsim_trace::{Program, WorkloadProfile};
use ucsim_uopcache::{CompactionPolicy, UopCacheConfig};

fn bench_trace_generation(c: &mut Criterion) {
    let profile = WorkloadProfile::by_name("bm-ds").expect("profile");
    let program = Program::generate(&profile);
    let n = 100_000u64;
    let mut g = c.benchmark_group("trace");
    g.throughput(Throughput::Elements(n));
    g.bench_function("walk_100k_insts", |b| {
        b.iter(|| {
            let count = program.walk(&profile).take(n as usize).count();
            black_box(count)
        })
    });
    g.finish();
}

fn bench_tage(c: &mut Criterion) {
    let n = 100_000u64;
    let mut g = c.benchmark_group("tage");
    g.throughput(Throughput::Elements(n));
    g.bench_function("predict_update_100k", |b| {
        b.iter(|| {
            let mut t = Tage::new(Default::default());
            let mut mis = 0u64;
            for i in 0..n {
                let pc = Addr::new(0x1000 + (i % 512) * 8);
                let taken = (i / 3) % 5 != 0;
                let p = t.predict(pc);
                t.update(pc, taken, p);
                mis += u64::from(p != taken);
            }
            black_box(mis)
        })
    });
    g.finish();
}

fn bench_pw_generation(c: &mut Criterion) {
    let profile = WorkloadProfile::by_name("bm-ds").expect("profile");
    let program = Program::generate(&profile);
    let n = 100_000usize;
    let mut g = c.benchmark_group("pwgen");
    g.throughput(Throughput::Elements(n as u64));
    let insts: Vec<_> = program.walk(&profile).take(n).collect();
    g.bench_function("pws_over_100k_insts", |b| {
        b.iter(|| {
            let mut gen = SlicePwGen::new(BpuConfig::default(), &insts);
            let mut pws = 0u64;
            while gen.next_batch().is_some() {
                pws += 1;
            }
            black_box(pws)
        })
    });
    g.finish();
}

/// An empty Table I run with an F-PWAC uop cache of each swept capacity:
/// everything a served sweep cell pays besides simulating, i.e. building
/// every structure, reporting, and freeing them.
fn bench_setup(c: &mut Criterion) {
    let mut g = c.benchmark_group("setup");
    for (label, uops) in [
        ("empty_run_2k", 2048),
        ("empty_run_8k", 8192),
        ("empty_run_64k", 65536),
    ] {
        let oc = UopCacheConfig::baseline_with_capacity(uops)
            .with_compaction(CompactionPolicy::Fpwac, 2);
        let cfg = SimConfig::table1().with_uop_cache(oc);
        g.bench_function(label, |b| {
            b.iter(|| black_box(Simulator::new(cfg.clone()).run_slice("setup", &[])))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_trace_generation,
    bench_tage,
    bench_pw_generation,
    bench_setup
);
criterion_main!(benches);
