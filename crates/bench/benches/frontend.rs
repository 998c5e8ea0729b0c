//! Microbenchmarks of the front-end substrates: trace generation, TAGE
//! prediction, and prediction-window generation throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ucsim_bpu::{BpuConfig, SlicePwGen, Tage};
use ucsim_model::Addr;
use ucsim_trace::{Program, WorkloadProfile};

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

criterion_group!(
    benches,
    bench_trace_generation,
    bench_tage,
    bench_pw_generation
);
criterion_main!(benches);
