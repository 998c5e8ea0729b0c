//! Layer probes of the traced run: each times the public calls of one
//! crate in isolation on inputs recorded from the workload's own
//! profiles, inside spans, and the per-layer metrics are read back from
//! those spans.

use std::collections::BTreeMap;
use std::time::Instant;

use ucsim_bench::{MatrixCross, SweepPolicy};
use ucsim_bpu::{BpuConfig, Tage};
use ucsim_mem::{AccessKind, HierarchyConfig, MemoryHierarchy};
use ucsim_model::json::Json;
use ucsim_model::{DynInst, PwId, ToJson};
use ucsim_pipeline::{PwTrace, SimConfig, SimReport, Simulator};
use ucsim_serve::{fnv1a, ResultStore, ServerConfig, SimRequest};
use ucsim_trace::{record_workload, Program, WorkloadProfile};
use ucsim_uopcache::{AccumulationBuffer, UopCache, UopCacheConfig, UopCacheEntry};

use crate::common::{median, rng, ScratchDir};
use crate::served::{
    client, direct_report, is_cached, matrix_body, parse, peered_nodes, report_of, run_sweep, send,
    served_cfg, sim_body, start_node, upload_programs, wait_job, ASM_PROGRAMS, SERVED_PROFILES,
    SERVED_WARMUP,
};
use crate::spans::{durations, ns_per_work, Phase, Tracer};

/// Instructions recorded per probe profile.
const PROBE_WARMUP: u64 = 20_000;
const PROBE_INSTS: u64 = 80_000;
/// Repetitions of the calls that take microseconds.
const MICRO_REPS: usize = 200;

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Runs every probe and returns the per-layer metrics.
pub fn run_probes(tr: &Tracer, profiles: &[WorkloadProfile], seed: u64) -> Result<Metrics, String> {
    tr.set_phase(Phase::Probe);
    let mut m = Metrics::new();
    let mut reports = Vec::new();
    for p in profiles {
        reports.push(offline_probe(tr, p));
    }
    obs_probe(tr, profiles, &mut m);
    micro_probe(tr, &reports);
    serve_probe(tr, seed, &mut m)?;
    peer_probe(tr, seed, &mut m)?;

    let spans = tr.snapshot();
    let ms = |name: &str| median(&durations(&spans, Phase::Probe, name)) / 1e6;
    let per = |name: &str| ns_per_work(&spans, Phase::Probe, name);
    m.insert("trace.generate_ms", ms("trace.generate"));
    m.insert("trace.record_ns_per_inst", per("trace.record"));
    m.insert("bpu.pw_record_ns_per_inst", per("bpu.pw_record"));
    m.insert("bpu.tage_ns_per_branch", per("bpu.tage"));
    m.insert("uopcache.fill_ns.baseline", per("uopcache.fill.baseline"));
    m.insert("uopcache.fill_ns.fpwac", per("uopcache.fill.fpwac"));
    m.insert("uopcache.lookup_ns.2k", per("uopcache.lookup.2k"));
    m.insert("uopcache.lookup_ns.64k", per("uopcache.lookup.64k"));
    m.insert("mem.access_ns", per("mem.access"));
    m.insert("pipeline.run_trace_ns_per_inst", per("pipeline.run_trace"));
    m.insert("pipeline.replay_ns_per_inst", per("pipeline.replay"));
    m.insert(
        "pipeline.replay_par2_ns_per_inst",
        per("pipeline.replay_par2"),
    );
    m.insert("isa.assemble_us", per("isa.assemble") / 1e3);
    m.insert("model.request_parse_us", per("model.request_parse") / 1e3);
    m.insert("model.report_encode_us", per("model.report_encode") / 1e3);
    m.insert("serve.hit_p50_ms", ms("http.sim_hit"));
    m.insert("serve.miss_p50_ms", ms("http.sim_miss"));
    m.insert("serve.get_p50_ms", ms("http.job_get"));
    m.insert("serve.store_append_us", per("serve.store_append") / 1e3);
    m.insert(
        "serve.store_replay_ms_per_krec",
        per("serve.store_replay") / 1e3,
    );

    // Deterministic counts of the F-PWAC replays: divide host time by
    // them to get host time per simulated event.
    let n = reports.len() as f64;
    let mean = |f: &dyn Fn(&SimReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
    m.insert("uopcache.hit_rate", mean(&|r| r.oc_hit_rate));
    m.insert(
        "uopcache.fills_per_kinst",
        mean(&|r| r.oc_fills as f64 * 1e3 / r.insts.max(1) as f64),
    );
    m.insert(
        "uopcache.compacted_fill_frac",
        mean(&|r| r.compacted_fill_frac),
    );
    m.insert("bpu.mpki", mean(&|r| r.mpki));
    m.insert("pipeline.upc", mean(&|r| r.upc));
    Ok(m)
}

/// The Table I configuration at probe length with a policy applied.
fn probe_cfg(capacity: usize, policy: SweepPolicy) -> SimConfig {
    let lc = MatrixCross {
        capacities: vec![capacity],
        policies: vec![policy],
        max_entries: 2,
    }
    .expand()
    .remove(0);
    lc.config.with_insts(PROBE_WARMUP, PROBE_INSTS)
}

/// Uop-cache entries built from a recorded stream: a new prediction
/// window starts after every taken branch, and entries close where the
/// accumulation buffer closes them.
fn build_entries(insts: &[DynInst], cfg: &UopCacheConfig) -> Vec<UopCacheEntry> {
    let mut acc = AccumulationBuffer::new(cfg.clone());
    let mut pw = 0u64;
    let mut out = Vec::new();
    for inst in insts {
        let taken = inst.branch.is_some_and(|b| b.taken);
        let closed = acc.push(inst, PwId(pw), taken);
        for i in 0..closed.len() {
            out.push(closed[i]);
        }
        if taken {
            pw += 1;
        }
    }
    out.extend(acc.flush());
    out
}

/// trace, bpu, uopcache, mem and pipeline calls on one profile; returns
/// the F-PWAC replay report.
fn offline_probe(tr: &Tracer, p: &WorkloadProfile) -> SimReport {
    let total = PROBE_WARMUP + PROBE_INSTS;
    let program = tr.span("trace.generate", || Program::generate(p));
    let trace = tr.span_work("trace.record", total, || {
        record_workload(p, &program, total)
    });
    let insts = trace.insts();

    let base = probe_cfg(2048, SweepPolicy::Baseline);
    let fpwac = probe_cfg(2048, SweepPolicy::Fpwac);
    let pwt = tr.span_work("bpu.pw_record", total, || PwTrace::record(&trace, &base));

    let conds: Vec<(ucsim_model::Addr, bool)> = insts
        .iter()
        .filter(|i| i.class.is_cond_branch())
        .filter_map(|i| i.branch.map(|b| (i.pc, b.taken)))
        .collect();
    let mut tage = Tage::new(BpuConfig::default().tage);
    tr.span_work("bpu.tage", conds.len() as u64, || {
        let mut wrong = 0u64;
        for &(pc, taken) in &conds {
            wrong += u64::from(tage.predict_and_update(pc, taken) != taken);
        }
        std::hint::black_box(wrong)
    });

    for (name, cfg) in [
        ("uopcache.fill.baseline", &base.uop_cache),
        ("uopcache.fill.fpwac", &fpwac.uop_cache),
    ] {
        let entries = build_entries(insts, cfg);
        let mut cache = UopCache::new(cfg.clone());
        tr.span_work(name, entries.len() as u64, || {
            for e in &entries {
                std::hint::black_box(cache.fill(*e));
            }
        });
    }
    for (name, capacity) in [("uopcache.lookup.2k", 2048), ("uopcache.lookup.64k", 65536)] {
        let cfg = UopCacheConfig::baseline_with_capacity(capacity);
        let entries = build_entries(insts, &cfg);
        let mut cache = UopCache::new(cfg);
        for e in &entries {
            cache.fill(*e);
        }
        tr.span_work(name, entries.len() as u64, || {
            for e in &entries {
                std::hint::black_box(cache.lookup(e.start));
            }
        });
    }

    let mut lines = Vec::new();
    for i in insts {
        let line = i.pc.line();
        if lines.last() != Some(&line) {
            lines.push(line);
        }
    }
    let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
    tr.span_work("mem.access", lines.len() as u64, || {
        for &l in &lines {
            std::hint::black_box(mem.access(AccessKind::Fetch, l));
        }
    });

    tr.span_work("pipeline.run_trace", total, || {
        Simulator::new(base.clone()).run_trace(p.name, &trace)
    });
    let fpwac_pwt = PwTrace::record(&trace, &fpwac);
    let report = tr.span_work("pipeline.replay", total, || {
        fpwac_pwt.replay(p.name, &fpwac)
    });
    let par = tr.span_work("pipeline.replay_par2", total, || {
        pwt.replay_parallel(p.name, &base, 2)
    });
    std::hint::black_box(par);
    report
}

/// Cost of per-job stage profiling: `run_trace` inside
/// `profile_begin`/`profile_end` against the same run without, in
/// alternating pairs.
fn obs_probe(tr: &Tracer, profiles: &[WorkloadProfile], m: &mut Metrics) {
    let cfg = probe_cfg(2048, SweepPolicy::Baseline);
    let (mut plain, mut profiled) = (Vec::new(), Vec::new());
    for p in profiles {
        let program = Program::generate(p);
        let trace = record_workload(p, &program, PROBE_WARMUP + PROBE_INSTS);
        let sim = Simulator::new(cfg.clone());
        for _ in 0..3 {
            let t = Instant::now();
            tr.span("obs.plain_run", || {
                std::hint::black_box(sim.run_trace(p.name, &trace))
            });
            plain.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            tr.span("obs.profiled_run", || {
                ucsim_obs::profile_begin();
                std::hint::black_box(sim.run_trace(p.name, &trace));
                ucsim_obs::profile_end()
            });
            profiled.push(t.elapsed().as_secs_f64());
        }
    }
    m.insert(
        "obs.profile_overhead_pct",
        100.0 * (median(&profiled) / median(&plain) - 1.0),
    );
}

/// isa and model calls: assembling the examples, parsing requests and
/// encoding reports.
fn micro_probe(tr: &Tracer, reports: &[SimReport]) {
    for _ in 0..MICRO_REPS / 10 {
        for (_, src) in ASM_PROGRAMS {
            tr.span_work("isa.assemble", 1, || {
                std::hint::black_box(ucsim_isa::assemble(src).is_ok())
            });
        }
    }
    let bodies: Vec<String> = (0..8u64)
        .map(|i| {
            sim_body(
                SERVED_PROFILES[i as usize % SERVED_PROFILES.len()],
                i,
                i % 2 == 0,
            )
        })
        .collect();
    for _ in 0..MICRO_REPS / bodies.len() {
        for b in &bodies {
            tr.span_work("model.request_parse", 1, || {
                std::hint::black_box(SimRequest::parse(b).is_ok())
            });
        }
    }
    for _ in 0..MICRO_REPS / reports.len().max(1) {
        for r in reports {
            tr.span_work("model.report_encode", 1, || {
                std::hint::black_box(r.to_json_string())
            });
        }
    }
}

/// Stage names of a job profile and the metric each one feeds.
const STAGE_METRICS: [(&str, &str); 5] = [
    ("predict", "serve.stage_ns_per_inst.predict"),
    ("uc_lookup", "serve.stage_ns_per_inst.uc_lookup"),
    ("uc_fill", "serve.stage_ns_per_inst.uc_fill"),
    ("decode", "serve.stage_ns_per_inst.decode"),
    ("retire", "serve.stage_ns_per_inst.retire"),
];

const PROBE_CELLS: usize = 6;
const PROBE_HITS: usize = 20;
const STORE_RECORDS: usize = 400;

/// The service layers on one node: fresh cells, repeats, job reads,
/// profiles, metrics, and the result store on the node's own log.
fn serve_probe(tr: &Tracer, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let dir = ScratchDir::new("probe-serve").map_err(|e| format!("scratch dir: {e}"))?;
    let server = start_node(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        data_dir: Some(dir.0.join("node")),
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr().to_string();
    let mut c = client(&addr);
    let programs = upload_programs(tr, &mut c)?;
    let mut r = rng(seed, 30);
    let mut fresh = Vec::new();
    let mut payloads = Vec::new();
    for i in 0..PROBE_CELLS {
        let workload = if i % 4 == 3 {
            programs[i % programs.len()].clone()
        } else {
            SERVED_PROFILES[i % SERVED_PROFILES.len()].to_owned()
        };
        let s = r.next_u64();
        let body = sim_body(&workload, s, false);
        let resp = tr.span("http.sim_miss", || {
            send(&mut c, "POST", "/v1/sim", body.as_bytes())
        });
        let report = report_of(&resp)
            .filter(|_| resp.status == 200)
            .ok_or_else(|| format!("probe miss: HTTP {} {}", resp.status, resp.body_str()))?;
        if i < 2 && direct_report(&workload, s, &served_cfg()).as_bytes() != report {
            return Err(format!(
                "probe: served {workload} differs from a direct run"
            ));
        }
        payloads.push(String::from_utf8_lossy(report).into_owned());
        fresh.push(body);
    }
    let mut jobs = Vec::new();
    for i in 0..PROBE_CELLS {
        let body = sim_body(
            SERVED_PROFILES[i % SERVED_PROFILES.len()],
            r.next_u64(),
            true,
        );
        let resp = send(&mut c, "POST", "/v1/sim", body.as_bytes());
        let id = parse(&resp)
            .and_then(|j| j.get("id").and_then(Json::as_u64))
            .ok_or_else(|| format!("probe background: HTTP {} {}", resp.status, resp.body_str()))?;
        jobs.push(id);
    }
    let mut stage_ns: BTreeMap<String, u64> = BTreeMap::new();
    let mut profiled_insts = 0u64;
    for &id in &jobs {
        let done = wait_job(&mut c, id)?;
        profiled_insts += parse(&done)
            .and_then(|j| {
                j.get("result")
                    .and_then(|r| r.get("report"))
                    .and_then(|r| r.get("insts"))
                    .and_then(Json::as_u64)
            })
            .ok_or_else(|| format!("probe job {id}: no result.report.insts"))?
            + SERVED_WARMUP;
        let prof = send(&mut c, "GET", &format!("/v1/jobs/{id}/profile"), b"");
        let stages =
            parse(&prof).and_then(|j| j.get("profile").and_then(|p| p.get("stages")).cloned());
        let Some(Json::Obj(stages)) = stages else {
            return Err(format!(
                "probe job {id}: no profile.stages in HTTP {} {}",
                prof.status,
                prof.body_str()
            ));
        };
        for (name, st) in stages {
            let ns = st
                .get("total_ns")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("probe job {id}: stage {name} has no total_ns"))?;
            *stage_ns.entry(name).or_default() += ns;
        }
    }
    // A stage the service stopped reporting must fail the run, not read
    // as a stage that got free.
    for (stage, name) in STAGE_METRICS {
        let ns = stage_ns
            .get(stage)
            .copied()
            .filter(|&ns| ns > 0)
            .ok_or_else(|| format!("probe: profile stage {stage} missing or zero"))?;
        m.insert(name, ns as f64 / profiled_insts as f64);
    }
    for i in 0..PROBE_HITS {
        let body = &fresh[i % fresh.len()];
        let hit = tr.span("http.sim_hit", || {
            send(&mut c, "POST", "/v1/sim", body.as_bytes())
        });
        let id = jobs[i % jobs.len()];
        let get = tr.span("http.job_get", || {
            send(&mut c, "GET", &format!("/v1/jobs/{id}"), b"")
        });
        if hit.status != 200 || !is_cached(&hit) || get.status != 200 {
            return Err(format!(
                "probe: hit HTTP {}, get HTTP {}",
                hit.status, get.status
            ));
        }
    }
    let metrics = parse(&send(&mut c, "GET", "/v1/metrics", b"")).ok_or("probe: metrics")?;
    let cache = metrics.get("cache").ok_or("probe: metrics.cache")?;
    let count = |k: &str| {
        cache
            .get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("probe: metrics.cache.{k} missing"))
    };
    let (hits, misses) = (count("hits")? as f64, count("misses")? as f64);
    let ratio = hits / (hits + misses).max(1.0);
    let scheduled = PROBE_HITS as f64 / (PROBE_HITS + 2 * PROBE_CELLS) as f64;
    if (ratio - scheduled).abs() > 1e-9 {
        return Err(format!(
            "probe: cache hit ratio {ratio} != scheduled {scheduled}"
        ));
    }
    m.insert("serve.cache_hit_ratio", ratio);
    let Some(Json::Obj(prios)) = metrics
        .get("scheduler")
        .and_then(|s| s.get("wait_by_priority"))
    else {
        return Err("probe: metrics.scheduler.wait_by_priority missing".to_owned());
    };
    let (mut pops, mut wait_us) = (0u64, 0u64);
    for (prio, v) in prios {
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("probe: scheduler {prio}.{k} missing"))
        };
        pops += field("pops")?;
        wait_us += field("wait_us")?;
    }
    if pops == 0 {
        return Err("probe: the scheduler reports no pops".to_owned());
    }
    m.insert("pool.queue_wait_ms", wait_us as f64 / 1e3 / pops as f64);
    drop(c);
    server.shutdown();

    // The store: append this run's reports, then replay the log.
    let (store, _) =
        ResultStore::open(&dir.0.join("store"), false).map_err(|e| format!("store: {e}"))?;
    for i in 0..STORE_RECORDS {
        let payload = &payloads[i % payloads.len()];
        let key = format!("probe-{seed}-{i}");
        tr.span_work("serve.store_append", 1, || {
            store.append(fnv1a(key.as_bytes()), &key, payload)
        })
        .map_err(|e| format!("store append: {e}"))?;
    }
    drop(store);
    let (_, records) = tr
        .span_work("serve.store_replay", STORE_RECORDS as u64, || {
            ResultStore::open(&dir.0.join("store"), false)
        })
        .map_err(|e| format!("store replay: {e}"))?;
    if records.len() != STORE_RECORDS {
        return Err(format!(
            "store replay: {} of {STORE_RECORDS} records",
            records.len()
        ));
    }
    Ok(())
}

const PEER_SWEEPS: usize = 4;
const PEER_FORWARDS: usize = 6;

/// Federation: scatter-gather sweeps on two peered nodes, and the cost
/// of one forwarding hop for a cached cell.
fn peer_probe(tr: &Tracer, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let nodes = peered_nodes(tr, 2)?;
    let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
    let mut clients: Vec<_> = addrs.iter().map(|a| client(a)).collect();
    let mut r = rng(seed, 40);
    let (mut remote, mut planned) = (0u64, 0u64);
    for i in 0..PEER_SWEEPS {
        let body = matrix_body(SERVED_PROFILES[i % SERVED_PROFILES.len()], r.next_u64());
        let doc = tr.span("peer.sweep", || run_sweep(tr, &mut clients[i % 2], &body))?;
        let field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("peer sweep: no {k} in the settled sweep"))
        };
        remote += field("remote_done")?;
        planned += field("planned")?;
    }
    if remote == 0 || planned == 0 {
        return Err(format!(
            "peer sweeps: {remote} of {planned} cells ran on the peer"
        ));
    }
    m.insert("peer.remote_cell_frac", remote as f64 / planned as f64);

    // Prime each cell on its owner, then time a cached answer from the
    // owner against the same answer through the non-owner's hop. Both
    // are one-shot connections, so they see the same TCP behaviour.
    let view = ucsim_serve::PeerSet::new(
        addrs[0].clone(),
        addrs.clone(),
        std::time::Duration::from_secs(5),
    );
    let (mut direct, mut forwarded) = (Vec::new(), Vec::new());
    for i in 0..PEER_FORWARDS {
        let workload = SERVED_PROFILES[i % SERVED_PROFILES.len()];
        let body = sim_body(workload, r.next_u64(), false);
        let spec = SimRequest::parse(&body)
            .map_err(|e| format!("own body: {e}"))?
            .resolve(0);
        let owner = usize::from(!view.owns(fnv1a(spec.canonical().as_bytes())));
        let other = 1 - owner;
        let prime = send(&mut clients[owner], "POST", "/v1/sim", body.as_bytes());
        if prime.status != 200 {
            return Err(format!(
                "peer prime: HTTP {} {}",
                prime.status,
                prime.body_str()
            ));
        }
        let one_shot = |node: usize| {
            ucsim_serve::request(&addrs[node], "POST", "/v1/sim", body.as_bytes())
                .map_err(|e| format!("peer hit: {e}"))
        };
        let t = Instant::now();
        let a = tr.span("peer.owner_hit", || one_shot(owner))?;
        direct.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let b = tr.span("peer.forwarded_hit", || one_shot(other))?;
        forwarded.push(t.elapsed().as_secs_f64() * 1e3);
        if a.status != 200 || b.status != 200 || report_of(&a) != report_of(&b) {
            return Err("peer: forwarded answer differs from the owner's".to_owned());
        }
    }
    m.insert(
        "peer.forward_overhead_ms",
        median(&forwarded) - median(&direct),
    );
    let health = parse(&send(&mut clients[0], "GET", "/v1/healthz", b"")).ok_or("peer: healthz")?;
    let members = health
        .get("peers")
        .and_then(|p| p.get("members"))
        .and_then(Json::as_arr)
        .filter(|m| !m.is_empty())
        .ok_or("peer: healthz lists no peers")?;
    let failovers = members
        .iter()
        .map(|p| p.get("failed_over").and_then(Json::as_u64))
        .sum::<Option<u64>>()
        .ok_or("peer: a healthz member has no failed_over")?;
    m.insert("peer.failovers", failovers as f64);
    drop(clients);
    for n in nodes {
        n.shutdown();
    }
    Ok(())
}
