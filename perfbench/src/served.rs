//! The served workloads: `serve-mix` (one in-process `ucsim-serve` node
//! under a closed loop of two keep-alive clients) and `fed-sweep` (two
//! peered nodes answering `POST /v1/matrix` sweeps).

use std::net::TcpListener;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ucsim_model::json::Json;
use ucsim_model::ToJson;
use ucsim_pipeline::{SimConfig, Simulator};
use ucsim_serve::{fnv1a, Client, HttpResponse, RetryPolicy, Server, ServerConfig};
use ucsim_trace::{load_asm, Program, WorkloadProfile};

use crate::common::{rng, shuffle, Checks, ScratchDir, Threads, Timed, Workload};
use crate::spans::Tracer;

/// Small-footprint profiles for served cells: simulation stays a few
/// milliseconds, so the service layers are a visible share of each op.
pub const SERVED_PROFILES: [&str; 4] = ["bm-x64", "bm-lla", "redis", "bm-pb"];
pub const SERVED_WARMUP: u64 = 500;
pub const SERVED_INSTS: u64 = 4_000;

/// The `examples/asm` programs, uploaded at set-up.
pub const ASM_PROGRAMS: [(&str, &str); 3] = [
    (
        "dense_loop",
        include_str!("../../examples/asm/dense_loop.asm"),
    ),
    (
        "fragmenter",
        include_str!("../../examples/asm/fragmenter.asm"),
    ),
    (
        "dispatcher",
        include_str!("../../examples/asm/dispatcher.asm"),
    ),
];

/// Served results checked against a direct run, per client.
const SAMPLES_PER_CLIENT: usize = 3;

pub fn sim_body(workload: &str, seed: u64, background: bool) -> String {
    let bg = if background {
        ",\"background\":true"
    } else {
        ""
    };
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"warmup\":{SERVED_WARMUP},\"insts\":{SERVED_INSTS}{bg}}}"
    )
}

/// The report bytes spliced into a `POST /v1/sim` envelope
/// (`{"key":…,"cached":…,"report":<report>}`).
pub fn report_of(resp: &HttpResponse) -> Option<&[u8]> {
    let b = &resp.body;
    let marker = b"\"report\":";
    let at = b.windows(marker.len()).position(|w| w == marker)?;
    b.get(at + marker.len()..b.len().checked_sub(1)?)
}

pub fn is_cached(resp: &HttpResponse) -> bool {
    resp.body.windows(13).any(|w| w == b"\"cached\":true")
}

/// Simulated instructions of a served report: `warmup` plus measured.
pub fn served_insts(report: &[u8], warmup: u64) -> u64 {
    let insts = Json::parse(&String::from_utf8_lossy(report))
        .ok()
        .and_then(|j| j.get("insts").and_then(Json::as_u64))
        .unwrap_or(0);
    warmup + insts
}

/// The direct (offline) report of a served cell, as canonical JSON.
pub fn direct_report(workload: &str, seed: u64, cfg: &SimConfig) -> String {
    let total = (cfg.warmup_insts + cfg.measure_insts) as usize;
    if let Some(hex) = workload.strip_prefix("program:") {
        let src = ASM_PROGRAMS
            .iter()
            .map(|(_, s)| *s)
            .find(|s| format!("{:016x}", fnv1a(s.as_bytes())) == hex)
            .expect("served program is one of the uploaded examples");
        let asm = ucsim_isa::assemble(src).expect("example assembles");
        let profile = WorkloadProfile::user_program(seed);
        let insts: Vec<_> = load_asm(&asm, seed).walk(&profile).take(total).collect();
        return Simulator::new(cfg.clone())
            .run_slice(workload, &insts)
            .to_json_string();
    }
    let mut profile = WorkloadProfile::by_name(workload).expect("Table II profile");
    profile.seed = seed;
    let program = Program::generate(&profile);
    Simulator::new(cfg.clone())
        .run(&profile, &program)
        .to_json_string()
}

pub fn served_cfg() -> SimConfig {
    SimConfig::table1().with_insts(SERVED_WARMUP, SERVED_INSTS)
}

/// Reserves `n` loopback addresses by binding ephemeral listeners, then
/// releases them for the servers to bind.
pub fn reserve_addrs(n: usize) -> Result<Vec<String>, String> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reserve port: {e}"))?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reserved addr: {e}"))
}

/// Starts a node, retrying briefly while a just-released port is busy.
pub fn start_node(cfg: ServerConfig) -> Result<Server, String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match Server::start(cfg.clone()) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("server failed to start on {}: {e}", cfg.addr))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

pub fn client(addr: &str) -> Client {
    Client::with_retry(addr, RetryPolicy::none())
}

/// Sends one request; transport errors become a status-0 response.
pub fn send(c: &mut Client, method: &str, path: &str, body: &[u8]) -> HttpResponse {
    c.request(method, path, body)
        .unwrap_or_else(|e| HttpResponse {
            status: 0,
            headers: Vec::new(),
            body: e.to_string().into_bytes(),
        })
}

pub fn parse(resp: &HttpResponse) -> Option<Json> {
    Json::parse(&String::from_utf8_lossy(&resp.body)).ok()
}

/// Uploads the example programs; returns their workload refs.
pub fn upload_programs(tr: &Tracer, c: &mut Client) -> Result<Vec<String>, String> {
    ASM_PROGRAMS
        .iter()
        .map(|(name, src)| {
            let r = tr.span("serve.program_upload", || {
                send(c, "POST", "/v1/programs", src.as_bytes())
            });
            if r.status != 200 && r.status != 201 {
                return Err(format!("upload {name}: HTTP {} {}", r.status, r.body_str()));
            }
            parse(&r)
                .and_then(|j| j.get("ref").and_then(Json::as_str).map(str::to_owned))
                .ok_or_else(|| format!("upload {name}: no ref in {}", r.body_str()))
        })
        .collect()
}

/// Polls `GET /v1/jobs/:id` until the job leaves the queued/running states.
pub fn wait_job(c: &mut Client, id: u64) -> Result<HttpResponse, String> {
    let path = format!("/v1/jobs/{id}");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = send(c, "GET", &path, b"");
        let state =
            parse(&r).and_then(|j| j.get("state").and_then(Json::as_str).map(str::to_owned));
        match state.as_deref() {
            Some("queued" | "running") if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_micros(500));
            }
            Some("done") => return Ok(r),
            _ => return Err(format!("job {id}: HTTP {} {}", r.status, r.body_str())),
        }
    }
}

/// One period of each client's op schedule, by class and count. Fast
/// classes (hit, get) are 68% of ops and slow ones (miss, asm) 32%, so
/// p50 sits inside the fast classes and p90 inside the slow ones, each
/// about 20 points from the boundary. Every client walks a seeded
/// shuffle of the period, so any stretch of a run has the same mix.
const MIX: [(&str, usize); 4] = [("hit", 11), ("get", 6), ("miss", 6), ("asm", 2)];

const HIT_CELLS: usize = 8;
const BACKGROUND_JOBS: usize = 4;
const MIX_CLIENTS: usize = 2;

struct MixState {
    server: Server,
    _dir: ScratchDir,
    addr: String,
    programs: Vec<String>,
    /// (request body, served report) of every cell primed for repeats.
    hits: Vec<(String, Vec<u8>)>,
    jobs: Vec<u64>,
}

/// One in-process node (one worker, persistent store on) under a closed
/// loop of two keep-alive clients sending a seeded request mix.
pub struct ServeMix {
    seed: u64,
    state: Option<MixState>,
    /// (workload, seed, served report) samples for the direct-run check.
    samples: Vec<(String, u64, Vec<u8>)>,
    setups: u64,
    phases: u64,
    /// Digests of the primed requests and their reports.
    digests: (u64, u64),
}

impl ServeMix {
    pub fn new(seed: u64) -> ServeMix {
        ServeMix {
            seed,
            state: None,
            samples: Vec::new(),
            setups: 0,
            phases: 0,
            digests: (0, 0),
        }
    }
}

impl Workload for ServeMix {
    fn setup(&mut self, tr: &Tracer) -> Result<(), String> {
        self.teardown();
        self.setups += 1;
        let dir = ScratchDir::new(&format!("serve-mix-{}", self.setups))
            .map_err(|e| format!("scratch dir: {e}"))?;
        let server = tr.span("serve.start", || {
            start_node(ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: 1,
                data_dir: Some(dir.0.clone()),
                retain_jobs: 1 << 16,
                ..ServerConfig::default()
            })
        })?;
        let addr = server.local_addr().to_string();
        let mut c = client(&addr);
        let programs = upload_programs(tr, &mut c)?;
        let mut r = rng(self.seed, 10);
        let mut hits = Vec::with_capacity(HIT_CELLS);
        for i in 0..HIT_CELLS {
            let workload = if i % 4 == 3 {
                programs[i % programs.len()].clone()
            } else {
                SERVED_PROFILES[i % SERVED_PROFILES.len()].to_owned()
            };
            let body = sim_body(&workload, r.next_u64(), false);
            let resp = tr.span("serve.prime", || {
                send(&mut c, "POST", "/v1/sim", body.as_bytes())
            });
            let report = report_of(&resp)
                .filter(|_| resp.status == 200)
                .ok_or_else(|| format!("prime: HTTP {} {}", resp.status, resp.body_str()))?
                .to_vec();
            hits.push((body, report));
        }
        let mut jobs = Vec::with_capacity(BACKGROUND_JOBS);
        for i in 0..BACKGROUND_JOBS {
            let workload = SERVED_PROFILES[i % SERVED_PROFILES.len()];
            let body = sim_body(workload, r.next_u64(), true);
            let resp = send(&mut c, "POST", "/v1/sim", body.as_bytes());
            let id = parse(&resp)
                .and_then(|j| j.get("id").and_then(Json::as_u64))
                .filter(|_| resp.status == 202)
                .ok_or_else(|| format!("background: HTTP {} {}", resp.status, resp.body_str()))?;
            jobs.push(id);
        }
        for &id in &jobs {
            tr.span("serve.wait_job", || wait_job(&mut c, id))?;
        }
        // The warm-up op: one fresh cell.
        let body = sim_body(SERVED_PROFILES[0], r.next_u64(), false);
        let resp = tr.op(1, "warmup", || {
            send(&mut c, "POST", "/v1/sim", body.as_bytes())
        });
        if resp.status != 200 {
            return Err(format!("warm-up: HTTP {} {}", resp.status, resp.body_str()));
        }
        let inputs: Vec<u8> = hits.iter().flat_map(|(b, _)| b.bytes()).collect();
        let reports: Vec<u8> = hits.iter().flat_map(|(_, r)| r.iter().copied()).collect();
        self.digests = (fnv1a(&inputs), fnv1a(&reports));
        self.state = Some(MixState {
            server,
            _dir: dir,
            addr,
            programs,
            hits,
            jobs,
        });
        Ok(())
    }

    fn timed(&mut self, tr: &Tracer, dur: Duration, max_ops: u64) -> Timed {
        let st = self.state.as_ref().expect("set up");
        let samples = Mutex::new(Vec::new());
        let deadline = Instant::now() + dur;
        let start = Instant::now();
        let mut total = Timed::default();
        self.phases += 1;
        let phase_tag = self.phases;
        let seed = self.seed;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..MIX_CLIENTS)
                .map(|ci| {
                    let samples = &samples;
                    let budget = (deadline, max_ops.div_ceil(MIX_CLIENTS as u64));
                    s.spawn(move || mix_client(tr, st, seed, ci, phase_tag, budget, samples))
                })
                .collect();
            for h in handles {
                total.merge(h.join().expect("mix client thread"));
            }
        });
        total.wall_s = start.elapsed().as_secs_f64();
        self.samples
            .extend(samples.into_inner().expect("samples lock"));
        total
    }

    fn check(&mut self, _tr: &Tracer) -> Checks {
        let mut c = Checks::default();
        let cfg = served_cfg();
        for (workload, seed, served) in &self.samples {
            let direct = direct_report(workload, *seed, &cfg);
            c.expect(
                direct.as_bytes() == served.as_slice(),
                &format!("serve-mix {workload} seed {seed}: served == direct"),
            );
        }
        if let Some(st) = &self.state {
            // Primed hit cells too: each must equal a direct run.
            for (body, served) in st.hits.iter().take(4) {
                let j = Json::parse(body).expect("own request body");
                let w = j.get("workload").and_then(Json::as_str).expect("workload");
                let seed = j.get("seed").and_then(Json::as_u64).expect("seed");
                c.expect(
                    direct_report(w, seed, &cfg).as_bytes() == served.as_slice(),
                    &format!("serve-mix primed {w}: served == direct"),
                );
            }
        }
        c
    }

    fn teardown(&mut self) {
        if let Some(st) = self.state.take() {
            st.server.shutdown();
        }
    }

    fn input_digest(&self) -> u64 {
        self.digests.0
    }

    fn report_digest(&self) -> u64 {
        self.digests.1
    }

    fn threads(&self) -> Threads {
        Threads {
            clients: MIX_CLIENTS,
            nodes: 1,
            workers_per_node: 1,
            sim_threads: 0,
        }
    }

    fn probe_profiles(&self) -> Vec<WorkloadProfile> {
        probe_profiles(self.seed)
    }
}

pub fn probe_profiles(seed: u64) -> Vec<WorkloadProfile> {
    let mut r = rng(seed, 11);
    SERVED_PROFILES
        .iter()
        .map(|name| {
            let mut p = WorkloadProfile::by_name(name).expect("Table II profile");
            p.seed = r.next_u64();
            p
        })
        .collect()
}

/// One closed-loop client of the served mix: sends its seeded schedule
/// until `deadline`, checking every reply inline.
fn mix_client(
    tr: &Tracer,
    st: &MixState,
    seed: u64,
    ci: usize,
    phase_tag: u64,
    (deadline, max_ops): (Instant, u64),
    samples: &Mutex<Vec<(String, u64, Vec<u8>)>>,
) -> Timed {
    let mut t = Timed::default();
    let mut c = client(&st.addr);
    // Each phase of a run draws a fresh stream, so misses stay fresh.
    let mut r = rng(seed, 100 + ci as u64 * 1000 + phase_tag);
    let mut period: Vec<&'static str> = MIX
        .iter()
        .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
        .collect();
    shuffle(&mut period, &mut r);
    let mut kept = 0usize;
    let mut k = 0u64;
    while Instant::now() < deadline && t.attempted < max_ops {
        let class = period[k as usize % period.len()];
        k += 1;
        let op_id = (seed << 24) ^ ((ci as u64) << 56) ^ (phase_tag << 40) ^ k;
        c.set_request_id(Some(format!("{op_id:016x}")));
        let (method, path, body, fresh) = match class {
            "hit" => {
                let (b, _) = &st.hits[r.index(st.hits.len())];
                ("POST", "/v1/sim".to_owned(), b.clone(), None)
            }
            "get" => {
                let id = st.jobs[r.index(st.jobs.len())];
                ("GET", format!("/v1/jobs/{id}"), String::new(), None)
            }
            _ => {
                let workload = if class == "asm" {
                    st.programs[r.index(st.programs.len())].clone()
                } else {
                    SERVED_PROFILES[r.index(SERVED_PROFILES.len())].to_owned()
                };
                let s = r.next_u64();
                let body = sim_body(&workload, s, false);
                ("POST", "/v1/sim".to_owned(), body, Some((workload, s)))
            }
        };
        let t0 = Instant::now();
        let resp = tr.op(op_id, "op", || {
            tr.span(class_span(class), || {
                send(&mut c, method, &path, body.as_bytes())
            })
        });
        let lat = t0.elapsed();
        t.attempted += 1;
        let ok = resp.status == 200
            && match class {
                "hit" => {
                    let expect = st.hits.iter().find(|(b, _)| *b == body).map(|(_, r)| r);
                    is_cached(&resp) && report_of(&resp) == expect.map(Vec::as_slice)
                }
                "get" => resp.body.windows(14).any(|w| w == b"\"state\":\"done\""),
                _ => !is_cached(&resp) && report_of(&resp).is_some(),
            };
        if !ok {
            t.failed += 1;
            eprintln!(
                "perfbench: serve-mix {class} {path}: HTTP {} {}",
                resp.status,
                resp.body_str().chars().take(200).collect::<String>()
            );
            continue;
        }
        let insts = match (&fresh, report_of(&resp)) {
            (Some((workload, s)), Some(report)) => {
                if kept < SAMPLES_PER_CLIENT {
                    kept += 1;
                    samples.lock().expect("samples lock").push((
                        workload.clone(),
                        *s,
                        report.to_vec(),
                    ));
                }
                served_insts(report, SERVED_WARMUP)
            }
            _ => 0,
        };
        t.record(class, lat, insts);
    }
    t
}

fn class_span(class: &str) -> &'static str {
    match class {
        "hit" => "http.sim_hit",
        "get" => "http.job_get",
        "asm" => "http.sim_asm",
        _ => "http.sim_miss",
    }
}

/// Sweep axes of one `fed-sweep` op: 3 capacities × 4 policies of short
/// cells, so the sweep's time goes to routing, forwarding and gathering
/// rather than to simulation.
const FED_CAPACITIES: [u64; 3] = [2048, 8192, 65536];
const FED_POLICIES: [&str; 4] = ["baseline", "clasp", "rac", "fpwac"];
const FED_WARMUP: u64 = 100;
const FED_INSTS: u64 = 1_000;
const FED_CLIENTS: usize = 2;

pub fn matrix_body(workload: &str, seed: u64) -> String {
    let caps: Vec<String> = FED_CAPACITIES.iter().map(u64::to_string).collect();
    let policies: Vec<String> = FED_POLICIES.iter().map(|p| format!("\"{p}\"")).collect();
    format!(
        "{{\"workloads\":[\"{workload}\"],\"capacities\":[{}],\"policies\":[{}],\"seed\":{seed},\"warmup\":{FED_WARMUP},\"insts\":{FED_INSTS}}}",
        caps.join(","),
        policies.join(",")
    )
}

/// Upper end of the seeded pause before each poll of a running sweep.
const SWEEP_POLL_JITTER_US: u64 = 20_000;

/// Posts one sweep on the kept-alive client (which carries the op's
/// `X-Request-Id`) and polls it to completion; returns the final
/// document.
///
/// Each poll is a one-shot connection after a seeded pause of up to
/// 20 ms. A poll over the kept-alive connection would take a fixed
/// ~44 ms (the Nagle/delayed-ACK stall in the README's findings), so
/// sweep latency would only take a few discrete values. A new
/// connection waits 0–20 ms for the server's accept poll instead, and
/// the seeded pause keeps polls from locking onto that 20 ms cycle, so
/// sweep latency follows the sweep's own work continuously.
pub fn run_sweep(tr: &Tracer, c: &mut Client, body: &str) -> Result<Json, String> {
    let resp = tr.span("http.matrix_post", || {
        send(c, "POST", "/v1/matrix", body.as_bytes())
    });
    let id = parse(&resp)
        .and_then(|j| j.get("id").and_then(Json::as_u64))
        .filter(|_| resp.status == 202 || resp.status == 200)
        .ok_or_else(|| format!("matrix post: HTTP {} {}", resp.status, resp.body_str()))?;
    let path = format!("/v1/matrix/{id}");
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut jitter = rng(fnv1a(body.as_bytes()), 7);
    loop {
        std::thread::sleep(Duration::from_micros(
            jitter.next_u64() % SWEEP_POLL_JITTER_US,
        ));
        let r = tr.span("http.matrix_poll", || {
            ucsim_serve::request(c.addr(), "GET", &path, b"").unwrap_or_else(|e| HttpResponse {
                status: 0,
                headers: Vec::new(),
                body: e.to_string().into_bytes(),
            })
        });
        let doc =
            parse(&r).ok_or_else(|| format!("matrix poll: HTTP {} {}", r.status, r.body_str()))?;
        match doc.get("state").and_then(Json::as_str) {
            Some("running") if Instant::now() < deadline => {}
            Some("done") => return Ok(doc),
            _ => return Err(format!("matrix {id}: {}", r.body_str())),
        }
    }
}

/// Cells of a settled sweep document: (label, canonical report JSON).
pub fn sweep_cells(doc: &Json) -> Vec<(String, String)> {
    doc.get("report")
        .and_then(|r| r.get("cells"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|cell| {
            let label = cell.get("label")?.as_str()?.to_owned();
            Some((label, cell.get("report")?.to_string()))
        })
        .collect()
}

/// Direct reports of every cell of a `matrix_body(workload, seed)` sweep,
/// keyed by label.
pub fn direct_sweep(workload: &str, seed: u64) -> Vec<(String, String)> {
    let cross = ucsim_bench::MatrixCross {
        capacities: FED_CAPACITIES.iter().map(|&c| c as usize).collect(),
        policies: FED_POLICIES
            .iter()
            .map(|p| ucsim_bench::SweepPolicy::parse(p).expect("known policy"))
            .collect(),
        max_entries: 2,
    };
    cross
        .expand()
        .into_iter()
        .map(|lc| {
            let cfg = lc.config.with_insts(FED_WARMUP, FED_INSTS);
            let canonical = Json::parse(&direct_report(workload, seed, &cfg))
                .expect("own report")
                .to_string();
            (lc.label, canonical)
        })
        .collect()
}

struct FedState {
    nodes: Vec<Server>,
    addrs: Vec<String>,
}

/// Two in-process nodes peered to each other; each client sends its
/// sweeps to one node, which scatters the cells by rendezvous owner.
pub struct FedSweep {
    seed: u64,
    state: Option<FedState>,
    /// (workload, seed, final document) of sampled sweeps.
    samples: Vec<(String, u64, Json)>,
    warmup_digest: u64,
    phases: u64,
}

impl FedSweep {
    /// The warm-up ops: one sweep per served profile. Cells of the larger
    /// profiles take longer to generate, so one sweep of a seeded profile
    /// would make set-up time depend on which profile the seed drew.
    fn warmup_bodies(&self) -> Vec<String> {
        let mut r = rng(self.seed, 20);
        SERVED_PROFILES
            .iter()
            .map(|w| matrix_body(w, r.next_u64()))
            .collect()
    }

    pub fn new(seed: u64) -> FedSweep {
        FedSweep {
            seed,
            state: None,
            samples: Vec::new(),
            warmup_digest: 0,
            phases: 0,
        }
    }
}

pub fn peered_nodes(tr: &Tracer, n: usize) -> Result<Vec<Server>, String> {
    let addrs = reserve_addrs(n)?;
    addrs
        .iter()
        .map(|a| {
            tr.span("serve.start", || {
                start_node(ServerConfig {
                    addr: a.clone(),
                    advertise: Some(a.clone()),
                    peers: addrs.clone(),
                    workers: 1,
                    ..ServerConfig::default()
                })
            })
        })
        .collect()
}

impl Workload for FedSweep {
    fn setup(&mut self, tr: &Tracer) -> Result<(), String> {
        self.teardown();
        let nodes = peered_nodes(tr, 2)?;
        let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
        let mut c = client(&addrs[0]);
        let mut cells = String::new();
        for (i, body) in self.warmup_bodies().iter().enumerate() {
            let doc = tr.op(1 + i as u64, "warmup", || run_sweep(tr, &mut c, body))?;
            for (label, report) in sweep_cells(&doc) {
                cells.push_str(&label);
                cells.push_str(&report);
            }
        }
        self.warmup_digest = fnv1a(cells.as_bytes());
        self.state = Some(FedState { nodes, addrs });
        Ok(())
    }

    fn timed(&mut self, tr: &Tracer, dur: Duration, max_ops: u64) -> Timed {
        let st = self.state.as_ref().expect("set up");
        self.phases += 1;
        let phase = self.phases;
        let deadline = Instant::now() + dur;
        let start = Instant::now();
        let mut total = Timed::default();
        let mut samples = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..FED_CLIENTS)
                .map(|ci| {
                    let addr = &st.addrs[ci % st.addrs.len()];
                    let seed = self.seed;
                    let budget = (deadline, max_ops.div_ceil(FED_CLIENTS as u64));
                    s.spawn(move || fed_client(tr, addr, seed, ci, phase, budget))
                })
                .collect();
            for h in handles {
                let (t, smp) = h.join().expect("fed client thread");
                total.merge(t);
                samples.extend(smp);
            }
        });
        total.wall_s = start.elapsed().as_secs_f64();
        self.samples.extend(samples);
        total
    }

    fn check(&mut self, _tr: &Tracer) -> Checks {
        let mut c = Checks::default();
        for (workload, seed, doc) in &self.samples {
            let served = sweep_cells(doc);
            let direct = direct_sweep(workload, *seed);
            c.expect(
                served.len() == direct.len(),
                &format!("fed-sweep {workload} seed {seed}: cell count"),
            );
            for (label, report) in &direct {
                let got = served.iter().find(|(l, _)| l == label).map(|(_, r)| r);
                c.expect(
                    got == Some(report),
                    &format!("fed-sweep {workload} seed {seed} {label}: served == direct"),
                );
            }
        }
        c
    }

    fn teardown(&mut self) {
        if let Some(st) = self.state.take() {
            for n in st.nodes {
                n.shutdown();
            }
        }
    }

    fn input_digest(&self) -> u64 {
        fnv1a(self.warmup_bodies().concat().as_bytes())
    }

    fn report_digest(&self) -> u64 {
        self.warmup_digest
    }

    fn threads(&self) -> Threads {
        Threads {
            clients: FED_CLIENTS,
            nodes: 2,
            workers_per_node: 1,
            sim_threads: 0,
        }
    }

    fn probe_profiles(&self) -> Vec<WorkloadProfile> {
        probe_profiles(self.seed)
    }
}

type FedClientOut = (Timed, Vec<(String, u64, Json)>);

fn fed_client(
    tr: &Tracer,
    addr: &str,
    seed: u64,
    ci: usize,
    phase: u64,
    (deadline, max_ops): (Instant, u64),
) -> FedClientOut {
    let mut t = Timed::default();
    let mut samples = Vec::new();
    let mut c = client(addr);
    let mut r = rng(seed, 200 + ci as u64 * 1000 + phase);
    let mut k = 0u64;
    while Instant::now() < deadline && t.attempted < max_ops {
        k += 1;
        let op_id = (seed << 24) ^ ((ci as u64) << 56) ^ (phase << 40) ^ k;
        c.set_request_id(Some(format!("{op_id:016x}")));
        let workload = SERVED_PROFILES[r.index(SERVED_PROFILES.len())];
        let s = r.next_u64();
        let body = matrix_body(workload, s);
        let t0 = Instant::now();
        let result = tr.op(op_id, "op", || run_sweep(tr, &mut c, &body));
        let lat = t0.elapsed();
        t.attempted += 1;
        let doc = match result {
            Ok(doc) => doc,
            Err(e) => {
                t.failed += 1;
                eprintln!("perfbench: fed-sweep: {e}");
                continue;
            }
        };
        let cells = sweep_cells(&doc);
        if cells.len() != FED_CAPACITIES.len() * FED_POLICIES.len() {
            t.failed += 1;
            eprintln!(
                "perfbench: fed-sweep: {} cells in a settled sweep",
                cells.len()
            );
            continue;
        }
        let insts: u64 = cells
            .iter()
            .map(|(_, rep)| served_insts(rep.as_bytes(), FED_WARMUP))
            .sum();
        if samples.len() < SAMPLES_PER_CLIENT - 1 {
            samples.push((workload.to_owned(), s, doc));
        }
        t.record("sweep", lat, insts);
    }
    (t, samples)
}
