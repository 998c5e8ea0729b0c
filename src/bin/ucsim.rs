//! `ucsim` — command-line front end for single simulations.
//!
//! ```text
//! ucsim --workload bm-cc --capacity 2048 --compaction fpwac --insts 1000000
//! ucsim client --addr 127.0.0.1:7199 --workload redis
//! ```
//!
//! `ucsim client` is a thin client of `ucsim-serve`: it sends the same
//! [`SimRequest`]/[`MatrixRequest`] JSON the server parses and reads
//! failures through the server's own [`ErrorObject`] decoder.

use std::str::FromStr;

use ucsim::mem::ReplacementPolicy;
use ucsim::model::{fnv1a, FromJson, Json, ToJson};
use ucsim::pipeline::{SimConfig, Simulator};
use ucsim::serve::{
    request, AdaptiveMode, Client, ErrorObject, HttpResponse, MatrixRequest, ProgramMeta,
    RetryPolicy, SimRequest, SweepAccepted, SweepStatus,
};
use ucsim::trace::{Program, WorkloadProfile};
use ucsim::uopcache::{CompactionPolicy, UopCacheConfig};

const USAGE: &str = "\
ucsim — x86 uop cache simulator (MICRO 2020 reproduction)

USAGE:
    ucsim [OPTIONS]
    ucsim client [CLIENT OPTIONS]     submit a job to a ucsim-serve instance
    ucsim client matrix [MATRIX OPTIONS]
                                      submit a capacity x policy sweep plan and
                                      poll it to completion (one connection)
    ucsim client job --id N [--profile|--cancel] [--addr A]
                                      fetch one job's state/result, its
                                      execution profile with --profile, or
                                      cancel it with --cancel
    ucsim client program upload <file> [--addr A]
                                      upload a .asm (ucasm) or .uct trace;
                                      prints the content-addressed ref
    ucsim client program list [--kind asm|trace] [--addr A]
    ucsim client program show <id> [--raw] [--addr A]

OPTIONS:
    --workload <name>      Table II workload (default bm-cc); use --list to see all
    --asm <file>           assemble a ucasm program and simulate it instead
                           of a synthetic Table II workload
    --seed <n>             walk seed for --asm (default: FNV-1a of the
                           file bytes — the program's content address)
    --capacity <uops>      uop cache capacity: 2048/4096/.../65536 (default 2048)
    --clasp                enable CLASP
    --compaction <p>       rac | pwac | fpwac (implies --clasp)
    --max-entries <n>      compacted entries per line, 2 or 3 (default 2)
    --replacement <p>      lru | plru | srrip (default lru)
    --loop-cache <uops>    enable the loop cache with this capacity
    --trace <file>         replay a recorded .uct trace instead of synthesizing
    --insts <n>            measured instructions (default 2000000)
    --warmup <n>           warmup instructions (default 200000)
    --list                 list workloads and exit
    --help                 this text

CLIENT OPTIONS:
    --addr <host:port>     server address (default 127.0.0.1:7199)
    --peer <host:port>     failover address (repeatable): a connect error
                           or 5xx rotates to the next peer instead of
                           retrying the same node
    --workload <name>      workload to submit (default bm-cc): a profile
                           name or an uploaded-program ref
                           (program:<id> / trace:<id>)
    --seed <n>             generation seed (default: the workload's own)
    --insts <n>            measured instructions
    --warmup <n>           warmup instructions
    --background           submit async, print the job id and exit
    --job <id>             poll a background job instead of submitting
    --metrics              fetch /v1/metrics instead of submitting
    --no-retry             fail immediately instead of retrying transient
                           errors and 429 backpressure (default: 3 retries
                           with jittered exponential backoff)

MATRIX OPTIONS:
    --addr <host:port>     server address (default 127.0.0.1:7199)
    --workloads <a,b,...>  workload set (default bm-cc)
    --capacities <n,...>   capacity axis in uops (default: Table I sweep)
    --policies <p,...>     baseline|clasp|rac|pwac|fpwac (default baseline)
    --max-entries <n>      compacted entries per line (default 2)
    --seed <n>             seed for every cell (default: per-workload)
    --insts <n>            measured instructions per cell
    --warmup <n>           warmup instructions per cell
    --tenant <name>        fair-share tenant the plan is charged to
    --priority <n>         scheduling priority within the tenant (higher first)
    --adaptive             refine the capacity axis adaptively: bisect until
                           the UPC knee is bracketed instead of simulating
                           the full cross
    --tolerance <f>        relative knee tolerance for --adaptive (default 0.05)
    --cancel <id>          cancel a running sweep instead of submitting
    --poll-ms <n>          progress poll interval (default 500)
    --no-retry             fail immediately instead of retrying transient
                           errors and 429 backpressure
";

/// The server `ucsim client` talks to unless `--addr` says otherwise.
const DEFAULT_ADDR: &str = "127.0.0.1:7199";

/// Reports a usage error and exits with status 2.
fn bail(m: &str) -> ! {
    eprintln!("error: {m}\n\n{USAGE}");
    std::process::exit(2)
}

/// Reports `m` and exits with `status`.
fn die(status: i32, m: &str) -> ! {
    eprintln!("{m}");
    std::process::exit(status)
}

/// Prints `USAGE` and exits 0 when `word` is `--help` or `-h`.
fn exit_on_help(word: &str) {
    if word == "--help" || word == "-h" {
        println!("{USAGE}");
        std::process::exit(0);
    }
}

/// One mode's argv, read a word at a time. A value flag takes the next
/// word; its errors read `<flag> <what>`, e.g. `--insts needs a number`.
struct Flags<'a> {
    words: std::slice::Iter<'a, String>,
    /// The word [`Flags::next`] returned last.
    flag: &'a str,
    /// The mode's name in "unknown … option" errors (`"client "`, …).
    mode: &'static str,
    /// A missing value reads `<flag> needs a value` (the `client matrix`
    /// wording) instead of the flag's own `what`.
    generic_missing: bool,
}

impl<'a> Flags<'a> {
    fn new(argv: &'a [String], mode: &'static str) -> Self {
        Flags {
            words: argv.iter(),
            flag: "",
            mode,
            generic_missing: false,
        }
    }

    /// The next word; `--help`/`-h` prints `USAGE` and exits 0.
    fn next(&mut self) -> Option<&'a str> {
        let word = self.words.next()?;
        exit_on_help(word);
        self.flag = word;
        Some(word)
    }

    /// A usage error `<flag> <what>`.
    fn fail(&self, what: &str) -> ! {
        bail(&format!("{} {what}", self.flag))
    }

    /// The current flag's value.
    fn value(&mut self, what: &str) -> String {
        match self.words.next() {
            Some(v) => v.clone(),
            None if self.generic_missing => self.fail("needs a value"),
            None => self.fail(what),
        }
    }

    /// The current flag's value parsed as a `T`.
    fn parse<T: FromStr>(&mut self, what: &str) -> T {
        self.value(what).parse().unwrap_or_else(|_| self.fail(what))
    }

    /// The current flag's value as a number.
    fn number<T: FromStr>(&mut self) -> T {
        self.parse("needs a number")
    }

    /// The current flag's value as a comma-separated list.
    fn list(&mut self) -> Vec<String> {
        let v = self.value("needs a value");
        let items = v.split(',').map(str::trim).filter(|s| !s.is_empty());
        items.map(str::to_owned).collect()
    }

    /// The usage error for an unknown word.
    fn unknown(&self) -> ! {
        bail(&format!("unknown {}option {}", self.mode, self.flag))
    }
}

/// Unwraps a transport result, or reports that `addr` cannot be reached
/// and exits 1.
fn reach<T>(addr: &str, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| die(1, &format!("cannot reach {addr}: {e}")))
}

/// Sends a one-shot (`Connection: close`) request to `addr`, exiting 1
/// when it cannot be reached.
fn send(addr: &str, method: &str, path: &str, body: &[u8]) -> HttpResponse {
    reach(addr, request(addr, method, path, body))
}

/// A keep-alive client for `addr`, retrying transient errors unless
/// `--no-retry` was given.
fn retrying_client(addr: &str, no_retry: bool) -> Client {
    let policy = if no_retry {
        RetryPolicy::none()
    } else {
        RetryPolicy::default()
    };
    Client::with_retry(addr, policy)
}

/// Prints a non-success response — the server's error object, or the
/// raw body when it sent none — and exits 1.
fn server_error(resp: &HttpResponse) -> ! {
    match ErrorObject::from_envelope(&resp.body) {
        Some(e) => {
            eprintln!(
                "server answered {} [{}]: {}",
                resp.status, e.code, e.message
            );
            if let Some(secs) = e.retry_after {
                eprintln!("(retry after {secs}s)");
            }
        }
        None => eprintln!("server answered {}:\n{}", resp.status, resp.body_str()),
    }
    std::process::exit(1)
}

/// `resp` when its status is one of `ok`; otherwise a [`server_error`].
fn expect(resp: HttpResponse, ok: &[u16]) -> HttpResponse {
    if !ok.contains(&resp.status) {
        server_error(&resp);
    }
    resp
}

/// Prints a response body as pretty JSON, or verbatim when it is not JSON.
fn print_pretty(resp: &HttpResponse) {
    let text = resp.body_str();
    println!(
        "{}",
        Json::parse(&text).map_or(text.clone(), |j| j.to_pretty())
    );
}

/// `DELETE`s a job or sweep. Success is the error envelope carrying the
/// stable `cancelled` code; its message is printed.
fn cancel(addr: &str, path: &str) {
    let resp = send(addr, "DELETE", path, b"");
    match ErrorObject::from_envelope(&resp.body) {
        Some(e) if e.code == "cancelled" => eprintln!("{}", e.message),
        _ => server_error(&resp),
    }
}

/// The `ucsim client matrix` subcommand: POST a sweep, then poll it to
/// completion on the same kept-alive connection and print the aggregate.
fn client_matrix(argv: &[String]) {
    let mut addr = DEFAULT_ADDR.to_owned();
    let mut req = MatrixRequest {
        workloads: vec!["bm-cc".to_owned()],
        ..MatrixRequest::default()
    };
    let mut poll_ms: u64 = 500;
    let mut no_retry = false;
    let mut adaptive = false;
    let mut tolerance: Option<f64> = None;
    let mut cancel_id: Option<u64> = None;
    let mut flags = Flags {
        generic_missing: true,
        ..Flags::new(argv, "matrix ")
    };
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => addr = flags.value("needs a value"),
            "--tenant" => req.tenant = Some(flags.value("needs a value")),
            "--priority" => req.priority = Some(flags.number()),
            "--adaptive" => adaptive = true,
            "--tolerance" => tolerance = Some(flags.parse("needs a number in [0,1)")),
            "--cancel" => cancel_id = Some(flags.parse("needs a sweep id")),
            "--workloads" => req.workloads = flags.list(),
            "--capacities" => {
                let caps: Option<Vec<u64>> = flags.list().iter().map(|s| s.parse().ok()).collect();
                req.capacities = Some(caps.unwrap_or_else(|| flags.fail("takes uop counts")));
            }
            "--policies" => req.policies = Some(flags.list()),
            "--max-entries" => req.max_entries = Some(flags.parse("takes a number")),
            "--seed" => req.seed = Some(flags.number()),
            "--insts" => req.insts = Some(flags.number()),
            "--warmup" => req.warmup = Some(flags.number()),
            "--poll-ms" => poll_ms = flags.number(),
            "--no-retry" => no_retry = true,
            _ => flags.unknown(),
        }
    }

    if let Some(id) = cancel_id {
        return cancel(&addr, &format!("/v1/matrix/{id}"));
    }
    if adaptive {
        let axis = Some("capacity".to_owned());
        let mode = AdaptiveMode { axis, tolerance }.to_json();
        req.mode = Some(Json::Obj(vec![("adaptive".to_owned(), mode)]));
    }

    let mut client = retrying_client(&addr, no_retry);
    let body = req.to_json_string().into_bytes();
    let resp = reach(&addr, client.request_retrying("POST", "/v1/matrix", &body));
    let text = expect(resp, &[202]).body_str();
    let Ok(SweepAccepted { id, planned, .. }) = SweepAccepted::from_json_str(&text) else {
        die(1, &format!("malformed accept response: {text}"));
    };
    eprintln!("sweep {id} accepted: {planned} cells planned");

    let path = format!("/v1/matrix/{id}");
    let mut last_done = u64::MAX;
    loop {
        let resp = reach(&addr, client.request_retrying("GET", &path, b""));
        let text = expect(resp, &[200]).body_str();
        let v = SweepStatus::from_json_str(&text)
            .unwrap_or_else(|e| die(1, &format!("malformed sweep status ({e}): {text}")));
        // Adaptive plans grow: report against the current planned count.
        let (done, planned) = (v.done, v.planned);
        if done != last_done {
            eprintln!("  {done}/{planned} cells done");
            last_done = done;
        }
        let report = v.report.as_ref().map(|r| r.to_json().to_pretty());
        match v.state.as_str() {
            "done" => {
                let (simulated, skipped) = (v.simulated, v.skipped_from_store);
                eprintln!("sweep done: {simulated} cells simulated, {skipped} resolved from store");
                println!("{}", report.unwrap_or(text));
                return;
            }
            state @ ("partial" | "failed") => {
                eprintln!("sweep {state}: {}/{planned} cells failed", v.failed);
                for c in &v.cells {
                    if let Some(e) = &c.error {
                        eprintln!("  {}: [{}] {}", c.label, e.code, e.message);
                    }
                }
                // A partial sweep still aggregated its surviving cells:
                // print that table, but exit non-zero so scripts notice.
                if let Some(report) = report {
                    println!("{report}");
                }
                std::process::exit(1);
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(poll_ms)),
        }
    }
}

/// The `ucsim client job` subcommand: fetch one job by id — its
/// state/result envelope, its execution profile with `--profile` — or
/// cancel it with `--cancel`.
fn client_job(argv: &[String]) {
    let mut addr = DEFAULT_ADDR.to_owned();
    let mut id: Option<u64> = None;
    let mut profile = false;
    let mut cancel_it = false;
    let mut flags = Flags::new(argv, "job ");
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => addr = flags.value("needs host:port"),
            "--id" => id = Some(flags.parse("needs a job id")),
            "--profile" => profile = true,
            "--cancel" => cancel_it = true,
            _ => flags.unknown(),
        }
    }
    let Some(id) = id else {
        bail("job needs --id");
    };
    if cancel_it {
        return cancel(&addr, &format!("/v1/jobs/{id}"));
    }
    let suffix = if profile { "/profile" } else { "" };
    let resp = send(&addr, "GET", &format!("/v1/jobs/{id}{suffix}"), b"");
    print_pretty(&expect(resp, &[200]));
}

/// The `ucsim client program` subcommand: upload, list, or inspect
/// content-addressed user programs on a running server.
fn client_program(argv: &[String]) {
    let Some((verb, argv)) = argv.split_first() else {
        bail("program needs upload|list|show");
    };
    exit_on_help(verb);
    let mut addr = DEFAULT_ADDR.to_owned();
    let mut kind: Option<String> = None;
    let mut raw = false;
    let mut positional: Vec<&str> = Vec::new();
    let mut flags = Flags::new(argv, "program ");
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => addr = flags.value("needs host:port"),
            "--kind" => kind = Some(flags.value("takes asm|trace")),
            "--raw" => raw = true,
            word if !word.starts_with('-') => positional.push(word),
            _ => flags.unknown(),
        }
    }
    match verb.as_str() {
        "upload" => {
            let Some(path) = positional.first() else {
                bail("program upload needs a file");
            };
            let bytes =
                std::fs::read(path).unwrap_or_else(|e| die(1, &format!("cannot open {path}: {e}")));
            let text = expect(send(&addr, "POST", "/v1/programs", &bytes), &[200, 201]).body_str();
            let Ok(meta) = ProgramMeta::from_json_str(&text) else {
                die(1, &format!("malformed upload response: {text}"));
            };
            let note = if meta.created == Some(true) {
                "uploaded"
            } else {
                "already known"
            };
            eprintln!("{note}: {}", meta.r#ref);
            println!("{}", meta.to_json().to_pretty());
        }
        "list" => {
            let query = kind.map_or_else(String::new, |k| format!("?kind={k}"));
            let resp = send(&addr, "GET", &format!("/v1/programs{query}"), b"");
            print_pretty(&expect(resp, &[200]));
        }
        "show" => {
            let Some(id) = positional.first() else {
                bail("program show needs an id");
            };
            // Accept the bare 16-hex id or a full program:/trace: ref.
            let id = id.rsplit(':').next().unwrap_or(id);
            let suffix = if raw { "/raw" } else { "" };
            let resp = send(&addr, "GET", &format!("/v1/programs/{id}{suffix}"), b"");
            let resp = expect(resp, &[200]);
            if raw {
                use std::io::Write;
                std::io::stdout()
                    .write_all(&resp.body)
                    .unwrap_or_else(|e| die(1, &format!("cannot write raw program: {e}")));
            } else {
                print_pretty(&resp);
            }
        }
        other => bail(&format!("unknown program verb {other} (upload|list|show)")),
    }
}

/// The `ucsim client` subcommand: talk to a running `ucsim-serve`.
fn client_main(argv: &[String]) {
    match argv.first().map(String::as_str) {
        Some("matrix") => return client_matrix(&argv[1..]),
        Some("job") => return client_job(&argv[1..]),
        Some("program") => return client_program(&argv[1..]),
        _ => {}
    }
    let mut addr = DEFAULT_ADDR.to_owned();
    let mut peers: Vec<String> = Vec::new();
    let mut req = SimRequest {
        workload: "bm-cc".to_owned(),
        ..SimRequest::default()
    };
    let mut job: Option<u64> = None;
    let mut metrics = false;
    let mut no_retry = false;
    let mut flags = Flags::new(argv, "client ");
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => addr = flags.value("needs host:port"),
            "--peer" => peers.push(flags.value("needs host:port")),
            "--workload" => req.workload = flags.value("needs a name"),
            "--seed" => req.seed = Some(flags.number()),
            "--insts" => req.insts = Some(flags.number()),
            "--warmup" => req.warmup = Some(flags.number()),
            "--background" => req.background = Some(true),
            "--job" => job = Some(flags.parse("needs an id")),
            "--metrics" => metrics = true,
            "--no-retry" => no_retry = true,
            _ => flags.unknown(),
        }
    }

    let (method, path, body) = if metrics {
        ("GET", "/v1/metrics".to_owned(), Vec::new())
    } else if let Some(id) = job {
        ("GET", format!("/v1/jobs/{id}"), Vec::new())
    } else {
        (
            "POST",
            "/v1/sim".to_owned(),
            req.to_json_string().into_bytes(),
        )
    };
    let mut client = retrying_client(&addr, no_retry);
    for peer in &peers {
        client.add_peer(peer);
    }
    let resp = reach(&addr, client.request_retrying(method, &path, &body));
    print_pretty(&expect(resp, &[200, 202]));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("client") {
        return client_main(&argv[1..]);
    }
    let mut workload = "bm-cc".to_owned();
    let mut trace: Option<String> = None;
    let mut asm: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut capacity: usize = 2048;
    let mut clasp = false;
    let mut compaction: Option<CompactionPolicy> = None;
    let mut max_entries: u32 = 2;
    let mut replacement = ReplacementPolicy::Lru;
    let mut loop_cache: u32 = 0;
    let mut insts: u64 = 2_000_000;
    let mut warmup: u64 = 200_000;
    let mut flags = Flags::new(&argv, "");
    while let Some(flag) = flags.next() {
        match flag {
            "--list" => {
                println!("{:<14} {:<14} target-MPKI", "name", "suite");
                for p in WorkloadProfile::table2() {
                    println!("{:<14} {:<14} {:.2}", p.name, p.suite, p.target_mpki);
                }
                std::process::exit(0);
            }
            "--trace" => trace = Some(flags.value("needs a path")),
            "--asm" => asm = Some(flags.value("needs a path")),
            "--seed" => seed = Some(flags.number()),
            "--workload" => workload = flags.value("needs a name"),
            "--capacity" => capacity = flags.parse("needs a uop count"),
            "--clasp" => clasp = true,
            "--compaction" => {
                compaction = Some(match flags.value("takes rac|pwac|fpwac").as_str() {
                    "rac" => CompactionPolicy::Rac,
                    "pwac" => CompactionPolicy::Pwac,
                    "fpwac" => CompactionPolicy::Fpwac,
                    _ => flags.fail("takes rac|pwac|fpwac"),
                });
            }
            "--max-entries" => max_entries = flags.parse("takes 2 or 3"),
            "--replacement" => {
                replacement = match flags.value("takes lru|plru|srrip").as_str() {
                    "lru" => ReplacementPolicy::Lru,
                    "plru" => ReplacementPolicy::TreePlru,
                    "srrip" => ReplacementPolicy::Srrip,
                    _ => flags.fail("takes lru|plru|srrip"),
                };
            }
            "--loop-cache" => loop_cache = flags.parse("needs a uop count"),
            "--insts" => insts = flags.number(),
            "--warmup" => warmup = flags.number(),
            _ => flags.unknown(),
        }
    }

    let mut oc = UopCacheConfig::try_baseline_with_capacity(capacity)
        .unwrap_or_else(|e| bail(&e))
        .with_replacement(replacement);
    if let Some(policy) = compaction {
        oc = oc.with_compaction(policy, max_entries);
    } else if clasp {
        oc = oc.with_clasp();
    }
    if let Err(e) = oc.check() {
        bail(&e);
    }

    let mut cfg = SimConfig::table1()
        .with_uop_cache(oc)
        .with_insts(warmup, insts);
    cfg.core.loop_cache_uops = loop_cache;

    let t0 = std::time::Instant::now();
    let r = if let Some(path) = &asm {
        let bytes =
            std::fs::read(path).unwrap_or_else(|e| die(2, &format!("cannot open {path}: {e}")));
        // The content address is what the server would mint for the same
        // upload; the walk seed defaults to it so `ucsim --asm f.asm` and a
        // served `program:<id>` job replay the exact same stream.
        let hash = fnv1a(&bytes);
        let seed = seed.unwrap_or(hash);
        let text = String::from_utf8(bytes)
            .unwrap_or_else(|_| die(2, &format!("cannot parse {path}: not UTF-8 ucasm text")));
        let assembled = ucsim::isa::assemble(&text)
            .unwrap_or_else(|e| die(2, &format!("cannot assemble {path}: {e}")));
        let program = ucsim::trace::load_asm(&assembled, seed);
        let profile = WorkloadProfile::user_program(seed);
        eprintln!(
            "simulating program:{hash:016x} ({path}) | capacity {capacity} uops | clasp={} compaction={:?} | seed {seed} | {insts} insts",
            cfg.uop_cache.clasp, cfg.uop_cache.compaction
        );
        Simulator::new(cfg).run(&profile, &program)
    } else if let Some(path) = &trace {
        let file = std::fs::File::open(path)
            .unwrap_or_else(|e| die(2, &format!("cannot open {path}: {e}")));
        let trace = ucsim::trace::Trace::load(file)
            .unwrap_or_else(|e| die(2, &format!("cannot parse {path}: {e}")));
        eprintln!(
            "replaying {path} ({} of {} recorded insts) | capacity {capacity} uops",
            trace.len().min((warmup + insts) as usize),
            trace.len(),
        );
        Simulator::new(cfg).run_trace(path, &trace)
    } else {
        let Some(profile) = WorkloadProfile::by_name(&workload) else {
            die(2, &format!("unknown workload '{workload}' (try --list)"));
        };
        eprintln!(
            "simulating {} | capacity {capacity} uops | clasp={} compaction={:?} | {insts} insts",
            profile.name, cfg.uop_cache.clasp, cfg.uop_cache.compaction
        );
        let program = Program::generate(&profile);
        Simulator::new(cfg).run(&profile, &program)
    };
    eprintln!("({:?})", t0.elapsed());

    println!("insts                {:>14}", r.insts);
    println!("uops                 {:>14}", r.uops);
    println!("cycles               {:>14}", r.cycles);
    println!("UPC                  {:>14.4}", r.upc);
    println!("dispatch uops/cycle  {:>14.4}", r.dispatch_bw);
    println!("OC fetch ratio       {:>14.4}", r.oc_fetch_ratio);
    println!("OC hit rate          {:>14.4}", r.oc_hit_rate);
    println!("OC fills             {:>14}", r.oc_fills);
    println!("loop-cache uops      {:>14}", r.loop_uops);
    println!("branch MPKI          {:>14.2}", r.mpki);
    println!("mispredict latency   {:>14.1}", r.avg_mispredict_latency);
    println!("decoder power        {:>14.4}", r.decoder_power);
    println!("front-end power      {:>14.4}", r.front_end_power);
    println!("taken-term fraction  {:>14.3}", r.taken_term_frac);
    println!("spanning fraction    {:>14.3}", r.spanning_frac);
    println!("compacted fraction   {:>14.3}", r.compacted_fill_frac);
    println!("SMC probes           {:>14}", r.smc_probes);
}
