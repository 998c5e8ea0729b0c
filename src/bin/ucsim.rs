//! `ucsim` — command-line front end for single simulations.
//!
//! ```text
//! ucsim --workload bm-cc --capacity 2048 --compaction fpwac --insts 1000000
//! ucsim client --addr 127.0.0.1:7199 --workload redis
//! ```

use ucsim::mem::ReplacementPolicy;
use ucsim::model::Json;
use ucsim::pipeline::{SimConfig, Simulator};
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

struct Args {
    workload: String,
    trace: Option<String>,
    asm: Option<String>,
    seed: Option<u64>,
    capacity: usize,
    clasp: bool,
    compaction: Option<CompactionPolicy>,
    max_entries: u32,
    replacement: ReplacementPolicy,
    loop_cache: u32,
    insts: u64,
    warmup: u64,
}

fn parse() -> Args {
    let mut a = Args {
        workload: "bm-cc".to_owned(),
        trace: None,
        asm: None,
        seed: None,
        capacity: 2048,
        clasp: false,
        compaction: None,
        max_entries: 2,
        replacement: ReplacementPolicy::Lru,
        loop_cache: 0,
        insts: 2_000_000,
        warmup: 200_000,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--list" => {
                println!("{:<14} {:<14} target-MPKI", "name", "suite");
                for p in WorkloadProfile::table2() {
                    println!("{:<14} {:<14} {:.2}", p.name, p.suite, p.target_mpki);
                }
                std::process::exit(0);
            }
            "--trace" => {
                i += 1;
                a.trace = Some(
                    argv.get(i)
                        .unwrap_or_else(|| bail("--trace needs a path"))
                        .clone(),
                );
            }
            "--asm" => {
                i += 1;
                a.asm = Some(
                    argv.get(i)
                        .unwrap_or_else(|| bail("--asm needs a path"))
                        .clone(),
                );
            }
            "--seed" => {
                i += 1;
                a.seed = Some(
                    argv.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| bail("--seed needs a number")),
                );
            }
            "--workload" => {
                i += 1;
                a.workload = argv
                    .get(i)
                    .unwrap_or_else(|| bail("--workload needs a name"))
                    .clone();
            }
            "--capacity" => {
                i += 1;
                a.capacity = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| bail("--capacity needs a uop count"));
            }
            "--clasp" => a.clasp = true,
            "--compaction" => {
                i += 1;
                a.compaction = Some(match argv.get(i).map(String::as_str) {
                    Some("rac") => CompactionPolicy::Rac,
                    Some("pwac") => CompactionPolicy::Pwac,
                    Some("fpwac") => CompactionPolicy::Fpwac,
                    _ => bail("--compaction takes rac|pwac|fpwac"),
                });
            }
            "--max-entries" => {
                i += 1;
                a.max_entries = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| bail("--max-entries takes 2 or 3"));
            }
            "--replacement" => {
                i += 1;
                a.replacement = match argv.get(i).map(String::as_str) {
                    Some("lru") => ReplacementPolicy::Lru,
                    Some("plru") => ReplacementPolicy::TreePlru,
                    Some("srrip") => ReplacementPolicy::Srrip,
                    _ => bail("--replacement takes lru|plru|srrip"),
                };
            }
            "--loop-cache" => {
                i += 1;
                a.loop_cache = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| bail("--loop-cache needs a uop count"));
            }
            "--insts" => {
                i += 1;
                a.insts = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| bail("--insts needs a number"));
            }
            "--warmup" => {
                i += 1;
                a.warmup = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| bail("--warmup needs a number"));
            }
            other => bail(&format!("unknown option {other}")),
        }
        i += 1;
    }
    a
}

/// Prints a non-2xx response — decoding the uniform error envelope
/// (`{"error":{"code","message","retry_after"?}}`) when present — and
/// exits non-zero.
fn print_error_and_exit(resp: &ucsim::serve::HttpResponse) -> ! {
    let text = resp.body_str();
    if let Some(e) = Json::parse(&text).ok().as_ref().and_then(|v| {
        v.get("error").map(|e| {
            (
                e.get("code").cloned(),
                e.get("message").cloned(),
                e.get("retry_after").cloned(),
            )
        })
    }) {
        let (code, message, retry) = e;
        let code = code.as_ref().and_then(Json::as_str).unwrap_or("unknown");
        let message = message.as_ref().and_then(Json::as_str).unwrap_or("");
        eprintln!("server answered {} [{code}]: {message}", resp.status);
        if let Some(secs) = retry.as_ref().and_then(Json::as_u64) {
            eprintln!("(retry after {secs}s)");
        }
    } else {
        eprintln!("server answered {}:\n{text}", resp.status);
    }
    std::process::exit(1);
}

fn comma_list(v: &str) -> Vec<String> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect()
}

/// The `ucsim client matrix` subcommand: POST a sweep, then poll it to
/// completion on the same kept-alive connection and print the aggregate.
fn client_matrix(argv: &[String]) {
    let mut addr = "127.0.0.1:7199".to_owned();
    let mut workloads = vec!["bm-cc".to_owned()];
    let mut capacities: Option<Vec<u64>> = None;
    let mut policies: Option<Vec<String>> = None;
    let mut max_entries: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut insts: Option<u64> = None;
    let mut warmup: Option<u64> = None;
    let mut poll_ms: u64 = 500;
    let mut no_retry = false;
    let mut tenant: Option<String> = None;
    let mut priority: Option<u64> = None;
    let mut adaptive = false;
    let mut tolerance: Option<f64> = None;
    let mut cancel_id: Option<u64> = None;
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| -> &String {
            argv.get(i + 1)
                .unwrap_or_else(|| bail(&format!("{} needs a value", argv[i])))
        };
        match argv[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--addr" => {
                addr = need(i).clone();
                i += 1;
            }
            "--tenant" => {
                tenant = Some(need(i).clone());
                i += 1;
            }
            "--priority" => {
                priority = Some(
                    need(i)
                        .parse()
                        .unwrap_or_else(|_| bail("--priority needs a number")),
                );
                i += 1;
            }
            "--adaptive" => adaptive = true,
            "--tolerance" => {
                tolerance = Some(
                    need(i)
                        .parse()
                        .unwrap_or_else(|_| bail("--tolerance needs a number in [0,1)")),
                );
                i += 1;
            }
            "--cancel" => {
                cancel_id = Some(
                    need(i)
                        .parse()
                        .unwrap_or_else(|_| bail("--cancel needs a sweep id")),
                );
                i += 1;
            }
            "--workloads" => {
                workloads = comma_list(need(i));
                i += 1;
            }
            "--capacities" => {
                capacities = Some(
                    comma_list(need(i))
                        .iter()
                        .map(|s| {
                            s.parse()
                                .unwrap_or_else(|_| bail("--capacities takes uop counts"))
                        })
                        .collect(),
                );
                i += 1;
            }
            "--policies" => {
                policies = Some(comma_list(need(i)));
                i += 1;
            }
            "--max-entries" => {
                max_entries = Some(
                    need(i)
                        .parse()
                        .unwrap_or_else(|_| bail("--max-entries takes a number")),
                );
                i += 1;
            }
            "--seed" => {
                seed = Some(
                    need(i)
                        .parse()
                        .unwrap_or_else(|_| bail("--seed needs a number")),
                );
                i += 1;
            }
            "--insts" => {
                insts = Some(
                    need(i)
                        .parse()
                        .unwrap_or_else(|_| bail("--insts needs a number")),
                );
                i += 1;
            }
            "--warmup" => {
                warmup = Some(
                    need(i)
                        .parse()
                        .unwrap_or_else(|_| bail("--warmup needs a number")),
                );
                i += 1;
            }
            "--poll-ms" => {
                poll_ms = need(i)
                    .parse()
                    .unwrap_or_else(|_| bail("--poll-ms needs a number"));
                i += 1;
            }
            "--no-retry" => no_retry = true,
            other => bail(&format!("unknown matrix option {other}")),
        }
        i += 1;
    }

    if let Some(id) = cancel_id {
        let resp = ucsim::serve::request(&addr, "DELETE", &format!("/v1/matrix/{id}"), b"")
            .unwrap_or_else(|e| {
                eprintln!("cannot reach {addr}: {e}");
                std::process::exit(1);
            });
        // A successful cancel answers with the standard error envelope
        // carrying the stable `cancelled` code.
        let v = Json::parse(&resp.body_str()).unwrap_or(Json::Null);
        let code = v
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("?");
        if code == "cancelled" {
            let msg = v
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("");
            eprintln!("{msg}");
            return;
        }
        print_error_and_exit(&resp);
    }

    let mut fields = vec![(
        "workloads".to_owned(),
        Json::Arr(workloads.into_iter().map(Json::Str).collect()),
    )];
    if let Some(caps) = capacities {
        fields.push((
            "capacities".to_owned(),
            Json::Arr(caps.into_iter().map(Json::Uint).collect()),
        ));
    }
    if let Some(ps) = policies {
        fields.push((
            "policies".to_owned(),
            Json::Arr(ps.into_iter().map(Json::Str).collect()),
        ));
    }
    if let Some(n) = max_entries {
        fields.push(("max_entries".to_owned(), Json::Uint(n)));
    }
    if let Some(s) = seed {
        fields.push(("seed".to_owned(), Json::Uint(s)));
    }
    if let Some(w) = warmup {
        fields.push(("warmup".to_owned(), Json::Uint(w)));
    }
    if let Some(n) = insts {
        fields.push(("insts".to_owned(), Json::Uint(n)));
    }
    if let Some(t) = tenant {
        fields.push(("tenant".to_owned(), Json::Str(t)));
    }
    if let Some(p) = priority {
        fields.push(("priority".to_owned(), Json::Uint(p)));
    }
    if adaptive {
        let mut inner = vec![("axis".to_owned(), Json::Str("capacity".to_owned()))];
        if let Some(t) = tolerance {
            inner.push(("tolerance".to_owned(), Json::Float(t)));
        }
        fields.push((
            "mode".to_owned(),
            Json::Obj(vec![("adaptive".to_owned(), Json::Obj(inner))]),
        ));
    }
    let body = Json::Obj(fields).to_string().into_bytes();

    let policy = if no_retry {
        ucsim::serve::RetryPolicy::none()
    } else {
        ucsim::serve::RetryPolicy::default()
    };
    let mut client = ucsim::serve::Client::with_retry(&addr, policy);
    let cannot = |e: std::io::Error| -> ! {
        eprintln!("cannot reach {addr}: {e}");
        std::process::exit(1)
    };
    let resp = client
        .request_retrying("POST", "/v1/matrix", &body)
        .unwrap_or_else(|e| cannot(e));
    if resp.status != 202 {
        print_error_and_exit(&resp);
    }
    let accepted = Json::parse(&resp.body_str()).unwrap_or(Json::Null);
    let Some(id) = accepted.get("id").and_then(Json::as_u64) else {
        eprintln!("malformed accept response: {}", resp.body_str());
        std::process::exit(1);
    };
    let planned = accepted.get("planned").and_then(Json::as_u64).unwrap_or(0);
    eprintln!("sweep {id} accepted: {planned} cells planned");

    let path = format!("/v1/matrix/{id}");
    let mut last_done = u64::MAX;
    loop {
        let resp = client
            .request_retrying("GET", &path, b"")
            .unwrap_or_else(|e| cannot(e));
        if resp.status != 200 {
            print_error_and_exit(&resp);
        }
        let text = resp.body_str();
        let v = Json::parse(&text).unwrap_or(Json::Null);
        let state = v.get("state").and_then(Json::as_str).unwrap_or("?");
        let done = v.get("done").and_then(Json::as_u64).unwrap_or(0);
        // Adaptive plans grow: report against the current planned count.
        let planned = v.get("planned").and_then(Json::as_u64).unwrap_or(planned);
        if done != last_done {
            eprintln!("  {done}/{planned} cells done");
            last_done = done;
        }
        match state {
            "done" => {
                let skipped = v
                    .get("skipped_from_store")
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                let simulated = v.get("simulated").and_then(Json::as_u64).unwrap_or(0);
                eprintln!("sweep done: {simulated} cells simulated, {skipped} resolved from store");
                let pretty = v
                    .get("report")
                    .map_or_else(|| text.clone(), Json::to_pretty);
                println!("{pretty}");
                return;
            }
            "partial" | "failed" => {
                let failed = v.get("failed").and_then(Json::as_u64).unwrap_or(0);
                eprintln!("sweep {state}: {failed}/{planned} cells failed");
                if let Some(cells) = v.get("cells").and_then(Json::as_arr) {
                    for c in cells {
                        if let Some(err) = c.get("error") {
                            let label = c.get("label").and_then(Json::as_str).unwrap_or("?");
                            let code = err.get("code").and_then(Json::as_str).unwrap_or("unknown");
                            let msg = err.get("message").and_then(Json::as_str).unwrap_or("");
                            eprintln!("  {label}: [{code}] {msg}");
                        }
                    }
                }
                // A partial sweep still aggregated its surviving cells:
                // print that table, but exit non-zero so scripts notice.
                if let Some(agg) = v.get("report") {
                    println!("{}", agg.to_pretty());
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
    let mut addr = "127.0.0.1:7199".to_owned();
    let mut id: Option<u64> = None;
    let mut profile = false;
    let mut cancel = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--addr" => {
                i += 1;
                addr = argv
                    .get(i)
                    .unwrap_or_else(|| bail("--addr needs host:port"))
                    .clone();
            }
            "--id" => {
                i += 1;
                id = Some(
                    argv.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| bail("--id needs a job id")),
                );
            }
            "--profile" => profile = true,
            "--cancel" => cancel = true,
            other => bail(&format!("unknown job option {other}")),
        }
        i += 1;
    }
    let Some(id) = id else {
        bail("job needs --id");
    };
    if cancel {
        let resp = ucsim::serve::request(&addr, "DELETE", &format!("/v1/jobs/{id}"), b"")
            .unwrap_or_else(|e| {
                eprintln!("cannot reach {addr}: {e}");
                std::process::exit(1);
            });
        // Mirrors `matrix --cancel`: success is the standard error
        // envelope with the stable `cancelled` code.
        let v = Json::parse(&resp.body_str()).unwrap_or(Json::Null);
        let err = v.get("error");
        if err
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .is_some_and(|c| c == "cancelled")
        {
            let msg = err
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("");
            eprintln!("{msg}");
            return;
        }
        print_error_and_exit(&resp);
    }
    let path = if profile {
        format!("/v1/jobs/{id}/profile")
    } else {
        format!("/v1/jobs/{id}")
    };
    let resp = ucsim::serve::request(&addr, "GET", &path, b"").unwrap_or_else(|e| {
        eprintln!("cannot reach {addr}: {e}");
        std::process::exit(1);
    });
    if resp.status != 200 {
        print_error_and_exit(&resp);
    }
    let text = resp.body_str();
    println!(
        "{}",
        Json::parse(&text).map_or(text.clone(), |j| j.to_pretty())
    );
}

/// The `ucsim client program` subcommand: upload, list, or inspect
/// content-addressed user programs on a running server.
fn client_program(argv: &[String]) {
    let Some(verb) = argv.first().map(String::as_str) else {
        bail("program needs upload|list|show");
    };
    let mut addr = "127.0.0.1:7199".to_owned();
    let mut kind: Option<String> = None;
    let mut raw = false;
    let mut positional: Vec<String> = Vec::new();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--addr" => {
                i += 1;
                addr = argv
                    .get(i)
                    .unwrap_or_else(|| bail("--addr needs host:port"))
                    .clone();
            }
            "--kind" => {
                i += 1;
                kind = Some(
                    argv.get(i)
                        .unwrap_or_else(|| bail("--kind takes asm|trace"))
                        .clone(),
                );
            }
            "--raw" => raw = true,
            other if !other.starts_with('-') => positional.push(other.to_owned()),
            other => bail(&format!("unknown program option {other}")),
        }
        i += 1;
    }
    let send = |method: &str, path: &str, body: &[u8]| -> ucsim::serve::HttpResponse {
        ucsim::serve::request(&addr, method, path, body).unwrap_or_else(|e| {
            eprintln!("cannot reach {addr}: {e}");
            std::process::exit(1);
        })
    };
    match verb {
        "upload" => {
            let Some(path) = positional.first() else {
                bail("program upload needs a file");
            };
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(1);
            });
            let resp = send("POST", "/v1/programs", &bytes);
            if resp.status != 200 && resp.status != 201 {
                print_error_and_exit(&resp);
            }
            let text = resp.body_str();
            let v = Json::parse(&text).unwrap_or(Json::Null);
            if let Some(r) = v.get("ref").and_then(Json::as_str) {
                let created = v.get("created").and_then(Json::as_bool).unwrap_or(false);
                let note = if created { "uploaded" } else { "already known" };
                eprintln!("{note}: {r}");
            }
            println!("{}", v.to_pretty());
        }
        "list" => {
            let path = match &kind {
                Some(k) => format!("/v1/programs?kind={k}"),
                None => "/v1/programs".to_owned(),
            };
            let resp = send("GET", &path, b"");
            if resp.status != 200 {
                print_error_and_exit(&resp);
            }
            let text = resp.body_str();
            println!(
                "{}",
                Json::parse(&text).map_or(text.clone(), |j| j.to_pretty())
            );
        }
        "show" => {
            let Some(id) = positional.first() else {
                bail("program show needs an id");
            };
            // Accept the bare 16-hex id or a full program:/trace: ref.
            let id = id.rsplit(':').next().unwrap_or(id);
            let path = if raw {
                format!("/v1/programs/{id}/raw")
            } else {
                format!("/v1/programs/{id}")
            };
            let resp = send("GET", &path, b"");
            if resp.status != 200 {
                print_error_and_exit(&resp);
            }
            if raw {
                use std::io::Write;
                std::io::stdout().write_all(&resp.body).unwrap_or_else(|e| {
                    eprintln!("cannot write raw program: {e}");
                    std::process::exit(1);
                });
            } else {
                let text = resp.body_str();
                println!(
                    "{}",
                    Json::parse(&text).map_or(text.clone(), |j| j.to_pretty())
                );
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
    let mut addr = "127.0.0.1:7199".to_owned();
    let mut peers: Vec<String> = Vec::new();
    let mut workload = "bm-cc".to_owned();
    let mut seed: Option<u64> = None;
    let mut insts: Option<u64> = None;
    let mut warmup: Option<u64> = None;
    let mut background = false;
    let mut job: Option<u64> = None;
    let mut metrics = false;
    let mut no_retry = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--addr" => {
                i += 1;
                addr = argv
                    .get(i)
                    .unwrap_or_else(|| bail("--addr needs host:port"))
                    .clone();
            }
            "--peer" => {
                i += 1;
                peers.push(
                    argv.get(i)
                        .unwrap_or_else(|| bail("--peer needs host:port"))
                        .clone(),
                );
            }
            "--workload" => {
                i += 1;
                workload = argv
                    .get(i)
                    .unwrap_or_else(|| bail("--workload needs a name"))
                    .clone();
            }
            "--seed" => {
                i += 1;
                seed = Some(
                    argv.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| bail("--seed needs a number")),
                );
            }
            "--insts" => {
                i += 1;
                insts = Some(
                    argv.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| bail("--insts needs a number")),
                );
            }
            "--warmup" => {
                i += 1;
                warmup = Some(
                    argv.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| bail("--warmup needs a number")),
                );
            }
            "--background" => background = true,
            "--job" => {
                i += 1;
                job = Some(
                    argv.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| bail("--job needs an id")),
                );
            }
            "--metrics" => metrics = true,
            "--no-retry" => no_retry = true,
            other => bail(&format!("unknown client option {other}")),
        }
        i += 1;
    }

    let (method, path, body) = if metrics {
        ("GET", "/v1/metrics".to_owned(), Vec::new())
    } else if let Some(id) = job {
        ("GET", format!("/v1/jobs/{id}"), Vec::new())
    } else {
        let mut fields = vec![("workload".to_owned(), Json::Str(workload))];
        if let Some(s) = seed {
            fields.push(("seed".to_owned(), Json::Uint(s)));
        }
        if let Some(w) = warmup {
            fields.push(("warmup".to_owned(), Json::Uint(w)));
        }
        if let Some(n) = insts {
            fields.push(("insts".to_owned(), Json::Uint(n)));
        }
        if background {
            fields.push(("background".to_owned(), Json::Bool(true)));
        }
        (
            "POST",
            "/v1/sim".to_owned(),
            Json::Obj(fields).to_string().into_bytes(),
        )
    };

    let policy = if no_retry {
        ucsim::serve::RetryPolicy::none()
    } else {
        ucsim::serve::RetryPolicy::default()
    };
    let mut client = ucsim::serve::Client::with_retry(&addr, policy);
    for peer in &peers {
        client.add_peer(peer);
    }
    let resp = client
        .request_retrying(method, &path, &body)
        .unwrap_or_else(|e| {
            eprintln!("cannot reach {addr}: {e}");
            std::process::exit(1);
        });
    if resp.status != 200 && resp.status != 202 {
        print_error_and_exit(&resp);
    }
    let text = resp.body_str();
    println!(
        "{}",
        Json::parse(&text).map_or(text.clone(), |j| j.to_pretty())
    );
}

/// Reports a usage error and exits with status 2.
fn bail(m: &str) -> ! {
    eprintln!("error: {m}\n\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("client") {
        let argv: Vec<String> = std::env::args().skip(2).collect();
        client_main(&argv);
        return;
    }
    let args = parse();

    let mut oc = UopCacheConfig::try_baseline_with_capacity(args.capacity)
        .unwrap_or_else(|e| bail(&e))
        .with_replacement(args.replacement);
    if let Some(policy) = args.compaction {
        oc = oc.with_compaction(policy, args.max_entries);
    } else if args.clasp {
        oc = oc.with_clasp();
    }
    if let Err(e) = oc.check() {
        bail(&e);
    }

    let mut cfg = SimConfig::table1()
        .with_uop_cache(oc)
        .with_insts(args.warmup, args.insts);
    cfg.core.loop_cache_uops = args.loop_cache;

    let t0 = std::time::Instant::now();
    let r = if let Some(path) = &args.asm {
        let bytes = std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(2);
        });
        // The content address is what the server would mint for the same
        // upload; the walk seed defaults to it so `ucsim --asm f.asm` and a
        // served `program:<id>` job replay the exact same stream.
        let hash = ucsim::serve::fnv1a(&bytes);
        let seed = args.seed.unwrap_or(hash);
        let text = String::from_utf8(bytes).unwrap_or_else(|_| {
            eprintln!("cannot parse {path}: not UTF-8 ucasm text");
            std::process::exit(2);
        });
        let asm = ucsim::isa::assemble(&text).unwrap_or_else(|e| {
            eprintln!("cannot assemble {path}: {e}");
            std::process::exit(2);
        });
        let program = ucsim::trace::load_asm(&asm, seed);
        let profile = WorkloadProfile::user_program(seed);
        eprintln!(
            "simulating program:{hash:016x} ({path}) | capacity {} uops | clasp={} compaction={:?} | seed {seed} | {} insts",
            args.capacity, cfg.uop_cache.clasp, cfg.uop_cache.compaction, args.insts
        );
        Simulator::new(cfg).run(&profile, &program)
    } else if let Some(path) = &args.trace {
        let file = std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(2);
        });
        let trace = ucsim::trace::Trace::load(file).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        });
        eprintln!(
            "replaying {path} ({} of {} recorded insts) | capacity {} uops",
            trace.len().min((args.warmup + args.insts) as usize),
            trace.len(),
            args.capacity
        );
        Simulator::new(cfg).run_trace(path, &trace)
    } else {
        let Some(profile) = WorkloadProfile::by_name(&args.workload) else {
            eprintln!("unknown workload '{}' (try --list)", args.workload);
            std::process::exit(2);
        };
        eprintln!(
            "simulating {} | capacity {} uops | clasp={} compaction={:?} | {} insts",
            profile.name, args.capacity, cfg.uop_cache.clasp, cfg.uop_cache.compaction, args.insts
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
