//! `ucsim-serve` — the simulation job service binary.
//!
//! Runs until SIGTERM/ctrl-c, then drains in-flight jobs and exits.

use std::process::ExitCode;

use ucsim_serve::{install_signal_handlers, Server, ServerConfig};

const USAGE: &str = "\
ucsim-serve: long-running simulation job service

USAGE:
    ucsim-serve [OPTIONS]

OPTIONS:
    --addr ADDR       bind address        [default: 127.0.0.1:7199]
    --workers N       worker threads      [default: #cpus, max 8]
    --queue N         job queue capacity  [default: 64]
    --cache-mb N      result cache budget [default: 64]
    --data-dir DIR    persist results to DIR/results.log and replay
                      them into the cache on startup
    --durable         fsync the store after every appended record
    --deadline-ms N   per-job wall-clock deadline; late jobs fail with
                      deadline_exceeded       [default: none]
    --drain-timeout S seconds shutdown waits for open connections
                      before failing queued jobs [default: 30]
    --tenant-weight TENANT=W
                      fair-share weight for TENANT (repeatable); tenants
                      not listed default to weight 1
    --peer HOST:PORT  cluster member (repeatable). Any non-empty list
                      turns on peer mode: consistent-hash job routing,
                      scatter-gather sweeps, health probing, and (with
                      --data-dir) store anti-entropy. Every node may be
                      given the identical list; its own --advertise
                      address is filtered out.
    --advertise HOST:PORT
                      the address other members reach this node at
                      [default: the resolved bind address]
    --peer-deadline-ms N
                      connect/read deadline for forwarded peer requests
                      [default: 30000]
    --anti-entropy-ms N
                      interval between store delta pulls per peer
                      [default: 5000]
    --help            show this help

ENDPOINTS:
    POST /v1/sim        submit a job: {\"workload\", \"config\"?, \"seed\"?,
                        \"background\"?, \"tenant\"?, \"priority\"?}
                        -> report envelope (or 202 + id). \"workload\" is a
                        profile name, an uploaded-program ref
                        (\"program:ID\" / \"trace:ID\"), or the v1.2 tagged
                        object {\"profile\"|\"program\"|\"trace\": ...}
    POST /v1/programs   upload a user program: ucasm text or a binary
                        UCT1 trace (or {\"kind\",\"source\"|\"hex\"} JSON).
                        Content-addressed: 201 created / 200 already
                        known / 422 invalid_program
    GET  /v1/programs   list uploaded programs (?kind=asm|trace)
    GET  /v1/programs/ID       program metadata (ref, kind, insts, bytes)
    GET  /v1/programs/ID/raw   the exact uploaded bytes
    POST /v1/matrix     submit a sweep plan: {\"workloads\", \"capacities\"?,
                        \"policies\"?, \"tenant\"?, \"priority\"?,
                        \"mode\"?: \"full\" | {\"adaptive\": {\"axis\",
                        \"tolerance\"?}}, ...} -> 202 + sweep id
    GET  /v1/matrix     list sweeps (filter with ?state=running|done|...)
    GET  /v1/matrix/ID  plan progress: planned/skipped_from_store/
                        simulated/failed counts, the adaptive refinement
                        frontier, and the aggregated table when done
    DELETE /v1/matrix/ID  cancel a running sweep (envelope code
                        'cancelled'; queued cells are preempted)
    GET  /v1/jobs       list jobs (filter with ?state=queued|running|...)
    GET  /v1/jobs/ID    poll a background job
    DELETE /v1/jobs/ID  cancel a queued/running job
    GET  /v1/jobs/ID/profile  per-job stage timings + counter deltas
    GET  /v1/metrics    queue/worker/cache/latency counters; JSON, or
                        Prometheus text with 'Accept: text/plain'
    GET  /v1/trace?since=N  recent span events from the trace ring
    GET  /v1/store?since=N  a page of verified store records (peer
                        anti-entropy pulls; needs --data-dir)
    GET  /v1/healthz    liveness: queue depth, workers, store health,
                        and per-peer breaker state in peer mode
    GET  /v1/version    crate version, store format, feature flags

Connections are keep-alive; errors use the uniform envelope
{\"error\":{\"code\",\"message\",\"retry_after\"?,\"request_id\"?}}. Every
response echoes an X-Request-Id (client-supplied or server-minted).
";

fn main() -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    let bail = |msg: &str| {
        eprintln!("error: {msg}\n\n{USAGE}");
        ExitCode::FAILURE
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--addr" => match args.next() {
                Some(v) => cfg.addr = v,
                None => return bail("--addr needs a value"),
            },
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.workers = v,
                None => return bail("--workers needs a number"),
            },
            "--queue" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.queue_capacity = v,
                None => return bail("--queue needs a number"),
            },
            "--cache-mb" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => cfg.cache_budget_bytes = v * 1024 * 1024,
                None => return bail("--cache-mb needs a number"),
            },
            "--data-dir" => match args.next() {
                Some(v) => cfg.data_dir = Some(v.into()),
                None => return bail("--data-dir needs a path"),
            },
            "--durable" => cfg.durable_store = true,
            "--deadline-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) if v > 0 => {
                    cfg.job_deadline = Some(std::time::Duration::from_millis(v));
                }
                _ => return bail("--deadline-ms needs a positive number"),
            },
            "--drain-timeout" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => cfg.drain_timeout = std::time::Duration::from_secs(v),
                None => return bail("--drain-timeout needs a number of seconds"),
            },
            "--tenant-weight" => {
                let parsed = args.next().and_then(|v| {
                    let (name, w) = v.split_once('=')?;
                    let w: u64 = w.parse().ok().filter(|&w| w > 0)?;
                    Some((name.to_owned(), w))
                });
                match parsed {
                    Some(pair) => cfg.tenant_weights.push(pair),
                    None => return bail("--tenant-weight needs TENANT=WEIGHT with WEIGHT >= 1"),
                }
            }
            "--peer" => match args.next() {
                Some(v) if v.contains(':') => cfg.peers.push(v),
                _ => return bail("--peer needs HOST:PORT"),
            },
            "--advertise" => match args.next() {
                Some(v) if v.contains(':') => cfg.advertise = Some(v),
                _ => return bail("--advertise needs HOST:PORT"),
            },
            "--peer-deadline-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) if v > 0 => {
                    cfg.peer_deadline = std::time::Duration::from_millis(v);
                }
                _ => return bail("--peer-deadline-ms needs a positive number"),
            },
            "--anti-entropy-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) if v > 0 => {
                    cfg.anti_entropy_interval = std::time::Duration::from_millis(v);
                }
                _ => return bail("--anti-entropy-ms needs a positive number"),
            },
            other => return bail(&format!("unknown option: {other}")),
        }
    }

    install_signal_handlers();
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: failed to start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "ucsim-serve listening on {} (ctrl-c or SIGTERM to drain and stop)",
        server.local_addr()
    );
    server.run_until_shutdown();
    eprintln!("ucsim-serve: drained, bye");
    ExitCode::SUCCESS
}
