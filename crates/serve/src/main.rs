//! `ucsim-serve` — the simulation job service binary.
//!
//! Runs until SIGTERM/ctrl-c, then drains in-flight jobs and exits.

use std::time::Duration;

use ucsim_serve::{install_signal_handlers, Flags, Server, ServerConfig, Usage};

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

static CLI: Usage = Usage {
    text: USAGE,
    help_end: "",
    status: 1,
};

/// The current flag's value as a positive number of milliseconds.
fn millis(flags: &mut Flags) -> Duration {
    flags.value_with("needs a positive number", |v| {
        let ms = v.parse().ok().filter(|&ms| ms > 0)?;
        Some(Duration::from_millis(ms))
    })
}

/// The current flag's value as a `HOST:PORT` address.
fn host_port(flags: &mut Flags) -> String {
    flags.value_with("needs HOST:PORT", |v| v.contains(':').then(|| v.to_owned()))
}

fn main() {
    let mut cfg = ServerConfig::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = Flags::new(&argv, &CLI, "");
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => cfg.addr = flags.value("needs a value"),
            "--workers" => cfg.workers = flags.number(),
            "--queue" => cfg.queue_capacity = flags.number(),
            "--cache-mb" => cfg.cache_budget_bytes = flags.number::<usize>() * 1024 * 1024,
            "--data-dir" => cfg.data_dir = Some(flags.value("needs a path").into()),
            "--durable" => cfg.durable_store = true,
            "--deadline-ms" => cfg.job_deadline = Some(millis(&mut flags)),
            "--drain-timeout" => {
                cfg.drain_timeout = Duration::from_secs(flags.parse("needs a number of seconds"));
            }
            "--tenant-weight" => {
                let weight = flags.value_with("needs TENANT=WEIGHT with WEIGHT >= 1", |v| {
                    let (name, w) = v.split_once('=')?;
                    Some((name.to_owned(), w.parse().ok().filter(|&w| w > 0)?))
                });
                cfg.tenant_weights.push(weight);
            }
            "--peer" => cfg.peers.push(host_port(&mut flags)),
            "--advertise" => cfg.advertise = Some(host_port(&mut flags)),
            "--peer-deadline-ms" => cfg.peer_deadline = millis(&mut flags),
            "--anti-entropy-ms" => cfg.anti_entropy_interval = millis(&mut flags),
            other => CLI.bail(&format!("unknown option: {other}")),
        }
    }

    install_signal_handlers();
    let server = Server::start(cfg).unwrap_or_else(|e| {
        eprintln!("error: failed to start server: {e}");
        std::process::exit(1)
    });
    eprintln!(
        "ucsim-serve listening on {} (ctrl-c or SIGTERM to drain and stop)",
        server.local_addr()
    );
    server.run_until_shutdown();
    eprintln!("ucsim-serve: drained, bye");
}
