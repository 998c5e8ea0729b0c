//! # ucsim-serve
//!
//! A long-running simulation job service over the `ucsim` simulator: the
//! repo's first serving layer on the road from experiment harness to
//! production system (ROADMAP north star).
//!
//! The server speaks HTTP/1.1 + JSON over [`std::net::TcpListener`] with
//! std threads only — no async runtime, matching the workspace's
//! concurrency stance (DESIGN.md §5). Its JSON layer is the workspace's
//! own `ucsim_model::json` wire format. Connections are keep-alive with
//! `Content-Length` framing; every request dispatches through a typed
//! route table and every non-2xx answer is the uniform error envelope
//! `{"error":{"code","message","retry_after"?,"request_id"?}}`, whose
//! object [`ErrorObject`] alone encodes and decodes.
//!
//! ## Architecture
//!
//! ```text
//!   POST /v1/sim   POST/DELETE /v1/matrix   GET /v1/{jobs,matrix}[/:id]
//!        │               │                      │
//!   ┌────▼───────────────▼──────────────────────▼───────────────────────┐
//!   │ accept loop → keep-alive handler thread → typed route table       │
//!   └────┬───────────────┬──────────────────────────────────────────────┘
//!        │               │ expand capacity × policy cross into a *plan*:
//!        │               │ one content-addressed cell per config
//!        │          ┌────▼────────┐ full plans resolve every cell at POST;
//!        │          │ sweep table │ adaptive plans bisect the capacity
//!        │          └────┬────────┘ axis wave by wave (knee refinement)
//!        │ canonicalize → content hash   ↓ store hit: cell skipped
//!   ┌────▼────────┐  hit   ┌──────────────────────────────────────────┐
//!   │ result cache├───────►│ respond immediately, cached: true        │
//!   └────┬────────┘        └──────────────────────────────────────────┘
//!        │ miss                       ▲ replay on startup
//!   ┌────▼────────┐            ┌──────┴──────────┐
//!   │  job table  │            │ persistent store│ append on completion
//!   └────┬────────┘            │  (results.log)  │
//!        │ new key             └─────────────────┘
//!   ┌────▼────────┐ direct jobs: bounded path, HTTP 429 + Retry-After
//!   │  fair-share │ plan cells: unbounded path under the plan's tenant
//!   │  scheduler  │ (weighted fair queueing, priorities, preemption of
//!   └────┬────────┘  cancelled entries)
//!   ┌────▼────────┐ fixed worker pool (ucsim-pool) runs the
//!   │   workers   │ simulation once, fills cache + store, wakes waiters
//!   └─────────────┘
//! ```
//!
//! ## Observability
//!
//! The service is instrumented end to end with the zero-dependency
//! `ucsim-obs` crate (its per-job profiles are compiled in via the
//! `enabled` feature here, a no-op everywhere else). Every request gets an `X-Request-Id`
//! (client-supplied or minted at the accept edge) that is echoed on the
//! response, propagated through the queue into the worker that runs the
//! job, and attached to failure envelopes. Introspection endpoints:
//!
//! - `GET /v1/metrics` — counters + latency histograms; JSON by
//!   default, Prometheus text exposition when `Accept: text/plain`.
//! - `GET /v1/jobs/:id/profile` — per-job stage-time histograms and
//!   counter deltas captured while the job executed.
//! - `GET /v1/trace?since=N` — recent span events drained from the
//!   process-wide span ring, with a cursor for incremental polling.
//! - `GET /v1/healthz` — queue depth, worker liveness, store health.
//! - `GET /v1/version` — crate version, store format, feature flags.
//!
//! Determinism (DESIGN.md §6) is what makes the cache *and* the store
//! sound: a simulation is a pure function of `(workload, seed,
//! SimConfig)`, so the cache key is a stable FNV-1a hash of the request's
//! canonical JSON encoding, a cached report is *exact*, and a result
//! replayed from disk after a restart is byte-identical to re-running it.
//!
//! ## Quick start
//!
//! ```no_run
//! use ucsim_serve::{Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr());
//! server.run_until_shutdown();
//! ```

#![warn(missing_docs)]

mod api;
mod cache;
mod client;
mod flags;
mod http;
mod jobs;
mod metrics;
mod peer;
mod programs;
mod prom;
mod router;
mod server;
mod signal;
mod store;
mod sweep;

pub use api::{
    format_key, AdaptiveMode, ErrorCode, ErrorObject, JobSpec, MatrixRequest, SimRequest, SweepMode,
};
pub use cache::{CacheStats, ResultCache};
pub use client::{request, Client, HttpResponse, RetryPolicy};
pub use flags::{Flags, Usage};
pub use http::{HttpConn, ReadOutcome, Request, Response};
pub use jobs::{JobCell, JobFailure, JobId, JobState, JobTable, Submit};
pub use metrics::Metrics;
pub use peer::{Peer, PeerSet, PeerState, DOWN_AFTER_FAILURES};
pub use programs::{
    decode_program_payload, validate_program_bytes, ProgramKind, ProgramMeta, ProgramRegistry,
    StoredProgram, MAX_PROGRAM_BYTES,
};
pub use prom::render_prometheus;
pub use router::{Answer, LabelId, Params, Route, Router};
pub use server::{Server, ServerConfig};
pub use signal::{install_signal_handlers, request_shutdown, signalled};
pub use store::{RecordKind, ResultStore, StoreRecord};
pub use sweep::{
    expand_request, CellMeta, CellStatus, Frontier, PlanAxes, PlanOptions, Sweep, SweepAccepted,
    SweepStatus, SweepTable, MAX_SWEEP_CELLS,
};
pub use ucsim_model::fnv1a;
