//! The typed job API: request parsing, canonicalization, and response
//! envelopes.
//!
//! A `POST /v1/sim` body is a [`SimRequest`]. The server normalizes it
//! into a [`JobSpec`] — workload name, effective seed, and the complete
//! [`SimConfig`] with run lengths folded in — whose canonical JSON
//! encoding is the identity of the job: equal specs hash to the same
//! content address and are simulated at most once.

use ucsim_model::json::{Json, JsonError};
use ucsim_model::{fnv1a, FailureKind, FromJson, ToJson, WorkloadRef};
use ucsim_pipeline::{SimConfig, SimReport};
use ucsim_trace::{TraceKey, WorkloadProfile};

use crate::http::Response;
use crate::jobs::{JobCell, JobFailure};

/// A `POST /v1/sim` request body.
///
/// Everything except `workload` is optional; omitted fields fall back to
/// the paper's Table I configuration and the workload's default seed.
#[derive(Debug, Clone, Default, ToJson, FromJson)]
pub struct SimRequest {
    /// Workload reference, normalized at parse: a Table II profile name
    /// (e.g. `"redis"`), an uploaded-program ref (`program:<id>` /
    /// `trace:<id>`), or — since v1.2 — the tagged-object form
    /// `{"profile":…}` / `{"program":…}` / `{"trace":…}`.
    pub workload: String,
    /// Full simulator configuration; defaults to `SimConfig::table1()`.
    pub config: Option<SimConfig>,
    /// Workload generation seed; defaults to the profile's own seed.
    pub seed: Option<u64>,
    /// Warmup instructions; overrides `config.warmup_insts` when present.
    pub warmup: Option<u64>,
    /// Measured instructions; overrides `config.measure_insts` when
    /// present.
    pub insts: Option<u64>,
    /// When `true` the server replies `202 Accepted` with a job id for
    /// `GET /v1/jobs/:id` polling instead of blocking until completion.
    pub background: Option<bool>,
    /// Fair-share tenant the job is charged to; defaults to `"default"`.
    /// Scheduling identity only — never part of the content address.
    pub tenant: Option<String>,
    /// Scheduling priority within the tenant (higher first; default 0).
    pub priority: Option<u64>,
}

/// The canonical, fully-resolved identity of a simulation job.
///
/// Field order matters: derived `ToJson` encodes members in declaration
/// order, making [`JobSpec::canonical`] a stable content address.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct JobSpec {
    /// Workload name.
    pub workload: String,
    /// Effective generation seed.
    pub seed: u64,
    /// Complete configuration, run lengths included.
    pub config: SimConfig,
}

/// Parses a request body as a `T` after rewriting its `name` member — a
/// workload ref, or an array of them — from either wire spelling (a ref
/// string or the v1.2 tagged object) to the canonical ref string, so
/// both spellings produce the same [`JobSpec::canonical`] content
/// address.
fn parse_with_refs<T: FromJson>(body: &str, name: &str) -> Result<T, JsonError> {
    let normalize = |v: &mut Json| -> Result<(), JsonError> {
        *v = Json::Str(
            WorkloadRef::from_json(v)
                .map_err(JsonError::new)?
                .to_ref_string(),
        );
        Ok(())
    };
    let mut doc = Json::parse(body)?;
    if let Json::Obj(members) = &mut doc {
        for (_, v) in members.iter_mut().filter(|(k, _)| k == name) {
            match v {
                Json::Arr(items) => items.iter_mut().try_for_each(normalize)?,
                v => normalize(v)?,
            }
        }
    }
    T::from_json(&doc)
}

impl SimRequest {
    /// Parses a request body, normalizing the `workload` member (string
    /// or tagged object) to its canonical ref-string form.
    ///
    /// # Errors
    ///
    /// Returns the JSON parse/decode error for malformed bodies.
    pub fn parse(body: &str) -> Result<Self, JsonError> {
        parse_with_refs(body, "workload")
    }

    /// Resolves defaults into the canonical [`JobSpec`].
    pub fn resolve(&self, default_seed: u64) -> JobSpec {
        let mut config = self.config.clone().unwrap_or_default();
        if let Some(w) = self.warmup {
            config.warmup_insts = w;
        }
        if let Some(n) = self.insts {
            config.measure_insts = n;
        }
        JobSpec {
            workload: self.workload.clone(),
            seed: self.seed.unwrap_or(default_seed),
            config,
        }
    }
}

impl JobSpec {
    /// The canonical encoding — the string whose hash content-addresses
    /// the job.
    pub fn canonical(&self) -> String {
        self.to_json_string()
    }

    /// The recorded-stream identity this job consumes: every spec with
    /// the same workload, seed and run length replays one shared trace,
    /// however its front-end configuration differs.
    pub fn trace_key(&self) -> TraceKey {
        TraceKey {
            workload: self.workload.clone(),
            seed: self.seed,
            insts: self.config.warmup_insts + self.config.measure_insts,
        }
    }
}

/// A `POST /v1/matrix` request body: a workload set crossed with
/// uop-cache capacities × entry-construction policies — the axes of the
/// paper's headline sweeps (Figs. 9–13) and of `run_matrix` offline.
///
/// Omitted axes fall back to the paper's defaults: the full Table I
/// capacity sweep and the baseline policy.
#[derive(Debug, Clone, Default, ToJson, FromJson)]
pub struct MatrixRequest {
    /// Workload refs (profile names, `program:<id>` / `trace:<id>`, or
    /// v1.2 tagged objects — normalized at parse); each cell simulates
    /// one of these.
    pub workloads: Vec<String>,
    /// Capacity axis in uops; defaults to Table I (2048 … 65536).
    pub capacities: Option<Vec<u64>>,
    /// Policy axis (`"baseline"`, `"clasp"`, `"rac"`, `"pwac"`,
    /// `"fpwac"`); defaults to `["baseline"]`.
    pub policies: Option<Vec<String>>,
    /// Compacted entries per line for RAC/PWAC/F-PWAC (default 2).
    pub max_entries: Option<u32>,
    /// Generation seed applied to every cell; defaults to each
    /// workload's own profile seed.
    pub seed: Option<u64>,
    /// Warmup instructions per cell.
    pub warmup: Option<u64>,
    /// Measured instructions per cell.
    pub insts: Option<u64>,
    /// Fair-share tenant the plan's cells are charged to; defaults to
    /// `"default"`. Tenant weights are server configuration.
    pub tenant: Option<String>,
    /// Scheduling priority within the tenant (higher first); default 0.
    pub priority: Option<u64>,
    /// Plan mode: `"full"` (default — simulate the whole cross) or
    /// `{"adaptive":{"axis":"capacity","tolerance":0.05}}` (bisect the
    /// capacity axis to the UPC knee). Parsed by [`SweepMode::parse`].
    pub mode: Option<Json>,
}

impl MatrixRequest {
    /// Parses a request body, normalizing each `workloads` entry (string
    /// or tagged object) to its canonical ref-string form.
    ///
    /// # Errors
    ///
    /// Returns the JSON parse/decode error for malformed bodies.
    pub fn parse(body: &str) -> Result<Self, JsonError> {
        parse_with_refs(body, "workloads")
    }
}

/// How a sweep plan covers its grid.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepMode {
    /// Simulate every cell of the capacity × policy cross.
    Full,
    /// Bisect the capacity axis until the UPC knee is bracketed within
    /// `tolerance`, simulating only the probed capacities.
    Adaptive {
        /// The refined axis; only `"capacity"` is supported.
        axis: String,
        /// Relative knee tolerance in `[0, 1)` (0.05 ⇒ knee at 95 % of
        /// the largest capacity's geomean UPC).
        tolerance: f64,
    },
}

impl SweepMode {
    /// The default adaptive tolerance when the request omits it.
    pub const DEFAULT_TOLERANCE: f64 = 0.05;

    /// Parses the wire `mode` member: absent or `"full"` →
    /// [`SweepMode::Full`]; `{"adaptive":{"axis"?,"tolerance"?}}` →
    /// [`SweepMode::Adaptive`] with defaults `axis:"capacity"`,
    /// `tolerance:0.05`.
    ///
    /// # Errors
    ///
    /// A human-readable message for the `bad_request` envelope.
    pub fn parse(mode: Option<&Json>) -> Result<SweepMode, String> {
        let Some(mode) = mode else {
            return Ok(SweepMode::Full);
        };
        let Some(adaptive) = mode.get("adaptive") else {
            if mode.as_str() == Some("full") || mode.get("full").is_some() {
                return Ok(SweepMode::Full);
            }
            return Err("mode must be \"full\" or {\"adaptive\":{…}}".to_owned());
        };
        let AdaptiveMode { axis, tolerance } =
            AdaptiveMode::from_json(adaptive).map_err(|e| format!("mode.adaptive: {e}"))?;
        let axis = axis.unwrap_or_else(|| "capacity".to_owned());
        if axis != "capacity" {
            return Err(format!(
                "mode.adaptive.axis {axis:?} unsupported; only \"capacity\" can be refined"
            ));
        }
        let tolerance = tolerance.unwrap_or(Self::DEFAULT_TOLERANCE);
        if !(0.0..1.0).contains(&tolerance) {
            return Err(format!(
                "mode.adaptive.tolerance {tolerance} out of range [0, 1)"
            ));
        }
        Ok(SweepMode::Adaptive { axis, tolerance })
    }
}

/// The object of a `{"adaptive":{…}}` sweep mode; absent members take
/// their defaults.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct AdaptiveMode {
    /// The refined axis; only `"capacity"` (the default) is supported.
    pub axis: Option<String>,
    /// Relative knee tolerance in `[0, 1)`; default 0.05.
    pub tolerance: Option<f64>,
}

/// Budget (in recorded instructions) of the shared trace store: jobs with
/// the same workload × seed × run length replay one recording instead of
/// re-walking the generator per cell. It also caps one served run
/// (`warmup + insts`), whose recording must fit the store.
pub const TRACE_BUDGET_INSTS: u64 = 8_000_000;

/// The admission rule for a served configuration, checked before a job
/// is cached, forwarded or queued: a run of at most
/// [`TRACE_BUDGET_INSTS`] instructions and a configuration that passes
/// [`SimConfig::check`]. Without it a hostile config could hang a worker
/// (a zero decode width), corrupt uop-cache lookups (more than 256 ways)
/// or abort the process on a huge allocation.
///
/// # Errors
///
/// Names the first violated rule.
pub fn check_config(config: &SimConfig) -> Result<(), String> {
    let total = config.warmup_insts.checked_add(config.measure_insts);
    if total.is_none_or(|t| t > TRACE_BUDGET_INSTS) {
        return Err(format!(
            "warmup + insts must be at most {TRACE_BUDGET_INSTS} instructions"
        ));
    }
    config.check()
}

/// Parses the `test-sleep:<ms>` pseudo-workload name (integration tests
/// use it to hold workers busy deterministically).
pub fn test_sleep_ms(workload: &str) -> Option<u64> {
    workload.strip_prefix("test-sleep:")?.parse().ok()
}

/// True for the `test-panic` pseudo-workload (integration tests use it
/// to exercise the worker-panic failure path deterministically).
pub fn test_panic(workload: &str) -> bool {
    workload == "test-panic"
}

/// True when `workload` names something the server can run.
pub fn workload_known(workload: &str, test_workloads: bool) -> bool {
    (test_workloads && (test_sleep_ms(workload).is_some() || test_panic(workload)))
        || WorkloadProfile::by_name(workload).is_some()
}

/// The seed a request for `workload` defaults to: the profile's own seed
/// (0 for test pseudo-workloads). Uploaded-program refs default to the
/// program's content hash — every program gets its own layout without
/// the client choosing anything — and trace refs to 0 (a recorded trace
/// replays verbatim; the seed never reaches it).
pub fn default_seed(workload: &str) -> u64 {
    match WorkloadRef::parse(workload) {
        Ok(WorkloadRef::Program(h)) => h,
        Ok(WorkloadRef::Trace(_)) => 0,
        _ => WorkloadProfile::by_name(workload).map_or(0, |p| p.seed),
    }
}

/// FNV-1a 64-bit hash of the canonical encoding.
pub fn content_hash(canonical: &str) -> u64 {
    fnv1a(canonical.as_bytes())
}

/// Formats a content hash as the wire-visible cache key.
pub fn format_key(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Builds the response envelope `{"key":…,"cached":…,"report":…}` around
/// a pre-encoded report payload.
///
/// The report payload is stored once (in the cache / job result) and
/// spliced in verbatim, so every response carrying the same report is
/// byte-identical modulo the `cached` flag.
pub fn envelope(hash: u64, cached: bool, report_json: &str) -> Vec<u8> {
    let mut out = String::with_capacity(report_json.len() + 64);
    out.push_str("{\"key\":\"");
    out.push_str(&format_key(hash));
    out.push_str("\",\"cached\":");
    out.push_str(if cached { "true" } else { "false" });
    out.push_str(",\"report\":");
    out.push_str(report_json);
    out.push('}');
    out.into_bytes()
}

/// Encodes a report as its canonical JSON payload.
pub fn encode_report(report: &SimReport) -> String {
    report.to_json_string()
}

/// Machine-readable error codes of the uniform `/v1/*` error envelope.
///
/// Every non-2xx response body is
/// `{"error":{"code":"…","message":"…","retry_after":…?}}`; these are the
/// stable `code` values clients dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed request (bad JSON, bad id, missing fields).
    BadRequest,
    /// A named workload is not in Table II (nor an enabled test workload).
    UnknownWorkload,
    /// The bounded job queue is full; retry after the advertised delay.
    QueueFull,
    /// No such resource (unknown path, unknown job/sweep id).
    NotFound,
    /// The path exists but not under this method.
    MethodNotAllowed,
    /// The server is draining for shutdown and accepts no new work.
    Draining,
    /// The simulation itself failed (worker panic, captured payload).
    SimulationFailed,
    /// The job exceeded its wall-clock deadline and was cancelled.
    DeadlineExceeded,
    /// The job was still queued when the server began shutting down; it
    /// was failed rather than silently dropped.
    ShuttingDown,
    /// The job or sweep was cancelled by an explicit `DELETE` request.
    Cancelled,
    /// An uploaded program failed validation (ucasm that does not
    /// assemble, a trace that does not decode) — or a job referenced a
    /// program id no cluster node has.
    InvalidProgram,
    /// An unexpected server-side error.
    Internal,
}

impl ErrorCode {
    /// The wire `code` string.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownWorkload => "unknown_workload",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::NotFound => "not_found",
            ErrorCode::MethodNotAllowed => "method_not_allowed",
            ErrorCode::Draining => "draining",
            ErrorCode::SimulationFailed => FailureKind::SimulationFailed.as_str(),
            ErrorCode::DeadlineExceeded => FailureKind::DeadlineExceeded.as_str(),
            ErrorCode::ShuttingDown => FailureKind::ShuttingDown.as_str(),
            ErrorCode::Cancelled => FailureKind::Cancelled.as_str(),
            ErrorCode::InvalidProgram => "invalid_program",
            ErrorCode::Internal => "internal",
        }
    }

    /// The HTTP status the code maps to.
    pub fn status(self) -> u16 {
        match self {
            ErrorCode::BadRequest | ErrorCode::UnknownWorkload => 400,
            ErrorCode::QueueFull => 429,
            ErrorCode::NotFound => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::Draining | ErrorCode::ShuttingDown => 503,
            ErrorCode::Cancelled => 409,
            ErrorCode::InvalidProgram => 422,
            ErrorCode::DeadlineExceeded => 504,
            ErrorCode::SimulationFailed | ErrorCode::Internal => 500,
        }
    }

    /// The error code a terminal [`FailureKind`] surfaces as.
    pub fn from_failure(kind: FailureKind) -> ErrorCode {
        match kind {
            FailureKind::SimulationFailed => ErrorCode::SimulationFailed,
            FailureKind::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            FailureKind::ShuttingDown => ErrorCode::ShuttingDown,
            FailureKind::Cancelled => ErrorCode::Cancelled,
        }
    }
}

/// The error object, wherever a failure is written: the `error` member
/// of every non-2xx envelope, of a failed job and of a failed sweep cell,
/// and the payload of a store `FAILED` record. Its derived [`ToJson`] and
/// [`FromJson`] impls are the one encoder and decoder of
/// `{"code","message","retry_after"?,"request_id"?}`; an absent optional
/// member is left out.
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
pub struct ErrorObject {
    /// The stable code: an [`ErrorCode`] or [`FailureKind`] wire string.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
    /// Seconds a refused client should wait; mirrors `Retry-After`.
    pub retry_after: Option<u32>,
    /// Correlation id of the request the failure is attributable to.
    pub request_id: Option<String>,
}

/// The body of every non-2xx response: `{"error":{…}}`.
#[derive(ToJson, FromJson)]
struct ErrorEnvelope {
    error: ErrorObject,
}

impl ErrorObject {
    /// Decodes the object of an envelope body `{"error":{…}}`; `None`
    /// when the body is not one.
    pub fn from_envelope(body: &[u8]) -> Option<ErrorObject> {
        let text = std::str::from_utf8(body).ok()?;
        ErrorEnvelope::from_json_str(text).ok().map(|e| e.error)
    }

    /// A failed job's object: its [`FailureKind`] code, message and
    /// originating request id.
    pub(crate) fn of_failure(failure: &JobFailure) -> ErrorObject {
        ErrorObject {
            code: failure.kind.as_str().to_owned(),
            message: failure.message.clone(),
            retry_after: None,
            request_id: failure.request_id.clone(),
        }
    }

    /// The job failure this object records; `None` unless its code is a
    /// [`FailureKind`].
    pub(crate) fn into_failure(self) -> Option<JobFailure> {
        Some(JobFailure {
            kind: FailureKind::parse(&self.code)?,
            message: self.message,
            request_id: self.request_id,
        })
    }
}

/// Builds a complete error [`Response`]: envelope body, mapped status,
/// and — for [`ErrorCode::QueueFull`] — the `Retry-After` header mirrored
/// into the body.
pub fn error_response(code: ErrorCode, message: &str, retry_after: Option<u32>) -> Response {
    let err = ErrorObject {
        code: code.as_str().to_owned(),
        message: message.to_owned(),
        retry_after,
        request_id: None,
    };
    respond(code, err)
}

/// The error [`Response`] for a failed job: the status and code its
/// [`FailureKind`] maps to, and the request it is attributable to.
pub fn failure_response(failure: &JobFailure) -> Response {
    let code = ErrorCode::from_failure(failure.kind);
    let mut err = ErrorObject::of_failure(failure);
    err.code = code.as_str().to_owned();
    respond(code, err)
}

/// The envelope `{"error":{…}}` under `code`'s status.
fn respond(code: ErrorCode, err: ErrorObject) -> Response {
    let retry_after = err.retry_after;
    let resp = Response::encode(code.status(), &ErrorEnvelope { error: err });
    match retry_after {
        Some(secs) => resp.with_header("retry-after", secs.to_string()),
        None => resp,
    }
}

/// A `POST /v1/sim` response when the report is read back, not written:
/// the `{"key","cached","report"}` that [`envelope`] splices. Forwarding
/// peers decode an owner's answer through it.
#[derive(FromJson)]
pub(crate) struct ReportEnvelope {
    /// Whether the owner answered from its cache.
    pub(crate) cached: bool,
    /// The report, as sent.
    pub(crate) report: Json,
}

/// The 202 of a background `POST /v1/sim`.
#[derive(ToJson)]
pub(crate) struct JobAccepted {
    pub(crate) id: u64,
    pub(crate) key: String,
    pub(crate) poll: String,
}

/// One job: a `GET /v1/jobs` row and the `GET /v1/jobs/:id` body. A
/// failed job's body carries its `error`; a done job's body has its
/// response envelope spliced in as a last `result` member.
#[derive(ToJson)]
pub(crate) struct JobRow {
    pub(crate) id: u64,
    pub(crate) key: String,
    pub(crate) state: &'static str,
    pub(crate) created_at: u64,
    pub(crate) error: Option<ErrorObject>,
}

impl JobRow {
    /// `cell`'s row in `state`, without an error.
    pub(crate) fn new(cell: &JobCell, state: &'static str) -> JobRow {
        JobRow {
            id: cell.id,
            key: format_key(cell.key_hash),
            state,
            created_at: cell.created_at,
            error: None,
        }
    }
}

/// `GET /v1/jobs`.
#[derive(ToJson)]
pub(crate) struct JobList {
    pub(crate) jobs: Vec<JobRow>,
}

/// `GET /v1/jobs/:id/profile`; `profile` is `null` until the job ran.
#[derive(ToJson)]
pub(crate) struct JobProfileBody {
    pub(crate) id: u64,
    pub(crate) state: &'static str,
    pub(crate) profile: Json,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_parses_and_resolves() {
        let r = SimRequest::parse(r#"{"workload":"redis"}"#).unwrap();
        assert_eq!(r.workload, "redis");
        assert!(r.config.is_none());
        let spec = r.resolve(7);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.config.warmup_insts, SimConfig::table1().warmup_insts);
    }

    #[test]
    fn check_config_bounds_the_run_length() {
        let cfg = |warmup, measure| SimConfig::table1().with_insts(warmup, measure);
        assert_eq!(check_config(&cfg(200_000, 2_000_000)), Ok(()));
        assert_eq!(check_config(&cfg(0, TRACE_BUDGET_INSTS)), Ok(()));
        assert!(check_config(&cfg(1, TRACE_BUDGET_INSTS)).is_err());
        assert!(check_config(&cfg(u64::MAX, 1)).is_err());
        let mut zero = cfg(1_000, 5_000);
        zero.core.decode_width = 0;
        assert!(check_config(&zero).unwrap_err().contains("decode_width"));
    }

    #[test]
    fn overrides_fold_into_spec() {
        let r =
            SimRequest::parse(r#"{"workload":"redis","seed":9,"warmup":100,"insts":200}"#).unwrap();
        let spec = r.resolve(7);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.config.warmup_insts, 100);
        assert_eq!(spec.config.measure_insts, 200);
    }

    #[test]
    fn canonical_encoding_is_stable() {
        let r = SimRequest::parse(r#"{"workload":"redis","seed":1}"#).unwrap();
        let a = r.resolve(0).canonical();
        let b = r.resolve(0).canonical();
        assert_eq!(a, b);
        // Round-trips through the wire format to the same canonical form.
        let back = JobSpec::from_json_str(&a).unwrap();
        assert_eq!(back.canonical(), a);
    }

    #[test]
    fn distinct_specs_hash_distinctly() {
        let base = SimRequest::parse(r#"{"workload":"redis"}"#).unwrap();
        let a = base.resolve(1).canonical();
        let b = base.resolve(2).canonical();
        assert_ne!(content_hash(&a), content_hash(&b));
    }

    #[test]
    fn envelope_splices_verbatim() {
        let body = envelope(0xabc, true, "{\"upc\":1.5}");
        let text = String::from_utf8(body).unwrap();
        assert_eq!(
            text,
            "{\"key\":\"0000000000000abc\",\"cached\":true,\"report\":{\"upc\":1.5}}"
        );
    }

    #[test]
    fn malformed_body_is_an_error() {
        assert!(SimRequest::parse("{\"workload\":").is_err());
        assert!(SimRequest::parse("{}").is_err()); // workload required
    }

    #[test]
    fn matrix_request_parses_with_defaults_absent() {
        let r = MatrixRequest::parse(r#"{"workloads":["redis","bm-cc"]}"#).unwrap();
        assert_eq!(r.workloads, ["redis", "bm-cc"]);
        assert!(r.capacities.is_none() && r.policies.is_none());
        assert!(MatrixRequest::parse("{}").is_err()); // workloads required

        let r = MatrixRequest::parse(
            r#"{"workloads":["redis"],"capacities":[2048,4096],"policies":["baseline","clasp"],"max_entries":3}"#,
        )
        .unwrap();
        assert_eq!(r.capacities.unwrap(), [2048, 4096]);
        assert_eq!(r.policies.unwrap(), ["baseline", "clasp"]);
        assert_eq!(r.max_entries, Some(3));
    }

    #[test]
    fn matrix_request_carries_plan_fields() {
        let r = MatrixRequest::parse(
            r#"{"workloads":["redis"],"tenant":"team-a","priority":3,"mode":"full"}"#,
        )
        .unwrap();
        assert_eq!(r.tenant.as_deref(), Some("team-a"));
        assert_eq!(r.priority, Some(3));
        assert_eq!(SweepMode::parse(r.mode.as_ref()), Ok(SweepMode::Full));

        let r = MatrixRequest::parse(r#"{"workloads":["redis"]}"#).unwrap();
        assert!(r.tenant.is_none() && r.priority.is_none());
        assert_eq!(SweepMode::parse(r.mode.as_ref()), Ok(SweepMode::Full));
    }

    #[test]
    fn sweep_mode_parses_adaptive_with_defaults_and_rejects_junk() {
        let m = Json::parse(r#"{"adaptive":{}}"#).unwrap();
        assert_eq!(
            SweepMode::parse(Some(&m)),
            Ok(SweepMode::Adaptive {
                axis: "capacity".to_owned(),
                tolerance: SweepMode::DEFAULT_TOLERANCE,
            })
        );

        let m = Json::parse(r#"{"adaptive":{"axis":"capacity","tolerance":0.1}}"#).unwrap();
        assert_eq!(
            SweepMode::parse(Some(&m)),
            Ok(SweepMode::Adaptive {
                axis: "capacity".to_owned(),
                tolerance: 0.1,
            })
        );

        // Unsupported axis, out-of-range tolerance, unknown shape.
        let m = Json::parse(r#"{"adaptive":{"axis":"policy"}}"#).unwrap();
        assert!(SweepMode::parse(Some(&m)).is_err());
        let m = Json::parse(r#"{"adaptive":{"tolerance":1.5}}"#).unwrap();
        assert!(SweepMode::parse(Some(&m)).is_err());
        let m = Json::parse(r#""bogus""#).unwrap();
        assert!(SweepMode::parse(Some(&m)).is_err());
        // Object spelling of full is accepted.
        let m = Json::parse(r#"{"full":{}}"#).unwrap();
        assert_eq!(SweepMode::parse(Some(&m)), Ok(SweepMode::Full));
    }

    #[test]
    fn tagged_workload_objects_normalize_to_ref_strings() {
        // v1.2 tagged object and the string alias hash identically.
        let tagged =
            SimRequest::parse(r#"{"workload":{"program":"00000000000000ab"},"seed":1}"#).unwrap();
        assert_eq!(tagged.workload, "program:00000000000000ab");
        let alias =
            SimRequest::parse(r#"{"workload":"program:00000000000000ab","seed":1}"#).unwrap();
        assert_eq!(
            content_hash(&tagged.resolve(0).canonical()),
            content_hash(&alias.resolve(0).canonical())
        );
        // Short hashes pad; profile tags collapse to the bare name.
        let r = SimRequest::parse(r#"{"workload":{"trace":"ab"}}"#).unwrap();
        assert_eq!(r.workload, "trace:00000000000000ab");
        let r = SimRequest::parse(r#"{"workload":{"profile":"redis"}}"#).unwrap();
        assert_eq!(r.workload, "redis");

        let r = MatrixRequest::parse(
            r#"{"workloads":["redis",{"program":"ab"},{"trace":"00000000000000cd"}]}"#,
        )
        .unwrap();
        assert_eq!(
            r.workloads,
            [
                "redis",
                "program:00000000000000ab",
                "trace:00000000000000cd"
            ]
        );

        // Malformed refs are parse errors, not silent pass-through.
        assert!(SimRequest::parse(r#"{"workload":{"program":"zz"}}"#).is_err());
        assert!(SimRequest::parse(r#"{"workload":{"program":"ab","trace":"cd"}}"#).is_err());
        assert!(MatrixRequest::parse(r#"{"workloads":[{"bogus":"x"}]}"#).is_err());
    }

    #[test]
    fn default_seed_is_ref_aware() {
        // Profiles keep their calibrated seed.
        let redis = WorkloadProfile::by_name("redis").unwrap().seed;
        assert_eq!(default_seed("redis"), redis);
        // Program refs default to their content hash; traces to 0.
        assert_eq!(default_seed("program:00000000000000ab"), 0xab);
        assert_eq!(default_seed("trace:00000000000000ab"), 0);
        assert_eq!(default_seed("test-sleep:50"), 0);
    }

    #[test]
    fn invalid_program_code_maps_to_422() {
        assert_eq!(ErrorCode::InvalidProgram.as_str(), "invalid_program");
        assert_eq!(ErrorCode::InvalidProgram.status(), 422);
    }

    #[test]
    fn error_envelope_has_stable_shape() {
        let r = error_response(ErrorCode::QueueFull, "job queue full; retry later", Some(2));
        assert_eq!(
            r.body,
            br#"{"error":{"code":"queue_full","message":"job queue full; retry later","retry_after":2}}"#
        );
        let e = ErrorObject::from_envelope(&r.body).unwrap();
        assert_eq!((e.code.as_str(), e.retry_after), ("queue_full", Some(2)));

        let r = error_response(ErrorCode::NotFound, "no such job", None);
        assert_eq!(
            r.body,
            br#"{"error":{"code":"not_found","message":"no such job"}}"#
        );
        assert_eq!(ErrorObject::from_envelope(b"{\"key\":1}"), None);
        assert_eq!(ErrorObject::from_envelope(b"not json"), None);
    }

    #[test]
    fn failure_response_carries_the_request_id() {
        let f = JobFailure::new(FailureKind::SimulationFailed, "boom").with_request_id("req-9");
        let r = failure_response(&f);
        assert_eq!(r.status, 500);
        assert_eq!(
            r.body,
            br#"{"error":{"code":"simulation_failed","message":"boom","request_id":"req-9"}}"#
        );
        let e = ErrorObject::from_envelope(&r.body).unwrap();
        assert_eq!(e.into_failure(), Some(f));
        let e = ErrorObject::from_envelope(&error_response(ErrorCode::NotFound, "x", None).body);
        assert_eq!(
            e.and_then(ErrorObject::into_failure),
            None,
            "not a job failure"
        );
    }

    #[test]
    fn failure_kinds_surface_as_stable_codes() {
        let cases = [
            (FailureKind::SimulationFailed, "simulation_failed", 500),
            (FailureKind::DeadlineExceeded, "deadline_exceeded", 504),
            (FailureKind::ShuttingDown, "shutting_down", 503),
            (FailureKind::Cancelled, "cancelled", 409),
        ];
        for (kind, code, status) in cases {
            let e = ErrorCode::from_failure(kind);
            assert_eq!(e.as_str(), code);
            assert_eq!(e.status(), status);
        }
    }

    #[test]
    fn error_response_mirrors_retry_after_into_the_header() {
        let r = error_response(ErrorCode::QueueFull, "full", Some(7));
        assert_eq!(r.status, 429);
        assert!(r
            .headers
            .iter()
            .any(|(k, v)| *k == "retry-after" && v == "7"));
        let r = error_response(ErrorCode::MethodNotAllowed, "nope", None);
        assert_eq!(r.status, 405);
        assert!(r.headers.is_empty());
    }
}
