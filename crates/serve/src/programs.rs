//! User-program resources: validation, content addressing, and the
//! in-memory registry behind `POST /v1/programs` (DESIGN.md §11).
//!
//! A *program* is a bring-your-own workload: either a ucasm source file
//! (assembled with [`ucsim_isa::assemble`] and laid out per-seed with
//! [`ucsim_trace::load_asm`]) or a recorded instruction trace in the
//! binary `UCT1` format. Both are content-addressed by the FNV-1a hash
//! of the *uploaded bytes* — uploading the same file twice (to any node
//! of a cluster) yields the same id, and a job referencing
//! `program:<id>` / `trace:<id>` is exactly as deterministic as one
//! referencing a Table II profile.
//!
//! Uploads are validated eagerly: ucasm must assemble and pass the
//! arena-layout validator, traces must decode completely. Invalid
//! uploads are rejected with a stable `invalid_program` envelope and
//! never enter the registry, so every ref that resolves is runnable.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use ucsim_isa::{assemble, AsmProgram};
use ucsim_model::json::Json;
use ucsim_model::{fnv1a, WorkloadRef};
use ucsim_trace::{load_asm, Trace};

use crate::api;

/// Upload size ceiling: guards the assembler and the store against
/// absurd bodies (a 4 MiB ucasm file is ~200k instructions).
pub const MAX_PROGRAM_BYTES: usize = 4 * 1024 * 1024;

/// The `UCT1` trace-file magic, used to sniff binary uploads.
const UCT1_MAGIC: &[u8; 4] = b"UCT1";

/// What kind of resource a stored program is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramKind {
    /// ucasm source, assembled at upload and laid out per-seed at run.
    Asm,
    /// A recorded `UCT1` instruction trace, replayed verbatim.
    Trace,
}

impl ProgramKind {
    /// The wire `kind` string.
    pub fn as_str(self) -> &'static str {
        match self {
            ProgramKind::Asm => "asm",
            ProgramKind::Trace => "trace",
        }
    }

    /// Parses the wire `kind` string.
    pub fn parse(s: &str) -> Option<ProgramKind> {
        match s {
            "asm" => Some(ProgramKind::Asm),
            "trace" => Some(ProgramKind::Trace),
            _ => None,
        }
    }
}

/// The validated, parsed form of an upload.
enum ProgramBody {
    /// Assembled ucasm (the source is the uploaded bytes).
    Asm(AsmProgram),
    /// A decoded recorded trace.
    Trace(Arc<Trace>),
}

/// One validated, content-addressed user program.
pub struct StoredProgram {
    hash: u64,
    raw: Vec<u8>,
    body: ProgramBody,
}

impl std::fmt::Debug for StoredProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredProgram")
            .field("id", &self.id())
            .field("kind", &self.kind().as_str())
            .field("insts", &self.insts())
            .field("bytes", &self.raw.len())
            .finish()
    }
}

impl StoredProgram {
    /// The content address: FNV-1a over the uploaded bytes.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The resource id as it appears in refs and URLs (16 hex digits).
    pub fn id(&self) -> String {
        api::format_key(self.hash)
    }

    /// The resource kind.
    pub fn kind(&self) -> ProgramKind {
        match self.body {
            ProgramBody::Asm(_) => ProgramKind::Asm,
            ProgramBody::Trace(_) => ProgramKind::Trace,
        }
    }

    /// The workload reference that runs this program.
    pub fn workload_ref(&self) -> WorkloadRef {
        match self.kind() {
            ProgramKind::Asm => WorkloadRef::Program(self.hash),
            ProgramKind::Trace => WorkloadRef::Trace(self.hash),
        }
    }

    /// The normalized ref string (`program:<id>` / `trace:<id>`).
    pub fn ref_string(&self) -> String {
        self.workload_ref().to_ref_string()
    }

    /// The exact bytes that were uploaded (re-uploading them anywhere
    /// reproduces the same content address).
    pub fn raw(&self) -> &[u8] {
        &self.raw
    }

    /// The assembled program, when this is a ucasm resource.
    pub fn asm(&self) -> Option<&AsmProgram> {
        match &self.body {
            ProgramBody::Asm(asm) => Some(asm),
            ProgramBody::Trace(_) => None,
        }
    }

    /// The decoded trace, when this is a recorded-trace resource.
    pub fn trace(&self) -> Option<&Arc<Trace>> {
        match &self.body {
            ProgramBody::Asm(_) => None,
            ProgramBody::Trace(t) => Some(t),
        }
    }

    /// Instruction count: static instructions for ucasm, recorded
    /// dynamic instructions for a trace.
    pub fn insts(&self) -> u64 {
        match &self.body {
            ProgramBody::Asm(asm) => asm.static_insts() as u64,
            ProgramBody::Trace(t) => t.len() as u64,
        }
    }

    /// The `GET /v1/programs[/:id]` resource document.
    pub fn meta_json(&self) -> Json {
        Json::Obj(vec![
            ("id".to_owned(), Json::Str(self.id())),
            ("ref".to_owned(), Json::Str(self.ref_string())),
            (
                "kind".to_owned(),
                Json::Str(self.kind().as_str().to_owned()),
            ),
            ("insts".to_owned(), Json::Uint(self.insts())),
            ("bytes".to_owned(), Json::Uint(self.raw.len() as u64)),
        ])
    }

    /// The store/replication payload: a JSON envelope that
    /// [`decode_program_payload`] turns back into this exact resource.
    /// Trace bytes ride hex-encoded — store payloads are UTF-8 strings.
    pub fn payload_json(&self) -> String {
        let fields = match &self.body {
            ProgramBody::Asm(_) => vec![
                ("kind".to_owned(), Json::Str("asm".to_owned())),
                (
                    "source".to_owned(),
                    Json::Str(String::from_utf8_lossy(&self.raw).into_owned()),
                ),
            ],
            ProgramBody::Trace(_) => vec![
                ("kind".to_owned(), Json::Str("trace".to_owned())),
                ("hex".to_owned(), Json::Str(encode_hex(&self.raw))),
            ],
        };
        Json::Obj(fields).to_string()
    }
}

/// Validates raw uploaded bytes into a [`StoredProgram`].
///
/// Bytes starting with the `UCT1` magic decode as a recorded trace;
/// anything else must be UTF-8 ucasm that assembles and lays out
/// cleanly (a seed-0 [`load_asm`] smoke pass runs the arena validator).
///
/// # Errors
///
/// A human-readable message for the `invalid_program` envelope.
pub fn validate_program_bytes(bytes: &[u8]) -> Result<StoredProgram, String> {
    if bytes.is_empty() {
        return Err("empty program body".to_owned());
    }
    if bytes.len() > MAX_PROGRAM_BYTES {
        return Err(format!(
            "program body is {} bytes (max {MAX_PROGRAM_BYTES})",
            bytes.len()
        ));
    }
    let hash = fnv1a(bytes);
    if bytes.starts_with(UCT1_MAGIC) {
        let trace = Trace::from_bytes(bytes).map_err(|e| format!("bad UCT1 trace: {e}"))?;
        if trace.is_empty() {
            return Err("trace holds zero instructions".to_owned());
        }
        return Ok(StoredProgram {
            hash,
            raw: bytes.to_vec(),
            body: ProgramBody::Trace(Arc::new(trace)),
        });
    }
    let source = std::str::from_utf8(bytes)
        .map_err(|_| "program is neither a UCT1 trace nor UTF-8 ucasm text".to_owned())?;
    let asm = assemble(source).map_err(|e| format!("ucasm: {e}"))?;
    // Layout smoke test: load_asm validates the arena invariants; the
    // seed only moves the code base, so seed 0 proves every seed.
    let _ = load_asm(&asm, 0);
    Ok(StoredProgram {
        hash,
        raw: bytes.to_vec(),
        body: ProgramBody::Asm(asm),
    })
}

/// Decodes a store/replication payload (see
/// [`StoredProgram::payload_json`]) back into a validated program.
///
/// # Errors
///
/// A human-readable message; replay callers drop undecodable records.
pub fn decode_program_payload(payload: &str) -> Result<StoredProgram, String> {
    let doc = Json::parse(payload).map_err(|e| format!("program payload: {e}"))?;
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("program payload lacks kind")?;
    match ProgramKind::parse(kind) {
        Some(ProgramKind::Asm) => {
            let source = doc
                .get("source")
                .and_then(Json::as_str)
                .ok_or("asm payload lacks source")?;
            validate_program_bytes(source.as_bytes())
        }
        Some(ProgramKind::Trace) => {
            let hex = doc
                .get("hex")
                .and_then(Json::as_str)
                .ok_or("trace payload lacks hex")?;
            validate_program_bytes(&decode_hex(hex)?)
        }
        None => Err(format!("unknown program kind {kind:?}")),
    }
}

/// Lowercase hex encoding (store payloads must be UTF-8 strings).
pub fn encode_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decodes [`encode_hex`] output.
///
/// # Errors
///
/// A human-readable message on odd length or non-hex digits.
pub fn decode_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("hex payload has odd length".to_owned());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in bytes.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16).ok_or("bad hex digit")?;
        let lo = (pair[1] as char).to_digit(16).ok_or("bad hex digit")?;
        out.push((hi * 16 + lo) as u8);
    }
    Ok(out)
}

/// The server's program registry: content hash → validated program.
/// Inserts are idempotent (content addressing makes re-uploads no-ops);
/// nothing is ever evicted — programs are small and the store replays
/// them on restart anyway.
#[derive(Default)]
pub struct ProgramRegistry {
    map: RwLock<HashMap<u64, Arc<StoredProgram>>>,
}

impl ProgramRegistry {
    /// An empty registry.
    pub fn new() -> ProgramRegistry {
        ProgramRegistry::default()
    }

    /// Inserts a validated program, returning the shared entry and
    /// whether it was newly created (false: this content address was
    /// already registered — the existing entry wins).
    pub fn insert(&self, program: StoredProgram) -> (Arc<StoredProgram>, bool) {
        let mut map = self.map.write().expect("program registry lock");
        match map.entry(program.hash) {
            std::collections::hash_map::Entry::Occupied(e) => (Arc::clone(e.get()), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                let arc = Arc::new(program);
                e.insert(Arc::clone(&arc));
                (arc, true)
            }
        }
    }

    /// Looks up a program by content hash.
    pub fn get(&self, hash: u64) -> Option<Arc<StoredProgram>> {
        self.map
            .read()
            .expect("program registry lock")
            .get(&hash)
            .map(Arc::clone)
    }

    /// Resolves a workload ref against the registry: the hash must be
    /// present *and* the resource kind must match the ref's tag.
    pub fn resolve(&self, wref: &WorkloadRef) -> Option<Arc<StoredProgram>> {
        let hash = wref.resource_hash()?;
        let p = self.get(hash)?;
        (p.workload_ref() == *wref).then_some(p)
    }

    /// Every registered program, ascending by id, optionally filtered by
    /// kind (`GET /v1/programs?kind=asm|trace`).
    pub fn list(&self, kind: Option<ProgramKind>) -> Vec<Arc<StoredProgram>> {
        let map = self.map.read().expect("program registry lock");
        let mut out: Vec<_> = map
            .values()
            .filter(|p| kind.is_none_or(|k| p.kind() == k))
            .map(Arc::clone)
            .collect();
        out.sort_by_key(|p| p.hash());
        out
    }

    /// Number of registered programs.
    pub fn len(&self) -> usize {
        self.map.read().expect("program registry lock").len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOP_ASM: &str = ".func main\ntop: alu 3\n jcc top trip=8\n jmp top\n.end\n";

    #[test]
    fn asm_uploads_validate_and_address_by_content() {
        let p = validate_program_bytes(LOOP_ASM.as_bytes()).unwrap();
        assert_eq!(p.kind(), ProgramKind::Asm);
        assert_eq!(p.hash(), fnv1a(LOOP_ASM.as_bytes()));
        assert_eq!(p.ref_string(), format!("program:{}", p.id()));
        assert_eq!(p.insts(), 3);
        assert!(p.asm().is_some() && p.trace().is_none());
        let meta = p.meta_json();
        assert_eq!(meta.get("kind").unwrap().as_str(), Some("asm"));
        assert_eq!(
            meta.get("bytes").unwrap().as_u64(),
            Some(LOOP_ASM.len() as u64)
        );
    }

    #[test]
    fn trace_uploads_validate_and_round_trip() {
        use ucsim_trace::{Program, WorkloadProfile};
        let profile = WorkloadProfile::quick_test();
        let program = Program::generate(&profile);
        let trace = Trace::record(program.walk(&profile).take(200));
        let bytes = trace.to_bytes();
        let p = validate_program_bytes(&bytes).unwrap();
        assert_eq!(p.kind(), ProgramKind::Trace);
        assert_eq!(p.insts(), 200);
        assert_eq!(p.raw(), &bytes[..]);
        assert_eq!(p.ref_string(), format!("trace:{}", p.id()));
    }

    #[test]
    fn invalid_uploads_are_rejected_with_messages() {
        assert!(validate_program_bytes(b"").unwrap_err().contains("empty"));
        // Bad asm: jcc to an unknown label.
        let e = validate_program_bytes(b".func main\n jcc nowhere\n.end\n").unwrap_err();
        assert!(e.starts_with("ucasm: line"), "{e}");
        // Truncated trace: magic + count but no records.
        let mut bytes = UCT1_MAGIC.to_vec();
        bytes.extend_from_slice(&5u64.to_be_bytes());
        let e = validate_program_bytes(&bytes).unwrap_err();
        assert!(e.starts_with("bad UCT1 trace"), "{e}");
        // Binary garbage that is neither.
        assert!(validate_program_bytes(&[0xfe, 0xff, 0x00]).is_err());
    }

    #[test]
    fn payload_json_round_trips_both_kinds() {
        let asm = validate_program_bytes(LOOP_ASM.as_bytes()).unwrap();
        let back = decode_program_payload(&asm.payload_json()).unwrap();
        assert_eq!(back.hash(), asm.hash());
        assert_eq!(back.kind(), ProgramKind::Asm);

        use ucsim_trace::{Program, WorkloadProfile};
        let profile = WorkloadProfile::quick_test();
        let trace = Trace::record(Program::generate(&profile).walk(&profile).take(50));
        let t = validate_program_bytes(&trace.to_bytes()).unwrap();
        let back = decode_program_payload(&t.payload_json()).unwrap();
        assert_eq!(back.hash(), t.hash());
        assert_eq!(back.kind(), ProgramKind::Trace);
        assert_eq!(back.raw(), t.raw());
    }

    #[test]
    fn hex_round_trips() {
        let data = [0u8, 1, 0xab, 0xff, 0x10];
        assert_eq!(decode_hex(&encode_hex(&data)).unwrap(), data);
        assert!(decode_hex("abc").is_err());
        assert!(decode_hex("zz").is_err());
    }

    #[test]
    fn registry_is_idempotent_and_kind_checked() {
        let reg = ProgramRegistry::new();
        assert!(reg.is_empty());
        let (a, created) = reg.insert(validate_program_bytes(LOOP_ASM.as_bytes()).unwrap());
        assert!(created);
        let (b, created) = reg.insert(validate_program_bytes(LOOP_ASM.as_bytes()).unwrap());
        assert!(!created);
        assert_eq!(a.hash(), b.hash());
        assert_eq!(reg.len(), 1);

        assert!(reg.resolve(&WorkloadRef::Program(a.hash())).is_some());
        // A trace ref to an asm resource must not resolve.
        assert!(reg.resolve(&WorkloadRef::Trace(a.hash())).is_none());
        assert!(reg.resolve(&WorkloadRef::Program(a.hash() ^ 1)).is_none());
        assert!(reg
            .resolve(&WorkloadRef::Profile("redis".to_owned()))
            .is_none());

        assert_eq!(reg.list(None).len(), 1);
        assert_eq!(reg.list(Some(ProgramKind::Asm)).len(), 1);
        assert_eq!(reg.list(Some(ProgramKind::Trace)).len(), 0);
    }
}
