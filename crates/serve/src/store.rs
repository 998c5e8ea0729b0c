//! The persistent result store: an append-only, checksummed log of
//! terminal job outcomes under `--data-dir`.
//!
//! Simulations are deterministic (DESIGN.md §6), so a result is valid
//! forever; the store makes the content-addressed cache survive restarts.
//! Every completed job appends one `RESULT` record, and every
//! *deterministic* failure (a worker panic — the same spec panics the
//! same way) appends one `FAILED` record. On startup the log is replayed
//! into the in-memory caches, so a restarted server answers previously
//! computed jobs (and whole sweeps) from disk with zero re-simulations —
//! including re-reporting failures without re-running doomed specs.
//! Environment-dependent failures (deadlines, drain) are never persisted.
//!
//! Since v1.2 the log also persists *uploaded programs* (DESIGN.md §11):
//! a `PROGRAM` record's canonical string is the workload ref
//! (`program:<hash>` / `trace:<hash>`) and its payload the program
//! resource JSON, so a restarted server still resolves every workload ref
//! its results refer to — and anti-entropy replicates programs to peers
//! through the same log.
//!
//! ## File format (`results.log`)
//!
//! An 8-byte magic (`UCSTOR03`) followed by records, all integers
//! big-endian:
//!
//! ```text
//! [u8 kind][u64 key_hash][u32 canonical_len][u32 payload_len][u64 checksum]
//! [canonical bytes][payload bytes]
//! ```
//!
//! `kind` is 1 (`RESULT`: payload is the report JSON), 2 (`FAILED`:
//! payload is `{"code":…,"message":…}`) or 3 (`PROGRAM`: payload is the
//! program resource JSON). `key_hash` is the FNV-1a content address of
//! the canonical spec (for programs: of the uploaded bytes); `checksum`
//! is FNV-1a over the concatenated canonical + payload bytes. Replay
//! stops at the first short, unknown-kind, or checksum-failing record and
//! truncates the file there, so a crash mid-append costs at most the last
//! record — never the log. A file with any other magic is refused.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use ucsim_model::json::Json;
use ucsim_model::FailureKind;
use ucsim_pool::faults;

use crate::api::fnv1a;
use crate::jobs::JobFailure;

const MAGIC: &[u8; 8] = b"UCSTOR03";
/// Per-record fixed header: kind (1) + key (8) + lengths (4+4) +
/// checksum (8).
const RECORD_HEADER_BYTES: usize = 25;
/// Replay refuses records larger than this (corrupt length fields would
/// otherwise make it try to allocate garbage).
const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;
/// Most bytes a record read reserves up front; larger records grow their
/// buffer as the bytes arrive.
const READ_CHUNK_BYTES: usize = 64 * 1024;

const KIND_RESULT: u8 = 1;
const KIND_FAILED: u8 = 2;
const KIND_PROGRAM: u8 = 3;

/// What a store record holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A completed simulation; the payload is the report JSON.
    Result,
    /// A deterministic failure; the payload is `{"code":…,"message":…}`.
    Failed,
    /// An uploaded user program; the canonical string is the workload ref
    /// and the payload the program resource JSON (DESIGN.md §11).
    Program,
}

/// One replayed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreRecord {
    /// Record type.
    pub kind: RecordKind,
    /// Content address of the canonical spec.
    pub key_hash: u64,
    /// The canonical spec string.
    pub canonical: String,
    /// The report payload JSON (`Result`) or failure envelope (`Failed`).
    pub payload: String,
}

impl RecordKind {
    /// The record's on-disk kind byte.
    fn code(self) -> u8 {
        match self {
            RecordKind::Result => KIND_RESULT,
            RecordKind::Failed => KIND_FAILED,
            RecordKind::Program => KIND_PROGRAM,
        }
    }

    /// The kind's name in `GET /v1/store` pages.
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::Result => "result",
            RecordKind::Failed => "failed",
            RecordKind::Program => "program",
        }
    }

    /// Parses a [`name`](Self::name).
    pub fn parse(name: &str) -> Option<RecordKind> {
        [RecordKind::Result, RecordKind::Failed, RecordKind::Program]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// Decodes a `FAILED` record's payload (see [`failure_payload`]); `None`
/// when it does not parse.
pub fn parse_failure_payload(payload: &str) -> Option<JobFailure> {
    let v = Json::parse(payload).ok()?;
    let kind = FailureKind::parse(v.get("code")?.as_str()?)?;
    let message = v.get("message")?.as_str()?.to_owned();
    let request_id = v
        .get("request_id")
        .and_then(Json::as_str)
        .map(str::to_owned);
    Some(JobFailure {
        kind,
        message,
        request_id,
    })
}

/// Encodes a failure as the `FAILED` record payload.
pub fn failure_payload(failure: &JobFailure) -> String {
    let mut fields = vec![
        (
            "code".to_owned(),
            Json::Str(failure.kind.as_str().to_owned()),
        ),
        ("message".to_owned(), Json::Str(failure.message.clone())),
    ];
    if let Some(id) = &failure.request_id {
        fields.push(("request_id".to_owned(), Json::Str(id.clone())));
    }
    Json::Obj(fields).to_string()
}

/// The append-only result store. All methods take `&self`; a mutex
/// serializes appends.
#[derive(Debug)]
pub struct ResultStore {
    file: Mutex<File>,
    path: PathBuf,
    /// Content keys with a record in the log: seeded by replay, extended
    /// by every successful append.
    keys: Mutex<HashSet<u64>>,
    /// When set, every append is fsync'd (`--durable`).
    durable: bool,
    /// Health flag for `/v1/healthz`: cleared when an append fails, set
    /// again by the next successful append.
    healthy: AtomicBool,
}

impl ResultStore {
    /// Opens (creating if needed) `<dir>/results.log` and replays its
    /// records. A corrupt tail is truncated away; the valid prefix is
    /// returned for cache warm-up. With `durable` set, every append is
    /// fsync'd before returning.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file I/O errors; an existing
    /// non-empty file whose first 8 bytes are not the `UCSTOR03` magic
    /// maps to [`io::ErrorKind::InvalidData`], naming the bytes found.
    pub fn open(dir: &Path, durable: bool) -> io::Result<(ResultStore, Vec<StoreRecord>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("results.log");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;

        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        if raw.is_empty() {
            file.write_all(MAGIC)?;
            file.flush()?;
        } else if !raw.starts_with(MAGIC) {
            let found = &raw[..raw.len().min(MAGIC.len())];
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} is not a ucsim result store: expected magic \"{}\", found \"{}\"",
                    path.display(),
                    MAGIC.escape_ascii(),
                    found.escape_ascii()
                ),
            ));
        }
        // Replay the valid prefix, then chop any corrupt tail so future
        // appends extend it (a no-op when the whole log replayed).
        let mut body = raw.get(MAGIC.len()..).unwrap_or_default();
        let mut records = Vec::new();
        let mut valid_len = MAGIC.len() as u64;
        while let Some((record, len)) = read_record(&mut body)? {
            records.push(record);
            valid_len += len;
        }
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok((
            ResultStore {
                file: Mutex::new(file),
                path,
                keys: Mutex::new(records.iter().map(|r| r.key_hash).collect()),
                durable,
                healthy: AtomicBool::new(true),
            },
            records,
        ))
    }

    /// Appends one completed result.
    ///
    /// # Errors
    ///
    /// Propagates write errors (the caller counts and carries on — the
    /// in-memory cache still holds the result).
    pub fn append(&self, key_hash: u64, canonical: &str, payload: &str) -> io::Result<()> {
        self.append_record(RecordKind::Result, key_hash, canonical, payload)
    }

    /// Appends one record of any kind: `payload` is the report JSON, the
    /// failure's `{"code","message","request_id"?}` JSON, or the program
    /// resource JSON.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append_record(
        &self,
        kind: RecordKind,
        key_hash: u64,
        canonical: &str,
        payload: &str,
    ) -> io::Result<()> {
        let result = self.write_record(&encode_record(kind.code(), key_hash, canonical, payload));
        self.healthy.store(result.is_ok(), Ordering::Relaxed);
        if result.is_ok() {
            self.keys.lock().expect("store keys lock").insert(key_hash);
        }
        result
    }

    fn write_record(&self, record: &[u8]) -> io::Result<()> {
        let mut file = self.file.lock().expect("store lock");
        // Named fault site: chaos tests inject hard I/O errors and torn
        // (partial) writes here to prove the recovery paths.
        match faults::take_io("store.append") {
            Some(faults::IoFault::Error) => {
                return Err(io::Error::other("injected store I/O error"));
            }
            Some(faults::IoFault::Torn { keep }) => {
                let keep = keep.min(record.len());
                file.write_all(&record[..keep])?;
                file.flush()?;
                return Err(io::Error::other(format!(
                    "injected torn write ({keep} of {} bytes)",
                    record.len()
                )));
            }
            None => {}
        }
        file.write_all(record)?;
        file.flush()?;
        if self.durable {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Whether the log holds a record for `key_hash` (replayed at open
    /// or appended since).
    pub fn contains(&self, key_hash: u64) -> bool {
        self.keys
            .lock()
            .expect("store keys lock")
            .contains(&key_hash)
    }

    /// Reads up to `max_records` verified records starting at byte offset
    /// `since` (an offset of 0 is normalized to the first record, just
    /// past the magic), stopping before a record that would take the
    /// page past `max_bytes` of log (record headers included); the first
    /// record is always returned, whatever its size. Returns the records,
    /// the byte offset the *next* pull should use, and whether the
    /// verified end of the log was reached. The cursor never advances
    /// past a short, corrupt, or still-being-written record, so a puller
    /// that keeps its returned offset resumes exactly where verification
    /// stopped — the anti-entropy loop (DESIGN.md §10) relies on this to
    /// never replicate a torn tail.
    ///
    /// The read walks one record at a time and stops at the page, so a
    /// page costs its own size (plus one record of look-ahead), not the
    /// rest of the log. It uses a fresh handle on the log path so
    /// concurrent appends via `self.file` are unaffected.
    ///
    /// # Errors
    ///
    /// Propagates open/read errors on the log file.
    pub fn read_since(
        &self,
        since: u64,
        max_records: usize,
        max_bytes: u64,
    ) -> io::Result<(Vec<StoreRecord>, u64, bool)> {
        let start = since.max(MAGIC.len() as u64);
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(start))?;
        let mut reader = BufReader::new(file);
        let mut records = Vec::new();
        let mut next = start;
        while let Some((record, len)) = read_record(&mut reader)? {
            // A verified record the page has no room for: the log goes on.
            let full = records.len() == max_records
                || (!records.is_empty() && next - start + len > max_bytes);
            if full {
                return Ok((records, next, false));
            }
            records.push(record);
            next += len;
        }
        Ok((records, next, true))
    }

    /// Whether the last append succeeded (`true` before any append).
    /// `/v1/healthz` reports this as store writability.
    pub fn writable(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }

    /// The log's path (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether appends fsync (`--durable`).
    pub fn durable(&self) -> bool {
        self.durable
    }
}

fn encode_record(kind: u8, key_hash: u64, canonical: &str, payload: &str) -> Vec<u8> {
    let c = canonical.as_bytes();
    let p = payload.as_bytes();
    let mut sum_input = Vec::with_capacity(c.len() + p.len());
    sum_input.extend_from_slice(c);
    sum_input.extend_from_slice(p);
    let checksum = fnv1a(&sum_input);

    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES + c.len() + p.len());
    out.push(kind);
    out.extend_from_slice(&key_hash.to_be_bytes());
    out.extend_from_slice(&(c.len() as u32).to_be_bytes());
    out.extend_from_slice(&(p.len() as u32).to_be_bytes());
    out.extend_from_slice(&checksum.to_be_bytes());
    out.extend_from_slice(c);
    out.extend_from_slice(p);
    out
}

/// Reads and verifies the next record, returning it with its length in
/// the log. `None` marks the end of the verified log: a clean end, a
/// short or absurd record, an unknown kind, a checksum mismatch, or text
/// that is not UTF-8.
///
/// # Errors
///
/// Propagates read errors.
fn read_record(r: &mut impl Read) -> io::Result<Option<(StoreRecord, u64)>> {
    // Buffers grow with what actually arrives: a torn header's lengths
    // claim bytes that are not there.
    let mut read = |n: usize| -> io::Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(n.min(READ_CHUNK_BYTES));
        r.by_ref().take(n as u64).read_to_end(&mut buf)?;
        Ok(buf)
    };
    let head = read(RECORD_HEADER_BYTES)?;
    if head.len() < RECORD_HEADER_BYTES {
        return Ok(None);
    }
    let kind = match head[0] {
        KIND_RESULT => RecordKind::Result,
        KIND_FAILED => RecordKind::Failed,
        KIND_PROGRAM => RecordKind::Program,
        _ => return Ok(None),
    };
    let key_hash = u64::from_be_bytes(head[1..9].try_into().expect("8 bytes"));
    let c_len = u32::from_be_bytes(head[9..13].try_into().expect("4 bytes")) as usize;
    let p_len = u32::from_be_bytes(head[13..17].try_into().expect("4 bytes")) as usize;
    let checksum = u64::from_be_bytes(head[17..25].try_into().expect("8 bytes"));
    let len = c_len + p_len;
    if len > MAX_RECORD_BYTES {
        return Ok(None);
    }
    let mut data = read(len)?;
    if data.len() < len || fnv1a(&data) != checksum {
        return Ok(None);
    }
    let payload = data.split_off(c_len);
    let (Ok(canonical), Ok(payload)) = (String::from_utf8(data), String::from_utf8(payload)) else {
        return Ok(None);
    };
    let record = StoreRecord {
        kind,
        key_hash,
        canonical,
        payload,
    };
    Ok(Some((record, (RECORD_HEADER_BYTES + len) as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ucsim-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let dir = temp_dir("roundtrip");
        {
            let (store, replayed) = ResultStore::open(&dir, false).unwrap();
            assert!(replayed.is_empty());
            store.append(1, "spec-a", "{\"upc\":1.0}").unwrap();
            store.append(2, "spec-b", "{\"upc\":2.0}").unwrap();
        }
        let (_store, replayed) = ResultStore::open(&dir, false).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].kind, RecordKind::Result);
        assert_eq!(replayed[0].key_hash, 1);
        assert_eq!(replayed[0].canonical, "spec-a");
        assert_eq!(replayed[1].payload, "{\"upc\":2.0}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_records_round_trip() {
        let dir = temp_dir("failed");
        let failure = JobFailure::new(FailureKind::SimulationFailed, "panicked at 'boom'");
        {
            let (store, _) = ResultStore::open(&dir, false).unwrap();
            store.append(1, "spec-ok", "{\"upc\":1.0}").unwrap();
            store
                .append_record(
                    RecordKind::Failed,
                    2,
                    "spec-bad",
                    &failure_payload(&failure),
                )
                .unwrap();
        }
        let (_store, replayed) = ResultStore::open(&dir, false).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1].kind, RecordKind::Failed);
        assert_eq!(parse_failure_payload(&replayed[1].payload), Some(failure));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_is_truncated_and_appends_continue() {
        let dir = temp_dir("corrupt");
        {
            let (store, _) = ResultStore::open(&dir, false).unwrap();
            store.append(1, "good", "{\"ok\":true}").unwrap();
        }
        let path = dir.join("results.log");
        // Simulate a crash mid-append: a torn record at the tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[KIND_RESULT, 0xde, 0xad, 0xbe, 0xef, 0x01])
                .unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        let (store, replayed) = ResultStore::open(&dir, false).unwrap();
        assert_eq!(replayed.len(), 1, "valid prefix survives");
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        store.append(2, "more", "{\"ok\":1}").unwrap();
        drop(store);
        let (_s, replayed) = ResultStore::open(&dir, false).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1].canonical, "more");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let dir = temp_dir("checksum");
        {
            let (store, _) = ResultStore::open(&dir, false).unwrap();
            store.append(7, "spec", "{\"upc\":3.5}").unwrap();
        }
        let path = dir.join("results.log");
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        let (_s, replayed) = ResultStore::open(&dir, false).unwrap();
        assert!(replayed.is_empty(), "corrupted record must not replay");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_record_kind_truncates() {
        let dir = temp_dir("kind");
        {
            let (store, _) = ResultStore::open(&dir, false).unwrap();
            store.append(1, "good", "{\"ok\":true}").unwrap();
        }
        let path = dir.join("results.log");
        {
            // A whole, checksummed record with an unknown kind byte.
            let mut rec = encode_record(KIND_RESULT, 9, "x", "y");
            rec[0] = 77;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&rec).unwrap();
        }
        let (_s, replayed) = ResultStore::open(&dir, false).unwrap();
        assert_eq!(replayed.len(), 1, "unknown kind stops replay");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn program_records_round_trip() {
        let dir = temp_dir("program");
        {
            let (store, _) = ResultStore::open(&dir, false).unwrap();
            store
                .append_record(
                    RecordKind::Program,
                    0xabcd,
                    "program:000000000000abcd",
                    "{\"kind\":\"asm\"}",
                )
                .unwrap();
            store.append(1, "spec", "{\"upc\":1.0}").unwrap();
        }
        let (_s, replayed) = ResultStore::open(&dir, false).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].kind, RecordKind::Program);
        assert_eq!(replayed[0].key_hash, 0xabcd);
        assert_eq!(replayed[0].canonical, "program:000000000000abcd");
        assert_eq!(replayed[0].payload, "{\"kind\":\"asm\"}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_file_is_rejected() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        // A foreign file, a log too short for a magic, and a log from the
        // previous store version (the magic's version digit one lower)
        // whose records are otherwise well framed.
        let mut previous = MAGIC.to_vec();
        previous[7] = b'2';
        let previous_found = format!("found \"{}\"", previous.escape_ascii());
        previous.extend_from_slice(&encode_record(KIND_RESULT, 1, "spec", "{}"));
        let inputs: [(&[u8], &str); 3] = [
            (b"not a store at all", r#"found "not a st""#),
            (b"UCST", r#"found "UCST""#),
            (&previous, &previous_found),
        ];
        for (raw, found) in inputs {
            std::fs::write(dir.join("results.log"), raw).unwrap();
            let err = ResultStore::open(&dir, false).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains(r#"expected magic "UCSTOR03""#), "{msg}");
            assert!(msg.contains(found), "{msg}");
            assert_eq!(
                std::fs::read(dir.join("results.log")).unwrap(),
                raw,
                "left untouched"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_reports_writable_after_successful_appends() {
        let dir = temp_dir("writable");
        let (store, _) = ResultStore::open(&dir, false).unwrap();
        assert!(store.writable(), "fresh store is presumed writable");
        store.append(1, "spec", "{}").unwrap();
        assert!(store.writable());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failure_payload_round_trips_request_id() {
        let f = JobFailure::new(FailureKind::SimulationFailed, "boom").with_request_id("req-12ab");
        assert_eq!(parse_failure_payload(&failure_payload(&f)), Some(f));
        assert_eq!(parse_failure_payload("{\"upc\":1.0}"), None);
        for kind in [RecordKind::Result, RecordKind::Failed, RecordKind::Program] {
            assert_eq!(RecordKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(RecordKind::parse("nope"), None);
    }

    #[test]
    fn read_since_pages_through_the_log() {
        let dir = temp_dir("read-since");
        let (store, _) = ResultStore::open(&dir, false).unwrap();
        for i in 0..5u64 {
            store
                .append(i, &format!("spec-{i}"), &format!("{{\"n\":{i}}}"))
                .unwrap();
        }
        let (page1, next1, eof1) = store.read_since(0, 2, u64::MAX).unwrap();
        assert_eq!(page1.len(), 2);
        assert_eq!(page1[0].key_hash, 0);
        assert!(!eof1, "three records remain");
        let (page2, next2, eof2) = store.read_since(next1, 10, u64::MAX).unwrap();
        assert_eq!(page2.len(), 3);
        assert_eq!(page2[0].key_hash, 2);
        assert!(eof2);
        let (page3, next3, eof3) = store.read_since(next2, 10, u64::MAX).unwrap();
        assert!(page3.is_empty());
        assert_eq!(next3, next2, "cursor is stable at eof");
        assert!(eof3);
        // New appends become visible from the saved cursor.
        store.append(9, "spec-9", "{}").unwrap();
        let (page4, _, eof4) = store.read_since(next3, 10, u64::MAX).unwrap();
        assert_eq!(page4.len(), 1);
        assert_eq!(page4[0].key_hash, 9);
        assert!(eof4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_since_bounds_a_page_by_bytes() {
        let dir = temp_dir("read-since-bytes");
        let (store, _) = ResultStore::open(&dir, false).unwrap();
        let payload = "x".repeat(100);
        for i in 0..5u64 {
            store.append(i, &format!("spec-{i}"), &payload).unwrap();
        }
        let record = (RECORD_HEADER_BYTES + "spec-0".len() + payload.len()) as u64;
        // Two records fit under 2.5 records' worth of bytes; the third waits.
        let (page, next, eof) = store.read_since(0, 10, record * 5 / 2).unwrap();
        assert_eq!(page.len(), 2);
        assert!(!eof, "the byte budget cut the page short");
        // A budget smaller than one record still moves the cursor.
        let (page, next, eof) = store.read_since(next, 10, 1).unwrap();
        assert_eq!(page.len(), 1);
        assert_eq!(page[0].key_hash, 2);
        assert!(!eof);
        let (page, _, eof) = store.read_since(next, 10, record * 2).unwrap();
        assert_eq!(page.len(), 2);
        assert_eq!(page[1].key_hash, 4);
        assert!(eof);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_since_stops_before_a_corrupt_tail() {
        let dir = temp_dir("read-since-corrupt");
        let (store, _) = ResultStore::open(&dir, false).unwrap();
        store.append(1, "good", "{\"ok\":true}").unwrap();
        let (_, clean_end, _) = store.read_since(0, 10, u64::MAX).unwrap();
        // A torn half-record at the tail, as a crash mid-append leaves it.
        {
            let mut f = OpenOptions::new().append(true).open(store.path()).unwrap();
            f.write_all(&[KIND_RESULT, 0xde, 0xad]).unwrap();
        }
        let (records, next, eof) = store.read_since(0, 10, u64::MAX).unwrap();
        assert_eq!(records.len(), 1, "only the verified prefix is served");
        assert_eq!(next, clean_end, "cursor never passes the corruption");
        assert!(eof, "verified end reached");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_since_pages_concatenate_to_the_replay() {
        let dir = temp_dir("read-since-pages");
        {
            let (store, _) = ResultStore::open(&dir, false).unwrap();
            for i in 0..1000u64 {
                let payload = "p".repeat((i % 37) as usize);
                store.append(i, &format!("spec-{i}"), &payload).unwrap();
            }
        }
        let (store, replayed) = ResultStore::open(&dir, false).unwrap();
        let mut pulled = Vec::new();
        let mut pages = Vec::new();
        let mut cursor = 0;
        loop {
            let (page, next, eof) = store.read_since(cursor, 7, u64::MAX).unwrap();
            pages.push(page.len());
            pulled.extend(page);
            cursor = next;
            if eof {
                break;
            }
        }
        assert_eq!(pulled, replayed);
        // 1000 = 142 × 7 + 6: full pages, then a short last one at eof.
        assert_eq!(pages.len(), 143);
        assert!(pages[..142].iter().all(|&n| n == 7));
        assert_eq!(pages[142], 6);
        let (page, next, eof) = store.read_since(cursor, 7, u64::MAX).unwrap();
        assert!(page.is_empty() && eof);
        assert_eq!(next, cursor, "cursor is stable at eof");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn contains_covers_replayed_and_appended_keys() {
        let dir = temp_dir("contains");
        {
            let (store, _) = ResultStore::open(&dir, false).unwrap();
            store.append(1, "spec-1", "{}").unwrap();
        }
        let (store, _) = ResultStore::open(&dir, false).unwrap();
        assert!(store.contains(1), "seeded by replay");
        assert!(!store.contains(2));
        store
            .append_record(RecordKind::Program, 2, "program:2", "{}")
            .unwrap();
        assert!(store.contains(2), "extended by the append");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_store_appends_and_replays() {
        let dir = temp_dir("durable");
        {
            let (store, _) = ResultStore::open(&dir, true).unwrap();
            assert!(store.durable());
            store.append(1, "spec", "{\"upc\":1.0}").unwrap();
        }
        let (_s, replayed) = ResultStore::open(&dir, false).unwrap();
        assert_eq!(replayed.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
