//! Wire-contract tests: `SimConfig` and `SimReport` are the job
//! service's request/response payloads, so they must survive
//! encode → decode → encode **bit-exactly** — f64 fields included.

use ucsim::model::{FromJson, Json, ToJson};
use ucsim::pipeline::{SimConfig, Simulator};
use ucsim::trace::{Program, WorkloadProfile};
use ucsim::uopcache::{CompactionPolicy, UopCacheConfig};

/// Asserts `value` encodes, decodes, and re-encodes to identical text,
/// and that the decoded JSON tree matches the original's.
fn assert_bit_exact_roundtrip<T: ToJson + FromJson>(value: &T, what: &str) {
    let text = value.to_json_string();
    let back = T::from_json_str(&text).unwrap_or_else(|e| panic!("{what}: decode failed at {e}"));
    let text2 = back.to_json_string();
    assert_eq!(text, text2, "{what}: re-encode differs from first encode");
    // The parsed trees agree too (catches writer/parser asymmetries).
    assert_eq!(
        Json::parse(&text).unwrap(),
        Json::parse(&text2).unwrap(),
        "{what}: parsed trees differ"
    );
}

#[test]
fn sim_config_table1_round_trips() {
    assert_bit_exact_roundtrip(&SimConfig::table1(), "SimConfig::table1()");
}

#[test]
fn sim_config_variants_round_trip() {
    let clasp = SimConfig::table1()
        .with_uop_cache(UopCacheConfig::baseline_2k().with_clasp())
        .with_insts(123, 456_789);
    assert_bit_exact_roundtrip(&clasp, "SimConfig + CLASP");

    let fpwac = SimConfig::table1().with_uop_cache(
        UopCacheConfig::baseline_with_capacity(8192).with_compaction(CompactionPolicy::Fpwac, 3),
    );
    assert_bit_exact_roundtrip(&fpwac, "SimConfig + F-PWAC");
}

#[test]
fn sim_report_round_trips_bit_exactly() {
    // A real report, full of f64 metrics that must not drift on the wire.
    let profile = WorkloadProfile::quick_test();
    let program = Program::generate(&profile);
    let report = Simulator::new(SimConfig::table1().quick()).run(&profile, &program);
    assert!(report.upc > 0.0, "sanity: the simulation ran");
    assert_bit_exact_roundtrip(&report, "SimReport");
}

#[test]
fn sim_report_f64_fields_survive_exactly() {
    let profile = WorkloadProfile::quick_test();
    let program = Program::generate(&profile);
    let report = Simulator::new(SimConfig::table1().quick()).run(&profile, &program);

    let text = report.to_json_string();
    let back = ucsim::pipeline::SimReport::from_json_str(&text).unwrap();
    // Bit-for-bit equality, not approximate: the cache hands the same
    // bytes to every client, so decoded values must be the same floats.
    assert_eq!(report.upc.to_bits(), back.upc.to_bits());
    assert_eq!(report.oc_hit_rate.to_bits(), back.oc_hit_rate.to_bits());
    assert_eq!(report.mpki.to_bits(), back.mpki.to_bits());
    assert_eq!(report.decoder_power.to_bits(), back.decoder_power.to_bits());
    assert_eq!(
        report.front_end_power.to_bits(),
        back.front_end_power.to_bits()
    );
}

#[test]
fn workload_ref_spellings_share_one_content_address() {
    // API v1.2 pin: the tagged workload object and its plain string
    // spelling must resolve to byte-identical canonical job specs — and a
    // plain profile name must canonicalize exactly as it did pre-v1.2,
    // so no existing store record or cache key is orphaned.
    use ucsim::serve::SimRequest;

    let tagged =
        SimRequest::parse(r#"{"workload":{"program":"00000000deadbeef"},"seed":7,"insts":1000}"#)
            .unwrap();
    let alias =
        SimRequest::parse(r#"{"workload":"program:00000000deadbeef","seed":7,"insts":1000}"#)
            .unwrap();
    assert_eq!(
        tagged.resolve(0).canonical(),
        alias.resolve(0).canonical(),
        "tagged object and string alias must hash identically"
    );

    let profile = SimRequest::parse(r#"{"workload":{"profile":"bm-cc"},"seed":7,"insts":1000}"#)
        .unwrap()
        .resolve(0);
    let bare = SimRequest::parse(r#"{"workload":"bm-cc","seed":7,"insts":1000}"#)
        .unwrap()
        .resolve(0);
    assert_eq!(profile.canonical(), bare.canonical());
    assert_eq!(profile.workload, "bm-cc", "profile names stay unprefixed");
}

#[test]
fn config_survives_json_value_detour() {
    // Encode → parse to a Json tree → re-encode → decode: the detour a
    // request body takes through the server.
    let cfg = SimConfig::table1().quick();
    let tree = cfg.to_json();
    let text = tree.to_string();
    let back = SimConfig::from_json_str(&text).unwrap();
    assert_eq!(back.to_json_string(), cfg.to_json_string());
}
