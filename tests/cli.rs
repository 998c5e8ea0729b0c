//! Characterisation tests of the `ucsim` binary: usage errors and their
//! exit codes, `--help`/`--list`, and each client mode against an
//! in-process server on an ephemeral port.
//!
//! The binary's contract is its flags, defaults, messages and exit codes:
//! 2 for a usage error (message, blank line, `USAGE`), 1 for a server or
//! transport error, 0 otherwise.

use std::process::{Command, Output};

use ucsim::model::Json;
use ucsim::serve::{Server, ServerConfig};
use ucsim::trace::WorkloadProfile;

const DENSE_LOOP: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/asm/dense_loop.asm");

fn ucsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ucsim"))
        .args(args)
        .output()
        .expect("run the ucsim binary")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn start_server() -> (Server, String) {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_capacity: 8,
        cache_budget_bytes: 8 * 1024 * 1024,
        retain_jobs: 64,
        enable_test_workloads: true,
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// The `--help` text, which every usage error repeats after its message.
fn usage() -> String {
    let help = ucsim(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    stdout(&help)
}

#[test]
fn help_prints_usage_naming_every_flag() {
    let text = usage();
    assert!(
        text.starts_with("ucsim — x86 uop cache simulator"),
        "{text}"
    );
    for flag in [
        "--workload",
        "--asm",
        "--seed",
        "--capacity",
        "--clasp",
        "--compaction",
        "--max-entries",
        "--replacement",
        "--loop-cache",
        "--trace",
        "--insts",
        "--warmup",
        "--list",
        "--help",
        "--addr",
        "--peer",
        "--background",
        "--job",
        "--metrics",
        "--no-retry",
        "--workloads",
        "--capacities",
        "--policies",
        "--tenant",
        "--priority",
        "--adaptive",
        "--tolerance",
        "--cancel",
        "--poll-ms",
        "--id",
        "--profile",
        "--kind",
        "--raw",
    ] {
        assert!(text.contains(flag), "USAGE lacks {flag}");
    }
    // Every mode answers --help with the same text.
    for args in [
        &["client", "--help"][..],
        &["client", "matrix", "--help"],
        &["client", "job", "--help"],
        &["client", "program", "list", "--help"],
        &["client", "program", "--help"],
        &["client", "program", "-h"],
    ] {
        let o = ucsim(args);
        assert_eq!(o.status.code(), Some(0), "{args:?}");
        assert_eq!(stdout(&o), text, "{args:?}");
    }
}

#[test]
fn list_prints_every_table2_workload() {
    let o = ucsim(&["--list"]);
    assert_eq!(o.status.code(), Some(0));
    let out = stdout(&o);
    assert!(out.starts_with("name"), "{out}");
    for p in WorkloadProfile::table2() {
        assert!(
            out.lines()
                .any(|l| l.split_whitespace().next() == Some(p.name)),
            "--list lacks {}",
            p.name
        );
    }
}

#[test]
fn usage_errors_exit_2_with_message_and_usage() {
    let text = usage();
    let cases: &[(&[&str], &str)] = &[
        // A value flag with no value, in each mode.
        (&["--insts"], "--insts needs a number"),
        (&["--workload"], "--workload needs a name"),
        (&["--capacity", "many"], "--capacity needs a uop count"),
        (
            &["--compaction", "zip"],
            "--compaction takes rac|pwac|fpwac",
        ),
        (&["--replacement"], "--replacement takes lru|plru|srrip"),
        (&["--max-entries", "x"], "--max-entries takes 2 or 3"),
        (&["client", "--addr"], "--addr needs host:port"),
        (&["client", "--job", "x"], "--job needs an id"),
        (&["client", "matrix", "--addr"], "--addr needs a value"),
        (&["client", "matrix", "--seed"], "--seed needs a value"),
        (
            &["client", "matrix", "--tolerance", "x"],
            "--tolerance needs a number in [0,1)",
        ),
        (
            &["client", "matrix", "--capacities", "x"],
            "--capacities takes uop counts",
        ),
        (&["client", "job", "--id"], "--id needs a job id"),
        (&["client", "job"], "job needs --id"),
        (
            &["client", "program", "list", "--kind"],
            "--kind takes asm|trace",
        ),
        (&["client", "program"], "program needs upload|list|show"),
        (
            &["client", "program", "upload"],
            "program upload needs a file",
        ),
        (
            &["client", "program", "frob"],
            "unknown program verb frob (upload|list|show)",
        ),
        // An unknown flag, in each mode.
        (&["--bogus"], "unknown option --bogus"),
        (&["client", "--bogus"], "unknown client option --bogus"),
        (
            &["client", "matrix", "--bogus"],
            "unknown matrix option --bogus",
        ),
        (&["client", "job", "--bogus"], "unknown job option --bogus"),
        (
            &["client", "program", "list", "--bogus"],
            "unknown program option --bogus",
        ),
    ];
    for (args, msg) in cases {
        let o = ucsim(args);
        assert_eq!(o.status.code(), Some(2), "{args:?}: {}", stderr(&o));
        assert_eq!(stderr(&o), format!("error: {msg}\n\n{text}"), "{args:?}");
        assert!(o.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn uploaded_program_served_matches_direct_asm_run() {
    let (server, addr) = start_server();
    let up = ucsim(&["client", "program", "upload", DENSE_LOOP, "--addr", &addr]);
    assert_eq!(up.status.code(), Some(0), "{}", stderr(&up));
    let resource = Json::parse(&stdout(&up)).expect("upload prints JSON");
    let wref = resource.get("ref").and_then(Json::as_str).expect("ref");
    assert!(wref.starts_with("program:"), "{wref}");
    assert!(stderr(&up).contains(&format!("uploaded: {wref}")));

    let run = ["--insts", "20000", "--warmup", "2000"];
    let mut served_args = vec!["client", "--addr", &addr, "--workload", wref];
    served_args.extend(run);
    let served = ucsim(&served_args);
    assert_eq!(served.status.code(), Some(0), "{}", stderr(&served));
    let served = Json::parse(&stdout(&served)).expect("served JSON");
    let report = served.get("report").expect("report");

    let mut direct_args = vec!["--asm", DENSE_LOOP];
    direct_args.extend(run);
    let direct = ucsim(&direct_args);
    assert_eq!(direct.status.code(), Some(0), "{}", stderr(&direct));
    let direct = stdout(&direct);
    for key in ["insts", "uops", "cycles"] {
        let d: u64 = direct
            .lines()
            .find_map(|l| {
                let mut f = l.split_whitespace();
                (f.next() == Some(key)).then(|| f.next().unwrap().parse().unwrap())
            })
            .unwrap_or_else(|| panic!("direct run lacks {key}: {direct}"));
        assert_eq!(report.get(key).and_then(Json::as_u64), Some(d), "{key}");
    }
    server.shutdown();
}

#[test]
fn two_cell_matrix_polls_to_the_report() {
    let (server, addr) = start_server();
    let o = ucsim(&[
        "client",
        "matrix",
        "--addr",
        &addr,
        "--workloads",
        "bm-cc",
        "--capacities",
        "2048,4096",
        "--insts",
        "2000",
        "--warmup",
        "200",
        "--poll-ms",
        "20",
    ]);
    let err = stderr(&o);
    assert_eq!(o.status.code(), Some(0), "{err}");
    assert!(err.contains("accepted: 2 cells planned"), "{err}");
    assert!(err.contains("  2/2 cells done"), "{err}");
    assert!(
        err.contains("sweep done: 2 cells simulated, 0 resolved from store"),
        "{err}"
    );
    let report = Json::parse(&stdout(&o)).expect("matrix prints the report JSON");
    assert!(matches!(report, Json::Obj(_)), "{report}");
    server.shutdown();
}

#[test]
fn matrix_flags_reach_the_plan() {
    let (server, addr) = start_server();
    let o = ucsim(&[
        "client",
        "matrix",
        "--addr",
        &addr,
        "--workloads",
        "bm-cc, redis",
        "--capacities",
        "2048,4096",
        "--policies",
        "baseline,fpwac",
        "--max-entries",
        "3",
        "--seed",
        "5",
        "--insts",
        "2000",
        "--warmup",
        "200",
        "--tenant",
        "t1",
        "--priority",
        "2",
        "--adaptive",
        "--tolerance",
        "0.1",
        "--poll-ms",
        "20",
        "--no-retry",
    ]);
    let err = stderr(&o);
    assert_eq!(o.status.code(), Some(0), "{err}");
    assert!(err.contains(" accepted: "), "{err}");
    assert!(err.contains("sweep done: "), "{err}");
    let report = Json::parse(&stdout(&o)).expect("report JSON");
    let text = report.to_string();
    for needle in ["bm-cc", "redis", "F-PWAC"] {
        assert!(text.contains(needle), "report lacks {needle}: {text}");
    }
    server.shutdown();
}

#[test]
fn background_jobs_poll_and_profile() {
    let (server, addr) = start_server();
    let run = ["--insts", "2000", "--warmup", "200", "--seed", "9"];
    let mut args = vec!["client", "--addr", &addr, "--background"];
    args.extend(run);
    let o = ucsim(&args);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    let accepted = Json::parse(&stdout(&o)).expect("202 body");
    let id = accepted.get("id").and_then(Json::as_u64).expect("job id");
    let id = id.to_string();

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let state = loop {
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} never settled"
        );
        let o = ucsim(&["client", "job", "--id", &id, "--addr", &addr]);
        assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
        let v = Json::parse(&stdout(&o)).unwrap();
        let state = v.get("state").and_then(Json::as_str).unwrap().to_owned();
        if state == "done" {
            break v;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let report = state.get("result").and_then(|r| r.get("report"));
    assert!(report.and_then(|r| r.get("insts")).is_some(), "{state}");

    // The same job through `client --job`, and its profile.
    let o = ucsim(&["client", "--addr", &addr, "--job", &id]);
    assert_eq!(o.status.code(), Some(0));
    assert_eq!(Json::parse(&stdout(&o)).unwrap(), state);
    let o = ucsim(&["client", "job", "--id", &id, "--profile", "--addr", &addr]);
    assert_eq!(o.status.code(), Some(0));
    let v = Json::parse(&stdout(&o)).unwrap();
    assert_eq!(v.get("state").and_then(Json::as_str), Some("done"));

    // A foreground resubmission is a cache hit.
    let mut args = vec!["client", "--addr", &addr, "--no-retry"];
    args.extend(run);
    let o = ucsim(&args);
    assert_eq!(o.status.code(), Some(0));
    let v = Json::parse(&stdout(&o)).unwrap();
    assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true));

    // A settled job cannot be cancelled.
    let o = ucsim(&["client", "job", "--id", &id, "--cancel", "--addr", &addr]);
    assert_eq!(o.status.code(), Some(1));
    assert_eq!(
        stderr(&o),
        format!("server answered 400 [bad_request]: job {id} already settled; nothing to cancel\n")
    );

    let o = ucsim(&["client", "--metrics", "--addr", &addr]);
    assert_eq!(o.status.code(), Some(0));
    assert!(Json::parse(&stdout(&o)).unwrap().get("workers").is_some());
    server.shutdown();
}

#[test]
fn program_list_and_show() {
    let (server, addr) = start_server();
    let up = ucsim(&["client", "program", "upload", DENSE_LOOP, "--addr", &addr]);
    let wref = Json::parse(&stdout(&up)).unwrap();
    let wref = wref.get("ref").and_then(Json::as_str).unwrap().to_owned();
    let again = ucsim(&["client", "program", "upload", DENSE_LOOP, "--addr", &addr]);
    assert_eq!(stderr(&again), format!("already known: {wref}\n"));

    let o = ucsim(&[
        "client", "program", "list", "--kind", "asm", "--addr", &addr,
    ]);
    assert_eq!(o.status.code(), Some(0));
    assert!(stdout(&o).contains(&wref), "{}", stdout(&o));

    let o = ucsim(&["client", "program", "show", &wref, "--addr", &addr]);
    assert_eq!(o.status.code(), Some(0));
    assert!(stdout(&o).contains(&wref));

    let o = ucsim(&["client", "program", "show", &wref, "--raw", "--addr", &addr]);
    assert_eq!(o.status.code(), Some(0));
    assert_eq!(o.stdout, std::fs::read(DENSE_LOOP).unwrap());

    let o = ucsim(&[
        "client",
        "program",
        "show",
        "00000000deadbeef",
        "--addr",
        &addr,
    ]);
    assert_eq!(o.status.code(), Some(1));
    assert!(
        stderr(&o).starts_with("server answered 404 [not_found]: "),
        "{}",
        stderr(&o)
    );
    server.shutdown();
}

#[test]
fn server_errors_exit_1_with_their_code() {
    let (server, addr) = start_server();
    let o = ucsim(&["client", "job", "--id", "999", "--addr", &addr]);
    assert_eq!(o.status.code(), Some(1));
    assert_eq!(stderr(&o), "server answered 404 [not_found]: no such job\n");

    let o = ucsim(&[
        "client",
        "--addr",
        &addr,
        "--workload",
        "test-panic",
        "--insts",
        "2000",
        "--warmup",
        "100",
    ]);
    assert_eq!(o.status.code(), Some(1));
    let err = stderr(&o);
    assert!(
        err.starts_with("server answered 500 [simulation_failed]: worker panicked"),
        "{err}"
    );
    assert!(o.stdout.is_empty());

    // Cancelling an unknown sweep is a server error too.
    let o = ucsim(&["client", "matrix", "--cancel", "7", "--addr", &addr]);
    assert_eq!(o.status.code(), Some(1));
    assert_eq!(
        stderr(&o),
        "server answered 404 [not_found]: no such sweep\n"
    );
    server.shutdown();
}

#[test]
fn unreachable_server_exits_1() {
    // Port 9 on loopback: nothing listens there in a test sandbox.
    let o = ucsim(&["client", "job", "--id", "1", "--addr", "127.0.0.1:9"]);
    assert_eq!(o.status.code(), Some(1));
    assert!(
        stderr(&o).starts_with("cannot reach 127.0.0.1:9: "),
        "{}",
        stderr(&o)
    );
}
