//! Characterisation tests of the `ucsim-serve` binary's argv: `--help`,
//! and every usage error with its message and exit status. None of these
//! invocations gets as far as starting a server.
//!
//! A usage error prints `error: <message>`, a blank line and the usage
//! text on stderr and exits 1; `--help` prints the usage text on stdout
//! and exits 0.

use std::process::{Command, Output};

use ucsim_serve::fnv1a;

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ucsim-serve"))
        .args(args)
        .output()
        .expect("run the ucsim-serve binary")
}

/// The usage text: 4313 bytes, pinned by length and FNV-1a digest.
fn usage() -> String {
    let help = serve(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(help.stderr.is_empty());
    let text = String::from_utf8(help.stdout).expect("utf-8 usage");
    assert!(
        text.starts_with("ucsim-serve: long-running simulation job service\n"),
        "{text}"
    );
    assert!(
        text.ends_with("(client-supplied or server-minted).\n"),
        "{text}"
    );
    assert_eq!(
        (text.len(), fnv1a(text.as_bytes())),
        (USAGE_LEN, USAGE_FNV),
        "{text}"
    );
    text
}

const USAGE_LEN: usize = 4313;
const USAGE_FNV: u64 = 0x8554022f15b877b1;

#[test]
fn help_prints_the_usage_text_and_exits_0() {
    let text = usage();
    let short = serve(&["-h"]);
    assert_eq!(short.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&short.stdout), text);
    assert!(short.stderr.is_empty());
}

/// Each value flag, what its usage error says the flag needs, and values
/// that are malformed for it. A missing value gets the same message.
const VALUE_FLAGS: &[(&str, &str, &[&str])] = &[
    ("--addr", "needs a value", &[]),
    ("--workers", "needs a number", &["two", "-1"]),
    ("--queue", "needs a number", &["8x"]),
    ("--cache-mb", "needs a number", &["lots"]),
    ("--data-dir", "needs a path", &[]),
    ("--deadline-ms", "needs a positive number", &["soon", "0"]),
    ("--drain-timeout", "needs a number of seconds", &["1.5"]),
    (
        "--tenant-weight",
        "needs TENANT=WEIGHT with WEIGHT >= 1",
        &["a", "a=x", "a=0"],
    ),
    ("--peer", "needs HOST:PORT", &["localhost"]),
    ("--advertise", "needs HOST:PORT", &["localhost"]),
    ("--peer-deadline-ms", "needs a positive number", &["x", "0"]),
    ("--anti-entropy-ms", "needs a positive number", &["x", "0"]),
];

/// Other argvs, and the message of their usage error.
const USAGE_ERRORS: &[(&[&str], &str)] = &[
    (&["--bogus"], "unknown option: --bogus"),
    (&["serve"], "unknown option: serve"),
    // A value is taken whole, even when it looks like a flag.
    (&["--workers", "--help"], "--workers needs a number"),
    // The first bad word decides, whatever follows it.
    (&["--workers", "2", "--queue"], "--queue needs a number"),
    (&["--bogus", "--help"], "unknown option: --bogus"),
];

#[test]
fn usage_errors_name_the_flag_and_exit_1() {
    let usage = usage();
    let check = |args: &[&str], message: &str| {
        let out = serve(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: {message}\n\n{usage}\n"),
            "{args:?}"
        );
    };
    for (flag, needs, malformed) in VALUE_FLAGS {
        let message = format!("{flag} {needs}");
        check(&[flag], &message);
        for value in *malformed {
            check(&[flag, value], &message);
        }
    }
    for (args, message) in USAGE_ERRORS {
        check(args, message);
    }
}
