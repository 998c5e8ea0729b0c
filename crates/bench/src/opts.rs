//! Command-line options shared by all figure binaries.

/// Run-length and filtering options.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Warmup instructions per run.
    pub warmup: u64,
    /// Measured instructions per run.
    pub insts: u64,
    /// Restrict to workloads whose name contains one of these substrings
    /// (empty = all).
    pub workload_filter: Vec<String>,
    /// Parallel worker threads.
    pub threads: usize,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            warmup: 200_000,
            insts: 2_000_000,
            workload_filter: Vec::new(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

impl RunOpts {
    /// Parses `std::env::args()`: `--quick`, `--insts N`, `--warmup N`,
    /// `--workloads a,b,c`, `--threads N`.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on malformed arguments — these are
    /// developer-facing experiment binaries.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args)
    }

    /// Parses an explicit argument list. Binaries with extra flags strip
    /// them first and hand the remainder here.
    pub fn parse(args: &[String]) -> Self {
        fn number<T: std::str::FromStr>(v: Option<&String>, flag: &str) -> T {
            v.and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("{flag} takes a number"))
        }
        let mut o = RunOpts::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => {
                    o.warmup = 50_000;
                    o.insts = 400_000;
                }
                "--insts" => o.insts = number(args.next(), "--insts"),
                "--warmup" => o.warmup = number(args.next(), "--warmup"),
                "--workloads" => {
                    let list = args.next().expect("--workloads takes a,b,c");
                    o.workload_filter = list.split(',').map(|s| s.trim().to_owned()).collect();
                }
                "--threads" => o.threads = number(args.next(), "--threads"),
                other => panic!(
                    "unknown option {other}; expected --quick | --insts N | --warmup N | --workloads a,b | --threads N"
                ),
            }
        }
        o
    }

    /// True if the named workload passes the filter.
    pub fn selects(&self, name: &str) -> bool {
        self.workload_filter.is_empty()
            || self
                .workload_filter
                .iter()
                .any(|f| name.contains(f.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_selects_everything() {
        let o = RunOpts::default();
        assert!(o.selects("bm-cc"));
        assert!(o.selects("anything"));
    }

    fn parse(args: &[&str]) -> RunOpts {
        RunOpts::parse(&args.iter().map(|&a| a.to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn value_flags_parse() {
        let o = parse(&[
            "--insts",
            "7",
            "--warmup",
            "3",
            "--workloads",
            "a, b",
            "--threads",
            "2",
        ]);
        assert_eq!((o.insts, o.warmup, o.threads), (7, 3, 2));
        assert_eq!(o.workload_filter, ["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "--insts takes a number")]
    fn trailing_insts_names_the_flag() {
        parse(&["--insts"]);
    }

    #[test]
    #[should_panic(expected = "--warmup takes a number")]
    fn trailing_warmup_names_the_flag() {
        parse(&["--quick", "--warmup"]);
    }

    #[test]
    #[should_panic(expected = "--workloads takes a,b,c")]
    fn trailing_workloads_names_the_flag() {
        parse(&["--workloads"]);
    }

    #[test]
    #[should_panic(expected = "--threads takes a number")]
    fn trailing_threads_names_the_flag() {
        parse(&["--threads"]);
    }

    #[test]
    #[should_panic(expected = "--insts takes a number")]
    fn non_numeric_insts_names_the_flag() {
        parse(&["--insts", "many"]);
    }

    #[test]
    fn filter_matches_substring() {
        let o = RunOpts {
            workload_filter: vec!["sp(".into(), "redis".into()],
            ..Default::default()
        };
        assert!(o.selects("sp(log_regr)"));
        assert!(o.selects("redis"));
        assert!(!o.selects("bm-cc"));
    }
}
