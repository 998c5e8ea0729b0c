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
        let mut o = RunOpts::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => {
                    o.warmup = 50_000;
                    o.insts = 400_000;
                }
                "--insts" => {
                    i += 1;
                    o.insts = args[i].parse().expect("--insts takes a number");
                }
                "--warmup" => {
                    i += 1;
                    o.warmup = args[i].parse().expect("--warmup takes a number");
                }
                "--workloads" => {
                    i += 1;
                    o.workload_filter =
                        args[i].split(',').map(|s| s.trim().to_owned()).collect();
                }
                "--threads" => {
                    i += 1;
                    o.threads = args[i].parse().expect("--threads takes a number");
                }
                other => panic!(
                    "unknown option {other}; expected --quick | --insts N | --warmup N | --workloads a,b | --threads N"
                ),
            }
            i += 1;
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
