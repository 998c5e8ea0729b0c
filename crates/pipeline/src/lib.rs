//! # ucsim-pipeline
//!
//! The cycle-level timing model tying all substrates together: decoupled
//! fetch driven by the PW generator, uop cache / decoder / loop cache uop
//! supply paths, uop queue with back-pressure, and a simplified
//! out-of-order back end (dispatch / ROB / issue / retire) with the
//! widths and latencies of the paper's Table I.
//!
//! The model is *structurally* faithful rather than RTL-exact: every
//! metric the paper reports is computed the way the paper defines it —
//! UPC, uop cache fetch ratio, average dispatched uops per cycle, average
//! branch misprediction latency (branch fetch → resolve), and an
//! activity-based decoder power proxy. All results are meant to be read
//! *relative to a baseline configuration*, exactly as the paper presents
//! them.
//!
//! # Example
//!
//! ```
//! use ucsim_pipeline::{SimConfig, Simulator};
//! use ucsim_trace::{Program, WorkloadProfile};
//!
//! let profile = WorkloadProfile::quick_test();
//! let program = Program::generate(&profile);
//! let cfg = SimConfig::table1().quick();
//! let report = Simulator::new(cfg).run(&profile, &program);
//! assert!(report.upc > 0.0);
//! assert!(report.oc_fetch_ratio >= 0.0 && report.oc_fetch_ratio <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod config;
mod loopcache;
mod metrics;
mod power;
mod pwtrace;
mod sim;
mod smt;
mod sweep;

pub use backend::{Backend, BackendConfig};
pub use config::{CoreConfig, SimConfig};
pub use loopcache::{LoopCache, LoopCacheStats};
pub use metrics::{SimReport, UopSource};
pub use power::{FrontEndEnergy, PowerConfig};
pub use pwtrace::PwTrace;
pub use sim::{Cancelled, Simulator};
pub use smt::SmtSimulator;
pub use sweep::{run_configs_on_trace, KneeBisector, LabeledConfig, SweepCellReport, SweepReport};
