//! # ucsim-trace
//!
//! Synthetic workload substrate: statistically calibrated stand-ins for the
//! SimNow full-system traces the paper evaluated (Table II), which are
//! proprietary and cannot be redistributed.
//!
//! A [`WorkloadProfile`] describes a workload's *shape*: static code
//! footprint, basic-block sizes, instruction mix, loop/call structure,
//! branch predictability (targeting the Table II branch-MPKI column), data
//! footprint and phase behaviour. [`Program::generate`] expands a profile
//! into a concrete synthetic binary — functions of basic blocks laid out
//! in a flat physical address space with x86-like variable-length
//! instructions — and [`TraceWalker`] executes it deterministically,
//! yielding the `DynInst` stream the simulator consumes.
//!
//! Everything is seeded: the same profile always produces the same program
//! and the same trace, so A/B comparisons between uop cache designs see
//! identical instruction streams.
//!
//! # Example
//!
//! ```
//! use ucsim_trace::{Program, WorkloadProfile};
//!
//! let profile = WorkloadProfile::quick_test();
//! let program = Program::generate(&profile);
//! let trace: Vec<_> = program.walk(&profile).take(1000).collect();
//! assert_eq!(trace.len(), 1000);
//! // Control flow is consistent: each inst follows the previous one.
//! for w in trace.windows(2) {
//!     assert_eq!(w[1].pc, w[0].next_pc());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
mod loader;
mod profile;
mod program;
mod share;
mod stats;
mod tracefile;
mod walker;

pub use loader::load_asm;
pub use profile::WorkloadProfile;
pub use program::{BasicBlock, Function, Program, TermInst, TermKind};
pub use share::{record_workload, SharedTrace, TraceKey, TraceStore};
pub use stats::TraceStats;
pub use tracefile::{Iter, Trace};
pub use walker::TraceWalker;
