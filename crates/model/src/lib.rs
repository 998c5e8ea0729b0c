//! # ucsim-model
//!
//! Shared vocabulary types for the `ucsim` x86 front-end simulator, a
//! from-scratch reproduction of *"Improving the Utilization of
//! Micro-operation Caches in x86 Processors"* (MICRO 2020).
//!
//! This crate sits at the bottom of the workspace dependency graph and
//! defines the types every other crate speaks:
//!
//! * [`Addr`] — physical byte addresses and I-cache line arithmetic.
//! * [`Uop`] / [`UopKind`] — fixed-length (56-bit) micro-operations.
//! * [`DynInst`] / [`InstClass`] — dynamic x86-like instructions as they
//!   appear in a trace.
//! * [`PredictionWindow`] — the decoupled front-end fetch unit produced by
//!   the branch predictor (paper Section II-A).
//! * [`EntryTermination`] / [`PwTermination`] — the termination rules that
//!   govern uop cache entry and PW construction (paper Section II-B2).
//! * [`SplitMix64`] — a tiny deterministic RNG used for reproducible
//!   workload synthesis and stable per-uop hashes.
//! * [`Histogram`] / [`RunningStat`] — bookkeeping used by every stats
//!   module in the workspace.
//! * [`SetSlots`] — set-major entry storage, backed set by set on first
//!   write, used by the BTB and the uop cache.
//! * [`CancelToken`] / [`FailureKind`] — cooperative cancellation and the
//!   stable failure vocabulary shared by the worker pool, the pipeline,
//!   and the serving layer.
//! * [`json`] — the workspace's dependency-free JSON wire format, with
//!   `#[derive(ToJson, FromJson)]` re-exported from `ucsim-derive`.
//!
//! # Example
//!
//! ```
//! use ucsim_model::{Addr, ICACHE_LINE_BYTES};
//!
//! let a = Addr::new(0x40_0123);
//! assert_eq!(a.line_offset(), 0x23);
//! assert_eq!(a.line().base().get(), 0x40_0100);
//! assert_eq!(ICACHE_LINE_BYTES, 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Derived `ToJson`/`FromJson` impls name this crate by its external path
// (`ucsim_model::json::...`); this alias makes those paths resolve when a
// derive expands inside the crate itself.
extern crate self as ucsim_model;

pub mod json;

mod addr;
mod cancel;
mod failure;
mod hist;
mod inst;
mod pw;
mod rng;
mod sets;
mod term;
mod uop;
mod workload;

pub use addr::{Addr, LineAddr, ICACHE_LINE_BYTES, ICACHE_LINE_SHIFT};
pub use cancel::CancelToken;
pub use failure::FailureKind;
pub use hist::{Histogram, RunningStat};
pub use inst::{BranchExec, DynInst, InstClass};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use pw::{PredictionWindow, PwId, PwTermination};
pub use rng::{mix64, unit_from_bits, SplitMix64, Zipf};
pub use sets::SetSlots;
pub use term::EntryTermination;
pub use ucsim_derive::{FromJson, ToJson};
pub use uop::{Uop, UopKind, IMM_DISP_BYTES, UOP_BYTES};
pub use workload::WorkloadRef;
