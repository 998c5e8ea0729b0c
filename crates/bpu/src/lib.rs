//! # ucsim-bpu
//!
//! Branch prediction and decoupled fetch substrate: a TAGE conditional
//! predictor (Table I cites Seznec's TAGE), a two-level BTB with two
//! branches per entry, a return-address stack, and the **prediction window
//! (PW) generator** that turns the architecturally-correct instruction
//! stream into the PW stream a decoupled front end fetches from
//! (paper Section II-A).
//!
//! PW termination rules implemented exactly as described: a PW ends at the
//! 64-byte I-cache line end, at a predicted-taken branch, or after a
//! maximum number of predicted not-taken branches. Mispredicted branches
//! (direction, target, or BTB-miss redirects) also terminate the PW and
//! are flagged so the pipeline can charge resolution latency.
//!
//! # Example
//!
//! ```
//! use ucsim_bpu::{BpuConfig, SlicePwGen};
//! use ucsim_model::{Addr, DynInst, InstClass};
//!
//! let insts = vec![
//!     DynInst::simple(Addr::new(0x1000), 4, InstClass::IntAlu),
//!     DynInst::simple(Addr::new(0x1004), 4, InstClass::IntAlu),
//! ];
//! let mut gen = SlicePwGen::new(BpuConfig::default(), &insts);
//! let batch = gen.next_batch().expect("one window");
//! assert_eq!(batch.pw.start, Addr::new(0x1000));
//! assert_eq!(batch.insts(&insts).len(), 2);
//! assert!(gen.next_batch().is_none());
//! ```
//!
//! A window is one `Copy` [`PwBatch`]: the descriptor and its branch
//! events. Its instructions are `pw.inst_count` entries of the walked
//! stream from `pw.first_seq` on, which [`PwBatch::insts`] borrows out of
//! a slice (and [`SlicePwGen::insts`] out of the generator's
//! [`InstWindow`]), so a recorded window stream is a plain `Vec<PwBatch>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btb;
mod config;
mod pwgen;
mod ras;
mod tage;
mod window;

pub use btb::{BranchKind, Btb, BtbOutcome, BtbStats};
pub use config::BpuConfig;
pub use pwgen::{BpuStats, Mispredict, PwBatch, SlicePwGen};
pub use ras::ReturnAddressStack;
pub use tage::{Tage, TageConfig, TageStats};
pub use window::InstWindow;
