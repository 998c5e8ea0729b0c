//! # ucsim-isa
//!
//! A synthetic, x86-calibrated CISC instruction model.
//!
//! The paper's experiments ran on traces of real x86 binaries. An open
//! reproduction cannot ship those, so this crate models the *properties of
//! x86 instructions that the uop cache actually cares about*:
//!
//! * variable byte length (1–15 bytes, x86-like distribution),
//! * decode into one or more fixed-length 56-bit uops,
//! * 32-bit immediate/displacement fields that must be co-located with
//!   their uops in a uop cache entry,
//! * micro-coded instructions that expand into longer MS-ROM sequences.
//!
//! [`StaticInst`] describes one static instruction; [`InstSynthesizer`]
//! materializes statistically realistic instructions from an [`InstMix`];
//! [`expand_uops`] performs the "decode" into [`ucsim_model::Uop`]s.
//!
//! # Example
//!
//! ```
//! use ucsim_isa::{InstMix, InstSynthesizer};
//! use ucsim_model::SplitMix64;
//!
//! let synth = InstSynthesizer::new(InstMix::integer_heavy());
//! let mut rng = SplitMix64::new(1);
//! let inst = synth.sample(&mut rng);
//! assert!(inst.len >= 1 && inst.len <= 15);
//! assert!(inst.uops >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;

mod decode;
mod lengths;
mod mix;
mod static_inst;
mod synth;

pub use asm::{assemble, AsmBlock, AsmError, AsmFunc, AsmProgram, AsmTerm, AsmTermKind};
pub use decode::{
    expand_uops, uop_kinds_for, uop_kinds_into, UopKindTable, UopTemplate, MAX_UOPS_PER_INST,
};
pub use lengths::typical_len;
pub use mix::InstMix;
pub use static_inst::StaticInst;
pub use synth::InstSynthesizer;
