//! # ucsim-uopcache
//!
//! The micro-operation cache — the primary contribution of *"Improving the
//! Utilization of Micro-operation Caches in x86 Processors"* (MICRO 2020),
//! reproduced in full:
//!
//! * **Baseline** (paper Section II-B): a set-associative, byte-addressed
//!   cache of *uop cache entries*. One entry per 64-byte physical line;
//!   entries terminate at I-cache line boundaries, predicted-taken
//!   branches, and per-entry uop / imm-disp / micro-code limits. Indexed
//!   by PW start physical address; per-line true-LRU replacement;
//!   self-modifying-code invalidation by I-cache line probe.
//! * **CLASP** (Section V-A): entries may span two sequential I-cache
//!   lines, eliminating the line-boundary termination for fall-through
//!   code.
//! * **Compaction** (Section V-B): up to 2–3 entries share a physical
//!   line when they fit, allocated by RAC (replacement-aware), PWAC
//!   (prediction-window-aware) or F-PWAC (forced PW-aware) policies.
//!
//! The crate is timing-free: it models *contents* and *events* (hits,
//! fills, evictions, invalidations) and exposes the utilization statistics
//! behind the paper's Figures 5, 6, 9, 12, 18 and 19. Timing lives in
//! `ucsim-pipeline`.
//!
//! # Example
//!
//! ```
//! use ucsim_uopcache::{UopCache, UopCacheConfig};
//! use ucsim_model::{Addr, DynInst, InstClass, PwId};
//! use ucsim_uopcache::AccumulationBuffer;
//!
//! // Build entries from a straight-line code run via the accumulation
//! // buffer, then fill and look them up.
//! let cfg = UopCacheConfig::baseline_2k();
//! let mut oc = UopCache::new(cfg.clone());
//! let mut acc = AccumulationBuffer::new(cfg);
//!
//! let mut completed = Vec::new();
//! for i in 0..16u64 {
//!     let inst = DynInst::simple(Addr::new(0x1000 + i * 4), 4, InstClass::IntAlu);
//!     completed.extend(acc.push(&inst, PwId(0), false));
//! }
//! completed.extend(acc.flush());
//! for e in completed {
//!     oc.fill(e);
//! }
//! assert!(oc.lookup(Addr::new(0x1000)).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod cache;
mod config;
mod entry;
mod stats;

pub use builder::{AccumulationBuffer, ClosedEntries};
pub use cache::{FillOutcome, UopCache};
pub use config::{CompactionPolicy, PlacementKind, UopCacheConfig};
pub use entry::UopCacheEntry;
pub use stats::UopCacheStats;
