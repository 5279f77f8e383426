//! Cache substrate for the RMCC secure-memory reproduction.
//!
//! Three building blocks:
//!
//! * [`set_assoc`] — a tag-only set-associative cache with LRU replacement,
//!   dirty tracking, and explicit lookup/fill primitives; it backs every
//!   cache-like structure in the stack (data caches, the memory controller's
//!   counter cache, TLBs).
//! * [`tlb`] — a TLB model (4 KB / 2 MB pages) for reproducing the paper's
//!   Figure 4 TLB-miss ↔ counter-miss correlation.
//! * [`hierarchy`] — an L1/L2/LLC filter that turns a core's access stream
//!   into the LLC-miss/writeback stream the secure-memory machinery sees;
//!   its private half ([`hierarchy::PrivateCaches`]) also runs against an
//!   LLC that several cores share.
//!
//! # Example
//!
//! ```
//! use rmcc_cache::hierarchy::{Hierarchy, HierarchyConfig};
//!
//! let mut caches = Hierarchy::new(HierarchyConfig::pintool_lifetime());
//! let miss = caches.access_bytes(0xdead_000, false);
//! assert!(miss.is_llc_miss());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod hierarchy;
pub mod set_assoc;
pub mod tlb;

pub use hierarchy::{
    Hierarchy, HierarchyConfig, HierarchyOutcome, Level, LevelConfig, PrivateCaches,
};
pub use set_assoc::{AccessOutcome, CacheStats, Eviction, SetAssocCache, LINE_BYTES};
pub use tlb::{PageSize, Tlb};
