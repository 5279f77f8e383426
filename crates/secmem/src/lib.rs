//! Secure-memory metadata substrate for the RMCC reproduction.
//!
//! Everything a counter-mode secure memory needs besides the raw crypto:
//!
//! * [`counters`] — the three counter organizations the paper evaluates:
//!   SGX monolithic, split SC-64, and Morphable, with overflow/relevel
//!   mechanics.
//! * [`layout`] — physical placement of counter blocks and integrity-tree
//!   nodes, plus the coverage arithmetic.
//! * [`tree`] — the full counter state (L0 + tree levels + on-chip root),
//!   lazily materialized, with the paper's randomized-counter
//!   initialization and the Observed-System-Max register.
//! * [`engine`] — a *functional* secure memory (real AES, real MACs, real
//!   tree verification) that demonstrates confidentiality and integrity end
//!   to end, including replay-attack detection.
//!
//! # Example
//!
//! ```
//! use rmcc_secmem::counters::CounterOrg;
//! use rmcc_secmem::engine::{PipelineKind, SecureMemory};
//!
//! let mut mem = SecureMemory::new(CounterOrg::Sc64, 1 << 24, PipelineKind::Rmcc, 7);
//! mem.write(0, [1u8; 64]).unwrap();
//! mem.tamper_data(0, 5, 0x80).unwrap();
//! assert!(mem.read(0).is_err()); // integrity violation detected
//! ```

#![forbid(unsafe_code)]
// Test code may use lossy casts freely; clippy.toml has no in-tests knob for them.
#![cfg_attr(test, allow(clippy::cast_possible_truncation))]
#![deny(missing_docs)]

pub mod arena;
pub mod counters;
pub mod engine;
pub mod layout;
pub mod service;
pub mod tree;

pub use counters::{CounterBlock, CounterOrg, Refusal, Saturated};
pub use engine::{
    CounterUpdatePolicy, DataSnapshot, IncrementPolicy, NodeSnapshot, PipelineKind, ReadError,
    RebuildReport, SecureMemory, TamperError, WriteError,
};
pub use layout::{LayoutError, MetadataLayout, BLOCK_BYTES};
pub use service::{
    digest_results, serial_reference, Access, AccessResult, HealthConfig, SecureMemoryService,
    ServiceConfig, ServiceSnapshot, ShardFaultCause, ShardHealth, ShardHealthStats,
};
pub use tree::{InitPolicy, MetadataState, RANDOM_INIT_MEAN};
