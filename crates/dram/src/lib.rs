//! Cycle-level DDR4 DRAM timing model for the RMCC secure-memory
//! reproduction — the stand-in for the Ramulator back end the paper uses.
//!
//! * [`config`] — Table I timings and geometry as constants (tCL/tRCD/tRP =
//!   13.75 ns, tRFC = 350 ns, 500 ns open-row timeout, 256-entry queues) and
//!   the picosecond time base.
//! * [`mapping`] — Skylake-like XOR-based address → (rank, bank, row)
//!   mapping.
//! * [`channel`] — the transaction-level channel model: per-bank row-buffer
//!   state, refresh windows, bus serialization, queue backpressure,
//!   FR-FCFS-Capped hit streaks, and per-traffic-class bandwidth accounting
//!   (for the Figure 12 breakdown).
//!
//! # Example
//!
//! ```
//! use rmcc_dram::channel::{Channel, ReqKind, TrafficClass};
//!
//! let mut dram = Channel::new();
//! let done = dram.access(0, 0xabc0, ReqKind::Read, TrafficClass::Data);
//! assert!(done.done > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod channel;
pub mod config;
pub mod mapping;

pub use channel::{Channel, ClassStats, Completion, DramStats, ReqKind, RowOutcome, TrafficClass};
pub use config::{ns, Ps, PS_PER_NS};
pub use mapping::{AddressMapping, DramCoord};
