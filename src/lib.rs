//! # RMCC — Self-Reinforcing Memoization for Cryptography Calculations
//!
//! A full-system reproduction of *Wang, Talapkaliyev, Hicks, Jian —
//! "Self-Reinforcing Memoization for Cryptography Calculations in Secure
//! Memory Systems"* (MICRO 2022), built from scratch in Rust: the
//! cryptography, the counter organizations and integrity tree, the DDR4 and
//! cache models, the workloads, the RMCC mechanism itself, and a benchmark
//! harness that regenerates every figure of the paper's evaluation.
//!
//! This crate is a facade: it re-exports the whole stack under one name.
//!
//! | Module | Crate | What it provides |
//! |---|---|---|
//! | [`crypto`] | `rmcc-crypto` | AES-128/256, carry-less multiply, OTP pipelines, MACs, NIST STS |
//! | [`cache`] | `rmcc-cache` | set-associative caches, TLBs, L1/L2/LLC hierarchy |
//! | [`dram`] | `rmcc-dram` | DDR4 channel timing (Table I) |
//! | [`workloads`] | `rmcc-workloads` | instrumented GraphBig/canneal/omnetpp/mcf kernels |
//! | [`secmem`] | `rmcc-secmem` | SGX/SC-64/Morphable counters, integrity tree, functional secure memory |
//! | [`core`] | `rmcc-core` | the memoization table, budgets, candidate monitor, update policy |
//! | [`faults`] | `rmcc-faults` | seeded fault injection at every threat-model boundary + campaign driver |
//! | [`telemetry`] | `rmcc-telemetry` | deterministic metrics registry, epoch snapshots, JSONL export |
//! | [`sim`] | `rmcc-sim` | memory controller, core model, lifetime & detailed runners, experiments |
//!
//! ## Quickstart
//!
//! ```
//! use rmcc::secmem::counters::CounterOrg;
//! use rmcc::secmem::engine::{PipelineKind, SecureMemory};
//!
//! // A functional secure memory with RMCC's split-OTP pipeline.
//! let mut mem = SecureMemory::new(CounterOrg::Morphable128, 1 << 24, PipelineKind::Rmcc, 7);
//! mem.write(42, [0xc0u8; 64]).unwrap();
//! assert_eq!(mem.read(42).unwrap(), [0xc0u8; 64]);
//!
//! // Tampering is detected.
//! mem.tamper_data(42, 0, 0x01).unwrap();
//! assert!(mem.read(42).is_err());
//! ```
//!
//! ## Reproducing the paper
//!
//! Every table and figure has a harness in `rmcc-bench`
//! (`cargo run --release -p rmcc-bench --bin figures [tiny|small|full] [id …]`);
//! see `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use rmcc_cache as cache;
pub use rmcc_core as core;
pub use rmcc_crypto as crypto;
pub use rmcc_dram as dram;
pub use rmcc_faults as faults;
pub use rmcc_secmem as secmem;
pub use rmcc_sim as sim;
pub use rmcc_telemetry as telemetry;
pub use rmcc_workloads as workloads;
