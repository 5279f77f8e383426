//! Full-system secure-memory simulator for the RMCC reproduction — the
//! stand-in for the paper's gem5 + Ramulator + Pin methodology.
//!
//! * [`config`] — Table I as a printable [`config::SystemConfig`].
//! * [`page_map`] — bijective virtual→physical page placement.
//! * [`meta_engine`] — the shared functional metadata engine: counter
//!   cache walks, counter updates (baseline or RMCC), overflows, dirty
//!   evictions, memoization lookups, and (when enabled) epoch-resolved
//!   telemetry snapshots.
//! * [`dynamics`] — the seeded hot/cold write-heavy stream that reproduces
//!   the Figure 6–8 self-reinforcement trajectory as a telemetry series.
//! * [`multicore`] — n cores with private L1/L2 sharing one LLC, counter
//!   cache, and DDR4 channel (§V's 4-thread GraphBig methodology).
//! * [`mc`] — the timing memory controller over the DDR4 channel.
//! * [`engine`] — the shared ROB/MLP core engine used by every timing
//!   mode, in front of the same private-cache filter the lifetime runner
//!   uses ([`rmcc_cache::hierarchy::PrivateCaches`]).
//! * [`core_model`] — one [`engine::CoreEngine`] packaged with its own
//!   LLC and memory controller.
//! * [`lifetime`] — the Pin-style whole-lifetime functional runner.
//! * [`detailed`] — the gem5-style timing runner.
//! * [`experiments`] — one harness per table/figure of the evaluation,
//!   fanning (workload, scheme) cells across a scoped-thread worker pool
//!   (`RMCC_JOBS` overrides the width).
//!
//! Each runner ([`LifetimeRunner`], [`CoreModel`], [`MultiCoreRunner`]) has
//! a `run` method that streams a [`rmcc_workloads::trace::TraceSource`] in
//! and returns its report, and all of them place pages with
//! [`PLACEMENT_SEED`].
//!
//! # Example
//!
//! ```
//! use rmcc_sim::config::{Scheme, SystemConfig};
//! use rmcc_sim::lifetime::run_lifetime;
//! use rmcc_workloads::workload::{Scale, Workload};
//!
//! let report = run_lifetime(
//!     Workload::Canneal,
//!     Scale::Tiny,
//!     None,
//!     &SystemConfig::lifetime(Scheme::Rmcc),
//! )
//! .expect("canneal needs no graph");
//! assert!(report.llc_misses > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod core_model;
pub mod detailed;
pub mod dynamics;
pub mod engine;
pub mod experiments;
pub mod lifetime;
pub mod mc;
pub mod meta_engine;
pub mod multicore;
pub mod page_map;
pub mod service_run;

pub use config::{Scheme, SystemConfig};
pub use core_model::{CoreModel, CoreStats};
pub use detailed::{run_detailed, DetailedReport};
pub use dynamics::{run_dynamics, DynamicsConfig, DynamicsResult};
pub use engine::CoreEngine;
pub use experiments::{
    serving_scenarios, table1, CellFailure, Experiments, Series, TelemetrySweep,
};
pub use lifetime::{run_lifetime, LifetimeReport, LifetimeRunner};
pub use mc::{LatencyStats, MemoryController};
pub use meta_engine::{
    ChainFetch, ChainFetches, MemoTally, MetaEngine, MetaStats, ReadOutcome, SideKind, SideRequest,
    WriteOutcome, MAX_CHAIN_LEVELS,
};
pub use multicore::{run_multicore, MultiCoreReport, MultiCoreRunner};
pub use page_map::{PageMap, PLACEMENT_SEED};
