//! `rpav-core` — the measurement pipeline of *Analyzing Real-time Video
//! Delivery over Cellular Networks for Remote Piloting Aerial Vehicles*
//! (IMC '22), rebuilt as a deterministic simulation study.
//!
//! The crate wires the substrates together and extracts every metric the
//! paper reports:
//!
//! * [`scenario`] — experiment axes (environment × operator × mobility ×
//!   CC) with the paper's default parameters.
//! * [`pipeline`] — the one session driver: sender/receiver wiring over
//!   one leg or several ([`Simulation`]).
//! * [`metrics`] — per-run records and derived series (goodput, OWD, HET,
//!   FPS, playback latency, SSIM, stalls, HO-latency ratios).
//! * [`stats`] — quantiles, boxplot summaries, CDFs.
//! * [`exec`] — the parallel deterministic matrix engine
//!   ([`MatrixSpec`] → thread pool → cached, submission-ordered results),
//!   crash-safe: panic isolation with poison records and a durable
//!   checksummed result cache whose hits are kill/resume.
//! * [`codec`] — canonical byte encoding of [`RunMetrics`] (cache +
//!   determinism assertions) plus the CRC32 durable-store envelope.
//! * [`journal`] — a per-campaign fsync'd completion manifest. Nothing
//!   in the workspace writes one any more (the benchmark still times it).
//! * [`json`] — the total-function JSON parser and canonical serializer
//!   behind the daemon wire format.
//! * [`spec`] — [`CampaignSpec`], the versioned canonical external
//!   representation of a campaign (axes + base config + engine options).
//! * [`runner`] — campaign execution across repeated runs.
//! * [`ping`] — the cross-traffic-free RTT workload of Fig. 13.
//! * [`dataset`] — CSV export in the shape of the paper's released dataset.
//! * [`multipath`] — the paper's future-work direction: the policy that
//!   maps the flow onto several operators' legs (duplicate, failover,
//!   bonded) for a [`Simulation::multipath`] session.
//! * [`trace`] — Fig. 8-style time-series export (CSV).
//! * [`summary`] — the in-text headline statistics.
//!
//! # Quickstart
//!
//! ```
//! use rpav_core::prelude::*;
//!
//! let cfg = ExperimentConfig::builder()
//!     .environment(Environment::Rural)
//!     .cc(CcMode::Gcc)
//!     .seed(42)
//!     .hold_secs(1) // shorten for the doctest
//!     .build();
//! let metrics = Simulation::new(cfg).run();
//! assert!(metrics.goodput_bps() > 1e6);
//! assert!(metrics.per() < 0.05);
//! ```

pub mod cc;
pub mod codec;
pub mod dataset;
pub mod exec;
pub mod failover;
pub mod health;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod multipath;
pub mod paths;
pub mod ping;
pub mod pipeline;
pub mod runner;
pub mod scenario;
pub mod spec;
pub mod stats;
pub mod summary;
pub mod trace;

pub use exec::{CampaignEngine, EngineOptions, MatrixResult, MatrixSpec};
pub use metrics::RunMetrics;
pub use pipeline::Simulation;
pub use runner::CampaignResult;
pub use scenario::{CcMode, ExperimentConfig, Mobility};
pub use spec::{CampaignSpec, SpecError, MAX_CELLS, MAX_GROUND_SWEEPS, MAX_HOLD, SPEC_VERSION};

/// Convenient glob import for examples and benches: the experiment axes,
/// the matrix engine, the campaign spec, and the per-run metrics every
/// binary touches.
pub mod prelude {
    pub use crate::exec::{
        CampaignEngine, CcAxis, Cell, CellFault, CellOutcome, EngineOptions, EngineReport,
        MatrixResult, MatrixSpec, RunScheme, StreamSummary,
    };
    pub use crate::json::{Json, JsonError};
    pub use crate::metrics::RunMetrics;
    pub use crate::multipath::MultipathScheme;
    pub use crate::pipeline::Simulation;
    pub use crate::runner::CampaignResult;
    pub use crate::scenario::{
        CcMode, ExperimentConfig, ExperimentConfigBuilder, Mobility, MAX_LEGS,
    };
    pub use crate::spec::{
        CampaignSpec, SpecError, MAX_CELLS, MAX_GROUND_SWEEPS, MAX_HOLD, SPEC_VERSION,
    };
    pub use crate::stats;
    pub use crate::stats::LogHistogram;
    pub use crate::summary::CampaignAggregates;
    pub use rpav_lte::{Environment, Operator};
}
