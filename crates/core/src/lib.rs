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
//! * [`matrix`] — what a campaign is: [`MatrixSpec`], a cross-product of
//!   scenario axes, expanded into independent, keyed cells.
//! * [`spec`] — how a campaign is written down: [`CampaignSpec`], the
//!   versioned canonical JSON document (axes + base config), beside the
//!   byte encoding behind every cell's cache key.
//! * [`cache`] — where results live: sealed per-cell records, quarantine,
//!   and the one atomic durable write.
//! * [`exec`] — how cells run: the parallel deterministic engine (thread
//!   pool → cached, submission-ordered results), crash-safe with panic
//!   isolation and poison records.
//! * [`codec`] — canonical byte encoding of [`RunMetrics`] (cache +
//!   determinism assertions) plus the CRC32 durable-store envelope.
//! * [`journal`] — a per-campaign fsync'd completion manifest. Nothing
//!   in the workspace writes one any more (the benchmark still times it).
//! * [`json`] — the total-function JSON parser and canonical serializer
//!   behind the daemon wire format.
//! * [`runner`] — campaign execution across repeated runs.
//! * [`ping`] — the cross-traffic-free RTT workload of Fig. 13.
//! * [`dataset`] — CSV export in the shape of the paper's released dataset.
//! * [`rrc`] — the RRC capture: each handover as its message pair.
//! * [`multipath`] — the paper's future-work direction: the policy that
//!   maps the flow onto several operators' legs (duplicate, failover,
//!   bonded) for a [`Simulation::multipath`] session.
//! * [`trace`] — Fig. 8-style time-series export (CSV).
//! * [`summary`] — the in-text headline statistics and the streaming
//!   campaign aggregates.
//! * [`table`] — tables as column lists: one CSV and one aligned-text
//!   renderer for every table the crate and the suites print.
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

pub mod cache;
pub mod cc;
pub mod codec;
pub mod dataset;
pub mod exec;
pub mod failover;
pub mod health;
pub mod journal;
pub mod json;
pub mod matrix;
pub mod metrics;
pub mod multipath;
pub mod paths;
pub mod ping;
pub mod pipeline;
pub mod rrc;
pub mod runner;
pub mod scenario;
pub mod spec;
pub mod stats;
pub mod summary;
pub mod table;
pub mod trace;

pub use exec::{CampaignEngine, EngineOptions, MatrixResult};
pub use matrix::MatrixSpec;
pub use metrics::RunMetrics;
pub use pipeline::Simulation;
pub use runner::CampaignResult;
pub use scenario::{CcMode, ExperimentConfig, Mobility};
pub use spec::{
    CampaignSpec, SpecError, MAX_CELLS, MAX_GROUND_SWEEPS, MAX_HOLD, MAX_STATIC_BITRATE_BPS,
    SPEC_VERSION,
};

/// Convenient glob import for examples and benches: the experiment axes,
/// the matrix engine, the campaign spec, and the per-run metrics every
/// binary touches.
pub mod prelude {
    pub use crate::exec::{
        CampaignEngine, CellOutcome, EngineOptions, EngineReport, MatrixResult, StreamSummary,
    };
    pub use crate::json::{Json, JsonError};
    pub use crate::matrix::{CcAxis, Cell, CellFault, MatrixSpec, RunScheme};
    pub use crate::metrics::RunMetrics;
    pub use crate::multipath::MultipathScheme;
    pub use crate::pipeline::Simulation;
    pub use crate::runner::CampaignResult;
    pub use crate::scenario::{
        CcMode, ExperimentConfig, ExperimentConfigBuilder, Mobility, MAX_LEGS,
    };
    pub use crate::spec::{
        CampaignSpec, SpecError, MAX_CELLS, MAX_GROUND_SWEEPS, MAX_HOLD, MAX_STATIC_BITRATE_BPS,
        SPEC_VERSION,
    };
    pub use crate::stats;
    pub use crate::stats::LogHistogram;
    pub use crate::summary::CampaignAggregates;
    pub use rpav_lte::{Environment, Operator};
}
