//! The parallel deterministic campaign engine.
//!
//! The paper aggregates ≈130 runs over ≈90 flights (urban/rural × two
//! operators × three CCs × air/ground); reproducing that cross-product
//! used to mean five hand-rolled nested loops, all strictly sequential.
//! Every seeded run is independent, so this module factors the loops into
//! one engine:
//!
//! * [`MatrixSpec`] — a declarative cross-product of scenario axes
//!   (environment × operator × mobility × CC × scheme × fault script ×
//!   repair × run index) that [expands](MatrixSpec::expand) into
//!   independent [`Cell`]s in a fixed, documented order.
//! * [`CampaignEngine`] — a bounded `std::thread` pool (no external deps)
//!   pulling cells off an atomic work queue, each worker folding its own
//!   results into its share of the order-free [`CampaignAggregates`] and
//!   handing them over a rendezvous `mpsc` channel into
//!   **submission-ordered** delivery.
//! * One opt-in result cache: a sealed on-disk record per cell under
//!   `target/rpav-cache`, keyed by a [stable hash](Cell::key) of the
//!   fully-expanded configuration (salted by the crate version, so a
//!   rebuilt crate never replays stale metrics). The engine itself holds
//!   no state between runs — the records are all there is.
//!
//! # Determinism contract
//!
//! A cell's result is a pure function of its expanded configuration:
//! every simulation draws from `RngSet::new(config.seed)` streams keyed
//! by purpose and run index, never from wall-clock, thread identity, or
//! global state. Workers race only for *which* cell to run next; the
//! result lands in `results[cell.index]` regardless of completion order.
//! Therefore `jobs = N` is bit-identical to `jobs = 1` — asserted over
//! the canonical [`RunMetrics::to_bytes`] encoding by the engine tests —
//! and cached results are byte-equal to fresh ones.
//!
//! # Crash safety
//!
//! Cells execute inside `catch_unwind` with bounded retry; a cell that
//! keeps panicking becomes a typed [`CellOutcome::Failed`] poison record
//! and the rest of the matrix completes. With the disk cache enabled,
//! results are written atomically ([`write_atomic`]) inside a CRC32
//! envelope, and a `kill -9` mid-campaign costs only the unfinished
//! cells: re-running the identical spec hits every record that made it
//! to disk and resumes bit-identically. See [`CampaignEngine`] for the
//! full contract.
//!
//! # Environment knobs
//!
//! Parsed in one place, [`EngineOptions::from_env`]; nothing else in this
//! module reads the environment.
//!
//! * `RPAV_JOBS` — worker count override (default: available
//!   parallelism; a set-but-invalid value warns and uses the default).
//! * `RPAV_CACHE` — set to enable the durable on-disk cache (`1` → the
//!   default `target/rpav-cache`, any other value → that directory).
//!   The directory holds sealed `<xx>/<key>.rpav` records and a
//!   `quarantine/` subdirectory of corrupt files that were demoted to
//!   misses.
//! * `RPAV_REFERENCE_TICK` — any value but `0` runs engine cells on the
//!   1 ms reference scheduler instead of the adaptive one.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use rpav_lte::{Environment, Operator};
use rpav_netem::{FaultClause, FaultScript, PacketKind};

use crate::codec::{fnv1a, ByteWriter};
use crate::metrics::RunMetrics;
use crate::multipath::MultipathScheme;
use crate::pipeline::Simulation;
use crate::runner::CampaignResult;
use crate::scenario::{CcMode, ExperimentConfig, Mobility};
use crate::summary::CampaignAggregates;

/// How a cell's media flow is mapped onto the radio link(s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunScheme {
    /// The single-operator sender/receiver pipeline ([`Simulation`]).
    Pipeline,
    /// The two-modem multipath experiment under the given scheme.
    Multipath(MultipathScheme),
}

impl RunScheme {
    /// Display name ("pipeline", or the multipath scheme's name).
    pub fn name(&self) -> &'static str {
        match self {
            RunScheme::Pipeline => "pipeline",
            RunScheme::Multipath(s) => s.name(),
        }
    }

    /// The scheme's byte in the cache key. 1–5 were the multipath schemes
    /// under the second session driver; their results changed when the
    /// drivers were unified, so a durable cache written back then must
    /// miss — the numbers are retired, not reused.
    fn tag(&self) -> u8 {
        match self {
            RunScheme::Pipeline => 0,
            RunScheme::Multipath(MultipathScheme::SinglePath) => 6,
            RunScheme::Multipath(MultipathScheme::Duplicate) => 7,
            RunScheme::Multipath(MultipathScheme::Failover) => 8,
            RunScheme::Multipath(MultipathScheme::SelectiveDuplicate) => 9,
            RunScheme::Multipath(MultipathScheme::Bonded) => 10,
        }
    }
}

/// A named fault campaign applied to one cell.
///
/// For [`RunScheme::Pipeline`], `uplink`/`downlink` script the two
/// directions of the single operator's link. For
/// [`RunScheme::Multipath`], `uplink` scripts leg 0, `secondary` leg 1,
/// and `extra` any further legs (each script hits both directions of
/// its leg, matching [`Simulation::multipath`]); `downlink` is unused.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellFault {
    /// Short name, part of the cell label (empty = no fault).
    pub name: String,
    /// Pipeline uplink / multipath primary-leg script.
    pub uplink: Option<FaultScript>,
    /// Pipeline downlink script.
    pub downlink: Option<FaultScript>,
    /// Multipath standby-leg script.
    pub secondary: Option<FaultScript>,
    /// Multipath scripts for legs 2+ (entry `i` hits leg `i + 2`); rigs
    /// beyond two modems only. Scripts past `ExperimentConfig::n_legs`
    /// are ignored by the driver.
    pub extra: Vec<Option<FaultScript>>,
}

impl CellFault {
    /// The unimpaired cell.
    pub fn none() -> Self {
        CellFault::default()
    }

    /// One script on both directions of the (single) link — the
    /// `with_link_script` idiom of the chaos campaigns.
    pub fn link(name: impl Into<String>, script: FaultScript) -> Self {
        CellFault {
            name: name.into(),
            uplink: Some(script.clone()),
            downlink: Some(script),
            secondary: None,
            extra: Vec::new(),
        }
    }

    /// Script on the uplink (media direction) only.
    pub fn uplink(name: impl Into<String>, script: FaultScript) -> Self {
        CellFault {
            name: name.into(),
            uplink: Some(script),
            downlink: None,
            secondary: None,
            extra: Vec::new(),
        }
    }

    /// Script on the downlink (feedback direction) only.
    pub fn downlink(name: impl Into<String>, script: FaultScript) -> Self {
        CellFault {
            name: name.into(),
            uplink: None,
            downlink: Some(script),
            secondary: None,
            extra: Vec::new(),
        }
    }

    /// Multipath faults: `primary` hits the primary leg, `secondary` the
    /// standby leg.
    pub fn legs(
        name: impl Into<String>,
        primary: Option<FaultScript>,
        secondary: Option<FaultScript>,
    ) -> Self {
        CellFault {
            name: name.into(),
            uplink: primary,
            downlink: None,
            secondary,
            extra: Vec::new(),
        }
    }

    /// Multipath faults for an N-leg rig: entry `i` of `scripts` hits
    /// leg `i` (missing / `None` entries leave that leg unscripted).
    /// Correlated cross-leg failures are several entries with
    /// overlapping windows.
    pub fn per_leg(name: impl Into<String>, mut scripts: Vec<Option<FaultScript>>) -> Self {
        let uplink = if scripts.is_empty() {
            None
        } else {
            scripts.remove(0)
        };
        let secondary = if scripts.is_empty() {
            None
        } else {
            scripts.remove(0)
        };
        CellFault {
            name: name.into(),
            uplink,
            downlink: None,
            secondary,
            extra: scripts,
        }
    }

    /// The per-leg script vector the multipath driver consumes: leg 0 =
    /// `uplink`, leg 1 = `secondary`, legs 2+ = `extra`.
    pub fn leg_scripts(&self) -> Vec<Option<FaultScript>> {
        let mut v = Vec::with_capacity(2 + self.extra.len());
        v.push(self.uplink.clone());
        v.push(self.secondary.clone());
        v.extend(self.extra.iter().cloned());
        v
    }

    /// Whether the fault is a no-op.
    pub fn is_none(&self) -> bool {
        self.uplink.is_none()
            && self.downlink.is_none()
            && self.secondary.is_none()
            && self.extra.iter().all(Option::is_none)
    }
}

/// The congestion-control axis of a matrix.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum CcAxis {
    /// Keep the base configuration's CC (a single-cc matrix).
    #[default]
    Base,
    /// Sweep an explicit list.
    List(Vec<CcMode>),
    /// Sweep the paper's three §3.2 workloads, with the Static bitrate
    /// following each cell's *environment* (25 Mbps urban / 8 Mbps
    /// rural) — what every figure binary wants.
    PaperWorkloads,
}

/// A declarative cross-product of scenario axes.
///
/// Empty axes fall back to the base configuration's value, so
/// `MatrixSpec::new(base).runs(5)` is five runs of one configuration.
/// Expansion order is part of the API:
/// environment → operator → mobility → CC → scheme → fault → repair →
/// run index, with the run index innermost (seed-matched cells stay
/// adjacent).
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixSpec {
    pub(crate) base: ExperimentConfig,
    pub(crate) environments: Vec<Environment>,
    pub(crate) operators: Vec<Operator>,
    pub(crate) mobilities: Vec<Mobility>,
    pub(crate) ccs: CcAxis,
    pub(crate) schemes: Vec<RunScheme>,
    pub(crate) faults: Vec<CellFault>,
    pub(crate) repairs: Vec<bool>,
    pub(crate) runs: u64,
}

impl MatrixSpec {
    /// A single-cell matrix of `base`; add axes with the builder methods.
    pub fn new(base: ExperimentConfig) -> Self {
        MatrixSpec {
            base,
            environments: Vec::new(),
            operators: Vec::new(),
            mobilities: Vec::new(),
            ccs: CcAxis::Base,
            schemes: Vec::new(),
            faults: Vec::new(),
            repairs: Vec::new(),
            runs: 1,
        }
    }

    /// Sweep flight environments.
    pub fn environments(mut self, envs: impl IntoIterator<Item = Environment>) -> Self {
        self.environments = envs.into_iter().collect();
        self
    }

    /// Sweep cellular operators.
    pub fn operators(mut self, ops: impl IntoIterator<Item = Operator>) -> Self {
        self.operators = ops.into_iter().collect();
        self
    }

    /// Sweep mobilities. Unless the base overrides `hold` away from its
    /// own mobility's paper default, each cell's hold follows *its*
    /// mobility's paper default (5 s air hover, 45 s ground sweep).
    pub fn mobilities(mut self, mobilities: impl IntoIterator<Item = Mobility>) -> Self {
        self.mobilities = mobilities.into_iter().collect();
        self
    }

    /// Sweep an explicit CC list.
    pub fn ccs(mut self, ccs: impl IntoIterator<Item = CcMode>) -> Self {
        self.ccs = CcAxis::List(ccs.into_iter().collect());
        self
    }

    /// Sweep the paper's three workloads (Static at the per-environment
    /// bitrate, SCReAM, GCC).
    pub fn paper_workloads(mut self) -> Self {
        self.ccs = CcAxis::PaperWorkloads;
        self
    }

    /// Sweep multipath schemes (each becomes [`RunScheme::Multipath`]).
    pub fn multipath_schemes(mut self, schemes: impl IntoIterator<Item = MultipathScheme>) -> Self {
        self.schemes = schemes.into_iter().map(RunScheme::Multipath).collect();
        self
    }

    /// Sweep run schemes explicitly (mix pipeline and multipath cells).
    pub fn schemes(mut self, schemes: impl IntoIterator<Item = RunScheme>) -> Self {
        self.schemes = schemes.into_iter().collect();
        self
    }

    /// Sweep named fault campaigns.
    pub fn faults(mut self, faults: impl IntoIterator<Item = CellFault>) -> Self {
        self.faults = faults.into_iter().collect();
        self
    }

    /// Sweep the NACK/RTX repair switch (e.g. `[false, true]` for the
    /// off/on comparison of the repair matrix).
    pub fn repairs(mut self, repairs: impl IntoIterator<Item = bool>) -> Self {
        self.repairs = repairs.into_iter().collect();
        self
    }

    /// Number of seed-decorrelated runs per cell (run indices
    /// `base.run_index .. base.run_index + runs`).
    pub fn runs(mut self, runs: u64) -> Self {
        self.runs = runs;
        self
    }

    /// The CC list a given environment sweeps.
    fn ccs_for(&self, environment: Environment) -> Vec<CcMode> {
        match &self.ccs {
            CcAxis::Base => vec![self.base.cc],
            CcAxis::List(list) => list.clone(),
            CcAxis::PaperWorkloads => vec![
                CcMode::paper_static(environment),
                CcMode::paper_scream(),
                CcMode::Gcc,
            ],
        }
    }

    /// The number of cells [`expand`](Self::expand) would produce, without
    /// allocating them: the checked product of every axis length. `None`
    /// means the cross-product overflows `u64` — callers gating on a cap
    /// must treat that as "too many".
    pub fn cell_count(&self) -> Option<u64> {
        let axis = |len: usize| if len == 0 { 1u64 } else { len as u64 };
        let ccs = match &self.ccs {
            CcAxis::Base => 1u64,
            // `ccs_for` returns the list verbatim, so an empty list really
            // does expand to zero cells.
            CcAxis::List(list) => list.len() as u64,
            CcAxis::PaperWorkloads => 3u64,
        };
        axis(self.environments.len())
            .checked_mul(axis(self.operators.len()))?
            .checked_mul(axis(self.mobilities.len()))?
            .checked_mul(ccs)?
            .checked_mul(axis(self.schemes.len()))?
            .checked_mul(axis(self.faults.len()))?
            .checked_mul(axis(self.repairs.len()))?
            .checked_mul(self.runs)
    }

    /// Expand the cross-product into independent cells, in the documented
    /// axis order (run index innermost).
    pub fn expand(&self) -> Vec<Cell> {
        let environments = or_base(&self.environments, self.base.environment);
        let operators = or_base(&self.operators, self.base.operator);
        let mobilities = or_base(&self.mobilities, self.base.mobility);
        let schemes = or_base(&self.schemes, RunScheme::Pipeline);
        let faults = if self.faults.is_empty() {
            vec![CellFault::none()]
        } else {
            self.faults.clone()
        };
        let repairs = or_base(&self.repairs, self.base.repair);
        // The base hold follows the mobility axis unless it was an
        // explicit override (≠ the base mobility's paper default).
        let hold_is_paper = self.base.hold == ExperimentConfig::paper_hold(self.base.mobility);

        let mut cells = Vec::new();
        for &environment in &environments {
            for &operator in &operators {
                for &mobility in &mobilities {
                    for cc in self.ccs_for(environment) {
                        for &scheme in &schemes {
                            for fault in &faults {
                                for &repair in &repairs {
                                    for r in 0..self.runs {
                                        let mut config = self.base;
                                        config.environment = environment;
                                        config.operator = operator;
                                        config.mobility = mobility;
                                        config.cc = cc;
                                        config.repair = repair;
                                        config.run_index = self.base.run_index + r;
                                        if hold_is_paper {
                                            config.hold = ExperimentConfig::paper_hold(mobility);
                                        }
                                        cells.push(Cell {
                                            index: cells.len(),
                                            config,
                                            scheme,
                                            fault: fault.clone(),
                                            key_cache: OnceLock::new(),
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

fn or_base<T: Clone>(axis: &[T], base: T) -> Vec<T> {
    if axis.is_empty() {
        vec![base]
    } else {
        axis.to_vec()
    }
}

/// One fully-expanded experiment: a configuration plus the scheme and
/// fault campaign it runs under.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Position in the expansion (results are collected in this order).
    pub index: usize,
    /// The expanded configuration.
    pub config: ExperimentConfig,
    /// Pipeline or multipath execution.
    pub scheme: RunScheme,
    /// The fault campaign.
    pub fault: CellFault,
    /// Memoised [`Cell::key`]: the canonical encoding is walked at most
    /// once per cell, however many callers consult the key.
    key_cache: OnceLock<u64>,
}

impl Cell {
    /// The campaign-level label: [`ExperimentConfig::label`] plus scheme
    /// and fault discriminants — everything but the run index.
    pub fn campaign_label(&self) -> String {
        let mut label = self.config.label();
        if let RunScheme::Multipath(s) = self.scheme {
            label.push('@');
            label.push_str(s.name());
        }
        if !self.fault.is_none() {
            label.push('!');
            label.push_str(if self.fault.name.is_empty() {
                "fault"
            } else {
                &self.fault.name
            });
        }
        label
    }

    /// The full cell label: campaign label plus `#r<run>`. Unique across
    /// any single matrix expansion (asserted by the engine tests).
    pub fn label(&self) -> String {
        format!("{}#r{}", self.campaign_label(), self.config.run_index)
    }

    /// The stable cache key: an FNV-1a hash over a canonical byte
    /// encoding of every field that influences the simulation, salted
    /// with the crate version so a rebuilt crate invalidates all cached
    /// results. Stable across processes (unlike `DefaultHasher`).
    /// Memoised: the encoding pass runs at most once per cell.
    pub fn key(&self) -> u64 {
        *self.key_cache.get_or_init(|| self.compute_key())
    }

    fn compute_key(&self) -> u64 {
        let mut w = ByteWriter::new();
        w.bytes(env!("CARGO_PKG_VERSION").as_bytes());
        w.u32(crate::codec::FORMAT_VERSION);
        let c = &self.config;
        w.u8(match c.environment {
            Environment::Urban => 0,
            Environment::Rural => 1,
        });
        w.u8(match c.operator {
            Operator::P1 => 0,
            Operator::P2 => 1,
        });
        w.u8(match c.mobility {
            Mobility::Air => 0,
            Mobility::Ground => 1,
        });
        match c.cc {
            CcMode::Static { bitrate_bps } => {
                w.u8(0);
                w.f64(bitrate_bps);
            }
            CcMode::Gcc => w.u8(1),
            CcMode::Scream { ack_span } => {
                w.u8(2);
                w.u64(ack_span as u64);
            }
        }
        w.u64(c.seed);
        w.u64(c.run_index);
        w.duration(c.hold);
        w.u64(c.ground_sweeps as u64);
        w.bool(c.drop_on_latency);
        w.opt(c.hysteresis_override_db, |w, v| w.f64(v));
        w.opt(c.ttt_override_ms, |w, v| w.u64(v));
        w.opt(c.jitter_target_override_ms, |w, v| w.u64(v));
        w.bool(c.watchdog.enabled);
        w.duration(c.watchdog.timeout);
        w.duration(c.watchdog.backoff_interval);
        w.f64(c.watchdog.backoff_factor);
        w.f64(c.watchdog.floor_bps);
        w.f64(c.watchdog.ramp_factor);
        w.bool(c.repair);
        w.opt(c.leg_cap_bps, |w, (a, b)| {
            w.f64(a);
            w.f64(b);
        });
        w.f64(c.fec_cap);
        w.u64(c.n_legs as u64);
        w.bool(c.coupled_cc);
        w.u8(self.scheme.tag());
        for script in [
            &self.fault.uplink,
            &self.fault.downlink,
            &self.fault.secondary,
        ] {
            w.opt(script.as_ref(), write_script);
        }
        w.u64(self.fault.extra.len() as u64);
        for script in &self.fault.extra {
            w.opt(script.as_ref(), write_script);
        }
        fnv1a(&w.into_bytes())
    }

    /// Execute the cell directly (no engine, no cache) — also the
    /// reference the replay spot-checks compare engine output against.
    /// `reference_tick = true` runs the unconditional 1 ms oracle loop,
    /// `false` the adaptive deadline scheduler (byte-identical by the
    /// perf-equivalence tests).
    pub fn execute_with(&self, reference_tick: bool) -> RunMetrics {
        let sim = match self.scheme {
            RunScheme::Pipeline => {
                let mut sim = Simulation::new(self.config);
                if let Some(s) = &self.fault.uplink {
                    sim = sim.with_uplink_script(s.clone());
                }
                if let Some(s) = &self.fault.downlink {
                    sim = sim.with_downlink_script(s.clone());
                }
                sim
            }
            RunScheme::Multipath(scheme) => {
                Simulation::multipath(self.config, scheme, self.fault.leg_scripts())
            }
        };
        if reference_tick {
            sim.run_reference()
        } else {
            sim.run()
        }
    }
}

fn write_script(w: &mut ByteWriter, script: &FaultScript) {
    w.u64(script.clauses().len() as u64);
    for clause in script.clauses() {
        match clause {
            FaultClause::Blackout { from, until } => {
                w.u8(0);
                w.time(*from);
                w.time(*until);
            }
            FaultClause::KindBlackout { from, until, kind } => {
                w.u8(1);
                w.time(*from);
                w.time(*until);
                w.u8(kind_tag(*kind));
            }
            FaultClause::Loss {
                from,
                until,
                prob,
                kind,
            } => {
                w.u8(2);
                w.time(*from);
                w.time(*until);
                w.f64(*prob);
                w.opt(*kind, |w, k| w.u8(kind_tag(k)));
            }
            FaultClause::DelaySpike { from, until, extra } => {
                w.u8(3);
                w.time(*from);
                w.time(*until);
                w.duration(*extra);
            }
            FaultClause::Duplicate {
                from,
                until,
                prob,
                kind,
            } => {
                w.u8(4);
                w.time(*from);
                w.time(*until);
                w.f64(*prob);
                w.opt(*kind, |w, k| w.u8(kind_tag(k)));
            }
            FaultClause::Corrupt {
                from,
                until,
                prob,
                kind,
            } => {
                w.u8(5);
                w.time(*from);
                w.time(*until);
                w.f64(*prob);
                w.opt(*kind, |w, k| w.u8(kind_tag(k)));
            }
            FaultClause::Reorder {
                from,
                until,
                prob,
                max_displacement,
            } => {
                w.u8(6);
                w.time(*from);
                w.time(*until);
                w.f64(*prob);
                w.u64(*max_displacement);
            }
            FaultClause::CoverageHole {
                x,
                y,
                radius_m,
                min_alt_m,
            } => {
                w.u8(7);
                w.f64(*x);
                w.f64(*y);
                w.f64(*radius_m);
                w.f64(*min_alt_m);
            }
            FaultClause::BurstLoss {
                from,
                until,
                p_enter,
                p_exit,
                loss_bad,
                kind,
            } => {
                w.u8(8);
                w.time(*from);
                w.time(*until);
                w.f64(*p_enter);
                w.f64(*p_exit);
                w.f64(*loss_bad);
                w.opt(*kind, |w, k| w.u8(kind_tag(k)));
            }
        }
    }
}

fn kind_tag(kind: PacketKind) -> u8 {
    match kind {
        PacketKind::Media => 0,
        PacketKind::Feedback => 1,
        PacketKind::Probe => 2,
    }
}

/// One executed cell: either its metrics, or a poison record describing
/// why it kept panicking. A poisoned cell never aborts the matrix — the
/// failure is typed data the caller inspects.
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The cell completed (simulated or cache-served).
    Done {
        /// The cell as expanded.
        cell: Cell,
        /// Its metrics, shared so an outcome clones without deep-copying
        /// the per-frame records.
        metrics: Arc<RunMetrics>,
        /// Whether the result was served from cache (no simulation ran).
        cached: bool,
        /// Execution attempts consumed (0 for a cache hit, ≥ 2 when a
        /// retry recovered a transient panic).
        attempts: u32,
    },
    /// Every attempt panicked; the cell is poisoned.
    Failed {
        /// The cell as expanded.
        cell: Cell,
        /// The final attempt's panic payload, rendered.
        panic_msg: String,
        /// Attempts consumed (== the engine's `max_attempts`).
        attempts: u32,
    },
}

impl CellOutcome {
    /// The cell this outcome belongs to.
    pub fn cell(&self) -> &Cell {
        match self {
            CellOutcome::Done { cell, .. } | CellOutcome::Failed { cell, .. } => cell,
        }
    }

    /// The metrics of a completed cell.
    ///
    /// # Panics
    /// On a poisoned cell, with its recorded panic message — callers that
    /// tolerate failures use [`try_metrics`](Self::try_metrics).
    pub fn metrics(&self) -> &Arc<RunMetrics> {
        match self {
            CellOutcome::Done { metrics, .. } => metrics,
            CellOutcome::Failed {
                cell, panic_msg, ..
            } => panic!("cell {} was poisoned: {panic_msg}", cell.label()),
        }
    }

    /// The metrics, or `None` for a poisoned cell.
    pub fn try_metrics(&self) -> Option<&Arc<RunMetrics>> {
        match self {
            CellOutcome::Done { metrics, .. } => Some(metrics),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// Whether the result was served from cache (`false` for failures).
    pub fn cached(&self) -> bool {
        matches!(self, CellOutcome::Done { cached: true, .. })
    }

    /// Execution attempts consumed.
    pub fn attempts(&self) -> u32 {
        match self {
            CellOutcome::Done { attempts, .. } | CellOutcome::Failed { attempts, .. } => *attempts,
        }
    }

    /// Whether the cell was poisoned.
    pub fn is_failed(&self) -> bool {
        matches!(self, CellOutcome::Failed { .. })
    }

    /// The poison message, if poisoned.
    pub fn panic_msg(&self) -> Option<&str> {
        match self {
            CellOutcome::Failed { panic_msg, .. } => Some(panic_msg),
            CellOutcome::Done { .. } => None,
        }
    }
}

/// Wall-clock, throughput, and resilience accounting for one engine
/// invocation, plus the streaming [`CampaignAggregates`] every completed
/// cell was folded into — by the worker that ran it, the workers' partials
/// merged at the end. Aggregates are order-free, so their bytes are
/// deterministic across job counts and kill/resume boundaries.
#[derive(Clone, Debug, Default)]
pub struct EngineReport {
    /// Cells in the matrix.
    pub cells: usize,
    /// Cells actually simulated.
    pub simulated: usize,
    /// Cells served from the durable cache — after a kill, the cells the
    /// previous process had already completed.
    pub cached: usize,
    /// Cells poisoned after exhausting their retry budget.
    pub failed: usize,
    /// Execution attempts repeated after a panic.
    pub retries: usize,
    /// Corrupt/stale cache files quarantined during this invocation.
    pub quarantined: usize,
    /// Simulated cells whose cache record could not be written (full
    /// disk, unwritable cache directory). Their results were delivered;
    /// the next run simulates them again.
    pub store_failed: usize,
    /// Cells that ran past the stuck budget, flagged by the collector's
    /// in-flight scan (still counted once even if they eventually
    /// completed).
    pub stuck_flagged: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock time of the whole matrix.
    pub wall: Duration,
    /// Streaming aggregates over every completed cell.
    pub aggregates: CampaignAggregates,
}

impl EngineReport {
    /// Completed cells per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.cells as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// One-line summary for bench output.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} cells ({} simulated, {} cached) on {} job(s) in {:.2} s — {:.2} cells/s",
            self.cells,
            self.simulated,
            self.cached,
            self.jobs,
            self.wall.as_secs_f64(),
            self.cells_per_sec()
        );
        if self.failed > 0 {
            s.push_str(&format!(" [{} poisoned]", self.failed));
        }
        if self.quarantined > 0 {
            s.push_str(&format!(" [{} quarantined]", self.quarantined));
        }
        if self.store_failed > 0 {
            s.push_str(&format!(" [{} cache writes failed]", self.store_failed));
        }
        if self.stuck_flagged > 0 {
            s.push_str(&format!(" [{} flagged stuck]", self.stuck_flagged));
        }
        s
    }
}

/// The results of one matrix execution, in submission order.
#[derive(Debug)]
pub struct MatrixResult {
    /// Per-cell outcomes, `outcomes[i].cell().index == i`.
    pub outcomes: Vec<CellOutcome>,
    /// Wall-clock/throughput accounting.
    pub report: EngineReport,
}

/// What a streaming execution retains: the report, with its flat-memory
/// aggregates — never the per-cell metrics. Poisoned cells are counted in
/// [`EngineReport::failed`]; the observer saw each one as it went by.
#[derive(Debug)]
pub struct StreamSummary {
    /// Wall-clock/throughput accounting plus streaming aggregates.
    pub report: EngineReport,
}

impl MatrixResult {
    /// Just the metrics, in submission order.
    ///
    /// # Panics
    /// If any cell was poisoned (legacy contract: every caller written
    /// before poison records existed assumes complete results). Check
    /// [`report.failed`](EngineReport::failed) or use
    /// [`failures`](Self::failures) first when failures are expected.
    pub fn metrics(&self) -> impl Iterator<Item = &RunMetrics> {
        self.outcomes.iter().map(|o| o.metrics().as_ref())
    }

    /// The poisoned outcomes, in submission order (empty on a clean run).
    pub fn failures(&self) -> impl Iterator<Item = &CellOutcome> {
        self.outcomes.iter().filter(|o| o.is_failed())
    }

    /// Group adjacent same-campaign cells (the run index is the
    /// innermost axis, so each campaign's runs are contiguous) into
    /// [`CampaignResult`]s, in matrix order. Poisoned cells are skipped —
    /// a campaign whose every run failed is absent.
    pub fn campaigns(&self) -> Vec<CampaignResult> {
        let mut campaigns: Vec<CampaignResult> = Vec::new();
        for outcome in &self.outcomes {
            let Some(metrics) = outcome.try_metrics() else {
                continue;
            };
            let label = outcome.cell().campaign_label();
            match campaigns.last_mut() {
                Some(c) if c.label == label => c.runs.push((**metrics).clone()),
                _ => campaigns.push(CampaignResult {
                    label,
                    runs: vec![(**metrics).clone()],
                }),
            }
        }
        campaigns
    }
}

/// Every engine behaviour knob, as one typed value.
///
/// This is the single place environment variables are parsed: call
/// [`EngineOptions::from_env`] once at a binary's edge and construct
/// everything else explicitly. The daemon builds one per campaign from the
/// spec document; bench bins build one in `main`. Invalid env values warn
/// on stderr and fall back to the default — they never silently change a
/// campaign's shape.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineOptions {
    /// Worker threads (`None` = the host's available parallelism).
    pub jobs: Option<usize>,
    /// Durable on-disk cache directory (`None` disables the cache, and
    /// with it resume).
    pub cache_dir: Option<PathBuf>,
    /// Execution attempts per cell before it is poisoned (≥ 1).
    pub max_attempts: u32,
    /// Wall-clock budget after which the watchdog flags a cell as stuck.
    pub stuck_budget: Duration,
    /// Run cells under the unconditional 1 ms reference scheduler instead
    /// of the adaptive deadline scheduler (the perf-equivalence oracle;
    /// byte-identical output, much slower).
    pub reference_tick: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            jobs: None,
            cache_dir: None,
            max_attempts: 2,
            stuck_budget: Duration::from_secs(120),
            reference_tick: false,
        }
    }
}

impl EngineOptions {
    /// Parse the engine's environment knobs, once:
    ///
    /// * `RPAV_JOBS` — worker count (positive integer; a set-but-invalid
    ///   value warns and auto-detects).
    /// * `RPAV_CACHE` — durable cache (`1` → `target/rpav-cache`, any
    ///   other non-empty value → that directory).
    /// * `RPAV_REFERENCE_TICK` — any value but `0` selects the 1 ms
    ///   reference scheduler.
    pub fn from_env() -> Self {
        let jobs = match std::env::var("RPAV_JOBS") {
            Ok(v) => match v.parse::<usize>() {
                Ok(n) if n > 0 => Some(n),
                _ => {
                    eprintln!("rpav: ignoring invalid RPAV_JOBS={v:?} — using detected core count");
                    None
                }
            },
            Err(_) => None,
        };
        let cache_dir = match std::env::var("RPAV_CACHE") {
            Ok(v) if v == "1" => Some(PathBuf::from("target/rpav-cache")),
            Ok(v) if !v.is_empty() => Some(PathBuf::from(v)),
            _ => None,
        };
        EngineOptions {
            jobs,
            cache_dir,
            reference_tick: std::env::var_os("RPAV_REFERENCE_TICK").is_some_and(|v| v != "0"),
            ..EngineOptions::default()
        }
    }

    /// The worker count these options resolve to.
    pub fn resolved_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Build a [`CampaignEngine`] executing under these options.
    pub fn engine(&self) -> CampaignEngine {
        CampaignEngine::with_options(self.clone())
    }
}

/// Test-only fault injection: called before each execution attempt with
/// the cell and the 1-based attempt number; returning `true` panics in
/// place of the simulation. Lets the resilience harness exercise the
/// poison/retry machinery without planting bugs in the pipeline.
#[doc(hidden)]
pub type FaultHook = Arc<dyn Fn(&Cell, u32) -> bool + Send + Sync>;

/// Render a panic payload (the `&str`/`String` carried by virtually every
/// `panic!`) for a poison record or an error report.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What a worker posts back per cell (after folding the metrics into its
/// share of the aggregates). The collector sums these into the run's
/// [`EngineReport`] counts; nothing is counted anywhere else.
struct WorkerResult {
    /// The metrics, or the final attempt's panic message.
    outcome: Result<Arc<RunMetrics>, String>,
    /// Execution attempts consumed: 0 exactly when the cache served the
    /// metrics.
    attempts: u32,
    /// Whether a corrupt cache record was quarantined on the way.
    quarantined: bool,
    /// Whether writing the freshly simulated result's cache record failed.
    store_failed: bool,
}

/// Sharded on-disk location of one cache entry:
/// `<dir>/<xx>/<key:016x>.rpav`, where `xx` is the key's top byte in hex —
/// a 256-way fan-out so million-entry campaigns never pile every record
/// into one directory.
pub fn cache_entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{:02x}", (key >> 56) as u8))
        .join(format!("{key:016x}.rpav"))
}

/// The bounded-thread-pool matrix executor: its [`EngineOptions`] and
/// nothing else. It holds no state between [`run`](Self::run) calls —
/// the sealed records under the cache directory are the only thing one
/// run leaves for the next, every count lives in that run's
/// [`EngineReport`], and concurrent runs on one engine cannot disturb
/// each other.
///
/// # Crash safety
///
/// Each cell executes inside `catch_unwind`: a panic is retried up to
/// [`with_max_attempts`](Self::with_max_attempts) times (cells are pure,
/// so a deterministic panic fails identically and a transient one — e.g.
/// injected — recovers), then recorded as a typed
/// [`CellOutcome::Failed`] poison record; the rest of the matrix always
/// completes. Cells running past
/// [`with_stuck_budget`](Self::with_stuck_budget) of wall-clock time are
/// flagged on stderr and in [`EngineReport::stuck_flagged`], never
/// killed.
///
/// With a cache directory, results are durable: sealed (CRC32-framed)
/// records written to a tmp file, fsync'd, and renamed into place.
/// Resuming is hitting them: re-running an identical `MatrixSpec` after
/// `kill -9` serves every record that reached its final name, simulates
/// the rest, and is bit-identical to an uninterrupted run. Corrupt,
/// truncated, or stale-version cache files are quarantined to
/// `<cache>/quarantine/` and treated as misses — never served, never
/// fatal. A record that cannot be written (full disk, unwritable
/// directory) is reported on stderr and counted in
/// [`EngineReport::store_failed`]; the cell's result is still delivered.
pub struct CampaignEngine {
    /// `jobs` is resolved (always `Some`) and `max_attempts` ≥ 1.
    options: EngineOptions,
    fault_hook: Option<FaultHook>,
}

impl Default for CampaignEngine {
    fn default() -> Self {
        CampaignEngine::new()
    }
}

impl CampaignEngine {
    /// Engine with the environment-resolved job count and cache policy
    /// (one [`EngineOptions::from_env`] parse).
    pub fn new() -> Self {
        EngineOptions::from_env().engine()
    }

    /// Engine executing under explicit, already-parsed [`EngineOptions`] —
    /// the construction path of the daemon and of every binary that takes
    /// its knobs from a spec document instead of the environment.
    pub fn with_options(mut options: EngineOptions) -> Self {
        options.jobs = Some(options.resolved_jobs().max(1));
        options.max_attempts = options.max_attempts.max(1);
        CampaignEngine {
            options,
            fault_hook: None,
        }
    }

    /// Override the worker count (`--jobs`).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.options.jobs = Some(jobs.max(1));
        self
    }

    /// Override the on-disk cache directory (`None` disables it).
    pub fn with_cache_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.options.cache_dir = dir;
        self
    }

    /// Execution attempts per cell before it is poisoned (≥ 1,
    /// default 2: one retry).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.options.max_attempts = attempts.max(1);
        self
    }

    /// Wall-clock budget after which a still-running cell is flagged
    /// (default 120 s). Flagging never kills the cell.
    pub fn with_stuck_budget(mut self, budget: Duration) -> Self {
        self.options.stuck_budget = budget;
        self
    }

    /// Install the test-only fault hook (see [`FaultHook`]).
    #[doc(hidden)]
    pub fn with_fault_hook(mut self, hook: FaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// The worker count in force.
    pub fn jobs(&self) -> usize {
        self.options.resolved_jobs()
    }

    /// Execute every cell of `spec` and collect submission-ordered
    /// results.
    pub fn run(&self, spec: &MatrixSpec) -> MatrixResult {
        let cells = spec.expand();
        let mut outcomes = Vec::with_capacity(cells.len());
        let report = self.drive(&cells, &mut |o| outcomes.push(o));
        MatrixResult { outcomes, report }
    }

    /// Execute an explicit cell list (`cells[i].index` must equal `i`, as
    /// [`MatrixSpec::expand`] produces) without retaining any per-cell
    /// metrics: outcomes are folded into the report's streaming
    /// [`CampaignAggregates`] and dropped — peak memory is flat in the
    /// cell count.
    pub fn run_cells_streaming(&self, cells: Vec<Cell>) -> StreamSummary {
        self.run_cells_streaming_observed(cells, &mut |_| {})
    }

    /// Streaming execution that additionally hands every outcome — in
    /// **submission order**, straight off the reorder frontier — to
    /// `observe` before dropping it. This is the daemon's event feed. The
    /// aggregates are order-free, so a subscriber that folds the outcomes
    /// it sees reproduces them bit-for-bit. Memory stays flat; the
    /// observer must not retain the outcomes' metrics if it wants to keep
    /// it that way.
    pub fn run_cells_streaming_observed(
        &self,
        cells: Vec<Cell>,
        observe: &mut dyn FnMut(&CellOutcome),
    ) -> StreamSummary {
        let report = self.drive(&cells, &mut |o| observe(&o));
        StreamSummary { report }
    }

    /// The engine core: run `cells` on the pool, each worker folding its
    /// own results into its share of the aggregates; deliver outcomes to
    /// `sink` in **submission order** (a frontier reorders the
    /// completion-ordered channel), count, and flag stuck cells. Returns
    /// once the last outcome is delivered and the workers' partial
    /// aggregates are merged.
    fn drive(&self, cells: &[Cell], sink: &mut dyn FnMut(CellOutcome)) -> EngineReport {
        let started = Instant::now();
        let workers = self.jobs().min(cells.len().max(1));
        let mut report = EngineReport {
            cells: cells.len(),
            jobs: workers,
            ..EngineReport::default()
        };

        let cursor = AtomicUsize::new(0);
        let inflight: Mutex<HashMap<usize, Instant>> = Mutex::new(HashMap::new());
        // Rendezvous hand-off: a worker's `send` returns only once the
        // collector has taken the result, so no buffer here can fill with
        // decoded multi-megabyte `RunMetrics` while the collector's sink
        // is slow; at most `workers` decoded results wait (one per blocked
        // worker) beside the one being delivered and the reorder
        // frontier's out-of-order entries.
        let (tx, rx) = mpsc::sync_channel::<(usize, WorkerResult)>(0);
        std::thread::scope(|s| {
            let cursor = &cursor;
            let inflight = &inflight;
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let tx = tx.clone();
                handles.push(s.spawn(move || {
                    // One cache-record buffer (3–17 MB) per worker for
                    // its whole lifetime: the sealed file being read on a
                    // hit, the payload being encoded on a store. Both
                    // users clear it first, so nothing leaks from one
                    // cell (or one panicked attempt) into the next.
                    let mut record = Vec::new();
                    // The worker's share of the aggregates, folded while
                    // the result is still its own: aggregates are
                    // order-free, so which worker folds a cell, and when,
                    // cannot reach their bytes.
                    let mut aggregates = CampaignAggregates::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        inflight.lock().unwrap().insert(i, Instant::now());
                        let result = self.run_cell_isolated(cell, &mut record);
                        inflight.lock().unwrap().remove(&i);
                        match &result.outcome {
                            Ok(metrics) => aggregates.fold(metrics),
                            Err(_) => aggregates.fold_failure(),
                        }
                        if tx.send((i, result)).is_err() {
                            break;
                        }
                    }
                    aggregates
                }));
            }
            drop(tx);
            // Completion-ordered arrivals re-sequenced into submission
            // order before sinking — what observers see: `rpavd`'s event
            // `seq`, the order of `run`'s outcomes. The pending map
            // holds the results that finished ahead of the cell it waits
            // for (none or one when cells cost alike; more while that
            // cell is slower than its successors). It orders delivery
            // only; no arithmetic depends on it.
            let mut pending: BTreeMap<usize, WorkerResult> = BTreeMap::new();
            let mut next = 0usize;
            // The stuck-cell check rides on the same loop: the in-flight
            // table is scanned whenever `poll` has passed since the last
            // scan — after a receive as well as after a timeout, so a
            // stream of fast completions cannot starve it — and each
            // offender is flagged once.
            let budget = self.options.stuck_budget;
            let poll = (budget / 8).clamp(Duration::from_millis(10), Duration::from_millis(500));
            let mut flagged: HashSet<usize> = HashSet::new();
            let mut last_scan = Instant::now();
            loop {
                match rx.recv_timeout(poll) {
                    Ok((i, result)) => {
                        pending.insert(i, result);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
                while let Some(result) = pending.remove(&next) {
                    let cell = cells[next].clone();
                    let attempts = result.attempts;
                    report.retries += attempts.saturating_sub(1) as usize;
                    report.quarantined += usize::from(result.quarantined);
                    report.store_failed += usize::from(result.store_failed);
                    sink(match result.outcome {
                        Ok(metrics) => {
                            let cached = attempts == 0;
                            if cached {
                                report.cached += 1;
                            } else {
                                report.simulated += 1;
                            }
                            CellOutcome::Done {
                                cell,
                                metrics,
                                cached,
                                attempts,
                            }
                        }
                        Err(panic_msg) => {
                            report.failed += 1;
                            CellOutcome::Failed {
                                cell,
                                panic_msg,
                                attempts,
                            }
                        }
                    });
                    next += 1;
                }
                if last_scan.elapsed() >= poll {
                    last_scan = Instant::now();
                    for (&i, start) in inflight.lock().unwrap().iter() {
                        if start.elapsed() > budget && flagged.insert(i) {
                            eprintln!(
                                "rpav: cell {i} ({}) exceeded its {budget:?} wall-clock budget — still running",
                                cells[i].label()
                            );
                        }
                    }
                }
            }
            report.stuck_flagged = flagged.len();
            for handle in handles {
                let partial = handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
                report.aggregates.merge(&partial);
            }
        });

        report.wall = started.elapsed();
        report
    }

    /// One cell through the cache and, on a miss, `catch_unwind`-isolated
    /// execution with bounded retry.
    fn run_cell_isolated(&self, cell: &Cell, record: &mut Vec<u8>) -> WorkerResult {
        let key = cell.key();
        let cache_dir = self.options.cache_dir.as_deref();
        let mut quarantined = false;
        if let Some(dir) = cache_dir {
            match load_disk(dir, key, record) {
                Ok(Some(metrics)) => {
                    return WorkerResult {
                        outcome: Ok(Arc::new(metrics)),
                        attempts: 0,
                        quarantined: false,
                        store_failed: false,
                    }
                }
                Ok(None) => {}
                Err(CorruptRecord) => quarantined = true,
            }
        }
        let max_attempts = self.options.max_attempts;
        let mut attempts = 0u32;
        let mut store_failed = false;
        let outcome = loop {
            attempts += 1;
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(hook) = &self.fault_hook {
                    if hook(cell, attempts) {
                        panic!("injected fault (attempt {attempts})");
                    }
                }
                cell.execute_with(self.options.reference_tick)
            }));
            match attempt {
                Ok(metrics) => {
                    if let Some(dir) = cache_dir {
                        if let Err(e) = store_disk(dir, key, &metrics, record) {
                            // The result is still delivered; only the next
                            // run's hit is lost, and the report counts it.
                            eprintln!(
                                "rpav: cell {}: cache write under {} failed: {e}",
                                cell.label(),
                                dir.display()
                            );
                            store_failed = true;
                        }
                    }
                    break Ok(Arc::new(metrics));
                }
                Err(payload) => {
                    let panic_msg = panic_message(payload.as_ref());
                    if attempts < max_attempts {
                        eprintln!(
                            "rpav: cell {} panicked on attempt {attempts}/{max_attempts}: {panic_msg} — retrying",
                            cell.label()
                        );
                        continue;
                    }
                    eprintln!(
                        "rpav: cell {} poisoned after {attempts} attempt(s): {panic_msg}",
                        cell.label()
                    );
                    break Err(panic_msg);
                }
            }
        };
        WorkerResult {
            outcome,
            attempts,
            quarantined,
            store_failed,
        }
    }
}

/// A cache file that exists but fails the envelope or the structural
/// decode; [`load_disk`] has already moved it out of the way.
struct CorruptRecord;

/// Read one sealed cache record into the worker's recycled buffer and
/// decode it. A miss (`Ok(None)`) is one failed `open`. A corrupt file is
/// *quarantined*: moved to `<dir>/quarantine/` (deleted if the move
/// fails) and treated as a miss by the caller, so one corrupt file costs
/// one re-simulation, never the run.
fn load_disk(
    dir: &Path,
    key: u64,
    record: &mut Vec<u8>,
) -> Result<Option<RunMetrics>, CorruptRecord> {
    use std::io::Read as _;
    let path = cache_entry_path(dir, key);
    record.clear();
    let read = std::fs::File::open(&path).and_then(|mut f| {
        // Grow the recycled buffer to this record's size exactly:
        // `read_to_end` alone doubles it whenever a record outgrows it, so
        // it would settle at twice the largest record seen. A size no
        // allocation can hold is a failed read (a miss), not an abort.
        let len = usize::try_from(f.metadata()?.len()).map_err(std::io::Error::other)?;
        record
            .try_reserve_exact(len)
            .map_err(std::io::Error::other)?;
        f.read_to_end(record)
    });
    if read.is_err() {
        return Ok(None);
    }
    if let Some(metrics) = RunMetrics::from_cache_bytes(record) {
        return Ok(Some(metrics));
    }
    let qdir = dir.join("quarantine");
    let moved = std::fs::create_dir_all(&qdir).is_ok()
        && std::fs::rename(&path, qdir.join(format!("{key:016x}.rpav"))).is_ok();
    if !moved {
        let _ = std::fs::remove_file(&path);
    }
    eprintln!(
        "rpav: quarantined corrupt cache file {} ({})",
        path.display(),
        if moved { "moved" } else { "deleted" }
    );
    Err(CorruptRecord)
}

/// Durably replace `path` with what `write` puts into a fresh file: the
/// bytes go to a pid-suffixed `.tmp` sibling (concurrent processes never
/// clobber each other mid-write), are `fsync`'d, and the tmp file is
/// renamed over `path` — a kill at any instant leaves the old file or the
/// complete new one, never a hybrid. On any failure the tmp file is
/// removed and the error returned; `path` is untouched.
pub fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut tmp = std::ffi::OsString::with_capacity(path.as_os_str().len() + 16);
    tmp.push(path);
    write!(tmp, ".{}.tmp", std::process::id()).expect("OsString writes cannot fail");
    let tmp = PathBuf::from(tmp);
    let written = std::fs::File::create(&tmp).and_then(|mut f| {
        write(&mut f)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Durably store one sealed cache record into its prefix shard
/// ([`write_atomic`]). A failure (full disk, unwritable directory) costs
/// the cache entry, not the run: the caller counts it in
/// [`EngineReport::store_failed`].
fn store_disk(
    dir: &Path,
    key: u64,
    metrics: &RunMetrics,
    record: &mut Vec<u8>,
) -> std::io::Result<()> {
    let path = cache_entry_path(dir, key);
    std::fs::create_dir_all(path.parent().expect("cache entries live in a shard dir"))?;
    // Encode into the worker's recycled buffer and stream the sealed
    // envelope straight to the file — no per-cell payload allocation.
    let mut w = ByteWriter::with_buf(std::mem::take(record));
    metrics.write_into(&mut w);
    *record = w.into_bytes();
    write_atomic(&path, |f| crate::codec::seal_to(record, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpav_sim::{SimDuration, SimTime};
    use std::collections::HashSet;

    fn short_base() -> ExperimentConfig {
        ExperimentConfig::builder().seed(11).hold_secs(1).build()
    }

    /// [`CampaignEngine::run`] over an explicit cell list, through the
    /// engine core.
    fn drive_all(engine: &CampaignEngine, cells: &[Cell]) -> MatrixResult {
        let mut outcomes = Vec::with_capacity(cells.len());
        let report = engine.drive(cells, &mut |o| outcomes.push(o));
        MatrixResult { outcomes, report }
    }

    /// Wire buffers are thread-confined (`bytes::Bytes` is `!Send`), and a
    /// cell's inputs and results cross from the worker that simulated it
    /// to the thread that folds them. This is the compile-time proof that
    /// they carry no buffer — a future field that smuggles one in stops
    /// the build here, not in a worker-pool type error three layers up.
    #[test]
    fn engine_inputs_and_results_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RunMetrics>();
        assert_send::<Cell>();
        assert_send::<CellOutcome>();
        assert_send::<CampaignAggregates>();
        assert_send::<EngineReport>();
    }

    #[test]
    fn empty_axes_expand_to_the_base_cell() {
        let cells = MatrixSpec::new(short_base()).expand();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].index, 0);
        assert_eq!(cells[0].scheme, RunScheme::Pipeline);
        assert!(cells[0].fault.is_none());
        assert_eq!(cells[0].label(), "GCC-Rural-P1-Air#r0");
    }

    #[test]
    fn expansion_order_is_run_innermost() {
        let cells = MatrixSpec::new(short_base())
            .ccs([CcMode::Gcc, CcMode::paper_scream()])
            .runs(2)
            .expand();
        assert_eq!(cells.len(), 4);
        let labels: Vec<String> = cells.iter().map(Cell::label).collect();
        assert_eq!(
            labels,
            [
                "GCC-Rural-P1-Air#r0",
                "GCC-Rural-P1-Air#r1",
                "SCReAM-Rural-P1-Air#r0",
                "SCReAM-Rural-P1-Air#r1",
            ]
        );
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
    }

    #[test]
    fn paper_workloads_follow_the_environment() {
        let cells = MatrixSpec::new(short_base())
            .environments([Environment::Urban, Environment::Rural])
            .paper_workloads()
            .expand();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].config.cc, CcMode::Static { bitrate_bps: 25e6 });
        assert_eq!(cells[3].config.cc, CcMode::Static { bitrate_bps: 8e6 });
    }

    #[test]
    fn hold_follows_the_mobility_axis_unless_overridden() {
        let paper_base = ExperimentConfig::builder().build();
        let cells = MatrixSpec::new(paper_base)
            .mobilities([Mobility::Air, Mobility::Ground])
            .expand();
        assert_eq!(cells[0].config.hold, SimDuration::from_secs(5));
        assert_eq!(cells[1].config.hold, SimDuration::from_secs(45));
        // An explicit hold override is preserved across the axis.
        let cells = MatrixSpec::new(short_base())
            .mobilities([Mobility::Air, Mobility::Ground])
            .expand();
        assert_eq!(cells[0].config.hold, SimDuration::from_secs(1));
        assert_eq!(cells[1].config.hold, SimDuration::from_secs(1));
    }

    #[test]
    fn labels_and_keys_are_unique_over_a_full_expansion() {
        // Every axis at once — the densest matrix any bench assembles:
        // labels (the old silent-collision bug) and cache keys must both
        // discriminate every cell.
        let blackout =
            FaultScript::new().blackout(SimTime::from_secs(10), SimDuration::from_secs(2));
        let cells = MatrixSpec::new(short_base())
            .environments([Environment::Urban, Environment::Rural])
            .operators([Operator::P1, Operator::P2])
            .mobilities([Mobility::Air, Mobility::Ground])
            .paper_workloads()
            .schemes([
                RunScheme::Pipeline,
                RunScheme::Multipath(MultipathScheme::Failover),
            ])
            .faults([
                CellFault::none(),
                CellFault::link("blackout", blackout.clone()),
                CellFault::uplink("ul-blackout", blackout),
            ])
            .repairs([false, true])
            .runs(2)
            .expand();
        assert_eq!(cells.len(), 2 * 2 * 2 * 3 * 2 * 3 * 2 * 2);
        let labels: HashSet<String> = cells.iter().map(Cell::label).collect();
        assert_eq!(labels.len(), cells.len(), "label collision");
        let keys: HashSet<u64> = cells.iter().map(Cell::key).collect();
        assert_eq!(keys.len(), cells.len(), "cache-key collision");
    }

    #[test]
    fn cache_key_is_insensitive_to_cell_index_but_not_to_config() {
        let cells = MatrixSpec::new(short_base()).runs(2).expand();
        let mut moved = cells[0].clone();
        moved.index = 99;
        assert_eq!(moved.key(), cells[0].key());
        assert_ne!(cells[0].key(), cells[1].key());
    }

    #[test]
    fn pipeline_keys_stay_put_and_multipath_keys_moved() {
        // Literals computed before the session drivers were unified (FNV
        // over config bytes: platform-independent). A durable cache from
        // back then keeps serving pipeline cells and must miss on every
        // multipath cell, whose results changed.
        let pipeline = MatrixSpec::new(short_base()).expand();
        assert_eq!(pipeline[0].key(), 0x5b6c_6bff_9688_12ce);
        let failover = MatrixSpec::new(short_base())
            .multipath_schemes([MultipathScheme::Failover])
            .expand();
        assert_ne!(failover[0].key(), 0x6628_e85f_3bb9_da1d);
    }

    #[test]
    fn engine_is_deterministic_across_job_counts_and_caches() {
        // A 4-cell matrix (kept small: these are full simulations) run
        // with jobs=1 and jobs=8 must produce byte-identical metrics,
        // and a warm re-run must simulate nothing.
        let dir = std::env::temp_dir().join(format!("rpav-exec-det-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = MatrixSpec::new(short_base())
            .ccs([CcMode::Gcc, CcMode::paper_scream()])
            .runs(2);
        let sequential = CampaignEngine::new().with_cache_dir(None).with_jobs(1);
        let parallel = CampaignEngine::new()
            .with_cache_dir(Some(dir.clone()))
            .with_jobs(8);
        let a = sequential.run(&spec);
        let b = parallel.run(&spec);
        assert_eq!(a.outcomes.len(), 4);
        for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
            assert_eq!(x.cell().label(), y.cell().label());
            assert_eq!(
                x.metrics().to_bytes(),
                y.metrics().to_bytes(),
                "jobs=1 vs jobs=8 diverged at {}",
                x.cell().label()
            );
        }
        // The aggregates are order-free, so they are bit-identical across
        // job counts too.
        assert_eq!(
            a.report.aggregates.to_bytes(),
            b.report.aggregates.to_bytes(),
            "aggregates diverged across job counts"
        );
        assert_eq!(b.report.simulated, 4);
        let warm = parallel.run(&spec);
        assert_eq!(warm.report.cached, 4);
        assert_eq!(warm.report.simulated, 0, "warm re-run re-simulated");
        for (x, y) in a.outcomes.iter().zip(warm.outcomes.iter()) {
            assert_eq!(x.metrics().to_bytes(), y.metrics().to_bytes());
        }
        assert_eq!(
            a.report.aggregates.to_bytes(),
            warm.report.aggregates.to_bytes()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aggregates_do_not_depend_on_submission_order() {
        // Reversed and shuffled cell lists (re-indexed, as `drive`
        // requires) fold the same multiset of cells, so the aggregate
        // bytes cannot move, at any job count — while the outcomes still
        // arrive in the order submitted.
        let cells = MatrixSpec::new(short_base()).runs(3).expand();
        let engine = |jobs| CampaignEngine::new().with_cache_dir(None).with_jobs(jobs);
        let want = drive_all(&engine(1), &cells).report.aggregates.to_bytes();
        for order in [[2, 1, 0], [1, 2, 0]] {
            let reordered: Vec<Cell> = order
                .iter()
                .enumerate()
                .map(|(i, &k)| Cell {
                    index: i,
                    ..cells[k].clone()
                })
                .collect();
            for jobs in [1, 2] {
                let got = drive_all(&engine(jobs), &reordered);
                assert_eq!(
                    got.report.aggregates.to_bytes(),
                    want,
                    "order {order:?} at jobs={jobs}"
                );
                let labels: Vec<String> = got.outcomes.iter().map(|o| o.cell().label()).collect();
                let submitted: Vec<String> = reordered.iter().map(Cell::label).collect();
                assert_eq!(labels, submitted);
            }
        }
    }

    #[test]
    fn campaigns_group_adjacent_runs() {
        let spec = MatrixSpec::new(short_base())
            .ccs([CcMode::Gcc, CcMode::paper_scream()])
            .runs(2);
        let result = CampaignEngine::new()
            .with_cache_dir(None)
            .with_jobs(2)
            .run(&spec);
        let campaigns = result.campaigns();
        assert_eq!(campaigns.len(), 2);
        assert_eq!(campaigns[0].label, "GCC-Rural-P1-Air");
        assert_eq!(campaigns[1].label, "SCReAM-Rural-P1-Air");
        assert_eq!(campaigns[0].runs.len(), 2);
        assert_eq!(campaigns[1].runs.len(), 2);
    }

    #[test]
    fn injected_panic_poisons_one_cell_not_the_run() {
        let spec = MatrixSpec::new(short_base()).runs(3);
        let engine = CampaignEngine::new()
            .with_cache_dir(None)
            .with_jobs(4)
            .with_max_attempts(2)
            .with_fault_hook(Arc::new(|cell: &Cell, _attempt| {
                cell.config.run_index == 1 // this cell always panics
            }));
        let result = engine.run(&spec);
        assert_eq!(result.outcomes.len(), 3);
        assert_eq!(result.report.failed, 1);
        assert_eq!(result.report.simulated, 2);
        let failures: Vec<&CellOutcome> = result.failures().collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].cell().config.run_index, 1);
        assert_eq!(failures[0].attempts(), 2, "retry budget consumed");
        assert!(failures[0].panic_msg().unwrap().contains("injected fault"));
        assert!(failures[0].try_metrics().is_none());
        // The healthy cells completed normally.
        assert!(result.outcomes[0].try_metrics().is_some());
        assert!(result.outcomes[2].try_metrics().is_some());
        // And campaign grouping simply skips the poisoned run.
        let campaigns = result.campaigns();
        assert_eq!(campaigns[0].runs.len(), 2);
    }

    #[test]
    fn retry_recovers_a_transient_panic_bit_identically() {
        let spec = MatrixSpec::new(short_base());
        let engine = CampaignEngine::new()
            .with_cache_dir(None)
            .with_jobs(1)
            .with_max_attempts(3)
            .with_fault_hook(Arc::new(|_cell, attempt| attempt == 1));
        let result = engine.run(&spec);
        assert_eq!(result.report.failed, 0);
        assert_eq!(result.report.retries, 1);
        let outcome = &result.outcomes[0];
        assert_eq!(outcome.attempts(), 2);
        // The retried execution is the same pure function of the config.
        assert_eq!(
            outcome.metrics().to_bytes(),
            outcome.cell().execute_with(false).to_bytes()
        );
    }

    #[test]
    fn metrics_iterator_panics_on_poisoned_cells() {
        let engine = CampaignEngine::new()
            .with_cache_dir(None)
            .with_max_attempts(1)
            .with_fault_hook(Arc::new(|_, _| true));
        let result = engine.run(&MatrixSpec::new(short_base()));
        assert_eq!(result.report.failed, 1);
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| result.metrics().count()));
        assert!(caught.is_err(), "metrics() must refuse poisoned results");
    }

    #[test]
    fn streaming_keeps_memory_flat_and_aggregates_identical() {
        let spec = MatrixSpec::new(short_base())
            .ccs([CcMode::Gcc, CcMode::paper_scream()])
            .runs(2);
        let engine = CampaignEngine::new().with_cache_dir(None).with_jobs(4);
        let full = engine.run(&spec);
        let summary = engine.run_cells_streaming(spec.expand());
        assert_eq!(summary.report.failed, 0);
        assert_eq!(summary.report.cells, 4);
        assert_eq!(
            summary.report.simulated, 4,
            "the engine keeps nothing from the first run"
        );
        assert_eq!(
            summary.report.aggregates.to_bytes(),
            full.report.aggregates.to_bytes(),
            "streaming vs collect aggregates diverged"
        );
        // The sketch footprint is what it is regardless of cell count.
        assert_eq!(
            summary.report.aggregates.retained_bytes(),
            full.report.aggregates.retained_bytes()
        );
    }

    #[test]
    fn stuck_watchdog_flags_but_never_kills() {
        let spec = MatrixSpec::new(short_base()).runs(2);
        let engine = CampaignEngine::new()
            .with_cache_dir(None)
            .with_jobs(1)
            .with_stuck_budget(Duration::from_millis(1));
        let result = engine.run(&spec);
        // Every cell takes ≫ 1 ms, so the watchdog must have fired, and
        // every cell must still have completed.
        assert_eq!(result.report.failed, 0);
        assert_eq!(result.outcomes.len(), 2);
        assert!(
            result.report.stuck_flagged >= 1,
            "a 1 ms budget must flag at least one cell"
        );
    }

    #[test]
    fn from_env_jobs_warn_and_recover_from_invalid_env() {
        // Env mutation: run the cases in one test to avoid races with a
        // parallel test harness touching the same variable.
        let detected = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let jobs = || EngineOptions::from_env().resolved_jobs();
        std::env::set_var("RPAV_JOBS", "not-a-number");
        assert_eq!(jobs(), detected, "invalid value must fall back");
        std::env::set_var("RPAV_JOBS", "0");
        assert_eq!(jobs(), detected, "zero must fall back");
        std::env::set_var("RPAV_JOBS", "3");
        assert_eq!(jobs(), 3);
        std::env::remove_var("RPAV_JOBS");
        assert_eq!(jobs(), detected);
    }

    /// Sealed records under the sharded cache layout (`<dir>/<xx>/*.rpav`).
    fn sharded_rpav_files(dir: &std::path::Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().is_dir() && e.file_name() != "quarantine")
            .flat_map(|e| {
                std::fs::read_dir(e.path())
                    .unwrap()
                    .filter_map(Result::ok)
                    .map(|f| f.path())
                    .filter(|p| p.extension().is_some_and(|x| x == "rpav"))
                    .collect::<Vec<_>>()
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn cache_entries_land_in_prefix_shards() {
        let dir = std::env::temp_dir().join(format!("rpav-exec-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = MatrixSpec::new(short_base()).runs(3);

        let cold = CampaignEngine::new()
            .with_cache_dir(Some(dir.clone()))
            .with_jobs(2)
            .run(&spec);
        assert_eq!(cold.report.simulated, 3);
        let sharded = sharded_rpav_files(&dir);
        assert_eq!(sharded.len(), 3, "every record lands in a shard dir");
        for path in &sharded {
            let key = u64::from_str_radix(path.file_stem().unwrap().to_str().unwrap(), 16).unwrap();
            assert_eq!(
                path.parent()
                    .unwrap()
                    .file_name()
                    .unwrap()
                    .to_str()
                    .unwrap(),
                format!("{:02x}", (key >> 56) as u8),
                "shard dir must be the key's top byte"
            );
            assert_eq!(*path, cache_entry_path(&dir, key));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The envelope as the parent commit wrote it: the same frame, its
    /// CRC computed by the byte-at-a-time loop.
    fn seal_bytewise(payload: &[u8]) -> Vec<u8> {
        let mut out = b"RPVE".to_vec();
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crate::codec::crc32_bytewise(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn cache_records_interchange_with_the_bytewise_crc_writer() {
        let dir = std::env::temp_dir().join(format!("rpav-exec-xver-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cells = MatrixSpec::new(short_base()).runs(2).expand();

        // Parent → change: a cache directory of records sealed with the
        // byte-wise CRC is served whole — nothing simulated, nothing
        // quarantined.
        let metrics: Vec<RunMetrics> = cells.iter().map(|c| c.execute_with(false)).collect();
        for (cell, m) in cells.iter().zip(&metrics) {
            let path = cache_entry_path(&dir, cell.key());
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, seal_bytewise(&m.to_bytes())).unwrap();
        }
        let served = drive_all(
            &CampaignEngine::new()
                .with_cache_dir(Some(dir.clone()))
                .with_jobs(2),
            &cells,
        );
        assert_eq!(served.report.simulated, 0);
        assert_eq!(served.report.cached, 2);
        assert_eq!(served.report.quarantined, 0);
        for (o, m) in served.outcomes.iter().zip(&metrics) {
            assert_eq!(o.metrics().to_bytes(), m.to_bytes());
        }
        std::fs::remove_dir_all(&dir).unwrap();

        // Change → parent: the records this engine writes are, byte for
        // byte, what the byte-wise writer would have produced.
        let cold = drive_all(
            &CampaignEngine::new()
                .with_cache_dir(Some(dir.clone()))
                .with_jobs(2),
            &cells,
        );
        assert_eq!(cold.report.simulated, 2);
        for (cell, m) in cells.iter().zip(&metrics) {
            let stored = std::fs::read(cache_entry_path(&dir, cell.key())).unwrap();
            assert_eq!(stored, seal_bytewise(&m.to_bytes()), "{}", cell.label());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_cache_writes_are_counted_and_results_still_delivered() {
        // A cache "directory" that is a regular file: every shard
        // `create_dir_all` fails (ENOTDIR), as root too, where permission
        // bits would not stop the write.
        let file = std::env::temp_dir().join(format!("rpav-exec-nodir-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let spec = MatrixSpec::new(short_base()).runs(2);
        let reference = CampaignEngine::new()
            .with_cache_dir(None)
            .with_jobs(2)
            .run(&spec);
        let result = CampaignEngine::new()
            .with_cache_dir(Some(file.clone()))
            .with_jobs(2)
            .run(&spec);
        assert_eq!(result.report.simulated, 2);
        assert_eq!(result.report.store_failed, 2);
        assert_eq!(result.report.failed, 0);
        assert!(result.report.summary().contains("[2 cache writes failed]"));
        for (x, y) in result.outcomes.iter().zip(&reference.outcomes) {
            assert_eq!(x.metrics().to_bytes(), y.metrics().to_bytes());
        }
        assert_eq!(reference.report.store_failed, 0);
        assert_eq!(std::fs::read(&file).unwrap(), b"not a directory");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn write_atomic_replaces_the_target_or_leaves_everything_as_it_was() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("rpav-exec-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let leftover_tmps = || {
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
                .count()
        };
        let file = dir.join("record.json");
        write_atomic(&file, |f| f.write_all(b"old")).unwrap();
        write_atomic(&file, |f| f.write_all(b"new")).unwrap();
        assert_eq!(std::fs::read(&file).unwrap(), b"new");
        assert_eq!(leftover_tmps(), 0);

        // A failing writer: the target keeps its old bytes.
        let failed = write_atomic(&file, |f| {
            f.write_all(b"partial")?;
            Err(std::io::Error::other("disk full"))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read(&file).unwrap(), b"new");
        assert_eq!(leftover_tmps(), 0);

        // A destination that is an existing directory: the rename fails,
        // the directory and its contents stay, no tmp file survives.
        let target = dir.join("occupied");
        std::fs::create_dir(&target).unwrap();
        std::fs::write(target.join("inside"), b"kept").unwrap();
        assert!(write_atomic(&target, |f| f.write_all(b"bytes")).is_err());
        assert!(target.is_dir());
        assert_eq!(std::fs::read(target.join("inside")).unwrap(), b"kept");
        assert_eq!(std::fs::read_dir(&target).unwrap().count(), 1);
        assert_eq!(leftover_tmps(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_resumes_quarantines_and_stays_bit_identical() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("rpav-exec-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = MatrixSpec::new(short_base()).runs(3);

        let first = CampaignEngine::new()
            .with_cache_dir(Some(dir.clone()))
            .with_jobs(2);
        let cold = first.run(&spec);
        assert_eq!(cold.report.simulated, 3);
        assert_eq!(cold.report.cached, 0);
        // The sealed records are all a run leaves behind: the cache root
        // holds shard directories and nothing else.
        for entry in std::fs::read_dir(&dir).unwrap().filter_map(Result::ok) {
            let name = entry.file_name().into_string().unwrap();
            assert!(
                entry.path().is_dir() && name.len() == 2 && u8::from_str_radix(&name, 16).is_ok(),
                "unexpected {name} in the cache root"
            );
        }

        // A second process (fresh engine) resumes everything from the
        // durable store, bit-identically.
        let second = CampaignEngine::new()
            .with_cache_dir(Some(dir.clone()))
            .with_jobs(2);
        let warm = second.run(&spec);
        assert_eq!(cold.report.store_failed, 0);
        assert_eq!(warm.report.simulated, 0);
        assert_eq!(warm.report.cached, 3, "every sealed record must be hit");
        assert_eq!(
            warm.report.aggregates.to_bytes(),
            cold.report.aggregates.to_bytes()
        );

        // Corrupt one cache record: it is quarantined, re-simulated, and
        // the run still matches bit-for-bit.
        let victim = sharded_rpav_files(&dir).into_iter().next().unwrap();
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::File::create(&victim)
            .unwrap()
            .write_all(&bytes)
            .unwrap();
        let third = CampaignEngine::new()
            .with_cache_dir(Some(dir.clone()))
            .with_jobs(2);
        let healed = third.run(&spec);
        assert_eq!(healed.report.quarantined, 1);
        assert_eq!(healed.report.simulated, 1, "only the corrupt cell re-runs");
        assert_eq!(
            healed.report.aggregates.to_bytes(),
            cold.report.aggregates.to_bytes()
        );
        assert!(
            dir.join("quarantine").read_dir().unwrap().count() == 1,
            "corrupt file must be moved to quarantine"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
