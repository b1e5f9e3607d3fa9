//! What a campaign *is*: a declarative cross-product of scenario axes and
//! the independent cells it expands into.
//!
//! The paper aggregates ≈130 runs over ≈90 flights (urban/rural × two
//! operators × three CCs × air/ground). [`MatrixSpec`] writes that
//! cross-product down (environment × operator × mobility × CC × scheme ×
//! fault script × repair × run index) and [expands](MatrixSpec::expand) it
//! into [`Cell`]s in a fixed, documented order. A cell is a pure function
//! of its expanded configuration: [`Cell::execute_with`] runs it directly,
//! and [`Cell::key`] names its result in the cache. How a campaign is
//! written down (and the bytes behind the key) lives in [`crate::spec`];
//! how cells run, in [`crate::exec`].

use std::sync::OnceLock;

use rpav_lte::{Environment, Operator};
use rpav_netem::FaultScript;

use crate::metrics::RunMetrics;
use crate::multipath::MultipathScheme;
use crate::pipeline::Simulation;
use crate::scenario::{CcMode, ExperimentConfig, Mobility};

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
    /// encoding of every field that influences the simulation (written
    /// by [`crate::spec`], beside the JSON codec), salted with the crate
    /// version so a rebuilt crate invalidates all cached results. Stable
    /// across processes (unlike `DefaultHasher`). Memoised: the encoding
    /// pass runs at most once per cell.
    pub fn key(&self) -> u64 {
        *self.key_cache.get_or_init(|| crate::spec::cell_key(self))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::fnv1a;
    use rpav_netem::PacketKind;
    use rpav_sim::{SimDuration, SimTime, WatchdogConfig};
    use std::collections::HashSet;

    fn short_base() -> ExperimentConfig {
        ExperimentConfig::builder().seed(11).hold_secs(1).build()
    }

    #[test]
    fn dense_expansion_keys_stay_put() {
        // Every input the key encodes at once: all six run schemes, all
        // three CC modes, every override, leg caps, three legs, coupled
        // CC, a non-default watchdog, one fault per clause kind, and a
        // per-leg fault with extra scripts and a downlink script. The
        // literal is the digest of these keys as the encoder wrote them
        // before it moved to `spec`; a key that moves orphans every
        // durable cache.
        let t = SimTime::from_secs;
        let d = SimDuration::from_secs;
        let every_clause = [
            FaultScript::new().blackout(t(1), d(2)),
            FaultScript::new().feedback_blackout(t(2), d(1)),
            FaultScript::new().loss_window(t(0), d(3), 0.05, Some(PacketKind::Media)),
            FaultScript::new().burst_loss_window(t(1), d(4), 0.1, 0.4, 0.9, None),
            FaultScript::new().delay_spike(t(1), d(1), SimDuration::from_millis(300)),
            FaultScript::new().duplicate_window(t(0), d(2), 0.2, Some(PacketKind::Probe)),
            FaultScript::new().corrupt_window(t(0), d(2), 0.01, Some(PacketKind::Feedback)),
            FaultScript::new().reorder_window(t(1), d(2), 0.3, 8),
            FaultScript::new().coverage_hole(100.0, -50.0, 250.0, 30.0),
        ];
        let mut faults: Vec<CellFault> = every_clause
            .iter()
            .enumerate()
            .map(|(i, s)| CellFault::link(format!("c{i}"), s.clone()))
            .collect();
        faults.push(CellFault {
            downlink: Some(every_clause[1].clone()),
            ..CellFault::per_leg(
                "legs",
                vec![
                    Some(every_clause[0].clone()),
                    None,
                    Some(every_clause[3].clone()),
                    Some(every_clause[8].clone().blackout(t(3), d(1))),
                ],
            )
        });
        let base = ExperimentConfig::builder()
            .environment(Environment::Urban)
            .operator(Operator::P2)
            .mobility(Mobility::Ground)
            .seed(0xC0FFEE)
            .run_index(4)
            .hold_secs(1)
            .ground_sweeps(2)
            .drop_on_latency(true)
            .hysteresis_db(2.5)
            .ttt_ms(320)
            .jitter_target_ms(150)
            .watchdog(WatchdogConfig {
                enabled: false,
                timeout: SimDuration::from_millis(700),
                backoff_interval: SimDuration::from_millis(250),
                backoff_factor: 0.6,
                floor_bps: 250e3,
                ramp_factor: 1.2,
            })
            .repair(true)
            .leg_caps(6e6, 4e6)
            .fec_cap(0.3)
            .n_legs(3)
            .coupled_cc(true)
            .build();
        let schemes = std::iter::once(RunScheme::Pipeline)
            .chain(MultipathScheme::all().map(RunScheme::Multipath));
        let cells = MatrixSpec::new(base)
            .ccs([
                CcMode::Static {
                    bitrate_bps: 12.5e6,
                },
                CcMode::Gcc,
                CcMode::Scream { ack_span: 64 },
            ])
            .schemes(schemes)
            .faults(faults)
            .runs(2)
            .expand();
        assert_eq!(cells.len(), 3 * 6 * 10 * 2);
        let mut keys = Vec::with_capacity(cells.len() * 8);
        for cell in &cells {
            keys.extend_from_slice(&cell.key().to_le_bytes());
        }
        assert_eq!(fnv1a(&keys), 0x4df6_bca6_021d_8c94);
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
}
