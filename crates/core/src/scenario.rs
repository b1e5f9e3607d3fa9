//! Experiment configuration: the campaign's independent variables.

use rpav_lte::{Environment, Operator};
use rpav_sim::{SimDuration, WatchdogConfig};

/// Whether the node flies the paper trajectory or rides the motorbike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mobility {
    /// The Fig. 11 flight: 40/80/120 m steps with 200 m leaps.
    Air,
    /// The ground baseline: sweeps along the leap track with long holds.
    Ground,
}

impl Mobility {
    /// Display name matching the paper's figures ("Air" / "Grd").
    pub fn name(&self) -> &'static str {
        match self {
            Mobility::Air => "Air",
            Mobility::Ground => "Grd",
        }
    }
}

/// The three §3.2 video workloads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CcMode {
    /// Constant bitrate at the per-environment "support-able" maximum.
    Static {
        /// Fixed encoder bitrate.
        bitrate_bps: f64,
    },
    /// Google Congestion Control with transport-wide feedback.
    Gcc,
    /// SCReAM with RFC 8888 feedback.
    Scream {
        /// Ack-span per feedback packet: 64 stock, 256 = the paper's
        /// mitigation (§4.2.1).
        ack_span: usize,
    },
}

impl CcMode {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            CcMode::Static { .. } => "Static",
            CcMode::Gcc => "GCC",
            CcMode::Scream { .. } => "SCReAM",
        }
    }

    /// Label discriminant: the display name, plus the parameter whenever it
    /// deviates from the paper default for `environment`. Two distinct
    /// workloads (e.g. SCReAM at span 64 vs 256, or Static at a non-paper
    /// bitrate) must never collapse onto the same label.
    pub fn label(&self, environment: Environment) -> String {
        match self {
            CcMode::Static { bitrate_bps } => {
                let paper = match CcMode::paper_static(environment) {
                    CcMode::Static { bitrate_bps } => bitrate_bps,
                    _ => unreachable!(),
                };
                if *bitrate_bps == paper {
                    "Static".to_string()
                } else {
                    format!("Static[{:.1}M]", bitrate_bps / 1e6)
                }
            }
            CcMode::Gcc => "GCC".to_string(),
            CcMode::Scream { ack_span } => {
                if *ack_span == 256 {
                    "SCReAM".to_string()
                } else {
                    format!("SCReAM[s{ack_span}]")
                }
            }
        }
    }

    /// The paper's static bitrate choice per environment (§3.2): 25 Mbps
    /// urban, 8 Mbps rural, from trial runs.
    pub fn paper_static(environment: Environment) -> CcMode {
        CcMode::Static {
            bitrate_bps: match environment {
                Environment::Urban => 25e6,
                Environment::Rural => 8e6,
            },
        }
    }

    /// SCReAM as the paper ran it (span already raised to 256, §4.2.1).
    pub fn paper_scream() -> CcMode {
        CcMode::Scream { ack_span: 256 }
    }
}

/// One measurement run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExperimentConfig {
    /// Urban or rural flight area.
    pub environment: Environment,
    /// Operator (P1 default, P2 in App. A.3).
    pub operator: Operator,
    /// Air or ground.
    pub mobility: Mobility,
    /// Video workload.
    pub cc: CcMode,
    /// Master seed (campaign identity).
    pub seed: u64,
    /// Run index within the campaign (decorrelates channel randomness).
    pub run_index: u64,
    /// Hover time between flight legs.
    pub hold: SimDuration,
    /// Ground-run sweep count.
    pub ground_sweeps: usize,
    /// Jitter-buffer `drop-on-latency` mode (App. A.4 ablation).
    pub drop_on_latency: bool,
    /// Override the A3 hysteresis (dB) — the §5 mobility-parameter sweep.
    pub hysteresis_override_db: Option<f64>,
    /// Override the A3 time-to-trigger (ms) — same sweep.
    pub ttt_override_ms: Option<u64>,
    /// Override the receiver jitter-buffer target (ms) — §4.2 "the RTP
    /// jitter buffer size can be adjusted to reduce playback latency".
    pub jitter_target_override_ms: Option<u64>,
    /// Feedback-starvation watchdog shared by the adaptive CCs. Enabled by
    /// default; set `watchdog.enabled = false` to reproduce the stock
    /// frozen-rate outage behaviour.
    pub watchdog: WatchdogConfig,
    /// NACK/RTX loss repair (RFC 4585 generic NACK + RFC 4588-style
    /// retransmission). Off by default — the paper's stack had no repair,
    /// so the baseline stays bit-identical; the repair benches flip it on.
    pub repair: bool,
    /// Per-leg uplink capacity caps in bps (primary, secondary), applied
    /// on top of the channel model — the bonded scheme's asymmetric-leg
    /// ablation knob. `None` leaves the radio capacity untouched.
    pub leg_cap_bps: Option<(f64, f64)>,
    /// Ceiling on the bonded scheme's adaptive FEC overhead ratio
    /// (parity packets / media packets). `0.0` disables FEC entirely;
    /// only the `Bonded` multipath scheme reads it.
    pub fec_cap: f64,
    /// How many cellular legs the multipath drivers carry (2–4; default
    /// 2). Legs alternate operators (even = `operator`, odd =
    /// `secondary_operator()`); legs ≥ 2 ride statistically independent
    /// channel instances of the same operators.
    pub n_legs: usize,
    /// Couple the bonded scheme's congestion control across legs: one
    /// shadow CC per leg fed by that leg's own feedback stream, with the
    /// encoder driven by the aggregate of the per-leg targets — the
    /// MPTCP-style answer to the DESIGN §10.6 delay-variance collapse.
    /// Default off, which preserves the PR 6 single-CC behaviour
    /// bit-for-bit.
    pub coupled_cc: bool,
}

/// Hard ceiling on `n_legs` — the leg arrays in the multipath drivers
/// and the RS parity spread are sized for it.
pub const MAX_LEGS: usize = 4;

impl ExperimentConfig {
    /// Start a typed builder pre-loaded with the paper defaults (rural P1
    /// aerial GCC, seed 0). Every knob has a named setter; `build()` fills
    /// anything left untouched with the paper value for the chosen axes
    /// (e.g. the hover hold follows the mobility).
    pub fn builder() -> ExperimentConfigBuilder {
        ExperimentConfigBuilder::default()
    }

    /// The paper-default hover/sweep hold for a mobility.
    pub fn paper_hold(mobility: Mobility) -> SimDuration {
        match mobility {
            Mobility::Air => SimDuration::from_secs(5),
            Mobility::Ground => SimDuration::from_secs(45),
        }
    }

    /// The *other* cellular operator — the standby carrier a multi-SIM
    /// failover setup would ride (App. A.3 measures both).
    pub fn secondary_operator(&self) -> Operator {
        match self.operator {
            Operator::P1 => Operator::P2,
            Operator::P2 => Operator::P1,
        }
    }

    /// A short label for result tables.
    ///
    /// The base reads like the paper's figure keys
    /// (`GCC-Rural-P1-Air`); any configuration bit that changes what the
    /// run *measures* — a non-paper CC parameter, loss repair, the
    /// drop-on-latency player, a jitter/mobility override, a disabled
    /// watchdog — is appended as a discriminant so two different
    /// experiment cells can never share a label (see
    /// [`Cell::label`](crate::matrix::Cell::label) for the scheme/script/run
    /// dimensions the matrix engine adds on top).
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}-{}-{}-{}",
            self.cc.label(self.environment),
            self.environment.name(),
            self.operator.name(),
            self.mobility.name()
        );
        if self.repair {
            label.push_str("+rtx");
        }
        if self.drop_on_latency {
            label.push_str("+dol");
        }
        if let Some(ms) = self.jitter_target_override_ms {
            label.push_str(&format!("+jt{ms}"));
        }
        if let Some(db) = self.hysteresis_override_db {
            label.push_str(&format!("+hys{db}"));
        }
        if let Some(ms) = self.ttt_override_ms {
            label.push_str(&format!("+ttt{ms}"));
        }
        if !self.watchdog.enabled {
            label.push_str("+wd0");
        }
        if let Some((a, b)) = self.leg_cap_bps {
            label.push_str(&format!("+cap{:.1}/{:.1}", a / 1e6, b / 1e6));
        }
        if self.fec_cap > 0.0 {
            label.push_str(&format!("+fec{:.2}", self.fec_cap));
        }
        if self.n_legs != 2 {
            label.push_str(&format!("+legs{}", self.n_legs));
        }
        if self.coupled_cc {
            label.push_str("+ccc");
        }
        label
    }
}

/// Typed builder for [`ExperimentConfig`], pre-loaded with paper defaults.
///
/// ```
/// use rpav_core::prelude::*;
///
/// let cfg = ExperimentConfig::builder()
///     .environment(Environment::Urban)
///     .cc(CcMode::Gcc)
///     .seed(42)
///     .build();
/// assert_eq!(cfg.label(), "GCC-Urban-P1-Air");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfigBuilder {
    config: ExperimentConfig,
    /// An explicit hold; `None` follows the mobility's paper hold.
    hold: Option<SimDuration>,
}

impl Default for ExperimentConfigBuilder {
    fn default() -> Self {
        ExperimentConfigBuilder {
            config: ExperimentConfig {
                environment: Environment::Rural,
                operator: Operator::P1,
                mobility: Mobility::Air,
                cc: CcMode::Gcc,
                seed: 0,
                run_index: 0,
                // `build()` replaces it: `hold` or the mobility's.
                hold: SimDuration::ZERO,
                ground_sweeps: 3,
                drop_on_latency: false,
                hysteresis_override_db: None,
                ttt_override_ms: None,
                jitter_target_override_ms: None,
                watchdog: WatchdogConfig::default(),
                repair: false,
                leg_cap_bps: None,
                fec_cap: 0.0,
                n_legs: 2,
                coupled_cc: false,
            },
            hold: None,
        }
    }
}

impl ExperimentConfigBuilder {
    /// Flight area (default rural).
    pub fn environment(mut self, environment: Environment) -> Self {
        self.config.environment = environment;
        self
    }

    /// Cellular operator (default P1).
    pub fn operator(mut self, operator: Operator) -> Self {
        self.config.operator = operator;
        self
    }

    /// Air or ground (default air). The hover hold follows the mobility's
    /// paper default unless [`hold`](Self::hold) overrides it.
    pub fn mobility(mut self, mobility: Mobility) -> Self {
        self.config.mobility = mobility;
        self
    }

    /// Video workload (default GCC).
    pub fn cc(mut self, cc: CcMode) -> Self {
        self.config.cc = cc;
        self
    }

    /// Master seed — the campaign identity (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Run index within the campaign (default 0).
    pub fn run_index(mut self, run_index: u64) -> Self {
        self.config.run_index = run_index;
        self
    }

    /// Override the hover/sweep hold between flight legs.
    pub fn hold(mut self, hold: SimDuration) -> Self {
        self.hold = Some(hold);
        self
    }

    /// [`hold`](Self::hold) in whole seconds — the common test shorthand.
    pub fn hold_secs(self, secs: u64) -> Self {
        self.hold(SimDuration::from_secs(secs))
    }

    /// Ground-run sweep count (default 3).
    pub fn ground_sweeps(mut self, sweeps: usize) -> Self {
        self.config.ground_sweeps = sweeps;
        self
    }

    /// Jitter-buffer drop-on-latency mode (App. A.4 ablation).
    pub fn drop_on_latency(mut self, on: bool) -> Self {
        self.config.drop_on_latency = on;
        self
    }

    /// Override the A3 hysteresis (dB) — the §5 mobility-parameter sweep.
    pub fn hysteresis_db(mut self, db: f64) -> Self {
        self.config.hysteresis_override_db = Some(db);
        self
    }

    /// Override the A3 time-to-trigger (ms) — same sweep.
    pub fn ttt_ms(mut self, ms: u64) -> Self {
        self.config.ttt_override_ms = Some(ms);
        self
    }

    /// Override the receiver jitter-buffer target (ms).
    pub fn jitter_target_ms(mut self, ms: u64) -> Self {
        self.config.jitter_target_override_ms = Some(ms);
        self
    }

    /// Replace the feedback-starvation watchdog configuration.
    pub fn watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.config.watchdog = watchdog;
        self
    }

    /// Flip only the watchdog master switch (`false` reproduces the stock
    /// frozen-rate outage behaviour).
    pub fn watchdog_enabled(mut self, enabled: bool) -> Self {
        self.config.watchdog.enabled = enabled;
        self
    }

    /// NACK/RTX loss repair (default off, like the paper's stack).
    pub fn repair(mut self, on: bool) -> Self {
        self.config.repair = on;
        self
    }

    /// Cap the per-leg uplink capacities (primary, secondary) in bps —
    /// the bonded scheme's asymmetric-leg ablation.
    pub fn leg_caps(mut self, primary_bps: f64, secondary_bps: f64) -> Self {
        self.config.leg_cap_bps = Some((primary_bps, secondary_bps));
        self
    }

    /// Ceiling on the bonded scheme's adaptive FEC overhead ratio
    /// (default 0.0 = FEC off).
    pub fn fec_cap(mut self, cap: f64) -> Self {
        self.config.fec_cap = cap;
        self
    }

    /// Number of cellular legs for the multipath drivers, clamped to
    /// 1..=[`MAX_LEGS`] (default 2).
    pub fn n_legs(mut self, n: usize) -> Self {
        self.config.n_legs = n.clamp(1, MAX_LEGS);
        self
    }

    /// Per-leg shadow congestion control with an aggregate allocator
    /// (default off; Bonded scheme only).
    pub fn coupled_cc(mut self, on: bool) -> Self {
        self.config.coupled_cc = on;
        self
    }

    /// Assemble the configuration, filling paper defaults for anything not
    /// explicitly set.
    pub fn build(self) -> ExperimentConfig {
        ExperimentConfig {
            hold: self
                .hold
                .unwrap_or_else(|| ExperimentConfig::paper_hold(self.config.mobility)),
            ..self.config
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_static_bitrates() {
        match CcMode::paper_static(Environment::Urban) {
            CcMode::Static { bitrate_bps } => assert_eq!(bitrate_bps, 25e6),
            _ => panic!(),
        }
        match CcMode::paper_static(Environment::Rural) {
            CcMode::Static { bitrate_bps } => assert_eq!(bitrate_bps, 8e6),
            _ => panic!(),
        }
    }

    #[test]
    fn labels_read_like_the_figures() {
        let c = ExperimentConfig::builder().seed(1).build();
        assert_eq!(c.label(), "GCC-Rural-P1-Air");
        assert_eq!(c.hold, SimDuration::from_secs(5));
        let g = ExperimentConfig::builder()
            .environment(Environment::Urban)
            .operator(Operator::P2)
            .mobility(Mobility::Ground)
            .cc(CcMode::paper_scream())
            .seed(1)
            .build();
        assert_eq!(g.label(), "SCReAM-Urban-P2-Grd");
        assert_eq!(g.hold, SimDuration::from_secs(45));
    }

    #[test]
    fn label_discriminates_non_default_workloads() {
        let base = ExperimentConfig::builder();
        // Formerly colliding: SCReAM at stock vs widened ack span.
        let stock = base.cc(CcMode::Scream { ack_span: 64 }).build();
        let wide = base.cc(CcMode::paper_scream()).build();
        assert_ne!(stock.label(), wide.label());
        assert_eq!(stock.label(), "SCReAM[s64]-Rural-P1-Air");
        // Formerly colliding: paper-rate vs custom-rate Static.
        let paper = base.cc(CcMode::paper_static(Environment::Rural)).build();
        let custom = base.cc(CcMode::Static { bitrate_bps: 12e6 }).build();
        assert_ne!(paper.label(), custom.label());
        // Formerly colliding: repair off vs on.
        let plain = base.build();
        let repaired = base.repair(true).build();
        assert_ne!(plain.label(), repaired.label());
        // Ablation knobs discriminate too.
        assert_ne!(base.drop_on_latency(true).build().label(), plain.label());
        assert_ne!(base.jitter_target_ms(50).build().label(), plain.label());
        assert_ne!(base.hysteresis_db(2.0).build().label(), plain.label());
        assert_ne!(base.ttt_ms(128).build().label(), plain.label());
        assert_ne!(base.watchdog_enabled(false).build().label(), plain.label());
        // Bonding knobs discriminate: asymmetric caps and the FEC ceiling.
        let capped = base.leg_caps(3e6, 2e6).build();
        assert_ne!(capped.label(), plain.label());
        assert_eq!(capped.label(), "GCC-Rural-P1-Air+cap3.0/2.0");
        let fec = base.fec_cap(0.25).build();
        assert_ne!(fec.label(), plain.label());
        assert_eq!(fec.label(), "GCC-Rural-P1-Air+fec0.25");
        // N-leg knobs discriminate; the historical 2-leg default stays bare.
        let three = base.n_legs(3).build();
        assert_ne!(three.label(), plain.label());
        assert_eq!(three.label(), "GCC-Rural-P1-Air+legs3");
        assert_eq!(base.n_legs(2).build().label(), plain.label());
        let coupled = base.coupled_cc(true).build();
        assert_ne!(coupled.label(), plain.label());
        assert_eq!(coupled.label(), "GCC-Rural-P1-Air+ccc");
    }

    #[test]
    fn n_legs_clamps_to_supported_range() {
        assert_eq!(ExperimentConfig::builder().n_legs(0).build().n_legs, 1);
        assert_eq!(
            ExperimentConfig::builder().n_legs(9).build().n_legs,
            MAX_LEGS
        );
    }
}
