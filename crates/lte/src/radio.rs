//! The radio-model facade the pipeline drives.

use std::collections::HashSet;

use rpav_sim::{RngSet, SimDuration, SimTime};
use rpav_uav::Position;

use crate::cell::{CellId, Deployment};
use crate::channel::{self, GeometrySoa, HarqMemo, ShadowingField, TemporalFading};
use crate::handover::{HandoverEngine, HandoverEvent, HandoverKind};
use crate::profiles::{Environment, NetworkProfile};

/// Direct radio-layer health signal derived from a [`RadioSample`] — the
/// modem-level event a path-health estimator can react to *before* any
/// transport-level symptom (feedback starvation, loss) shows up. A
/// failover controller uses these to mark a path degraded/dead for the
/// duration of the interruption instead of waiting out a feedback timeout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkHealthSignal {
    /// An ordinary (A3-triggered) handover is executing: the link is
    /// paused until `until`, then expected to resume at full quality.
    HandoverExecuting {
        /// Execution completion instant.
        until: SimTime,
    },
    /// A radio-link failure: connection re-establishment is in progress
    /// and the link must be treated as dead until `until`.
    RadioLinkFailure {
        /// Re-establishment completion instant.
        until: SimTime,
    },
}

impl LinkHealthSignal {
    /// When the interruption this signal announces is over.
    pub fn until(&self) -> SimTime {
        match self {
            LinkHealthSignal::HandoverExecuting { until }
            | LinkHealthSignal::RadioLinkFailure { until } => *until,
        }
    }
}

/// Snapshot of the radio link at one tick.
#[derive(Clone, Copy, Debug)]
pub struct RadioSample {
    /// Tick timestamp.
    pub now: SimTime,
    /// Serving cell at this tick.
    pub serving: CellId,
    /// Instantaneous serving-cell RSRP (dBm), shadowing and fading applied.
    pub rsrp_dbm: f64,
    /// Serving-cell SINR (dB).
    pub sinr_db: f64,
    /// Achievable uplink throughput right now (bit/s); zero during handover
    /// execution.
    pub uplink_capacity_bps: f64,
    /// Downlink capacity (bit/s); zero during handover execution.
    pub downlink_capacity_bps: f64,
    /// A handover whose execution started at this tick, if any.
    pub handover: Option<HandoverEvent>,
    /// True while a handover is executing (link interrupted).
    pub in_handover: bool,
    /// Number of cells received above the detection threshold — grows with
    /// altitude (§4.1).
    pub cells_visible: usize,
    /// Extra per-packet loss probability beyond the baseline bursty PER;
    /// non-zero only for the urban >80 m loss events (§4.2.1).
    pub extra_loss_prob: f64,
    /// Extra per-packet air-interface delay from HARQ/RLC retransmissions
    /// at the current SINR (the pre-handover latency-spike mechanism).
    pub retx_delay: rpav_sim::SimDuration,
}

impl RadioSample {
    /// The direct health signal this tick carries, if any: a handover
    /// whose execution started now maps to
    /// [`LinkHealthSignal::HandoverExecuting`], a radio-link failure to
    /// [`LinkHealthSignal::RadioLinkFailure`]. `None` on quiet ticks.
    pub fn health_signal(&self) -> Option<LinkHealthSignal> {
        self.handover.map(|ho| match ho.kind {
            HandoverKind::A3 => LinkHealthSignal::HandoverExecuting {
                until: ho.complete_at,
            },
            HandoverKind::RadioLinkFailure => LinkHealthSignal::RadioLinkFailure {
                until: ho.complete_at,
            },
        })
    }
}

/// Detection threshold below which a cell is invisible to the UE (dBm).
const DETECTION_THRESHOLD_DBM: f64 = -85.0;

/// The full radio model: deployment + channel processes + handover engine.
#[derive(Debug)]
pub struct RadioModel {
    profile: NetworkProfile,
    deployment: Deployment,
    shadowing: ShadowingField,
    fading: TemporalFading,
    engine: HandoverEngine,
    fading_rng: rpav_sim::SimRng,
    distinct_cells: HashSet<CellId>,
    /// Completion time of the most recent handover (drives the post-HO
    /// throughput ramp).
    last_ho_complete: Option<SimTime>,
    /// Dense per-cell RSRP scratch (dBm), index-aligned with the
    /// deployment, reused every tick: the measurement loop, SINR sum and
    /// visibility count all stream one contiguous `f64` slice.
    rsrp_scratch: Vec<f64>,
    /// Deterministic per-cell geometry (mean RSRP, LoS probability,
    /// shadowing sigma) for the position it was computed at, as
    /// structure-of-arrays. Geometry is a pure function of position, so
    /// while the UE hovers (every waypoint hold in the paper flight) the
    /// transcendental per-cell math is paid once instead of once per radio
    /// tick. Arrays are index-aligned with `deployment.cells`.
    geometry: GeometrySoa,
    geometry_pos: Option<Position>,
    /// Exact-bit memo over the HARQ-delay `powf` (bit-identical results).
    harq: HarqMemo,
}

impl RadioModel {
    /// Build the model for `profile`. `run_index` decorrelates the channel
    /// randomness between repeated runs while keeping the deployment
    /// identical (the campaign flew the same area repeatedly).
    pub fn new(profile: &NetworkProfile, rngs: &RngSet, run_index: u64) -> Self {
        let deployment = profile.build_deployment(rngs);
        let mut fading_rng = rngs.stream_indexed("lte.fading", run_index);
        let ho_rng = rngs.stream_indexed("lte.handover", run_index);
        // Every per-cell buffer is sized here, so `step` allocates nothing
        // from its first tick on. The shadowing field has one extra slot:
        // the cross-site common process.
        let n_cells = deployment.cells.len();
        let shadowing = ShadowingField::new(profile.channel.shadow_corr_dist_m, n_cells + 1);
        let fading = TemporalFading::new(SimDuration::from_millis(900), n_cells);

        // Camp on the strongest cell at the take-off pad.
        let origin = Position::ground(0.0, 0.0);
        let mut best = (CellId(0), f64::NEG_INFINITY);
        for cell in deployment.iter() {
            let p = channel::mean_rsrp_dbm(&profile.channel, cell, &origin);
            if p > best.1 {
                best = (cell.id, p);
            }
        }
        let engine = HandoverEngine::new(profile.handover.clone(), best.0, ho_rng, n_cells);
        let _ = fading_rng.uniform(); // decouple stream head from camping

        let mut distinct = HashSet::with_capacity(n_cells);
        distinct.insert(best.0);
        RadioModel {
            profile: profile.clone(),
            deployment,
            shadowing,
            fading,
            engine,
            fading_rng,
            distinct_cells: distinct,
            last_ho_complete: None,
            rsrp_scratch: Vec::with_capacity(n_cells),
            geometry: GeometrySoa::with_capacity(n_cells),
            geometry_pos: None,
            harq: HarqMemo::default(),
        }
    }

    /// Radio tick length (how often `step` should be called).
    pub fn tick(&self) -> SimDuration {
        self.profile.tick
    }

    /// The cell deployment in use.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Distinct cells the UE has been served by so far.
    pub fn distinct_cells(&self) -> usize {
        self.distinct_cells.len()
    }

    /// Advance one tick at position `pos`.
    pub fn step(&mut self, now: SimTime, pos: &Position) -> RadioSample {
        let airborne = pos.z > 2.0;

        // Measure every cell: mean + correlated shadowing + fast fading.
        // Shadowing splits into a component common to all sites (shared
        // obstacles around the UE) and a per-cell component; only the
        // latter can flip the cell ranking.
        // The cross-site common shadowing is caused by clutter around the
        // UE; it fades out with altitude as the UAV climbs above the
        // obstacles (so aerial SINR is not dragged down for seconds at a
        // time by a fluctuation no handover can escape).
        let corr = (self.profile.channel.shadow_site_correlation
            * (1.0 - (pos.z / 100.0).clamp(0.0, 1.0)))
        .clamp(0.0, 1.0);
        // Cell ids are dense deployment indices, so the channel processes
        // are slot-indexed arrays: slot `i` is `CellId(i)`, and one extra
        // trailing slot carries the cross-site common process (unit
        // variance; scaled per cell by its sigma).
        let n_cells = self.deployment.cells.len();
        let common_unit = self
            .shadowing
            .sample(n_cells, pos, 1.0, &mut self.fading_rng);
        if self.geometry_pos != Some(*pos) {
            self.geometry
                .fill(&self.profile.channel, &self.deployment.cells, pos);
            self.geometry_pos = Some(*pos);
        }
        // Temporally-correlated fading, deepening with altitude: the
        // aerial channel sweeps through second-scale multipath fades
        // that persist across the TTT window and flip cell rankings.
        let fading_sigma = self.profile.channel.fast_fading_sigma_db
            * (1.0 + 2.5 * (pos.z / 120.0).clamp(0.0, 1.0));
        let corr_sqrt = corr.sqrt();
        let rem_sqrt = (1.0 - corr).sqrt();
        self.rsrp_scratch.clear();
        self.rsrp_scratch.reserve(n_cells);
        // One fused pass in deployment (= index) order: the RNG draw order
        // per cell — own shadowing, then fading — is the historical one,
        // so the streams stay bit-identical.
        for i in 0..n_cells {
            let mean = self.geometry.mean_rsrp_dbm[i];
            let sigma = self.geometry.sigma_db[i];
            let own = self.shadowing.sample(i, pos, sigma, &mut self.fading_rng);
            let shadow = sigma * corr_sqrt * common_unit + rem_sqrt * own;
            let fading = self
                .fading
                .sample(i, now, fading_sigma, &mut self.fading_rng);
            self.rsrp_scratch.push(mean + shadow + fading);
        }

        let handover = self
            .engine
            .on_measurement(now, &self.rsrp_scratch, airborne);
        if let Some(ev) = &handover {
            self.last_ho_complete = Some(ev.complete_at);
        }
        let serving = self.engine.serving();
        self.distinct_cells.insert(serving);
        if let Some(ev) = &handover {
            self.distinct_cells.insert(ev.to);
        }
        let in_handover = self.engine.in_execution(now);

        let rsrp_dbm = self
            .rsrp_scratch
            .get(serving.0 as usize)
            .copied()
            .unwrap_or(f64::NEG_INFINITY);
        let sinr_db = channel::sinr_db(
            &self.profile.channel,
            serving.0 as usize,
            &self.rsrp_scratch,
        );
        // After a handover completes, uplink throughput ramps back over
        // ≈1 s while the UE re-synchronises with the target cell (CQI
        // reporting, power control, scheduling-grant history all restart).
        // This is what keeps one-way latency elevated *after* the HO in
        // Fig. 8 and makes the after-HO latency ratio smaller than the
        // before-HO one (Fig. 9).
        let ho_ramp = match self.last_ho_complete {
            Some(done) if now >= done => {
                let s = now.saturating_since(done).as_secs_f64();
                (0.6 + 0.4 * (s / 1.0)).clamp(0.6, 1.0)
            }
            _ => 1.0,
        };
        // Note: the handover *outage* itself is modelled by the pipeline
        // pausing the link for exactly the HET (see HandoverEvent); the
        // capacity reported here is what the link sustains around it, so
        // a 25 ms execution does not get stretched to a full radio tick.
        let capacity = (self.profile.capacity_scale
            * ho_ramp
            * channel::uplink_throughput_bps(&self.profile.channel, sinr_db))
        .min(self.profile.channel.uplink_cap_bps);
        let downlink = self.profile.downlink_rate_bps;
        let cells_visible = self
            .rsrp_scratch
            .iter()
            .filter(|v| **v > DETECTION_THRESHOLD_DBM)
            .count();

        // Urban high-altitude loss events (§4.2.1): small extra loss
        // probability ramping in above 80 m.
        // Calibrated so loss *events* (which damage a frame and propagate
        // to the next IDR) stay rare: ≈0.1–0.2 events/s at 25 Mbps.
        let extra_loss_prob = if self.profile.high_altitude_loss && pos.z > 80.0 {
            0.000_08 * ((pos.z - 80.0) / 40.0).clamp(0.0, 1.0)
        } else {
            0.0
        };

        RadioSample {
            now,
            serving,
            rsrp_dbm,
            sinr_db,
            uplink_capacity_bps: capacity,
            downlink_capacity_bps: downlink,
            handover,
            in_handover,
            cells_visible,
            extra_loss_prob,
            retx_delay: self.harq.delay(sinr_db),
        }
    }

    /// Which environment this model simulates.
    pub fn environment(&self) -> Environment {
        self.profile.environment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{Environment, NetworkProfile, Operator};
    use rpav_sim::RngSet;
    use rpav_uav::profiles::paper_flight;

    fn run_samples(env: Environment, op: Operator, seed: u64, aerial: bool) -> Vec<RadioSample> {
        let profile = NetworkProfile::new(env, op);
        let rngs = RngSet::new(seed);
        let mut model = RadioModel::new(&profile, &rngs, 0);
        let plan = if aerial {
            paper_flight(Position::ground(0.0, 0.0), SimDuration::from_secs(5))
        } else {
            rpav_uav::profiles::ground_run(
                Position::ground(0.0, 0.0),
                3,
                SimDuration::from_secs(20),
            )
        };
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + plan.duration();
        while t < end {
            let pos = plan.position_at(t);
            out.push(model.step(t, &pos));
            t += model.tick();
        }
        out
    }

    fn ho_rate(samples: &[RadioSample]) -> f64 {
        let hos = samples.iter().filter(|s| s.handover.is_some()).count();
        let dur = samples.len() as f64 * 0.1;
        hos as f64 / dur
    }

    #[test]
    fn urban_flight_produces_handovers() {
        let samples = run_samples(Environment::Urban, Operator::P1, 7, true);
        let rate = ho_rate(&samples);
        assert!(rate > 0.005, "urban aerial HO rate too low: {rate}/s");
        assert!(rate < 1.0, "urban aerial HO rate absurd: {rate}/s");
    }

    #[test]
    fn air_has_more_handovers_than_ground() {
        // Average over several seeds to keep the comparison stable.
        let mut air = 0.0;
        let mut ground = 0.0;
        for seed in 0..4 {
            air += ho_rate(&run_samples(Environment::Urban, Operator::P1, seed, true));
            ground += ho_rate(&run_samples(Environment::Urban, Operator::P1, seed, false));
        }
        assert!(
            air > ground * 2.0,
            "air {air:.4} should be well above ground {ground:.4}"
        );
    }

    #[test]
    fn more_cells_visible_at_altitude() {
        let profile = NetworkProfile::new(Environment::Urban, Operator::P1);
        let rngs = RngSet::new(0);
        let mut model = RadioModel::new(&profile, &rngs, 0);
        let low = model.step(SimTime::ZERO, &Position::new(100.0, 0.0, 1.5));
        let mut t = SimTime::ZERO;
        let mut high_vis = 0usize;
        let mut low_vis = low.cells_visible;
        // Average a few ticks at each altitude (fading varies per tick).
        for i in 0..20 {
            t += model.tick();
            let s = model.step(t, &Position::new(100.0, 0.0, 1.5));
            low_vis += s.cells_visible;
            let _ = i;
        }
        for _ in 0..21 {
            t += model.tick();
            let s = model.step(t, &Position::new(100.0, 0.0, 120.0));
            high_vis += s.cells_visible;
        }
        assert!(
            high_vis > low_vis,
            "visible cells high {high_vis} vs low {low_vis}"
        );
    }

    #[test]
    fn urban_capacity_exceeds_rural() {
        let urban = run_samples(Environment::Urban, Operator::P1, 11, true);
        let rural = run_samples(Environment::Rural, Operator::P1, 11, true);
        let mean = |s: &[RadioSample]| {
            s.iter().map(|x| x.uplink_capacity_bps).sum::<f64>() / s.len() as f64
        };
        let (u, r) = (mean(&urban), mean(&rural));
        assert!(
            u > 25e6,
            "urban uplink should support ≈40 Mbps streams, got {:.1} Mbps",
            u / 1e6
        );
        assert!(
            (5e6..20e6).contains(&r),
            "rural uplink should be ≈8–12 Mbps, got {:.1} Mbps",
            r / 1e6
        );
    }

    #[test]
    fn rural_p2_outperforms_p1() {
        let mean = |s: &[RadioSample]| {
            s.iter().map(|x| x.uplink_capacity_bps).sum::<f64>() / s.len() as f64
        };
        let hos = |s: &[RadioSample]| s.iter().filter(|x| x.handover.is_some()).count();
        let mut cap = (0.0, 0.0);
        let mut ho = (0usize, 0usize);
        for seed in 0..3 {
            let p1 = run_samples(Environment::Rural, Operator::P1, seed, true);
            let p2 = run_samples(Environment::Rural, Operator::P2, seed, true);
            cap = (cap.0 + mean(&p1), cap.1 + mean(&p2));
            ho = (ho.0 + hos(&p1), ho.1 + hos(&p2));
        }
        assert!(
            cap.1 > cap.0 * 1.3,
            "P2 {:.1} Mbps vs P1 {:.1} Mbps",
            cap.1 / 3e6,
            cap.0 / 3e6
        );
        // P2's denser rural grid also hands over more (Fig. 10b).
        assert!(ho.1 > ho.0, "P2 HOs {} vs P1 {}", ho.1, ho.0);
    }

    #[test]
    fn capacity_stays_finite_during_handover() {
        // The execution outage is modelled by the link pause (exact HET),
        // not by zeroing the tick-granular capacity — otherwise a 25 ms
        // handover would masquerade as a ≥100 ms outage.
        let samples = run_samples(Environment::Urban, Operator::P1, 13, true);
        assert!(samples.iter().any(|s| s.in_handover));
        for s in &samples {
            assert!(s.uplink_capacity_bps > 0.0);
            assert!(s.downlink_capacity_bps > 0.0);
        }
    }

    #[test]
    fn high_altitude_loss_only_in_urban() {
        let urban = run_samples(Environment::Urban, Operator::P1, 17, true);
        let rural = run_samples(Environment::Rural, Operator::P1, 17, true);
        assert!(urban.iter().any(|s| s.extra_loss_prob > 0.0));
        assert!(rural.iter().all(|s| s.extra_loss_prob == 0.0));
    }

    #[test]
    fn distinct_cells_accumulate() {
        let profile = NetworkProfile::new(Environment::Urban, Operator::P1);
        let rngs = RngSet::new(23);
        let mut model = RadioModel::new(&profile, &rngs, 0);
        let plan = paper_flight(Position::ground(0.0, 0.0), SimDuration::from_secs(5));
        let mut t = SimTime::ZERO;
        while t < SimTime::ZERO + plan.duration() {
            model.step(t, &plan.position_at(t));
            t += model.tick();
        }
        assert!(model.distinct_cells() >= 2);
        assert!(model.distinct_cells() <= model.deployment().len());
    }

    #[test]
    fn health_signals_map_handover_kinds() {
        // Quiet sample: no signal.
        let samples = run_samples(Environment::Urban, Operator::P1, 7, true);
        let quiet = samples
            .iter()
            .find(|s| s.handover.is_none())
            .expect("some tick without a handover");
        assert_eq!(quiet.health_signal(), None);
        // Every handover tick maps to a signal whose end matches the
        // event's completion and whose variant matches the kind.
        let mut saw_signal = false;
        for s in samples.iter().filter(|s| s.handover.is_some()) {
            let ho = s.handover.expect("filtered on is_some");
            let sig = s.health_signal().expect("handover tick must signal");
            saw_signal = true;
            assert_eq!(sig.until(), ho.complete_at);
            match ho.kind {
                crate::handover::HandoverKind::A3 => {
                    assert!(matches!(sig, LinkHealthSignal::HandoverExecuting { .. }))
                }
                crate::handover::HandoverKind::RadioLinkFailure => {
                    assert!(matches!(sig, LinkHealthSignal::RadioLinkFailure { .. }))
                }
            }
        }
        assert!(saw_signal, "urban flight produced no handovers to map");
    }

    #[test]
    fn deterministic_given_seed_and_run() {
        let profile = NetworkProfile::new(Environment::Rural, Operator::P1);
        let rngs = RngSet::new(77);
        let run = |idx: u64| {
            let mut model = RadioModel::new(&profile, &rngs, idx);
            let mut caps = Vec::new();
            for i in 0..100 {
                let t = SimTime::from_millis(i * 100);
                let pos = Position::new(i as f64, 0.0, 40.0);
                caps.push(model.step(t, &pos).uplink_capacity_bps);
            }
            caps
        };
        assert_eq!(run(0), run(0));
        assert_ne!(run(0), run(1));
    }
}
