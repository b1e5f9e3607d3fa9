//! Radio channel: path loss, LoS/NLoS, correlated shadowing, RSRP, SINR,
//! and the SINR → uplink-throughput mapping.
//!
//! The stateful processes ([`ShadowingField`], [`TemporalFading`]) and the
//! geometry tables ([`GeometrySoa`]) are laid out as dense structure-of-
//! arrays indexed by cell slot (`CellId.0`, plus one trailing slot for the
//! cross-site common shadowing process): the radio tick walks contiguous
//! `f64` arrays instead of chasing `HashMap` entries. See DESIGN.md §5.

use rpav_sim::{SimDuration, SimRng, SimTime};
use rpav_uav::Position;

use crate::antenna;
use crate::cell::Cell;

/// Tunable propagation parameters; profiles in [`crate::profiles`] pick the
/// urban/rural values.
#[derive(Clone, Debug)]
pub struct ChannelParams {
    /// Reference path loss at 1 m (dB). ≈38.5 dB at 2 GHz free space.
    pub pl0_db: f64,
    /// Path-loss exponent under line-of-sight.
    pub pl_exp_los: f64,
    /// Path-loss exponent without line-of-sight.
    pub pl_exp_nlos: f64,
    /// Shadowing standard deviation under LoS (dB).
    pub shadow_sigma_los_db: f64,
    /// Shadowing standard deviation under NLoS (dB).
    pub shadow_sigma_nlos_db: f64,
    /// Shadowing decorrelation distance (m) — Gudmundson model.
    pub shadow_corr_dist_m: f64,
    /// Ground-level LoS probability scale (m): `p = exp(-d2d / scale)`.
    /// Small in cluttered urban streets, large in open rural terrain.
    pub los_scale_m: f64,
    /// Per-sample fast-fading standard deviation (dB).
    pub fast_fading_sigma_db: f64,
    /// Thermal noise + noise figure over the scheduled bandwidth (dBm).
    pub noise_dbm: f64,
    /// Fraction of neighbour cells transmitting on the observed resources
    /// (interference activity/load factor, 0–1).
    pub interference_activity: f64,
    /// Correlation of shadowing across sites (0–1). Nearby links share
    /// obstacles, so part of the shadowing is common to all cells and
    /// cancels in handover comparisons; 3GPP evaluations use 0.5.
    pub shadow_site_correlation: f64,
    /// Effective scheduled uplink bandwidth (Hz).
    pub uplink_bandwidth_hz: f64,
    /// Hard cap from the subscription/UE category (bit/s) — 50 Mbps for the
    /// paper's CAT4 uplink.
    pub uplink_cap_bps: f64,
}

/// Probability of line of sight from a ground-distance `d2d_m` away at UE
/// altitude `alt_m`.
///
/// On the ground LoS decays exponentially with distance through clutter;
/// with altitude the UE climbs above the clutter so LoS probability rises
/// towards 1 by ≈100 m — the mechanism behind the paper's "number of
/// line-of-sight channels to different BSs increases in the air" (§4.1).
pub fn los_probability(params: &ChannelParams, d2d_m: f64, alt_m: f64) -> f64 {
    let ground = (-d2d_m / params.los_scale_m).exp();
    let lift = (alt_m / 100.0).clamp(0.0, 1.0);
    ground + (1.0 - ground) * lift
}

/// Log-distance path loss (dB) over 3D distance `d3d_m`.
pub fn path_loss_db(params: &ChannelParams, d3d_m: f64, los: bool) -> f64 {
    let d = d3d_m.max(1.0);
    let n = if los {
        params.pl_exp_los
    } else {
        params.pl_exp_nlos
    };
    params.pl0_db + 10.0 * n * d.log10()
}

/// Expected path loss (dB) blending the LoS and NLoS branches by the LoS
/// probability (linear-power average). A UE moving or climbing sees a
/// smooth transition instead of tens-of-dB cliffs, which is both closer to
/// measured behaviour and essential for a sane handover rate: discrete
/// LoS flips would churn the cell ranking at every position-grid boundary.
pub fn blended_path_loss_db(params: &ChannelParams, d3d_m: f64, p_los: f64) -> f64 {
    let p = p_los.clamp(0.0, 1.0);
    let pl_los = path_loss_db(params, d3d_m, true);
    let pl_nlos = path_loss_db(params, d3d_m, false);
    let lin = p * 10f64.powf(-pl_los / 10.0) + (1.0 - p) * 10f64.powf(-pl_nlos / 10.0);
    -10.0 * lin.log10()
}

/// Per-cell spatially correlated shadowing (Gudmundson/AR-1 over distance
/// travelled), stored as dense per-slot arrays. Slots are cell indices
/// (`CellId.0`); the caller reserves extra slots for pseudo-processes such
/// as the cross-site common shadowing. The AR(1) arithmetic is exactly the
/// historical per-`HashMap`-entry recurrence — only the storage changed —
/// so sampled sequences are bit-identical.
#[derive(Debug)]
pub struct ShadowingField {
    values: Vec<f64>,
    last: Vec<Position>,
    init: Vec<bool>,
    corr_dist_m: f64,
}

impl ShadowingField {
    /// Create an empty field with the given decorrelation distance.
    pub fn new(corr_dist_m: f64) -> Self {
        ShadowingField {
            values: Vec::new(),
            last: Vec::new(),
            init: Vec::new(),
            corr_dist_m,
        }
    }

    fn grow_to(&mut self, slot: usize) {
        if slot >= self.values.len() {
            self.values.resize(slot + 1, 0.0);
            self.last.resize(slot + 1, Position::ground(0.0, 0.0));
            self.init.resize(slot + 1, false);
        }
    }

    /// Sample the shadowing value (dB) for `slot` at `pos`, evolving the
    /// per-slot AR(1) state by the distance moved since the last sample.
    pub fn sample(&mut self, slot: usize, pos: &Position, sigma_db: f64, rng: &mut SimRng) -> f64 {
        self.grow_to(slot);
        if !self.init[slot] {
            let v = rng.normal(0.0, sigma_db);
            self.values[slot] = v;
            self.last[slot] = *pos;
            self.init[slot] = true;
            return v;
        }
        let moved = pos.distance(&self.last[slot]);
        if moved <= 0.0 {
            return self.values[slot];
        }
        let rho = (-moved / self.corr_dist_m).exp();
        let innov = rng.normal(0.0, sigma_db * (1.0 - rho * rho).sqrt());
        let v = rho * self.values[slot] + innov;
        self.values[slot] = v;
        self.last[slot] = *pos;
        v
    }
}

/// Per-cell fading that is correlated in *time* (AR(1) with a ~second-scale
/// time constant). Unlike per-tick white noise — which the UE's L3 filter
/// averages away — these fades persist across the time-to-trigger window,
/// so they are what actually flips cell rankings in flight. Physically they
/// stand in for the deep multipath/interference fades an aerial UE sweeps
/// through, which deepen with altitude (§4.1).
#[derive(Debug)]
pub struct TemporalFading {
    values: Vec<f64>,
    last: Vec<SimTime>,
    init: Vec<bool>,
    tau: SimDuration,
}

impl TemporalFading {
    /// Create a fading field with correlation time `tau`.
    pub fn new(tau: SimDuration) -> Self {
        TemporalFading {
            values: Vec::new(),
            last: Vec::new(),
            init: Vec::new(),
            tau,
        }
    }

    fn grow_to(&mut self, slot: usize) {
        if slot >= self.values.len() {
            self.values.resize(slot + 1, 0.0);
            self.last.resize(slot + 1, SimTime::ZERO);
            self.init.resize(slot + 1, false);
        }
    }

    /// Sample the fading value (dB) for `slot` at `now` with the given
    /// stationary standard deviation.
    pub fn sample(&mut self, slot: usize, now: SimTime, sigma_db: f64, rng: &mut SimRng) -> f64 {
        self.grow_to(slot);
        if !self.init[slot] {
            let v = rng.normal(0.0, sigma_db);
            self.values[slot] = v;
            self.last[slot] = now;
            self.init[slot] = true;
            return v;
        }
        let dt = now.saturating_since(self.last[slot]);
        if dt.is_zero() {
            return self.values[slot];
        }
        let rho = (-dt.as_secs_f64() / self.tau.as_secs_f64()).exp();
        let innov = rng.normal(0.0, sigma_db * (1.0 - rho * rho).sqrt());
        let v = rho * self.values[slot] + innov;
        self.values[slot] = v;
        self.last[slot] = now;
        v
    }
}

/// The deterministic (geometry-only) part of one cell's channel at one UE
/// position: everything that is a pure function of `(params, cell, pos)`.
/// The radio model caches these per position, so a hovering UE pays the
/// transcendental math (exp/log/atan2/antenna pattern) once instead of
/// once per tick per cell.
#[derive(Clone, Copy, Debug)]
pub struct CellGeometry {
    /// Received power (dBm) excluding shadowing/fading.
    pub mean_rsrp_dbm: f64,
    /// LoS probability at this geometry.
    pub p_los: f64,
    /// Shadowing standard deviation (dB): the LoS/NLoS sigmas blended by
    /// the LoS probability.
    pub sigma_db: f64,
}

/// Compute the full deterministic geometry for `cell` at `pos` — the
/// mean RSRP plus the LoS probability and blended shadowing sigma that the
/// radio model needs alongside it. `los_probability` is evaluated exactly
/// once and shared by the path-loss blend and the sigma blend (the two
/// call sites previously computed it twice with identical arguments).
pub fn cell_geometry(params: &ChannelParams, cell: &Cell, pos: &Position) -> CellGeometry {
    let d2d = cell.position.horizontal_distance(pos);
    let d3d = cell.position.distance(pos).max(1.0);
    let p_los = los_probability(params, d2d, pos.z);
    let pl = blended_path_loss_db(params, d3d, p_los);
    // Angles from the antenna towards the UE.
    let az_to_ue = (pos.y - cell.position.y)
        .atan2(pos.x - cell.position.x)
        .to_degrees();
    let phi = az_to_ue - cell.azimuth_deg;
    let theta = cell.position.elevation_deg_to(pos);
    // Stable per-cell side-lobe phase: antennas differ physically.
    let phase = (cell.id.0 as f64) * 2.399963; // golden angle, decorrelates
    let gain = antenna::gain_with_phase_dbi(phi, theta, cell.downtilt_deg, phase);
    CellGeometry {
        mean_rsrp_dbm: cell.tx_power_dbm + gain - pl,
        p_los,
        sigma_db: p_los * params.shadow_sigma_los_db + (1.0 - p_los) * params.shadow_sigma_nlos_db,
    }
}

/// Received power (dBm) from `cell` at `pos`, excluding shadowing/fading
/// (add those separately so their processes stay stateful).
pub fn mean_rsrp_dbm(params: &ChannelParams, cell: &Cell, pos: &Position) -> f64 {
    cell_geometry(params, cell, pos).mean_rsrp_dbm
}

/// Structure-of-arrays geometry table for a whole deployment at one UE
/// position: three contiguous `f64` arrays index-aligned with the cells.
/// The radio tick reads `mean[i]` / `sigma[i]` in a tight loop instead of
/// pulling 24-byte structs through the cache.
#[derive(Debug, Default)]
pub struct GeometrySoa {
    /// Received power (dBm) excluding shadowing/fading, per cell.
    pub mean_rsrp_dbm: Vec<f64>,
    /// LoS probability, per cell.
    pub p_los: Vec<f64>,
    /// Blended shadowing standard deviation (dB), per cell.
    pub sigma_db: Vec<f64>,
}

impl GeometrySoa {
    /// Recompute the table for `cells` at `pos`, reusing the arrays.
    pub fn fill(&mut self, params: &ChannelParams, cells: &[Cell], pos: &Position) {
        self.mean_rsrp_dbm.clear();
        self.p_los.clear();
        self.sigma_db.clear();
        self.mean_rsrp_dbm.reserve(cells.len());
        self.p_los.reserve(cells.len());
        self.sigma_db.reserve(cells.len());
        for cell in cells {
            let g = cell_geometry(params, cell, pos);
            self.mean_rsrp_dbm.push(g.mean_rsrp_dbm);
            self.p_los.push(g.p_los);
            self.sigma_db.push(g.sigma_db);
        }
    }
}

/// Convert dBm to milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Convert milliwatts to dBm.
pub fn mw_to_dbm(mw: f64) -> f64 {
    10.0 * mw.max(1e-30).log10()
}

/// SINR (dB) of the serving cell given all cells' received powers (dBm),
/// indexed by cell slot. The interference sum runs over one contiguous
/// `f64` slice; the serving term is skipped by index, preserving the
/// historical accumulation order exactly.
pub fn sinr_db(params: &ChannelParams, serving: usize, rsrp_dbm: &[f64]) -> f64 {
    let mut signal_mw = 0.0;
    let mut interf_mw = 0.0;
    for (idx, dbm) in rsrp_dbm.iter().enumerate() {
        if idx == serving {
            signal_mw = dbm_to_mw(*dbm);
        } else {
            interf_mw += dbm_to_mw(*dbm);
        }
    }
    let noise_mw = dbm_to_mw(params.noise_dbm);
    let denom = noise_mw + params.interference_activity * interf_mw;
    mw_to_dbm(signal_mw) - mw_to_dbm(denom)
}

/// Extra per-packet air-interface delay from HARQ/RLC retransmissions at
/// low SINR. At the cell edge (the window before a handover) packets need
/// several retransmission rounds, which shows up as a one-way-latency
/// spike that disappears the instant the UE switches to the better cell —
/// the paper's Fig. 8(a)/Fig. 9 mechanism ("spikes usually occur ≈0.5 s
/// before HOs").
pub fn harq_delay(sinr_db: f64) -> SimDuration {
    if sinr_db >= 10.0 {
        return SimDuration::ZERO;
    }
    // Each ~2.5 dB below the comfortable point doubles the expected
    // retransmission rounds (≈8 ms HARQ RTT each), clamped at 350 ms
    // (RLC re-segmentation territory).
    let ms = 5.0 * 2f64.powf((10.0 - sinr_db) / 2.5);
    SimDuration::from_secs_f64(ms.min(350.0) / 1e3)
}

/// Exact-bit memo in front of [`harq_delay`]: a small direct-mapped table
/// keyed by the raw bit pattern of the SINR. A hit returns the previously
/// computed duration for the *identical* input, so results are trivially
/// bit-identical to calling [`harq_delay`] directly (the equivalence suite
/// checks the whole pipeline against the un-memoized reference tick). The
/// win is on hovering/steady segments where the SINR repeats exactly.
#[derive(Debug)]
pub struct HarqMemo {
    entries: Vec<(u64, SimDuration)>,
}

/// Direct-mapped memo size (power of two).
const HARQ_MEMO_SLOTS: usize = 256;

impl Default for HarqMemo {
    fn default() -> Self {
        HarqMemo {
            // NaN bits never come in (SINR is finite), so they mark empty.
            entries: vec![(f64::NAN.to_bits(), SimDuration::ZERO); HARQ_MEMO_SLOTS],
        }
    }
}

impl HarqMemo {
    /// [`harq_delay`] through the memo.
    pub fn delay(&mut self, sinr_db: f64) -> SimDuration {
        if sinr_db >= 10.0 {
            return SimDuration::ZERO;
        }
        let bits = sinr_db.to_bits();
        let slot =
            (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize & (HARQ_MEMO_SLOTS - 1);
        let (key, cached) = self.entries[slot];
        if key == bits {
            return cached;
        }
        let d = harq_delay(sinr_db);
        self.entries[slot] = (bits, d);
        d
    }
}

/// Attenuated-Shannon mapping from SINR to achievable uplink throughput.
///
/// `thr = min(cap, bw · min(0.6 · log2(1 + sinr), 4.8))` — the standard LTE
/// link-level abstraction (implementation margin 0.6, spectral-efficiency
/// ceiling 4.8 bit/s/Hz ≈ 64-QAM rate-9/10).
pub fn uplink_throughput_bps(params: &ChannelParams, sinr_db: f64) -> f64 {
    let sinr = 10f64.powf(sinr_db / 10.0);
    let se = (0.6 * (1.0 + sinr).log2()).clamp(0.0, 4.8);
    (params.uplink_bandwidth_hz * se).min(params.uplink_cap_bps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellId;
    use rpav_sim::RngSet;

    fn params() -> ChannelParams {
        ChannelParams {
            pl0_db: 38.5,
            pl_exp_los: 2.1,
            pl_exp_nlos: 3.5,
            shadow_sigma_los_db: 4.0,
            shadow_sigma_nlos_db: 7.0,
            shadow_corr_dist_m: 50.0,
            los_scale_m: 150.0,
            fast_fading_sigma_db: 1.5,
            noise_dbm: -97.0,
            interference_activity: 0.3,
            shadow_site_correlation: 0.5,
            uplink_bandwidth_hz: 10e6,
            uplink_cap_bps: 50e6,
        }
    }

    fn cell_at(id: u32, x: f64, y: f64) -> Cell {
        Cell {
            id: CellId(id),
            site: id,
            azimuth_deg: 0.0,
            position: Position::new(x, y, 30.0),
            tx_power_dbm: 43.0,
            downtilt_deg: 8.0,
        }
    }

    #[test]
    fn los_probability_rises_with_altitude_and_falls_with_distance() {
        let p = params();
        let near_ground = los_probability(&p, 50.0, 1.5);
        let far_ground = los_probability(&p, 800.0, 1.5);
        assert!(near_ground > far_ground);
        let far_high = los_probability(&p, 800.0, 120.0);
        assert!(far_high > far_ground);
        assert!(far_high > 0.9);
        assert!((0.0..=1.0).contains(&near_ground));
    }

    #[test]
    fn path_loss_monotone_in_distance_and_los() {
        let p = params();
        assert!(path_loss_db(&p, 100.0, true) < path_loss_db(&p, 200.0, true));
        assert!(path_loss_db(&p, 100.0, true) < path_loss_db(&p, 100.0, false));
        // Sub-metre distances clamp.
        assert_eq!(path_loss_db(&p, 0.1, true), p.pl0_db);
    }

    #[test]
    fn shadowing_is_correlated_over_short_moves() {
        let p = params();
        let mut field = ShadowingField::new(p.shadow_corr_dist_m);
        let mut rng = RngSet::new(5).stream("shadow");
        let c = 0;
        let mut pos = Position::ground(0.0, 0.0);
        let first = field.sample(c, &pos, 7.0, &mut rng);
        // Tiny steps: values move slowly.
        let mut prev = first;
        let mut max_step: f64 = 0.0;
        for i in 1..100 {
            pos = Position::ground(i as f64 * 0.5, 0.0);
            let v = field.sample(c, &pos, 7.0, &mut rng);
            max_step = max_step.max((v - prev).abs());
            prev = v;
        }
        assert!(max_step < 7.0, "0.5 m steps should not jump a full sigma");
        // Re-sampling the same position returns the same value.
        let again = field.sample(c, &pos, 7.0, &mut rng);
        assert_eq!(again, prev);
    }

    #[test]
    fn shadowing_long_run_variance_matches_sigma() {
        let p = params();
        let mut field = ShadowingField::new(p.shadow_corr_dist_m);
        let mut rng = RngSet::new(6).stream("shadow");
        let c = 1;
        let mut vals = Vec::new();
        for i in 0..20_000 {
            // Move a full decorrelation distance each step: i.i.d. samples.
            let pos = Position::ground(i as f64 * 500.0, 0.0);
            vals.push(field.sample(c, &pos, 7.0, &mut rng));
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        assert!((var.sqrt() - 7.0).abs() < 0.5, "sigma was {}", var.sqrt());
    }

    #[test]
    fn closer_cell_is_stronger() {
        let p = params();
        let near = cell_at(0, 100.0, 0.0);
        let far = cell_at(1, 900.0, 0.0);
        let ue = Position::new(0.0, 0.0, 1.5);
        // Average over grid variety by sampling several UE spots.
        let mut wins = 0;
        for i in 0..20 {
            let ue = Position::new(ue.x + i as f64 * 3.0, 5.0, 1.5);
            if mean_rsrp_dbm(&p, &near, &ue) > mean_rsrp_dbm(&p, &far, &ue) {
                wins += 1;
            }
        }
        assert!(wins >= 16, "near cell won only {wins}/20");
    }

    #[test]
    fn sinr_decreases_with_interference() {
        let p = params();
        let powers_clean = vec![-70.0];
        let powers_busy = vec![-70.0, -75.0, -80.0];
        let clean = sinr_db(&p, 0, &powers_clean);
        let busy = sinr_db(&p, 0, &powers_busy);
        assert!(clean > busy);
        // Noise-limited case: SINR ≈ SNR.
        assert!((clean - (-70.0 - p.noise_dbm)).abs() < 0.5);
    }

    #[test]
    fn throughput_mapping_shape() {
        let p = params();
        // Monotone in SINR.
        assert!(uplink_throughput_bps(&p, 0.0) < uplink_throughput_bps(&p, 10.0));
        assert!(uplink_throughput_bps(&p, 10.0) < uplink_throughput_bps(&p, 20.0));
        // Capped by subscription.
        assert!(uplink_throughput_bps(&p, 60.0) <= p.uplink_cap_bps);
        // ~15 dB SINR over 10 MHz lands in the tens of Mbps.
        let mid = uplink_throughput_bps(&p, 15.0);
        assert!((20e6..50e6).contains(&mid), "mid SINR gave {mid}");
        // Very low SINR approaches zero.
        assert!(uplink_throughput_bps(&p, -20.0) < 1e6);
    }

    #[test]
    fn dbm_mw_roundtrip() {
        for dbm in [-120.0, -90.0, -30.0, 0.0, 20.0] {
            assert!((mw_to_dbm(dbm_to_mw(dbm)) - dbm).abs() < 1e-9);
        }
    }
}
