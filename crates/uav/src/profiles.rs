//! Ready-made mobility profiles matching the paper's campaign.

use rpav_sim::SimDuration;

use crate::geo::Position;
use crate::plan::{FlightPlan, Leg};

/// Climb/descent rate used for the vertical segments (m/s). The DJI-M600
/// with a ≈5 kg payload climbs conservatively.
pub const CLIMB_RATE_MPS: f64 = 2.5;

/// Cruise speed for horizontal leaps: 13 km/h, the paper's median recorded
/// speed (§3.1).
pub const CRUISE_SPEED_MPS: f64 = 13.0 / 3.6;

/// Fastest recorded speed (60 km/h, §3.1) — used by the ground run's
/// reposition leg.
pub const MAX_SPEED_MPS: f64 = 60.0 / 3.6;

/// Horizontal leap length at each altitude step (m), per Appendix A.2.
pub const LEAP_LENGTH_M: f64 = 200.0;

/// The altitude steps of the paper trajectory (m), per Appendix A.2.
pub const ALTITUDE_STEPS_M: [f64; 3] = [40.0, 80.0, 120.0];

/// Build the paper's flight trajectory (Fig. 11) starting from `origin`:
/// lift off vertically to 40 m, leap ≈200 m horizontally, repeat the
/// climb-and-leap at 80 m and 120 m (alternating direction), then descend
/// straight down. Total air time ≈6 minutes.
///
/// `hold` is the hover time inserted after each leg (the real pilot pauses
/// to stabilise before the next manoeuvre).
pub fn paper_flight(origin: Position, hold: SimDuration) -> FlightPlan {
    let (x0, y0) = (origin.x, origin.y);
    let mut legs = Vec::new();
    let mut x = x0;
    for (i, alt) in ALTITUDE_STEPS_M.iter().enumerate() {
        // Climb vertically to the next altitude step.
        legs.push(Leg::Goto {
            to: Position::new(x, y0, *alt),
            speed_mps: CLIMB_RATE_MPS,
        });
        legs.push(Leg::Hold { duration: hold });
        // Horizontal leap, alternating outbound/return.
        x = if i % 2 == 0 { x0 + LEAP_LENGTH_M } else { x0 };
        legs.push(Leg::Goto {
            to: Position::new(x, y0, *alt),
            speed_mps: CRUISE_SPEED_MPS,
        });
        legs.push(Leg::Hold { duration: hold });
    }
    // Straight descent from the end of the last leap.
    legs.push(Leg::Goto {
        to: Position::new(x, y0, 0.0),
        speed_mps: CLIMB_RATE_MPS,
    });
    FlightPlan::new(Position::ground(x0, y0), &legs)
}

/// Build the motorbike ground run used as the terrestrial baseline (§4.1):
/// out-and-back sweeps along the UAV's 200 m leap track at flight-like
/// speeds, with stationary holds — the paper notes the ground dataset
/// "likely includes longer durations without horizontal movements", so the
/// holds are generous.
pub fn ground_run(origin: Position, sweeps: usize, hold: SimDuration) -> FlightPlan {
    let (x0, y0) = (origin.x, origin.y);
    let far = x0 + LEAP_LENGTH_M;
    let mut legs = Vec::new();
    legs.push(Leg::Hold { duration: hold });
    for i in 0..sweeps {
        // Alternate between cruise-speed and one faster sweep to cover the
        // speed range the UAV sees.
        let speed = if i == sweeps / 2 {
            MAX_SPEED_MPS
        } else {
            CRUISE_SPEED_MPS
        };
        legs.push(Leg::Goto {
            to: Position::ground(far, y0),
            speed_mps: speed,
        });
        legs.push(Leg::Hold { duration: hold });
        legs.push(Leg::Goto {
            to: Position::ground(x0, y0),
            speed_mps: speed,
        });
        legs.push(Leg::Hold { duration: hold });
    }
    FlightPlan::new(Position::ground(x0, y0), &legs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpav_sim::SimTime;

    #[test]
    fn paper_flight_duration_is_about_six_minutes() {
        let plan = paper_flight(Position::ground(0.0, 0.0), SimDuration::from_secs(5));
        let mins = plan.duration().as_secs_f64() / 60.0;
        assert!(
            (4.5..8.0).contains(&mins),
            "air time was {mins:.1} min, expected ≈6"
        );
    }

    #[test]
    fn paper_flight_reaches_all_altitude_steps() {
        let plan = paper_flight(Position::ground(0.0, 0.0), SimDuration::from_secs(5));
        assert!((plan.max_altitude() - 120.0).abs() < 1e-9);
        // Sample densely and confirm each step is visited as a plateau.
        let mut seen = [false; 3];
        let n = 4_000;
        for i in 0..n {
            let t = SimTime::from_secs_f64(plan.duration().as_secs_f64() * i as f64 / n as f64);
            let z = plan.position_at(t).z;
            for (k, step) in ALTITUDE_STEPS_M.iter().enumerate() {
                if (z - step).abs() < 0.5 {
                    seen[k] = true;
                }
            }
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn paper_flight_lands() {
        let plan = paper_flight(Position::ground(0.0, 0.0), SimDuration::from_secs(5));
        let end = plan.position_at(SimTime::ZERO + plan.duration());
        assert!(end.z.abs() < 1e-9, "did not land: {end:?}");
    }

    #[test]
    fn paper_flight_speed_profile() {
        let plan = paper_flight(Position::ground(0.0, 0.0), SimDuration::from_secs(5));
        let n = 2_000;
        let mut max_kmph: f64 = 0.0;
        for i in 0..n {
            let t = SimTime::from_secs_f64(plan.duration().as_secs_f64() * i as f64 / n as f64);
            max_kmph = max_kmph.max(plan.velocity_at(t).horizontal_kmph());
        }
        // Horizontal speed never exceeds the paper's recorded max.
        assert!(max_kmph <= 60.0 + 1e-9, "max speed {max_kmph} km/h");
        assert!(max_kmph >= 12.0, "cruise speed missing: {max_kmph} km/h");
    }

    #[test]
    fn ground_run_stays_on_the_ground() {
        let plan = ground_run(Position::ground(0.0, 0.0), 3, SimDuration::from_secs(20));
        let n = 500;
        for i in 0..n {
            let t = SimTime::from_secs_f64(plan.duration().as_secs_f64() * i as f64 / n as f64);
            assert!(plan.position_at(t).z.abs() < 1e-9);
        }
    }

    #[test]
    fn ground_run_includes_fast_sweep() {
        let plan = ground_run(Position::ground(0.0, 0.0), 3, SimDuration::from_secs(5));
        let n = 4_000;
        let mut max_kmph: f64 = 0.0;
        for i in 0..n {
            let t = SimTime::from_secs_f64(plan.duration().as_secs_f64() * i as f64 / n as f64);
            max_kmph = max_kmph.max(plan.velocity_at(t).horizontal_kmph());
        }
        assert!((max_kmph - 60.0).abs() < 1.0, "max was {max_kmph}");
    }

    #[test]
    fn ground_run_returns_to_origin() {
        let plan = ground_run(Position::ground(0.0, 0.0), 2, SimDuration::from_secs(5));
        let end = plan.position_at(SimTime::ZERO + plan.duration());
        assert!(end.horizontal_distance(&Position::ground(0.0, 0.0)) < 1e-6);
    }
}
