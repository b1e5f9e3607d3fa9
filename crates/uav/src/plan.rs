//! Waypoint-based piecewise-linear kinematics.

use rpav_sim::{SimDuration, SimTime};

use crate::geo::{Position, Velocity};

/// One segment of a [`FlightPlan`].
#[derive(Clone, Copy, Debug)]
pub enum Leg {
    /// Fly in a straight line to `to` at `speed_mps` (must be > 0).
    Goto {
        /// Destination waypoint.
        to: Position,
        /// Constant speed along the leg (m/s).
        speed_mps: f64,
    },
    /// Hold the current position for a duration (hover, or a parked ground
    /// vehicle).
    Hold {
        /// How long to hold.
        duration: SimDuration,
    },
}

/// A mobility model: a start position plus a list of legs, sampled with
/// piecewise-linear interpolation. After the final leg the vehicle holds its
/// last position indefinitely.
#[derive(Clone, Debug)]
pub struct FlightPlan {
    start: Position,
    /// Compiled segments: (start_time, end_time, from, to).
    segments: Vec<Segment>,
    total: SimDuration,
}

#[derive(Clone, Copy, Debug)]
struct Segment {
    t0: SimTime,
    t1: SimTime,
    from: Position,
    to: Position,
}

impl FlightPlan {
    /// Compile `legs` into a sampled plan starting at `start` at t = 0.
    ///
    /// # Panics
    /// Panics if a `Goto` leg has a non-positive speed.
    pub fn new(start: Position, legs: &[Leg]) -> Self {
        let mut segments = Vec::with_capacity(legs.len());
        let mut pos = start;
        let mut t = SimTime::ZERO;
        for leg in legs {
            match *leg {
                Leg::Goto { to, speed_mps } => {
                    assert!(speed_mps > 0.0, "Goto leg needs positive speed");
                    let dist = pos.distance(&to);
                    let dur = SimDuration::from_secs_f64(dist / speed_mps);
                    let t1 = t + dur;
                    segments.push(Segment {
                        t0: t,
                        t1,
                        from: pos,
                        to,
                    });
                    pos = to;
                    t = t1;
                }
                Leg::Hold { duration } => {
                    let t1 = t + duration;
                    segments.push(Segment {
                        t0: t,
                        t1,
                        from: pos,
                        to: pos,
                    });
                    t = t1;
                }
            }
        }
        FlightPlan {
            start,
            segments,
            total: t.saturating_since(SimTime::ZERO),
        }
    }

    /// Total duration of the plan.
    pub fn duration(&self) -> SimDuration {
        self.total
    }

    /// Position at time `t` (clamped to the end of the plan).
    pub fn position_at(&self, t: SimTime) -> Position {
        for seg in &self.segments {
            if t < seg.t1 {
                if t <= seg.t0 {
                    return seg.from;
                }
                let span = seg.t1.saturating_since(seg.t0).as_secs_f64();
                if span <= 0.0 {
                    return seg.to;
                }
                let frac = t.saturating_since(seg.t0).as_secs_f64() / span;
                return seg.from + (seg.to - seg.from) * frac;
            }
        }
        self.segments.last().map(|s| s.to).unwrap_or(self.start)
    }

    /// Velocity at time `t` (zero during holds and after the plan ends).
    pub fn velocity_at(&self, t: SimTime) -> Velocity {
        for seg in &self.segments {
            if t >= seg.t0 && t < seg.t1 {
                let span = seg.t1.saturating_since(seg.t0).as_secs_f64();
                if span <= 0.0 {
                    return Velocity::default();
                }
                return (seg.to - seg.from) * (1.0 / span);
            }
        }
        Velocity::default()
    }

    /// Maximum altitude reached anywhere on the plan.
    pub fn max_altitude(&self) -> f64 {
        self.segments
            .iter()
            .flat_map(|s| [s.from.z, s.to.z])
            .fold(self.start.z, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_plan() -> FlightPlan {
        FlightPlan::new(
            Position::ground(0.0, 0.0),
            &[
                // Climb 40 m at 4 m/s: 10 s.
                Leg::Goto {
                    to: Position::new(0.0, 0.0, 40.0),
                    speed_mps: 4.0,
                },
                // Hold 5 s.
                Leg::Hold {
                    duration: SimDuration::from_secs(5),
                },
                // Cruise 100 m east at 10 m/s: 10 s.
                Leg::Goto {
                    to: Position::new(100.0, 0.0, 40.0),
                    speed_mps: 10.0,
                },
            ],
        )
    }

    #[test]
    fn duration_is_sum_of_legs() {
        assert_eq!(simple_plan().duration(), SimDuration::from_secs(25));
    }

    #[test]
    fn position_interpolates_linearly() {
        let p = simple_plan();
        assert_eq!(p.position_at(SimTime::ZERO), Position::ground(0.0, 0.0));
        // Mid-climb.
        let mid = p.position_at(SimTime::from_secs(5));
        assert!((mid.z - 20.0).abs() < 1e-9);
        // Top of climb through the hold.
        assert!((p.position_at(SimTime::from_secs(10)).z - 40.0).abs() < 1e-9);
        assert!((p.position_at(SimTime::from_secs(12)).z - 40.0).abs() < 1e-9);
        // Mid-cruise.
        let cruise = p.position_at(SimTime::from_secs(20));
        assert!((cruise.x - 50.0).abs() < 1e-9);
        assert!((cruise.z - 40.0).abs() < 1e-9);
    }

    #[test]
    fn position_clamps_after_end() {
        let p = simple_plan();
        let end = p.position_at(SimTime::from_secs(1_000));
        assert!((end.x - 100.0).abs() < 1e-9);
        assert!((end.z - 40.0).abs() < 1e-9);
    }

    #[test]
    fn velocity_reflects_leg() {
        let p = simple_plan();
        let climb = p.velocity_at(SimTime::from_secs(5));
        assert!((climb.z - 4.0).abs() < 1e-9);
        assert!(climb.horizontal_speed() < 1e-9);
        let hold = p.velocity_at(SimTime::from_secs(11));
        assert_eq!(hold, Velocity::default());
        let cruise = p.velocity_at(SimTime::from_secs(20));
        assert!((cruise.x - 10.0).abs() < 1e-9);
        assert_eq!(p.velocity_at(SimTime::from_secs(30)), Velocity::default());
    }

    #[test]
    fn max_altitude_and_aerial() {
        let p = simple_plan();
        assert!((p.max_altitude() - 40.0).abs() < 1e-9);
        let flat = FlightPlan::new(
            Position::ground(0.0, 0.0),
            &[Leg::Goto {
                to: Position::ground(500.0, 0.0),
                speed_mps: 10.0,
            }],
        );
        assert_eq!(flat.max_altitude(), 0.0);
    }

    #[test]
    fn empty_plan_holds_start() {
        let p = FlightPlan::new(Position::new(1.0, 2.0, 3.0), &[]);
        assert_eq!(p.duration(), SimDuration::ZERO);
        assert_eq!(
            p.position_at(SimTime::from_secs(9)),
            Position::new(1.0, 2.0, 3.0)
        );
    }

    #[test]
    #[should_panic(expected = "positive speed")]
    fn zero_speed_goto_panics() {
        FlightPlan::new(
            Position::ground(0.0, 0.0),
            &[Leg::Goto {
                to: Position::ground(1.0, 0.0),
                speed_mps: 0.0,
            }],
        );
    }
}
