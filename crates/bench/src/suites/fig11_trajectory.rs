//! Figure 11 — the flight trajectory: lift-off to 40 m, a ≈200 m leap,
//! the same at 80 m and 120 m, then a straight descent.
//!
//! Prints the trajectory as `t x z speed` samples (CSV) plus the leg
//! summary. Altitude steps, leap length and speeds match Appendix A.2.

use rpav_bench::banner;
use rpav_sim::{SimDuration, SimTime};
use rpav_uav::{profiles, Position};

pub fn run(_: &crate::Args) {
    banner("Figure 11", "the measurement flight trajectory");
    let plan = profiles::paper_flight(Position::ground(0.0, 0.0), SimDuration::from_secs(5));
    println!(
        "air time: {:.1} min (paper: ≈6 min); max altitude {:.0} m",
        plan.duration().as_secs_f64() / 60.0,
        plan.max_altitude()
    );
    println!("t_s,x_m,altitude_m,speed_kmph");
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + plan.duration();
    while t <= end {
        let p = plan.position_at(t);
        let v = plan.velocity_at(t);
        println!(
            "{:.0},{:.1},{:.1},{:.1}",
            t.as_secs_f64(),
            p.x,
            p.z,
            v.horizontal_kmph()
        );
        t += SimDuration::from_secs(2);
    }
}
