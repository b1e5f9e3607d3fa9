//! Allocation discipline of the radio tick.
//!
//! Every per-tick buffer in the radio model — the dense RSRP scratch, the
//! geometry structure-of-arrays, the shadowing/fading slot arrays, the
//! handover engine's filtered/TTT vectors, the distinct-cell set — is
//! sized when the model is built and then reused across handover epochs.
//! This test pins that down: a freshly built model's radio ticks perform
//! *zero* heap allocations from the first one on, and so do a warmed-up
//! model's, measured with the shared counting allocator.
//!
//! The counters are process-wide, so this binary holds one `#[test]`: a
//! second one running concurrently would charge its events to this one.

use rpav_lte::profiles::{Environment, NetworkProfile, Operator};
use rpav_lte::radio::RadioModel;
use rpav_sim::{RngSet, SimTime};
use rpav_uav::Position;

#[global_allocator]
static GLOBAL: rpav_sim::alloc::CountingAlloc = rpav_sim::alloc::CountingAlloc;

/// Position on a closed loop that climbs and descends, crossing several
/// cell borders per lap so handovers (and their state resets) happen both
/// during warm-up and during the measured window.
fn loop_pos(i: u64) -> Position {
    let theta = (i % 600) as f64 / 600.0 * std::f64::consts::TAU;
    Position::new(
        400.0 * theta.cos(),
        400.0 * theta.sin(),
        40.0 + 30.0 * (2.0 * theta).sin(),
    )
}

/// Allocation events over `steps` radio ticks of `model` on the loop,
/// starting at tick `first`, and the handovers among them.
fn measure(model: &mut RadioModel, first: u64, steps: u64) -> (u64, usize) {
    let tick = model.tick();
    let before = rpav_sim::alloc::events();
    let mut handovers = 0usize;
    for i in first..first + steps {
        let t = SimTime::ZERO + tick * i;
        handovers += model.step(t, &loop_pos(i)).handover.is_some() as usize;
    }
    (rpav_sim::alloc::events() - before, handovers)
}

#[test]
fn radio_step_steady_state_allocates_nothing() {
    // A fresh model, no warm-up: construction sized every buffer, so the
    // very first tick allocates nothing either.
    for env in [Environment::Urban, Environment::Rural] {
        let profile = NetworkProfile::new(env, Operator::P1);
        let mut model = RadioModel::new(&profile, &RngSet::new(0xF2E5), 0);
        let (allocs, handovers) = measure(&mut model, 0, 3_000);
        assert!(handovers > 0, "{env:?}: the loop must cross cell borders");
        assert_eq!(
            allocs, 0,
            "{env:?}: a fresh model's first 3 000 radio ticks allocated {allocs} times"
        );
    }

    let profile = NetworkProfile::new(Environment::Urban, Operator::P1);
    let rngs = RngSet::new(0xA110C);
    let mut model = RadioModel::new(&profile, &rngs, 0);

    // Warm-up: several full laps, so every scratch vector has reached its
    // steady-state capacity and the distinct-cell set has stabilised.
    let (_, handovers_warm) = measure(&mut model, 0, 3_000);
    assert!(
        handovers_warm > 0,
        "warm-up must cross cell borders for the test to mean anything"
    );

    // Measured window: more laps over the same ground. Zero allocations —
    // not "few": any growth here is a per-tick buffer that escaped reuse.
    let (allocs, handovers_measured) = measure(&mut model, 3_000, 3_000);
    assert_eq!(
        allocs, 0,
        "steady-state radio ticks allocated {allocs} times \
         ({handovers_measured} handovers in window)"
    );
}
