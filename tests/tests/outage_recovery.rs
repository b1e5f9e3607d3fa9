//! End-to-end outage survival: a 5 s mid-flight link blackout must not
//! permanently stall the pipeline under either adaptive controller.
//!
//! The bars mirror the chaos campaign's acceptance criteria
//! (`rpav-bench`'s `chaos_matrix`): frames are displayed again after the
//! blackout, and the delivered rate is back to at least 50 % of the
//! pre-outage baseline within 30 s. Getting there exercises the whole
//! recovery chain — feedback-starvation watchdog, PLI → forced IDR, and
//! jitter-target inflation.

use rpav_core::prelude::*;
use rpav_netem::FaultScript;
use rpav_sim::{SimDuration, SimTime};

const BLACKOUT_AT: SimTime = SimTime::from_secs(120);
const BLACKOUT_LEN: SimDuration = SimDuration::from_secs(5);

fn run_with_blackout(cc: CcMode) -> RunMetrics {
    let cfg = ExperimentConfig::builder()
        .environment(Environment::Urban)
        .cc(cc)
        .seed(0x1AC_2022)
        .build();
    let script = FaultScript::new().blackout(BLACKOUT_AT, BLACKOUT_LEN);
    Simulation::new(cfg).with_link_script(script).run()
}

fn assert_recovered(metrics: &RunMetrics, label: &str) {
    assert_eq!(metrics.outages.len(), 1, "{label}: one outage expected");
    let o = &metrics.outages[0];
    assert!(
        o.survived(),
        "{label}: no frame displayed after the blackout (permanent stall)"
    );
    let frames_after = metrics
        .frames
        .iter()
        .filter(|f| f.displayed && f.display_at >= o.until)
        .count();
    assert!(
        frames_after > 0,
        "{label}: zero frames delivered after the outage"
    );
    let half = o.time_to_half_rate_recovery().unwrap_or(SimDuration::MAX);
    assert!(
        half <= SimDuration::from_secs(30),
        "{label}: rate back to 50% of the {:.1} Mbps baseline only after \
         {} ms (bar 30 s)",
        o.baseline_bps / 1e6,
        half.as_millis()
    );
}

#[test]
fn gcc_survives_five_second_blackout() {
    let metrics = run_with_blackout(CcMode::Gcc);
    assert_recovered(&metrics, "GCC");
    // The recovery machinery actually fired: the watchdog noticed the
    // feedback gap and the receiver asked for (and got) a keyframe.
    assert!(metrics.watchdog_activations >= 1, "watchdog never armed in");
    assert!(
        metrics.watchdog_recoveries >= 1,
        "watchdog never ramped out"
    );
    assert!(metrics.plis_sent >= 1, "receiver never sent a PLI");
    assert!(metrics.forced_keyframes >= 1, "sender never forced an IDR");
}

#[test]
fn scream_survives_five_second_blackout() {
    let metrics = run_with_blackout(CcMode::Scream { ack_span: 64 });
    assert_recovered(&metrics, "SCReAM");
    assert!(metrics.watchdog_activations >= 1, "watchdog never armed in");
    assert!(metrics.plis_sent >= 1, "receiver never sent a PLI");
}

#[test]
fn multipath_cells_inherit_the_recovery_chain_and_its_counters() {
    // The same hostile link — a blackout, then a loss burst and a
    // bit-corruption window — under the single-operator session and as
    // leg 0's script of a multipath one: every mechanism and counter the
    // first has, the second has too.
    let cfg = ExperimentConfig::builder()
        .environment(Environment::Urban)
        .cc(CcMode::Gcc)
        .seed(0x1AC_2022)
        .hold_secs(1)
        .repair(true)
        .build();
    let script = FaultScript::new()
        .blackout(SimTime::from_secs(20), BLACKOUT_LEN)
        .loss_window(
            SimTime::from_secs(40),
            SimDuration::from_secs(10),
            0.2,
            None,
        )
        .corrupt_window(
            SimTime::from_secs(60),
            SimDuration::from_secs(20),
            0.05,
            None,
        );
    let single = Simulation::new(cfg).with_link_script(script.clone()).run();
    assert!(single.malformed_payloads > 0 && single.late_packets > 0);
    for scheme in [MultipathScheme::SinglePath, MultipathScheme::Bonded] {
        let m = Simulation::multipath(cfg, scheme, vec![Some(script.clone()), None]).run();
        let name = scheme.name();
        assert_eq!(m.radio.len(), single.radio.len(), "{name}: radio trace");
        assert!(m.malformed_payloads > 0, "{name}: malformed payloads");
        assert!(m.late_packets > 0, "{name}: late packets");
        assert!(m.plis_sent > 0, "{name}: receiver never sent a PLI");
        assert!(m.forced_keyframes > 0, "{name}: sender never forced an IDR");
    }
}
