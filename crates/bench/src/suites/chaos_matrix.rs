//! Chaos campaign — the outage-survival acceptance suite: scripted
//! mid-flight link blackouts {0.5, 2, 5, 10 s} × the three §3.2 workloads
//! × both environments. A group is one (environment, CC), its members the
//! outage lengths. Only outages ≤ 5 s are held to the recovery bars: AIMD
//! controllers then probe back to the 90 % mark linearly, which
//! legitimately takes tens of seconds at 25 Mbps.
//!
//! `--smoke` shrinks the sweep to one urban outage length per CC for CI.

use rpav_bench::acceptance::{Acceptance, Column, Group, Section, Verdict, FROZEN};
use rpav_bench::{ensure, invariants, paper_config};
use rpav_core::metrics::OutageRecord;
use rpav_core::prelude::*;
use rpav_netem::FaultScript;
use rpav_sim::{SimDuration, SimTime};

/// Blackout start: mid-flight, at altitude, well past CC convergence.
const BLACKOUT_AT: SimTime = SimTime::from_secs(120);
/// Recovery bars, for outages of at most [`SHORT`].
const FIRST_FRAME_BAR: SimDuration = SimDuration::from_secs(10);
const RATE_BAR: SimDuration = SimDuration::from_secs(30);
const SHORT: SimDuration = SimDuration::from_secs(5);

fn outage(m: &RunMetrics) -> &OutageRecord {
    &m.outages[0]
}

fn ms(d: Option<SimDuration>) -> String {
    d.map_or("-".into(), |d| format!("{:.0}", d.as_millis_f64()))
}

fn yes_no(survived: bool) -> String {
    if survived { "yes" } else { "NO" }.into()
}

pub(super) const COLUMNS: &[Column] = &[
    ("base_Mbps", |m| {
        format!("{:.1}", outage(m).baseline_bps / 1e6)
    }),
    ("ttff_ms", |m| ms(outage(m).time_to_first_frame())),
    ("r50_ms", |m| ms(outage(m).time_to_half_rate_recovery())),
    ("r90_ms", |m| ms(outage(m).time_to_rate_recovery())),
    ("pli", |m| m.plis_sent.to_string()),
    ("idr", |m| m.forced_keyframes.to_string()),
    ("wd_act", |m| m.watchdog_activations.to_string()),
    ("wd_rec", |m| m.watchdog_recoveries.to_string()),
    ("infl", |m| m.jitter_inflations.to_string()),
    ("survived", |m| yes_no(outage(m).survived())),
    FROZEN,
];

/// The members' (blackout length, metrics), shortest first; the length is
/// read from each cell's own fault script.
fn by_length<'a>(g: &Group<'a>) -> Vec<(SimDuration, &'a RunMetrics)> {
    let length = |c: &Cell| {
        let (from, until) = c.fault.uplink.as_ref().unwrap().blackout_windows()[0];
        until.saturating_since(from)
    };
    let mut series: Vec<_> = g.members.iter().map(|&(_, c, m)| (length(c), m)).collect();
    series.sort_by_key(|&(length, _)| length);
    series
}

/// No permanent stall: frames display, also after every blackout.
fn survives_every_blackout(g: &Group) -> Verdict {
    for (length, m) in by_length(g) {
        let shown = m.frames.iter().any(|f| f.displayed);
        ensure!(shown && m.survived_all_outages(), "frozen by {length:?}")?;
    }
    Ok(())
}

/// Outages ≤ 5 s: a frame displays within 10 s of the blackout's end.
fn short_outage_first_frame_within_10s(g: &Group) -> Verdict {
    for (length, m) in by_length(g).into_iter().filter(|&(l, _)| l <= SHORT) {
        let ttff = outage(m).time_to_first_frame().unwrap_or(SimDuration::MAX);
        ensure!(ttff <= FIRST_FRAME_BAR, "{length:?}: frame after {ttff:?}")?;
    }
    Ok(())
}

/// Outages ≤ 5 s: the rate is back to 50 % of baseline within 30 s.
fn short_outage_half_rate_within_30s(g: &Group) -> Verdict {
    for (length, m) in by_length(g).into_iter().filter(|&(l, _)| l <= SHORT) {
        let rate = outage(m).time_to_half_rate_recovery();
        let rate = rate.unwrap_or(SimDuration::MAX);
        ensure!(rate <= RATE_BAR, "{length:?}: 50 % rate after {rate:?}")?;
    }
    Ok(())
}

/// A longer blackout never finishes recovering (in absolute time) before a
/// shorter one.
fn recovery_monotone_in_outage_length(g: &Group) -> Verdict {
    let recovered = by_length(g)
        .into_iter()
        .map(|(l, m)| (l, outage(m).first_frame_after));
    for pair in recovered.collect::<Vec<_>>().windows(2) {
        if let [(short, Some(a)), (long, Some(b))] = pair {
            ensure!(a <= b, "{short:?} at {a:?}, {long:?} at {b:?}")?;
        }
    }
    Ok(())
}

pub fn run(args: &crate::Args) {
    let outages: &[(&str, u64)] = if args.smoke {
        &[("2s", 2_000)]
    } else {
        &[("0.5s", 500), ("2s", 2_000), ("5s", 5_000), ("10s", 10_000)]
    };
    let envs: &[Environment] = if args.smoke {
        &[Environment::Urban]
    } else {
        &[Environment::Urban, Environment::Rural]
    };
    let base = paper_config(Environment::Urban, Operator::P1, Mobility::Air, CcMode::Gcc);
    let spec = MatrixSpec::new(base).environments(envs.iter().copied());
    let members = outages.iter().map(|&(name, ms)| {
        let script = FaultScript::new().blackout(BLACKOUT_AT, SimDuration::from_millis(ms));
        let fault = CellFault::link(format!("blackout-{}s", ms as f64 / 1e3), script);
        (name, spec.clone().paper_workloads().faults([fault]))
    });
    let invariants = invariants![
        survives_every_blackout,
        short_outage_first_frame_within_10s,
        short_outage_half_rate_within_30s,
        recovery_monotone_in_outage_length,
    ];
    let at = BLACKOUT_AT.as_secs_f64();
    Acceptance {
        suite: "chaos_matrix",
        title: "Chaos matrix — mid-flight link blackouts × CC × environment",
        detail: format!("blackout at t={at}s on both directions (media + feedback)"),
        columns: COLUMNS.to_vec(),
        sections: vec![Section::new("blackout", members.collect(), invariants)],
        replay: ("blackout", outages[0].0),
    }
    .run();
}
