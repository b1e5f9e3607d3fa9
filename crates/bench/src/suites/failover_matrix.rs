//! Failover matrix — the multi-operator failover acceptance suite: the
//! four multipath schemes × the three §3.2 workloads under a scripted
//! primary-operator blackout. A group is one (CC, run) and its
//! seed-matched quadruple of schemes. Surviving the primary operator's
//! outage is the whole point of carrying a second modem, and full
//! duplication doubles radio airtime — the cost the paper's multipath
//! discussion acknowledges — so selective duplication must stay selective.
//!
//! `--smoke` shrinks the sweep to one run per cell for CI.

use rpav_bench::acceptance::{Acceptance, Column, Group, Section, Verdict, FROZEN};
use rpav_bench::{ensure, invariants, matrix_config, primary_blackout, runs_per_config};
use rpav_bench::{FAULT_AT, FAULT_FOR, STALL_MS};
use rpav_core::metrics::SwitchRecord;
use rpav_core::prelude::*;

const SWITCHING: [&str; 2] = ["failover", "sel-duplicate"];

fn in_window_switches(m: &RunMetrics) -> Vec<&SwitchRecord> {
    let window = FAULT_AT..=FAULT_AT + FAULT_FOR;
    m.switches
        .iter()
        .filter(|s| window.contains(&s.at))
        .collect()
}

fn dup_percent(m: &RunMetrics) -> f64 {
    if m.media_sent > 0 {
        m.dup_tx_packets as f64 / m.media_sent as f64 * 100.0
    } else {
        0.0
    }
}

pub(super) const COLUMNS: &[Column] = &[
    ("put_Mbps", |m| format!("{:.1}", m.goodput_bps() / 1e6)),
    ("stalls", |m| m.stalls.to_string()),
    STALL_MS,
    ("sw*", |m| in_window_switches(m).len().to_string()),
    ("sw", |m| m.switches.len().to_string()),
    ("dup_%", |m| format!("{:.1}", dup_percent(m))),
    ("dead_ms", |m| format!("{:.0}", m.path_dead_ms())),
    ("probes", |m| m.probes_sent.to_string()),
    FROZEN,
];

/// Single-path and full duplication never record a switch.
fn non_switching_schemes_never_switch(g: &Group) -> Verdict {
    for scheme in ["single-path", "duplicate"] {
        let switches = &g.metrics(scheme)?.switches;
        ensure!(switches.is_empty(), "{scheme}: {switches:?}")?;
    }
    Ok(())
}

/// The blackout kills the primary: each switching scheme moves exactly
/// once inside the fault window (anti-flap: hysteresis + dwell in
/// `FailoverController`), onto the surviving leg.
fn one_in_window_switch_to_the_survivor(g: &Group) -> Verdict {
    for scheme in SWITCHING {
        let switches = in_window_switches(g.metrics(scheme)?);
        let once = switches.len() == 1 && switches[0].to_leg == 1;
        ensure!(once, "{scheme}: {switches:?}")?;
    }
    Ok(())
}

/// The switching schemes stall strictly less than single-path.
fn switching_stalls_below_single_path(g: &Group) -> Verdict {
    let single = g.metrics("single-path")?.stalled_time;
    for scheme in SWITCHING {
        let stalled = g.metrics(scheme)?.stalled_time;
        ensure!(stalled < single, "{scheme}: {stalled:?} !< {single:?}")?;
    }
    Ok(())
}

/// The primary leg is observed dead for over 2 s of the 15 s blackout,
/// and the standby stays warm while idle.
fn primary_seen_dead_and_standby_probed(g: &Group) -> Verdict {
    for scheme in SWITCHING {
        let m = g.metrics(scheme)?;
        let (dead, probes) = (m.path_dead_ms(), m.probes_sent);
        ensure!(
            dead > 2_000.0 && probes > 0,
            "{scheme}: {dead} ms, {probes} probes"
        )?;
    }
    Ok(())
}

/// Full duplication copies every media packet; selective duplication
/// copies keyframes and degraded-time packets only: some, but a strict
/// minority.
fn duplication_full_or_selective(g: &Group) -> Verdict {
    let full = g.metrics("duplicate")?;
    let (copies, sent) = (full.dup_tx_packets, full.media_sent);
    ensure!(copies == sent, "duplicate: {copies} of {sent}")?;
    let selective = g.metrics("sel-duplicate")?;
    let (copies, sent) = (selective.dup_tx_packets, selective.media_sent);
    let minority = copies > 0 && (copies as f64) < 0.5 * sent as f64;
    ensure!(minority, "sel-duplicate: {copies} of {sent}")
}

pub fn run(args: &crate::Args) {
    let runs = if args.smoke { 1 } else { runs_per_config() };
    let spec = MatrixSpec::new(matrix_config(CcMode::Gcc, 0, 1).build()).paper_workloads();
    let fault = CellFault::legs("primary-blackout", Some(primary_blackout()), None);
    let members = MultipathScheme::baseline().map(|scheme| {
        let spec = spec.clone().multipath_schemes([scheme]);
        (scheme.name(), spec.faults([fault.clone()]).runs(runs))
    });
    let invariants = invariants![
        non_switching_schemes_never_switch,
        one_in_window_switch_to_the_survivor,
        switching_stalls_below_single_path,
        primary_seen_dead_and_standby_probed,
        duplication_full_or_selective,
    ];
    let (from, until) = (FAULT_AT.as_secs_f64(), (FAULT_AT + FAULT_FOR).as_secs_f64());
    Acceptance {
        suite: "failover_matrix",
        title: "Failover matrix — multipath scheme × CC under a primary-operator blackout (seed-matched quadruples)",
        detail: format!("primary-leg blackout t={from}s..{until}s (both directions)"),
        columns: COLUMNS.to_vec(),
        sections: vec![Section::new("failover", members.into(), invariants)],
        replay: ("failover", "failover"),
    }
    .run();
}
