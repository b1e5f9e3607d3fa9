//! N-leg matrix — the N-leg bonding / burst-erasure acceptance suite: the
//! generalized bonded scheduler, Reed–Solomon parity, the coupled
//! congestion controller and cross-leg *correlated* fault scripts on a
//! 3-leg rig with per-leg caps, in four sections:
//!
//! * **legs** — goodput falls roughly in proportion to the legs left alive
//!   as whole-flight blackouts kill them 3 → 2 → 1;
//! * **burst** — under a correlated two-leg burst (one shared-cell fade
//!   hitting two operators), bonded against failover and single-path, and
//!   RS repairs of groups that lost more than one member: what a
//!   single-parity XOR code provably cannot do
//!   (`fec::tests::rs_recovers_a_double_burst_xor_provably_cannot`);
//! * **ccc** — the DESIGN.md §10.6 delay-variance cell (SCReAM, two legs,
//!   asymmetric caps): coupled per-leg controllers recover the aggregation
//!   the uncoupled one forfeits, against the Static run that fills both
//!   caps;
//! * **ccc-fec** — coupled CC with RS parity and NACK/RTX under the
//!   correlated fade, with its repair counters.
//!
//! `--smoke` shrinks the sweep to one run per cell for CI.

use rpav_bench::acceptance::{Acceptance, Column, Group, Section, Verdict};
use rpav_bench::{bonded_stall_at_most_failover, bonding_columns, burst_fade, ensure, invariants};
use rpav_bench::{matrix_config, runs_per_config, CAP_PRIMARY, CAP_SECONDARY, FEC_CAP};
use rpav_core::prelude::*;
use rpav_netem::FaultScript;
use rpav_sim::{SimDuration, SimTime};

/// Per-leg cap for the legs section: low enough that capacity — not the
/// congestion controller's own ceiling — is the binding constraint, so
/// delivery tracks the number of surviving legs.
const CAP_DEGRADE: f64 = 1.0e6;

pub(super) const EXTRA: &[Column] = &[
    ("fecmr", |m| m.fec_multi_recovered.to_string()),
    ("rtx", |m| m.rtx_sent.to_string()),
    ("rtx_nih", |m| m.rtx_not_in_history.to_string()),
    ("aband", |m| m.nack_abandoned.to_string()),
];

/// Delivered bytes of the named members.
fn delivered<const N: usize>(g: &Group, members: [&str; N]) -> Result<[f64; N], String> {
    let mut bytes = [0.0; N];
    for (b, member) in bytes.iter_mut().zip(members) {
        *b = g.metrics(member)?.media_received_bytes as f64;
    }
    Ok(bytes)
}

/// Delivered bytes fall strictly as legs die.
fn delivery_monotone_in_live_legs(g: &Group) -> Verdict {
    let [b3, b2, b1] = delivered(g, ["3-alive", "2-alive", "1-alive"])?;
    ensure!(b3 > b2 && b2 > b1, "delivered {b3} / {b2} / {b1}")
}

/// Each dead leg removes about its third of the aggregate, within a
/// generous tolerance for CC convergence and scheduler skew.
fn delivery_proportional_to_live_legs(g: &Group) -> Verdict {
    let [b3, b2, b1] = delivered(g, ["3-alive", "2-alive", "1-alive"])?;
    let (r2, r1) = (b2 / b3, b1 / b3);
    let proportional = (0.45..=0.90).contains(&r2) && (0.15..=0.60).contains(&r1);
    ensure!(proportional, "2 / 1 legs deliver {r2:.2} / {r1:.2}")
}

/// The correlated burst dropped packets, and RS parity armed and
/// recovered some.
fn rs_parity_repairs_the_burst(g: &Group) -> Verdict {
    let m = g.metrics("bonded")?;
    let (dropped, tx, recovered) = (m.script_dropped, m.fec_tx, m.fec_recovered);
    let repaired = dropped > 0 && tx > 0 && recovered > 0;
    ensure!(
        repaired,
        "{dropped} dropped, {tx} parity, {recovered} recovered"
    )
}

/// Pooled over the whole burst sweep: some group lost ≥ 2 members to the
/// correlated fade and came back anyway.
fn multi_loss_groups_repaired(g: &Group) -> Verdict {
    let bonded = g.members.iter().filter(|(member, ..)| *member == "bonded");
    let total: u64 = bonded.map(|(_, _, m)| m.fec_multi_recovered).sum();
    ensure!(total > 0, "no multi-loss group repaired")
}

/// Coupled SCReAM delivers ≥ 0.8× the Static aggregate, where the
/// uncoupled run holds only the documented ≈ 0.4× floor, and coupling
/// helps.
fn coupled_scream_reaches_the_aggregate(g: &Group) -> Verdict {
    let [agg, uncoupled, coupled] = delivered(g, ["aggregate", "uncoupled", "coupled"])?;
    let (un, cp) = (uncoupled / agg, coupled / agg);
    ensure!(cp >= 0.8 && cp > un, "coupled {cp:.2}, uncoupled {un:.2}")
}

pub fn run(args: &crate::Args) {
    let runs = if args.smoke { 1 } else { runs_per_config() };
    let config = |cc| {
        matrix_config(cc, 0, 4)
            .n_legs(3)
            .leg_caps(CAP_PRIMARY, CAP_SECONDARY)
    };
    let spec = |config: ExperimentConfigBuilder, scheme, faults: &[CellFault]| {
        let spec = MatrixSpec::new(config.build()).multipath_schemes([scheme]);
        spec.faults(faults.to_vec()).runs(runs)
    };
    let (bonded, failover) = (MultipathScheme::Bonded, MultipathScheme::Failover);
    let fade = [CellFault::per_leg(
        "corr-2leg-fade",
        burst_fade().correlated(3, &[0, 1]),
    )];
    // The Static workload offers 8 Mbps no matter what, so delivered bytes
    // measure the capacity the rig still serves. (An adaptive CC would
    // confound the probe: it cannot ramp into a leg it never offered
    // traffic to.)
    let static_rural = CcMode::paper_static(Environment::Rural);
    let killer = FaultScript::new().blackout(SimTime::ZERO, SimDuration::from_secs(3_600));
    let legs = |alive, dead: &[usize]| {
        let config = config(static_rural).leg_caps(CAP_DEGRADE, CAP_DEGRADE);
        let fault = CellFault::per_leg(alive, killer.clone().correlated(3, dead));
        (alive, spec(config, bonded, &[fault]))
    };
    let legs = vec![
        legs("3-alive", &[]),
        legs("2-alive", &[2]),
        legs("1-alive", &[1, 2]),
    ];
    // The burst sections sweep the paper workloads over this base.
    let repairing = || config(CcMode::Gcc).repair(true);
    let faded = |config, scheme| spec(config, scheme, &fade).paper_workloads();
    let burst = vec![
        ("bonded", faded(repairing().fec_cap(FEC_CAP), bonded)),
        ("failover", faded(repairing(), failover)),
        ("single", faded(repairing(), MultipathScheme::SinglePath)),
    ];
    let ccc = |cc, coupled| spec(config(cc).n_legs(2).coupled_cc(coupled), bonded, &[]);
    let scream = CcMode::paper_scream();
    let ccc = vec![
        ("aggregate", ccc(static_rural, false)),
        ("uncoupled", ccc(scream, false)),
        ("coupled", ccc(scream, true)),
    ];
    let ccc_fec = vec![(
        "bonded",
        faded(repairing().fec_cap(FEC_CAP).coupled_cc(true), bonded),
    )];
    let (p, s) = (CAP_PRIMARY / 1e6, CAP_SECONDARY / 1e6);
    let burst_invariants = invariants![bonded_stall_at_most_failover, rs_parity_repairs_the_burst];
    let legs_invariants = invariants![
        delivery_monotone_in_live_legs,
        delivery_proportional_to_live_legs
    ];
    let sections = vec![
        Section::new("legs", legs, legs_invariants),
        Section {
            pooled: invariants![multi_loss_groups_repaired],
            ..Section::new("burst", burst, burst_invariants)
        },
        Section::new(
            "ccc",
            ccc,
            invariants![coupled_scream_reaches_the_aggregate],
        ),
        Section::new("ccc-fec", ccc_fec, invariants![]),
    ];
    Acceptance {
        suite: "nleg_matrix",
        title: "N-leg matrix — 3-leg bonding + RS burst repair + coupled CC vs correlated failures (seed-matched cells)",
        detail: format!("caps {p}/{s} Mbps per leg, correlated 2-leg burst 30 s, fec cap {FEC_CAP}"),
        columns: bonding_columns(EXTRA),
        sections,
        replay: ("ccc-fec", "bonded"),
    }
    .run();
}
