//! N-leg matrix — the N-leg bonding / burst-erasure acceptance harness.
//!
//! Exercises the generalized (`n_legs` > 2) bonded scheduler, the
//! Reed–Solomon parity layer, the coupled congestion controller, and
//! the cross-leg *correlated* fault scripts, asserting the robustness
//! invariants from the burst-erasure-survival work:
//!
//! * **proportional degradation** — on a 3-leg rig with per-leg
//!   capacity caps, goodput falls roughly in proportion to the legs
//!   left alive as whole-flight blackouts kill them 3 → 2 → 1, instead
//!   of collapsing the first time any leg dies;
//! * **burst survival** — under a *correlated* two-leg Gilbert–Elliott
//!   burst window (same shared-cell fade hitting two operators at
//!   once), 3-leg bonded stall time never exceeds the seed-matched
//!   failover run's, and the RS layer repairs erasure groups that lost
//!   more than one member — repairs a single-parity XOR code provably
//!   cannot make (demonstrated on the exact component API below);
//! * **coupled CC** — in the DESIGN §10.6 delay-variance cell (SCReAM,
//!   asymmetric 3.0/2.5 Mbps caps) the per-leg shadow controllers
//!   recover the aggregation the uncoupled controller forfeits: bonded
//!   delivery reaches ≥ 0.8× the measured aggregate capacity (the
//!   seed-matched Static bonded run, which fills both caps) where the
//!   uncoupled run held only the documented ≈ 0.4× delivery floor;
//! * **determinism** — a 3-leg coupled-CC matrix under correlated
//!   faults is bit-identical at `jobs = 1` and `jobs = 8`, and replays
//!   byte-equal outside the engine.
//!
//! `--smoke` shrinks the sweep to one run per cell for CI.

use rpav_bench::{
    assert_jobs_invariant, banner, burst_fade, matrix_config, print_bonding_header,
    print_bonding_row, runs_per_config, CAP_PRIMARY, CAP_SECONDARY, FEC_CAP,
};
use rpav_core::prelude::*;
use rpav_netem::FaultScript;
use rpav_rtp::fec::{rs_recover, RsGroup, RsParityPacket, MAX_RS_PARITY};
use rpav_rtp::RtpPacket;
use rpav_sim::{SimDuration, SimTime};

/// Per-leg cap for the degradation section: low enough that capacity —
/// not the congestion controller's own ceiling — is the binding
/// constraint, so delivery tracks the number of surviving legs.
const CAP_DEGRADE: f64 = 1.0e6;

/// The whole-flight blackout that removes a leg for the degradation
/// section: dark from t=0 until far past any flight plan's end.
fn leg_killer() -> FaultScript {
    FaultScript::new().blackout(SimTime::ZERO, SimDuration::from_secs(3_600))
}

fn config(cc: CcMode, run: u64) -> ExperimentConfigBuilder {
    matrix_config(cc, run, 4)
        .n_legs(3)
        .leg_caps(CAP_PRIMARY, CAP_SECONDARY)
}

/// The suite's own column: repairs of groups that lost ≥ 2 members.
fn print_row(section: &str, cc: &str, run: u64, label: &str, m: &RunMetrics) {
    print_bonding_row(section, cc, run, label, m, m.fec_multi_recovered);
}

/// Component-level proof that a second shard buys burst repair: an
/// 8-packet group with two RS shards, two members erased. One shard alone
/// (all a single-parity code has) must refuse; both must return both.
fn rs_burst_repair_component() {
    let media: Vec<RtpPacket> = (0..8u16)
        .map(|i| RtpPacket {
            marker: i == 7,
            payload_type: 96,
            sequence: 100u16.wrapping_add(i),
            timestamp: 90_000u32.wrapping_mul(u32::from(i)),
            ssrc: 0xABCD_EF01,
            transport_seq: None,
            payload: bytes::Bytes::from(vec![i as u8; 64 + usize::from(i)]),
            wire: None,
        })
        .collect();

    let mut rs = RsGroup::new();
    for p in &media {
        assert!(rs.push(p, 2));
    }
    let mut rs_parity: Vec<RsParityPacket> = Vec::with_capacity(MAX_RS_PARITY);
    rs.build_into(&mut rs_parity);
    assert_eq!(rs_parity.len(), 2);

    // Erase two consecutive members — the burst shape Gilbert–Elliott
    // produces and a single shard cannot span.
    let survivors: Vec<&RtpPacket> = media
        .iter()
        .filter(|p| p.sequence != 103 && p.sequence != 104)
        .collect();
    assert!(
        rs_recover(&[&rs_parity[0]], survivors.iter().copied(), 0).is_none(),
        "a single shard repaired a two-loss burst — impossible"
    );
    let refs: Vec<&RsParityPacket> = rs_parity.iter().collect();
    let recovered = rs_recover(&refs, survivors.iter().copied(), 0)
        .expect("two RS shards repair a two-loss burst");
    assert_eq!(recovered.len(), 2);
    for rec in &recovered {
        let orig = media
            .iter()
            .find(|p| p.sequence == rec.sequence)
            .expect("recovered a protected sequence");
        assert_eq!(rec.payload, orig.payload);
        assert_eq!(rec.timestamp, orig.timestamp);
        assert_eq!(rec.marker, orig.marker);
    }
    println!("    component: 2-erasure burst — RS(1) refuses, RS(2) repairs both\n");
}

pub fn run(args: &crate::Args) {
    banner(
        "N-leg matrix",
        "3-leg bonding + RS burst repair + coupled CC vs correlated failures (seed-matched cells)",
    );
    let runs = if args.smoke { 1 } else { runs_per_config() };
    println!(
        "    caps {}/{} Mbps per leg, correlated 2-leg burst 30 s, fec cap {FEC_CAP}, {} run(s)/cell\n",
        CAP_PRIMARY / 1e6,
        CAP_SECONDARY / 1e6,
        runs
    );
    rs_burst_repair_component();
    print_bonding_header("cell", "fecmr");

    // ---- (a) Proportional degradation as legs die 3 → 2 → 1 ----------
    // The Static workload offers 8 Mbps no matter what, so delivered
    // bytes measure the capacity the rig still serves; whole-flight
    // blackouts remove legs one at a time. With every leg capped at
    // CAP_DEGRADE the surviving aggregate is 3 / 2 / 1 Mbps, and
    // delivery must track it — not fall off a cliff the moment any
    // leg dies. (An adaptive CC would confound the probe: it cannot
    // ramp into a leg it never offered traffic to.)
    let cap_probe = CcMode::paper_static(Environment::Rural);
    for run in 0..runs {
        let cell = |dead: &[usize]| {
            Simulation::multipath(
                config(cap_probe, run)
                    .leg_caps(CAP_DEGRADE, CAP_DEGRADE)
                    .build(),
                MultipathScheme::Bonded,
                leg_killer().correlated(3, dead),
            )
            .run()
        };
        let alive3 = cell(&[]);
        let alive2 = cell(&[2]);
        let alive1 = cell(&[1, 2]);
        print_row("legs", "static", run, "3-alive", &alive3);
        print_row("legs", "static", run, "2-alive", &alive2);
        print_row("legs", "static", run, "1-alive", &alive1);
        let b3 = alive3.media_received_bytes as f64;
        let b2 = alive2.media_received_bytes as f64;
        let b1 = alive1.media_received_bytes as f64;
        assert!(
            b3 > b2 && b2 > b1,
            "run{run}: delivery not monotone in surviving legs ({b3} / {b2} / {b1})"
        );
        // Roughly proportional: each dead leg removes about its third
        // of the aggregate, within a generous tolerance for CC
        // convergence and scheduler skew.
        let r2 = b2 / b3;
        let r1 = b1 / b3;
        assert!(
            (0.45..=0.90).contains(&r2),
            "run{run}: 2-leg delivery {r2:.2} of 3-leg — not proportional"
        );
        assert!(
            (0.15..=0.60).contains(&r1),
            "run{run}: 1-leg delivery {r1:.2} of 3-leg — not proportional"
        );
    }
    println!();

    // ---- (b) Correlated 2-leg burst: stall ≤ failover, RS multi-repair
    let ccs = rpav_bench::paper_ccs(Environment::Rural);
    let mut multi_recovered_total = 0u64;
    for cc in ccs {
        for run in 0..runs {
            let fade = || burst_fade().correlated(3, &[0, 1]);
            let bonded = Simulation::multipath(
                config(cc, run).fec_cap(FEC_CAP).repair(true).build(),
                MultipathScheme::Bonded,
                fade(),
            )
            .run();
            let failover = Simulation::multipath(
                config(cc, run).repair(true).build(),
                MultipathScheme::Failover,
                fade(),
            )
            .run();
            let single = Simulation::multipath(
                config(cc, run).repair(true).build(),
                MultipathScheme::SinglePath,
                fade(),
            )
            .run();
            let tag = format!("{}/run{run}", cc.name());
            print_row("burst", cc.name(), run, "bonded", &bonded);
            print_row("burst", cc.name(), run, "failover", &failover);
            print_row("burst", cc.name(), run, "single", &single);
            assert!(
                bonded.script_dropped > 0,
                "{tag}: correlated burst never dropped anything"
            );
            assert!(
                bonded.stalled_time <= failover.stalled_time,
                "{tag}: bonded stalled {:?} > failover {:?}",
                bonded.stalled_time,
                failover.stalled_time
            );
            assert!(bonded.fec_tx > 0, "{tag}: RS parity never armed");
            assert!(
                bonded.fec_recovered > 0,
                "{tag}: no packet recovered ({} parity tx)",
                bonded.fec_tx
            );
            multi_recovered_total += bonded.fec_multi_recovered;
        }
        println!();
    }
    // At least some groups lost ≥ 2 members to the correlated fade and
    // came back anyway — the repairs the old XOR layer could never make.
    assert!(
        multi_recovered_total > 0,
        "no multi-loss group repaired across the whole burst sweep"
    );

    // ---- (c) Coupled CC recovers the DESIGN §10.6 SCReAM aggregation
    // Static bonded fills both caps and measures the cell's achievable
    // aggregate; uncoupled SCReAM held ≈ 0.4× of it (the documented
    // delay-variance collapse); coupled shadow CCs must reach ≥ 0.8×.
    let scream = ccs
        .iter()
        .copied()
        .find(|c| matches!(c, CcMode::Scream { .. }))
        .expect("paper ccs include SCReAM");
    for run in 0..runs {
        let cell = |cc: CcMode, coupled: bool| {
            Simulation::multipath(
                config(cc, run).n_legs(2).coupled_cc(coupled).build(),
                MultipathScheme::Bonded,
                Vec::new(),
            )
            .run()
        };
        let aggregate = cell(CcMode::paper_static(Environment::Rural), false);
        let uncoupled = cell(scream, false);
        let coupled = cell(scream, true);
        print_row("ccc", "static", run, "aggregate", &aggregate);
        print_row("ccc", "scream", run, "uncoupled", &uncoupled);
        print_row("ccc", "scream", run, "coupled", &coupled);
        let agg = aggregate.media_received_bytes as f64;
        let frac_un = uncoupled.media_received_bytes as f64 / agg;
        let frac_cp = coupled.media_received_bytes as f64 / agg;
        assert!(
            frac_cp >= 0.8,
            "run{run}: coupled SCReAM delivered {frac_cp:.2} of aggregate capacity (< 0.8)"
        );
        assert!(
            frac_cp > frac_un,
            "run{run}: coupling did not help ({frac_cp:.2} vs {frac_un:.2})"
        );
    }
    println!();

    // ---- (d) Determinism: jobs=1 ≡ jobs=8 ≡ direct execution ---------
    let spec = MatrixSpec::new(
        config(CcMode::Gcc, 0)
            .fec_cap(FEC_CAP)
            .repair(true)
            .coupled_cc(true)
            .build(),
    )
    .paper_workloads()
    .multipath_schemes([MultipathScheme::Bonded])
    .faults([CellFault::per_leg(
        "corr-2leg-fade",
        burst_fade().correlated(3, &[0, 1]),
    )])
    .runs(runs);
    let result = assert_jobs_invariant(&spec);

    println!(
        "All N-leg invariants hold ({} burst cell sets, {} engine cells, {} multi-loss repairs).",
        ccs.len() as u64 * runs,
        result.outcomes.len(),
        multi_recovered_total
    );
    println!("{}", result.report.summary());
}
