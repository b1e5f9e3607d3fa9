//! Repair matrix — the loss-repair acceptance suite: hostile-wire
//! conditions (random media loss at two rates, loss + reordering, loss +
//! payload corruption), one section each, × the three §3.2 workloads, each
//! cell run twice with the same seed, NACK/RTX repair off and on. A group
//! is one (condition, CC) pair.
//!
//! The on/off runs share a seed but diverge in RNG-draw order once RTX
//! packets enter the shared network streams, which shifts
//! handover-induced stalls — the dominant stall source, untouched by
//! repair — by sub-slot amounts: hence a slot of stall-time slack. Static
//! is exempt from the engagement bar: its bufferbloated queues push the
//! RTT estimate past the playout budget, so the NACK generator correctly
//! abandons repairs that cannot win their race.
//!
//! `--smoke` shrinks the sweep to the 2 % loss condition for CI.

use rpav_bench::acceptance::{Acceptance, Column, Group, Section, Verdict};
use rpav_bench::{ensure, invariants, matrix_config, STALL_MS};
use rpav_core::prelude::*;
use rpav_netem::{FaultScript, PacketKind};
use rpav_sim::{SimDuration, SimTime};

/// Hostile window: covers the cruise phase, past CC convergence.
const FAULT_AT: SimTime = SimTime::from_secs(10);
const FAULT_FOR: SimDuration = SimDuration::from_secs(120);

/// Stall-time comparison tolerance: one 33 ms display slot.
const SLOT: SimDuration = SimDuration::from_millis(34);

/// Static's stall-time bound is looser: a non-adaptive sender never cedes
/// rate, so RTX bursts join an already-bufferbloated uplink queue — worst
/// right after a handover, when the backlog drain is what ends the stall
/// and the handover gap itself triggers a NACK storm. The adaptive CCs
/// keep queues short and stay within one slot; Static pays a bounded
/// queueing tax (observed ≈ +60 ms at 1–3 % loss) in exchange for an
/// order-of-magnitude PER and forced-keyframe reduction.
const STATIC_SLACK: SimDuration = SimDuration::from_millis(102);

pub(super) const COLUMNS: &[Column] = &[
    ("put_Mbps", |m| format!("{:.1}", m.goodput_bps() / 1e6)),
    ("per_%", |m| format!("{:.3}", m.per() * 100.0)),
    ("stalls", |m| m.stalls.to_string()),
    STALL_MS,
    ("idr", |m| m.forced_keyframes.to_string()),
    ("nacks", |m| m.nacks_sent.to_string()),
    ("rtx", |m| m.rtx_sent.to_string()),
    ("rec", |m| m.rtx_recovered.to_string()),
    ("late", |m| m.rtx_late.to_string()),
    ("aband", |m| m.nack_abandoned.to_string()),
    ("eff", |m| format!("{:.2}", m.repair_efficiency())),
];

fn is_static(cell: &Cell) -> bool {
    matches!(cell.config.cc, CcMode::Static { .. })
}

/// The repair-off run does not sprout repair state out of nowhere.
fn off_run_sends_no_repair(g: &Group) -> Verdict {
    let off = g.metrics("off")?;
    let (nacks, rtx) = (off.nacks_sent, off.rtx_sent);
    ensure!(nacks == 0 && rtx == 0, "{nacks} NACKs, {rtx} RTX")
}

/// Repair never adds stalls or forced keyframes, and adds at most a slot
/// of stall time ([`STATIC_SLACK`] for Static).
fn repair_never_hurts_playback(g: &Group) -> Verdict {
    let ((cell, on), off) = (g.get("on")?, g.metrics("off")?);
    let (stalls, off_stalls) = (on.stalls, off.stalls);
    ensure!(stalls <= off_stalls, "stalls {stalls} > {off_stalls}")?;
    let slack = if is_static(cell) { STATIC_SLACK } else { SLOT };
    let (stalled, bar) = (on.stalled_time, off.stalled_time + slack);
    ensure!(stalled <= bar, "stalled {stalled:?} > {bar:?}")?;
    let (idrs, off_idrs) = (on.forced_keyframes, off.forced_keyframes);
    ensure!(idrs <= off_idrs, "forced keyframes {idrs} > {off_idrs}")
}

/// The adaptive CCs keep queues short enough for RTX to win the playout
/// race: repair engages and recovers.
fn adaptive_ccs_repair(g: &Group) -> Verdict {
    let (cell, on) = g.get("on")?;
    let (nacks, recovered) = (on.nacks_sent, on.rtx_recovered);
    let engaged = nacks > 0 && recovered > 0;
    ensure!(
        is_static(cell) || engaged,
        "{nacks} NACKs, {recovered} recovered"
    )
}

/// GCC under plain loss: every recovered gap is a PLI / IDR that never
/// fires, so repair strictly cuts forced keyframes.
fn gcc_loss_repair_saves_keyframes(g: &Group) -> Verdict {
    let ((cell, on), off) = (g.get("on")?, g.metrics("off")?);
    let gcc_loss = cell.config.cc == CcMode::Gcc && cell.fault.name.starts_with("loss");
    let (idrs, off_idrs) = (on.forced_keyframes, off.forced_keyframes);
    ensure!(
        !gcc_loss || idrs < off_idrs,
        "forced keyframes {idrs} !< {off_idrs}"
    )
}

pub fn run(args: &crate::Args) {
    let media = Some(PacketKind::Media);
    let loss = |p| FaultScript::new().loss_window(FAULT_AT, FAULT_FOR, p, media);
    let conditions = if args.smoke {
        vec![("loss-2%", loss(0.02))]
    } else {
        vec![
            ("loss-1%", loss(0.01)),
            ("loss-3%", loss(0.03)),
            (
                "reorder",
                loss(0.01).reorder_window(FAULT_AT, FAULT_FOR, 0.10, 6),
            ),
            (
                "corrupt",
                loss(0.01).corrupt_window(FAULT_AT, FAULT_FOR, 0.01, media),
            ),
        ]
    };
    let base = matrix_config(CcMode::Gcc, 0, 1)
        .environment(Environment::Urban)
        .build();
    let first = conditions[0].0;
    let sections = conditions.into_iter().map(|(name, script)| {
        let spec = MatrixSpec::new(base).paper_workloads();
        let spec = spec.faults([CellFault::uplink(name, script)]);
        let members = vec![
            ("off", spec.clone().repairs([false])),
            ("on", spec.repairs([true])),
        ];
        let invariants = invariants![
            off_run_sends_no_repair,
            repair_never_hurts_playback,
            adaptive_ccs_repair,
            gcc_loss_repair_saves_keyframes,
        ];
        Section::new(name, members, invariants)
    });
    let (from, until) = (FAULT_AT.as_secs_f64(), (FAULT_AT + FAULT_FOR).as_secs_f64());
    Acceptance {
        suite: "repair_matrix",
        title: "Repair matrix — hostile-wire conditions × CC × {NACK/RTX off, on} (urban, seed-matched pairs)",
        detail: format!("fault window t={from}s..{until}s on the uplink (media)"),
        columns: COLUMNS.to_vec(),
        sections: sections.collect(),
        replay: (first, "on"),
    }
    .run();
}
