//! Repair matrix — the loss-repair acceptance harness.
//!
//! Sweeps hostile-wire conditions (random media loss at two rates,
//! loss + reordering, loss + payload corruption) across the three §3.2
//! workloads (Static, SCReAM, GCC), each cell run twice with the same
//! seed: NACK/RTX repair off and on. Prints one row per (condition, CC,
//! repair) cell with the repair machinery's counters, then *asserts* the
//! repair invariants instead of merely printing them:
//!
//! * with repair ON, stalls and forced keyframes never exceed the
//!   seed-matched repair-OFF run, and stall time exceeds it by at most
//!   one display slot (the on/off runs share a seed but diverge in
//!   RNG-draw order once RTX packets enter the shared network streams,
//!   which shifts handover-induced stalls — the dominant stall source,
//!   untouched by repair — by sub-slot amounts). Static gets a looser,
//!   still-bounded stall-time bar — see [`STATIC_SLACK`];
//! * the low-latency adaptive CCs (SCReAM, GCC) actually engage: NACKs
//!   go out and retransmissions arrive before the playout deadline.
//!   Static is exempt from the engagement bar by design — its
//!   bufferbloated queues push the RTT estimate past the playout
//!   budget, so the NACK generator correctly abandons instead of
//!   requesting repairs that cannot win their race;
//! * for GCC under plain loss, repair strictly reduces forced
//!   keyframes — every recovered gap is a PLI/IDR that never fires;
//! * a repeated run of the first repair-on cell is bit-identical
//!   (determinism spot-check; the whole table is reproducible for a
//!   fixed `RPAV_SEED`).
//!
//! `--smoke` shrinks the sweep to the 2 % loss condition for CI.

use rpav_bench::{assert_replays_directly, banner, matrix_config};
use rpav_core::prelude::*;
use rpav_netem::{FaultScript, PacketKind};
use rpav_sim::{SimDuration, SimTime};

fn base_config() -> ExperimentConfig {
    matrix_config(CcMode::Gcc, 0, 1)
        .environment(Environment::Urban)
        .build()
}

/// Hostile window: covers the cruise phase, past CC convergence.
const FAULT_AT: SimTime = SimTime::from_secs(10);
const FAULT_FOR: SimDuration = SimDuration::from_secs(120);

/// Stall-time comparison tolerance: one 33 ms display slot (see module
/// docs for why the seed-matched pair can differ by sub-slot amounts).
const SLOT: SimDuration = SimDuration::from_millis(34);

/// Static's stall-time bound is looser: a non-adaptive sender never cedes
/// rate, so RTX bursts join an already-bufferbloated uplink queue — worst
/// right after a handover, when the backlog drain is what ends the stall
/// and the handover gap itself triggers a NACK storm. The adaptive CCs
/// keep queues short and stay within one slot; Static pays a bounded
/// queueing tax (observed ≈ +60 ms at 1–3 % loss) in exchange for an
/// order-of-magnitude PER and forced-keyframe reduction.
const STATIC_SLACK: SimDuration = SimDuration::from_millis(102);

/// One hostile-wire condition applied to the uplink.
struct Condition {
    name: &'static str,
    script: fn() -> FaultScript,
}

const CONDITIONS: &[Condition] = &[
    Condition {
        name: "loss-1%",
        script: || {
            FaultScript::new().loss_window(FAULT_AT, FAULT_FOR, 0.01, Some(PacketKind::Media))
        },
    },
    Condition {
        name: "loss-3%",
        script: || {
            FaultScript::new().loss_window(FAULT_AT, FAULT_FOR, 0.03, Some(PacketKind::Media))
        },
    },
    Condition {
        name: "reorder",
        script: || {
            FaultScript::new()
                .loss_window(FAULT_AT, FAULT_FOR, 0.01, Some(PacketKind::Media))
                .reorder_window(FAULT_AT, FAULT_FOR, 0.10, 6)
        },
    },
    Condition {
        name: "corrupt",
        script: || {
            FaultScript::new()
                .loss_window(FAULT_AT, FAULT_FOR, 0.01, Some(PacketKind::Media))
                .corrupt_window(FAULT_AT, FAULT_FOR, 0.01, Some(PacketKind::Media))
        },
    },
];

const SMOKE_CONDITION: Condition = Condition {
    name: "loss-2%",
    script: || FaultScript::new().loss_window(FAULT_AT, FAULT_FOR, 0.02, Some(PacketKind::Media)),
};

struct CellResult {
    condition: &'static str,
    cc_name: &'static str,
    off: RunMetrics,
    on: RunMetrics,
}

fn print_row(condition: &str, cc: &str, repair: &str, m: &RunMetrics) {
    println!(
        "{:<9} {:<7} {:<4} {:>9.1} {:>7.3} {:>6} {:>8.1} {:>5} {:>6} {:>6} {:>5} {:>5} {:>5} {:>5.2}",
        condition,
        cc,
        repair,
        m.goodput_bps() / 1e6,
        m.per() * 100.0,
        m.stalls,
        m.stalled_time.as_millis_f64(),
        m.forced_keyframes,
        m.nacks_sent,
        m.rtx_sent,
        m.rtx_recovered,
        m.rtx_late,
        m.nack_abandoned,
        m.repair_efficiency()
    );
}

pub fn run(args: &crate::Args) {
    banner(
        "Repair matrix",
        "hostile-wire conditions × CC × {NACK/RTX off, on} (urban, seed-matched pairs)",
    );
    let conditions: &[Condition] = if args.smoke {
        &[SMOKE_CONDITION]
    } else {
        CONDITIONS
    };
    println!(
        "    fault window t={}s..{}s on the uplink (media)\n",
        FAULT_AT.as_secs_f64(),
        (FAULT_AT + FAULT_FOR).as_secs_f64()
    );
    println!(
        "{:<9} {:<7} {:<4} {:>9} {:>7} {:>6} {:>8} {:>5} {:>6} {:>6} {:>5} {:>5} {:>5} {:>5}",
        "cond",
        "cc",
        "rtx",
        "put Mbps",
        "per %",
        "stalls",
        "stall ms",
        "idr",
        "nacks",
        "rtx",
        "rec",
        "late",
        "aband",
        "eff"
    );

    // One matrix: workload × condition × {repair off, on}. The repair
    // switch is the innermost non-run axis, so each seed-matched off/on
    // pair lands adjacent in the submission-ordered results.
    let spec = MatrixSpec::new(base_config())
        .paper_workloads()
        .faults(
            conditions
                .iter()
                .map(|c| CellFault::uplink(c.name, (c.script)())),
        )
        .repairs([false, true]);
    let engine = CampaignEngine::new();
    let result = engine.run(&spec);

    let mut cells: Vec<CellResult> = Vec::new();
    for pair in result.outcomes.chunks(2) {
        let [off_cell, on_cell] = pair else {
            unreachable!("repair axis yields pairs")
        };
        assert!(!off_cell.cell().config.repair && on_cell.cell().config.repair);
        let cc_name = off_cell.cell().config.cc.name();
        let condition = conditions
            .iter()
            .find(|c| c.name == off_cell.cell().fault.name)
            .expect("unknown condition")
            .name;
        print_row(condition, cc_name, "off", off_cell.metrics());
        print_row(condition, cc_name, "on", on_cell.metrics());
        cells.push(CellResult {
            condition,
            cc_name,
            off: (**off_cell.metrics()).clone(),
            on: (**on_cell.metrics()).clone(),
        });
    }

    // ---- Invariants --------------------------------------------------
    for cell in &cells {
        let label = format!("{}/{}", cell.condition, cell.cc_name);
        let (off, on) = (&cell.off, &cell.on);

        // The off-run must not sprout repair state out of nowhere.
        assert_eq!(off.nacks_sent, 0, "{label}: repair-off run sent NACKs");
        assert_eq!(off.rtx_sent, 0, "{label}: repair-off run sent RTX");

        // Repair is never worse on the playback-facing metrics.
        assert!(
            on.stalls <= off.stalls,
            "{label}: stalls rose with repair: {} > {}",
            on.stalls,
            off.stalls
        );
        let slack = if cell.cc_name == "Static" {
            STATIC_SLACK
        } else {
            SLOT
        };
        assert!(
            on.stalled_time <= off.stalled_time + slack,
            "{label}: stall time rose with repair: {:?} > {:?} (+{:?} slack)",
            on.stalled_time,
            off.stalled_time,
            slack
        );
        assert!(
            on.forced_keyframes <= off.forced_keyframes,
            "{label}: forced keyframes rose with repair: {} > {}",
            on.forced_keyframes,
            off.forced_keyframes
        );

        // The adaptive CCs keep queues short enough for RTX to win the
        // playout race — repair must actually engage and recover.
        if cell.cc_name != "Static" {
            assert!(on.nacks_sent > 0, "{label}: no NACKs sent");
            assert!(
                on.rtx_recovered > 0,
                "{label}: nothing recovered (nacks {} requested {} abandoned {})",
                on.nacks_sent,
                on.nack_seqs_requested,
                on.nack_abandoned
            );
        }

        // GCC under plain loss: strictly fewer forced keyframes.
        if cell.cc_name == "GCC" && cell.condition.starts_with("loss") {
            assert!(
                on.forced_keyframes < off.forced_keyframes,
                "{label}: recovered {} losses yet saved no keyframes ({} vs {})",
                on.rtx_recovered,
                on.forced_keyframes,
                off.forced_keyframes
            );
        }
    }

    // Determinism spot-check on the first repair-on cell.
    assert_replays_directly(&result.outcomes[1]);

    println!(
        "\nAll repair invariants hold ({} seed-matched cell pairs).",
        cells.len()
    );
    println!("{}", result.report.summary());
}
