//! The adaptive deadline scheduler must be *byte-identical* to the 1 ms
//! reference loop: [`Simulation::run`] and [`Simulation::run_reference`]
//! produce [`RunMetrics`] whose canonical `to_bytes()` encodings match
//! exactly — every OWD sample's f64 bit pattern, every handover record,
//! every watchdog stat.
//!
//! What each half proves. For **single-operator** sessions the two modes
//! really differ — the adaptive run visits a strict subset of the grid
//! (asserted below) — so the seeded matrix (all three congestion
//! controllers, both environments, both mobility profiles, and a hostile
//! blackout + loss-burst script, the states where deadline bookkeeping is
//! hardest to get right) is an oracle for `next_deadline()`. A
//! **multipath** session is the same loop with a monitoring plane, and
//! the documented clamp makes it step every tick in both modes (also
//! asserted): its cells prove that [`Cell::execute_with`] really hands
//! its flag to every scheme and that nothing in the loop depends on
//! which mode asked — not that ticks were skipped safely, because none
//! are.

use rpav_core::prelude::*;
use rpav_netem::FaultScript;
use rpav_sim::{SimDuration, SimTime};

/// Blackout + loss-burst campaign used by the scripted cells: feedback
/// starvation, watchdog backoff, PLI recovery, and NACK abandonment all
/// fire inside one run.
fn hostile_script() -> FaultScript {
    FaultScript::new()
        .blackout(SimTime::from_secs(12), SimDuration::from_secs(3))
        .loss_window(
            SimTime::from_secs(22),
            SimDuration::from_secs(4),
            0.25,
            None,
        )
}

fn config(cc: CcMode, env: Environment, mobility: Mobility, seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .environment(env)
        .mobility(mobility)
        .cc(cc)
        .seed(seed)
        .hold_secs(1)
        .ground_sweeps(1)
        .build()
}

/// Run one cell under both drivers and assert canonical-byte identity.
fn assert_bit_identical(cfg: ExperimentConfig, script: Option<FaultScript>, label: &str) {
    let build = |cfg: ExperimentConfig| match &script {
        Some(s) => Simulation::new(cfg).with_link_script(s.clone()),
        None => Simulation::new(cfg),
    };
    let fast = build(cfg).run().to_bytes();
    let reference = build(cfg).run_reference().to_bytes();
    assert!(
        fast == reference,
        "{label}: adaptive scheduler diverged from the 1 ms reference loop \
         ({} vs {} canonical bytes)",
        fast.len(),
        reference.len()
    );
}

type CcCtor = fn() -> CcMode;

const CCS: [(&str, CcCtor); 3] = [
    ("static", || CcMode::paper_static(Environment::Urban)),
    ("gcc", || CcMode::Gcc),
    ("scream", || CcMode::paper_scream()),
];

#[test]
fn clean_air_cells_are_bit_identical() {
    for (name, cc) in CCS {
        for env in [Environment::Urban, Environment::Rural] {
            assert_bit_identical(
                config(cc(), env, Mobility::Air, 0xE0_0001),
                None,
                &format!("{name}/{env:?}/air/clean"),
            );
        }
    }
}

#[test]
fn ground_cells_are_bit_identical() {
    for (name, cc) in CCS {
        assert_bit_identical(
            config(cc(), Environment::Urban, Mobility::Ground, 0xE0_0002),
            None,
            &format!("{name}/urban/ground/clean"),
        );
    }
}

#[test]
fn scripted_fault_cells_are_bit_identical() {
    for (name, cc) in CCS {
        assert_bit_identical(
            config(cc(), Environment::Rural, Mobility::Air, 0xE0_0003),
            Some(hostile_script()),
            &format!("{name}/rural/air/hostile"),
        );
    }
}

/// Bonded multipath with both repair layers armed (NACK/RTX plus
/// Reed-Solomon FEC) — a config for `n` legs and the full repair stack.
fn bonded_config(n_legs: usize, seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .environment(Environment::Urban)
        .mobility(Mobility::Air)
        .cc(CcMode::Gcc)
        .seed(seed)
        .hold_secs(1)
        .ground_sweeps(1)
        .n_legs(n_legs)
        .fec_cap(0.25)
        .repair(true)
        .build()
}

/// One cell, both scheduler modes, and a repeat: the same canonical
/// bytes every time.
fn assert_cell_bit_identical(cell: &Cell, label: &str) {
    let adaptive = cell.execute_with(false).to_bytes();
    let reference = cell.execute_with(true).to_bytes();
    assert!(
        adaptive == reference,
        "{label}: diverged between the adaptive scheduler and the \
         reference oracle ({} vs {} canonical bytes)",
        adaptive.len(),
        reference.len()
    );
    let again = cell.execute_with(false).to_bytes();
    assert!(adaptive == again, "{label}: not reproducible byte-for-byte");
}

/// The configs the alloc work touched hardest: bonded N=2 and 4-leg
/// striping with RTX repair and RS FEC both on.
fn assert_bonded_bit_identical(n_legs: usize, seed: u64, label: &str) {
    let spec =
        MatrixSpec::new(bonded_config(n_legs, seed)).multipath_schemes([MultipathScheme::Bonded]);
    let cells = spec.expand();
    assert_eq!(cells.len(), 1, "{label}: expected a single expanded cell");
    assert_cell_bit_identical(&cells[0], label);
}

#[test]
fn bonded_two_leg_repair_fec_is_bit_identical() {
    assert_bonded_bit_identical(2, 0xE0_0005, "bonded/n=2/repair+fec");
}

#[test]
fn bonded_four_leg_repair_fec_is_bit_identical() {
    assert_bonded_bit_identical(4, 0xE0_0006, "bonded/n=4/repair+fec");
}

#[test]
fn every_multipath_scheme_is_bit_identical_under_a_hostile_leg_script() {
    let cfg = config(CcMode::Gcc, Environment::Rural, Mobility::Air, 0xE0_0004);
    let spec = MatrixSpec::new(cfg)
        .multipath_schemes(MultipathScheme::all())
        .faults([CellFault::legs("hostile", Some(hostile_script()), None)]);
    let cells = spec.expand();
    assert_eq!(cells.len(), MultipathScheme::all().len());
    for cell in &cells {
        assert_cell_bit_identical(cell, &cell.label());
    }
}

#[test]
fn single_path_skips_ticks_and_a_monitored_session_visits_every_one() {
    let cfg = config(CcMode::Gcc, Environment::Rural, Mobility::Air, 0xE0_0007);
    let (m, steps) = Simulation::new(cfg).run_instrumented();
    let grid = (m.duration + SimDuration::from_secs(3))
        .as_micros()
        .div_ceil(1_000);
    assert!(
        steps < grid,
        "single-operator run took {steps} steps on a {grid} ms grid"
    );
    let monitored = Simulation::multipath(cfg, MultipathScheme::SinglePath, Vec::new());
    assert_eq!(monitored.run_instrumented().1, grid);
}

/// A cell's bytes depend on nothing a thread carries between cells: the
/// per-thread buffer arena, and any buffer a packetizer or path reuses,
/// must not leak one cell's state into the next. A ground Static cell
/// runs, then an air GCC cell, then the first again on the same thread,
/// and once more on a fresh thread: all three runs of the first agree.
#[test]
fn a_cell_is_the_same_after_another_cell_and_on_a_fresh_thread() {
    let cell = |cfg: ExperimentConfig| {
        let cells = MatrixSpec::new(cfg).expand();
        assert_eq!(cells.len(), 1);
        cells.into_iter().next().unwrap()
    };
    let ground = cell(config(
        CcMode::paper_static(Environment::Urban),
        Environment::Urban,
        Mobility::Ground,
        0xE0_0008,
    ));
    let air = cell(config(
        CcMode::Gcc,
        Environment::Urban,
        Mobility::Air,
        0xE0_0009,
    ));
    let first = ground.execute_with(false).to_bytes();
    air.execute_with(false);
    let after_air = ground.execute_with(false).to_bytes();
    let fresh = std::thread::spawn(move || ground.execute_with(false).to_bytes())
        .join()
        .expect("fresh-thread run");
    assert!(
        first == after_air,
        "ground cell changed after an air cell ran"
    );
    assert!(first == fresh, "ground cell differs on a fresh thread");
}
