//! Shared machinery for the `rpav-bench` suites.
//!
//! Each paper figure and each acceptance matrix is a suite of the one
//! `rpav-bench` binary (`cargo run -p rpav-bench --release -- figNN_*
//! [--smoke]`; `-- list` names them all) that runs the required campaigns
//! and prints the figure's series as labelled text tables — the same
//! rows/series the paper plots. `RPAV_RUNS` controls the number of runs
//! pooled per configuration (default 3; the paper pooled ≈130 runs —
//! raise it for smoother tails).

use rpav_core::prelude::*;
use rpav_core::stats;
use rpav_netem::{FaultScript, PacketKind};
use rpav_sim::{SimDuration, SimTime};

/// Number of runs per configuration (env `RPAV_RUNS`, default 3).
pub fn runs_per_config() -> u64 {
    std::env::var("RPAV_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Master seed for all figures (env `RPAV_SEED`, default the campaign
/// constant).
pub fn master_seed() -> u64 {
    std::env::var("RPAV_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x1AC_2022)
}

/// Shared matrix-suite base: workload + bench master seed + run index +
/// short hold. Every `*_matrix` suite starts from this builder and
/// layers its own axes on top.
pub fn matrix_config(cc: CcMode, run: u64, hold_secs: u64) -> ExperimentConfigBuilder {
    ExperimentConfig::builder()
        .cc(cc)
        .seed(master_seed())
        .run_index(run)
        .hold_secs(hold_secs)
}

/// The resilience harness's small campaign (2 environments × 2 runs,
/// 1 s holds) — shared with the daemon smoke test.
pub fn resilience_small_spec() -> CampaignSpec {
    CampaignSpec::new(matrix_config(CcMode::Gcc, 0, 1).build())
        .environments([Environment::Urban, Environment::Rural])
        .runs(2)
}

/// The kill/resume campaign: enough sequential work (jobs=1 in the
/// victim) that a parent can observe partial completion before killing.
pub fn resilience_kill_spec(smoke: bool) -> CampaignSpec {
    CampaignSpec::new(matrix_config(CcMode::Gcc, 0, 2).build())
        .environments([Environment::Urban, Environment::Rural])
        .operators([Operator::P1, Operator::P2])
        .runs(if smoke { 1 } else { 2 })
}

/// Asymmetric per-leg capacity caps (bps) of the bonding harnesses
/// (`bonded_matrix`, `nleg_matrix`; the DESIGN §10.7 cell values): leg 0
/// rides the primary operator's cap, every further leg the secondary's.
/// Neither alone carries the rural Static workload, two together do.
pub const CAP_PRIMARY: f64 = 3.0e6;
pub const CAP_SECONDARY: f64 = 2.5e6;

/// Adaptive-FEC overhead ceiling of the bonding harnesses' FEC sections.
pub const FEC_CAP: f64 = 0.25;

/// Gilbert–Elliott burst loss on media for the first 30 s — the bursty,
/// correlated erasures HARQ exhaustion produces during fades. Put on
/// several legs it is one shared-cell fade: same wall-clock span, each
/// leg still drawing its own packet-level outcomes (two modems camping
/// on one congested cell, not one wire feeding both).
pub fn burst_fade() -> FaultScript {
    FaultScript::new().burst_loss_window(
        SimTime::ZERO,
        SimDuration::from_secs(30),
        0.05,
        0.3,
        0.5,
        Some(PacketKind::Media),
    )
}

/// The bonding harnesses' table header; `label` and `extra` name the two
/// columns each fills its own way.
pub fn print_bonding_header(label: &str, extra: &str) {
    println!(
        "{:<6} {:<7} {:>3} {:<12} {:>9} {:>9} {:>6} {:>6} {:>6} {:>6} {:>5}",
        "sect",
        "cc",
        "run",
        label,
        "put Mbps",
        "stall ms",
        "fectx",
        "fecrec",
        extra,
        "nacks",
        "leg0",
    );
}

/// One row under [`print_bonding_header`].
pub fn print_bonding_row(
    section: &str,
    cc: &str,
    run: u64,
    label: &str,
    m: &RunMetrics,
    extra: u64,
) {
    println!(
        "{:<6} {:<7} {:>3} {:<12} {:>9.2} {:>9.1} {:>6} {:>6} {:>6} {:>6} {:>5.2}",
        section,
        cc,
        run,
        label,
        m.goodput_bps() / 1e6,
        m.stalled_time.as_millis_f64(),
        m.fec_tx,
        m.fec_recovered,
        extra,
        m.nack_seqs_requested,
        m.leg_tx_share(0),
    );
}

/// The multipath harnesses' primary-operator blackout (`failover_matrix`,
/// `bonded_matrix`): the primary leg goes fully dark, both directions,
/// after CC convergence.
pub const FAULT_AT: SimTime = SimTime::from_secs(10);
pub const FAULT_FOR: SimDuration = SimDuration::from_secs(15);

/// The blackout script over [`FAULT_AT`] .. `FAULT_AT + FAULT_FOR`.
pub fn primary_blackout() -> FaultScript {
    FaultScript::new().blackout(FAULT_AT, FAULT_FOR)
}

/// Run one paper-default campaign (on the matrix engine's thread pool —
/// `RPAV_JOBS` workers, `RPAV_CACHE` for the on-disk result cache, one
/// [`EngineOptions::from_env`] parse).
pub fn campaign(env: Environment, op: Operator, mobility: Mobility, cc: CcMode) -> CampaignResult {
    config_campaign(paper_config(env, op, mobility, cc))
}

/// Run `runs_per_config()` repetitions of one configuration through the
/// spec → engine path.
pub fn config_campaign(cfg: ExperimentConfig) -> CampaignResult {
    let spec = CampaignSpec::new(cfg).runs(runs_per_config());
    let result = CampaignEngine::new().run(&spec.to_matrix());
    CampaignResult {
        label: cfg.label(),
        runs: result.metrics().cloned().collect(),
    }
}

/// The paper-default configuration at the bench master seed.
pub fn paper_config(
    env: Environment,
    op: Operator,
    mobility: Mobility,
    cc: CcMode,
) -> ExperimentConfig {
    ExperimentConfig::builder()
        .environment(env)
        .operator(op)
        .mobility(mobility)
        .cc(cc)
        .seed(master_seed())
        .build()
}

/// The three §3.2 workloads for an environment.
pub fn paper_ccs(env: Environment) -> [CcMode; 3] {
    [
        CcMode::paper_static(env),
        CcMode::paper_scream(),
        CcMode::Gcc,
    ]
}

/// Print a figure banner.
pub fn banner(figure: &str, caption: &str) {
    println!("=== {figure} — {caption}");
    println!(
        "    ({} run(s)/config, seed {:#x}; set RPAV_RUNS/RPAV_SEED to change)",
        runs_per_config(),
        master_seed()
    );
}

/// Print one boxplot row.
pub fn print_box(label: &str, values: &[f64]) {
    match stats::box_summary(values) {
        Some(s) => println!("{}", s.row(label)),
        None => println!("{label:<28} (no samples)"),
    }
}

/// Print a CDF as `x p` pairs under a label.
pub fn print_cdf(label: &str, values: &[f64], grid: &[f64]) {
    println!("-- CDF {label} (n={}):", values.len());
    for (x, p) in stats::cdf_at(values, grid) {
        println!("   {x:>10.2} {p:>8.4}");
    }
}

/// Compact CDF print: only the crossings of interesting probabilities.
pub fn print_cdf_quantiles(label: &str, values: &[f64]) {
    if values.is_empty() {
        println!("{label:<28} (no samples)");
        return;
    }
    let qs = [0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
    let row: Vec<String> = qs
        .iter()
        .map(|q| format!("p{:<2.0}={:>9.2}", q * 100.0, stats::quantile(values, *q)))
        .collect();
    println!("{label:<28} {}", row.join(" "));
}

/// Determinism spot-check shared by the matrix suites: the engine's
/// (parallel, possibly cached) result for a cell must equal the cell
/// executed *directly* — no engine, no cache — on the adaptive scheduler.
/// Under `RPAV_REFERENCE_TICK=1` the engine ran the 1 ms reference loop,
/// so the check then also compares the two schedulers.
pub fn assert_replays_directly(outcome: &CellOutcome) {
    assert_eq!(
        outcome.cell().execute_with(false).to_bytes(),
        outcome.metrics().to_bytes(),
        "engine result diverged from direct execution"
    );
}

/// Two executions of one matrix must agree byte for byte: every cell's
/// metrics, in order, and the aggregates folded from them.
pub fn assert_same_results(what: &str, a: &MatrixResult, b: &MatrixResult) {
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(
            x.metrics().to_bytes(),
            y.metrics().to_bytes(),
            "{what} diverged at {}",
            x.cell().label()
        );
    }
    assert_eq!(
        a.report.aggregates.to_bytes(),
        b.report.aggregates.to_bytes(),
        "{what}: aggregates diverged"
    );
}

/// Print a matrix's aggregates: two of their means and a digest of their
/// canonical bytes. Each engine worker folds the cells it ran into its own
/// share, and the aggregates are order-free, so this line must not move
/// with the job count (`RPAV_JOBS`).
pub fn print_aggregates(aggregates: &CampaignAggregates) {
    println!(
        "aggregates: owd mean {:.6} ms, playback mean {:.6} ms, bytes fnv1a {:016x}",
        aggregates.owd_ms.mean().unwrap_or(f64::NAN),
        aggregates.playback_ms.mean().unwrap_or(f64::NAN),
        rpav_core::codec::fnv1a(&aggregates.to_bytes())
    );
}

/// Run `spec` uncached at `jobs = 1` and at `jobs = 8`, assert the two
/// are byte-identical and that the first cell replays directly, and
/// return the parallel result.
pub fn assert_jobs_invariant(spec: &MatrixSpec) -> MatrixResult {
    let run = |jobs| {
        CampaignEngine::new()
            .with_cache_dir(None)
            .with_jobs(jobs)
            .run(spec)
    };
    let (a, b) = (run(1), run(8));
    assert_same_results("jobs=1 vs jobs=8", &a, &b);
    assert_replays_directly(&a.outcomes[0]);
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_have_defaults() {
        assert!(runs_per_config() >= 1);
        assert!(master_seed() != 0);
    }

    #[test]
    fn fixtures_round_trip_over_the_wire() {
        for spec in [
            CampaignSpec::new(paper_config(
                Environment::Urban,
                Operator::P1,
                Mobility::Air,
                CcMode::Gcc,
            ))
            .runs(runs_per_config()),
            resilience_small_spec(),
            resilience_kill_spec(true),
            resilience_kill_spec(false),
        ] {
            let parsed = CampaignSpec::from_json(&spec.to_json()).expect("fixture parses");
            assert_eq!(parsed, spec, "wire round-trip must be lossless");
            assert_eq!(parsed.identity(), spec.identity());
        }
        assert_eq!(resilience_small_spec().to_matrix().expand().len(), 4);
        assert_eq!(resilience_kill_spec(true).to_matrix().expand().len(), 4);
    }

    #[test]
    fn paper_ccs_cover_all_methods() {
        let ccs = paper_ccs(Environment::Urban);
        assert_eq!(ccs[0].name(), "Static");
        assert_eq!(ccs[1].name(), "SCReAM");
        assert_eq!(ccs[2].name(), "GCC");
    }
}
