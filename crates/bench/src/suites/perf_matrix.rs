//! Work-count gate — emits `BENCH_PIPELINE.json`.
//!
//! Runs a deterministic single-threaded matrix of cold cells through the
//! adaptive scheduler and records, per section, how much work that was:
//!
//! * **ticks** — driver steps actually taken;
//! * **packets** — media, retransmission and parity packets sent;
//! * **allocs** — heap allocation events, counted by the
//!   `rpav_sim::alloc` counting allocator `rpav-bench` runs on (`alloc`,
//!   `alloc_zeroed` and `realloc` all count — a reallocation is exactly
//!   the churn the pooled buffers are supposed to avoid).
//!
//! No clock is read here: wall time, throughput and per-layer cost are
//! the `benchmark/` crate's (`benchmark/run.sh`), measured on parent and
//! change alike. What this suite owns is the numbers that reproduce bit
//! for bit on any machine.
//!
//! The default invocation counts three sweeps and writes one JSON object
//! with a `full` section (paper-length flights), a `quick` section (1 s
//! holds, the CI smoke), and a `bonded` section (two-leg bonded sessions
//! with FEC + repair armed, 1 s holds). `--smoke` skips only the full
//! sweep. `--check <baseline.json>` then compares every section counted
//! this run against the same section of the committed baseline and exits
//! non-zero when `ticks` or `packets` differ from it at all (a behaviour
//! change must arrive with a re-measured row), or when `allocs` rises
//! more than 25 % above it plus 0.02 per packet (the slack keeps sweeps
//! that are already near zero from failing on a handful of allocations).
//! This is the CI gate.
//!
//! Output goes to stdout and to `BENCH_PIPELINE.json` in the current
//! directory (`--out <file>` overrides the path).

use rpav_bench::{paper_ccs, paper_config};
use rpav_core::prelude::*;
use rpav_sim::alloc;

/// The layout `to_json` writes and `gate` reads.
const SCHEMA: u64 = 2;

/// One sweep's work counts.
struct Section {
    mode: &'static str,
    cells: u64,
    ticks: u64,
    packets: u64,
    allocs: u64,
}

impl Section {
    fn to_json(&self) -> String {
        format!(
            "  \"{}\": {{\n    \"cells\": {},\n    \"ticks\": {},\n    \
             \"packets\": {},\n    \"allocs\": {}\n  }}",
            self.mode, self.cells, self.ticks, self.packets, self.allocs
        )
    }
}

/// Count one cold sweep. `sweep` executes a cell each time it is pulled
/// and yields that cell's `(ticks, packets)`; allocation events are taken
/// around the whole iteration.
fn count(mode: &'static str, sweep: impl Iterator<Item = (u64, u64)>) -> Section {
    let alloc_start = alloc::events();
    let (mut cells, mut ticks, mut packets) = (0, 0, 0);
    for (cell_ticks, cell_packets) in sweep {
        cells += 1;
        ticks += cell_ticks;
        packets += cell_packets;
    }
    Section {
        mode,
        cells,
        ticks,
        packets,
        allocs: alloc::events() - alloc_start,
    }
}

/// One cold sweep of the 6 paper workloads (3 CCs × 2 environments),
/// single-threaded, engine-free.
fn run_sweep(quick: bool) -> Section {
    let workloads = [Environment::Urban, Environment::Rural]
        .into_iter()
        .flat_map(|env| paper_ccs(env).map(|cc| (env, cc)));
    let sweep = workloads.map(|(env, cc)| {
        let cfg = if quick {
            ExperimentConfig::builder()
                .environment(env)
                .cc(cc)
                .seed(0xBE7C)
                .hold_secs(1)
                .build()
        } else {
            paper_config(env, Operator::P1, Mobility::Air, cc)
        };
        let (metrics, steps) = Simulation::new(cfg).run_instrumented();
        (steps, metrics.media_sent + metrics.rtx_sent)
    });
    count(if quick { "quick" } else { "full" }, sweep)
}

/// One cold sweep of two-leg bonded sessions: the three rural CCs with
/// FEC armed and repair on (1 s holds) — the heaviest receive path in
/// the tree (striping + parity recovery + reassembly window). A session
/// that monitors its legs steps every tick, so its step count is its
/// flight + drain milliseconds.
fn run_bonded_sweep() -> Section {
    let sweep = paper_ccs(Environment::Rural).into_iter().map(|cc| {
        let cfg = ExperimentConfig::builder()
            .cc(cc)
            .seed(0xBE7C)
            .hold_secs(1)
            .fec_cap(0.25)
            .repair(true)
            .build();
        let (m, steps) =
            Simulation::multipath(cfg, MultipathScheme::Bonded, Vec::new()).run_instrumented();
        (steps, m.media_sent + m.rtx_sent + m.fec_tx)
    });
    count("bonded", sweep)
}

/// What comparing a run against a baseline found.
#[derive(Default)]
struct Verdict {
    /// What was compared, or why it was not — printed, never fatal.
    notes: Vec<String>,
    /// Every reason the gate fails; empty means pass.
    failures: Vec<String>,
}

/// Compare each counted section against the same section of `baseline`.
fn gate(baseline: &Json, sections: &[Section]) -> Verdict {
    let mut v = Verdict::default();
    let show = |count: Option<u64>| count.map_or("absent".to_string(), |c| c.to_string());
    // An older layout's sections are not this one's: reading the fields
    // that happen to share a name would gate against half a baseline.
    let schema = baseline.get("schema").and_then(Json::as_u64);
    if schema != Some(SCHEMA) {
        v.failures.push(format!(
            "baseline is schema {}, this gate reads schema {SCHEMA} — re-measure it",
            show(schema)
        ));
        return v;
    }
    for s in sections {
        let Some(base) = baseline.get(s.mode) else {
            v.notes.push(format!(
                "baseline has no `{}` section — skipping gate",
                s.mode
            ));
            continue;
        };
        let base_count = |key: &str| base.get(key).and_then(Json::as_u64);
        // The sweeps are deterministic, so these are exact — any
        // difference is a behaviour change.
        for (key, now) in [("ticks", s.ticks), ("packets", s.packets)] {
            let base = base_count(key);
            if base != Some(now) {
                v.failures.push(format!(
                    "BEHAVIOUR CHANGE ({}): {key} {} → {now} — re-measure the baseline row",
                    s.mode,
                    show(base)
                ));
            }
        }
        // Allocation churn: nearly noise-free, so anything beyond a
        // quarter over the baseline plus 0.02 per packet means a hot path
        // started allocating again. Integer form of
        // `allocs ≤ 1.25 × baseline + 0.02 × packets`.
        if let Some(base_allocs) = base_count("allocs") {
            let limit = (125 * base_allocs + 2 * s.packets) / 100;
            v.notes.push(format!(
                "{:<6} baseline {base_allocs} allocs → now {} (limit {limit})",
                s.mode, s.allocs
            ));
            if s.allocs > limit {
                v.failures.push(format!(
                    "ALLOC REGRESSION ({}): {} allocs exceeds limit {limit}",
                    s.mode, s.allocs
                ));
            }
        }
    }
    v
}

/// Where this run's JSON goes: `--out` if given; otherwise a measuring
/// run (no `--check`) re-measures `BENCH_PIPELINE.json` in the working
/// directory, and a checking run writes nothing, so gating against the
/// committed baseline never overwrites it.
fn output_path(args: &crate::Args) -> Option<&std::path::Path> {
    match (&args.out, &args.check) {
        (Some(out), _) => Some(out),
        (None, None) => Some(std::path::Path::new("BENCH_PIPELINE.json")),
        (None, Some(_)) => None,
    }
}

pub fn run(args: &crate::Args) {
    let quick_only = args.smoke;

    println!(
        "=== perf_matrix — work counts ({}, single-threaded)",
        if quick_only {
            "quick sweep"
        } else {
            "full + quick sweeps"
        }
    );

    // Read the baseline *before* counting: the output file may be the
    // baseline path itself, and a self-comparison would gate nothing.
    let baseline = args.check.as_ref().map(|p| {
        let text = std::fs::read_to_string(p)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", p.display()));
        Json::parse(&text).unwrap_or_else(|e| panic!("parse baseline {}: {e}", p.display()))
    });

    let mut sections = Vec::new();
    if !quick_only {
        sections.push(run_sweep(false));
    }
    sections.push(run_sweep(true));
    sections.push(run_bonded_sweep());
    for s in &sections {
        println!(
            "{:<6} {} cells — {} ticks, {} packets, {} allocs",
            s.mode, s.cells, s.ticks, s.packets, s.allocs
        );
    }

    let json = format!(
        "{{\n  \"schema\": {SCHEMA},\n{}\n}}\n",
        sections
            .iter()
            .map(Section::to_json)
            .collect::<Vec<_>>()
            .join(",\n")
    );
    if let Some(out) = output_path(args) {
        std::fs::write(out, &json).expect("write BENCH_PIPELINE.json");
        println!("wrote {}", out.display());
    }

    if let Some(baseline) = baseline {
        let verdict = gate(&baseline, &sections);
        for note in &verdict.notes {
            println!("{note}");
        }
        for failure in &verdict.failures {
            eprintln!("{failure}");
        }
        if !verdict.failures.is_empty() {
            std::process::exit(1);
        }
        println!("ticks and packets match the baseline, allocs within its limit — ok");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(schema: u64) -> Json {
        let text = format!(
            r#"{{"schema": {schema},
                "quick": {{"cells": 6, "ticks": 1000, "packets": 10000, "allocs": 400}}}}"#
        );
        Json::parse(&text).unwrap()
    }

    /// The baseline's `quick` section, as counted by a run.
    fn quick() -> Section {
        Section {
            mode: "quick",
            cells: 6,
            ticks: 1000,
            packets: 10_000,
            allocs: 400,
        }
    }

    #[test]
    fn a_checking_run_writes_only_where_told() {
        let path = |p: &str| Some(std::path::PathBuf::from(p));
        let args = |check, out| crate::Args {
            smoke: true,
            check,
            out,
        };
        let measure = args(None, None);
        assert_eq!(
            output_path(&measure),
            Some(std::path::Path::new("BENCH_PIPELINE.json"))
        );
        let gate_only = args(path("BENCH_PIPELINE.json"), None);
        assert_eq!(output_path(&gate_only), None);
        let both = args(path("BENCH_PIPELINE.json"), path("target/now.json"));
        assert_eq!(
            output_path(&both),
            Some(std::path::Path::new("target/now.json"))
        );
    }

    #[test]
    fn an_identical_run_passes() {
        assert!(gate(&baseline(SCHEMA), &[quick()]).failures.is_empty());
    }

    #[test]
    fn ticks_off_by_one_fails_and_names_the_section() {
        for (ticks, packets) in [(1001, 10_000), (999, 10_000), (1000, 10_001)] {
            let now = Section {
                ticks,
                packets,
                ..quick()
            };
            let failures = gate(&baseline(SCHEMA), &[now]).failures;
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains("(quick)"), "{failures:?}");
        }
    }

    #[test]
    fn allocs_pass_at_the_limit_and_fail_one_above() {
        // 1.25 × 400 + 0.02 × 10 000 = 700.
        let with_allocs = |allocs| Section { allocs, ..quick() };
        assert!(gate(&baseline(SCHEMA), &[with_allocs(700)])
            .failures
            .is_empty());
        let failures = gate(&baseline(SCHEMA), &[with_allocs(701)]).failures;
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("ALLOC REGRESSION (quick)"));
    }

    #[test]
    fn a_section_the_baseline_lacks_is_skipped_with_a_note() {
        let bonded = Section {
            mode: "bonded",
            ..quick()
        };
        let verdict = gate(&baseline(SCHEMA), &[bonded]);
        assert!(verdict.failures.is_empty());
        assert_eq!(
            verdict.notes,
            ["baseline has no `bonded` section — skipping gate"]
        );
    }

    #[test]
    fn an_older_schema_is_refused_not_half_read() {
        // Schema 1 sections carry `ticks` / `packets` / `allocs` too; the
        // gate must not compare against them.
        let verdict = gate(&baseline(1), &[quick()]);
        assert_eq!(verdict.failures.len(), 1);
        assert!(verdict.failures[0].contains("re-measure"));
        assert!(verdict.notes.is_empty());
    }
}
