//! Engine-throughput tracker — emits `BENCH_PIPELINE.json`.
//!
//! Runs a deterministic single-threaded matrix of cold cells through the
//! adaptive scheduler and records the three numbers every perf PR is
//! judged on:
//!
//! * **cells/s** — whole-matrix throughput (the chaos-matrix currency);
//! * **ns/tick** — wall time per driver step actually taken;
//! * **allocs/packet** — heap allocations per media packet sent, counted
//!   by the `rpav_sim::alloc` counting allocator `rpav-bench` runs on
//!   (`alloc`, `alloc_zeroed` and `realloc` all count as events — a
//!   reallocation is exactly the churn the pooled buffers are supposed
//!   to avoid).
//!
//! The default invocation measures the sweeps and writes one JSON object
//! with a `full` section (paper-length flights, the tracked trajectory),
//! a `quick` section (1 s holds, the CI smoke), and a `bonded` section
//! (two-leg bonded sessions with FEC + repair armed, 1 s holds).
//! `--smoke` skips only the full sweep. `--check <baseline.json>` then
//! compares every section measured this run against the same section of
//! the committed baseline and exits non-zero on what cannot wobble:
//! `ticks` or `packets` differing from the baseline at all (the sweeps
//! are deterministic, so a behaviour change must arrive with a
//! re-measured row), or allocs/packet rising more than 25 % above it
//! (plus a small absolute slack for sweeps that are already near zero).
//! The cells/s delta is printed, never gated: the baseline was taken on
//! another machine and shared hosts swing by tens of per cent run to
//! run. This is the CI perf gate.
//!
//! Output goes to stdout and to `BENCH_PIPELINE.json` in the current
//! directory (`--out <file>` overrides the path).

use std::time::Instant;

use rpav_bench::{paper_ccs, paper_config};
use rpav_core::prelude::*;
use rpav_sim::alloc;

/// The gate's relative band, in percent, on allocs/packet.
const THRESHOLD: f64 = 25.0;

/// Absolute slack on the allocs/packet gate: near-zero baselines would
/// otherwise turn harmless jitter of a handful of allocations into a
/// relative-threshold failure.
const ALLOC_GATE_SLACK: f64 = 0.02;

struct Measurement {
    mode: &'static str,
    cells: usize,
    wall_s: f64,
    cells_per_s: f64,
    ns_per_tick: f64,
    allocs_per_packet: f64,
    ticks: u64,
    packets: u64,
    allocs: u64,
}

impl Measurement {
    fn to_json(&self) -> String {
        format!(
            "  \"{}\": {{\n    \"cells\": {},\n    \"wall_s\": {:.3},\n    \
             \"cells_per_s\": {:.3},\n    \"ns_per_tick\": {:.1},\n    \
             \"allocs_per_packet\": {:.2},\n    \"ticks\": {},\n    \
             \"packets\": {},\n    \"allocs\": {}\n  }}",
            self.mode,
            self.cells,
            self.wall_s,
            self.cells_per_s,
            self.ns_per_tick,
            self.allocs_per_packet,
            self.ticks,
            self.packets,
            self.allocs
        )
    }
}

/// Time one cold sweep. `sweep` executes a cell each time it is pulled
/// and yields that cell's `(ticks, packets)`; wall time and allocation
/// events are taken around the whole iteration.
fn measure(mode: &'static str, sweep: impl Iterator<Item = (u64, u64)>) -> Measurement {
    let alloc_start = alloc::events();
    let wall_start = Instant::now();
    let (mut cells, mut ticks, mut packets) = (0usize, 0u64, 0u64);
    for (cell_ticks, cell_packets) in sweep {
        cells += 1;
        ticks += cell_ticks;
        packets += cell_packets;
    }
    let wall_s = wall_start.elapsed().as_secs_f64();
    let allocs = alloc::events() - alloc_start;
    Measurement {
        mode,
        cells,
        wall_s,
        cells_per_s: cells as f64 / wall_s,
        ns_per_tick: wall_s * 1e9 / ticks as f64,
        allocs_per_packet: allocs as f64 / packets as f64,
        ticks,
        packets,
        allocs,
    }
}

/// One cold sweep of the 6 paper workloads (3 CCs × 2 environments),
/// single-threaded, engine-free.
fn run_sweep(quick: bool) -> Measurement {
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
    measure(if quick { "quick" } else { "full" }, sweep)
}

/// One cold sweep of two-leg bonded sessions: the three rural CCs with
/// FEC armed and repair on (1 s holds) — the heaviest receive path in
/// the tree (striping + parity recovery + reassembly window). A session
/// that monitors its legs steps every tick, so its step count is its
/// flight + drain milliseconds. `cells_per_s` is the gated number.
fn run_bonded_sweep() -> Measurement {
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
    measure("bonded", sweep)
}

pub fn run(args: &crate::Args) {
    let quick_only = args.smoke;

    println!(
        "=== perf_matrix — engine throughput ({}, single-threaded)",
        if quick_only {
            "quick sweep"
        } else {
            "full + quick sweeps"
        }
    );

    // Read the baseline *before* measuring: the output file may be the
    // baseline path itself, and a self-comparison would gate nothing.
    let baseline = args.check.as_ref().map(|p| {
        let text = std::fs::read_to_string(p)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", p.display()));
        Json::parse(&text).unwrap_or_else(|e| panic!("parse baseline {}: {e}", p.display()))
    });

    // Warm-up: touch every code path once so lazy init (thread-locals,
    // cold text pages) doesn't bill the first measured cell.
    {
        let cfg = ExperimentConfig::builder()
            .cc(CcMode::Gcc)
            .seed(0xD0)
            .hold_secs(1)
            .build();
        let _ = Simulation::new(cfg).run();
    }

    let mut sections = Vec::new();
    if !quick_only {
        sections.push(run_sweep(false));
    }
    sections.push(run_sweep(true));
    sections.push(run_bonded_sweep());
    for m in &sections {
        println!(
            "{:<5} {} cells in {:.2} s — {:.2} cells/s, {:.0} ns/tick, {:.2} allocs/packet",
            m.mode, m.cells, m.wall_s, m.cells_per_s, m.ns_per_tick, m.allocs_per_packet
        );
    }

    let json = format!(
        "{{\n  \"schema\": 1,\n{}\n}}\n",
        sections
            .iter()
            .map(Measurement::to_json)
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let out = args.out.as_deref();
    let out = out.unwrap_or(std::path::Path::new("BENCH_PIPELINE.json"));
    std::fs::write(out, &json).expect("write BENCH_PIPELINE.json");
    println!("wrote {}", out.display());

    if let Some(baseline) = baseline {
        let field = |section: &str, key: &str| baseline.get(section)?.get(key)?.as_f64();
        let count = |section: &str, key: &str| baseline.get(section)?.get(key)?.as_u64();
        let mut failed = false;
        for m in &sections {
            let Some(base) = field(m.mode, "cells_per_s") else {
                println!("baseline has no `{}` section — skipping gate", m.mode);
                continue;
            };
            let delta_pct = (m.cells_per_s - base) / base * 100.0;
            println!(
                "{:<5} baseline {base:.2} cells/s → now {:.2} cells/s ({delta_pct:+.1} %, not gated)",
                m.mode, m.cells_per_s
            );
            // Work-counter gate: the sweeps are deterministic, so these
            // are exact — any difference is a behaviour change, and must
            // arrive with a re-measured baseline row.
            for (key, now) in [("ticks", m.ticks), ("packets", m.packets)] {
                let base = count(m.mode, key);
                if base != Some(now) {
                    eprintln!(
                        "BEHAVIOUR CHANGE ({}): {key} {} → {now} — re-measure the baseline row",
                        m.mode,
                        base.map_or("absent".to_string(), |b| b.to_string())
                    );
                    failed = true;
                }
            }
            // Allocation-churn gate: the sweeps are deterministic, so
            // allocs/packet is nearly noise-free — anything beyond the
            // relative threshold plus a small absolute slack means a hot
            // path started allocating again.
            if let Some(base_ap) = field(m.mode, "allocs_per_packet") {
                let limit = base_ap * (1.0 + THRESHOLD / 100.0) + ALLOC_GATE_SLACK;
                println!(
                    "{:<5} baseline {base_ap:.2} allocs/packet → now {:.2} (limit {limit:.2})",
                    m.mode, m.allocs_per_packet
                );
                if m.allocs_per_packet > limit {
                    eprintln!(
                        "ALLOC REGRESSION ({}): allocs/packet {:.2} exceeds limit {:.2}",
                        m.mode, m.allocs_per_packet, limit
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("ticks and packets match the baseline, allocs/packet within {THRESHOLD}% — ok");
    }
}
