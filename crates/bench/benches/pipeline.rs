//! Criterion benchmark of the full measurement pipeline: how much wall
//! time one short flight takes per workload. This is the number that
//! bounds campaign sizes (the paper pooled ≈130 runs).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rpav_core::prelude::*;

fn short_config(cc: CcMode) -> ExperimentConfig {
    ExperimentConfig::builder()
        .cc(cc)
        .seed(0xBE7C)
        .hold_secs(1)
        .build()
}

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_flight");
    g.sample_size(10);
    g.bench_function("static_rural", |b| {
        b.iter(|| {
            black_box(Simulation::new(short_config(CcMode::paper_static(Environment::Rural))).run())
        })
    });
    g.bench_function("gcc_rural", |b| {
        b.iter(|| black_box(Simulation::new(short_config(CcMode::Gcc)).run()))
    });
    g.bench_function("scream_rural", |b| {
        b.iter(|| black_box(Simulation::new(short_config(CcMode::paper_scream())).run()))
    });
    g.finish();
}

/// A ≈30 s simulated flight through the adaptive scheduler — the
/// perf-regression canary for the whole engine (radio, CC, netem, RTP,
/// jitter, player) at a size Criterion can still iterate.
fn bench_mini_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("mini_run_30s");
    g.sample_size(10);
    let cfg = || {
        ExperimentConfig::builder()
            .cc(CcMode::Gcc)
            .seed(0xBE7C)
            .hold_secs(20)
            .build()
    };
    g.bench_function("gcc_urban", |b| {
        b.iter(|| black_box(Simulation::new(cfg()).run()))
    });
    g.finish();
}

criterion_group!(benches, bench_pipeline, bench_mini_run);
criterion_main!(benches);
