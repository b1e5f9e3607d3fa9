//! Memory bound of a streaming warm replay.
//!
//! A cache record leads with a few-KB summary section, the cell's one-cell
//! `CampaignAggregates` partial, ahead of its multi-megabyte `RunMetrics`
//! body. On a hit through a streaming entry point a worker reads the
//! summary and the body's header into its recycled buffer, decodes the
//! partial, merges it into its share of the aggregates and hands the
//! collector an outcome whose metrics are still on disk. The collector
//! delivers outcomes (the daemon's observer streams them) one at a time in
//! submission order, and the hand-off is a rendezvous, so what the replay
//! holds at once, from its first outcome on, is:
//!
//! * one head buffer (summary section + both headers) per worker,
//! * one decoded partial per worker between decode and merge, plus two,
//! * the engine's own aggregates: the report's, and each worker's share
//!   and reusable partial,
//! * the reorder frontier's unloaded outcomes — a few hundred bytes each,
//!   however many finished ahead of the cell it waits for.
//!
//! That is far below one record: no body is read, no `RunMetrics` decoded.
//! The observer below sleeps on every outcome, which makes the collector
//! the slow side and lets the workers fill everything the hand-off allows.
//!
//! A second replay's observer asks every outcome for its metrics. Each
//! lazy load holds one record buffer and one decoded record at most, and
//! the outcome (with its metrics) is dropped once the observer returns, so
//! that replay stays within one record buffer and one decoded record above
//! the first bound.
//!
//! This binary holds a single test: the counters are process-wide, and a
//! test running beside it would move them.

use std::time::Duration;

use rpav_core::cache::cache_entry_path;
use rpav_core::codec::{record_head, unseal_summary, RecordHead};
use rpav_core::prelude::*;
use rpav_sim::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CELLS: u64 = 12;
const JOBS: usize = 2;
/// Room for one unloaded outcome — the cell, an empty `OnceLock`, the
/// cache directory's `Arc` — in the reorder frontier or in delivery.
const OUTCOME: usize = 1024;

/// Peak live bytes above `before` over the observer's samples.
fn peak_above(samples: &[usize], before: usize) -> usize {
    samples
        .iter()
        .map(|live| live.saturating_sub(before))
        .max()
        .unwrap()
}

#[test]
fn warm_replay_holds_no_more_than_the_rendezvous_bound() {
    let dir = std::env::temp_dir().join(format!("rpav-engine-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = EngineOptions {
        jobs: Some(JOBS),
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    }
    .engine();
    // Static CC at a fixed bitrate: every cell sends the same stream, so
    // the records are the same shape (≈ 4 MB each).
    let cells = MatrixSpec::new(
        ExperimentConfig::builder()
            .cc(CcMode::Static { bitrate_bps: 8e6 })
            .seed(0x3E3)
            .hold_secs(1)
            .build(),
    )
    .runs(CELLS)
    .expand();

    let cold = engine.run_cells_streaming(cells.clone());
    assert_eq!(cold.report.simulated, CELLS as usize);
    assert_eq!(cold.report.store_failed, 0);

    // The units the bounds are made of, each at its largest over the
    // campaign: a head buffer holds a record up to its body payload, a
    // decoded partial is what `CampaignAggregates::from_bytes` allocates
    // for one summary, a record buffer holds one whole file and a decoded
    // record is what `RunMetrics::from_cache_bytes` allocates for one.
    let (mut head, mut partial, mut record, mut decoded) = (0usize, 0usize, 0usize, 0usize);
    let mut total = 0usize;
    for cell in &cells {
        let bytes = std::fs::read(cache_entry_path(&dir, cell.key())).expect("record written");
        let Some(RecordHead::Summary { prefix }) = record_head(&bytes) else {
            panic!("record leads with no summary section");
        };
        let prefix = &bytes[..prefix as usize];
        let summary = unseal_summary(prefix, bytes.len() as u64).expect("summary verifies");
        let before = alloc::current_bytes();
        let aggregates = CampaignAggregates::from_bytes(summary).expect("summary decodes");
        partial = partial.max(alloc::current_bytes() - before);
        drop(aggregates);
        let before = alloc::current_bytes();
        let metrics = RunMetrics::from_cache_bytes(&bytes).expect("record decodes");
        decoded = decoded.max(alloc::current_bytes() - before);
        drop(metrics);
        head = head.max(prefix.len());
        record = record.max(bytes.len());
        total += bytes.len();
    }
    let mean = total as f64 / cells.len() as f64;
    assert!(
        (record as f64) < 1.1 * mean,
        "the cells differ in shape: largest record {record} B, mean {mean:.0} B"
    );

    // Live bytes on entry to and on exit from every observer call, from
    // the first outcome on.
    let replay = |observe: &mut dyn FnMut(&CellOutcome)| {
        let before = alloc::current_bytes();
        let mut samples = Vec::with_capacity(2 * CELLS as usize);
        let warm = engine.run_cells_streaming_observed(cells.clone(), &mut |outcome| {
            samples.push(alloc::current_bytes());
            observe(outcome);
            std::thread::sleep(Duration::from_millis(30));
            samples.push(alloc::current_bytes());
        });
        assert_eq!(warm.report.cached, CELLS as usize);
        assert_eq!(warm.report.quarantined, 0);
        peak_above(&samples, before)
    };

    let summaries = replay(&mut |_| {});
    // `JOBS` head buffers, `JOBS + 2` decoded partials, the report's
    // aggregates plus each worker's share and partial, and every cell's
    // outcome in the frontier or in delivery.
    let bound =
        JOBS * head + (JOBS + 2) * partial + (1 + 2 * JOBS) * partial + CELLS as usize * OUTCOME;
    let records = |bytes: usize| bytes as f64 / mean;
    eprintln!(
        "summary replay: peak {summaries} B above the pre-run level ({:.4} mean records; bound {bound} B)",
        records(summaries)
    );
    assert!(
        summaries <= bound,
        "the summary replay held {summaries} B; the bound is {bound} B"
    );
    assert!(
        (bound as f64) < 0.25 * mean,
        "the bound ({bound} B) is not well under one mean record ({mean:.0} B)"
    );

    // The same replay with every outcome's metrics loaded by its observer.
    let mut loaded = 0usize;
    let lazy = replay(&mut |outcome| {
        loaded += outcome.try_metrics().map_or(0, |m| m.owd.len().min(1));
    });
    assert_eq!(loaded, CELLS as usize, "every outcome's metrics loaded");
    let lazy_bound = bound + record + decoded;
    eprintln!(
        "lazy-load replay: peak {:.2} mean records (bound {:.2})",
        records(lazy),
        records(lazy_bound)
    );
    assert!(
        lazy <= lazy_bound,
        "the lazy-load replay held {:.2} mean records' worth of bytes; the bound is {:.2}",
        records(lazy),
        records(lazy_bound)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
