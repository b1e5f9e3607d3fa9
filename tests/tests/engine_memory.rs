//! Memory bound of the campaign engine's worker → collector hand-off.
//!
//! On warm replay a worker turns a sealed record into a decoded
//! `RunMetrics` and folds it into its own share of the aggregates in a
//! few milliseconds, while the collector delivers results (the daemon's
//! observer streams them) one at a time in submission order. The
//! collector folds nothing, but its sink can still be the slow side, and
//! the hand-off is a rendezvous, so once the replay is under way what it
//! holds at once is bounded by the worker count, not by how far the
//! workers could run ahead:
//!
//! * one recycled record buffer per worker,
//! * one decoded record per worker blocked in its hand-off, plus the one
//!   the collector is delivering,
//! * one out-of-order entry in the reorder frontier.
//!
//! The observer below sleeps on every outcome, which makes the collector
//! the slow side and lets the workers fill everything the hand-off allows
//! them to; a channel with one slot per worker holds `jobs` decoded
//! records more and fails the assertion.
//!
//! This binary holds a single test: the counters are process-wide, and a
//! test running beside it would move them.

use std::time::Duration;

use rpav_core::cache::cache_entry_path;
use rpav_core::prelude::*;
use rpav_sim::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CELLS: u64 = 12;
const JOBS: usize = 2;

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

    // The two units the bound is made of, each at its largest over the
    // campaign: a record buffer holds one sealed file, a decoded record
    // is what `RunMetrics::from_cache_bytes` allocates for one.
    let mut record = 0usize;
    let mut decoded = 0usize;
    let mut total = 0usize;
    for cell in &cells {
        let bytes = std::fs::read(cache_entry_path(&dir, cell.key())).expect("record written");
        let before = alloc::current_bytes();
        let metrics = RunMetrics::from_cache_bytes(&bytes).expect("record decodes");
        decoded = decoded.max(alloc::current_bytes() - before);
        drop(metrics);
        record = record.max(bytes.len());
        total += bytes.len();
    }
    let mean = total as f64 / cells.len() as f64;
    assert!(
        (record as f64) < 1.1 * mean,
        "the cells differ in shape: largest record {record} B, mean {mean:.0} B"
    );

    // Live bytes on entry to and on exit from every observer call. Until
    // the first cell lands, the frontier keeps whatever the other worker
    // finished ahead of it — a start-up transient set by thread timing,
    // which drains as the first outcomes are delivered — so the bound is
    // asserted from outcome `JOBS + 1` on.
    let before = alloc::current_bytes();
    let mut samples = Vec::new();
    let warm = engine.run_cells_streaming_observed(cells, &mut |outcome| {
        let index = outcome.cell().index;
        samples.push((index, alloc::current_bytes()));
        std::thread::sleep(Duration::from_millis(30));
        samples.push((index, alloc::current_bytes()));
    });
    assert_eq!(warm.report.cached, CELLS as usize);
    let peak = samples
        .iter()
        .filter(|&&(index, _)| index > JOBS)
        .map(|&(_, live)| live.saturating_sub(before))
        .max()
        .unwrap();

    // `JOBS` record buffers, `JOBS + 1` decoded records and one reorder
    // entry, plus half a record for the small per-outcome allocations
    // (cell clones, `Arc` headers, frontier nodes).
    let bound = JOBS * record + (JOBS + 2) * decoded + decoded / 2;
    let records = |bytes: usize| bytes as f64 / mean;
    eprintln!(
        "peak live bytes above the pre-run level: {:.2} mean records (bound {:.2})",
        records(peak),
        records(bound)
    );
    assert!(
        peak <= bound,
        "the replay held {:.2} mean records' worth of bytes; the rendezvous bound is {:.2}",
        records(peak),
        records(bound)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
