//! End-to-end determinism contract of the parallel campaign engine
//! (DESIGN.md §9): for any job count, a matrix produces bit-identical
//! results in submission order, and a cache-warm re-run replays from the
//! cache without simulating anything.

use rpav_core::prelude::*;

/// 12 cells: 2 environments × 3 paper workloads × 2 runs, short holds.
fn spec() -> MatrixSpec {
    let base = ExperimentConfig::builder()
        .environment(Environment::Urban)
        .cc(CcMode::Gcc)
        .seed(0xD15C)
        .hold_secs(1)
        .build();
    MatrixSpec::new(base)
        .environments([Environment::Urban, Environment::Rural])
        .paper_workloads()
        .runs(2)
}

#[test]
fn parallel_execution_is_bit_identical_to_sequential() {
    let spec = spec();
    assert_eq!(spec.expand().len(), 12);

    let sequential = CampaignEngine::new().with_jobs(1).run(&spec);
    let parallel = CampaignEngine::new().with_jobs(8).run(&spec);
    assert_eq!(sequential.outcomes.len(), 12);
    assert_eq!(parallel.outcomes.len(), 12);

    for (s, p) in sequential.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(
            s.cell().label(),
            p.cell().label(),
            "submission order diverged"
        );
        assert_eq!(
            s.metrics().to_bytes(),
            p.metrics().to_bytes(),
            "{}: jobs=8 result is not bit-identical to jobs=1",
            s.cell().label()
        );
    }
    // The aggregates are order-free, so they share the bit-identity
    // guarantee whichever worker folded which cell.
    assert_eq!(
        sequential.report.aggregates.to_bytes(),
        parallel.report.aggregates.to_bytes(),
        "aggregates diverged across job counts"
    );
}

#[test]
fn warm_cache_replays_without_simulating() {
    let spec = spec();
    let dir = std::env::temp_dir().join(format!("rpav-matrix-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = CampaignEngine::new()
        .with_cache_dir(Some(dir.clone()))
        .with_jobs(4);

    let cold = engine.run(&spec);
    assert_eq!(
        cold.report.simulated, 12,
        "cold run must simulate every cell"
    );
    assert!(cold.outcomes.iter().all(|o| !o.cached()));

    let warm = engine.run(&spec);
    assert_eq!(
        warm.report.simulated, 0,
        "warm run re-simulated cached cells"
    );
    assert_eq!(warm.report.cached, 12);
    assert!(warm.outcomes.iter().all(|o| o.cached()));

    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(c.metrics().to_bytes(), w.metrics().to_bytes());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overlapping_runs_on_one_engine_report_their_own_cells() {
    // Two disjoint two-cell matrices, started together on one engine:
    // every count lives in the run's own report, so neither can see (or
    // underflow on) the other's cells.
    let engine = CampaignEngine::new().with_cache_dir(None).with_jobs(2);
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for seed in [0xA1u64, 0xB2] {
            let (engine, barrier) = (&engine, &barrier);
            s.spawn(move || {
                let base = ExperimentConfig::builder().seed(seed).hold_secs(1).build();
                barrier.wait();
                let report = engine.run(&MatrixSpec::new(base).runs(2)).report;
                assert_eq!((report.simulated, report.cached), (2, 0));
            });
        }
    });
}

/// The aggregates' histogram re-derived from its definition: the bucket
/// formula `floor((log10(v) + 6) * 32)` per sample, 576 buckets over
/// exactly `[1e-6, 1e12)`, one f64 partial sum per batch added into an
/// exact sum of its own, written out in `CampaignAggregates::to_bytes`'s
/// layout.
struct FormulaHistogram {
    counts: Vec<u64>,
    below: u64,
    above: u64,
    non_finite: u64,
    count: u64,
    /// The exact sum in 2⁻⁷² units, as six little-endian 32-bit limbs.
    limbs: [u64; 6],
    min: f64,
    max: f64,
}

impl FormulaHistogram {
    fn new() -> Self {
        FormulaHistogram {
            counts: vec![0; 576],
            below: 0,
            above: 0,
            non_finite: 0,
            count: 0,
            limbs: [0; 6],
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn record_batch(&mut self, values: impl Iterator<Item = f64>) {
        let mut partial = 0.0;
        for v in values {
            if !v.is_finite() {
                self.non_finite += 1;
            } else if v < 1e-6 {
                self.below += 1;
            } else if v >= 1e12 {
                self.above += 1;
            } else {
                let idx = ((v.log10() + 6.0) * 32.0).floor();
                self.counts[(idx as usize).min(575)] += 1;
                self.count += 1;
                partial += v;
                self.min = self.min.min(v);
                self.max = self.max.max(v);
            }
        }
        self.add_exact(partial);
    }

    /// Add `x` (0 or ≥ 2⁻²⁰, so a whole number of 2⁻⁷² units) limb by
    /// limb with carries.
    fn add_exact(&mut self, x: f64) {
        if x == 0.0 {
            return;
        }
        let bits = x.to_bits();
        let mantissa = (bits & ((1 << 52) - 1)) | (1 << 52);
        let shift = (bits >> 52) as usize - 1003;
        let first = shift / 32;
        let wide = u128::from(mantissa) << (shift % 32);
        let mut carry = 0u64;
        for (k, limb) in self.limbs.iter_mut().enumerate().skip(first) {
            let part = wide.checked_shr(32 * (k - first) as u32).unwrap_or(0) as u32;
            let s = *limb + u64::from(part) + carry;
            *limb = s & 0xFFFF_FFFF;
            carry = s >> 32;
        }
        assert_eq!(carry, 0, "exact sum overflowed 192 bits");
    }

    fn write(&self, out: &mut Vec<u8>) {
        let mut u64le = |v: u64| out.extend_from_slice(&v.to_le_bytes());
        u64le(self.counts.iter().filter(|c| **c > 0).count() as u64);
        for (i, c) in self.counts.iter().enumerate().filter(|(_, c)| **c > 0) {
            u64le(i as u64);
            u64le(*c);
        }
        u64le(self.below);
        u64le(self.non_finite);
        u64le(self.count);
        u64le(self.above);
        for k in [4, 2, 0] {
            u64le(self.limbs[k + 1] << 32 | self.limbs[k]);
        }
        u64le(self.min.to_bits());
        u64le(self.max.to_bits());
    }
}

/// `CampaignAggregates::fold` + `to_bytes`, re-derived on the formula.
fn formula_fold_bytes(runs: &[RunMetrics]) -> Vec<u8> {
    let (mut goodput, mut owd, mut playback) = (
        FormulaHistogram::new(),
        FormulaHistogram::new(),
        FormulaHistogram::new(),
    );
    let (mut ssim_samples, mut ssim_below_half) = (0u64, 0u64);
    for m in runs {
        goodput.record_batch([m.goodput_bps() / 1e6].into_iter());
        owd.record_batch(m.owd.iter().map(|(_, ms)| *ms));
        playback.record_batch(m.frames.iter().filter_map(|f| f.latency_ms));
        for f in &m.frames {
            ssim_samples += 1;
            ssim_below_half += (f.ssim < 0.5) as u64;
        }
    }
    let sum = |field: fn(&RunMetrics) -> u64| runs.iter().map(field).sum::<u64>();
    let mut out = 2u64.to_le_bytes().to_vec(); // the aggregates version
    for counter in [
        runs.len() as u64,
        0, // failed
        sum(|m| m.media_sent),
        sum(|m| m.media_received),
        sum(|m| m.media_received_bytes),
        sum(|m| m.stalls),
        sum(|m| m.stalled_time.as_micros()),
        sum(|m| m.nacks_sent),
        sum(|m| m.rtx_recovered),
        sum(|m| m.fec_recovered),
        ssim_samples,
        ssim_below_half,
    ] {
        out.extend_from_slice(&counter.to_le_bytes());
    }
    for h in [&goodput, &owd, &playback] {
        h.write(&mut out);
    }
    out
}

/// Real cells with different delay distributions: a saturating urban
/// Static flight and two adaptive rural ones — simulated once per binary.
fn real_runs() -> &'static [RunMetrics] {
    static RUNS: std::sync::OnceLock<Vec<RunMetrics>> = std::sync::OnceLock::new();
    RUNS.get_or_init(|| {
        let runs: Vec<RunMetrics> = [0usize, 7, 10].map(|i| spec().expand()[i].execute()).into();
        assert!(runs
            .iter()
            .all(|m| m.owd.len() > 1_000 && !m.frames.is_empty()));
        runs
    })
}

#[test]
fn table_driven_fold_is_byte_identical_to_the_formula_fold() {
    let runs = real_runs();
    let mut shipped = CampaignAggregates::default();
    for (n, m) in runs.iter().enumerate() {
        shipped.fold(m);
        assert_eq!(
            shipped.to_bytes(),
            formula_fold_bytes(&runs[..=n]),
            "aggregates diverged from the formula fold after cell {n}"
        );
    }
}

#[test]
fn exact_means_stay_within_the_old_sequential_sums_rounding_bound() {
    // The aggregates used to sum every in-range sample into one f64, in
    // submission order. That sum and the exact sum of per-cell partials
    // are each within (n − 1)·2⁻⁵³·Σ|x| of the true sum, so the two sums
    // differ by at most 2n·2⁻⁵³·Σ|x|, and the means by that over n plus
    // one rounding each for the division.
    let runs = real_runs();
    let mut aggregates = CampaignAggregates::default();
    runs.iter().for_each(|m| aggregates.fold(m));
    let in_range = |v: &f64| (1e-6..1e12).contains(v);
    let series: [(&str, &LogHistogram, Vec<f64>); 3] = [
        (
            "goodput",
            &aggregates.goodput_mbps,
            runs.iter().map(|m| m.goodput_bps() / 1e6).collect(),
        ),
        (
            "owd",
            &aggregates.owd_ms,
            runs.iter()
                .flat_map(|m| m.owd.iter().map(|(_, ms)| *ms))
                .collect(),
        ),
        (
            "playback",
            &aggregates.playback_ms,
            runs.iter()
                .flat_map(|m| m.frames.iter().filter_map(|f| f.latency_ms))
                .collect(),
        ),
    ];
    for (name, histogram, samples) in series {
        let samples: Vec<f64> = samples.into_iter().filter(in_range).collect();
        let n = samples.len() as f64;
        assert_eq!(histogram.count, samples.len() as u64, "{name}");
        let old_mean = samples.iter().fold(0.0, |sum, v| sum + v) / n;
        let abs_sum: f64 = samples.iter().map(|v| v.abs()).sum();
        let sum_bound = 2.0 * n * 2f64.powi(-53) * abs_sum;
        let bound = sum_bound / n + 2f64.powi(-52) * old_mean;
        let new_mean = histogram.mean().unwrap();
        assert!(
            (new_mean - old_mean).abs() <= bound,
            "{name}: mean {old_mean:e} → {new_mean:e} moved more than {bound:e}"
        );
    }
}
