//! Statistics used by every figure: quantiles, CDFs, boxplot summaries.

/// Five-number boxplot summary plus the mean (the paper's boxplots mark the
/// mean with a purple triangle).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxSummary {
    /// Smallest observation.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample count.
    pub n: usize,
}

/// Linear-interpolation quantile of `sorted` (must be ascending), `q` in
/// [0, 1].
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Quantile of an unsorted slice (copies and sorts).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    assert!(!v.is_empty(), "quantile of empty slice");
    v.sort_by(|a, b| a.total_cmp(b));
    quantile_sorted(&v, q)
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Fraction of samples `<= threshold` — the "X % of the time below Y"
/// statements throughout the paper.
pub fn fraction_at_or_below(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().filter(|v| **v <= threshold).count() as f64 / values.len() as f64
}

/// Fraction of samples strictly `< threshold` (the SSIM "< 0.5" criterion).
pub fn fraction_below_strict(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().filter(|v| **v < threshold).count() as f64 / values.len() as f64
}

/// Build a boxplot summary.
pub fn box_summary(values: &[f64]) -> Option<BoxSummary> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    Some(BoxSummary {
        min: v[0],
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
        max: v[v.len() - 1],
        mean: mean(&v),
        n: v.len(),
    })
}

/// Empirical CDF evaluated at the given grid points: returns
/// `(x, P[X <= x])` pairs — what the paper's CDF figures plot.
pub fn cdf_at(values: &[f64], grid: &[f64]) -> Vec<(f64, f64)> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.total_cmp(b));
    grid.iter()
        .map(|x| {
            let count = v.partition_point(|s| *s <= *x);
            (*x, count as f64 / v.len().max(1) as f64)
        })
        .collect()
}

/// A log-spaced grid from `lo` to `hi` with `n` points (for latency CDFs
/// plotted on log axes, Figs. 5/13).
pub fn log_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo && n >= 2);
    (0..n)
        .map(|i| lo * (hi / lo).powf(i as f64 / (n - 1) as f64))
        .collect()
}

/// A linear grid from `lo` to `hi` with `n` points.
pub fn lin_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2);
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// Decades spanned by a [`LogHistogram`]: `[1e-6, 1e12)`.
const HIST_MIN_EXP: i32 = -6;
const HIST_MAX_EXP: i32 = 12;
/// Buckets per decade — 32 gives ≤ ~7.5 % relative quantile error.
const HIST_BUCKETS_PER_DECADE: usize = 32;
const HIST_BUCKETS: usize = (HIST_MAX_EXP - HIST_MIN_EXP) as usize * HIST_BUCKETS_PER_DECADE;

/// The defining bucket formula of a [`LogHistogram`]: the (unclamped,
/// possibly negative) bucket number `floor((log10(v) + 6) * 32)` of a
/// positive `v`. Evaluated only to build [`BucketTable`]; the tests keep
/// their own per-sample copy as the oracle the table is checked against.
fn bucket_formula(v: f64) -> f64 {
    ((v.log10() - HIST_MIN_EXP as f64) * HIST_BUCKETS_PER_DECADE as f64).floor()
}

/// Mantissa bits kept in a [`BucketTable`] coarse key. Sixteen slots per
/// binade: the widest (`[1, 1.0625) × 2^e`) spans 0.84 bucket, so a slot
/// holds at most one bucket edge ([`BucketTable::build`] asserts it).
const COARSE_MANTISSA_BITS: u32 = 4;
const COARSE_SHIFT: u32 = 52 - COARSE_MANTISSA_BITS;

/// Log-free bucketing: the exact lower edge of every bucket, found on
/// [`bucket_formula`] itself, plus a coarse index from a value's exponent
/// and top mantissa bits to the bucket its slot starts in.
struct BucketTable {
    /// `edges[k]` is the smallest f64 whose formula bucket is `>= k`, so
    /// the bucket of `v` is the largest `k` with `edges[k] <= v` — the
    /// formula's answer on every f64, whatever rounding the host's
    /// `log10` does near a boundary. One NaN sentinel follows the last
    /// edge: nothing compares `>=` it, so the top bucket has no upper end.
    edges: [f64; HIST_BUCKETS + 1],
    /// `coarse[(v.to_bits() >> COARSE_SHIFT) - coarse_base]`: the bucket
    /// of the smallest value sharing `v`'s key (0 where that is below
    /// range) — `v`'s own bucket, or the one before it. The last slot
    /// stands for every key from its own up.
    coarse: Vec<u16>,
    coarse_base: u64,
}

impl BucketTable {
    fn get() -> &'static BucketTable {
        static TABLE: std::sync::OnceLock<BucketTable> = std::sync::OnceLock::new();
        TABLE.get_or_init(BucketTable::build)
    }

    fn build() -> BucketTable {
        // Positive finite f64s sort like their bit patterns, and the
        // formula is monotone in `v`, so each edge is one bisection over
        // bits, started from the previous edge.
        let mut edges = [f64::NAN; HIST_BUCKETS + 1];
        let mut lo = 1u64; // 5e-324: below every edge
        for (k, edge) in edges[..HIST_BUCKETS].iter_mut().enumerate() {
            let mut hi = f64::MAX.to_bits(); // above every edge
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if bucket_formula(f64::from_bits(mid)) >= k as f64 {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            *edge = f64::from_bits(hi);
        }
        let key = |v: f64| v.to_bits() >> COARSE_SHIFT;
        let coarse_base = key(edges[0]);
        let coarse: Vec<u16> = (coarse_base..=key(edges[HIST_BUCKETS - 1]))
            .map(|k| {
                let slot_start = f64::from_bits(k << COARSE_SHIFT);
                let at_or_below = edges[..HIST_BUCKETS].partition_point(|e| *e <= slot_start);
                at_or_below.saturating_sub(1) as u16
            })
            .collect();
        // What lets `bucket_of` take one step instead of a search.
        assert!(
            coarse.windows(2).all(|w| w[1] - w[0] <= 1)
                && coarse[coarse.len() - 1] as usize >= HIST_BUCKETS - 2,
            "a coarse slot spans more than one bucket edge"
        );
        BucketTable {
            edges,
            coarse,
            coarse_base,
        }
    }

    fn bucket_of(&self, v: f64) -> Option<usize> {
        if v >= self.edges[0] {
            let slot = ((v.to_bits() >> COARSE_SHIFT) - self.coarse_base) as usize;
            let i = self.coarse[slot.min(self.coarse.len() - 1)] as usize;
            // Branch-free: which side of a slot's one edge a sample falls
            // on is a coin toss the predictor loses.
            Some(i + (v >= self.edges[i + 1]) as usize)
        } else {
            // Below range (zero and negatives included). NaN never gets
            // here through `record`; the formula's answer for it is 0.
            v.is_nan().then_some(0)
        }
    }
}

/// A mergeable HDR-style log-bucketed histogram for streaming campaign
/// aggregation: fixed memory (576 buckets) regardless of sample count,
/// deterministic merge (bucket counts add), and quantiles with bounded
/// *relative* error over `[1e-6, 1e12)` — wide enough for milliseconds,
/// Mbit/s, and per-frame latencies alike.
///
/// Values below the range land in `below`, non-finite samples in
/// `non_finite`; both are counted, never dropped silently. Exact
/// `min`/`max`/`sum` ride alongside so means are exact and quantile
/// endpoints clamp to observed extremes.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    /// Samples `< 1e-6` (incl. zero and negatives).
    pub below: u64,
    /// NaN / infinite samples.
    pub non_finite: u64,
    /// In-range sample count (excludes `below` and `non_finite`).
    pub count: u64,
    /// Sum of in-range samples (exact, folded in submission order).
    pub sum: f64,
    /// Smallest in-range sample.
    pub min: f64,
    /// Largest in-range sample.
    pub max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; HIST_BUCKETS],
            below: 0,
            non_finite: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket of `v`, or `None` below `1e-6`: one [`BucketTable`]
    /// lookup and one edge compare — no `log10` per sample.
    fn bucket_of(v: f64) -> Option<usize> {
        BucketTable::get().bucket_of(v)
    }

    /// Geometric midpoint of bucket `i` — the value a quantile inside the
    /// bucket reports.
    fn bucket_mid(i: usize) -> f64 {
        let exp = HIST_MIN_EXP as f64 + (i as f64 + 0.5) / HIST_BUCKETS_PER_DECADE as f64;
        10f64.powf(exp)
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.record_all([v]);
    }

    /// Record every sample of `values`, in order: the bucket table is
    /// fetched once and the running sum / min / max stay in registers,
    /// updated sample by sample exactly as repeated [`record`](Self::record)
    /// calls would — the exact `sum` depends on that order.
    pub fn record_all(&mut self, values: impl IntoIterator<Item = f64>) {
        let table = BucketTable::get();
        let (mut sum, mut min, mut max) = (self.sum, self.min, self.max);
        for v in values {
            if !v.is_finite() {
                self.non_finite += 1;
                continue;
            }
            match table.bucket_of(v) {
                None => self.below += 1,
                Some(i) => {
                    self.counts[i] += 1;
                    self.count += 1;
                    sum += v;
                    min = min.min(v);
                    max = max.max(v);
                }
            }
        }
        (self.sum, self.min, self.max) = (sum, min, max);
    }

    /// Fold `other` into `self`. Merging is exact for counts and
    /// associative for bucket contents: `merge(a, b)` then quantile equals
    /// quantile over the concatenated streams up to bucket resolution.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.below += other.below;
        self.non_finite += other.non_finite;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total recorded samples including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.count + self.below + self.non_finite
    }

    /// Approximate quantile (`q` in [0, 1]) over in-range samples, clamped
    /// to the exact observed `[min, max]`. `None` when no in-range sample
    /// was recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                return Some(Self::bucket_mid(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Exact mean of in-range samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Fraction of in-range samples `<= x` — the streaming analogue of
    /// [`fraction_at_or_below`]. Bucket-resolution approximate.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let cutoff = match Self::bucket_of(x.max(1e-300)) {
            None => return 0.0,
            Some(i) => i,
        };
        let at_or_below: u64 = self.counts[..=cutoff].iter().sum();
        at_or_below as f64 / self.count as f64
    }

    /// Bytes retained by this sketch — constant, independent of how many
    /// samples were recorded (the flat-memory guarantee the engine's
    /// streaming mode is built on).
    pub fn retained_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.counts.len() * std::mem::size_of::<u64>()
    }

    /// Iterate non-empty buckets as `(bucket_index, count)` — used by the
    /// canonical encoder.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (i, *c))
    }
}

impl BoxSummary {
    /// Render as the textual row the figure binaries print.
    pub fn row(&self, label: &str) -> String {
        format!(
            "{label:<28} min={:>9.3} q1={:>9.3} med={:>9.3} q3={:>9.3} max={:>9.3} mean={:>9.3} (n={})",
            self.min, self.q1, self.median, self.q3, self.max, self.mean, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantiles_of_known_sequence() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert!((quantile(&v, 0.5) - 50.5).abs() < 1e-9);
        assert!((quantile(&v, 0.25) - 25.75).abs() < 1e-9);
    }

    #[test]
    fn box_summary_basics() {
        let s = box_summary(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.n, 5);
        assert!(box_summary(&[]).is_none());
        assert!(box_summary(&[f64::NAN]).is_none());
    }

    #[test]
    fn cdf_reaches_one() {
        let v = vec![1.0, 2.0, 3.0];
        let cdf = cdf_at(&v, &[0.5, 1.0, 2.5, 3.0, 10.0]);
        assert_eq!(cdf[0].1, 0.0);
        assert!((cdf[1].1 - 1.0 / 3.0).abs() < 1e-12);
        assert!((cdf[2].1 - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cdf[3].1, 1.0);
        assert_eq!(cdf[4].1, 1.0);
    }

    #[test]
    fn fraction_below() {
        let v = vec![100.0, 200.0, 300.0, 400.0];
        assert_eq!(fraction_at_or_below(&v, 300.0), 0.75);
        assert_eq!(fraction_at_or_below(&v, 50.0), 0.0);
        assert!(fraction_at_or_below(&[], 1.0).is_nan());
    }

    #[test]
    fn grids() {
        let g = log_grid(10.0, 1000.0, 3);
        assert!((g[0] - 10.0).abs() < 1e-9);
        assert!((g[1] - 100.0).abs() < 1e-6);
        assert!((g[2] - 1000.0).abs() < 1e-6);
        let l = lin_grid(0.0, 10.0, 6);
        assert_eq!(l, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn log_histogram_quantiles_track_exact() {
        let mut h = LogHistogram::new();
        let v: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        for &x in &v {
            h.record(x);
        }
        assert_eq!(h.count, 1000);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 1000.0);
        assert!((h.mean().unwrap() - mean(&v)).abs() < 1e-9);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = quantile(&v, q);
            let approx = h.quantile(q).unwrap();
            assert!(
                (approx - exact).abs() / exact < 0.08,
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn log_histogram_out_of_range_and_empty() {
        let mut h = LogHistogram::new();
        assert!(h.quantile(0.5).is_none());
        assert!(h.mean().is_none());
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.below, 2);
        assert_eq!(h.non_finite, 2);
        assert_eq!(h.count, 0);
        assert_eq!(h.total(), 4);
        // Beyond-range values clamp into the last bucket, never panic.
        h.record(1e50);
        assert_eq!(h.count, 1);
        assert_eq!(h.quantile(0.5), Some(1e50)); // clamped to observed max
    }

    #[test]
    fn log_histogram_merge_equals_concatenation() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for i in 1..500 {
            let x = (i as f64) * 0.37;
            a.record(x);
            both.record(x);
        }
        for i in 1..300 {
            let x = (i as f64) * 11.1;
            b.record(x);
            both.record(x);
        }
        a.merge(&b);
        assert_eq!(a, both);
        let before = a.retained_bytes();
        for i in 0..10_000 {
            a.record(i as f64 + 0.5);
        }
        assert_eq!(a.retained_bytes(), before, "sketch memory must be flat");
    }

    #[test]
    fn log_histogram_fraction_at_or_below() {
        let mut h = LogHistogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let f = h.fraction_at_or_below(50.0);
        assert!((f - 0.5).abs() < 0.08, "got {f}");
        assert_eq!(h.fraction_at_or_below(1e-9), 0.0);
        assert!((h.fraction_at_or_below(1e11) - 1.0).abs() < 1e-12);
    }

    /// The per-sample formula [`BucketTable`] replaced, verbatim: the
    /// oracle for the table on every f64.
    fn bucket_of_formula(v: f64) -> Option<usize> {
        if v <= 0.0 {
            return None; // log10 of non-positive is NaN, not "below range"
        }
        let idx = ((v.log10() - HIST_MIN_EXP as f64) * HIST_BUCKETS_PER_DECADE as f64).floor();
        if idx < 0.0 {
            None
        } else {
            Some((idx as usize).min(HIST_BUCKETS - 1))
        }
    }

    #[track_caller]
    fn assert_bucket_matches_formula(v: f64) {
        assert_eq!(
            LogHistogram::bucket_of(v),
            bucket_of_formula(v),
            "bucket_of({v:e}) [bits {:#018x}] disagrees with the formula",
            v.to_bits()
        );
    }

    #[test]
    fn bucket_table_matches_formula_around_every_edge() {
        let edges = &BucketTable::get().edges[..HIST_BUCKETS];
        assert_eq!(edges.len(), 576);
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
        for (k, edge) in edges.iter().enumerate() {
            assert_eq!(bucket_of_formula(*edge), Some(k), "edge {k}");
            let bits = edge.to_bits();
            for b in bits - 4096..=bits + 4096 {
                assert_bucket_matches_formula(f64::from_bits(b));
            }
        }
    }

    #[test]
    fn bucket_table_matches_formula_on_random_and_special_values() {
        let mut rng = rpav_sim::SimRng::seed_from_u64(0xB0C4_E7ED);
        // Half over every finite f64 of either sign, half over the bit
        // patterns from a decade below the range to a decade above it
        // (all but ~3 % of the former land outside the 18 decades).
        let (lo, hi) = (1e-7f64.to_bits(), 1e13f64.to_bits());
        for _ in 0..5_000_000 {
            let anywhere = f64::from_bits(rng.uniform_u64(0, u64::MAX));
            if anywhere.is_finite() {
                assert_bucket_matches_formula(anywhere);
            }
            assert_bucket_matches_formula(f64::from_bits(rng.uniform_u64(lo, hi)));
        }
        let before_1e_6 = f64::from_bits(1e-6f64.to_bits() - 1);
        for v in [
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            5e-324,
            1e-6,
            before_1e_6,
            1.0,
            1e12,
            1e50,
            f64::MAX,
            f64::MIN,
        ] {
            assert_bucket_matches_formula(v);
        }
    }

    proptest! {
        #[test]
        fn prop_quantile_monotone(mut v in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            v.sort_by(|a, b| a.total_cmp(b));
            let mut last = f64::NEG_INFINITY;
            for i in 0..=10 {
                let q = quantile_sorted(&v, i as f64 / 10.0);
                prop_assert!(q >= last);
                last = q;
            }
        }

        #[test]
        fn prop_cdf_monotone(v in proptest::collection::vec(0f64..1e3, 1..100)) {
            let grid = lin_grid(0.0, 1e3, 50);
            let cdf = cdf_at(&v, &grid);
            let mut last = 0.0;
            for (_, p) in cdf {
                prop_assert!(p >= last);
                prop_assert!((0.0..=1.0).contains(&p));
                last = p;
            }
        }
    }
}
