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
/// The in-range samples of a [`LogHistogram`], exactly: `[HIST_LO, HIST_HI)`.
const HIST_LO: f64 = 1e-6;
const HIST_HI: f64 = 1e12;
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
            Some(self.bucket_from_first_edge(v))
        } else {
            // Below range (zero and negatives included). NaN never gets
            // here through `record`; the formula's answer for it is 0.
            v.is_nan().then_some(0)
        }
    }

    /// The bucket of a `v` known to be at or above the first edge.
    fn bucket_from_first_edge(&self, v: f64) -> usize {
        let slot = ((v.to_bits() >> COARSE_SHIFT) - self.coarse_base) as usize;
        let i = self.coarse[slot.min(self.coarse.len() - 1)] as usize;
        // Branch-free: which side of a slot's one edge a sample falls
        // on is a coin toss the predictor loses.
        i + (v >= self.edges[i + 1]) as usize
    }
}

/// The unit of an [`ExactSum`] is `2^EXACT_UNIT_EXP`. An f64 at or above
/// 2⁻²⁰ has an ulp of at least 2⁻⁷², so it — and every in-range
/// [`LogHistogram`] sample (`1e-6 > 2⁻²⁰`), and every f64 sum of them — is
/// a whole number of units.
const EXACT_UNIT_EXP: i32 = -72;

/// An exact, order-free sum of f64s from `[2⁻²⁰, 2¹⁰⁴)`: a 192-bit
/// fixed-point integer of 2⁻⁷² units, `hi · 2¹²⁸ + lo` (Kulisch-style).
///
/// Adding is integer addition, so any order and any grouping of the same
/// additions leaves the same bits; only reading rounds, once. One addend
/// is below 2¹⁷⁶ units. A [`LogHistogram`] adds one per
/// [`record_all`](LogHistogram::record_all) call, each at most its sample
/// count × 1e12 (plus rounding), so the total stays below
/// `count · 1e12 < 2¹⁰⁴` — 2¹⁷⁶ units, with the top word's 16 spare bits
/// as headroom.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ExactSum {
    hi: u64,
    lo: u128,
}

impl ExactSum {
    /// Add `x` exactly. `x` must be zero or in `[2⁻²⁰, 2¹⁰⁴)`.
    pub fn add(&mut self, x: f64) {
        if x == 0.0 {
            return;
        }
        assert!(
            (2f64.powi(-20)..2f64.powi(104)).contains(&x),
            "ExactSum::add({x:e}): outside [2^-20, 2^104)"
        );
        // x = mantissa · 2^(biased exponent − 1075) = mantissa << shift
        // units, with shift in 0..=123.
        let bits = x.to_bits();
        let mantissa = u128::from((bits & ((1 << 52) - 1)) | (1 << 52));
        let shift = (bits >> 52) as u32 - (1075 + EXACT_UNIT_EXP) as u32;
        self.merge(&ExactSum {
            hi: mantissa.checked_shr(128 - shift).unwrap_or(0) as u64,
            lo: mantissa << shift,
        });
    }

    /// Add another sum exactly.
    pub fn merge(&mut self, other: &ExactSum) {
        let (lo, carry) = self.lo.overflowing_add(other.lo);
        self.lo = lo;
        self.hi += other.hi + u64::from(carry);
    }

    /// The accumulator as three big-endian 64-bit words, in units of 2⁻⁷²
    /// — the canonical encoding.
    pub fn words(&self) -> [u64; 3] {
        [self.hi, (self.lo >> 64) as u64, self.lo as u64]
    }

    /// The inverse of [`words`](Self::words): every word triple is a sum.
    pub fn from_words([hi, mid, lo]: [u64; 3]) -> Self {
        ExactSum {
            hi,
            lo: u128::from(mid) << 64 | u128::from(lo),
        }
    }

    /// The sum, rounded once to the nearest f64 (ties to even).
    pub fn to_f64(self) -> f64 {
        round_digits(&self.words(), EXACT_UNIT_EXP, false)
    }

    /// `self / n` (`n > 0`), rounded once to the nearest f64 (ties to
    /// even): schoolbook division one 64-bit digit at a time, carried one
    /// digit past the units so an in-range mean (≥ 2⁻²⁰) keeps more than
    /// 54 quotient bits, and the remainder becomes the sticky bit.
    pub fn div_to_f64(&self, n: u64) -> f64 {
        let n = u128::from(n);
        let mut rem = 0u128;
        let mut quotient = [0u64; 4];
        for (q, d) in quotient.iter_mut().zip(self.words().into_iter().chain([0])) {
            let cur = rem << 64 | u128::from(d);
            *q = (cur / n) as u64;
            rem = cur % n;
        }
        round_digits(&quotient, EXACT_UNIT_EXP - 64, rem != 0)
    }
}

/// Round the big-endian 64-bit-digit integer `digits`, in units of
/// `2^unit_exp`, to the nearest f64, ties to even. `sticky` says a non-zero
/// remainder lies below the last digit; it is exact only when the integer
/// keeps more than 53 significant bits, which every caller's does.
fn round_digits(digits: &[u64], mut unit_exp: i32, mut sticky: bool) -> f64 {
    let lead = digits.iter().position(|d| *d != 0).unwrap_or(digits.len());
    let (head, tail) = digits[lead..].split_at((digits.len() - lead).min(2));
    let mut x = head.iter().fold(0u128, |x, d| x << 64 | u128::from(*d));
    unit_exp += 64 * tail.len() as i32;
    sticky |= tail.iter().any(|d| *d != 0);
    let drop = (128 - x.leading_zeros()).saturating_sub(53);
    if drop > 0 {
        let half = 1u128 << (drop - 1);
        let rest = x & ((half << 1) - 1);
        x >>= drop;
        unit_exp += drop as i32;
        if rest > half || (rest == half && (sticky || x & 1 == 1)) {
            x += 1;
        }
    }
    // `x` ≤ 2⁵³ converts exactly, and scaling by a power of two is exact.
    x as f64 * f64::from_bits(((unit_exp + 1023) as u64) << 52)
}

/// A mergeable HDR-style log-bucketed histogram for streaming campaign
/// aggregation: fixed memory (576 buckets) regardless of sample count,
/// and quantiles with bounded *relative* error over `[1e-6, 1e12)` — wide
/// enough for milliseconds, Mbit/s, and per-frame latencies alike.
///
/// Samples below the range land in `below`, samples at or above it in
/// `above`, non-finite samples in `non_finite`; all three are counted,
/// never dropped silently. Exact `min`/`max` and an exact sum of the
/// in-range samples ride alongside, so quantile endpoints clamp to
/// observed extremes and the mean is rounded once.
///
/// Every field is an integer sum, a min or a max, so [`merge`](Self::merge)
/// is exact, associative and commutative: a histogram depends only on
/// which [`record_all`](Self::record_all) batches went into it, never on
/// their order or grouping.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    /// Samples `< 1e-6` (incl. zero and negatives).
    pub below: u64,
    /// Finite samples `>= 1e12`.
    pub above: u64,
    /// NaN / infinite samples.
    pub non_finite: u64,
    /// In-range sample count (excludes `below`, `above` and `non_finite`).
    pub count: u64,
    /// Sum of in-range samples.
    sum: ExactSum,
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
            above: 0,
            non_finite: 0,
            count: 0,
            sum: ExactSum::default(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Back to empty, keeping the bucket vector's allocation.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        (self.below, self.above, self.non_finite, self.count) = (0, 0, 0, 0);
        self.sum = ExactSum::default();
        (self.min, self.max) = (f64::INFINITY, f64::NEG_INFINITY);
    }

    /// Set bucket `i`'s count; `i` must be below [`HIST_BUCKETS`] — the
    /// canonical decoder's one way in.
    pub(crate) fn set_bucket(&mut self, i: usize, count: u64) {
        self.counts[i] = count;
    }

    /// Set the exact sum — the canonical decoder's other way in.
    pub(crate) fn set_exact_sum(&mut self, sum: ExactSum) {
        self.sum = sum;
    }

    /// Number of buckets, the bound on a decoded bucket index.
    pub(crate) const BUCKETS: usize = HIST_BUCKETS;

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

    /// Record one sample (a batch of one).
    pub fn record(&mut self, v: f64) {
        self.record_all([v]);
    }

    /// Record every sample of `values` as one batch. The bucket table is
    /// fetched once, and min / max and an f64 partial sum of the in-range
    /// samples stay in registers; the partial — at most the batch's
    /// in-range count × 1e12 — is then added to an exact 192-bit sum.
    /// So the batch's contribution is a function of the batch alone,
    /// whatever was recorded before or merged in after.
    pub fn record_all(&mut self, values: impl IntoIterator<Item = f64>) {
        let table = BucketTable::get();
        let (mut partial, mut min, mut max) = (0.0, self.min, self.max);
        for v in values {
            if (HIST_LO..HIST_HI).contains(&v) {
                self.counts[table.bucket_from_first_edge(v)] += 1;
                self.count += 1;
                partial += v;
                min = min.min(v);
                max = max.max(v);
            } else if !v.is_finite() {
                self.non_finite += 1;
            } else if v < HIST_LO {
                self.below += 1;
            } else {
                self.above += 1;
            }
        }
        self.sum.add(partial);
        (self.min, self.max) = (min, max);
    }

    /// Fold `other` into `self`, exactly: the result equals recording both
    /// histograms' batches into one, in any order.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.below += other.below;
        self.above += other.above;
        self.non_finite += other.non_finite;
        self.count += other.count;
        self.sum.merge(&other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total recorded samples including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.count + self.below + self.above + self.non_finite
    }

    /// The exact sum of in-range samples.
    pub(crate) fn exact_sum(&self) -> &ExactSum {
        &self.sum
    }

    /// Sum of in-range samples, rounded once.
    pub fn sum(&self) -> f64 {
        self.sum.to_f64()
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

    /// Mean of in-range samples, rounded once from the exact sum (`None`
    /// when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum.div_to_f64(self.count))
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
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.below, 2);
        assert_eq!(h.non_finite, 3);
        assert_eq!(h.count, 0);
        assert_eq!(h.total(), 5);
        // The range is exactly [1e-6, 1e12): beyond it is `above`, never
        // a bucket, and the f64 just below 1e-6 is `below`, though the
        // bucket formula would put it in bucket 0.
        h.record_all([1e50, 1e12, f64::MAX, 1e-6f64.next_down()]);
        assert_eq!((h.below, h.above, h.count), (3, 3, 0));
        assert_eq!(h.total(), 9);
        assert!(h.quantile(0.5).is_none() && h.mean().is_none());
        h.record_all([1e-6, 1e12f64.next_down()]);
        assert_eq!((h.count, h.min, h.max), (2, 1e-6, 1e12f64.next_down()));
        assert_eq!(h.nonzero_buckets().collect::<Vec<_>>(), [(0, 1), (575, 1)]);
    }

    #[test]
    fn beyond_range_samples_never_reach_the_sum() {
        // Two `f64::MAX` samples used to sum to +inf, and the mean with
        // them.
        let mut h = LogHistogram::new();
        h.record_all([f64::MAX, 5.0, f64::MAX]);
        h.record(f64::MAX);
        assert_eq!((h.above, h.count, h.total()), (3, 1, 4));
        assert_eq!((h.sum(), h.mean(), h.max), (5.0, Some(5.0), 5.0));
    }

    /// Shewchuk's exactly rounded sum, the algorithm of Python's
    /// `math.fsum`: error-free two-sums into non-overlapping partials,
    /// then a top-down sum with a half-way correction. An oracle for
    /// [`ExactSum::to_f64`] that shares none of its integer arithmetic.
    fn fsum(values: &[f64]) -> f64 {
        let mut partials: Vec<f64> = Vec::new();
        for &v in values {
            let mut x = v;
            let mut i = 0;
            for j in 0..partials.len() {
                let mut y = partials[j];
                if x.abs() < y.abs() {
                    std::mem::swap(&mut x, &mut y);
                }
                let hi = x + y;
                let lo = y - (hi - x);
                if lo != 0.0 {
                    partials[i] = lo;
                    i += 1;
                }
                x = hi;
            }
            partials.truncate(i);
            partials.push(x);
        }
        let Some(mut n) = partials.len().checked_sub(1) else {
            return 0.0;
        };
        let (mut hi, mut lo) = (partials[n], 0.0);
        while n > 0 {
            let x = hi;
            n -= 1;
            hi = x + partials[n];
            lo = partials[n] - (hi - x);
            if lo != 0.0 {
                break;
            }
        }
        if n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }

    fn exact_sum(values: &[f64]) -> ExactSum {
        let mut s = ExactSum::default();
        values.iter().for_each(|v| s.add(*v));
        s
    }

    /// Addend sets in `[2⁻²⁰, 2¹⁰⁴)` for the rounding tests. Three in four
    /// draw up to 40 values spread over 60 binades below a random top, so
    /// sums reach every word of the accumulator and carry between them;
    /// the fourth plants a tie — `a` plus one or three half-ulps of `a`,
    /// which must round to even — or that tie nudged up by 2⁻²⁰.
    fn addend_sets(seed: u64, sets: usize) -> Vec<Vec<f64>> {
        let mut rng = rpav_sim::SimRng::seed_from_u64(seed);
        let value = |rng: &mut rpav_sim::SimRng, e: i32| {
            rng.uniform_u64(1 << 52, 1 << 53) as f64 * 2f64.powi(e.max(-20) - 52)
        };
        let mut out = Vec::with_capacity(sets);
        for k in 0..sets {
            let set = if k % 4 == 3 {
                let e = rng.uniform_u64(33, 104) as i32;
                let a = value(&mut rng, e);
                let half_ulp = (a.next_up() - a) / 2.0;
                let mut set = vec![a, half_ulp * [1.0, 3.0][k / 4 % 2]];
                if k / 8 % 2 == 1 {
                    set.push(2f64.powi(-20));
                }
                set
            } else {
                let top = rng.uniform_u64(0, 124) as i32 - 20;
                (0..rng.uniform_u64(1, 41))
                    .map(|_| {
                        let e = top - rng.uniform_u64(0, 61) as i32;
                        value(&mut rng, e)
                    })
                    .collect()
            };
            out.push(set);
        }
        out
    }

    #[test]
    fn exact_sum_rounds_like_the_fsum_oracle() {
        // Fixed cases first: carries out of the low word, a tie at the top
        // of the range, sums from all-equal addends.
        let below_2_56 = 2f64.powi(56) - 16.0;
        let mut cases = vec![
            vec![below_2_56, below_2_56],
            vec![below_2_56, below_2_56, 2f64.powi(-20)],
            vec![2f64.powi(103).next_down(); 5],
            vec![1.0, 2f64.powi(-20)],
            vec![2f64.powi(103), 2f64.powi(103 - 53)],
            vec![1e-6; 1000],
        ];
        cases.extend(addend_sets(0xE8AC_7504, 20_000));
        for set in &cases {
            let sum = exact_sum(set);
            let want = fsum(set);
            assert_eq!(
                sum.to_f64().to_bits(),
                want.to_bits(),
                "{set:?}: exact {:?} rounds to {:e}, fsum says {want:e}",
                sum.words(),
                sum.to_f64()
            );
            // Addition order and grouping leave the same bits.
            let mut reversed = ExactSum::default();
            set.iter().rev().for_each(|v| reversed.add(*v));
            let (head, tail) = set.split_at(set.len() / 2);
            let mut halves = exact_sum(tail);
            halves.merge(&exact_sum(head));
            assert_eq!(reversed, sum);
            assert_eq!(halves, sum);
        }
    }

    #[test]
    fn exact_sum_divides_to_the_nearest_f64() {
        // `q = sum / n` is correctly rounded iff `2·sum` lies between
        // `n·(q⁻ + q)` and `n·(q + q⁺)` — the midpoints to q's neighbours,
        // scaled by 2n — with a tie only when q is even. Both sides are
        // exact sums, so the check is exact.
        let times = |x: f64, n: u64| exact_sum(&vec![x; n as usize]);
        let plus = |mut a: ExactSum, b: ExactSum| {
            a.merge(&b);
            a.words()
        };
        let one_ulp = 2f64.powi(-52);
        let mut cases: Vec<(Vec<f64>, u64)> = vec![
            (vec![1.0, 1.0 + one_ulp], 2),                 // tie → 1.0 (even)
            (vec![1.0 + one_ulp, 1.0 + 2.0 * one_ulp], 2), // tie → 1 + 2 ulp
            (vec![1e-6; 3], 3),
            (vec![2f64.powi(103); 7], 7),
        ];
        for (k, set) in addend_sets(0xD1_5EC7, 3_000).into_iter().enumerate() {
            // At most one divisor per addend keeps the mean — and with
            // it every addend of the check — at or above 2⁻²⁰.
            let n = [1, 2, 3, 7, 10, 39][k % 6].min(set.len() as u64);
            cases.push((set, n));
        }
        for (set, n) in cases {
            let sum = exact_sum(&set);
            let q = sum.div_to_f64(n);
            let even = q.to_bits() & 1 == 0;
            let twice = plus(sum, sum);
            let upper = plus(times(q, n), times(q.next_up(), n));
            let lower = plus(times(q.next_down(), n), times(q, n));
            assert!(
                (twice < upper || (twice == upper && even))
                    && (twice > lower || (twice == lower && even)),
                "{set:?} / {n} rounded to {q:e}"
            );
        }
        // Where both are exact, the quotient is the plain f64 division.
        assert_eq!(exact_sum(&[3.0, 5.0]).div_to_f64(4), 2.0);
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
