//! Headline statistics — the numbers quoted in the paper's running text —
//! and the streaming campaign aggregates.

use crate::codec::{ByteReader, ByteWriter};
use crate::metrics::RunMetrics;
use crate::runner::CampaignResult;
use crate::stats;
use crate::table::Column;

/// Sum of `f` over the campaign's runs.
fn sum(c: &CampaignResult, f: fn(&RunMetrics) -> u64) -> u64 {
    c.runs.iter().map(f).sum()
}

/// Mean of `f` over the campaign's runs.
fn mean(c: &CampaignResult, f: fn(&RunMetrics) -> f64) -> f64 {
    stats::mean(&c.runs.iter().map(f).collect::<Vec<f64>>())
}

/// Quantile `q` of the pooled one-way delays (ms); NaN without samples.
fn owd(c: &CampaignResult, q: f64) -> String {
    let owd = c.owd_ms();
    let ms = (!owd.is_empty()).then(|| stats::quantile(&owd, q));
    format!("{:.1}", ms.unwrap_or(f64::NAN))
}

/// The in-text statistics, one row per configuration. Fractions print as
/// per cent; counters are pooled over the campaign's runs.
pub const HEADLINE: &[Column<CampaignResult>] = &[
    ("configuration", |c| c.label.clone()),
    ("Mbps", |c| {
        format!("{:.1}", mean(c, |r| r.goodput_bps() / 1e6))
    }),
    // Stall events per minute (§4.2.1: 0.11 / 0.89 / 1.37).
    ("stalls/mn", |c| format!("{:.2}", c.stalls_per_minute())),
    // Playback latency ≤ 300 ms (§4.2.2).
    ("<300ms%", |c| {
        let within = stats::fraction_at_or_below(&c.playback_latency_ms(), 300.0);
        format!("{:.1}", within * 100.0)
    }),
    // SSIM samples < 0.5 (§4.2.3: 0.37–19.09 %).
    ("ssim<.5%", |c| {
        let below = stats::fraction_below_strict(&c.ssim(), 0.5);
        format!("{:.2}", below * 100.0)
    }),
    // FPS windows at ≥ 29 FPS.
    ("30fps%", |c| {
        let at_30 = 1.0 - stats::fraction_at_or_below(&c.fps_samples(), 29.0);
        format!("{:.1}", at_30 * 100.0)
    }),
    // Packet error rate (§4.1: 0.06–0.07 %).
    ("PER%", |c| format!("{:.3}", c.per() * 100.0)),
    ("HO/s", |c| {
        format!("{:.3}", stats::mean(&c.ho_frequencies()))
    }),
    ("owd_p50", |c| owd(c, 0.5)),
    ("owd_p99", |c| owd(c, 0.99)),
    // Wire damage: packets that failed to parse plus payloads whose
    // metadata header was rejected.
    ("malf", |c| {
        sum(c, |r| r.malformed_packets + r.malformed_payloads).to_string()
    }),
    ("dup", |c| sum(c, |r| r.duplicate_packets).to_string()),
    // Arrivals after the receiver gave up on them.
    ("late", |c| sum(c, |r| r.late_packets).to_string()),
    ("nacks", |c| sum(c, |r| r.nacks_sent).to_string()),
    ("rec", |c| sum(c, |r| r.rtx_recovered).to_string()),
    // Retransmissions that arrived past the playout deadline.
    ("waste", |c| sum(c, |r| r.rtx_late).to_string()),
    // Pooled repair efficiency: recovered / requested sequence numbers
    // (0 when repair was off).
    ("eff", |c| {
        let requested = sum(c, |r| r.nack_seqs_requested);
        let recovered = sum(c, |r| r.rtx_recovered);
        let efficiency = match requested {
            0 => 0.0,
            _ => recovered as f64 / requested as f64,
        };
        format!("{efficiency:.2}")
    }),
    ("sw", |c| sum(c, |r| r.switches.len() as u64).to_string()),
    ("dupx", |c| sum(c, |r| r.dup_tx_packets).to_string()),
    // Mean per-run path dead time, summed over legs.
    ("deadms", |c| {
        format!("{:.0}", mean(c, RunMetrics::path_dead_ms))
    }),
    ("fectx", |c| sum(c, |r| r.fec_tx).to_string()),
    ("fecrec", |c| sum(c, |r| r.fec_recovered).to_string()),
    // Recovered from groups that lost more than one member.
    ("fecmr", |c| sum(c, |r| r.fec_multi_recovered).to_string()),
    ("reord", |c| sum(c, |r| r.reorder_buffered).to_string()),
    // Mean share of first-flight media on leg 0 (0.5 = even split).
    ("leg0", |c| format!("{:.2}", mean(c, |r| r.leg_tx_share(0)))),
];

/// Leading word of [`CampaignAggregates::to_bytes`]; bumped whenever the
/// layout changes. Version 2 replaced each histogram's f64 sum with its
/// `above` count and exact-sum words.
pub const AGGREGATES_VERSION: u64 = 2;

/// Streaming campaign aggregates: everything
/// [`EngineReport`](crate::exec::EngineReport) accumulates about a matrix
/// without retaining per-run [`RunMetrics`].
/// Counters are exact; distributions live in mergeable [`LogHistogram`]
/// sketches whose memory is flat in the cell count.
///
/// A commutative monoid over cells: [`fold`](Self::fold) makes one
/// [`LogHistogram::record_all`] batch per histogram per cell, and every
/// field is an integer sum, a min or a max, so [`to_bytes`](Self::to_bytes)
/// is a function of the *multiset* of folded cells. Any fold order and any
/// split into [`merge`](Self::merge)d partials give the same bytes — which
/// is what makes them bit-identical across job counts and kill/resume
/// boundaries.
///
/// [`LogHistogram`]: stats::LogHistogram
/// [`LogHistogram::record_all`]: stats::LogHistogram::record_all
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignAggregates {
    /// Cells folded in (completed, whether simulated or cache-served).
    pub cells: u64,
    /// Cells that exhausted their retry budget and were poisoned.
    pub failed: u64,
    /// Media packets sent, summed.
    pub media_sent: u64,
    /// Media packets received, summed.
    pub media_received: u64,
    /// Media payload bytes received, summed.
    pub media_received_bytes: u64,
    /// Stall events, summed.
    pub stalls: u64,
    /// Stalled wall-clock, summed (µs).
    pub stalled_time_us: u64,
    /// NACK feedback messages, summed.
    pub nacks_sent: u64,
    /// RTX-recovered packets, summed.
    pub rtx_recovered: u64,
    /// FEC-recovered packets, summed.
    pub fec_recovered: u64,
    /// SSIM samples observed, summed.
    pub ssim_samples: u64,
    /// SSIM samples < 0.5 (the §4.2.3 quality criterion), summed.
    pub ssim_below_half: u64,
    /// Per-run goodput (Mbit/s) distribution.
    pub goodput_mbps: stats::LogHistogram,
    /// Per-sample one-way delay (ms) distribution.
    pub owd_ms: stats::LogHistogram,
    /// Per-frame playback latency (ms) distribution.
    pub playback_ms: stats::LogHistogram,
}

impl CampaignAggregates {
    /// Fold one completed run in.
    pub fn fold(&mut self, m: &RunMetrics) {
        self.cells += 1;
        self.media_sent += m.media_sent;
        self.media_received += m.media_received;
        self.media_received_bytes += m.media_received_bytes;
        self.stalls += m.stalls;
        self.stalled_time_us += m.stalled_time.as_micros();
        self.nacks_sent += m.nacks_sent;
        self.rtx_recovered += m.rtx_recovered;
        self.fec_recovered += m.fec_recovered;
        self.goodput_mbps.record(m.goodput_bps() / 1e6);
        self.owd_ms.record_all(m.owd.iter().map(|(_, ms)| *ms));
        self.playback_ms
            .record_all(m.frames.iter().filter_map(|f| f.latency_ms));
        self.ssim_samples += m.frames.len() as u64;
        self.ssim_below_half += m.frames.iter().filter(|f| f.ssim < 0.5).count() as u64;
    }

    /// Record a poisoned cell (no metrics to fold).
    pub fn fold_failure(&mut self) {
        self.failed += 1;
    }

    /// Merge another aggregate in (shards, resumed segments).
    pub fn merge(&mut self, other: &CampaignAggregates) {
        for (counter, theirs) in self.counters_mut().into_iter().zip(other.counters()) {
            *counter += theirs;
        }
        self.goodput_mbps.merge(&other.goodput_mbps);
        self.owd_ms.merge(&other.owd_ms);
        self.playback_ms.merge(&other.playback_ms);
    }

    /// Bytes retained — flat regardless of how many cells were folded.
    pub fn retained_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.goodput_mbps.retained_bytes()
            + self.owd_ms.retained_bytes()
            + self.playback_ms.retained_bytes()
    }

    /// Back to the empty aggregate without reallocating: the engine's
    /// workers reuse one partial for every cell they simulate.
    pub fn clear(&mut self) {
        for counter in self.counters_mut() {
            *counter = 0;
        }
        for h in [
            &mut self.goodput_mbps,
            &mut self.owd_ms,
            &mut self.playback_ms,
        ] {
            h.clear();
        }
    }

    /// Canonical byte encoding, led by [`AGGREGATES_VERSION`]. Two
    /// aggregates encode identically iff every counter, every histogram
    /// bucket and every exact sum agree — the resilience harness compares
    /// resumed vs. uninterrupted campaigns over exactly these bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.write_into(&mut w);
        w.into_bytes()
    }

    /// [`to_bytes`](Self::to_bytes) appended to a caller's writer — how a
    /// cache record's summary section is written into the worker's record
    /// buffer without a buffer of its own.
    pub fn write_into(&self, w: &mut ByteWriter) {
        let histograms = [&self.goodput_mbps, &self.owd_ms, &self.playback_ms];
        let buckets = histograms.map(|h| h.nonzero_buckets().count());
        // The exact length, reserved once: the version and the counters,
        // then per histogram ten words and sixteen bytes per bucket.
        w.reserve(8 * 13 + buckets.iter().map(|n| 8 * 10 + 16 * n).sum::<usize>());
        w.u64(AGGREGATES_VERSION);
        for counter in self.counters() {
            w.u64(counter);
        }
        for (h, n) in histograms.into_iter().zip(buckets) {
            w.u64(n as u64);
            for (i, c) in h.nonzero_buckets() {
                w.u64(i as u64);
                w.u64(c);
            }
            w.u64(h.below);
            w.u64(h.non_finite);
            w.u64(h.count);
            w.u64(h.above);
            for word in h.exact_sum().words() {
                w.u64(word);
            }
            w.f64(h.min);
            w.f64(h.max);
        }
    }

    /// Decode [`to_bytes`](Self::to_bytes) output. Total, and accepts only
    /// canonical encodings: the version leads, every histogram's bucket
    /// indexes strictly increase below 576 with non-zero counts summing to
    /// its `count`, and no byte trails — so
    /// `to_bytes(from_bytes(b)?) == b` for every `b` it accepts.
    pub fn from_bytes(buf: &[u8]) -> Option<CampaignAggregates> {
        let mut r = ByteReader::new(buf);
        if r.u64()? != AGGREGATES_VERSION {
            return None;
        }
        let mut a = CampaignAggregates::default();
        for counter in a.counters_mut() {
            *counter = r.u64()?;
        }
        for h in [&mut a.goodput_mbps, &mut a.owd_ms, &mut a.playback_ms] {
            let buckets = r.u64()?;
            let (mut next, mut total) = (0u64, 0u64);
            for _ in 0..buckets {
                let (i, c) = (r.u64()?, r.u64()?);
                if i < next || i >= stats::LogHistogram::BUCKETS as u64 || c == 0 {
                    return None;
                }
                h.set_bucket(i as usize, c);
                total = total.checked_add(c)?;
                next = i + 1;
            }
            h.below = r.u64()?;
            h.non_finite = r.u64()?;
            h.count = r.u64()?;
            h.above = r.u64()?;
            h.set_exact_sum(stats::ExactSum::from_words([r.u64()?, r.u64()?, r.u64()?]));
            h.min = r.f64()?;
            h.max = r.f64()?;
            if total != h.count {
                return None;
            }
        }
        r.exhausted().then_some(a)
    }

    /// The twelve counters, in encoding order.
    fn counters(&self) -> [u64; 12] {
        [
            self.cells,
            self.failed,
            self.media_sent,
            self.media_received,
            self.media_received_bytes,
            self.stalls,
            self.stalled_time_us,
            self.nacks_sent,
            self.rtx_recovered,
            self.fec_recovered,
            self.ssim_samples,
            self.ssim_below_half,
        ]
    }

    /// [`counters`](Self::counters), to write through.
    fn counters_mut(&mut self) -> [&mut u64; 12] {
        [
            &mut self.cells,
            &mut self.failed,
            &mut self.media_sent,
            &mut self.media_received,
            &mut self.media_received_bytes,
            &mut self.stalls,
            &mut self.stalled_time_us,
            &mut self.nacks_sent,
            &mut self.rtx_recovered,
            &mut self.fec_recovered,
            &mut self.ssim_samples,
            &mut self.ssim_below_half,
        ]
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rpav_sim::SimDuration;

    fn campaign(label: &str, runs: Vec<RunMetrics>) -> CampaignResult {
        let label = label.into();
        CampaignResult { label, runs }
    }

    /// One minute of steady delivery: 50 ms delays, every tenth frame
    /// late, every twentieth below SSIM 0.5.
    fn synthetic() -> CampaignResult {
        let mut run = RunMetrics {
            duration: SimDuration::from_secs(60),
            media_sent: 10_000,
            media_received: 9_993,
            media_received_bytes: 9_993 * 1_200,
            stalls: 1,
            ..Default::default()
        };
        run.owd = (0..9_993)
            .map(|i| (rpav_sim::SimTime::from_millis(i * 6), 50.0))
            .collect();
        run.frames = (0..1_800)
            .map(|i| crate::metrics::FrameRecord {
                number: i,
                display_at: rpav_sim::SimTime::from_millis(i * 33),
                latency_ms: Some(if i % 10 == 0 { 400.0 } else { 200.0 }),
                ssim: if i % 20 == 0 { 0.4 } else { 0.9 },
                displayed: true,
            })
            .collect();
        campaign("synthetic", vec![run])
    }

    /// One minute: 1 000 packets sent, 990 received.
    fn minute() -> RunMetrics {
        RunMetrics {
            duration: SimDuration::from_secs(60),
            media_sent: 1_000,
            media_received: 990,
            ..Default::default()
        }
    }

    /// Two runs with repair counters, the second twice the first.
    fn repair() -> CampaignResult {
        let mk = |scale: u64| RunMetrics {
            malformed_packets: 3 * scale,
            malformed_payloads: scale,
            duplicate_packets: 5 * scale,
            late_packets: 2 * scale,
            nacks_sent: 40 * scale,
            nack_seqs_requested: 100 * scale,
            rtx_recovered: 80 * scale,
            rtx_late: 7 * scale,
            ..minute()
        };
        campaign("repair", vec![mk(1), mk(2)])
    }

    /// One switch, 77 duplicated packets, leg 0 dead for 1.5 s.
    fn failover() -> CampaignResult {
        let mut run = RunMetrics {
            dup_tx_packets: 77,
            ..minute()
        };
        run.switches.push(crate::metrics::SwitchRecord {
            at: rpav_sim::SimTime::from_millis(12_000),
            from_leg: 0,
            to_leg: 1,
            cause: crate::failover::SwitchCause::Starvation,
        });
        run.path_health.push(crate::metrics::PathHealthSummary {
            leg: 0,
            time_dead: SimDuration::from_millis(1_500),
            ..Default::default()
        });
        campaign("failover", vec![run])
    }

    /// Two bonded runs splitting 60/40 and 40/60 over two legs.
    fn bonded() -> CampaignResult {
        let mk = |leg0_tx: u64, leg1_tx: u64| {
            let mut run = RunMetrics {
                fec_tx: 120,
                fec_recovered: 11,
                fec_multi_recovered: 4,
                reorder_buffered: 33,
                ..minute()
            };
            for (leg, tx) in [(0u8, leg0_tx), (1u8, leg1_tx)] {
                run.path_health.push(crate::metrics::PathHealthSummary {
                    leg,
                    tx_packets: tx,
                    ..Default::default()
                });
            }
            run
        };
        campaign("bonded", vec![mk(600, 400), mk(400, 600)])
    }

    /// Every fixture campaign of the headline table; the last ran
    /// without repair.
    pub(crate) fn campaigns() -> Vec<CampaignResult> {
        let off = campaign("off", vec![minute()]);
        vec![synthetic(), repair(), failover(), bonded(), off]
    }

    /// The campaign's field under `header`, read back as a number.
    fn value(c: &CampaignResult, header: &str) -> f64 {
        let column = HEADLINE.iter().find(|col| col.0 == header);
        let field = (column.expect(header).1)(c);
        field
            .parse()
            .unwrap_or_else(|_| panic!("{header}: {field}"))
    }

    #[test]
    fn headline_from_synthetic_campaign() {
        let c = synthetic();
        assert!((value(&c, "<300ms%") - 90.0).abs() < 1.0);
        assert!((value(&c, "ssim<.5%") - 5.0).abs() < 1.0);
        assert!((value(&c, "stalls/mn") - 1.0).abs() < 1e-9);
        assert!((value(&c, "PER%") - 0.07).abs() < 1e-2);
        assert_eq!(value(&c, "owd_p50"), 50.0);
    }

    #[test]
    fn repair_counters_pool_and_serialize() {
        // Pooling sums across runs; malformed merges wire and payload
        // damage.
        let c = repair();
        for (header, want) in [
            ("malf", 12.0),
            ("dup", 15.0),
            ("late", 6.0),
            ("nacks", 120.0),
            ("rec", 240.0),
            ("waste", 21.0),
            ("eff", 0.8),
        ] {
            assert_eq!(value(&c, header), want, "{header}");
        }
    }

    #[test]
    fn failover_counters_surface_in_row() {
        let c = failover();
        assert_eq!(value(&c, "sw"), 1.0);
        assert_eq!(value(&c, "dupx"), 77.0);
        assert_eq!(value(&c, "deadms"), 1_500.0);
    }

    #[test]
    fn bonding_counters_pool_and_surface_in_row() {
        let c = bonded();
        assert_eq!(value(&c, "fectx"), 240.0);
        assert_eq!(value(&c, "fecrec"), 22.0);
        assert_eq!(value(&c, "fecmr"), 8.0);
        assert_eq!(value(&c, "reord"), 66.0);
        assert_eq!(value(&c, "leg0"), 0.5);
    }

    #[test]
    fn repair_efficiency_zero_when_repair_off() {
        let c = campaigns().pop().unwrap();
        assert_eq!(value(&c, "eff"), 0.0);
        assert_eq!(value(&c, "nacks"), 0.0);
    }

    /// FNV-1a over the value lines of the fixture campaigns' headline CSV
    /// (the header excluded): the values the fixed-width table printed
    /// before this column list replaced it, comma-joined, except that the
    /// single-path campaigns' `deadms` reads `0`, no longer `-0`.
    #[test]
    fn headline_values_stay_put() {
        let csv = crate::table::csv(HEADLINE, campaigns());
        let values = csv.split_once('\n').unwrap().1;
        assert_eq!(crate::codec::fnv1a(values.as_bytes()), 0xe652911b0b5372bd);
    }

    #[test]
    fn aggregates_fold_merge_and_stay_flat() {
        let mk = |seed: u64| {
            let mut m = RunMetrics {
                duration: SimDuration::from_secs(60),
                media_sent: 1_000 + seed,
                media_received: 990 + seed,
                media_received_bytes: (990 + seed) * 1_200,
                stalls: seed % 3,
                nacks_sent: 11 * seed,
                rtx_recovered: 7 * seed,
                fec_recovered: 2 * seed,
                ..Default::default()
            };
            m.owd = (0..50)
                .map(|i| {
                    (
                        rpav_sim::SimTime::from_millis(i * 10),
                        30.0 + (seed as f64) + i as f64,
                    )
                })
                .collect();
            m.frames = (0..30)
                .map(|i| crate::metrics::FrameRecord {
                    number: i,
                    display_at: rpav_sim::SimTime::from_millis(i * 33),
                    latency_ms: Some(150.0 + i as f64),
                    ssim: if i % 10 == 0 { 0.4 } else { 0.9 },
                    displayed: true,
                })
                .collect();
            m
        };
        let runs: Vec<RunMetrics> = (1..=6).map(mk).collect();

        // Folding everything into one equals merging two half-folds.
        let mut whole = CampaignAggregates::default();
        runs.iter().for_each(|m| whole.fold(m));
        let (mut a, mut b) = (CampaignAggregates::default(), CampaignAggregates::default());
        runs[..3].iter().for_each(|m| a.fold(m));
        runs[3..].iter().for_each(|m| b.fold(m));
        a.merge(&b);
        assert_eq!(a.to_bytes(), whole.to_bytes());
        assert_eq!(whole.cells, 6);
        assert_eq!(whole.ssim_samples, 180);
        assert_eq!(whole.ssim_below_half, 18);

        // Memory is flat in the number of folded runs.
        let before = whole.retained_bytes();
        runs.iter().for_each(|m| whole.fold(m));
        assert_eq!(whole.retained_bytes(), before);

        // Failures count without disturbing the distributions.
        let bytes = whole.to_bytes();
        whole.fold_failure();
        assert_eq!(whole.failed, 1);
        assert_ne!(whole.to_bytes(), bytes);
    }

    /// A synthetic run whose delays and frame latencies mix in-range
    /// values with everything a histogram routes elsewhere — zero,
    /// negatives, NaN, ±inf, the f64s either side of 1e-6 and 1e12 — in
    /// runs from empty to ten thousand samples.
    fn hostile_run(seed: u64) -> RunMetrics {
        let mut rng = rpav_sim::SimRng::seed_from_u64(seed);
        let specials = [
            0.0,
            -0.0,
            -3.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            1e-6,
            1e-6f64.next_down(),
            1e-6f64.next_up(),
            1e12,
            1e12f64.next_down(),
            1e12f64.next_up(),
        ];
        let sample = |rng: &mut rpav_sim::SimRng| match rng.uniform_u64(0, 8) {
            0 => specials[rng.uniform_u64(0, specials.len() as u64) as usize],
            // Every bit pattern from a decade below the range to one above.
            1 => f64::from_bits(rng.uniform_u64(1e-7f64.to_bits(), 1e13f64.to_bits())),
            _ => rng.uniform_range(1.0, 400.0),
        };
        let len =
            |rng: &mut rpav_sim::SimRng| [0, 1, 7, 300, 10_000][rng.uniform_u64(0, 5) as usize];
        let mut m = RunMetrics {
            duration: SimDuration::from_secs(60),
            media_sent: rng.uniform_u64(0, 10_000),
            media_received: rng.uniform_u64(0, 10_000),
            media_received_bytes: rng.uniform_u64(0, 20_000_000),
            stalls: rng.uniform_u64(0, 5),
            nacks_sent: rng.uniform_u64(0, 50),
            ..Default::default()
        };
        m.owd = (0..len(&mut rng))
            .map(|i| (rpav_sim::SimTime::from_millis(i), sample(&mut rng)))
            .collect();
        m.frames = (0..len(&mut rng))
            .map(|i| crate::metrics::FrameRecord {
                number: i,
                display_at: rpav_sim::SimTime::from_millis(i * 33),
                latency_ms: rng.chance(0.9).then(|| sample(&mut rng)),
                ssim: rng.uniform(),
                displayed: true,
            })
            .collect();
        m
    }

    /// Fisher–Yates over `0..n`.
    fn shuffled(n: usize, rng: &mut rpav_sim::SimRng) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.uniform_u64(0, i as u64 + 1) as usize);
        }
        order
    }

    proptest::proptest! {
        #[test]
        fn prop_aggregates_are_a_commutative_monoid_over_cells(
            seed in proptest::prelude::any::<u64>(),
            cells in 1usize..7,
            parts in 1u64..4,
        ) {
            let runs: Vec<RunMetrics> = (0..cells as u64).map(|i| hostile_run(seed ^ (i << 56))).collect();
            let failed = seed % 3 == 0; // a poisoned cell rides along
            let fold = |order: &[usize]| {
                let mut a = CampaignAggregates::default();
                order.iter().for_each(|&i| a.fold(&runs[i]));
                a
            };
            let mut want = fold(&(0..cells).collect::<Vec<_>>());
            if failed {
                want.fold_failure();
            }
            let want = want.to_bytes();
            let mut rng = rpav_sim::SimRng::seed_from_u64(!seed);

            // Any fold order.
            let mut permuted = fold(&shuffled(cells, &mut rng));
            if failed {
                permuted.fold_failure();
            }
            proptest::prop_assert_eq!(permuted.to_bytes(), want.clone());

            // Any split into partials, each folded in its own order,
            // merged in any order.
            let mut split = vec![CampaignAggregates::default(); parts as usize];
            for i in shuffled(cells, &mut rng) {
                split[rng.uniform_u64(0, parts) as usize].fold(&runs[i]);
            }
            if failed {
                split[0].fold_failure();
            }
            let mut merged = CampaignAggregates::default();
            for p in shuffled(split.len(), &mut rng) {
                merged.merge(&split[p]);
            }
            proptest::prop_assert_eq!(merged.to_bytes(), want);
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_canonical_bytes_round_trip(
            seed in proptest::prelude::any::<u64>(),
            cells in 0usize..5,
            failed in 0u64..3,
        ) {
            let mut a = CampaignAggregates::default();
            for i in 0..cells as u64 {
                let mut one = CampaignAggregates::default();
                one.fold(&hostile_run(seed ^ (i << 56)));
                a.merge(&one);
            }
            (0..failed).for_each(|_| a.fold_failure());
            let bytes = a.to_bytes();
            proptest::prop_assert_eq!(bytes.capacity(), bytes.len(), "reserved exactly");
            let back = CampaignAggregates::from_bytes(&bytes);
            proptest::prop_assert_eq!(back.as_ref(), Some(&a));
            proptest::prop_assert_eq!(back.unwrap().to_bytes(), bytes);
        }
    }

    #[test]
    fn from_bytes_accepts_only_canonical_encodings() {
        let mut a = CampaignAggregates {
            cells: 1,
            ..CampaignAggregates::default()
        };
        a.goodput_mbps.record(3.0);
        a.owd_ms.record_all([1.0, 50.0, 50.0, -1.0, f64::NAN]);
        let good = a.to_bytes();
        assert_eq!(
            CampaignAggregates::from_bytes(&good).unwrap().to_bytes(),
            good
        );
        // The goodput histogram's one bucket starts after the version and
        // the twelve counters; the owd histogram's bucket list after it.
        let goodput = 8 * 13;
        assert_eq!(good[goodput..goodput + 8], 1u64.to_le_bytes());
        let owd = goodput + 8 + 16 + 4 * 8 + 3 * 8 + 2 * 8;
        let patched = |at: usize, v: u64| {
            let mut b = good.clone();
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
            b
        };
        assert_eq!(good[owd..owd + 8], 2u64.to_le_bytes());
        let first = owd + 8;
        let first_index = u64::from_le_bytes(good[first..first + 8].try_into().unwrap());
        let second_index = u64::from_le_bytes(good[first + 16..first + 24].try_into().unwrap());
        for (what, bad) in [
            ("stale version", patched(0, AGGREGATES_VERSION + 1)),
            ("bucket index out of range", patched(goodput + 8, 576)),
            ("zero bucket count", patched(goodput + 16, 0)),
            ("bucket counts off their sum", patched(goodput + 16, 2)),
            ("repeated bucket index", patched(first + 16, first_index)),
            ("decreasing bucket index", patched(first, second_index)),
            ("bucket list overruns", patched(goodput, u64::MAX)),
        ] {
            assert!(CampaignAggregates::from_bytes(&bad).is_none(), "{what}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(CampaignAggregates::from_bytes(&trailing).is_none());
        for cut in 0..good.len() {
            assert!(
                CampaignAggregates::from_bytes(&good[..cut]).is_none(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn clear_returns_to_the_empty_aggregate() {
        let mut a = CampaignAggregates::default();
        a.fold(&hostile_run(3));
        a.fold_failure();
        a.clear();
        assert_eq!(a, CampaignAggregates::default());
    }
}
