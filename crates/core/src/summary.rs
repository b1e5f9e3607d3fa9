//! Headline statistics — the numbers quoted in the paper's running text.

use crate::runner::CampaignResult;
use crate::stats;

/// The in-text statistics for one configuration.
#[derive(Clone, Debug)]
pub struct HeadlineStats {
    /// Configuration label.
    pub label: String,
    /// Mean goodput (Mbps).
    pub goodput_mbps: f64,
    /// Stall events per minute (§4.2.1: 0.11 / 0.89 / 1.37).
    pub stalls_per_minute: f64,
    /// Fraction of playback latency ≤ 300 ms (§4.2.2).
    pub playback_within_300ms: f64,
    /// Fraction of SSIM samples < 0.5 (§4.2.3: 0.37–19.09 %).
    pub ssim_below_half: f64,
    /// Fraction of FPS windows at ≥ 29 FPS.
    pub fps_at_30: f64,
    /// Packet error rate (§4.1: 0.06–0.07 %).
    pub per: f64,
    /// Mean handover frequency (HO/s).
    pub ho_per_second: f64,
    /// Median one-way latency (ms).
    pub owd_median_ms: f64,
    /// 99th-percentile one-way latency (ms).
    pub owd_p99_ms: f64,
    /// Wire-damage tally pooled over the campaign: packets that failed to
    /// parse plus payloads whose metadata header was rejected.
    pub malformed: u64,
    /// Duplicate arrivals discarded (netem duplication or a lost RTX race).
    pub duplicates: u64,
    /// Packets that arrived after the receiver had given up on them —
    /// reordered beyond the NACK track window or an RTX past its playout
    /// deadline.
    pub late: u64,
    /// NACK feedback messages sent across the campaign.
    pub nacks_sent: u64,
    /// Lost packets recovered by retransmission in time for playout.
    pub rtx_recovered: u64,
    /// Wasted retransmissions: RTX that arrived past the playout deadline.
    pub rtx_wasted: u64,
    /// Pooled repair efficiency: recovered / requested sequence numbers
    /// (0.0 when repair was off — nothing was ever requested).
    pub repair_efficiency: f64,
    /// Failover switch events across the campaign (multipath runs only).
    pub switches: u64,
    /// Packets transmitted a second time on the other leg.
    pub dup_tx: u64,
    /// Mean per-run path dead time (ms, summed over legs).
    pub dead_ms: f64,
    /// FEC parity packets transmitted (bonded runs only).
    pub fec_tx: u64,
    /// Erased packets rebuilt from parity before the NACK path fired.
    pub fec_recovered: u64,
    /// Of those, packets from groups that lost more than one member —
    /// Reed–Solomon repairs beyond any single-parity XOR code.
    pub fec_multi_recovered: u64,
    /// Cross-leg arrivals behind the highest delivered sequence, absorbed
    /// by the reorder-tolerant reassembly window.
    pub reorder_buffered: u64,
    /// Mean fraction of first-flight media carried by leg 0 (0.5 = even
    /// bonded split; 1.0 = everything on the primary).
    pub leg0_share: f64,
}

impl HeadlineStats {
    /// Compute the headline stats of a campaign.
    pub fn from_campaign(c: &CampaignResult) -> Self {
        let playback = c.playback_latency_ms();
        let ssim = c.ssim();
        let fps = c.fps_samples();
        let owd = c.owd_ms();
        HeadlineStats {
            label: c.label.clone(),
            goodput_mbps: stats::mean(
                &c.runs
                    .iter()
                    .map(|r| r.goodput_bps() / 1e6)
                    .collect::<Vec<f64>>(),
            ),
            stalls_per_minute: c.stalls_per_minute(),
            playback_within_300ms: stats::fraction_at_or_below(&playback, 300.0),
            ssim_below_half: stats::fraction_below_strict(&ssim, 0.5),
            fps_at_30: 1.0 - stats::fraction_at_or_below(&fps, 29.0),
            per: c.per(),
            ho_per_second: stats::mean(&c.ho_frequencies()),
            owd_median_ms: if owd.is_empty() {
                f64::NAN
            } else {
                stats::quantile(&owd, 0.5)
            },
            owd_p99_ms: if owd.is_empty() {
                f64::NAN
            } else {
                stats::quantile(&owd, 0.99)
            },
            malformed: c
                .runs
                .iter()
                .map(|r| r.malformed_packets + r.malformed_payloads)
                .sum(),
            duplicates: c.runs.iter().map(|r| r.duplicate_packets).sum(),
            late: c.runs.iter().map(|r| r.late_packets).sum(),
            nacks_sent: c.runs.iter().map(|r| r.nacks_sent).sum(),
            rtx_recovered: c.runs.iter().map(|r| r.rtx_recovered).sum(),
            rtx_wasted: c.runs.iter().map(|r| r.rtx_late).sum(),
            repair_efficiency: {
                let requested: u64 = c.runs.iter().map(|r| r.nack_seqs_requested).sum();
                let recovered: u64 = c.runs.iter().map(|r| r.rtx_recovered).sum();
                if requested == 0 {
                    0.0
                } else {
                    recovered as f64 / requested as f64
                }
            },
            switches: c.runs.iter().map(|r| r.switches.len() as u64).sum(),
            dup_tx: c.runs.iter().map(|r| r.dup_tx_packets).sum(),
            dead_ms: stats::mean(
                &c.runs
                    .iter()
                    .map(|r| r.path_dead_ms())
                    .collect::<Vec<f64>>(),
            ),
            fec_tx: c.runs.iter().map(|r| r.fec_tx).sum(),
            fec_recovered: c.runs.iter().map(|r| r.fec_recovered).sum(),
            fec_multi_recovered: c.runs.iter().map(|r| r.fec_multi_recovered).sum(),
            reorder_buffered: c.runs.iter().map(|r| r.reorder_buffered).sum(),
            leg0_share: stats::mean(
                &c.runs
                    .iter()
                    .map(|r| r.leg_tx_share(0))
                    .collect::<Vec<f64>>(),
            ),
        }
    }

    /// Render one table row.
    pub fn row(&self) -> String {
        format!(
            "{:<24} {:>8.1} {:>10.2} {:>10.1} {:>9.2} {:>8.1} {:>8.3} {:>7.3} {:>8.1} {:>8.1} {:>6} {:>6} {:>6} {:>7} {:>7} {:>6} {:>5.2} {:>4} {:>6} {:>7.0} {:>6} {:>6} {:>6} {:>6} {:>5.2}",
            self.label,
            self.goodput_mbps,
            self.stalls_per_minute,
            self.playback_within_300ms * 100.0,
            self.ssim_below_half * 100.0,
            self.fps_at_30 * 100.0,
            self.per * 100.0,
            self.ho_per_second,
            self.owd_median_ms,
            self.owd_p99_ms,
            self.malformed,
            self.duplicates,
            self.late,
            self.nacks_sent,
            self.rtx_recovered,
            self.rtx_wasted,
            self.repair_efficiency,
            self.switches,
            self.dup_tx,
            self.dead_ms,
            self.fec_tx,
            self.fec_recovered,
            self.fec_multi_recovered,
            self.reorder_buffered,
            self.leg0_share,
        )
    }

    /// Table header matching [`HeadlineStats::row`].
    pub fn header() -> String {
        format!(
            "{:<24} {:>8} {:>10} {:>10} {:>9} {:>8} {:>8} {:>7} {:>8} {:>8} {:>6} {:>6} {:>6} {:>7} {:>7} {:>6} {:>5} {:>4} {:>6} {:>7} {:>6} {:>6} {:>6} {:>6} {:>5}",
            "configuration",
            "Mbps",
            "stalls/mn",
            "<300ms %",
            "ssim<.5%",
            "30fps %",
            "PER %",
            "HO/s",
            "owd p50",
            "owd p99",
            "malf",
            "dup",
            "late",
            "nacks",
            "rec",
            "waste",
            "eff",
            "sw",
            "dupx",
            "deadms",
            "fectx",
            "fecrec",
            "fecmr",
            "reord",
            "leg0",
        )
    }
}

/// Leading word of [`CampaignAggregates::to_bytes`]; bumped whenever the
/// layout changes. Version 2 replaced each histogram's f64 sum with its
/// `above` count and exact-sum words.
pub const AGGREGATES_VERSION: u64 = 2;

/// Streaming campaign aggregates: everything
/// [`EngineReport`](crate::exec::EngineReport) accumulates about a matrix
/// without retaining per-run [`RunMetrics`](crate::metrics::RunMetrics).
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
    pub fn fold(&mut self, m: &crate::metrics::RunMetrics) {
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
        self.cells += other.cells;
        self.failed += other.failed;
        self.media_sent += other.media_sent;
        self.media_received += other.media_received;
        self.media_received_bytes += other.media_received_bytes;
        self.stalls += other.stalls;
        self.stalled_time_us += other.stalled_time_us;
        self.nacks_sent += other.nacks_sent;
        self.rtx_recovered += other.rtx_recovered;
        self.fec_recovered += other.fec_recovered;
        self.ssim_samples += other.ssim_samples;
        self.ssim_below_half += other.ssim_below_half;
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

    /// Canonical byte encoding, led by [`AGGREGATES_VERSION`]. Two
    /// aggregates encode identically iff every counter, every histogram
    /// bucket and every exact sum agree — the resilience harness compares
    /// resumed vs. uninterrupted campaigns over exactly these bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = crate::codec::ByteWriter::new();
        w.u64(AGGREGATES_VERSION);
        w.u64(self.cells);
        w.u64(self.failed);
        w.u64(self.media_sent);
        w.u64(self.media_received);
        w.u64(self.media_received_bytes);
        w.u64(self.stalls);
        w.u64(self.stalled_time_us);
        w.u64(self.nacks_sent);
        w.u64(self.rtx_recovered);
        w.u64(self.fec_recovered);
        w.u64(self.ssim_samples);
        w.u64(self.ssim_below_half);
        for h in [&self.goodput_mbps, &self.owd_ms, &self.playback_ms] {
            let buckets: Vec<(usize, u64)> = h.nonzero_buckets().collect();
            w.u64(buckets.len() as u64);
            for (i, c) in buckets {
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
        w.into_bytes()
    }

    /// Human summary lines for bench/engine reports.
    pub fn summary(&self) -> String {
        let q = |h: &stats::LogHistogram, q: f64| h.quantile(q).unwrap_or(f64::NAN);
        format!(
            "aggregates: {} cells ({} failed) | goodput p50={:.2} p99={:.2} Mbps | \
             owd p50={:.1} p99={:.1} ms | playback p50={:.1} p99={:.1} ms | \
             stalls={} nacks={} rtx+fec={}",
            self.cells,
            self.failed,
            q(&self.goodput_mbps, 0.5),
            q(&self.goodput_mbps, 0.99),
            q(&self.owd_ms, 0.5),
            q(&self.owd_ms, 0.99),
            q(&self.playback_ms, 0.5),
            q(&self.playback_ms, 0.99),
            self.stalls,
            self.nacks_sent,
            self.rtx_recovered + self.fec_recovered,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunMetrics;
    use rpav_sim::SimDuration;

    #[test]
    fn headline_from_synthetic_campaign() {
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
        let campaign = crate::runner::CampaignResult {
            label: "synthetic".into(),
            runs: vec![run],
        };
        let h = HeadlineStats::from_campaign(&campaign);
        assert!((h.playback_within_300ms - 0.9).abs() < 0.01);
        assert!((h.ssim_below_half - 0.05).abs() < 0.01);
        assert!((h.stalls_per_minute - 1.0).abs() < 1e-9);
        assert!((h.per - 0.0007).abs() < 1e-4);
        assert_eq!(h.owd_median_ms, 50.0);
        // Rows render without panicking and align with the header.
        assert!(!h.row().is_empty());
        assert!(!HeadlineStats::header().is_empty());
    }

    #[test]
    fn repair_counters_pool_and_serialize() {
        let mk = |scale: u64| RunMetrics {
            duration: SimDuration::from_secs(60),
            media_sent: 1_000,
            media_received: 990,
            malformed_packets: 3 * scale,
            malformed_payloads: scale,
            duplicate_packets: 5 * scale,
            late_packets: 2 * scale,
            nacks_sent: 40 * scale,
            nack_seqs_requested: 100 * scale,
            rtx_recovered: 80 * scale,
            rtx_late: 7 * scale,
            ..Default::default()
        };
        let campaign = crate::runner::CampaignResult {
            label: "repair".into(),
            runs: vec![mk(1), mk(2)],
        };
        let h = HeadlineStats::from_campaign(&campaign);
        // Pooling sums across runs; malformed merges wire and payload
        // damage.
        assert_eq!(h.malformed, 12);
        assert_eq!(h.duplicates, 15);
        assert_eq!(h.late, 6);
        assert_eq!(h.nacks_sent, 120);
        assert_eq!(h.rtx_recovered, 240);
        assert_eq!(h.rtx_wasted, 21);
        assert!((h.repair_efficiency - 0.8).abs() < 1e-9);
        // The serialized row carries every repair column and aligns with
        // the header.
        let row = h.row();
        for needle in ["12", "15", "120", "240", "21", "0.80"] {
            assert!(row.contains(needle), "row missing {needle}: {row}");
        }
        for col in [
            "malf", "dup", "late", "nacks", "rec", "waste", "eff", "sw", "dupx", "deadms", "fectx",
            "fecrec", "fecmr", "reord", "leg0",
        ] {
            assert!(
                HeadlineStats::header().contains(col),
                "header missing {col}"
            );
        }
    }

    #[test]
    fn failover_counters_surface_in_row() {
        let mut run = RunMetrics {
            duration: SimDuration::from_secs(60),
            media_sent: 1_000,
            media_received: 990,
            dup_tx_packets: 77,
            ..Default::default()
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
        let campaign = crate::runner::CampaignResult {
            label: "failover".into(),
            runs: vec![run],
        };
        let h = HeadlineStats::from_campaign(&campaign);
        assert_eq!(h.switches, 1);
        assert_eq!(h.dup_tx, 77);
        assert!((h.dead_ms - 1_500.0).abs() < 1e-9);
        let row = h.row();
        for needle in ["77", "1500"] {
            assert!(row.contains(needle), "row missing {needle}: {row}");
        }
    }

    #[test]
    fn bonding_counters_pool_and_surface_in_row() {
        let mk = |leg0_tx: u64, leg1_tx: u64| {
            let mut run = RunMetrics {
                duration: SimDuration::from_secs(60),
                media_sent: 1_000,
                media_received: 990,
                fec_tx: 120,
                fec_recovered: 11,
                fec_multi_recovered: 4,
                reorder_buffered: 33,
                ..Default::default()
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
        let campaign = crate::runner::CampaignResult {
            label: "bonded".into(),
            runs: vec![mk(600, 400), mk(400, 600)],
        };
        let h = HeadlineStats::from_campaign(&campaign);
        assert_eq!(h.fec_tx, 240);
        assert_eq!(h.fec_recovered, 22);
        assert_eq!(h.fec_multi_recovered, 8);
        assert_eq!(h.reorder_buffered, 66);
        assert!((h.leg0_share - 0.5).abs() < 1e-9);
        let row = h.row();
        for needle in ["240", "22", "66", "0.50"] {
            assert!(row.contains(needle), "row missing {needle}: {row}");
        }
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
        assert!(!whole.summary().is_empty());
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

    #[test]
    fn repair_efficiency_zero_when_repair_off() {
        let campaign = crate::runner::CampaignResult {
            label: "off".into(),
            runs: vec![RunMetrics {
                duration: SimDuration::from_secs(60),
                media_sent: 1_000,
                media_received: 990,
                ..Default::default()
            }],
        };
        let h = HeadlineStats::from_campaign(&campaign);
        assert_eq!(h.repair_efficiency, 0.0);
        assert_eq!(h.nacks_sent, 0);
    }
}
