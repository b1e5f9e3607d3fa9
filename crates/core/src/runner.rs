//! Campaign execution: repeated runs per configuration, pooled series.
//!
//! The paper aggregates ≈130 runs over ≈90 flights; a campaign here is a
//! set of runs of one configuration with decorrelated channel randomness
//! (same deployment, different fading/shadowing/HET draws — the same areas
//! were flown repeatedly on different days).
//!
//! Campaigns are executed by the matrix engine ([`crate::exec`]):
//! `MatrixResult::campaigns()` groups a matrix's runs, in run-index
//! order, into the [`CampaignResult`]s pooled here.

use crate::metrics::RunMetrics;

/// All runs of one configuration.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// The configuration label (e.g. `GCC-Rural-P1-Air`).
    pub label: String,
    /// Per-run metrics.
    pub runs: Vec<RunMetrics>,
}

impl CampaignResult {
    /// All one-way-delay samples pooled (ms).
    pub fn owd_ms(&self) -> Vec<f64> {
        self.runs.iter().flat_map(|r| r.owd_ms()).collect()
    }

    /// All playback-latency samples pooled (ms).
    pub fn playback_latency_ms(&self) -> Vec<f64> {
        self.runs
            .iter()
            .flat_map(|r| r.playback_latency_ms())
            .collect()
    }

    /// All SSIM samples pooled (skips included as 0).
    pub fn ssim(&self) -> Vec<f64> {
        self.runs.iter().flat_map(|r| r.ssim_samples()).collect()
    }

    /// All HET samples pooled (ms).
    pub fn het_ms(&self) -> Vec<f64> {
        self.runs.iter().flat_map(|r| r.het_ms()).collect()
    }

    /// Per-run handover frequencies (HO/s) — the Fig. 4(a) boxplot points.
    pub fn ho_frequencies(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.ho_frequency()).collect()
    }

    /// Windowed goodput samples pooled (bps) — the Fig. 6 boxplot points.
    pub fn goodput_samples(&self) -> Vec<f64> {
        self.runs
            .iter()
            .flat_map(|r| {
                r.goodput_timeline(rpav_sim::SimDuration::from_secs(1))
                    .into_iter()
                    .map(|(_, bps)| bps)
            })
            .collect()
    }

    /// FPS samples pooled — the Fig. 7(a) CDF points.
    pub fn fps_samples(&self) -> Vec<f64> {
        self.runs
            .iter()
            .flat_map(|r| r.fps_timeline().into_iter().map(|(_, f)| f))
            .collect()
    }

    /// Mean stall rate per minute across runs.
    pub fn stalls_per_minute(&self) -> f64 {
        crate::stats::mean(
            &self
                .runs
                .iter()
                .map(|r| r.stalls_per_minute())
                .collect::<Vec<f64>>(),
        )
    }

    /// Pooled PER across runs.
    pub fn per(&self) -> f64 {
        let sent: u64 = self.runs.iter().map(|r| r.media_sent).sum();
        let recv: u64 = self.runs.iter().map(|r| r.media_received).sum();
        if sent == 0 {
            0.0
        } else {
            1.0 - recv as f64 / sent as f64
        }
    }

    /// Pooled before/after HO latency ratios (Fig. 9).
    pub fn ho_latency_ratios(&self) -> (Vec<f64>, Vec<f64>) {
        let mut before = Vec::new();
        let mut after = Vec::new();
        for r in &self.runs {
            let (b, a) = r.ho_latency_ratios();
            before.extend(b);
            after.extend(a);
        }
        (before, after)
    }
}

#[cfg(test)]
mod tests {
    use crate::exec::CampaignEngine;
    use crate::matrix::MatrixSpec;
    use crate::scenario::{CcMode, ExperimentConfig};
    use rpav_lte::Environment;

    #[test]
    fn campaign_runs_and_pools() {
        let base = ExperimentConfig::builder()
            .cc(CcMode::paper_static(Environment::Rural))
            .seed(7)
            .hold_secs(1)
            .build();
        let result = CampaignEngine::new().run(&MatrixSpec::new(base).runs(2));
        let c = &result.campaigns()[0];
        assert_eq!(c.runs.len(), 2);
        assert_eq!(c.label, "Static-Rural-P1-Air");
        assert!(!c.owd_ms().is_empty());
        assert!(!c.playback_latency_ms().is_empty());
        assert!(!c.ssim().is_empty());
        assert_eq!(c.ho_frequencies().len(), 2);
        assert!(c.per() < 0.05);
        // Runs differ (decorrelated channel randomness).
        assert_ne!(c.runs[0].media_received, c.runs[1].media_received);
    }
}
