//! Dataset export — the analog of the paper's released measurement dataset
//! (\[11\], doi 10.14459/2022mp1687221).
//!
//! The campaign's artifact is a set of per-run CSV tables; this module
//! writes the same shape from simulated runs so the paper's published
//! parsing/visualisation scripts (or any notebook) can consume them:
//!
//! ```text
//! <dir>/
//!   runs.csv        one row per run: config axes + headline metrics
//!   handovers.csv   one row per handover: run, time, HET, kind
//!   frames.csv      one row per played/skipped frame
//!   owd.csv         one row per delivered media packet (decimated)
//!   radio.csv       one row per radio tick: altitude, capacity, RSRP, SINR
//!   switches.csv    one row per failover switch: run, time, legs, cause
//! ```
//!
//! For campaigns executed in the engine's streaming mode (no per-run
//! metrics retained), [`aggregates_csv`] renders the one-row summary of
//! the campaign's [`CampaignAggregates`](crate::summary::CampaignAggregates).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::metrics::RunMetrics;
use crate::scenario::ExperimentConfig;

/// Decimation factor for the per-packet OWD table (the raw table for a
/// full campaign is tens of millions of rows; the paper's analysis bins
/// them anyway).
pub const OWD_DECIMATION: usize = 10;

/// One run plus its configuration, ready for export.
pub struct DatasetRun<'a> {
    /// The configuration the run was executed with.
    pub config: &'a ExperimentConfig,
    /// Its metrics.
    pub metrics: &'a RunMetrics,
}

/// Render the `runs.csv` table.
pub fn runs_csv(runs: &[DatasetRun<'_>]) -> String {
    let mut out = String::from(
        "run,label,environment,operator,mobility,cc,seed,duration_s,\
         goodput_mbps,per,ho_count,stalls,distinct_cells,repair,\
         malformed,duplicates,late,nacks_sent,rtx_sent,rtx_recovered,\
         rtx_late,repair_efficiency,switches,probes,dup_tx,dead_ms,\
         fec_tx,fec_recovered,fec_multi_recovered,reorder_buffered,leg0_share\n",
    );
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{:.1},{:.3},{:.6},{},{},{},{},{},{},{},{},{},{},{},{:.4},{},{},{},{:.0},{},{},{},{},{:.4}",
            i,
            r.config.label(),
            r.config.environment.name(),
            r.config.operator.name(),
            r.config.mobility.name(),
            r.config.cc.name(),
            r.config.seed,
            r.metrics.duration.as_secs_f64(),
            r.metrics.goodput_bps() / 1e6,
            r.metrics.per(),
            r.metrics.handovers.len(),
            r.metrics.stalls,
            r.metrics.distinct_cells,
            r.config.repair as u8,
            r.metrics.malformed_packets + r.metrics.malformed_payloads,
            r.metrics.duplicate_packets,
            r.metrics.late_packets,
            r.metrics.nacks_sent,
            r.metrics.rtx_sent,
            r.metrics.rtx_recovered,
            r.metrics.rtx_late,
            r.metrics.repair_efficiency(),
            r.metrics.switches.len(),
            r.metrics.probes_sent,
            r.metrics.dup_tx_packets,
            r.metrics.path_dead_ms(),
            r.metrics.fec_tx,
            r.metrics.fec_recovered,
            r.metrics.fec_multi_recovered,
            r.metrics.reorder_buffered,
            r.metrics.leg_tx_share(0),
        );
    }
    out
}

/// Render the `handovers.csv` table.
pub fn handovers_csv(runs: &[DatasetRun<'_>]) -> String {
    let mut out = String::from("run,t_s,het_ms,kind\n");
    for (i, r) in runs.iter().enumerate() {
        for h in &r.metrics.handovers {
            let _ = writeln!(
                out,
                "{},{:.3},{:.1},{:?}",
                i,
                h.at.as_secs_f64(),
                h.het.as_millis_f64(),
                h.kind
            );
        }
    }
    out
}

/// Render the `frames.csv` table.
pub fn frames_csv(runs: &[DatasetRun<'_>]) -> String {
    let mut out = String::from("run,frame,display_t_s,latency_ms,ssim,displayed\n");
    for (i, r) in runs.iter().enumerate() {
        for f in &r.metrics.frames {
            let _ = writeln!(
                out,
                "{},{},{:.3},{},{:.4},{}",
                i,
                f.number,
                f.display_at.as_secs_f64(),
                f.latency_ms.map(|l| format!("{l:.1}")).unwrap_or_default(),
                f.ssim,
                f.displayed as u8
            );
        }
    }
    out
}

/// Render the (decimated) `owd.csv` table.
pub fn owd_csv(runs: &[DatasetRun<'_>]) -> String {
    let mut out = String::from("run,arrival_t_s,owd_ms\n");
    for (i, r) in runs.iter().enumerate() {
        for (t, ms) in r.metrics.owd.iter().step_by(OWD_DECIMATION) {
            let _ = writeln!(out, "{},{:.4},{:.2}", i, t.as_secs_f64(), ms);
        }
    }
    out
}

/// Render the `radio.csv` table.
pub fn radio_csv(runs: &[DatasetRun<'_>]) -> String {
    let mut out = String::from("run,t_s,altitude_m,capacity_mbps,rsrp_dbm,sinr_db,in_handover\n");
    for (i, r) in runs.iter().enumerate() {
        for row in &r.metrics.radio {
            let _ = writeln!(
                out,
                "{},{:.1},{:.1},{:.2},{:.1},{:.1},{}",
                i,
                row.t.as_secs_f64(),
                row.altitude_m,
                row.capacity_bps / 1e6,
                row.rsrp_dbm,
                row.sinr_db,
                row.in_handover as u8
            );
        }
    }
    out
}

/// Render the `switches.csv` table (failover switch events).
pub fn switches_csv(runs: &[DatasetRun<'_>]) -> String {
    let mut out = String::from("run,t_s,from_leg,to_leg,cause\n");
    for (i, r) in runs.iter().enumerate() {
        for s in &r.metrics.switches {
            let _ = writeln!(
                out,
                "{},{:.3},{},{},{}",
                i,
                s.at.as_secs_f64(),
                s.from_leg,
                s.to_leg,
                s.cause.label()
            );
        }
    }
    out
}

/// Write the full dataset into `dir` (created if missing).
pub fn export(dir: &Path, runs: &[DatasetRun<'_>]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join("runs.csv"), runs_csv(runs))?;
    fs::write(dir.join("handovers.csv"), handovers_csv(runs))?;
    fs::write(dir.join("frames.csv"), frames_csv(runs))?;
    fs::write(dir.join("owd.csv"), owd_csv(runs))?;
    fs::write(dir.join("radio.csv"), radio_csv(runs))?;
    fs::write(dir.join("switches.csv"), switches_csv(runs))?;
    Ok(())
}

/// Render a one-row `aggregates.csv` from the engine's streaming
/// [`CampaignAggregates`](crate::summary::CampaignAggregates) — the dataset artifact of a campaign too large
/// to hold per-run metrics for (the engine's streaming mode retains
/// nothing else).
pub fn aggregates_csv(a: &crate::summary::CampaignAggregates) -> String {
    let q = |h: &crate::stats::LogHistogram, p: f64| h.quantile(p).unwrap_or(f64::NAN);
    let mut out = String::from(
        "cells,failed,media_sent,media_received,media_received_bytes,\
         stalls,stalled_time_s,nacks_sent,rtx_recovered,fec_recovered,\
         ssim_samples,ssim_below_half,\
         goodput_mbps_p50,goodput_mbps_p99,goodput_mbps_mean,\
         owd_ms_p50,owd_ms_p99,playback_ms_p50,playback_ms_p99\n",
    );
    let _ = writeln!(
        out,
        "{},{},{},{},{},{},{:.3},{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3}",
        a.cells,
        a.failed,
        a.media_sent,
        a.media_received,
        a.media_received_bytes,
        a.stalls,
        a.stalled_time_us as f64 / 1e6,
        a.nacks_sent,
        a.rtx_recovered,
        a.fec_recovered,
        a.ssim_samples,
        a.ssim_below_half,
        q(&a.goodput_mbps, 0.5),
        q(&a.goodput_mbps, 0.99),
        a.goodput_mbps.mean().unwrap_or(f64::NAN),
        q(&a.owd_ms, 0.5),
        q(&a.owd_ms, 0.99),
        q(&a.playback_ms, 0.5),
        q(&a.playback_ms, 0.99),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{FrameRecord, HandoverRecord};
    use crate::scenario::CcMode;
    use rpav_lte::{Environment, HandoverKind};
    use rpav_sim::{SimDuration, SimTime};

    fn sample() -> (ExperimentConfig, RunMetrics) {
        let cfg = ExperimentConfig::builder()
            .environment(Environment::Urban)
            .cc(CcMode::Gcc)
            .seed(9)
            .build();
        let m = RunMetrics {
            duration: SimDuration::from_secs(10),
            media_sent: 100,
            media_received: 99,
            media_received_bytes: 99 * 1_200,
            owd: (0..99)
                .map(|i| (SimTime::from_millis(i * 100), 40.0 + i as f64))
                .collect(),
            handovers: vec![HandoverRecord {
                at: SimTime::from_secs(5),
                het: SimDuration::from_millis(28),
                kind: HandoverKind::A3,
                from: 4,
                to: 5,
            }],
            frames: vec![
                FrameRecord {
                    number: 0,
                    display_at: SimTime::from_millis(200),
                    latency_ms: Some(180.0),
                    ssim: 0.93,
                    displayed: true,
                },
                FrameRecord {
                    number: 1,
                    display_at: SimTime::from_millis(500),
                    latency_ms: None,
                    ssim: 0.0,
                    displayed: false,
                },
            ],
            stalls: 1,
            distinct_cells: 3,
            malformed_packets: 4,
            malformed_payloads: 1,
            duplicate_packets: 2,
            late_packets: 3,
            nacks_sent: 10,
            nack_seqs_requested: 20,
            rtx_sent: 18,
            rtx_recovered: 15,
            rtx_late: 2,
            switches: vec![crate::metrics::SwitchRecord {
                at: SimTime::from_secs(7),
                from_leg: 0,
                to_leg: 1,
                cause: crate::failover::SwitchCause::Starvation,
            }],
            path_health: vec![
                crate::metrics::PathHealthSummary {
                    leg: 0,
                    time_dead: SimDuration::from_millis(1_250),
                    tx_packets: 75,
                    ..Default::default()
                },
                crate::metrics::PathHealthSummary {
                    leg: 1,
                    tx_packets: 25,
                    ..Default::default()
                },
            ],
            probes_sent: 40,
            dup_tx_packets: 9,
            fec_tx: 6,
            fec_recovered: 2,
            fec_multi_recovered: 1,
            reorder_buffered: 4,
            ..Default::default()
        };
        (cfg, m)
    }

    #[test]
    fn tables_have_headers_and_rows() {
        let (cfg, m) = sample();
        let runs = [DatasetRun {
            config: &cfg,
            metrics: &m,
        }];
        let r = runs_csv(&runs);
        assert!(r.starts_with("run,label"));
        assert_eq!(r.lines().count(), 2);
        assert!(r.contains("GCC-Urban-P1-Air"));
        // Repair columns serialize: header names plus the sample's
        // counter values — malformed merges wire (4) and payload (1)
        // damage, and efficiency is recovered/requested = 15/20.
        assert!(r.contains("repair,malformed,duplicates,late,nacks_sent"));
        assert!(r.contains(
            ",rtx_late,repair_efficiency,switches,probes,dup_tx,dead_ms,\
             fec_tx,fec_recovered,fec_multi_recovered,reorder_buffered,leg0_share"
        ));
        assert!(
            r.lines()
                .nth(1)
                .unwrap()
                .ends_with(",0,5,2,3,10,18,15,2,0.7500,1,40,9,1250,6,2,1,4,0.7500"),
            "repair/failover/bonding columns wrong: {}",
            r.lines().nth(1).unwrap()
        );

        let h = handovers_csv(&runs);
        assert_eq!(h.lines().count(), 2);
        assert!(h.contains("5.000,28.0,A3"));

        let f = frames_csv(&runs);
        assert_eq!(f.lines().count(), 3);
        // The skipped frame has an empty latency field and displayed=0.
        assert!(f.lines().last().unwrap().ends_with(",0.0000,0"));

        let o = owd_csv(&runs);
        assert_eq!(o.lines().count(), 1 + 99usize.div_ceil(OWD_DECIMATION));

        let s = switches_csv(&runs);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("0,7.000,0,1,starvation"));
    }

    #[test]
    fn export_writes_all_files() {
        let (cfg, m) = sample();
        let runs = [DatasetRun {
            config: &cfg,
            metrics: &m,
        }];
        let dir = std::env::temp_dir().join(format!("rpav-dataset-{}", std::process::id()));
        export(&dir, &runs).unwrap();
        for name in [
            "runs.csv",
            "handovers.csv",
            "frames.csv",
            "owd.csv",
            "radio.csv",
            "switches.csv",
        ] {
            let p = dir.join(name);
            assert!(p.exists(), "{name} missing");
            assert!(std::fs::metadata(&p).unwrap().len() > 10);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aggregates_csv_has_header_and_one_row() {
        let (_, m) = sample();
        let mut a = crate::summary::CampaignAggregates::default();
        a.fold(&m);
        a.fold_failure();
        let s = aggregates_csv(&a);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("cells,failed,"));
        assert!(lines[1].starts_with("1,1,"));
    }
}
