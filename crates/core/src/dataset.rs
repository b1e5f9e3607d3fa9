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
//!   rrc.csv         the RRC capture: each handover as its message pair
//! ```
//!
//! Each table is a [`Column`] list; [`tables`] renders all seven.

use std::fs;
use std::io;
use std::path::Path;

use crate::metrics::{FrameRecord, HandoverRecord, RadioTraceRow, RunMetrics, SwitchRecord};
use crate::rrc::{self, RrcMessage};
use crate::scenario::ExperimentConfig;
use crate::table::{self, Column};
use rpav_sim::SimTime;

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

/// A [`Column`] of `runs.csv`, whose rows are `(run index, config,
/// metrics)`: spelt out so that it takes a run of any lifetime.
pub type RunColumn = (
    &'static str,
    fn(&(usize, &ExperimentConfig, &RunMetrics)) -> String,
);

/// `runs.csv`, one row per run: config axes + headline metrics.
pub const RUNS: &[RunColumn] = &[
    ("run", |(i, ..)| i.to_string()),
    ("label", |(_, c, _)| c.label()),
    ("environment", |(_, c, _)| c.environment.name().into()),
    ("operator", |(_, c, _)| c.operator.name().into()),
    ("mobility", |(_, c, _)| c.mobility.name().into()),
    ("cc", |(_, c, _)| c.cc.name().into()),
    ("seed", |(_, c, _)| c.seed.to_string()),
    ("duration_s", |(.., m)| {
        format!("{:.1}", m.duration.as_secs_f64())
    }),
    ("goodput_mbps", |(.., m)| {
        format!("{:.3}", m.goodput_bps() / 1e6)
    }),
    ("per", |(.., m)| format!("{:.6}", m.per())),
    ("ho_count", |(.., m)| m.handovers.len().to_string()),
    ("stalls", |(.., m)| m.stalls.to_string()),
    ("distinct_cells", |(.., m)| m.distinct_cells.to_string()),
    ("repair", |(_, c, _)| (c.repair as u8).to_string()),
    ("malformed", |(.., m)| {
        (m.malformed_packets + m.malformed_payloads).to_string()
    }),
    ("duplicates", |(.., m)| m.duplicate_packets.to_string()),
    ("late", |(.., m)| m.late_packets.to_string()),
    ("nacks_sent", |(.., m)| m.nacks_sent.to_string()),
    ("rtx_sent", |(.., m)| m.rtx_sent.to_string()),
    ("rtx_recovered", |(.., m)| m.rtx_recovered.to_string()),
    ("rtx_late", |(.., m)| m.rtx_late.to_string()),
    ("repair_efficiency", |(.., m)| {
        format!("{:.4}", m.repair_efficiency())
    }),
    ("switches", |(.., m)| m.switches.len().to_string()),
    ("probes", |(.., m)| m.probes_sent.to_string()),
    ("dup_tx", |(.., m)| m.dup_tx_packets.to_string()),
    ("dead_ms", |(.., m)| format!("{:.0}", m.path_dead_ms())),
    ("fec_tx", |(.., m)| m.fec_tx.to_string()),
    ("fec_recovered", |(.., m)| m.fec_recovered.to_string()),
    ("fec_multi_recovered", |(.., m)| {
        m.fec_multi_recovered.to_string()
    }),
    ("reorder_buffered", |(.., m)| m.reorder_buffered.to_string()),
    ("leg0_share", |(.., m)| format!("{:.4}", m.leg_tx_share(0))),
];

/// `handovers.csv`, one row per handover: run, time, HET, kind.
pub const HANDOVERS: &[Column<(usize, HandoverRecord)>] = &[
    ("run", |(i, _)| i.to_string()),
    ("t_s", |(_, h)| format!("{:.3}", h.at.as_secs_f64())),
    ("het_ms", |(_, h)| format!("{:.1}", h.het.as_millis_f64())),
    ("kind", |(_, h)| format!("{:?}", h.kind)),
];

/// `frames.csv`, one row per played or skipped frame (a skipped frame's
/// latency is empty).
pub const FRAMES: &[Column<(usize, FrameRecord)>] = &[
    ("run", |(i, _)| i.to_string()),
    ("frame", |(_, f)| f.number.to_string()),
    ("display_t_s", |(_, f)| {
        format!("{:.3}", f.display_at.as_secs_f64())
    }),
    ("latency_ms", |(_, f)| {
        f.latency_ms.map(|l| format!("{l:.1}")).unwrap_or_default()
    }),
    ("ssim", |(_, f)| format!("{:.4}", f.ssim)),
    ("displayed", |(_, f)| (f.displayed as u8).to_string()),
];

/// `owd.csv`, one row per [`OWD_DECIMATION`]-th delivered media packet.
pub const OWD: &[Column<(usize, (SimTime, f64))>] = &[
    ("run", |(i, _)| i.to_string()),
    ("arrival_t_s", |(_, (t, _))| {
        format!("{:.4}", t.as_secs_f64())
    }),
    ("owd_ms", |(_, (_, ms))| format!("{ms:.2}")),
];

/// `radio.csv`, one row per radio tick.
pub const RADIO: &[Column<(usize, RadioTraceRow)>] = &[
    ("run", |(i, _)| i.to_string()),
    ("t_s", |(_, r)| format!("{:.1}", r.t.as_secs_f64())),
    ("altitude_m", |(_, r)| format!("{:.1}", r.altitude_m)),
    ("capacity_mbps", |(_, r)| {
        format!("{:.2}", r.capacity_bps / 1e6)
    }),
    ("rsrp_dbm", |(_, r)| format!("{:.1}", r.rsrp_dbm)),
    ("sinr_db", |(_, r)| format!("{:.1}", r.sinr_db)),
    ("in_handover", |(_, r)| (r.in_handover as u8).to_string()),
];

/// `switches.csv`, one row per failover switch: run, time, legs, cause.
pub const SWITCHES: &[Column<(usize, SwitchRecord)>] = &[
    ("run", |(i, _)| i.to_string()),
    ("t_s", |(_, s)| format!("{:.3}", s.at.as_secs_f64())),
    ("from_leg", |(_, s)| s.from_leg.to_string()),
    ("to_leg", |(_, s)| s.to_leg.to_string()),
    ("cause", |(_, s)| s.cause.label().into()),
];

/// `rrc.csv`, the analog of the paper's QCSuper capture (§3.2): each
/// handover as the RRC message pair that brackets its execution time.
pub const RRC: &[Column<(usize, RrcMessage)>] = &[
    ("run", |(i, _)| i.to_string()),
    ("t_s", |(_, (t, ..))| format!("{:.6}", t.as_secs_f64())),
    ("message", |(_, (_, message, _))| message.to_string()),
    ("cell", |(_, (.., cell))| cell.to_string()),
];

/// `(run index, record)` for every record `of` yields from each run.
fn records<'a, I: Iterator>(
    runs: &[DatasetRun<'a>],
    of: fn(&'a RunMetrics) -> I,
) -> Vec<(usize, I::Item)> {
    let per_run = runs.iter().enumerate();
    let rows = per_run.map(|(i, r)| of(r.metrics).map(move |record| (i, record)));
    rows.flatten().collect()
}

/// Every table of the dataset, as `(file name, CSV)`.
pub fn tables(runs: &[DatasetRun<'_>]) -> [(&'static str, String); 7] {
    let indexed = runs
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r.config, r.metrics));
    let handovers = records(runs, |m| m.handovers.iter().copied());
    let frames = records(runs, |m| m.frames.iter().copied());
    let owd = records(runs, |m| m.owd.iter().step_by(OWD_DECIMATION).copied());
    let radio = records(runs, |m| m.radio.iter().copied());
    let switches = records(runs, |m| m.switches.iter().copied());
    let rrc = records(runs, |m| m.handovers.iter().flat_map(rrc::messages));
    [
        ("runs.csv", table::csv(RUNS, indexed)),
        ("handovers.csv", table::csv(HANDOVERS, handovers)),
        ("frames.csv", table::csv(FRAMES, frames)),
        ("owd.csv", table::csv(OWD, owd)),
        ("radio.csv", table::csv(RADIO, radio)),
        ("switches.csv", table::csv(SWITCHES, switches)),
        ("rrc.csv", table::csv(RRC, rrc)),
    ]
}

/// Write the full dataset into `dir` (created if missing).
pub fn export(dir: &Path, runs: &[DatasetRun<'_>]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    for (name, csv) in tables(runs) {
        fs::write(dir.join(name), csv)?;
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codec::fnv1a;
    use crate::scenario::CcMode;
    use rpav_lte::{Environment, HandoverKind};
    use rpav_sim::{SimDuration, SimTime};

    pub(crate) fn sample() -> (ExperimentConfig, RunMetrics) {
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
            radio: (0..5)
                .map(|i| RadioTraceRow {
                    t: SimTime::from_millis(i * 100),
                    altitude_m: 20.0 * i as f64,
                    capacity_bps: 12.5e6 - 1e6 * i as f64,
                    rsrp_dbm: -85.0 - i as f64,
                    sinr_db: 12.0 - 0.5 * i as f64,
                    in_handover: i == 3,
                })
                .collect(),
            ..Default::default()
        };
        (cfg, m)
    }

    /// The sample run under two configurations, the second single-path:
    /// the fixed campaign the table pins and the well-formedness check
    /// run over.
    fn campaign() -> Vec<(ExperimentConfig, RunMetrics)> {
        let (urban, m) = sample();
        let single_path = RunMetrics {
            path_health: Vec::new(),
            ..m.clone()
        };
        let rural = ExperimentConfig::builder()
            .environment(Environment::Rural)
            .cc(CcMode::paper_scream())
            .repair(true)
            .seed(10)
            .build();
        vec![(urban, m), (rural, single_path)]
    }

    fn dataset_runs(campaign: &[(ExperimentConfig, RunMetrics)]) -> Vec<DatasetRun<'_>> {
        let runs = campaign.iter();
        runs.map(|(config, metrics)| DatasetRun { config, metrics })
            .collect()
    }

    /// Why each of the seven tables would not render well-formed over the
    /// campaign, `None` for each that would.
    pub(crate) fn malformed_tables() -> Vec<Option<String>> {
        let campaign = campaign();
        let runs = dataset_runs(&campaign);
        let indexed = runs
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.config, r.metrics));
        let rrc = records(&runs, |m| m.handovers.iter().flat_map(rrc::messages));
        vec![
            table::malformed(RUNS, &indexed.collect::<Vec<_>>()),
            table::malformed(HANDOVERS, &records(&runs, |m| m.handovers.iter().copied())),
            table::malformed(FRAMES, &records(&runs, |m| m.frames.iter().copied())),
            table::malformed(OWD, &records(&runs, |m| m.owd.iter().copied())),
            table::malformed(RADIO, &records(&runs, |m| m.radio.iter().copied())),
            table::malformed(SWITCHES, &records(&runs, |m| m.switches.iter().copied())),
            table::malformed(RRC, &rrc),
        ]
    }

    /// FNV-1a of each file over the fixed campaign, pinned when the tables
    /// were still format strings; `runs.csv` moved once, when the
    /// single-path run's `dead_ms` went from `-0` to `0`.
    #[test]
    fn tables_stay_put() {
        let campaign = campaign();
        let tables = tables(&dataset_runs(&campaign));
        let hashes = tables.map(|(name, csv)| (name, fnv1a(csv.as_bytes())));
        let want = [
            ("runs.csv", 0xc4d6c088e06a573a),
            ("handovers.csv", 0xeae5e4097f5ab563),
            ("frames.csv", 0xbe85fbb873ae6766),
            ("owd.csv", 0x267de90e7250accb),
            ("radio.csv", 0x3b0a89c1da1e86e3),
            ("switches.csv", 0x5b1831e94e95a793),
            ("rrc.csv", 0xbc4ab6dbac845d65),
        ];
        assert_eq!(hashes, want);
    }

    #[test]
    fn tables_have_headers_and_rows() {
        let (cfg, m) = sample();
        let runs = [DatasetRun {
            config: &cfg,
            metrics: &m,
        }];
        let [r, h, f, o, _, s, _] = tables(&runs).map(|(_, csv)| csv);
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

        assert_eq!(h.lines().count(), 2);
        assert!(h.contains("5.000,28.0,A3"));

        assert_eq!(f.lines().count(), 3);
        // The skipped frame has an empty latency field and displayed=0.
        assert!(f.lines().last().unwrap().ends_with(",0.0000,0"));

        assert_eq!(o.lines().count(), 1 + 99usize.div_ceil(OWD_DECIMATION));

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
        for (name, _) in tables(&runs) {
            let p = dir.join(name);
            assert!(p.exists(), "{name} missing");
            assert!(std::fs::metadata(&p).unwrap().len() > 10);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
