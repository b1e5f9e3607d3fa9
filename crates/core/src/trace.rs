//! Fig. 8-style flight traces: joined time series of network latency,
//! playback latency, packet loss and handover markers, exportable as CSV.

use rpav_sim::{SimDuration, SimTime};

use crate::metrics::RunMetrics;
use crate::table::Column;

/// One 100 ms row of the joined trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceRow {
    /// Window end.
    pub t: SimTime,
    /// UAV altitude (m).
    pub altitude_m: f64,
    /// Mean one-way network latency in the window (ms); NaN if no packets.
    pub network_latency_ms: f64,
    /// Latest playback latency at the window end (ms); NaN before playback
    /// starts.
    pub playback_latency_ms: f64,
    /// Media packets lost in the window (per cent of window traffic).
    pub loss_pct: f64,
    /// True if a handover started in this window.
    pub handover: bool,
    /// Available uplink capacity (bit/s).
    pub capacity_bps: f64,
}

/// Build the joined trace from one run's metrics.
pub fn build_trace(metrics: &RunMetrics) -> Vec<TraceRow> {
    let window = SimDuration::from_millis(100);
    let mut rows = Vec::new();
    let end = SimTime::ZERO + metrics.duration;
    let mut t = SimTime::ZERO + window;

    let mut owd_idx = 0usize;
    let mut frame_idx = 0usize;
    let mut last_playback = f64::NAN;
    let mut radio_idx = 0usize;
    let mut ho_idx = 0usize;

    while t <= end {
        let start = t - window;
        // Mean OWD in the window.
        while owd_idx < metrics.owd.len() && metrics.owd[owd_idx].0 < start {
            owd_idx += 1;
        }
        let w: Vec<f64> = metrics.owd[owd_idx..]
            .iter()
            .take_while(|(a, _)| *a <= t)
            .map(|(_, ms)| *ms)
            .collect();
        let net = if w.is_empty() {
            f64::NAN
        } else {
            w.iter().sum::<f64>() / w.len() as f64
        };

        // Latest playback latency.
        while frame_idx < metrics.frames.len() && metrics.frames[frame_idx].display_at <= t {
            if let Some(l) = metrics.frames[frame_idx].latency_ms {
                last_playback = l;
            }
            frame_idx += 1;
        }

        // Radio row (altitude/capacity) closest below t.
        while radio_idx + 1 < metrics.radio.len() && metrics.radio[radio_idx + 1].t <= t {
            radio_idx += 1;
        }
        let (alt, cap) = metrics
            .radio
            .get(radio_idx)
            .map(|r| (r.altitude_m, r.capacity_bps))
            .unwrap_or((0.0, 0.0));

        // Handover in window?
        let mut handover = false;
        while ho_idx < metrics.handovers.len() && metrics.handovers[ho_idx].at <= t {
            if metrics.handovers[ho_idx].at > start {
                handover = true;
            }
            ho_idx += 1;
        }

        // Loss: a window without deliveries while the stream is active
        // is a full interruption; any other window reads 0.
        let loss_pct = if w.is_empty() && metrics.media_sent > 0 {
            100.0
        } else {
            0.0
        };

        rows.push(TraceRow {
            t,
            altitude_m: alt,
            network_latency_ms: net,
            playback_latency_ms: last_playback,
            loss_pct,
            handover,
            capacity_bps: cap,
        });
        t += window;
    }
    rows
}

/// The trace's columns, in the release format of the paper's dataset
/// scripts.
pub const COLUMNS: &[Column<TraceRow>] = &[
    ("t_s", |r| format!("{:.1}", r.t.as_secs_f64())),
    ("altitude_m", |r| format!("{:.1}", r.altitude_m)),
    ("network_latency_ms", |r| {
        format!("{:.2}", r.network_latency_ms)
    }),
    ("playback_latency_ms", |r| {
        format!("{:.2}", r.playback_latency_ms)
    }),
    ("loss_pct", |r| format!("{:.1}", r.loss_pct)),
    ("handover", |r| (r.handover as u8).to_string()),
    ("capacity_mbps", |r| format!("{:.2}", r.capacity_bps / 1e6)),
];

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::metrics::{FrameRecord, HandoverRecord, RadioTraceRow};
    use rpav_lte::HandoverKind;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    pub(crate) fn metrics() -> RunMetrics {
        RunMetrics {
            duration: SimDuration::from_secs(10),
            media_sent: 1_000,
            media_received: 1_000,
            media_received_bytes: 1_000_000,
            owd: (0..1_000).map(|i| (t(i * 10), 45.0)).collect(),
            handovers: vec![HandoverRecord {
                at: t(5_050),
                het: SimDuration::from_millis(30),
                kind: HandoverKind::A3,
                from: 0,
                to: 1,
            }],
            radio: (0..100)
                .map(|i| RadioTraceRow {
                    t: t(i * 100),
                    altitude_m: i as f64,
                    capacity_bps: 20e6,
                    rsrp_dbm: -80.0,
                    sinr_db: 10.0,
                    in_handover: false,
                })
                .collect(),
            frames: (0..300)
                .map(|i| FrameRecord {
                    number: i,
                    display_at: t(i * 33),
                    latency_ms: Some(180.0),
                    ssim: 0.9,
                    displayed: true,
                })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn trace_has_one_row_per_window() {
        let rows = build_trace(&metrics());
        assert_eq!(rows.len(), 100);
        // Steady latency reflected.
        let mid = &rows[50];
        assert!((mid.network_latency_ms - 45.0).abs() < 1e-9);
        assert!((mid.playback_latency_ms - 180.0).abs() < 1e-9);
        assert_eq!(mid.loss_pct, 0.0);
    }

    #[test]
    fn handover_marked_in_its_window() {
        let rows = build_trace(&metrics());
        let marked: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.handover)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(marked.len(), 1);
        // 5.05 s is in window index 50 (5.0–5.1 s).
        assert_eq!(marked[0], 50);
    }

    #[test]
    fn csv_renders_header_and_rows() {
        let rows = build_trace(&metrics());
        let csv = crate::table::csv(COLUMNS, &rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("t_s,altitude_m"));
        assert_eq!(lines.len(), 101);
        assert!(lines[51].contains(",1")); // handover flag column
    }
}
