//! The RRC capture, the analog of the paper's QCSuper capture (§3.2):
//! each handover as the message pair that brackets its execution time.
//! [`crate::dataset::RRC`] renders every run's pairs as `rrc.csv`.

use crate::metrics::HandoverRecord;
use rpav_lte::HandoverKind;
use rpav_sim::SimTime;

/// One RRC message: capture time, message name, cell.
pub type RrcMessage = (SimTime, &'static str, u32);

/// A handover's message pair: an A3 handover's command logged at the
/// source cell and its completion at the target, `het` later; a
/// radio-link failure's re-establishment request and re-establishment,
/// both at the cell it re-established on.
pub fn messages(h: &HandoverRecord) -> [RrcMessage; 2] {
    let done = h.at + h.het;
    match h.kind {
        HandoverKind::A3 => [
            (h.at, "rrcConnectionReconfiguration", h.from),
            (done, "rrcConnectionReconfigurationComplete", h.to),
        ],
        HandoverKind::RadioLinkFailure => [
            (h.at, "rrcConnectionReestablishmentRequest", h.to),
            (done, "rrcConnectionReestablishment", h.to),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{tables, tests::sample, DatasetRun};
    use rpav_sim::SimDuration;

    /// `kind`'s message pair, times in ms, for a 28 ms handover at 1 s
    /// from cell 3 to cell 7.
    fn pair(kind: HandoverKind) -> [(u64, &'static str, u32); 2] {
        let (at, het) = (SimTime::from_secs(1), SimDuration::from_millis(28));
        let h = HandoverRecord {
            at,
            het,
            kind,
            from: 3,
            to: 7,
        };
        messages(&h).map(|(t, name, cell)| (t.as_millis(), name, cell))
    }

    #[test]
    fn handover_becomes_message_pair() {
        let names = [
            "rrcConnectionReconfiguration",
            "rrcConnectionReconfigurationComplete",
        ];
        // The command from the source, the completion at the target.
        assert_eq!(
            pair(HandoverKind::A3),
            [(1_000, names[0], 3), (1_028, names[1], 7)]
        );
    }

    #[test]
    fn rlf_becomes_reestablishment_pair() {
        let names = [
            "rrcConnectionReestablishmentRequest",
            "rrcConnectionReestablishment",
        ];
        let want = [(1_000, names[0], 7), (1_028, names[1], 7)];
        assert_eq!(pair(HandoverKind::RadioLinkFailure), want);
    }

    /// The §3.2 extraction, run on `rrc.csv` alone: pairing each run's
    /// command (or re-establishment request) with the next completing
    /// message gives back that run's handovers — execution time, the
    /// command's cell and the completion's cell.
    #[test]
    fn het_extraction_matches_events() {
        let (cfg, mut m) = sample();
        m.handovers.push(HandoverRecord {
            at: SimTime::from_secs(8),
            het: SimDuration::from_millis(1_250),
            kind: HandoverKind::RadioLinkFailure,
            from: 5,
            to: 6,
        });
        let mut other = m.clone();
        other.handovers.insert(
            0,
            HandoverRecord {
                at: SimTime::from_millis(2_500),
                het: SimDuration::from_micros(612_345),
                kind: HandoverKind::A3,
                from: 1,
                to: 4,
            },
        );
        let metrics = [m, other];
        let runs: Vec<_> = metrics
            .iter()
            .map(|metrics| DatasetRun {
                config: &cfg,
                metrics,
            })
            .collect();
        let [.., ("rrc.csv", rrc)] = tables(&runs) else {
            panic!("rrc.csv is not the last table")
        };
        let mut found = vec![Vec::new(); runs.len()];
        let mut pending = None;
        for line in rrc.lines().skip(1) {
            let fields: Vec<&str> = line.split(',').collect();
            let [run, t_s, message, cell] = fields[..] else {
                panic!("{line}")
            };
            let run: usize = run.parse().unwrap();
            let at = (t_s.parse::<f64>().unwrap() * 1e6).round() as u64;
            let cell: u32 = cell.parse().unwrap();
            match message {
                "rrcConnectionReconfiguration" | "rrcConnectionReestablishmentRequest" => {
                    assert!(pending.replace((run, at, cell)).is_none(), "{line}");
                }
                "rrcConnectionReconfigurationComplete" | "rrcConnectionReestablishment" => {
                    let (start_run, start, from) = pending.take().expect(line);
                    assert_eq!(start_run, run, "{line}");
                    found[run].push((at - start, from, cell));
                }
                _ => panic!("{line}"),
            }
        }
        for (found, m) in found.iter().zip(&metrics) {
            let want: Vec<_> = m
                .handovers
                .iter()
                .map(|h| match h.kind {
                    HandoverKind::A3 => (h.het.as_micros(), h.from, h.to),
                    HandoverKind::RadioLinkFailure => (h.het.as_micros(), h.to, h.to),
                })
                .collect();
            assert_eq!(*found, want);
        }
    }
}
