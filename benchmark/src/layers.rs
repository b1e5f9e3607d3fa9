//! The traced run's per-layer metrics.
//!
//! Outside-in: every number here comes from the benchmark's own calls
//! into a layer's public API, or is an exact count the program reports
//! (`RunMetrics`, `EngineReport`, the daemon's campaign report). Three
//! groups, all driven by the workload's own cells so that every metric
//! exists on every workload:
//!
//! * **simulation layers** — each probe cell is executed directly once
//!   more (instrumented where the driver allows), then replayed layer by
//!   layer ([`crate::replay`]);
//! * **engine and storage** — the workload's cells through a cold
//!   `CampaignEngine` at one and at two workers, and each cell's
//!   `RunMetrics` through the codec, the cache file format, the journal
//!   and the aggregate fold;
//! * **daemon** — a `rpavd` child on the cache the engine just filled,
//!   the workload's specs submitted over HTTP.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use rpav_core::codec::{seal_to, unseal};
use rpav_core::exec::cache_entry_path;
use rpav_core::journal::CampaignJournal;
use rpav_core::json::{self, Json};
use rpav_core::prelude::*;
use rpav_daemon::{client, http};

use crate::daemon::{self, Rpavd};
use crate::fixtures::{self, Workload, JOBS};
use crate::ndjson;
use crate::replay::{probe_cell, CellProbes, CellRun, Cost};
use crate::report::{fmt, Oracle, Sample};
use crate::run::{self, Options};
use crate::stats::median;
use crate::trace::Tracer;

/// Every per-layer metric: name, unit, which direction is better. The
/// order is the order of the report; `BENCHMARK.json` lists the same.
pub const PER_LAYER: [(&str, &str, &str); 56] = [
    ("sim.arena_cycle_ns", "ns", "lower"),
    ("sim.event_queue_ns", "ns", "lower"),
    ("uav.position_ns", "ns", "lower"),
    ("lte.step_ns", "ns", "lower"),
    ("lte.steps", "count", "lower"),
    ("lte.handovers", "count", "lower"),
    ("lte.het_p50_ms", "ms", "lower"),
    ("lte.allocs_per_step", "count", "lower"),
    ("netem.path_pkt_ns", "ns", "lower"),
    ("netem.rerate_ns", "ns", "lower"),
    ("netem.queue_drops", "count", "lower"),
    ("netem.queue_peak_pkts", "count", "lower"),
    ("rtp.packetize_ns_per_pkt", "ns", "lower"),
    ("rtp.wire_ns_per_pkt", "ns", "lower"),
    ("rtp.jitter_ns_per_pkt", "ns", "lower"),
    ("rtp.depacketize_ns_per_pkt", "ns", "lower"),
    ("rtp.twcc_ns_per_pkt", "ns", "lower"),
    ("rtp.rfc8888_ns_per_pkt", "ns", "lower"),
    ("rtp.nack_ns_per_pkt", "ns", "lower"),
    ("rtp.rtx_ns_per_nack", "ns", "lower"),
    ("rtp.fec_encode_ns_per_pkt", "ns", "lower"),
    ("rtp.fec_recover_ns_per_loss", "ns", "lower"),
    ("rtp.fec_recovered_share", "ratio", "higher"),
    ("rtp.nacks_sent", "count", "lower"),
    ("gcc.feedback_ns_per_pkt", "ns", "lower"),
    ("gcc.updates", "count", "lower"),
    ("scream.feedback_ns_per_pkt", "ns", "lower"),
    ("scream.tx_ns_per_pkt", "ns", "lower"),
    ("video.encode_ns_per_frame", "ns", "lower"),
    ("video.player_ns_per_frame", "ns", "lower"),
    ("video.stalls", "count", "lower"),
    ("video.frames_played", "count", "higher"),
    ("core.pipeline.ticks", "count", "lower"),
    ("core.pipeline.ns_per_tick", "ns", "lower"),
    ("core.pipeline.residual_share", "ratio", "lower"),
    ("core.cc.engine_ns_per_pkt", "ns", "lower"),
    ("core.multipath.ns_per_sim_ms", "ns", "lower"),
    ("core.multipath.residual_share", "ratio", "lower"),
    ("core.multipath.reorder_buffered", "count", "lower"),
    ("core.exec.parallel_eff", "ratio", "higher"),
    ("core.exec.overhead_share", "ratio", "lower"),
    ("core.codec.encode_ms_per_cell", "ms", "lower"),
    ("core.codec.bytes_per_cell", "bytes", "lower"),
    ("core.cache.write_ms_per_cell", "ms", "lower"),
    ("core.journal.record_us", "us", "lower"),
    ("core.summary.fold_us_per_cell", "us", "lower"),
    ("core.codec.decode_ms_per_cell", "ms", "lower"),
    ("core.cache.read_ms_per_cell", "ms", "lower"),
    ("core.cache.hit_share", "ratio", "higher"),
    ("core.json.parse_us_per_spec", "us", "lower"),
    ("core.spec.expand_us", "us", "lower"),
    ("daemon.ready_ms", "ms", "lower"),
    ("daemon.submit_ms", "ms", "lower"),
    ("daemon.http_parse_us", "us", "lower"),
    ("daemon.events_per_s", "1/s", "higher"),
    ("daemon.event_bytes", "bytes", "lower"),
];

/// Cells of a workload the engine-scaling pair and the direct runs use
/// at most: enough for four batches per worker, small enough that the
/// traced run of the 24-cell workload stays inside its time.
const MAX_DIRECT_CELLS: usize = 12;

/// A metric being accumulated: a ratio of totals over the probe cells,
/// with each cell's own ratio kept for the quartiles.
#[derive(Default)]
struct Acc {
    num: f64,
    den: f64,
    per_cell: Vec<f64>,
}

#[derive(Default)]
struct Ledger(BTreeMap<&'static str, Acc>);

impl Ledger {
    /// `num / den` for one cell; the metric's value is Σnum / Σden.
    fn ratio(&mut self, name: &'static str, num: f64, den: f64) {
        let acc = self.0.entry(name).or_default();
        acc.num += num;
        acc.den += den;
        if den > 0.0 {
            acc.per_cell.push(num / den);
        }
    }

    fn cost(&mut self, name: &'static str, cost: Cost) {
        self.ratio(name, cost.ns, cost.ops);
    }

    /// An exact count for one cell; the metric's value is the sum.
    fn count(&mut self, name: &'static str, n: f64) {
        let acc = self.0.entry(name).or_default();
        acc.num += n;
        acc.den = 1.0;
        acc.per_cell.push(n);
    }

    /// A value that is already final.
    fn set(&mut self, name: &'static str, value: f64, samples: Vec<f64>) {
        self.0.insert(
            name,
            Acc {
                num: value,
                den: 1.0,
                per_cell: samples,
            },
        );
    }

    /// Every per-layer metric, in report order.
    fn metrics(&self) -> Vec<Sample> {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| self.sample(name, unit))
            .collect()
    }

    fn sample(&self, name: &'static str, unit: &'static str) -> Sample {
        let (value, mut samples) = match self.0.get(name) {
            Some(acc) if acc.den > 0.0 => (acc.num / acc.den, acc.per_cell.clone()),
            _ => (0.0, Vec::new()),
        };
        if samples.is_empty() {
            samples.push(value);
        }
        Sample {
            name,
            unit,
            value,
            samples,
        }
    }
}

pub struct Layered {
    pub metrics: Vec<Sample>,
    /// The per-workload layer table, for `trace.json`.
    pub table: Json,
    /// The same table for people.
    pub text: String,
}

fn ns_since(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64
}

/// Execute one cell directly, counting driver steps where the driver
/// offers an instrumented mode (single-path, unscripted).
fn direct_run(cell: &Cell) -> CellRun {
    let plain = matches!(cell.scheme, RunScheme::Pipeline) && cell.fault.is_none();
    let started = Instant::now();
    let (metrics, ticks) = if plain {
        let (m, steps) = Simulation::new(cell.config).run_instrumented();
        (m, Some(steps))
    } else {
        (cell.execute_with(false), None)
    };
    CellRun {
        cell: cell.clone(),
        metrics,
        wall_ns: ns_since(started),
        ticks,
    }
}

/// Rows of the layer table for one cell: each layer's replayed cost per
/// operation times the operations the cell actually performed.
fn layer_rows(run: &CellRun, p: &CellProbes) -> Vec<(&'static str, f64)> {
    let m = &run.metrics;
    let cfg = &run.cell.config;
    let legs = run.legs() as f64;
    let sent = m.media_sent as f64;
    let received = m.media_received as f64;
    let wire = fixtures::wire_packets(m) as f64;
    let steps = p.lte_step.ops * legs;
    let frames = fixtures::sim_seconds(m) * 30.0;
    let feedback = match cfg.cc {
        CcMode::Gcc => received * p.twcc.per_op(),
        CcMode::Scream { .. } => received * p.rfc8888.per_op(),
        CcMode::Static { .. } => 0.0,
    };
    let repair = if cfg.repair {
        received * p.nack.per_op() + m.nacks_sent as f64 * p.rtx.per_op()
    } else {
        0.0
    };
    // The probe builds two parity shards per eight packets — one shard
    // per four — where the program adapts the ratio to the loss it sees:
    // price the parity actually sent, at the probe's cost per shard.
    let fec = m.fec_tx as f64 * 4.0 * p.fec_encode.per_op()
        + m.fec_recovered as f64 * p.fec_recover.per_op();
    vec![
        ("rpav-uav", steps * p.position.per_op()),
        ("rpav-lte", steps * p.lte_step.per_op()),
        (
            "rpav-netem",
            wire * p.path_pkt.per_op() + 2.0 * steps * p.rerate.per_op(),
        ),
        (
            "rpav-rtp",
            sent * (p.packetize.per_op() + p.wire.per_op())
                + received * (p.jitter.per_op() + p.depacketize.per_op())
                + feedback
                + repair
                + fec,
        ),
        // GCC / SCReAM run inside the engine's calls; their own probes
        // break this row down and are not added again.
        ("rpav-gcc+scream (core.cc)", sent * p.cc_engine.per_op()),
        (
            "rpav-video",
            frames * (p.encode.per_op() + p.player.per_op()),
        ),
    ]
}

/// Codec, cache file, journal and fold on one cell's `RunMetrics`.
fn storage_probes(run: &CellRun, dir: &Path, journal: &mut CampaignJournal, ledger: &mut Ledger) {
    let m = &run.metrics;
    let started = Instant::now();
    let sealed = m.to_cache_bytes();
    ledger.ratio(
        "core.codec.encode_ms_per_cell",
        ns_since(started) / 1e6,
        1.0,
    );
    ledger.ratio("core.codec.bytes_per_cell", sealed.len() as f64, 1.0);

    // The engine's write path from its public pieces: seal into a tmp
    // file, fsync, rename into the sharded location.
    let payload = unseal(&sealed).expect("freshly sealed record");
    let path = cache_entry_path(dir, run.cell.key());
    let started = Instant::now();
    let written = (|| -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension("tmp");
        let mut file = std::fs::File::create(&tmp)?;
        seal_to(payload, &mut file)?;
        file.flush()?;
        file.sync_all()?;
        std::fs::rename(&tmp, &path)
    })();
    ledger.ratio("core.cache.write_ms_per_cell", ns_since(started) / 1e6, 1.0);

    let started = Instant::now();
    let journaled = journal.record(run.cell.index);
    ledger.ratio("core.journal.record_us", ns_since(started) / 1e3, 1.0);

    let started = Instant::now();
    let stored = std::fs::read(&path).unwrap_or_default();
    let intact = unseal(&stored).is_some();
    ledger.ratio("core.cache.read_ms_per_cell", ns_since(started) / 1e6, 1.0);

    let started = Instant::now();
    let decoded = RunMetrics::from_cache_bytes(&stored);
    ledger.ratio(
        "core.codec.decode_ms_per_cell",
        ns_since(started) / 1e6,
        1.0,
    );

    let mut aggregates = CampaignAggregates::default();
    let started = Instant::now();
    aggregates.fold(m);
    ledger.ratio(
        "core.summary.fold_us_per_cell",
        ns_since(started) / 1e3,
        1.0,
    );
    std::hint::black_box(&aggregates);

    assert!(
        written.is_ok() && journaled.is_ok() && intact && decoded.is_some(),
        "storage probe failed for {}: write {written:?}, journal {journaled:?}, intact {intact}",
        run.cell.label()
    );
}

/// One cold engine run of `cells` at `jobs` workers; wall seconds.
fn engine_wall(cells: &[Cell], jobs: usize, dir: &Path, oracle: &mut Oracle) -> f64 {
    let engine = run::engine(jobs, dir);
    let started = Instant::now();
    let summary = engine.run_cells_streaming(cells.to_vec());
    let wall = started.elapsed().as_secs_f64();
    oracle.require(
        summary.report.failed == 0 && summary.report.simulated == cells.len(),
        || format!("engine probe at jobs {jobs}: {}", summary.report.summary()),
    );
    wall
}

/// JSON parse, expansion and the daemon's request parser on the
/// workload's own spec documents.
fn document_probes(workload: &Workload, ledger: &mut Ledger) {
    const ROUNDS: usize = 200;
    for spec in &workload.specs {
        let text = spec.to_json();
        let started = Instant::now();
        for _ in 0..ROUNDS {
            std::hint::black_box(CampaignSpec::from_json(&text).is_ok());
        }
        ledger.ratio(
            "core.json.parse_us_per_spec",
            ns_since(started) / 1e3,
            ROUNDS as f64,
        );

        let started = Instant::now();
        for _ in 0..ROUNDS {
            std::hint::black_box(spec.to_matrix().expand().len());
        }
        ledger.ratio(
            "core.spec.expand_us",
            ns_since(started) / 1e3,
            ROUNDS as f64,
        );

        let request = format!(
            "POST /campaigns HTTP/1.1\r\nHost: rpavd\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{text}",
            text.len()
        );
        let started = Instant::now();
        for _ in 0..ROUNDS {
            let mut reader = request.as_bytes();
            std::hint::black_box(http::read_request(&mut reader).is_ok());
        }
        ledger.ratio(
            "daemon.http_parse_us",
            ns_since(started) / 1e3,
            ROUNDS as f64,
        );
    }
}

/// A `rpavd` child on `cache` (already holding every cell): time to
/// ready, submit round trips, and the event feed of a finished campaign.
fn daemon_probes(
    workload: &Workload,
    opts: &Options,
    cache: &Path,
    want_aggregates: &[Vec<u8>],
    ledger: &mut Ledger,
    oracle: &mut Oracle,
    tracer: &mut Tracer,
) {
    let span = tracer.begin("daemon.spawn");
    let spawned = Rpavd::spawn(&opts.rpavd, cache, &opts.scratch, JOBS);
    tracer.end(span);
    let rpavd = match spawned {
        Ok(d) => d,
        Err(e) => {
            oracle.attempt(false, || format!("spawn rpavd: {e}"));
            return;
        }
    };
    let span = tracer.begin("daemon.ready");
    let ready = loop {
        match client::get(&rpavd.addr, "/metrics", daemon::TIMEOUT) {
            Ok(r) if r.status == 200 => break true,
            _ if rpavd.spawned.elapsed() > daemon::TIMEOUT => break false,
            _ => std::thread::sleep(std::time::Duration::from_micros(250)),
        }
    };
    tracer.end(span);
    oracle.attempt(ready, || "rpavd never answered /metrics".into());
    ledger.ratio("daemon.ready_ms", ns_since(rpavd.spawned) / 1e6, 1.0);

    let (mut cached, mut total) = (0u64, 0u64);
    for (spec, want) in workload.specs.iter().zip(want_aggregates) {
        let id = format!("{:016x}", spec.identity());
        let span = tracer.begin("daemon.post");
        let started = Instant::now();
        let posted = client::post_json(&rpavd.addr, "/campaigns", &spec.to_json(), daemon::TIMEOUT);
        ledger.ratio("daemon.submit_ms", ns_since(started) / 1e6, 1.0);
        tracer.end(span);
        oracle.attempt(posted.is_ok_and(|r| r.status == 201), || {
            "daemon probe: POST /campaigns refused".into()
        });

        let span = tracer.begin("daemon.aggregates");
        let aggregates = client::get(
            &rpavd.addr,
            &format!("/campaigns/{id}/aggregates"),
            daemon::TIMEOUT,
        );
        tracer.end(span);
        oracle.attempt(
            aggregates.is_ok_and(|r| r.status == 200 && &r.body == want),
            || "daemon probe: aggregates differ from the benchmark's own fold".into(),
        );

        // The campaign is finished: the feed now replays at full speed.
        let span = tracer.begin("daemon.events");
        let started = Instant::now();
        let mut lines = 0u64;
        let mut bytes = 0u64;
        let followed = ndjson::follow(
            &rpavd.addr,
            &format!("/campaigns/{id}/events"),
            daemon::TIMEOUT,
        )
        .and_then(|mut stream| {
            while stream.next_line()?.is_some() {
                lines += 1;
            }
            bytes = stream.body_bytes;
            Ok(())
        });
        let follow_s = started.elapsed().as_secs_f64();
        tracer.end(span);
        oracle.attempt(followed.is_ok(), || "daemon probe: event feed cut".into());
        ledger.ratio("daemon.events_per_s", lines as f64, follow_s);
        ledger.ratio("daemon.event_bytes", bytes as f64, lines as f64);

        let report = client::get(&rpavd.addr, &format!("/campaigns/{id}"), daemon::TIMEOUT)
            .ok()
            .and_then(|r| Json::parse(&r.text()).ok());
        let field = |name: &str| report.as_ref()?.get("report")?.get(name)?.as_u64();
        cached += field("cached").unwrap_or(0);
        total += field("cells").unwrap_or(0);
        oracle.require(field("cells") == Some(lines), || {
            format!(
                "daemon probe: {lines} event lines for {:?} cells",
                field("cells")
            )
        });
    }
    ledger.ratio("core.cache.hit_share", cached as f64, total as f64);
}

pub fn measure(
    workload: &Workload,
    opts: &Options,
    tracer: &mut Tracer,
    oracle: &mut Oracle,
) -> Layered {
    let layers_span = tracer.begin("layers");
    let mut ledger = Ledger::default();
    let cells = workload.cells();
    let direct: Vec<Cell> = cells.iter().take(MAX_DIRECT_CELLS).cloned().collect();

    // Simulation layers and storage, one cell at a time (a paper-length
    // cell's `RunMetrics` is tens of MiB: never hold two).
    let storage_dir = opts.scratch.join("storage");
    let mut journal = CampaignJournal::open(&storage_dir, 0xBE7C, cells.len())
        .expect("open the storage probe's journal");
    let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut wall_single, mut wall_bonded, mut wall_direct) = (0.0, 0.0, 0.0);
    let (mut replayed_single, mut replayed_bonded) = (0.0, 0.0);
    let mut het_ms = Vec::new();
    for cell in &direct {
        let cell_span = tracer.begin("cell");
        let run_span = tracer.begin("direct_run");
        let run = direct_run(cell);
        tracer.end(run_span);
        wall_direct += run.wall_ns;
        storage_probes(&run, &storage_dir, &mut journal, &mut ledger);
        let m = &run.metrics;
        let sim_ms = fixtures::sim_seconds(m) * 1e3;
        ledger.count("lte.handovers", m.handovers.len() as f64);
        het_ms.extend(m.het_ms());
        ledger.count("rtp.nacks_sent", m.nacks_sent as f64);
        ledger.count("video.stalls", m.stalls as f64);
        ledger.count(
            "video.frames_played",
            m.frames.iter().filter(|f| f.displayed).count() as f64,
        );
        ledger.count("core.multipath.reorder_buffered", m.reorder_buffered as f64);
        let lost =
            (m.media_sent - m.media_received.min(m.media_sent)) + m.fec_recovered + m.rtx_recovered;
        ledger.ratio(
            "rtp.fec_recovered_share",
            m.fec_recovered as f64,
            lost as f64,
        );
        match run.ticks {
            Some(ticks) => {
                ledger.count("core.pipeline.ticks", ticks as f64);
                ledger.ratio("core.pipeline.ns_per_tick", run.wall_ns, ticks as f64);
            }
            None => ledger.ratio("core.multipath.ns_per_sim_ms", run.wall_ns, sim_ms),
        }
        // One replay per configuration: repeated runs of a campaign
        // differ only in their run index.
        if cell.config.run_index == 0 {
            let replay_span = tracer.begin("replay");
            let p = probe_cell(&run);
            for (metric, cost) in [
                ("sim.arena_cycle_ns", p.arena_cycle),
                ("sim.event_queue_ns", p.event_queue),
                ("uav.position_ns", p.position),
                ("lte.step_ns", p.lte_step),
                ("netem.path_pkt_ns", p.path_pkt),
                ("netem.rerate_ns", p.rerate),
                ("rtp.packetize_ns_per_pkt", p.packetize),
                ("rtp.wire_ns_per_pkt", p.wire),
                ("rtp.jitter_ns_per_pkt", p.jitter),
                ("rtp.depacketize_ns_per_pkt", p.depacketize),
                ("rtp.twcc_ns_per_pkt", p.twcc),
                ("rtp.rfc8888_ns_per_pkt", p.rfc8888),
                ("rtp.nack_ns_per_pkt", p.nack),
                ("rtp.rtx_ns_per_nack", p.rtx),
                ("rtp.fec_encode_ns_per_pkt", p.fec_encode),
                ("rtp.fec_recover_ns_per_loss", p.fec_recover),
                ("gcc.feedback_ns_per_pkt", p.gcc_feedback),
                ("scream.feedback_ns_per_pkt", p.scream_feedback),
                ("scream.tx_ns_per_pkt", p.scream_tx),
                ("core.cc.engine_ns_per_pkt", p.cc_engine),
                ("video.encode_ns_per_frame", p.encode),
                ("video.player_ns_per_frame", p.player),
            ] {
                // One span per replayed metric, named after it.
                tracer.leaf(&format!("probe.{metric}"), cost.ns as u64);
                ledger.cost(metric, cost);
            }
            tracer.end(replay_span);
            ledger.count("lte.steps", p.lte_step.ops * run.legs() as f64);
            ledger.ratio(
                "lte.allocs_per_step",
                p.lte_step_allocs as f64,
                p.lte_step.ops,
            );
            ledger.count("netem.queue_drops", p.queue_drops as f64);
            ledger.count("netem.queue_peak_pkts", p.queue_peak_pkts as f64);
            ledger.count("gcc.updates", p.gcc_updates as f64);

            let cell_rows = layer_rows(&run, &p);
            let replayed: f64 = cell_rows.iter().map(|(_, ns)| ns).sum();
            for (layer, ns) in cell_rows {
                *rows.entry(layer).or_default() += ns;
            }
            if run.bonded() {
                wall_bonded += run.wall_ns;
                replayed_bonded += replayed;
            } else {
                wall_single += run.wall_ns;
                replayed_single += replayed;
            }
        }
        tracer.end(cell_span);
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&storage_dir);
    let het_p50 = if het_ms.is_empty() {
        0.0
    } else {
        median(&het_ms)
    };
    ledger.set("lte.het_p50_ms", het_p50, vec![het_p50]);
    ledger.set(
        "core.pipeline.residual_share",
        if wall_single > 0.0 {
            1.0 - replayed_single / wall_single
        } else {
            0.0
        },
        Vec::new(),
    );
    ledger.set(
        "core.multipath.residual_share",
        if wall_bonded > 0.0 {
            1.0 - replayed_bonded / wall_bonded
        } else {
            0.0
        },
        Vec::new(),
    );

    // Engine: the same cells, cold, at one worker and at two.
    let engine_span = tracer.begin("engine");
    let dir1 = opts.scratch.join("exec-1");
    let dir2 = opts.scratch.join("exec-2");
    let span = tracer.begin("engine.jobs1");
    let wall1 = engine_wall(&direct, 1, &dir1, oracle);
    tracer.end(span);
    let _ = std::fs::remove_dir_all(&dir1);
    let span = tracer.begin("engine.jobs2");
    let wall2 = engine_wall(&direct, JOBS, &dir2, oracle);
    tracer.end(span);
    tracer.end(engine_span);
    ledger.set(
        "core.exec.parallel_eff",
        wall1 / (JOBS as f64 * wall2),
        Vec::new(),
    );
    ledger.set(
        "core.exec.overhead_share",
        wall2 * JOBS as f64 / (wall_direct / 1e9) - 1.0,
        Vec::new(),
    );

    document_probes(workload, &mut ledger);

    // Daemon: fill in whatever the scaling pair left cold, then serve.
    let span = tracer.begin("daemon");
    let (_, aggregates) = run::populate(workload, &dir2, oracle);
    daemon_probes(
        workload,
        opts,
        &dir2,
        &aggregates,
        &mut ledger,
        oracle,
        tracer,
    );
    tracer.end(span);
    let _ = std::fs::remove_dir_all(&dir2);
    tracer.end(layers_span);

    let ticks = ledger.0.get("core.pipeline.ticks").map_or(0.0, |a| a.num);
    let (table, text) = layer_table(
        workload.name,
        &rows,
        wall_single + wall_bonded,
        wall_single,
        ticks,
    );
    Layered {
        metrics: ledger.metrics(),
        table,
        text,
    }
}

/// The layer table, for `trace.json` and for people: one row per layer
/// with its replayed time, then the residual, then the total — so the
/// rows plus the residual are the wall time of the replayed cells
/// exactly.
fn layer_table(
    workload: &str,
    rows: &BTreeMap<&'static str, f64>,
    wall: f64,
    wall_single: f64,
    ticks: f64,
) -> (Json, String) {
    let share = |ns: f64| if wall > 0.0 { ns / wall } else { 0.0 };
    let replayed: f64 = rows.values().sum();
    let mut text = format!(
        "   layer table — {workload} (replayed = isolated calls × the cells' own operation counts)\n   {:<40} {:>12} {:>10}\n",
        "layer", "ms", "share %"
    );
    let mut table_rows = Vec::new();
    let mut row = |layer: &str, ns: f64| {
        text.push_str(&format!(
            "   {layer:<40} {:>12} {:>10}\n",
            fmt(ns / 1e6),
            fmt(share(ns) * 100.0)
        ));
        table_rows.push(json::obj(vec![
            ("layer", Json::Str(layer.into())),
            ("ns", Json::Float(ns)),
            ("share", Json::Float(share(ns))),
        ]));
    };
    for (layer, ns) in rows {
        row(&format!("{layer} (replayed)"), *ns);
    }
    row("residual (driver, metrics)", wall - replayed);
    row("total: cell wall time", wall);
    if ticks > 0.0 {
        text.push_str(&format!(
            "   single-path cells: {} ns/tick over {} ticks\n",
            fmt(wall_single / ticks),
            fmt(ticks)
        ));
    }
    let table = json::obj(vec![
        ("rows", Json::Array(table_rows)),
        ("cell_wall_ns", Json::Float(wall)),
        ("replayed_ns", Json::Float(replayed)),
        ("replayed_share", Json::Float(share(replayed))),
        ("residual_ns", Json::Float(wall - replayed)),
        ("pipeline_ticks", Json::Float(ticks)),
        (
            "note",
            Json::Str(
                "replayed rows are isolated calls scaled by the cells' own operation counts; \
                 rows plus residual equal cell_wall_ns"
                    .into(),
            ),
        ),
    ]);
    (table, text)
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// Every per-layer metric, as an empty ledger reports it.
    pub fn empty_metrics() -> Vec<Sample> {
        Ledger::default().metrics()
    }

    #[test]
    fn layer_rows_and_residual_sum_to_the_wall_time() {
        let rows = BTreeMap::from([("rpav-lte", 3e8), ("rpav-rtp", 9e8)]);
        let (table, text) = layer_table("single_air", &rows, 1.5e9, 1.5e9, 1e6);
        let listed = table.get("rows").and_then(Json::as_array).unwrap();
        let ns = |row: &Json| row.get("ns").and_then(Json::as_f64).unwrap();
        // Two layers, the residual, the total.
        assert_eq!(listed.len(), 4);
        let parts: f64 = listed[..3].iter().map(ns).sum();
        assert_eq!(parts, ns(&listed[3]));
        assert_eq!(table.get("residual_ns").and_then(Json::as_f64), Some(3e8));
        assert_eq!(
            table.get("replayed_share").and_then(Json::as_f64),
            Some(0.8)
        );
        assert!(text.contains("residual") && text.contains("1500.00 ns/tick"));
    }

    #[test]
    fn ledger_values_are_ratios_of_totals() {
        let mut ledger = Ledger::default();
        ledger.ratio("lte.step_ns", 100.0, 10.0);
        ledger.ratio("lte.step_ns", 300.0, 10.0);
        ledger.ratio("lte.step_ns", 0.0, 0.0);
        ledger.count("lte.steps", 5.0);
        ledger.count("lte.steps", 7.0);
        let step = ledger.sample("lte.step_ns", "ns");
        assert_eq!(step.value, 20.0);
        assert_eq!(step.samples, vec![10.0, 30.0]);
        let steps = ledger.sample("lte.steps", "count");
        assert_eq!(steps.value, 12.0);
        assert_eq!(steps.samples, vec![5.0, 7.0]);
        // A metric nothing fed reads 0 with one sample.
        let idle = ledger.sample("netem.queue_drops", "count");
        assert_eq!((idle.value, idle.samples.len()), (0.0, 1));
    }
}
