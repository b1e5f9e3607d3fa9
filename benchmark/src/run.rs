//! The five workloads: set-up, timed passes, output checks, end-to-end
//! metrics. Closed loop throughout: the next cell, pass or request
//! starts when the previous one has returned.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rpav_core::codec::{fnv1a, unseal, ByteWriter};
use rpav_core::exec::cache_entry_path;
use rpav_core::json::Json;
use rpav_core::prelude::*;
use rpav_daemon::client;
use rpav_sim::alloc;

use crate::daemon::{self, Rpavd};
use crate::fixtures::{self, Kind, Workload, JOBS};
use crate::ndjson;
use crate::report::{Oracle, Outcome, Sample};
use crate::stats::median;
use crate::trace::Tracer;

pub struct Options {
    pub seed: u64,
    /// How long the timed passes of one run last.
    pub seconds: f64,
    pub trace: bool,
    /// One timed pass, no warm-up pass.
    pub smoke: bool,
    /// Per-run temp directory: caches, journals, port files, logs.
    pub scratch: PathBuf,
    /// The `rpavd` binary built from the root workspace.
    pub rpavd: PathBuf,
}

impl Options {
    /// Time for the passes. A traced run spends a quarter of `seconds`
    /// on them — enough to put a number on the tracing overhead — and
    /// the rest of its time on the per-layer probes, whose size is fixed.
    pub fn pass_budget(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 4.0
        } else {
            self.seconds
        })
    }
}

/// What the checks and metrics need to remember of one executed cell;
/// the `RunMetrics` itself is dropped as soon as this is taken.
#[derive(Clone, Debug, PartialEq)]
pub struct CellFacts {
    pub digest: u64,
    pub sim_s: f64,
    pub wire_packets: u64,
}

/// FNV-1a of `RunMetrics::to_bytes()`, encoding into a reused buffer.
pub fn digest(m: &RunMetrics, buf: &mut Vec<u8>) -> u64 {
    let mut w = ByteWriter::with_buf(std::mem::take(buf));
    m.write_into(&mut w);
    *buf = w.into_bytes();
    fnv1a(buf)
}

fn facts(m: &RunMetrics, buf: &mut Vec<u8>) -> CellFacts {
    CellFacts {
        digest: digest(m, buf),
        sim_s: fixtures::sim_seconds(m),
        wire_packets: fixtures::wire_packets(m),
    }
}

/// The invariants every cell's statistics must satisfy.
fn check_invariants(oracle: &mut Oracle, label: &str, m: &RunMetrics) {
    oracle.require(m.media_received <= m.media_sent, || {
        format!(
            "{label}: received {} > sent {}",
            m.media_received, m.media_sent
        )
    });
    oracle.require(m.goodput_bps() > 0.0, || format!("{label}: zero goodput"));
}

/// One digest over a run's simulated statistics.
fn stats_digest(cells: &[CellFacts], aggregates: &[u8]) -> u64 {
    let mut bytes = Vec::with_capacity(cells.len() * 8 + aggregates.len());
    for c in cells {
        bytes.extend_from_slice(&c.digest.to_le_bytes());
    }
    bytes.extend_from_slice(aggregates);
    fnv1a(&bytes)
}

fn fresh_dir(scratch: &Path, name: &str) -> PathBuf {
    let dir = scratch.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Keep running passes while the next one is expected to end inside the
/// budget (at least one, and in smoke mode exactly one).
fn more_passes(opts: &Options, started: Instant, done: usize) -> bool {
    if done == 0 || opts.smoke {
        return done == 0;
    }
    let elapsed = started.elapsed();
    elapsed + elapsed / done as u32 <= opts.pass_budget()
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// The seven end-to-end metrics of one run. All times are host time
/// (`Instant`).
struct EndToEnd {
    cells: usize,
    sim_s: f64,
    wire_packets: u64,
    /// The fastest pass the run saw (each runner says how it is formed):
    /// the three rates are computed from it. Whatever else the machine
    /// does only ever adds to a pass; the program's own time is the
    /// floor, and the floor repeats where the median does not (README.md,
    /// "How a run's value is formed").
    fastest_pass_s: f64,
    /// Every timed pass.
    pass_s: Vec<f64>,
    /// Time to the first result: the run's value, and each pass's.
    first_ms: f64,
    pass_first_ms: Vec<f64>,
    allocs_per_packet: f64,
    peak_rss_mib: Vec<f64>,
    /// Everything before the first timed pass.
    setup_s: f64,
}

impl EndToEnd {
    fn samples(self) -> Vec<Sample> {
        let n = self.cells as f64;
        let pk = self.wire_packets as f64;
        let rate = |name, unit, f: &dyn Fn(f64) -> f64| {
            let per_pass = self.pass_s.iter().map(|&w| f(w)).collect();
            Sample::beside_passes(name, unit, f(self.fastest_pass_s), per_pass)
        };
        vec![
            Sample::exact("setup_s", "s", self.setup_s),
            rate("cells_per_s", "1/s", &|w| n / w),
            rate("sim_x_realtime", "x", &|w| self.sim_s / w),
            rate("ns_per_packet", "ns", &|w| w * 1e9 / pk),
            Sample::exact("allocs_per_packet", "count", self.allocs_per_packet),
            Sample::beside_passes(
                "first_result_ms_p50",
                "ms",
                self.first_ms,
                self.pass_first_ms.clone(),
            ),
            Sample::median_of("peak_rss_mb", "MiB", self.peak_rss_mib.clone()),
        ]
    }
}

pub fn run(workload: &Workload, opts: &Options, tracer: &mut Tracer) -> Outcome {
    let span = tracer.begin(&format!("workload.{}", workload.name));
    let outcome = match workload.kind {
        Kind::Direct => run_direct(workload, opts, tracer),
        Kind::EngineCold => run_engine_cold(workload, opts, tracer),
        Kind::ServiceWarm => run_service_warm(workload, opts, tracer),
    };
    tracer.end(span);
    outcome
}

/// The workload at the default seed: the fixed input of the warm-up
/// pass, on which the exact counts (`allocs_per_packet`, `peak_rss_mb`)
/// are taken. Handover counts and adaptive rates swing by tens of per
/// cent from one seed to the next, and the counts with them; on a fixed
/// input a count that moves is a change in the program, never in the
/// input. The same code runs whatever the seed, so it warms the process
/// (thread-local arena, lazy statics, cold text pages) as well as the
/// seed's own cells would.
fn reference_input(workload: &Workload) -> Workload {
    fixtures::workload(workload.name, fixtures::DEFAULT_SEED).expect("a known workload")
}

// ---------------------------------------------------------------------------
// single_air, ground_static, bonded_nleg
// ---------------------------------------------------------------------------

struct DirectPass {
    /// Seconds per cell, in cell order.
    cell_s: Vec<f64>,
    allocs: u64,
    facts: Vec<CellFacts>,
}

impl DirectPass {
    fn wire_packets(&self) -> u64 {
        self.facts.iter().map(|f| f.wire_packets).sum()
    }
}

/// Execute every cell once, in order, on this thread. Wall time and
/// allocation events are taken around `execute_with` only: digesting
/// and checking the result is the benchmark's cost, not the program's.
fn direct_pass(
    cells: &[Cell],
    oracle: &mut Oracle,
    tracer: &mut Tracer,
    buf: &mut Vec<u8>,
) -> DirectPass {
    let mut pass = DirectPass {
        cell_s: Vec::with_capacity(cells.len()),
        allocs: 0,
        facts: Vec::with_capacity(cells.len()),
    };
    for cell in cells {
        let span = tracer.begin("cell");
        let allocs_before = alloc::events();
        let started = Instant::now();
        let result = std::panic::catch_unwind(|| cell.execute_with(false));
        pass.cell_s.push(started.elapsed().as_secs_f64());
        pass.allocs += alloc::events() - allocs_before;
        tracer.end(span);
        match result {
            Ok(m) => {
                oracle.passed(1);
                check_invariants(oracle, &cell.label(), &m);
                pass.facts.push(facts(&m, buf));
            }
            Err(_) => {
                oracle.attempt(false, || format!("{}: panicked", cell.label()));
                pass.facts.push(CellFacts {
                    digest: 0,
                    sim_s: 0.0,
                    wire_packets: 0,
                });
            }
        }
    }
    pass
}

fn compare_digests(
    oracle: &mut Oracle,
    cells: &[Cell],
    reference: &[CellFacts],
    got: &[CellFacts],
) {
    for ((cell, want), got) in cells.iter().zip(reference).zip(got) {
        oracle.require(want.digest == got.digest, || {
            format!(
                "{}: digest {:016x} differs from the first pass's {:016x}",
                cell.label(),
                got.digest,
                want.digest
            )
        });
    }
}

fn run_direct(workload: &Workload, opts: &Options, tracer: &mut Tracer) -> Outcome {
    let mut oracle = Oracle::default();
    let mut buf = Vec::new();

    // Set-up: the cells from the seed, and the discarded warm-up pass.
    // It is the first thing the process executes, so `VmHWM` right after
    // it is that pass's own peak.
    let setup_started = Instant::now();
    let span = tracer.begin("setup");
    let cells = workload.cells();
    let counts = (!opts.smoke).then(|| {
        let pass = direct_pass(
            &reference_input(workload).cells(),
            &mut oracle,
            tracer,
            &mut buf,
        );
        (
            pass.allocs as f64 / pass.wire_packets().max(1) as f64,
            daemon::peak_rss_mib("self").unwrap_or(0.0),
        )
    });
    tracer.end(span);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let mut reference: Option<Vec<CellFacts>> = None;
    let mut fastest_cell_s = vec![f64::INFINITY; cells.len()];
    let mut pass_s = Vec::new();
    let (mut allocs, mut packets) = (0u64, 0u64);
    let started = Instant::now();
    while more_passes(opts, started, pass_s.len()) {
        tracer.set_pass(pass_s.len() as u32 + 1);
        let span = tracer.begin("pass");
        let pass = direct_pass(&cells, &mut oracle, tracer, &mut buf);
        tracer.end(span);
        for (fastest, &s) in fastest_cell_s.iter_mut().zip(&pass.cell_s) {
            *fastest = fastest.min(s);
        }
        pass_s.push(pass.cell_s.iter().sum());
        allocs += pass.allocs;
        packets += pass.wire_packets();
        match &reference {
            None => reference = Some(pass.facts),
            Some(r) => compare_digests(&mut oracle, &cells, r, &pass.facts),
        }
    }
    tracer.set_pass(0);

    let reference = reference.unwrap_or_default();
    // A smoke run has no warm-up pass: its counts are those of its one
    // timed pass, on the seed's own input.
    let (allocs_per_packet, peak_rss) = counts.unwrap_or_else(|| {
        (
            allocs as f64 / packets.max(1) as f64,
            daemon::peak_rss_mib("self").unwrap_or(0.0),
        )
    });
    let per_cell_ms = 1e3 / cells.len().max(1) as f64;
    let fastest_pass_s: f64 = fastest_cell_s.iter().sum();
    let e2e = EndToEnd {
        cells: cells.len(),
        sim_s: reference.iter().map(|f| f.sim_s).sum(),
        wire_packets: reference.iter().map(|f| f.wire_packets).sum(),
        // Assembled cell by cell: each cell's fastest execution over the
        // passes, summed. Interference that lands on a different cell in
        // each pass slows every whole pass but none of these.
        fastest_pass_s,
        // No result stream here: the caller gets one result per cell, so
        // the mean time per cell stands in for "first result" and says
        // nothing `cells_per_s` does not. (The first cell alone is one
        // realisation of one configuration: its time swings 19 % across
        // seeds on the bonded workload.)
        first_ms: fastest_pass_s * per_cell_ms,
        pass_first_ms: pass_s.iter().map(|p| p * per_cell_ms).collect(),
        allocs_per_packet,
        peak_rss_mib: vec![peak_rss],
        setup_s,
        pass_s,
    };
    Outcome {
        workload: workload.name,
        seed: opts.seed,
        traced: opts.trace,
        passes: e2e.pass_s.len(),
        oracle,
        stats_digest: stats_digest(&reference, &[]),
        info: Vec::new(),
        metrics: e2e.samples(),
    }
}

// ---------------------------------------------------------------------------
// campaign_cold
// ---------------------------------------------------------------------------

/// What the timed passes are checked against: per-cell digests and the
/// benchmark's own fold, both taken from the first pass's cache records.
struct Reference {
    facts: Vec<CellFacts>,
    aggregates: Vec<u8>,
}

struct EnginePass {
    wall_s: f64,
    /// Call → first observer callback, milliseconds.
    first_ms: f64,
    allocs: u64,
    wire_packets: u64,
    /// Present when the caller had no reference to check against.
    reference: Option<Reference>,
    cache_bytes: u64,
}

pub fn engine(jobs: usize, cache: &Path) -> CampaignEngine {
    // Explicit options: the environment (`RPAV_JOBS`, `RPAV_CACHE`, …)
    // must not reach a measured engine.
    EngineOptions {
        jobs: Some(jobs),
        cache_dir: Some(cache.to_path_buf()),
        ..EngineOptions::default()
    }
    .engine()
}

/// One cold campaign: fresh engine, fresh cache directory, expansion
/// included. The observer only notes when the first result arrived and
/// counts packets; the outputs are checked after the clock has stopped,
/// from the sealed cache records the engine wrote. Without a reference
/// every record is decoded and folded by the benchmark itself — an
/// engine-free `CampaignAggregates::fold` of the same cells — and that
/// becomes the reference; with one, every record's payload digest must
/// equal the reference's. Either way the engine's aggregate bytes must
/// equal the fold's.
fn engine_cold_pass(
    workload: &Workload,
    dir: &Path,
    reference: Option<&Reference>,
    oracle: &mut Oracle,
    tracer: &mut Tracer,
) -> EnginePass {
    let engine = engine(JOBS, dir);
    let mut first = None;
    let mut seen = 0usize;
    let mut wire_packets = 0u64;
    let mut panics = Vec::new();

    let allocs_before = alloc::events();
    let started = Instant::now();
    let expand = tracer.begin("expand");
    let cells = workload.cells();
    tracer.end(expand);
    let keys: Vec<(String, u64)> = cells.iter().map(|c| (c.label(), c.key())).collect();
    let run = tracer.begin("run_streaming_observed");
    let summary = engine.run_cells_streaming_observed(cells, &mut |outcome| {
        first.get_or_insert_with(|| started.elapsed());
        seen += 1;
        tracer.mark("observer");
        match outcome.try_metrics() {
            Some(m) => wire_packets += fixtures::wire_packets(m),
            None => panics.push(outcome.cell().label()),
        }
    });
    tracer.end(run);
    let wall = started.elapsed();
    let allocs = alloc::events() - allocs_before;

    let n = keys.len();
    oracle.passed(n.saturating_sub(panics.len()) as u64);
    for label in panics {
        oracle.attempt(false, || format!("{label}: CellOutcome::Failed"));
    }
    let report = &summary.report;
    oracle.require(seen == n && report.cells == n, || {
        format!("observer saw {seen} of {n} cells")
    });
    oracle.require(report.simulated == n && report.cached == 0, || {
        format!(
            "cold pass simulated {} and cached {} of {n}",
            report.simulated, report.cached
        )
    });

    let mut own_facts = Vec::new();
    let mut own_fold = CampaignAggregates::default();
    for (i, (label, key)) in keys.iter().enumerate() {
        let stored = std::fs::read(cache_entry_path(dir, *key)).ok();
        let payload = stored.as_deref().and_then(unseal);
        let digest = payload.map(fnv1a);
        match reference {
            Some(want) => oracle.require(digest == want.facts.get(i).map(|f| f.digest), || {
                format!("{label}: cache record missing, unsealed badly or differs")
            }),
            None => {
                let decoded = payload.and_then(RunMetrics::from_bytes);
                oracle.require(decoded.is_some(), || {
                    format!("{label}: cache record missing or undecodable")
                });
                if let Some(m) = &decoded {
                    check_invariants(oracle, label, m);
                    own_fold.fold(m);
                }
                own_facts.push(CellFacts {
                    digest: digest.unwrap_or(0),
                    sim_s: decoded.as_ref().map_or(0.0, fixtures::sim_seconds),
                    wire_packets: decoded.as_ref().map_or(0, fixtures::wire_packets),
                });
            }
        }
    }
    let own = reference.is_none().then(|| Reference {
        facts: own_facts,
        aggregates: own_fold.to_bytes(),
    });
    if let Some(want) = own.as_ref().or(reference) {
        oracle.require(report.aggregates.to_bytes() == want.aggregates, || {
            "engine aggregates differ from the benchmark's own fold".into()
        });
        let stored: u64 = want.facts.iter().map(|f| f.wire_packets).sum();
        oracle.require(wire_packets == stored, || {
            format!("observer saw {wire_packets} wire packets, the cache holds {stored}")
        });
    }
    EnginePass {
        wall_s: wall.as_secs_f64(),
        first_ms: first.unwrap_or(wall).as_secs_f64() * 1e3,
        allocs,
        wire_packets,
        reference: own,
        cache_bytes: dir_bytes(dir),
    }
}

/// Execute two cells without the engine and hold the engine's results
/// to them: cell 0 and one the seed picks.
fn spot_check(workload: &Workload, seed: u64, reference: &Reference, oracle: &mut Oracle) {
    let cells = workload.cells();
    let pick = 1 + (fixtures::derive(seed, 99) as usize) % (cells.len() - 1);
    let mut buf = Vec::new();
    for i in [0, pick] {
        let m = cells[i].execute_with(false);
        oracle.attempt(digest(&m, &mut buf) == reference.facts[i].digest, || {
            format!(
                "{}: engine result differs from direct execution",
                cells[i].label()
            )
        });
    }
}

fn run_engine_cold(workload: &Workload, opts: &Options, tracer: &mut Tracer) -> Outcome {
    let mut oracle = Oracle::default();

    // Set-up: the discarded warm-up campaign, first thing in the process
    // (see `reference_input`).
    let setup_started = Instant::now();
    let span = tracer.begin("setup");
    let counts = (!opts.smoke).then(|| {
        let dir = fresh_dir(&opts.scratch, "cold");
        let input = reference_input(workload);
        let pass = engine_cold_pass(&input, &dir, None, &mut oracle, tracer);
        (
            pass.allocs as f64 / pass.wire_packets.max(1) as f64,
            daemon::peak_rss_mib("self").unwrap_or(0.0),
        )
    });
    tracer.end(span);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let mut reference: Option<Reference> = None;
    let mut passes: Vec<EnginePass> = Vec::new();
    let started = Instant::now();
    while more_passes(opts, started, passes.len()) {
        tracer.set_pass(passes.len() as u32 + 1);
        let span = tracer.begin("pass");
        let dir = fresh_dir(&opts.scratch, "cold");
        let mut pass = engine_cold_pass(workload, &dir, reference.as_ref(), &mut oracle, tracer);
        tracer.end(span);
        if reference.is_none() {
            reference = pass.reference.take();
        }
        passes.push(pass);
    }
    tracer.set_pass(0);
    let _ = std::fs::remove_dir_all(opts.scratch.join("cold"));

    let reference = reference.expect("the first pass builds the reference");
    spot_check(workload, opts.seed, &reference, &mut oracle);

    let (allocs_per_packet, peak_rss) = counts.unwrap_or_else(|| {
        let allocs: u64 = passes.iter().map(|p| p.allocs).sum();
        let packets: u64 = passes.iter().map(|p| p.wire_packets).sum();
        (
            allocs as f64 / packets.max(1) as f64,
            daemon::peak_rss_mib("self").unwrap_or(0.0),
        )
    });
    let first_ms: Vec<f64> = passes.iter().map(|p| p.first_ms).collect();
    let e2e = EndToEnd {
        cells: reference.facts.len(),
        sim_s: reference.facts.iter().map(|f| f.sim_s).sum(),
        wire_packets: reference.facts.iter().map(|f| f.wire_packets).sum(),
        // A pass is one indivisible engine run.
        fastest_pass_s: passes
            .iter()
            .map(|p| p.wall_s)
            .fold(f64::INFINITY, f64::min),
        pass_s: passes.iter().map(|p| p.wall_s).collect(),
        first_ms: median(&first_ms),
        pass_first_ms: first_ms,
        allocs_per_packet,
        peak_rss_mib: vec![peak_rss],
        setup_s,
    };
    let info = vec![(
        "disk_per_pass",
        mib(passes.last().map_or(0, |p| p.cache_bytes)),
        "MiB",
    )];
    Outcome {
        workload: workload.name,
        seed: opts.seed,
        traced: opts.trace,
        passes: e2e.pass_s.len(),
        oracle,
        stats_digest: stats_digest(&reference.facts, &reference.aggregates),
        metrics: e2e.samples(),
        info,
    }
}

// ---------------------------------------------------------------------------
// service_warm
// ---------------------------------------------------------------------------

/// One `rpavd` lifetime, spawn to kill, as the client saw it.
pub struct ServicePass {
    /// Spawn → aggregates fetched, seconds.
    pub wall_s: f64,
    /// Spawn → first NDJSON line, milliseconds.
    pub first_ms: f64,
    /// POST round trips, one per spec.
    pub submit_ms: Vec<f64>,
    pub lines: u64,
    pub event_bytes: u64,
    pub peak_rss_mib: f64,
    /// `cached` ÷ `cells` over the campaigns' final reports.
    pub hit_share: f64,
}

fn http_ok(
    oracle: &mut Oracle,
    what: &str,
    response: std::io::Result<client::Response>,
    want: &[u16],
) -> Option<client::Response> {
    match response {
        Ok(r) if want.contains(&r.status) => {
            oracle.passed(1);
            Some(r)
        }
        Ok(r) => {
            oracle.attempt(false, || format!("{what}: HTTP {} {}", r.status, r.text()));
            None
        }
        Err(e) => {
            oracle.attempt(false, || format!("{what}: {e}"));
            None
        }
    }
}

/// Spawn `rpavd` on `cache`, submit every spec of the workload, follow
/// each event feed to its end, fetch the aggregates and the final
/// report, and kill the child. One connection at a time.
///
/// The recovered campaigns start executing before the POST arrives, so
/// the spawn is the only well-defined origin for "first result".
pub fn service_pass(
    workload: &Workload,
    opts: &Options,
    cache: &Path,
    want_aggregates: &[Vec<u8>],
    fresh: bool,
    oracle: &mut Oracle,
    tracer: &mut Tracer,
) -> Option<ServicePass> {
    let span = tracer.begin("spawn");
    let spawned = Rpavd::spawn(&opts.rpavd, cache, &opts.scratch, JOBS);
    tracer.end(span);
    let rpavd = match spawned {
        Ok(d) => d,
        Err(e) => {
            oracle.attempt(false, || format!("spawn rpavd: {e}"));
            return None;
        }
    };
    let t0 = rpavd.spawned;
    let mut pass = ServicePass {
        wall_s: 0.0,
        first_ms: 0.0,
        submit_ms: Vec::new(),
        lines: 0,
        event_bytes: 0,
        peak_rss_mib: 0.0,
        hit_share: 0.0,
    };
    let mut first = None;
    let mut served = Duration::ZERO;
    let (mut cached, mut total) = (0u64, 0u64);

    for (spec, want) in workload.specs.iter().zip(want_aggregates) {
        let id = format!("{:016x}", spec.identity());
        let labels: Vec<String> = spec.to_matrix().expand().iter().map(Cell::label).collect();

        let span = tracer.begin("post");
        let posted = Instant::now();
        let response =
            client::post_json(&rpavd.addr, "/campaigns", &spec.to_json(), daemon::TIMEOUT);
        pass.submit_ms.push(posted.elapsed().as_secs_f64() * 1e3);
        tracer.end(span);
        let accepted = http_ok(oracle, "POST /campaigns", response, &[200, 201])?;
        let body = Json::parse(&accepted.text()).ok();
        let created = body.as_ref().and_then(|b| b.get("created")?.as_bool());
        oracle.require(
            body.as_ref().and_then(|b| b.get("id")?.as_str()) == Some(id.as_str())
                && created == Some(fresh),
            || format!("POST /campaigns: unexpected reply {}", accepted.text()),
        );

        let span = tracer.begin("events");
        let followed = ndjson::follow(
            &rpavd.addr,
            &format!("/campaigns/{id}/events"),
            daemon::TIMEOUT,
        );
        let mut stream = match followed {
            Ok(s) if s.status == 200 => s,
            Ok(s) => {
                oracle.attempt(false, || format!("GET events: HTTP {}", s.status));
                return None;
            }
            Err(e) => {
                oracle.attempt(false, || format!("GET events: {e}"));
                return None;
            }
        };
        oracle.passed(1);
        let mut seq = 0usize;
        loop {
            match stream.next_line() {
                Ok(Some(line)) => {
                    if first.is_none() {
                        first = Some(t0.elapsed());
                        tracer.mark("first_line");
                    }
                    let event = std::str::from_utf8(&line)
                        .ok()
                        .and_then(|l| Json::parse(l).ok());
                    let ok = event.as_ref().is_some_and(|e| {
                        e.get("seq").and_then(Json::as_u64) == Some(seq as u64)
                            && e.get("status").and_then(Json::as_str) == Some("done")
                            && e.get("cell").and_then(Json::as_str)
                                == labels.get(seq).map(String::as_str)
                    });
                    oracle.attempt(ok, || {
                        format!(
                            "event {seq}: unexpected line {}",
                            String::from_utf8_lossy(&line)
                        )
                    });
                    seq += 1;
                }
                Ok(None) => break,
                Err(e) => {
                    oracle.attempt(false, || format!("event feed: {e}"));
                    return None;
                }
            }
        }
        tracer.end(span);
        oracle.require(seq == labels.len(), || {
            format!("event feed ended after {seq} of {} cells", labels.len())
        });
        pass.lines += seq as u64;
        pass.event_bytes += stream.body_bytes;
        drop(stream);

        let span = tracer.begin("aggregates");
        let response = client::get(
            &rpavd.addr,
            &format!("/campaigns/{id}/aggregates"),
            daemon::TIMEOUT,
        );
        tracer.end(span);
        let aggregates = http_ok(oracle, "GET aggregates", response, &[200])?;
        oracle.require(&aggregates.body == want, || {
            "daemon aggregates differ from the benchmark's own fold".into()
        });
        served = t0.elapsed();

        // Outside the measured interval: the final report.
        let response = client::get(&rpavd.addr, &format!("/campaigns/{id}"), daemon::TIMEOUT);
        let status = http_ok(oracle, "GET campaign", response, &[200])?;
        let report = Json::parse(&status.text()).ok();
        let field = |name: &str| {
            report
                .as_ref()
                .and_then(|r| r.get("report")?.get(name)?.as_u64())
        };
        let (cells, hits, failed) = (field("cells"), field("cached"), field("failed"));
        oracle.require(
            cells == Some(labels.len() as u64) && failed == Some(0) && (fresh || hits == cells),
            || format!("campaign report: {}", status.text()),
        );
        cached += hits.unwrap_or(0);
        total += cells.unwrap_or(0);
    }
    pass.first_ms = first.unwrap_or(served).as_secs_f64() * 1e3;
    pass.peak_rss_mib = rpavd.peak_rss_mib().unwrap_or(0.0);
    pass.wall_s = served.as_secs_f64();
    pass.hit_share = cached as f64 / total.max(1) as f64;
    Some(pass)
}

/// Populate `dir` with every cell of the workload through an in-process
/// engine, folding and digesting the outcomes as they are delivered.
pub fn populate(
    workload: &Workload,
    dir: &Path,
    oracle: &mut Oracle,
) -> (Vec<CellFacts>, Vec<Vec<u8>>) {
    let mut all_facts = Vec::new();
    let mut aggregates = Vec::new();
    let mut buf = Vec::new();
    for spec in &workload.specs {
        let mut fold = CampaignAggregates::default();
        let cells = spec.to_matrix().expand();
        let n = cells.len();
        let summary =
            engine(JOBS, dir).run_cells_streaming_observed(cells, &mut |outcome| match outcome
                .try_metrics()
            {
                Some(m) => {
                    check_invariants(oracle, &outcome.cell().label(), m);
                    all_facts.push(facts(m, &mut buf));
                    fold.fold(m);
                }
                None => oracle.fail(format!("{}: failed in set-up", outcome.cell().label())),
            });
        oracle.require(
            summary.report.cells == n && summary.report.failed == 0,
            || format!("set-up campaign: {}", summary.report.summary()),
        );
        oracle.require(
            summary.report.aggregates.to_bytes() == fold.to_bytes(),
            || "set-up engine aggregates differ from the benchmark's own fold".into(),
        );
        aggregates.push(fold.to_bytes());
    }
    (all_facts, aggregates)
}

fn run_service_warm(workload: &Workload, opts: &Options, tracer: &mut Tracer) -> Outcome {
    let mut oracle = Oracle::default();
    let cache = fresh_dir(&opts.scratch, "warm");

    // Set-up: populate the cache, then the first daemon lifetime — which
    // archives the spec, so every later spawn recovers the campaign.
    let setup_started = Instant::now();
    let span = tracer.begin("setup");
    let (cell_facts, aggregates) = populate(workload, &cache, &mut oracle);
    service_pass(
        workload,
        opts,
        &cache,
        &aggregates,
        true,
        &mut oracle,
        tracer,
    );
    tracer.end(span);
    let setup_s = setup_started.elapsed().as_secs_f64();
    let cache_bytes = dir_bytes(&cache);

    let mut passes = Vec::new();
    let allocs_before = alloc::events();
    let started = Instant::now();
    while more_passes(opts, started, passes.len()) {
        tracer.set_pass(passes.len() as u32 + 1);
        let span = tracer.begin("pass");
        let pass = service_pass(
            workload,
            opts,
            &cache,
            &aggregates,
            false,
            &mut oracle,
            tracer,
        );
        tracer.end(span);
        match pass {
            Some(p) => passes.push(p),
            // The failure is counted; without a daemon there is nothing
            // more to measure.
            None => break,
        }
    }
    tracer.set_pass(0);
    let allocs = alloc::events() - allocs_before;
    let _ = std::fs::remove_dir_all(&cache);

    if passes.is_empty() {
        return Outcome {
            workload: workload.name,
            seed: opts.seed,
            traced: opts.trace,
            passes: 0,
            oracle,
            stats_digest: 0,
            metrics: Vec::new(),
            info: Vec::new(),
        };
    }
    let wire_packets: u64 = cell_facts.iter().map(|f| f.wire_packets).sum();
    let first_ms: Vec<f64> = passes.iter().map(|p| p.first_ms).collect();
    let e2e = EndToEnd {
        cells: cell_facts.len(),
        sim_s: cell_facts.iter().map(|f| f.sim_s).sum(),
        wire_packets,
        // A pass is one daemon lifetime.
        fastest_pass_s: passes
            .iter()
            .map(|p| p.wall_s)
            .fold(f64::INFINITY, f64::min),
        pass_s: passes.iter().map(|p| p.wall_s).collect(),
        first_ms: median(&first_ms),
        pass_first_ms: first_ms,
        // Client side only: the daemon's allocation events are not
        // observable from outside the process (README.md).
        allocs_per_packet: allocs as f64 / (wire_packets.max(1) * passes.len() as u64) as f64,
        peak_rss_mib: passes.iter().map(|p| p.peak_rss_mib).collect(),
        setup_s,
    };
    Outcome {
        workload: workload.name,
        seed: opts.seed,
        traced: opts.trace,
        passes: e2e.pass_s.len(),
        oracle,
        stats_digest: stats_digest(&cell_facts, &aggregates.concat()),
        metrics: e2e.samples(),
        info: vec![("disk_fixture", mib(cache_bytes), "MiB")],
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// An `Outcome` with every end-to-end metric, from made-up passes.
    pub fn sample_outcome() -> Outcome {
        let e2e = EndToEnd {
            cells: 6,
            sim_s: 1_770.0,
            wire_packets: 2_800_000,
            fastest_pass_s: 2.0,
            pass_s: vec![2.4, 2.5, 2.1],
            first_ms: 410.0,
            pass_first_ms: vec![410.0, 430.0, 400.0],
            allocs_per_packet: 5e-4,
            peak_rss_mib: vec![115.2],
            setup_s: 2.1,
        };
        Outcome {
            workload: "single_air",
            seed: 7,
            traced: false,
            passes: 3,
            oracle: Oracle {
                attempted: 42,
                failed: 0,
                failures: Vec::new(),
            },
            stats_digest: 0xDEAD_BEEF,
            info: vec![("disk_per_pass", 80.0, "MiB")],
            metrics: e2e.samples(),
        }
    }

    #[test]
    fn rates_come_from_the_fastest_pass_and_the_rest_are_medians() {
        let o = sample_outcome();
        let value = |name: &str| o.metrics.iter().find(|s| s.name == name).unwrap().value;
        assert_eq!(value("cells_per_s"), 3.0);
        let passes = &o.metrics[1].samples;
        assert_eq!(passes, &vec![6.0 / 2.4, 6.0 / 2.5, 6.0 / 2.1]);
        assert_eq!(value("sim_x_realtime"), 885.0);
        assert!((value("ns_per_packet") - 2e9 / 2.8e6).abs() < 1e-9);
        assert_eq!(value("allocs_per_packet"), 5e-4);
        assert_eq!(value("setup_s"), 2.1);
        assert_eq!(value("first_result_ms_p50"), 410.0);
        assert_eq!(value("peak_rss_mb"), 115.2);
    }

    #[test]
    fn passes_stop_when_the_next_would_overrun_the_budget() {
        let opts = |smoke| Options {
            seed: 1,
            seconds: 3_600.0,
            trace: false,
            smoke,
            scratch: PathBuf::new(),
            rpavd: PathBuf::new(),
        };
        let now = Instant::now();
        assert!(more_passes(&opts(false), now, 0));
        assert!(more_passes(&opts(false), now, 5));
        assert!(more_passes(&opts(true), now, 0));
        assert!(!more_passes(&opts(true), now, 1));
        let spent = Options {
            seconds: 1e-9,
            ..opts(false)
        };
        assert!(more_passes(&spent, now, 0), "at least one pass");
        std::thread::sleep(Duration::from_millis(1));
        assert!(!more_passes(&spent, now, 1));
    }

    #[test]
    fn stats_digest_covers_cells_and_aggregates() {
        let cell = |digest| CellFacts {
            digest,
            sim_s: 1.0,
            wire_packets: 1,
        };
        let a = stats_digest(&[cell(1), cell(2)], b"agg");
        assert_eq!(a, stats_digest(&[cell(1), cell(2)], b"agg"));
        assert_ne!(a, stats_digest(&[cell(2), cell(1)], b"agg"));
        assert_ne!(a, stats_digest(&[cell(1), cell(2)], b"agh"));
    }
}
