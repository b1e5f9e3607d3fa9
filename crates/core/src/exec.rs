//! How cells *run*: the parallel deterministic campaign engine.
//!
//! Every seeded cell of a [`MatrixSpec`] is independent, so one engine
//! runs them all:
//!
//! * [`CampaignEngine`] — a bounded `std::thread` pool (no external deps)
//!   pulling cells off an atomic work queue, each worker adding its own
//!   results to its share of the order-free [`CampaignAggregates`] and
//!   handing them over a rendezvous `mpsc` channel into
//!   **submission-ordered** delivery.
//! * One opt-in result cache ([`crate::cache`]): a sealed on-disk record
//!   per cell, keyed by [`Cell::key`], that leads with the cell's one-cell
//!   aggregate partial. A hit merges that partial instead of folding the
//!   metrics. [`CampaignEngine::run`] also reads, verifies and decodes
//!   each hit's body; the streaming entry points leave it on disk until
//!   an observer asks for the metrics ([`CellMetrics`]). The engine
//!   itself holds no state between runs — the records are all there is.
//!
//! # Determinism contract
//!
//! A cell's result is a pure function of its expanded configuration:
//! every simulation draws from `RngSet::new(config.seed)` streams keyed
//! by purpose and run index, never from wall-clock, thread identity, or
//! global state. Workers race only for *which* cell to run next; the
//! result lands in `results[cell.index]` regardless of completion order.
//! Therefore `jobs = N` is bit-identical to `jobs = 1` — asserted over
//! the canonical [`RunMetrics::to_bytes`] encoding by the engine tests —
//! and cached results are byte-equal to fresh ones: a stored summary is
//! the same one-cell fold a fresh run merges, so the aggregates are too.
//!
//! # Crash safety
//!
//! Cells execute inside `catch_unwind` with bounded retry; a cell that
//! keeps panicking becomes a typed [`CellOutcome::Failed`] poison record
//! and the rest of the matrix completes. With the disk cache enabled,
//! results are written atomically
//! ([`write_atomic`](crate::cache::write_atomic)) inside a CRC32
//! envelope, and a `kill -9` mid-campaign costs only the unfinished
//! cells: re-running the identical spec hits every record that made it
//! to disk and resumes bit-identically. See [`CampaignEngine`] for the
//! full contract.
//!
//! # Environment knobs
//!
//! Parsed in one place, [`EngineOptions::from_env`]; nothing else in this
//! module reads the environment.
//!
//! * `RPAV_JOBS` — worker count override (default: available
//!   parallelism; a set-but-invalid value warns and uses the default).
//! * `RPAV_CACHE` — set to enable the durable on-disk cache (`1` → the
//!   default `target/rpav-cache`, any other value → that directory).
//!   The directory holds sealed `<xx>/<key>.rpav` records and a
//!   `quarantine/` subdirectory of corrupt files that were demoted to
//!   misses.
//! * `RPAV_REFERENCE_TICK` — any value but `0` runs engine cells on the
//!   1 ms reference scheduler instead of the adaptive one.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::cache::{self, CorruptRecord};
use crate::matrix::{Cell, MatrixSpec};
use crate::metrics::RunMetrics;
use crate::runner::CampaignResult;
use crate::summary::CampaignAggregates;

/// `benchmark/` names the cache layout from here.
pub use crate::cache::cache_entry_path;

/// One executed cell: either its metrics, or a poison record describing
/// why it kept panicking. A poisoned cell never aborts the matrix — the
/// failure is typed data the caller inspects.
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The cell completed (simulated or cache-served).
    Done {
        /// The cell as expanded.
        cell: Cell,
        /// Its metrics — in hand, or, for a cache hit a streaming entry
        /// point delivered, still on disk until first asked for.
        metrics: CellMetrics,
        /// Whether the result was served from cache (no simulation ran).
        cached: bool,
        /// Execution attempts consumed (0 for a cache hit, ≥ 2 when a
        /// retry recovered a transient panic).
        attempts: u32,
    },
    /// Every attempt panicked; the cell is poisoned.
    Failed {
        /// The cell as expanded.
        cell: Cell,
        /// The final attempt's panic payload, rendered.
        panic_msg: String,
        /// Attempts consumed (== the engine's `max_attempts`).
        attempts: u32,
    },
}

impl CellOutcome {
    /// The cell this outcome belongs to.
    pub fn cell(&self) -> &Cell {
        match self {
            CellOutcome::Done { cell, .. } | CellOutcome::Failed { cell, .. } => cell,
        }
    }

    /// The metrics of a completed cell, loaded on the first call if they
    /// are still on disk ([`CellMetrics`]).
    ///
    /// # Panics
    /// On a poisoned cell, with its recorded panic message — callers that
    /// tolerate failures use [`try_metrics`](Self::try_metrics).
    pub fn metrics(&self) -> &Arc<RunMetrics> {
        match self {
            CellOutcome::Done { cell, metrics, .. } => metrics.get(cell),
            CellOutcome::Failed {
                cell, panic_msg, ..
            } => panic!("cell {} was poisoned: {panic_msg}", cell.label()),
        }
    }

    /// The metrics, or `None` for a poisoned cell; loaded like
    /// [`metrics`](Self::metrics).
    pub fn try_metrics(&self) -> Option<&Arc<RunMetrics>> {
        match self {
            CellOutcome::Done { cell, metrics, .. } => Some(metrics.get(cell)),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// Whether the result was served from cache (`false` for failures).
    pub fn cached(&self) -> bool {
        matches!(self, CellOutcome::Done { cached: true, .. })
    }

    /// Execution attempts consumed.
    pub fn attempts(&self) -> u32 {
        match self {
            CellOutcome::Done { attempts, .. } | CellOutcome::Failed { attempts, .. } => *attempts,
        }
    }

    /// Whether the cell was poisoned.
    pub fn is_failed(&self) -> bool {
        matches!(self, CellOutcome::Failed { .. })
    }

    /// The poison message, if poisoned.
    pub fn panic_msg(&self) -> Option<&str> {
        match self {
            CellOutcome::Failed { panic_msg, .. } => Some(panic_msg),
            CellOutcome::Done { .. } => None,
        }
    }
}

/// A completed cell's metrics: in hand (simulated cells, and every hit
/// [`CampaignEngine::run`] serves), or — for a cache hit a streaming entry
/// point delivers — still in the record's body on disk. The first
/// [`CellOutcome::metrics`] / [`try_metrics`](CellOutcome::try_metrics)
/// call reads, verifies and decodes that body; a body that fails (a bad
/// CRC, a vanished file) is quarantined and the cell executed again —
/// cells are pure, so the bytes are the same. The loaded metrics live as
/// long as the outcome.
#[derive(Clone, Debug)]
pub struct CellMetrics {
    loaded: OnceLock<Arc<RunMetrics>>,
    /// Where unloaded metrics live — the cache directory — and whether a
    /// re-execution runs on the reference scheduler; `None` when the
    /// metrics were in hand from the start.
    on_disk: Option<(Arc<Path>, bool)>,
}

impl CellMetrics {
    fn loaded(metrics: RunMetrics) -> Self {
        CellMetrics {
            loaded: OnceLock::from(Arc::new(metrics)),
            on_disk: None,
        }
    }

    fn on_disk(dir: Arc<Path>, reference_tick: bool) -> Self {
        CellMetrics {
            loaded: OnceLock::new(),
            on_disk: Some((dir, reference_tick)),
        }
    }

    fn get(&self, cell: &Cell) -> &Arc<RunMetrics> {
        self.loaded.get_or_init(|| {
            let (dir, reference_tick) = self
                .on_disk
                .as_ref()
                .expect("metrics not in hand are on disk");
            Arc::new(cache::load_body(dir, cell.key()).unwrap_or_else(|| {
                eprintln!(
                    "rpav: cell {}: cache record body unreadable — executing the cell again",
                    cell.label()
                );
                cell.execute_with(*reference_tick)
            }))
        })
    }
}

/// Wall-clock, throughput, and resilience accounting for one engine
/// invocation, plus the streaming [`CampaignAggregates`] every completed
/// cell was folded into — by the worker that ran it, the workers' partials
/// merged at the end. Aggregates are order-free, so their bytes are
/// deterministic across job counts and kill/resume boundaries.
#[derive(Clone, Debug, Default)]
pub struct EngineReport {
    /// Cells in the matrix.
    pub cells: usize,
    /// Cells actually simulated.
    pub simulated: usize,
    /// Cells served from the durable cache — after a kill, the cells the
    /// previous process had already completed.
    pub cached: usize,
    /// Cells poisoned after exhausting their retry budget.
    pub failed: usize,
    /// Execution attempts repeated after a panic.
    pub retries: usize,
    /// Corrupt/stale cache files quarantined during this invocation.
    pub quarantined: usize,
    /// Simulated cells whose cache record could not be written (full
    /// disk, unwritable cache directory). Their results were delivered;
    /// the next run simulates them again.
    pub store_failed: usize,
    /// Cells that ran past the stuck budget, flagged by the collector's
    /// in-flight scan (still counted once even if they eventually
    /// completed).
    pub stuck_flagged: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock time of the whole matrix.
    pub wall: Duration,
    /// Streaming aggregates over every completed cell.
    pub aggregates: CampaignAggregates,
}

impl EngineReport {
    /// Completed cells per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.cells as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// One-line summary for bench output.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} cells ({} simulated, {} cached) on {} job(s) in {:.2} s — {:.2} cells/s",
            self.cells,
            self.simulated,
            self.cached,
            self.jobs,
            self.wall.as_secs_f64(),
            self.cells_per_sec()
        );
        if self.failed > 0 {
            s.push_str(&format!(" [{} poisoned]", self.failed));
        }
        if self.quarantined > 0 {
            s.push_str(&format!(" [{} quarantined]", self.quarantined));
        }
        if self.store_failed > 0 {
            s.push_str(&format!(" [{} cache writes failed]", self.store_failed));
        }
        if self.stuck_flagged > 0 {
            s.push_str(&format!(" [{} flagged stuck]", self.stuck_flagged));
        }
        s
    }
}

/// The results of one matrix execution, in submission order.
#[derive(Debug)]
pub struct MatrixResult {
    /// Per-cell outcomes, `outcomes[i].cell().index == i`.
    pub outcomes: Vec<CellOutcome>,
    /// Wall-clock/throughput accounting.
    pub report: EngineReport,
}

/// What a streaming execution retains: the report, with its flat-memory
/// aggregates — never the per-cell metrics. Poisoned cells are counted in
/// [`EngineReport::failed`]; the observer saw each one as it went by.
#[derive(Debug)]
pub struct StreamSummary {
    /// Wall-clock/throughput accounting plus streaming aggregates.
    pub report: EngineReport,
}

impl MatrixResult {
    /// Just the metrics, in submission order.
    ///
    /// # Panics
    /// If any cell was poisoned (legacy contract: every caller written
    /// before poison records existed assumes complete results). Check
    /// [`report.failed`](EngineReport::failed) or use
    /// [`failures`](Self::failures) first when failures are expected.
    pub fn metrics(&self) -> impl Iterator<Item = &RunMetrics> {
        self.outcomes.iter().map(|o| o.metrics().as_ref())
    }

    /// The poisoned outcomes, in submission order (empty on a clean run).
    pub fn failures(&self) -> impl Iterator<Item = &CellOutcome> {
        self.outcomes.iter().filter(|o| o.is_failed())
    }

    /// Group adjacent same-campaign cells (the run index is the
    /// innermost axis, so each campaign's runs are contiguous) into
    /// [`CampaignResult`]s, in matrix order. Poisoned cells are skipped —
    /// a campaign whose every run failed is absent.
    pub fn campaigns(&self) -> Vec<CampaignResult> {
        let mut campaigns: Vec<CampaignResult> = Vec::new();
        for outcome in &self.outcomes {
            let Some(metrics) = outcome.try_metrics() else {
                continue;
            };
            let label = outcome.cell().campaign_label();
            match campaigns.last_mut() {
                Some(c) if c.label == label => c.runs.push((**metrics).clone()),
                _ => campaigns.push(CampaignResult {
                    label,
                    runs: vec![(**metrics).clone()],
                }),
            }
        }
        campaigns
    }
}

/// Every engine behaviour knob, as one typed value.
///
/// This is the single place environment variables are parsed: call
/// [`EngineOptions::from_env`] once at a binary's edge and construct
/// everything else explicitly. `rpavd` builds its one engine's options
/// from its command line; bench bins parse the environment. None of it is
/// part of a campaign's spec: how cells run never changes what they
/// compute. Invalid env values warn on stderr and fall back to the
/// default — they never silently change a campaign's shape.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineOptions {
    /// Worker threads (`None` = the host's available parallelism).
    pub jobs: Option<usize>,
    /// Durable on-disk cache directory (`None` disables the cache, and
    /// with it resume).
    pub cache_dir: Option<PathBuf>,
    /// Execution attempts per cell before it is poisoned (≥ 1).
    pub max_attempts: u32,
    /// Wall-clock budget after which the watchdog flags a cell as stuck.
    pub stuck_budget: Duration,
    /// Run cells under the unconditional 1 ms reference scheduler instead
    /// of the adaptive deadline scheduler (the perf-equivalence oracle;
    /// byte-identical output, much slower).
    pub reference_tick: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            jobs: None,
            cache_dir: None,
            max_attempts: 2,
            stuck_budget: Duration::from_secs(120),
            reference_tick: false,
        }
    }
}

impl EngineOptions {
    /// Parse the engine's environment knobs, once:
    ///
    /// * `RPAV_JOBS` — worker count (positive integer; a set-but-invalid
    ///   value warns and auto-detects).
    /// * `RPAV_CACHE` — durable cache (`1` → `target/rpav-cache`, any
    ///   other non-empty value → that directory).
    /// * `RPAV_REFERENCE_TICK` — any value but `0` selects the 1 ms
    ///   reference scheduler.
    pub fn from_env() -> Self {
        let jobs = match std::env::var("RPAV_JOBS") {
            Ok(v) => match v.parse::<usize>() {
                Ok(n) if n > 0 => Some(n),
                _ => {
                    eprintln!("rpav: ignoring invalid RPAV_JOBS={v:?} — using detected core count");
                    None
                }
            },
            Err(_) => None,
        };
        let cache_dir = match std::env::var("RPAV_CACHE") {
            Ok(v) if v == "1" => Some(PathBuf::from("target/rpav-cache")),
            Ok(v) if !v.is_empty() => Some(PathBuf::from(v)),
            _ => None,
        };
        EngineOptions {
            jobs,
            cache_dir,
            reference_tick: std::env::var_os("RPAV_REFERENCE_TICK").is_some_and(|v| v != "0"),
            ..EngineOptions::default()
        }
    }

    /// The worker count these options resolve to.
    pub fn resolved_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Build a [`CampaignEngine`] executing under these options.
    pub fn engine(&self) -> CampaignEngine {
        CampaignEngine::with_options(self.clone())
    }
}

/// Test-only fault injection: called before each execution attempt with
/// the cell and the 1-based attempt number; returning `true` panics in
/// place of the simulation. Lets the resilience harness exercise the
/// poison/retry machinery without planting bugs in the pipeline.
#[doc(hidden)]
pub type FaultHook = Arc<dyn Fn(&Cell, u32) -> bool + Send + Sync>;

/// Render a panic payload (the `&str`/`String` carried by virtually every
/// `panic!`) for a poison record or an error report.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What a worker posts back per cell (after adding the cell to its share
/// of the aggregates). The collector sums these into the run's
/// [`EngineReport`] counts; nothing is counted anywhere else.
struct WorkerResult {
    /// The metrics, or the final attempt's panic message.
    outcome: Result<CellMetrics, String>,
    /// Execution attempts consumed: 0 exactly when the cache served the
    /// metrics.
    attempts: u32,
    /// Whether a corrupt cache record was quarantined on the way.
    quarantined: bool,
    /// Whether writing the freshly simulated result's cache record failed.
    store_failed: bool,
}

/// What a worker keeps from one cell to the next.
#[derive(Default)]
struct Worker {
    /// One record buffer for the worker's lifetime: the bytes read on a
    /// hit (the summary section, or the whole record when bodies are
    /// read), the record being encoded on a store. Both users clear it
    /// first, so nothing leaks from one cell (or one panicked attempt)
    /// into the next.
    record: Vec<u8>,
    /// The one-cell fold of the cell just simulated — its record's
    /// summary — reset per cell, never reallocated.
    partial: CampaignAggregates,
    /// The worker's share of the run's aggregates: every cell it
    /// completed, as a stored summary merged in or a fresh partial.
    /// Aggregates are order-free, so which worker adds a cell, and when,
    /// cannot reach their bytes.
    share: CampaignAggregates,
}

/// The bounded-thread-pool matrix executor: its [`EngineOptions`] and
/// nothing else. It holds no state between [`run`](Self::run) calls —
/// the sealed records under the cache directory are the only thing one
/// run leaves for the next, every count lives in that run's
/// [`EngineReport`], and concurrent runs on one engine cannot disturb
/// each other.
///
/// # Crash safety
///
/// Each cell executes inside `catch_unwind`: a panic is retried up to
/// [`with_max_attempts`](Self::with_max_attempts) times (cells are pure,
/// so a deterministic panic fails identically and a transient one — e.g.
/// injected — recovers), then recorded as a typed
/// [`CellOutcome::Failed`] poison record; the rest of the matrix always
/// completes. Cells running past
/// [`with_stuck_budget`](Self::with_stuck_budget) of wall-clock time are
/// flagged on stderr and in [`EngineReport::stuck_flagged`], never
/// killed.
///
/// With a cache directory, results are durable: sealed (CRC32-framed)
/// records written to a tmp file, fsync'd, and renamed into place, and
/// the directory fsync'd after the rename.
/// Resuming is hitting them: re-running an identical `MatrixSpec` after
/// `kill -9` serves every record that reached its final name, simulates
/// the rest, and is bit-identical to an uninterrupted run. Corrupt,
/// truncated, or stale-version cache files are quarantined to
/// `<cache>/quarantine/` and treated as misses — never served, never
/// fatal. A record that cannot be written (full disk, unwritable
/// directory) is reported on stderr and counted in
/// [`EngineReport::store_failed`]; the cell's result is still delivered.
pub struct CampaignEngine {
    /// `jobs` is resolved (always `Some`) and `max_attempts` ≥ 1.
    options: EngineOptions,
    fault_hook: Option<FaultHook>,
}

impl Default for CampaignEngine {
    fn default() -> Self {
        CampaignEngine::new()
    }
}

impl CampaignEngine {
    /// Engine with the environment-resolved job count and cache policy
    /// (one [`EngineOptions::from_env`] parse).
    pub fn new() -> Self {
        EngineOptions::from_env().engine()
    }

    /// Engine executing under explicit, already-parsed [`EngineOptions`] —
    /// the construction path of the daemon and of every caller that takes
    /// its knobs from somewhere other than the environment.
    pub fn with_options(mut options: EngineOptions) -> Self {
        options.jobs = Some(options.resolved_jobs().max(1));
        options.max_attempts = options.max_attempts.max(1);
        CampaignEngine {
            options,
            fault_hook: None,
        }
    }

    /// Override the worker count (`--jobs`).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.options.jobs = Some(jobs.max(1));
        self
    }

    /// Override the on-disk cache directory (`None` disables it).
    pub fn with_cache_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.options.cache_dir = dir;
        self
    }

    /// Execution attempts per cell before it is poisoned (≥ 1,
    /// default 2: one retry).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.options.max_attempts = attempts.max(1);
        self
    }

    /// Wall-clock budget after which a still-running cell is flagged
    /// (default 120 s). Flagging never kills the cell.
    pub fn with_stuck_budget(mut self, budget: Duration) -> Self {
        self.options.stuck_budget = budget;
        self
    }

    /// Install the test-only fault hook (see [`FaultHook`]).
    #[doc(hidden)]
    pub fn with_fault_hook(mut self, hook: FaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// The worker count in force.
    pub fn jobs(&self) -> usize {
        self.options.resolved_jobs()
    }

    /// Execute every cell of `spec` and collect submission-ordered
    /// results.
    pub fn run(&self, spec: &MatrixSpec) -> MatrixResult {
        self.run_cells(&spec.expand())
    }

    /// Execute an explicit cell list (`cells[i].index` must equal `i`, as
    /// [`MatrixSpec::expand`] produces) and collect submission-ordered
    /// results — the acceptance suites' entry point, which concatenate
    /// several expansions into one run.
    pub fn run_cells(&self, cells: &[Cell]) -> MatrixResult {
        let mut outcomes = Vec::with_capacity(cells.len());
        let report = self.drive(cells, true, &mut |o| outcomes.push(o));
        MatrixResult { outcomes, report }
    }

    /// Execute an explicit cell list (`cells[i].index` must equal `i`, as
    /// [`MatrixSpec::expand`] produces) without retaining any per-cell
    /// metrics: outcomes are folded into the report's streaming
    /// [`CampaignAggregates`] and dropped — peak memory is flat in the
    /// cell count.
    pub fn run_cells_streaming(&self, cells: Vec<Cell>) -> StreamSummary {
        self.run_cells_streaming_observed(cells, &mut |_| {})
    }

    /// Streaming execution that additionally hands every outcome — in
    /// **submission order**, straight off the reorder frontier — to
    /// `observe` before dropping it. This is the daemon's event feed. The
    /// aggregates are order-free, so a subscriber that folds the outcomes
    /// it sees reproduces them bit-for-bit. Memory stays flat; the
    /// observer must not retain the outcomes' metrics if it wants to keep
    /// it that way.
    ///
    /// A cache hit delivered here carries its metrics unread: the engine
    /// merged the record's stored summary into the aggregates and left its
    /// body on disk, so an observer that never asks for the metrics costs
    /// no decode, and one that asks loads them then ([`CellMetrics`]).
    pub fn run_cells_streaming_observed(
        &self,
        cells: Vec<Cell>,
        observe: &mut dyn FnMut(&CellOutcome),
    ) -> StreamSummary {
        let report = self.drive(&cells, false, &mut |o| observe(&o));
        StreamSummary { report }
    }

    /// The engine core: run `cells` on the pool, each worker adding its
    /// own results to its share of the aggregates; deliver outcomes to
    /// `sink` in **submission order** (a frontier reorders the
    /// completion-ordered channel), count, and flag stuck cells. Returns
    /// once the last outcome is delivered and the workers' shares are
    /// merged. `with_bodies` is the entry point's choice: `run` keeps
    /// every outcome for a caller who reads them, so its workers read,
    /// verify and decode each hit's body in parallel; the streaming entry
    /// points leave bodies on disk.
    fn drive(
        &self,
        cells: &[Cell],
        with_bodies: bool,
        sink: &mut dyn FnMut(CellOutcome),
    ) -> EngineReport {
        let started = Instant::now();
        let workers = self.jobs().min(cells.len().max(1));
        let mut report = EngineReport {
            cells: cells.len(),
            jobs: workers,
            ..EngineReport::default()
        };

        let cursor = AtomicUsize::new(0);
        let inflight: Mutex<HashMap<usize, Instant>> = Mutex::new(HashMap::new());
        // Where a hit's unread body lives, shared by every outcome that
        // leaves one there.
        let body_dir: Option<Arc<Path>> = match &self.options.cache_dir {
            Some(dir) if !with_bodies => Some(Arc::from(dir.as_path())),
            _ => None,
        };
        // Rendezvous hand-off: a worker's `send` returns only once the
        // collector has taken the result, so no buffer here can fill with
        // decoded multi-megabyte `RunMetrics` while the collector's sink
        // is slow; at most `workers` results wait (one per blocked
        // worker) beside the one being delivered and the reorder
        // frontier's out-of-order entries.
        let (tx, rx) = mpsc::sync_channel::<(usize, WorkerResult)>(0);
        std::thread::scope(|s| {
            let cursor = &cursor;
            let inflight = &inflight;
            let body_dir = &body_dir;
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let tx = tx.clone();
                handles.push(s.spawn(move || {
                    let mut worker = Worker::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        inflight.lock().unwrap().insert(i, Instant::now());
                        let result = self.run_cell_isolated(cell, body_dir, &mut worker);
                        inflight.lock().unwrap().remove(&i);
                        if tx.send((i, result)).is_err() {
                            break;
                        }
                    }
                    worker.share
                }));
            }
            drop(tx);
            // Completion-ordered arrivals re-sequenced into submission
            // order before sinking — what observers see: `rpavd`'s event
            // `seq`, the order of `run`'s outcomes. The pending map
            // holds the results that finished ahead of the cell it waits
            // for (none or one when cells cost alike; more while that
            // cell is slower than its successors). It orders delivery
            // only; no arithmetic depends on it.
            let mut pending: BTreeMap<usize, WorkerResult> = BTreeMap::new();
            let mut next = 0usize;
            // The stuck-cell check rides on the same loop: the in-flight
            // table is scanned whenever `poll` has passed since the last
            // scan — after a receive as well as after a timeout, so a
            // stream of fast completions cannot starve it — and each
            // offender is flagged once.
            let budget = self.options.stuck_budget;
            let poll = (budget / 8).clamp(Duration::from_millis(10), Duration::from_millis(500));
            let mut flagged: HashSet<usize> = HashSet::new();
            let mut last_scan = Instant::now();
            loop {
                match rx.recv_timeout(poll) {
                    Ok((i, result)) => {
                        pending.insert(i, result);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
                while let Some(result) = pending.remove(&next) {
                    let cell = cells[next].clone();
                    let attempts = result.attempts;
                    report.retries += attempts.saturating_sub(1) as usize;
                    report.quarantined += usize::from(result.quarantined);
                    report.store_failed += usize::from(result.store_failed);
                    sink(match result.outcome {
                        Ok(metrics) => {
                            let cached = attempts == 0;
                            if cached {
                                report.cached += 1;
                            } else {
                                report.simulated += 1;
                            }
                            CellOutcome::Done {
                                cell,
                                metrics,
                                cached,
                                attempts,
                            }
                        }
                        Err(panic_msg) => {
                            report.failed += 1;
                            CellOutcome::Failed {
                                cell,
                                panic_msg,
                                attempts,
                            }
                        }
                    });
                    next += 1;
                }
                if last_scan.elapsed() >= poll {
                    last_scan = Instant::now();
                    for (&i, start) in inflight.lock().unwrap().iter() {
                        if start.elapsed() > budget && flagged.insert(i) {
                            eprintln!(
                                "rpav: cell {i} ({}) exceeded its {budget:?} wall-clock budget — still running",
                                cells[i].label()
                            );
                        }
                    }
                }
            }
            report.stuck_flagged = flagged.len();
            for handle in handles {
                let partial = handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
                report.aggregates.merge(&partial);
            }
        });

        report.wall = started.elapsed();
        report
    }

    /// One cell through the cache and, on a miss, `catch_unwind`-isolated
    /// execution with bounded retry; the result is added to the worker's
    /// share of the aggregates. A hit's body is read only when `body_dir`
    /// (where it would otherwise stay) is `None`.
    fn run_cell_isolated(
        &self,
        cell: &Cell,
        body_dir: &Option<Arc<Path>>,
        worker: &mut Worker,
    ) -> WorkerResult {
        let key = cell.key();
        let cache_dir = self.options.cache_dir.as_deref();
        let mut quarantined = false;
        if let Some(dir) = cache_dir {
            match cache::load(dir, key, body_dir.is_none(), &mut worker.record) {
                Ok(Some(hit)) => {
                    worker.share.merge(&hit.summary);
                    let metrics = match (hit.metrics, body_dir) {
                        (Some(metrics), _) => CellMetrics::loaded(metrics),
                        (None, Some(dir)) => {
                            CellMetrics::on_disk(Arc::clone(dir), self.options.reference_tick)
                        }
                        (None, None) => unreachable!("a hit without its body leaves it on disk"),
                    };
                    return WorkerResult {
                        outcome: Ok(metrics),
                        attempts: 0,
                        quarantined: false,
                        store_failed: false,
                    };
                }
                Ok(None) => {}
                Err(CorruptRecord) => quarantined = true,
            }
        }
        let max_attempts = self.options.max_attempts;
        let mut attempts = 0u32;
        let mut store_failed = false;
        let outcome = loop {
            attempts += 1;
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(hook) = &self.fault_hook {
                    if hook(cell, attempts) {
                        panic!("injected fault (attempt {attempts})");
                    }
                }
                cell.execute_with(self.options.reference_tick)
            }));
            match attempt {
                Ok(metrics) => {
                    worker.partial.clear();
                    worker.partial.fold(&metrics);
                    worker.share.merge(&worker.partial);
                    if let Some(dir) = cache_dir {
                        if let Err(e) =
                            cache::store(dir, key, &worker.partial, &metrics, &mut worker.record)
                        {
                            // The result is still delivered; only the next
                            // run's hit is lost, and the report counts it.
                            eprintln!(
                                "rpav: cell {}: cache write under {} failed: {e}",
                                cell.label(),
                                dir.display()
                            );
                            store_failed = true;
                        }
                    }
                    break Ok(CellMetrics::loaded(metrics));
                }
                Err(payload) => {
                    let panic_msg = panic_message(payload.as_ref());
                    if attempts < max_attempts {
                        eprintln!(
                            "rpav: cell {} panicked on attempt {attempts}/{max_attempts}: {panic_msg} — retrying",
                            cell.label()
                        );
                        continue;
                    }
                    eprintln!(
                        "rpav: cell {} poisoned after {attempts} attempt(s): {panic_msg}",
                        cell.label()
                    );
                    worker.share.fold_failure();
                    break Err(panic_msg);
                }
            }
        };
        WorkerResult {
            outcome,
            attempts,
            quarantined,
            store_failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CcMode, ExperimentConfig};

    fn short_base() -> ExperimentConfig {
        ExperimentConfig::builder().seed(11).hold_secs(1).build()
    }

    /// Wire buffers are thread-confined (`bytes::Bytes` is `!Send`), and a
    /// cell's inputs and results cross from the worker that simulated it
    /// to the thread that folds them. This is the compile-time proof that
    /// they carry no buffer — a future field that smuggles one in stops
    /// the build here, not in a worker-pool type error three layers up.
    #[test]
    fn engine_inputs_and_results_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RunMetrics>();
        assert_send::<Cell>();
        assert_send::<CellOutcome>();
        assert_send::<CampaignAggregates>();
        assert_send::<EngineReport>();
    }

    #[test]
    fn aggregates_do_not_depend_on_submission_order() {
        // Reversed and shuffled cell lists (re-indexed, as `drive`
        // requires) fold the same multiset of cells, so the aggregate
        // bytes cannot move, at any job count — while the outcomes still
        // arrive in the order submitted.
        let cells = MatrixSpec::new(short_base()).runs(3).expand();
        let engine = |jobs| CampaignEngine::new().with_cache_dir(None).with_jobs(jobs);
        let want = engine(1).run_cells(&cells).report.aggregates.to_bytes();
        for order in [[2, 1, 0], [1, 2, 0]] {
            let reordered: Vec<Cell> = order
                .iter()
                .enumerate()
                .map(|(i, &k)| {
                    let mut cell = cells[k].clone();
                    cell.index = i;
                    cell
                })
                .collect();
            for jobs in [1, 2] {
                let got = engine(jobs).run_cells(&reordered);
                assert_eq!(
                    got.report.aggregates.to_bytes(),
                    want,
                    "order {order:?} at jobs={jobs}"
                );
                let labels: Vec<String> = got.outcomes.iter().map(|o| o.cell().label()).collect();
                let submitted: Vec<String> = reordered.iter().map(Cell::label).collect();
                assert_eq!(labels, submitted);
            }
        }
    }

    #[test]
    fn campaigns_group_adjacent_runs() {
        let spec = MatrixSpec::new(short_base())
            .ccs([CcMode::Gcc, CcMode::paper_scream()])
            .runs(2);
        let result = CampaignEngine::new()
            .with_cache_dir(None)
            .with_jobs(2)
            .run(&spec);
        let campaigns = result.campaigns();
        assert_eq!(campaigns.len(), 2);
        assert_eq!(campaigns[0].label, "GCC-Rural-P1-Air");
        assert_eq!(campaigns[1].label, "SCReAM-Rural-P1-Air");
        assert_eq!(campaigns[0].runs.len(), 2);
        assert_eq!(campaigns[1].runs.len(), 2);
    }

    #[test]
    fn injected_panic_poisons_one_cell_not_the_run() {
        let spec = MatrixSpec::new(short_base()).runs(3);
        let engine = CampaignEngine::new()
            .with_cache_dir(None)
            .with_jobs(4)
            .with_max_attempts(2)
            .with_fault_hook(Arc::new(|cell: &Cell, _attempt| {
                cell.config.run_index == 1 // this cell always panics
            }));
        let result = engine.run(&spec);
        assert_eq!(result.outcomes.len(), 3);
        assert_eq!(result.report.failed, 1);
        assert_eq!(result.report.simulated, 2);
        let failures: Vec<&CellOutcome> = result.failures().collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].cell().config.run_index, 1);
        assert_eq!(failures[0].attempts(), 2, "retry budget consumed");
        assert!(failures[0].panic_msg().unwrap().contains("injected fault"));
        assert!(failures[0].try_metrics().is_none());
        // The healthy cells completed normally.
        assert!(result.outcomes[0].try_metrics().is_some());
        assert!(result.outcomes[2].try_metrics().is_some());
        // And campaign grouping simply skips the poisoned run.
        let campaigns = result.campaigns();
        assert_eq!(campaigns[0].runs.len(), 2);
    }

    #[test]
    fn retry_recovers_a_transient_panic_bit_identically() {
        let spec = MatrixSpec::new(short_base());
        let engine = CampaignEngine::new()
            .with_cache_dir(None)
            .with_jobs(1)
            .with_max_attempts(3)
            .with_fault_hook(Arc::new(|_cell, attempt| attempt == 1));
        let result = engine.run(&spec);
        assert_eq!(result.report.failed, 0);
        assert_eq!(result.report.retries, 1);
        let outcome = &result.outcomes[0];
        assert_eq!(outcome.attempts(), 2);
        // The retried execution is the same pure function of the config.
        assert_eq!(
            outcome.metrics().to_bytes(),
            outcome.cell().execute_with(false).to_bytes()
        );
    }

    #[test]
    fn metrics_iterator_panics_on_poisoned_cells() {
        let engine = CampaignEngine::new()
            .with_cache_dir(None)
            .with_max_attempts(1)
            .with_fault_hook(Arc::new(|_, _| true));
        let result = engine.run(&MatrixSpec::new(short_base()));
        assert_eq!(result.report.failed, 1);
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| result.metrics().count()));
        assert!(caught.is_err(), "metrics() must refuse poisoned results");
    }

    #[test]
    fn streaming_keeps_memory_flat_and_aggregates_identical() {
        let spec = MatrixSpec::new(short_base())
            .ccs([CcMode::Gcc, CcMode::paper_scream()])
            .runs(2);
        let engine = CampaignEngine::new().with_cache_dir(None).with_jobs(4);
        let full = engine.run(&spec);
        let summary = engine.run_cells_streaming(spec.expand());
        assert_eq!(summary.report.failed, 0);
        assert_eq!(summary.report.cells, 4);
        assert_eq!(
            summary.report.simulated, 4,
            "the engine keeps nothing from the first run"
        );
        assert_eq!(
            summary.report.aggregates.to_bytes(),
            full.report.aggregates.to_bytes(),
            "streaming vs collect aggregates diverged"
        );
        // The sketch footprint is what it is regardless of cell count.
        assert_eq!(
            summary.report.aggregates.retained_bytes(),
            full.report.aggregates.retained_bytes()
        );
    }

    #[test]
    fn stuck_watchdog_flags_but_never_kills() {
        let spec = MatrixSpec::new(short_base()).runs(2);
        let engine = CampaignEngine::new()
            .with_cache_dir(None)
            .with_jobs(1)
            .with_stuck_budget(Duration::from_millis(1));
        let result = engine.run(&spec);
        // Every cell takes ≫ 1 ms, so the watchdog must have fired, and
        // every cell must still have completed.
        assert_eq!(result.report.failed, 0);
        assert_eq!(result.outcomes.len(), 2);
        assert!(
            result.report.stuck_flagged >= 1,
            "a 1 ms budget must flag at least one cell"
        );
    }

    #[test]
    fn from_env_jobs_warn_and_recover_from_invalid_env() {
        // Env mutation: run the cases in one test to avoid races with a
        // parallel test harness touching the same variable.
        let detected = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let jobs = || EngineOptions::from_env().resolved_jobs();
        std::env::set_var("RPAV_JOBS", "not-a-number");
        assert_eq!(jobs(), detected, "invalid value must fall back");
        std::env::set_var("RPAV_JOBS", "0");
        assert_eq!(jobs(), detected, "zero must fall back");
        std::env::set_var("RPAV_JOBS", "3");
        assert_eq!(jobs(), 3);
        std::env::remove_var("RPAV_JOBS");
        assert_eq!(jobs(), detected);
    }

    /// Sealed records under the sharded cache layout (`<dir>/<xx>/*.rpav`).
    fn sharded_rpav_files(dir: &std::path::Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().is_dir() && e.file_name() != "quarantine")
            .flat_map(|e| {
                std::fs::read_dir(e.path())
                    .unwrap()
                    .filter_map(Result::ok)
                    .map(|f| f.path())
                    .filter(|p| p.extension().is_some_and(|x| x == "rpav"))
                    .collect::<Vec<_>>()
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn cache_entries_land_in_prefix_shards() {
        let dir = std::env::temp_dir().join(format!("rpav-exec-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = MatrixSpec::new(short_base()).runs(3);

        let cold = CampaignEngine::new()
            .with_cache_dir(Some(dir.clone()))
            .with_jobs(2)
            .run(&spec);
        assert_eq!(cold.report.simulated, 3);
        let sharded = sharded_rpav_files(&dir);
        assert_eq!(sharded.len(), 3, "every record lands in a shard dir");
        for path in &sharded {
            let key = u64::from_str_radix(path.file_stem().unwrap().to_str().unwrap(), 16).unwrap();
            assert_eq!(
                path.parent()
                    .unwrap()
                    .file_name()
                    .unwrap()
                    .to_str()
                    .unwrap(),
                format!("{:02x}", (key >> 56) as u8),
                "shard dir must be the key's top byte"
            );
            assert_eq!(*path, cache_entry_path(&dir, key));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One section as a byte-at-a-time writer frames it: `magic ‖ len ‖
    /// crc ‖ payload`, the CRC from the byte-wise loop.
    fn section_bytewise(magic: &[u8; 4], payload: &[u8]) -> Vec<u8> {
        let mut out = magic.to_vec();
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crate::codec::crc32_bytewise(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// The body envelope as records were written before they carried a
    /// summary.
    fn seal_bytewise(payload: &[u8]) -> Vec<u8> {
        section_bytewise(b"RPVE", payload)
    }

    /// The one-cell partial a record's summary section holds.
    fn one_cell(m: &RunMetrics) -> CampaignAggregates {
        let mut a = CampaignAggregates::default();
        a.fold(m);
        a
    }

    /// Run `cells` on a fresh two-worker engine over `dir`, keeping every
    /// outcome (`run`'s mode: bodies read).
    fn collect(dir: &std::path::Path, cells: &[Cell]) -> MatrixResult {
        let engine = CampaignEngine::new()
            .with_cache_dir(Some(dir.to_path_buf()))
            .with_jobs(2);
        engine.run_cells(cells)
    }

    /// Run `cells` on a fresh two-worker engine over `dir` through the
    /// streaming entry point, handing each outcome to `observe`.
    fn stream(
        dir: &std::path::Path,
        cells: &[Cell],
        observe: &mut dyn FnMut(&CellOutcome),
    ) -> EngineReport {
        CampaignEngine::new()
            .with_cache_dir(Some(dir.to_path_buf()))
            .with_jobs(2)
            .run_cells_streaming_observed(cells.to_vec(), observe)
            .report
    }

    fn fresh_cache(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rpav-exec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Flip the last byte of every record: inside the body payload, with
    /// the summary section and both headers intact.
    fn flip_every_body(dir: &std::path::Path) -> usize {
        let files = sharded_rpav_files(dir);
        for path in &files {
            let mut bytes = std::fs::read(path).unwrap();
            *bytes.last_mut().unwrap() ^= 0x01;
            std::fs::write(path, &bytes).unwrap();
        }
        files.len()
    }

    #[test]
    fn cache_records_interchange_with_the_bytewise_crc_writer() {
        let dir = fresh_cache("xver");
        let cells = MatrixSpec::new(short_base()).runs(2).expand();

        // Records as the byte-wise writer framed them before records
        // carried a summary are misses: simulated again, nothing
        // quarantined, and rewritten in the current frame.
        let metrics: Vec<RunMetrics> = cells.iter().map(|c| c.execute_with(false)).collect();
        for (cell, m) in cells.iter().zip(&metrics) {
            let path = cache_entry_path(&dir, cell.key());
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, seal_bytewise(&m.to_bytes())).unwrap();
        }
        let rewritten = collect(&dir, &cells);
        assert_eq!(rewritten.report.simulated, 2);
        assert_eq!(rewritten.report.cached, 0);
        assert_eq!(rewritten.report.quarantined, 0);

        // The records this engine writes are, byte for byte, the summary
        // section followed by the body envelope, each CRC the byte-wise
        // loop's.
        for (cell, m) in cells.iter().zip(&metrics) {
            let stored = std::fs::read(cache_entry_path(&dir, cell.key())).unwrap();
            let mut want = section_bytewise(b"RPVS", &one_cell(m).to_bytes());
            want.extend_from_slice(&seal_bytewise(&m.to_bytes()));
            assert_eq!(stored, want, "{}", cell.label());
            assert_eq!(stored, m.to_cache_bytes());
        }
        let served = collect(&dir, &cells);
        assert_eq!((served.report.simulated, served.report.cached), (0, 2));
        for (o, m) in served.outcomes.iter().zip(&metrics) {
            assert_eq!(o.metrics().to_bytes(), m.to_bytes());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_hits_read_no_body() {
        let dir = fresh_cache("nobody");
        let cells = MatrixSpec::new(short_base()).runs(3).expand();
        let n = cells.len();
        let cold = stream(&dir, &cells, &mut |_| {});
        assert_eq!(cold.simulated, n);
        assert_eq!(flip_every_body(&dir), n);

        // The streaming replay reads each summary and the body's header
        // only, so the flipped bodies go unnoticed, and the stored
        // partials merge to the cold run's bytes.
        let warm = stream(&dir, &cells, &mut |_| {});
        assert_eq!((warm.cached, warm.simulated, warm.quarantined), (n, 0, 0));
        assert_eq!(warm.aggregates.to_bytes(), cold.aggregates.to_bytes());

        // `run` keeps the metrics, so it reads every body and catches
        // every flip.
        let healed = collect(&dir, &cells);
        assert_eq!(healed.report.quarantined, n);
        assert_eq!(healed.report.simulated, n);
        assert_eq!(
            healed.report.aggregates.to_bytes(),
            cold.aggregates.to_bytes()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lazy_metrics_recover_from_a_bad_body() {
        let dir = fresh_cache("lazy");
        let cells = MatrixSpec::new(short_base()).expand();
        stream(&dir, &cells, &mut |_| {});
        flip_every_body(&dir);

        let mut loaded = Vec::new();
        let warm = stream(&dir, &cells, &mut |outcome| {
            assert!(outcome.cached());
            loaded.push(outcome.try_metrics().unwrap().to_bytes());
        });
        assert_eq!((warm.cached, warm.quarantined), (1, 0));
        assert_eq!(loaded, [cells[0].execute_with(false).to_bytes()]);
        let quarantined = dir
            .join("quarantine")
            .join(format!("{:016x}.rpav", cells[0].key()));
        assert!(quarantined.is_file(), "the bad record is kept as evidence");
        assert!(!cache_entry_path(&dir, cells[0].key()).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_and_body_only_records_are_misses() {
        let cells = MatrixSpec::new(short_base()).expand();
        let m = cells[0].execute_with(false);
        let path = |dir: &std::path::Path| cache_entry_path(dir, cells[0].key());

        // A summary led by the next AGGREGATES_VERSION, resealed with a
        // valid CRC, and a body-only record.
        let mut next_version = one_cell(&m).to_bytes();
        next_version[..8].copy_from_slice(&(crate::summary::AGGREGATES_VERSION + 1).to_le_bytes());
        let stale = crate::codec::seal_record(&next_version, &m.to_bytes());
        let body_only = crate::codec::seal(&m.to_bytes());
        for (tag, record) in [("stale", stale), ("body-only", body_only)] {
            for streaming in [false, true] {
                let dir = fresh_cache(&format!("{tag}-{streaming}"));
                std::fs::create_dir_all(path(&dir).parent().unwrap()).unwrap();
                std::fs::write(path(&dir), &record).unwrap();
                let report = if streaming {
                    stream(&dir, &cells, &mut |_| {})
                } else {
                    collect(&dir, &cells).report
                };
                assert_eq!(
                    (report.simulated, report.quarantined),
                    (1, 0),
                    "{tag}, streaming {streaming}"
                );
                assert_eq!(std::fs::read(path(&dir)).unwrap(), m.to_cache_bytes());
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn failed_cache_writes_are_counted_and_results_still_delivered() {
        // A cache "directory" that is a regular file: every shard
        // `create_dir_all` fails (ENOTDIR), as root too, where permission
        // bits would not stop the write.
        let file = std::env::temp_dir().join(format!("rpav-exec-nodir-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let spec = MatrixSpec::new(short_base()).runs(2);
        let reference = CampaignEngine::new()
            .with_cache_dir(None)
            .with_jobs(2)
            .run(&spec);
        let result = CampaignEngine::new()
            .with_cache_dir(Some(file.clone()))
            .with_jobs(2)
            .run(&spec);
        assert_eq!(result.report.simulated, 2);
        assert_eq!(result.report.store_failed, 2);
        assert_eq!(result.report.failed, 0);
        assert!(result.report.summary().contains("[2 cache writes failed]"));
        for (x, y) in result.outcomes.iter().zip(&reference.outcomes) {
            assert_eq!(x.metrics().to_bytes(), y.metrics().to_bytes());
        }
        assert_eq!(reference.report.store_failed, 0);
        assert_eq!(std::fs::read(&file).unwrap(), b"not a directory");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn disk_cache_resumes_quarantines_and_stays_bit_identical() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("rpav-exec-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = MatrixSpec::new(short_base()).runs(3);

        let first = CampaignEngine::new()
            .with_cache_dir(Some(dir.clone()))
            .with_jobs(2);
        let cold = first.run(&spec);
        assert_eq!(cold.report.simulated, 3);
        assert_eq!(cold.report.cached, 0);
        // The sealed records are all a run leaves behind: the cache root
        // holds shard directories and nothing else.
        for entry in std::fs::read_dir(&dir).unwrap().filter_map(Result::ok) {
            let name = entry.file_name().into_string().unwrap();
            assert!(
                entry.path().is_dir() && name.len() == 2 && u8::from_str_radix(&name, 16).is_ok(),
                "unexpected {name} in the cache root"
            );
        }

        // A second process (fresh engine) resumes everything from the
        // durable store, bit-identically.
        let second = CampaignEngine::new()
            .with_cache_dir(Some(dir.clone()))
            .with_jobs(2);
        let warm = second.run(&spec);
        assert_eq!(cold.report.store_failed, 0);
        assert_eq!(warm.report.simulated, 0);
        assert_eq!(warm.report.cached, 3, "every sealed record must be hit");
        assert_eq!(
            warm.report.aggregates.to_bytes(),
            cold.report.aggregates.to_bytes()
        );

        // Corrupt one cache record: it is quarantined, re-simulated, and
        // the run still matches bit-for-bit.
        let victim = sharded_rpav_files(&dir).into_iter().next().unwrap();
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::File::create(&victim)
            .unwrap()
            .write_all(&bytes)
            .unwrap();
        let third = CampaignEngine::new()
            .with_cache_dir(Some(dir.clone()))
            .with_jobs(2);
        let healed = third.run(&spec);
        assert_eq!(healed.report.quarantined, 1);
        assert_eq!(healed.report.simulated, 1, "only the corrupt cell re-runs");
        assert_eq!(
            healed.report.aggregates.to_bytes(),
            cold.report.aggregates.to_bytes()
        );
        assert!(
            dir.join("quarantine").read_dir().unwrap().count() == 1,
            "corrupt file must be moved to quarantine"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
