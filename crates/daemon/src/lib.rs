//! `rpavd` — the resident campaign service.
//!
//! The batch binaries run one matrix and exit; `rpavd` keeps the engine
//! resident and accepts campaigns over a versioned JSON wire format
//! ([`CampaignSpec`]). The daemon adds nothing to the execution
//! semantics — every campaign runs through the same crash-safe streaming
//! engine path as batch mode, against the same sharded durable cache —
//! so a SIGKILLed daemon, restarted, converges to aggregates
//! byte-identical to an uninterrupted batch run of the same document.
//!
//! # Wire API
//!
//! * `POST /campaigns` — body is a [`CampaignSpec`] JSON document.
//!   Campaign identity is the FNV-1a hash of the document's *canonical
//!   bytes*, so resubmitting the same spec (any whitespace, any key
//!   order) is idempotent: `201` on first submission, `200` after.
//! * `GET /campaigns` — all known campaigns.
//! * `GET /campaigns/<id>` — status + final report for one campaign.
//! * `GET /campaigns/<id>/events` — chunked NDJSON, one line per cell in
//!   submission order straight off the engine's reorder frontier; blocks
//!   until the campaign completes.
//! * `GET /campaigns/<id>/aggregates` — the campaign's
//!   [`CampaignAggregates`] canonical bytes (`application/octet-stream`);
//!   blocks until done. This is the byte-compare surface of the
//!   acceptance test.
//! * `GET /metrics` — live counters: campaigns by state, cell totals
//!   (done / failed / cached / retried / quarantined / `store_failed`
//!   cache writes), queue depth, live and refused connections, heap
//!   telemetry from [`rpav_sim::alloc`].
//!
//! Every connection gets its own thread, at most [`MAX_CONNECTIONS`] of
//! them at a time; the accept loop itself answers the overflow with a
//! `503` and `{"error":"too many connections"}`.
//!
//! # Durability
//!
//! Accepted specs are persisted (atomic tmp+rename) to
//! `<cache>/campaigns/<id>.json` *before* execution; on startup the
//! daemon rescans that directory and re-enqueues everything found.
//! Completed cells replay from their sealed cache records, so re-running
//! a finished campaign is cheap and a killed one resumes where it died.
//! Specs whose cross-product exceeds [`MAX_CELLS`], or whose cells ask
//! for more than [`MAX_HOLD`] / [`MAX_GROUND_SWEEPS`], are rejected with a
//! `400` at parse time — before persistence — so a hostile document can
//! neither abort the daemon, nor park its executor for years, nor poison
//! the spec archive into doing either again on every restart. A campaign
//! that panics mid-execution is marked done with an `error` report
//! instead of killing the executor, so queued campaigns keep draining and
//! blocked clients are released.
//!
//! # Trust model
//!
//! `rpavd` is a trusted-local tool: it binds where you tell it and does
//! no authentication. Campaign identity is 64-bit FNV-1a — collision
//! *detection* is handled (a submission whose canonical bytes differ
//! from the archived spec under the same id is rejected with `409`
//! rather than silently served another campaign's results), but the
//! hash is not cryptographic; don't expose the socket to untrusted
//! networks.

pub mod client;
pub mod http;

use std::collections::BTreeMap;
use std::io::{Read, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rpav_core::exec::{panic_message, write_atomic};
use rpav_core::json::{self, Json};
use rpav_core::prelude::*;
use rpav_sim::alloc;

use http::{read_request, respond, Chunked, HttpError, Request};

/// Longest a connection may stall between two reads of its request (head
/// or body) before the server closes it. Handlers that wait for a
/// campaign block on a condvar, not on the socket, so this only ever
/// times a client that has stopped sending.
const READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);
/// Longest one response write may block on a peer that has stopped
/// reading (an `/events` follower whose receive window stays full).
const WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);
/// Most connections served at once, one `rpavd-conn` thread each. A
/// campaign's followers block for as long as it runs, so without a cap a
/// client that keeps opening sockets grows the thread count without bound;
/// the connection over the cap is answered `503` by the accept loop.
pub const MAX_CONNECTIONS: usize = 128;
/// Whole budget for reading the request of a connection that is being
/// turned away (it is read so that closing does not reset the connection
/// under the `503`). It is spent on the accept loop, so it is short and
/// covers the whole request, not each read: a peer that dribbles bytes
/// cannot stretch it.
const REFUSE_BUDGET: Duration = Duration::from_millis(200);

/// Lock a mutex, recovering from poisoning: campaign state is plain
/// counters and event lines, always left consistent between lock holds,
/// so a panic elsewhere must not cascade into every later handler.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison tolerance as [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Why `POST /campaigns` (or recovery on start) refused a spec.
#[derive(Debug)]
pub enum SubmitError {
    /// Persisting the spec document failed (disk full, permissions…).
    Io(std::io::Error),
    /// A different spec already owns this 64-bit identity: same FNV-1a
    /// hash, different canonical bytes. Served as `409` — never as
    /// another campaign's results.
    IdentityCollision(u64),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Io(e) => write!(f, "failed to persist spec: {e}"),
            SubmitError::IdentityCollision(id) => {
                write!(
                    f,
                    "identity collision: a different spec already has id {id:016x}"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<std::io::Error> for SubmitError {
    fn from(e: std::io::Error) -> Self {
        SubmitError::Io(e)
    }
}

/// Daemon-wide knobs, parsed once by `main` (or built by tests).
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Durable cache root: sharded cell results, quarantine, and the
    /// `campaigns/` spec archive all live here.
    pub cache_dir: PathBuf,
    /// Worker override (`--jobs`); `None` defers to each spec's options
    /// or the host parallelism.
    pub jobs: Option<usize>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Queued,
    Running,
    Done,
}

impl Status {
    fn name(self) -> &'static str {
        match self {
            Status::Queued => "queued",
            Status::Running => "running",
            Status::Done => "done",
        }
    }
}

struct CampaignState {
    status: Status,
    /// NDJSON event lines, submission order (one per cell).
    events: Vec<String>,
    done: u64,
    failed: u64,
    /// Canonical aggregate bytes, set on completion.
    aggregates: Option<Vec<u8>>,
    /// Final engine report as a JSON object, set on completion.
    report: Option<Json>,
}

/// One registered campaign: the parsed spec plus execution state.
pub struct Campaign {
    id: u64,
    spec: CampaignSpec,
    cells: usize,
    state: Mutex<CampaignState>,
    wake: Condvar,
}

impl Campaign {
    fn new(spec: CampaignSpec) -> Self {
        // Counted, not expanded: wire specs are capped at `MAX_CELLS` by
        // `from_json`, and the cells themselves aren't needed until the
        // executor picks the campaign up.
        let cells = spec
            .to_matrix()
            .cell_count()
            .and_then(|n| usize::try_from(n).ok())
            .unwrap_or(usize::MAX);
        Campaign {
            id: spec.identity(),
            spec,
            cells,
            state: Mutex::new(CampaignState {
                status: Status::Queued,
                events: Vec::new(),
                done: 0,
                failed: 0,
                aggregates: None,
                report: None,
            }),
            wake: Condvar::new(),
        }
    }

    fn status_json(&self) -> Json {
        let st = lock(&self.state);
        let mut fields = vec![
            ("id", Json::Str(format!("{:016x}", self.id))),
            ("status", Json::Str(st.status.name().to_string())),
            ("cells", Json::UInt(self.cells as u64)),
            ("done", Json::UInt(st.done)),
            ("failed", Json::UInt(st.failed)),
        ];
        if let Some(report) = &st.report {
            fields.push(("report", report.clone()));
        }
        json::obj(fields)
    }
}

struct Shared {
    config: DaemonConfig,
    campaigns: Mutex<BTreeMap<u64, Arc<Campaign>>>,
    queue: mpsc::Sender<Arc<Campaign>>,
    queue_depth: AtomicU64,
    /// Live `rpavd-conn` threads, and connections turned away at
    /// [`MAX_CONNECTIONS`]. Both are plain tallies that publish no other
    /// data (`Relaxed`, like every counter here); only the accept loop
    /// raises `connections`, so its check-then-claim cannot overshoot.
    connections: AtomicU64,
    connections_refused: AtomicU64,
    cells_done: AtomicU64,
    cells_failed: AtomicU64,
    cells_cached: AtomicU64,
    cells_retried: AtomicU64,
    quarantined: AtomicU64,
    /// Simulated cells whose cache record could not be written.
    cells_store_failed: AtomicU64,
}

impl Shared {
    fn campaigns_dir(&self) -> PathBuf {
        self.config.cache_dir.join("campaigns")
    }

    /// Persist `spec`'s canonical bytes under its identity, atomically:
    /// the file must exist before the campaign can start executing, so a
    /// killed daemon always finds every accepted spec on restart.
    fn persist(&self, spec: &CampaignSpec) -> std::io::Result<()> {
        let dir = self.campaigns_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{:016x}.json", spec.identity()));
        write_atomic(&path, |f| f.write_all(spec.to_json().as_bytes()))
    }

    /// Register + enqueue. Returns `(campaign, created)`; identity makes
    /// this idempotent — with the canonical bytes double-checked, so an
    /// FNV collision surfaces as an error rather than someone else's
    /// campaign.
    ///
    /// Expansion and the fsync in [`persist`](Self::persist) both happen
    /// *outside* the `campaigns` lock: a slow disk or a large matrix must
    /// not stall every other endpoint. Two racing submitters of the same
    /// spec persist identical bytes to the same path (atomic rename), and
    /// the loser adopts the winner's registration.
    fn submit(&self, spec: CampaignSpec) -> Result<(Arc<Campaign>, bool), SubmitError> {
        let id = spec.identity();
        if let Some(existing) = lock(&self.campaigns).get(&id) {
            if existing.spec != spec {
                return Err(SubmitError::IdentityCollision(id));
            }
            return Ok((existing.clone(), false));
        }
        self.persist(&spec)?;
        let campaign = Arc::new(Campaign::new(spec));
        let mut campaigns = lock(&self.campaigns);
        match campaigns.entry(id) {
            std::collections::btree_map::Entry::Occupied(e) => {
                let existing = e.get().clone();
                drop(campaigns);
                if existing.spec != campaign.spec {
                    return Err(SubmitError::IdentityCollision(id));
                }
                Ok((existing, false))
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(campaign.clone());
                drop(campaigns);
                self.queue_depth.fetch_add(1, Ordering::Relaxed);
                let _ = self.queue.send(campaign.clone());
                Ok((campaign, true))
            }
        }
    }

    fn metrics_json(&self) -> Json {
        let campaigns = lock(&self.campaigns);
        let (mut queued, mut running, mut done) = (0u64, 0u64, 0u64);
        for c in campaigns.values() {
            match lock(&c.state).status {
                Status::Queued => queued += 1,
                Status::Running => running += 1,
                Status::Done => done += 1,
            }
        }
        let total = campaigns.len() as u64;
        drop(campaigns);
        json::obj(vec![
            (
                "campaigns",
                json::obj(vec![
                    ("total", Json::UInt(total)),
                    ("queued", Json::UInt(queued)),
                    ("running", Json::UInt(running)),
                    ("done", Json::UInt(done)),
                ]),
            ),
            (
                "cells",
                json::obj(vec![
                    ("done", Json::UInt(self.cells_done.load(Ordering::Relaxed))),
                    (
                        "failed",
                        Json::UInt(self.cells_failed.load(Ordering::Relaxed)),
                    ),
                    (
                        "cached",
                        Json::UInt(self.cells_cached.load(Ordering::Relaxed)),
                    ),
                    (
                        "retried",
                        Json::UInt(self.cells_retried.load(Ordering::Relaxed)),
                    ),
                    (
                        "quarantined",
                        Json::UInt(self.quarantined.load(Ordering::Relaxed)),
                    ),
                    (
                        "store_failed",
                        Json::UInt(self.cells_store_failed.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "queue_depth",
                Json::UInt(self.queue_depth.load(Ordering::Relaxed)),
            ),
            (
                "connections",
                Json::UInt(self.connections.load(Ordering::Relaxed)),
            ),
            (
                "connections_refused",
                Json::UInt(self.connections_refused.load(Ordering::Relaxed)),
            ),
            (
                "alloc",
                json::obj(vec![
                    ("current_bytes", Json::UInt(alloc::current_bytes() as u64)),
                    ("peak_bytes", Json::UInt(alloc::peak_bytes() as u64)),
                ]),
            ),
        ])
    }
}

fn event_line(seq: usize, outcome: &CellOutcome) -> String {
    let mut line = json::obj(vec![
        ("seq", Json::UInt(seq as u64)),
        ("cell", Json::Str(outcome.cell().label())),
        (
            "status",
            Json::Str(
                if outcome.is_failed() {
                    "failed"
                } else {
                    "done"
                }
                .to_string(),
            ),
        ),
        ("attempts", Json::UInt(u64::from(outcome.attempts()))),
    ])
    .canonical();
    line.push('\n');
    line
}

fn report_json(report: &EngineReport) -> Json {
    json::obj(vec![
        ("cells", Json::UInt(report.cells as u64)),
        ("simulated", Json::UInt(report.simulated as u64)),
        ("cached", Json::UInt(report.cached as u64)),
        ("failed", Json::UInt(report.failed as u64)),
        ("quarantined", Json::UInt(report.quarantined as u64)),
        ("store_failed", Json::UInt(report.store_failed as u64)),
        ("stuck_flagged", Json::UInt(report.stuck_flagged as u64)),
        ("jobs", Json::UInt(report.jobs as u64)),
        ("wall_us", Json::UInt(report.wall.as_micros() as u64)),
    ])
}

/// The single FIFO executor: campaigns run one at a time, each on a
/// fresh engine built from its own spec options — with the cache
/// directory pinned to the daemon's (the spec's `cache_dir` knob is a
/// batch-mode concern) and the CLI `--jobs` override applied if given.
///
/// Each campaign runs under its own `catch_unwind`: the engine already
/// isolates per-cell panics, but expansion, engine construction, and
/// aggregate finalization panicking must fail *that campaign* — never
/// the executor thread. On a panic the campaign is marked done with an
/// `error` report and waiters are woken, so `/aggregates` and `/events`
/// clients blocked on the Condvar are released instead of hanging
/// forever.
fn executor(shared: Arc<Shared>, rx: mpsc::Receiver<Arc<Campaign>>) {
    while let Ok(campaign) = rx.recv() {
        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_campaign(&shared, &campaign)
        }));
        if let Err(panic) = run {
            let msg = panic_message(panic.as_ref());
            eprintln!("rpavd: campaign {:016x} panicked: {msg}", campaign.id);
            let mut st = lock(&campaign.state);
            st.status = Status::Done;
            st.report = Some(json::obj(vec![("error", Json::Str(msg))]));
            drop(st);
            campaign.wake.notify_all();
        }
    }
}

/// Test seam: the panic-isolation test arms this with a campaign id to
/// make that campaign (and only it) blow up inside the executor.
#[cfg(test)]
static PANIC_ON_CAMPAIGN: AtomicU64 = AtomicU64::new(0);

fn execute_campaign(shared: &Shared, campaign: &Campaign) {
    #[cfg(test)]
    if PANIC_ON_CAMPAIGN.load(Ordering::Relaxed) == campaign.id {
        panic!("injected executor panic");
    }
    {
        let mut st = lock(&campaign.state);
        st.status = Status::Running;
        st.events.clear();
        st.done = 0;
        st.failed = 0;
    }
    campaign.wake.notify_all();

    let mut options = campaign.spec.options().clone();
    options.cache_dir = Some(shared.config.cache_dir.clone());
    if shared.config.jobs.is_some() {
        options.jobs = shared.config.jobs;
    }
    let engine = options.engine();

    let cells = campaign.spec.to_matrix().expand();
    let mut seq = 0usize;
    let summary = engine.run_cells_streaming_observed(cells, &mut |outcome| {
        let line = event_line(seq, outcome);
        seq += 1;
        let mut st = lock(&campaign.state);
        st.events.push(line);
        if outcome.is_failed() {
            st.failed += 1;
        } else {
            st.done += 1;
        }
        drop(st);
        campaign.wake.notify_all();
    });

    let report = summary.report;
    shared
        .cells_done
        .fetch_add((report.cells - report.failed) as u64, Ordering::Relaxed);
    shared
        .cells_failed
        .fetch_add(report.failed as u64, Ordering::Relaxed);
    shared
        .cells_cached
        .fetch_add(report.cached as u64, Ordering::Relaxed);
    shared
        .quarantined
        .fetch_add(report.quarantined as u64, Ordering::Relaxed);
    shared
        .cells_retried
        .fetch_add(report.retries as u64, Ordering::Relaxed);
    shared
        .cells_store_failed
        .fetch_add(report.store_failed as u64, Ordering::Relaxed);

    let mut st = lock(&campaign.state);
    st.aggregates = Some(report.aggregates.to_bytes());
    st.report = Some(report_json(&report));
    st.status = Status::Done;
    drop(st);
    campaign.wake.notify_all();
}

/// The daemon: registry + executor. Construction rescans the spec
/// archive and re-enqueues every known campaign; [`serve`](Self::serve)
/// runs the accept loop.
pub struct Daemon {
    shared: Arc<Shared>,
}

impl Daemon {
    /// Build the daemon, spawn its executor, and recover the spec
    /// archive (restart-after-SIGKILL path: completed campaigns replay
    /// from cache; interrupted ones resume from the cells that reached it).
    pub fn new(config: DaemonConfig) -> std::io::Result<Daemon> {
        std::fs::create_dir_all(config.cache_dir.join("campaigns"))?;
        let (tx, rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            config,
            campaigns: Mutex::new(BTreeMap::new()),
            queue: tx,
            queue_depth: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            connections_refused: AtomicU64::new(0),
            cells_done: AtomicU64::new(0),
            cells_failed: AtomicU64::new(0),
            cells_cached: AtomicU64::new(0),
            cells_retried: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            cells_store_failed: AtomicU64::new(0),
        });
        {
            let exec_shared = shared.clone();
            std::thread::Builder::new()
                .name("rpavd-executor".into())
                .spawn(move || executor(exec_shared, rx))?;
        }
        let daemon = Daemon { shared };
        daemon.recover()?;
        Ok(daemon)
    }

    /// Re-enqueue every persisted spec, in identity order.
    fn recover(&self) -> std::io::Result<()> {
        let dir = self.shared.campaigns_dir();
        let mut specs: BTreeMap<u64, CampaignSpec> = BTreeMap::new();
        for entry in std::fs::read_dir(&dir)?.filter_map(Result::ok) {
            let path = entry.path();
            if path.extension().is_none_or(|x| x != "json") {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            match CampaignSpec::from_json(&text) {
                Ok(spec) => {
                    specs.insert(spec.identity(), spec);
                }
                Err(e) => {
                    eprintln!("rpavd: skipping undecodable spec {}: {e}", path.display());
                }
            }
        }
        for spec in specs.into_values() {
            match self.shared.submit(spec) {
                Ok(_) => {}
                Err(SubmitError::Io(e)) => return Err(e),
                Err(e @ SubmitError::IdentityCollision(_)) => {
                    eprintln!("rpavd: skipping archived spec: {e}");
                }
            }
        }
        Ok(())
    }

    /// Number of campaigns known to the registry.
    pub fn campaign_count(&self) -> usize {
        lock(&self.shared.campaigns).len()
    }

    /// Accept loop: one thread per connection (at most
    /// [`MAX_CONNECTIONS`] live, the overflow is refused here), one
    /// request per connection. Runs until the listener errors (i.e.
    /// forever).
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<()> {
        for stream in listener.incoming() {
            let stream = stream?;
            if self.shared.connections.load(Ordering::Relaxed) >= MAX_CONNECTIONS as u64 {
                self.shared
                    .connections_refused
                    .fetch_add(1, Ordering::Relaxed);
                refuse_connection(stream);
                continue;
            }
            // Claimed here, released when the thread ends (or fails to
            // start): the slot travels with the closure.
            let slot = ConnectionSlot::claim(self.shared.clone());
            std::thread::Builder::new()
                .name("rpavd-conn".into())
                .spawn(move || handle_connection(&slot.0, stream))?;
        }
        Ok(())
    }
}

/// One unit of [`Shared::connections`], given back on drop — so a handler
/// that panics still frees its slot.
struct ConnectionSlot(Arc<Shared>);

impl ConnectionSlot {
    fn claim(shared: Arc<Shared>) -> Self {
        shared.connections.fetch_add(1, Ordering::Relaxed);
        ConnectionSlot(shared)
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A socket whose reads share one deadline instead of each getting a
/// fresh timeout.
struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = match self.at.checked_duration_since(Instant::now()) {
            Some(left) if !left.is_zero() => left,
            _ => return Err(std::io::ErrorKind::TimedOut.into()),
        };
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Turn away the connection over the cap, on the accept loop's own
/// thread: take in the request (whatever it is — a request left unread
/// would make the close a reset, and the client would lose the answer
/// with it) within [`REFUSE_BUDGET`], answer `503` — a hundred-odd bytes
/// into an empty send buffer, which cannot block — and half-close.
fn refuse_connection(stream: TcpStream) {
    let _ = read_request(&mut Deadline {
        stream: &stream,
        at: Instant::now() + REFUSE_BUDGET,
    });
    let _ = respond(
        &mut &stream,
        503,
        "application/json",
        &error_body("too many connections"),
    );
    let _ = stream.shutdown(Shutdown::Write);
}

fn error_body(message: &str) -> Vec<u8> {
    json::obj(vec![("error", Json::Str(message.to_string()))])
        .canonical()
        .into_bytes()
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    // Without these a client that stalls mid-request, or a follower that
    // stops reading, would pin this thread forever. A timed-out read
    // surfaces as `HttpError::Io` and closes the connection below.
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(HttpError::Io(_)) | Err(HttpError::Truncated) => return,
        Err(e) => {
            let status = if e == HttpError::BadLength { 413 } else { 400 };
            let _ = respond(
                &mut stream,
                status,
                "application/json",
                &error_body(&e.to_string()),
            );
            return;
        }
    };
    if let Err(e) = route(shared, &request, &mut stream) {
        // The client hung up mid-response; nothing to clean up.
        let _ = e;
    }
}

fn find(shared: &Shared, id_hex: &str) -> Option<Arc<Campaign>> {
    let id = u64::from_str_radix(id_hex, 16).ok()?;
    lock(&shared.campaigns).get(&id).cloned()
}

fn route(shared: &Shared, request: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["campaigns"]) => {
            let text = match std::str::from_utf8(&request.body) {
                Ok(t) => t,
                Err(_) => {
                    return respond(
                        stream,
                        400,
                        "application/json",
                        &error_body("body is not UTF-8"),
                    )
                }
            };
            match CampaignSpec::from_json(text) {
                Ok(spec) => match shared.submit(spec) {
                    Ok((campaign, created)) => {
                        let body = json::obj(vec![
                            ("id", Json::Str(format!("{:016x}", campaign.id))),
                            ("cells", Json::UInt(campaign.cells as u64)),
                            ("created", Json::Bool(created)),
                        ])
                        .canonical();
                        respond(
                            stream,
                            if created { 201 } else { 200 },
                            "application/json",
                            body.as_bytes(),
                        )
                    }
                    // Submission failures are server-side conditions the
                    // client must see as a response, not a hangup.
                    Err(e) => {
                        eprintln!("rpavd: submit failed: {e}");
                        let status = match e {
                            SubmitError::IdentityCollision(_) => 409,
                            SubmitError::Io(_) => 500,
                        };
                        respond(
                            stream,
                            status,
                            "application/json",
                            &error_body(&e.to_string()),
                        )
                    }
                },
                Err(e) => respond(stream, 400, "application/json", &error_body(&e.to_string())),
            }
        }
        ("GET", ["campaigns"]) => {
            let list: Vec<Json> = lock(&shared.campaigns)
                .values()
                .map(|c| c.status_json())
                .collect();
            respond(
                stream,
                200,
                "application/json",
                Json::Array(list).canonical().as_bytes(),
            )
        }
        ("GET", ["campaigns", id]) => match find(shared, id) {
            Some(c) => respond(
                stream,
                200,
                "application/json",
                c.status_json().canonical().as_bytes(),
            ),
            None => respond(
                stream,
                404,
                "application/json",
                &error_body("no such campaign"),
            ),
        },
        ("GET", ["campaigns", id, "events"]) => match find(shared, id) {
            Some(c) => stream_events(&c, stream),
            None => respond(
                stream,
                404,
                "application/json",
                &error_body("no such campaign"),
            ),
        },
        ("GET", ["campaigns", id, "aggregates"]) => match find(shared, id) {
            Some(c) => {
                let mut st = lock(&c.state);
                while st.status != Status::Done {
                    st = wait(&c.wake, st);
                }
                let bytes = st.aggregates.clone().unwrap_or_default();
                drop(st);
                respond(stream, 200, "application/octet-stream", &bytes)
            }
            None => respond(
                stream,
                404,
                "application/json",
                &error_body("no such campaign"),
            ),
        },
        ("GET", ["metrics"]) => respond(
            stream,
            200,
            "application/json",
            shared.metrics_json().canonical().as_bytes(),
        ),
        (_, ["campaigns", ..]) | (_, ["metrics"]) => respond(
            stream,
            405,
            "application/json",
            &error_body("method not allowed"),
        ),
        _ => respond(
            stream,
            404,
            "application/json",
            &error_body("no such route"),
        ),
    }
}

/// Chunked NDJSON feed: replay the events so far, then follow the
/// reorder frontier live until the campaign completes.
fn stream_events(campaign: &Campaign, stream: &mut TcpStream) -> std::io::Result<()> {
    let mut out = Chunked::start(stream, 200, "application/x-ndjson")?;
    let mut next = 0usize;
    loop {
        let batch: Vec<String>;
        {
            let mut st = lock(&campaign.state);
            while st.events.len() == next && st.status != Status::Done {
                st = wait(&campaign.wake, st);
            }
            batch = st.events[next..].to_vec();
            next = st.events.len();
            if batch.is_empty() && st.status == Status::Done {
                break;
            }
        }
        for line in &batch {
            out.chunk(line.as_bytes())?;
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rpavd-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::new(
            ExperimentConfig::builder()
                .cc(CcMode::Gcc)
                .seed(7)
                .hold_secs(1)
                .build(),
        )
        .runs(2)
    }

    fn start_daemon(dir: &std::path::Path) -> (Daemon, String) {
        let daemon = Daemon::new(DaemonConfig {
            cache_dir: dir.to_path_buf(),
            jobs: Some(2),
        })
        .expect("daemon");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap().to_string();
        let shared = daemon.shared.clone();
        std::thread::spawn(move || {
            let d = Daemon { shared };
            let _ = d.serve(listener);
        });
        (daemon, addr)
    }

    const T: Duration = Duration::from_secs(300);

    #[test]
    fn full_campaign_lifecycle_over_http() {
        let dir = fresh_dir("lifecycle");
        let (_daemon, addr) = start_daemon(&dir);
        let spec = tiny_spec();

        // Batch-mode reference for the byte-compare.
        let reference = EngineOptions::default()
            .engine()
            .run_cells_streaming(spec.to_matrix().expand())
            .report
            .aggregates
            .to_bytes();

        // Submit (non-canonical whitespace: identity must not care).
        let sloppy = spec.to_json().replace(",", " , ");
        let r = client::post_json(&addr, "/campaigns", &sloppy, T).unwrap();
        assert_eq!(r.status, 201, "{}", r.text());
        let body = Json::parse(&r.text()).unwrap();
        let id = body.get("id").unwrap().as_str().unwrap().to_string();
        assert_eq!(id, format!("{:016x}", spec.identity()));
        assert_eq!(body.get("cells").unwrap().as_u64(), Some(2));

        // Resubmission is idempotent.
        let again = client::post_json(&addr, "/campaigns", &spec.to_json(), T).unwrap();
        assert_eq!(again.status, 200);
        assert_eq!(
            Json::parse(&again.text()).unwrap().get("created").unwrap(),
            &Json::Bool(false)
        );

        // Aggregates block until done and match batch mode byte-for-byte.
        let agg = client::get(&addr, &format!("/campaigns/{id}/aggregates"), T).unwrap();
        assert_eq!(agg.status, 200);
        assert_eq!(agg.body, reference, "daemon diverged from batch mode");

        // Events: one NDJSON line per cell, in submission order.
        let events = client::get(&addr, &format!("/campaigns/{id}/events"), T).unwrap();
        let lines: Vec<Json> = events
            .text()
            .lines()
            .map(|l| Json::parse(l).expect("event line parses"))
            .collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(line.get("seq").unwrap().as_u64(), Some(i as u64));
            assert_eq!(line.get("status").unwrap().as_str(), Some("done"));
        }

        // Status + metrics.
        let status = client::get(&addr, &format!("/campaigns/{id}"), T).unwrap();
        let status = Json::parse(&status.text()).unwrap();
        assert_eq!(status.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(status.get("done").unwrap().as_u64(), Some(2));
        let report = status.get("report").expect("done campaigns carry a report");
        assert_eq!(report.get("cells").unwrap().as_u64(), Some(2));

        let metrics = client::get(&addr, "/metrics", T).unwrap();
        let metrics = Json::parse(&metrics.text()).unwrap();
        assert_eq!(
            metrics
                .get("campaigns")
                .unwrap()
                .get("done")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_cache_writes_surface_in_the_report_and_metrics() {
        let dir = fresh_dir("storefail");
        let spec = tiny_spec();
        // A regular file where each cell's shard directory would go: the
        // record write fails (as root too), the cells still complete.
        let cells = spec.to_matrix().expand();
        std::fs::create_dir_all(&dir).unwrap();
        for cell in &cells {
            let path = rpav_core::exec::cache_entry_path(&dir, cell.key());
            std::fs::write(path.parent().unwrap(), b"not a directory").unwrap();
        }
        let (_daemon, addr) = start_daemon(&dir);
        let r = client::post_json(&addr, "/campaigns", &spec.to_json(), T).unwrap();
        assert_eq!(r.status, 201, "{}", r.text());
        let id = format!("{:016x}", spec.identity());
        let agg = client::get(&addr, &format!("/campaigns/{id}/aggregates"), T).unwrap();
        assert!(!agg.body.is_empty(), "results are delivered regardless");
        let status = client::get(&addr, &format!("/campaigns/{id}"), T).unwrap();
        let status = Json::parse(&status.text()).unwrap();
        let report = status.get("report").unwrap();
        let expected = Some(cells.len() as u64);
        assert_eq!(report.get("store_failed").unwrap().as_u64(), expected);
        assert_eq!(report.get("simulated").unwrap().as_u64(), expected);
        let metrics = client::get(&addr, "/metrics", T).unwrap();
        let metrics = Json::parse(&metrics.text()).unwrap();
        let store_failed = metrics.get("cells").unwrap().get("store_failed").unwrap();
        assert_eq!(store_failed.as_u64(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_recovers_persisted_specs_and_converges() {
        let dir = fresh_dir("recover");
        let spec = tiny_spec();
        {
            let (daemon, addr) = start_daemon(&dir);
            let r = client::post_json(&addr, "/campaigns", &spec.to_json(), T).unwrap();
            assert_eq!(r.status, 201);
            let agg = client::get(
                &addr,
                &format!("/campaigns/{:016x}/aggregates", spec.identity()),
                T,
            )
            .unwrap();
            assert_eq!(agg.status, 200);
            drop(daemon);
        }
        // "Restarted" daemon on the same cache: the spec archive brings
        // the campaign back, the sealed cache replays it without
        // re-simulating, and aggregates converge bit-identically.
        let (daemon2, addr2) = start_daemon(&dir);
        assert_eq!(daemon2.campaign_count(), 1, "spec archive must recover");
        let agg = client::get(
            &addr2,
            &format!("/campaigns/{:016x}/aggregates", spec.identity()),
            T,
        )
        .unwrap();
        let reference = EngineOptions::default()
            .engine()
            .run_cells_streaming(spec.to_matrix().expand())
            .report
            .aggregates
            .to_bytes();
        assert_eq!(agg.body, reference, "recovered campaign diverged");
        let status =
            client::get(&addr2, &format!("/campaigns/{:016x}", spec.identity()), T).unwrap();
        let status = Json::parse(&status.text()).unwrap();
        let report = status.get("report").unwrap();
        assert_eq!(
            report.get("simulated").unwrap().as_u64(),
            Some(0),
            "recovery must replay from cache, not re-simulate"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_requests_get_typed_errors() {
        let dir = fresh_dir("badreq");
        let (_daemon, addr) = start_daemon(&dir);
        let r = client::post_json(&addr, "/campaigns", "{not json", T).unwrap();
        assert_eq!(r.status, 400);
        assert!(r.text().contains("error"));
        let r = client::post_json(&addr, "/campaigns", r#"{"spec_version":999}"#, T).unwrap();
        assert_eq!(r.status, 400);
        assert!(r.text().contains("spec_version"), "{}", r.text());
        let r = client::get(&addr, "/campaigns/ffffffffffffffff", T).unwrap();
        assert_eq!(r.status, 404);
        let r = client::get(&addr, "/nope", T).unwrap();
        assert_eq!(r.status, 404);
        let r = client::request(&addr, "DELETE", "/metrics", b"", T).unwrap();
        assert_eq!(r.status, 405);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stalled_request_head_is_closed_while_others_are_served() {
        use std::io::Read as _;
        let dir = fresh_dir("stall");
        let (_daemon, addr) = start_daemon(&dir);
        // Half a request line, then silence.
        let mut stalled = TcpStream::connect(&addr).unwrap();
        stalled.write_all(b"GET /metr").unwrap();
        // The stalled connection holds only its own thread: a well-formed
        // request on another connection is answered meanwhile.
        let r = client::get(&addr, "/metrics", T).unwrap();
        assert_eq!(r.status, 200);
        // The server gives up on the head and closes: we see EOF well
        // before our own (longer) read timeout would fire.
        stalled.set_read_timeout(Some(READ_TIMEOUT * 4)).unwrap();
        let started = std::time::Instant::now();
        let n = stalled
            .read(&mut [0u8; 64])
            .expect("server closes the stalled connection");
        assert_eq!(n, 0, "expected EOF, got a response to half a request");
        assert!(started.elapsed() < READ_TIMEOUT * 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn connections_over_the_cap_get_a_503_until_a_slot_frees() {
        let dir = fresh_dir("conncap");
        let (_daemon, addr) = start_daemon(&dir);
        // Fill every slot: each holder stops mid-request-line, so its
        // thread sits in `read_request` (for up to READ_TIMEOUT).
        let mut holders: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| {
                let mut s = TcpStream::connect(&addr).unwrap();
                s.write_all(b"GET /metr").unwrap();
                s
            })
            .collect();
        // Connections are accepted in the order they were made, so every
        // holder is counted by the time the accept loop sees this one.
        let r = client::get(&addr, "/metrics", T).unwrap();
        assert_eq!(r.status, 503, "{}", r.text());
        assert_eq!(r.text(), r#"{"error":"too many connections"}"#);
        // One holder hangs up; its thread reads EOF and gives the slot
        // back. That happens on the server's schedule, so ask until the
        // answer changes — long before the other holders time out.
        drop(holders.pop());
        let started = std::time::Instant::now();
        let metrics = loop {
            let r = client::get(&addr, "/metrics", T).unwrap();
            if r.status == 200 {
                break Json::parse(&r.text()).unwrap();
            }
            assert_eq!(r.status, 503, "{}", r.text());
            assert!(started.elapsed() < READ_TIMEOUT / 2, "slot never freed");
            std::thread::yield_now();
        };
        // The remaining holders plus the request that asked.
        assert_eq!(
            metrics.get("connections").unwrap().as_u64(),
            Some(MAX_CONNECTIONS as u64)
        );
        assert!(metrics.get("connections_refused").unwrap().as_u64() >= Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_specs_are_rejected_before_persistence() {
        let dir = fresh_dir("oversized");
        let (daemon, addr) = start_daemon(&dir);
        // u64::MAX runs, a leg vector of 10¹² sweeps, a multi-year hold:
        // each must be a 400, not an allocation abort or a parked executor.
        for (body, culprit) in [
            (
                format!("{{\"spec_version\":1,\"runs\":{}}}", u64::MAX),
                "cells",
            ),
            (
                r#"{"spec_version":1,"base":{"mobility":"ground","ground_sweeps":1000000000000}}"#
                    .to_string(),
                "ground_sweeps",
            ),
            (
                r#"{"spec_version":1,"base":{"hold_us":10000000000000}}"#.to_string(),
                "hold_us",
            ),
        ] {
            let r = client::post_json(&addr, "/campaigns", &body, T).unwrap();
            assert_eq!(r.status, 400, "{}", r.text());
            assert!(r.text().contains(culprit), "{}", r.text());
        }
        // Nothing was persisted, so a restart cannot re-trigger it.
        assert_eq!(daemon.campaign_count(), 0);
        let archived = std::fs::read_dir(dir.join("campaigns"))
            .map(|d| d.count())
            .unwrap_or(0);
        assert_eq!(archived, 0, "rejected spec must never reach the archive");
        // And the daemon is still fully alive: a sane campaign completes.
        let spec = tiny_spec();
        let r = client::post_json(&addr, "/campaigns", &spec.to_json(), T).unwrap();
        assert_eq!(r.status, 201);
        let agg = client::get(
            &addr,
            &format!("/campaigns/{:016x}/aggregates", spec.identity()),
            T,
        )
        .unwrap();
        assert_eq!(agg.status, 200);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn executor_survives_a_panicking_campaign() {
        let dir = fresh_dir("panic");
        let (_daemon, addr) = start_daemon(&dir);
        // A spec unique to this test (distinct seed → distinct identity),
        // armed to panic inside the executor.
        let doomed = CampaignSpec::new(
            ExperimentConfig::builder()
                .cc(CcMode::Gcc)
                .seed(0xDEAD)
                .hold_secs(1)
                .build(),
        );
        PANIC_ON_CAMPAIGN.store(doomed.identity(), Ordering::Relaxed);
        let r = client::post_json(&addr, "/campaigns", &doomed.to_json(), T).unwrap();
        assert_eq!(r.status, 201);
        // Blocked clients are released, not hung: aggregates returns
        // (empty — the campaign never produced any)…
        let agg = client::get(
            &addr,
            &format!("/campaigns/{:016x}/aggregates", doomed.identity()),
            T,
        )
        .unwrap();
        assert_eq!(agg.status, 200);
        assert!(agg.body.is_empty());
        // …and the failure is surfaced in the report.
        let status =
            client::get(&addr, &format!("/campaigns/{:016x}", doomed.identity()), T).unwrap();
        let status = Json::parse(&status.text()).unwrap();
        assert_eq!(status.get("status").unwrap().as_str(), Some("done"));
        let error = status.get("report").unwrap().get("error").unwrap();
        assert_eq!(error.as_str(), Some("injected executor panic"));
        // The executor thread survived: the next campaign runs to
        // completion and every endpoint still answers.
        PANIC_ON_CAMPAIGN.store(0, Ordering::Relaxed);
        let healthy = tiny_spec();
        let r = client::post_json(&addr, "/campaigns", &healthy.to_json(), T).unwrap();
        assert!(r.status == 201 || r.status == 200);
        let agg = client::get(
            &addr,
            &format!("/campaigns/{:016x}/aggregates", healthy.identity()),
            T,
        )
        .unwrap();
        assert_eq!(agg.status, 200);
        assert!(!agg.body.is_empty());
        let metrics = client::get(&addr, "/metrics", T).unwrap();
        assert_eq!(metrics.status, 200);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
