//! Resilience matrix — the crash-safety acceptance harness for the
//! campaign engine.
//!
//! Proves the engine's end-to-end crash-safety contract on real
//! simulations:
//!
//! * **panic isolation** — an injected per-cell panic (test-only fault
//!   hook) yields a typed `Failed` poison record; every other cell still
//!   completes and the report accounts for the failure;
//! * **bounded retry** — a transient panic (first attempt only) is
//!   retried and recovers bit-identically to a direct execution;
//! * **durable cache** — a deliberately corrupted cache file and a
//!   truncated one are quarantined as misses (never served, never
//!   fatal), only the damaged cells re-simulate, and the healed campaign
//!   is byte-identical to the original;
//! * **kill/resume** — a child engine process is SIGKILLed mid-campaign;
//!   re-running the identical spec hits the sealed records the child
//!   left (there is no other resume state), recomputes the rest, and
//!   produces per-cell metrics and aggregates byte-identical to an
//!   uninterrupted run;
//! * **flat memory** — streaming execution retains no per-cell metrics:
//!   the aggregate sketch footprint is constant as the matrix grows 4×;
//! * **stuck watchdog** — a 1 ms wall-clock budget flags every cell
//!   without killing any;
//! * **daemon kill/resume** — the same contract over the service path:
//!   the kill campaign is submitted to a live `rpavd` (the one built
//!   beside this executable) as a JSON spec document, the daemon is
//!   SIGKILLed mid-campaign and restarted on the same cache, and the
//!   aggregates it then serves over HTTP are byte-identical to an
//!   uninterrupted batch run of the same document.
//!
//! `--smoke` shrinks the sweep for CI.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpav_bench::{assert_same_results, banner, resilience_kill_spec, resilience_small_spec};
use rpav_core::prelude::*;

/// Env var that switches this suite into child mode: its value is the
/// cache directory the child campaign writes to (the parent SIGKILLs it
/// mid-run).
const CHILD_ENV: &str = "RPAV_RESILIENCE_CHILD";

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpav-resilience-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sealed cache entries under `dir`'s 256 shard subdirectories (skipping
/// `quarantine/` and the daemon's `campaigns/`).
fn rpav_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for shard in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = shard.file_name();
        if name == "quarantine" || name == "campaigns" {
            continue;
        }
        for entry in std::fs::read_dir(shard.path()).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|x| x == "rpav") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Poll `ready` every 20 ms until it yields; panic with `what` after
/// `secs` seconds.
fn poll<T>(what: &str, secs: u64, mut ready: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(value) = ready() {
            return value;
        }
        assert!(
            Instant::now() < deadline,
            "{what} within {secs} s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Child mode: run the kill matrix sequentially into the given cache
/// directory. The parent kills us somewhere in the middle.
fn run_child(cache_dir: &str, smoke: bool) -> ! {
    let engine = CampaignEngine::new()
        .with_jobs(1)
        .with_cache_dir(Some(PathBuf::from(cache_dir)));
    let _ = engine.run(&resilience_kill_spec(smoke).to_matrix());
    std::process::exit(0);
}

/// Silence the default panic hook while injected panics unwind (they are
/// caught by the engine; the backtrace spam is just noise), restoring it
/// afterwards.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    let _ = std::panic::take_hook();
    out
}

pub fn run(args: &crate::Args) {
    let smoke = args.smoke;
    if let Ok(dir) = std::env::var(CHILD_ENV) {
        run_child(&dir, smoke);
    }
    banner(
        "resilience_matrix",
        "crash-safe campaign execution: panic isolation, durable cache, kill/resume",
    );

    // ---- (a) panic isolation ----------------------------------------
    let spec = resilience_small_spec().to_matrix();
    let n = spec.expand().len();
    let engine = CampaignEngine::new()
        .with_cache_dir(None)
        .with_jobs(4)
        .with_max_attempts(2)
        .with_fault_hook(Arc::new(|cell: &Cell, _| {
            cell.config.environment == Environment::Rural && cell.config.run_index == 1
        }));
    let result = with_quiet_panics(|| engine.run(&spec));
    assert_eq!(result.report.failed, 1, "exactly one cell must be poisoned");
    assert_eq!(
        result.report.simulated,
        n - 1,
        "every healthy cell must complete"
    );
    let poisoned: Vec<&CellOutcome> = result.failures().collect();
    assert_eq!(poisoned.len(), 1);
    assert_eq!(poisoned[0].attempts(), 2, "retry budget consumed first");
    assert!(poisoned[0]
        .panic_msg()
        .is_some_and(|m| m.contains("injected fault")));
    println!(
        "panic isolation: 1 poisoned ({}), {} healthy cells completed",
        poisoned[0].cell().label(),
        n - 1
    );

    // ---- (b) bounded retry recovers transients ----------------------
    let engine = CampaignEngine::new()
        .with_cache_dir(None)
        .with_jobs(2)
        .with_max_attempts(3)
        .with_fault_hook(Arc::new(|cell: &Cell, attempt| {
            attempt == 1 && cell.config.run_index == 0
        }));
    let result = with_quiet_panics(|| engine.run(&spec));
    assert_eq!(result.report.failed, 0, "transient panics must recover");
    assert!(result.report.retries >= 1);
    let recovered = result
        .outcomes
        .iter()
        .find(|o| o.attempts() == 2)
        .expect("no retried cell");
    assert_eq!(
        recovered.metrics().to_bytes(),
        recovered.cell().execute().to_bytes(),
        "retried result diverged from direct execution"
    );
    println!(
        "bounded retry: {} retry(ies), recovered bit-identically",
        result.report.retries
    );

    // ---- (c) corrupt cache quarantined, never served ----------------
    let dir = fresh_dir("quarantine");
    let reference = CampaignEngine::new()
        .with_cache_dir(Some(dir.clone()))
        .with_jobs(4)
        .run(&spec);
    assert_eq!(reference.report.simulated, n);
    let files = rpav_files(&dir);
    assert_eq!(files.len(), n, "every cell must have a sealed cache file");
    // Flip one byte mid-payload in one file; truncate another to half.
    let mut bytes = std::fs::read(&files[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&files[0], &bytes).unwrap();
    let bytes = std::fs::read(&files[1]).unwrap();
    std::fs::write(&files[1], &bytes[..bytes.len() / 2]).unwrap();

    let healed = CampaignEngine::new()
        .with_cache_dir(Some(dir.clone()))
        .with_jobs(4)
        .run(&spec);
    assert_eq!(
        healed.report.quarantined, 2,
        "both damaged files quarantined"
    );
    assert_eq!(healed.report.simulated, 2, "only the damaged cells re-ran");
    assert_eq!(healed.report.failed, 0, "corruption must never be fatal");
    assert_same_results("healed campaign", &reference, &healed);
    assert_eq!(
        dir.join("quarantine")
            .read_dir()
            .map(|d| d.count())
            .unwrap_or(0),
        2,
        "quarantine directory must hold the evidence"
    );
    let third = CampaignEngine::new()
        .with_cache_dir(Some(dir.clone()))
        .with_jobs(4)
        .run(&spec);
    assert_eq!(third.report.simulated, 0, "healed cache must be fully warm");
    println!("durable cache: 2 corrupted files quarantined, healed run byte-identical");
    let _ = std::fs::remove_dir_all(&dir);

    // ---- (d) SIGKILL mid-campaign, then resume ----------------------
    let kspec = resilience_kill_spec(smoke).to_matrix();
    let kn = kspec.expand().len();
    let kill_dir = fresh_dir("kill");
    std::fs::create_dir_all(&kill_dir).unwrap();
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(&exe)
        .arg("resilience_matrix")
        .args(smoke.then_some("--smoke"))
        .env(CHILD_ENV, kill_dir.display().to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child engine");
    // Wait until at least two cells are durably cached, then SIGKILL.
    let child_finished = poll("child produced < 2 cache files", 180, || {
        if rpav_files(&kill_dir).len() >= 2 {
            return Some(false);
        }
        child.try_wait().expect("try_wait").map(|_| true)
    });
    if !child_finished {
        child.kill().expect("SIGKILL child"); // SIGKILL on unix
        let _ = child.wait();
    }
    let survivors = rpav_files(&kill_dir).len();
    println!(
        "kill/resume: child {} with {survivors}/{kn} cells durable",
        if child_finished {
            "finished before the kill"
        } else {
            "SIGKILLed"
        }
    );

    // Uninterrupted reference (no cache) vs. resumed run (killed cache).
    let uninterrupted = CampaignEngine::new()
        .with_cache_dir(None)
        .with_jobs(4)
        .run(&kspec);
    let resumed = CampaignEngine::new()
        .with_cache_dir(Some(kill_dir.clone()))
        .with_jobs(4)
        .run(&kspec);
    assert_eq!(
        resumed.report.simulated,
        kn - resumed.report.cached,
        "resume must recompute exactly the unfinished cells"
    );
    assert!(
        resumed.report.cached >= 2,
        "the killed campaign's sealed records must be hit (got {})",
        resumed.report.cached
    );
    assert_same_results("resumed campaign", &uninterrupted, &resumed);
    assert!(
        std::fs::read_dir(&kill_dir)
            .unwrap()
            .filter_map(Result::ok)
            .all(|e| !e.file_name().to_string_lossy().starts_with("journal-")),
        "the sealed records are the only resume state"
    );
    println!(
        "kill/resume: {} cells served from the sealed records, {} recomputed — byte-identical",
        resumed.report.cached, resumed.report.simulated
    );
    let _ = std::fs::remove_dir_all(&kill_dir);

    // ---- (e) flat memory in streaming mode --------------------------
    let big = spec.clone().operators([Operator::P1, Operator::P2]).runs(4); // 4× the cells
    let engine = CampaignEngine::new().with_cache_dir(None).with_jobs(4);
    let s_small = engine.run_streaming(&spec);
    let s_big = engine.run_streaming(&big);
    assert!(s_small.failures.is_empty() && s_big.failures.is_empty());
    assert_eq!(
        s_small.report.aggregates.retained_bytes(),
        s_big.report.aggregates.retained_bytes(),
        "aggregate footprint must be flat as the matrix grows 4×"
    );
    // Keeping every outcome folds the same aggregates.
    assert_eq!(
        engine.run(&big).report.aggregates.to_bytes(),
        s_big.report.aggregates.to_bytes(),
        "streaming aggregates diverged from collect-mode aggregates"
    );
    println!(
        "flat memory: {} → {} cells, sketch footprint {} B both",
        s_small.report.cells,
        s_big.report.cells,
        s_big.report.aggregates.retained_bytes()
    );

    // ---- (f) stuck-cell watchdog ------------------------------------
    let engine = CampaignEngine::new()
        .with_cache_dir(None)
        .with_jobs(1)
        .with_stuck_budget(Duration::from_millis(1));
    let result = engine.run(&spec);
    assert_eq!(result.report.failed, 0, "the watchdog must never kill");
    assert!(
        result.report.stuck_flagged >= 1,
        "a 1 ms budget must flag at least one cell"
    );
    println!(
        "stuck watchdog: flagged {} cell(s), killed none",
        result.report.stuck_flagged
    );

    // ---- (g) daemon service: SIGKILL mid-campaign over HTTP ---------
    daemon_kill_resume(smoke);

    println!("\nAll resilience invariants hold.");
}

/// The kill/resume contract over the service path: batch reference →
/// live `rpavd` → SIGKILL mid-campaign → restart on the same cache →
/// the HTTP-served aggregates converge byte-identically.
fn daemon_kill_resume(smoke: bool) {
    use rpav_daemon::client;
    const T: Duration = Duration::from_secs(600);

    let spec = rpav_bench::resilience_kill_spec(smoke);
    let id = format!("{:016x}", spec.identity());
    let batch = CampaignEngine::new()
        .with_cache_dir(None)
        .with_jobs(4)
        .run_streaming(&spec.to_matrix())
        .report
        .aggregates
        .to_bytes();

    let exe = std::env::current_exe().expect("current_exe");
    let rpavd = exe.parent().expect("bin dir").join("rpavd");
    assert!(
        rpavd.exists(),
        "rpavd not found at {} — build the workspace first (`cargo build --release`)",
        rpavd.display()
    );
    let dir = fresh_dir("daemon");
    std::fs::create_dir_all(&dir).unwrap();

    // Start rpavd on an ephemeral port, jobs=1 so the campaign is slow
    // enough to observe partial completion; discover the bound address
    // through the port file.
    let start = |tag: &str| -> (std::process::Child, String) {
        let port_file = dir.join(format!("addr-{tag}"));
        let child = std::process::Command::new(&rpavd)
            .args(["--addr", "127.0.0.1:0", "--jobs", "1"])
            .arg("--cache")
            .arg(&dir)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn rpavd");
        let addr = poll("rpavd wrote no port file", 60, || {
            let addr = std::fs::read_to_string(&port_file).ok()?;
            Some(addr.trim().to_string()).filter(|a| !a.is_empty())
        });
        (child, addr)
    };

    let (mut victim, addr) = start("victim");
    let r = client::post_json(&addr, "/campaigns", &spec.to_json(), T).expect("POST /campaigns");
    assert_eq!(r.status, 201, "submit failed: {}", r.text());

    // Wait for partial durable progress, then SIGKILL the daemon.
    poll("daemon cached < 2 cells", 180, || {
        (rpav_files(&dir).len() >= 2).then_some(())
    });
    victim.kill().expect("SIGKILL rpavd"); // SIGKILL on unix
    let _ = victim.wait();
    let survivors = rpav_files(&dir).len();

    // Restart on the same cache: the spec archive re-enqueues the
    // campaign, the sealed records resume it, and the served
    // aggregates must match the batch run byte-for-byte.
    let (mut revived, addr) = start("revived");
    let agg =
        client::get(&addr, &format!("/campaigns/{id}/aggregates"), T).expect("GET aggregates");
    assert_eq!(agg.status, 200);
    assert_eq!(
        agg.body, batch,
        "restarted daemon served aggregates that diverge from batch mode"
    );
    let status = client::get(&addr, &format!("/campaigns/{id}"), T).expect("GET status");
    assert!(
        status.text().contains("\"status\":\"done\""),
        "campaign not done after resume: {}",
        status.text()
    );
    let metrics = client::get(&addr, "/metrics", T).expect("GET metrics");
    assert_eq!(metrics.status, 200);

    revived.kill().expect("kill rpavd");
    let _ = revived.wait();
    println!(
        "daemon kill/resume: SIGKILLed with {survivors} cells durable; \
         restart served byte-identical aggregates over HTTP"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
