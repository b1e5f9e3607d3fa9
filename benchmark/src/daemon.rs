//! The `rpavd` child process: spawn, discover its port, and make sure it
//! is gone again — on success, on a failed check, on a timeout and on a
//! panic alike (the guard kills and reaps in `Drop`).

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Per-request socket timeout, and the budget for the port file to
/// appear. Generous: a timeout is a failed operation, not a measurement.
pub const TIMEOUT: Duration = Duration::from_secs(60);

pub struct Rpavd {
    child: Child,
    /// `host:port` the daemon bound.
    pub addr: String,
    /// When `spawn` was called: the origin of restart-to-serving times.
    pub spawned: Instant,
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` works) in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

impl Rpavd {
    /// Start `rpavd --addr 127.0.0.1:0 --jobs <jobs>` on `cache`, with
    /// its port file and log under `scratch`, and wait for the port.
    pub fn spawn(bin: &Path, cache: &Path, scratch: &Path, jobs: usize) -> io::Result<Rpavd> {
        let port_file: PathBuf = scratch.join("rpavd.port");
        let _ = std::fs::remove_file(&port_file);
        let log = File::create(scratch.join("rpavd.log"))?;
        let spawned = Instant::now();
        let child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--cache")
            .arg(cache)
            .arg("--jobs")
            .arg(jobs.to_string())
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(log))
            .spawn()?;
        // From here the guard owns the child: any early return reaps it.
        let mut daemon = Rpavd {
            child,
            addr: String::new(),
            spawned,
        };
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                let addr = text.trim();
                if !addr.is_empty() {
                    daemon.addr = addr.to_string();
                    return Ok(daemon);
                }
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "rpavd exited before binding ({status}); see {}",
                    scratch.join("rpavd.log").display()
                )));
            }
            if spawned.elapsed() > TIMEOUT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "rpavd wrote no port file",
                ));
            }
            std::thread::sleep(Duration::from_micros(250));
        }
    }

    /// Peak resident set of the child so far, MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(&self.child.id().to_string())
    }
}

impl Drop for Rpavd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
