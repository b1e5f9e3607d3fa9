//! `rpavd` — run the campaign daemon.
//!
//! ```sh
//! rpavd --addr 127.0.0.1:8790 --cache target/rpavd-cache
//! curl -d @campaign.json http://127.0.0.1:8790/campaigns
//! ```
//!
//! `--addr host:0` binds an ephemeral port; `--port-file <path>` writes
//! the bound address (atomically) for harnesses that need to discover
//! it. `--jobs N` overrides every spec's worker count.

use std::io::Write as _;
use std::net::TcpListener;
use std::path::PathBuf;

use rpav_core::exec::write_atomic;
use rpav_daemon::{Daemon, DaemonConfig};
use rpav_sim::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: rpavd [--addr HOST:PORT] [--cache DIR] [--jobs N] [--port-file PATH]";

fn fail(msg: &str) -> ! {
    eprintln!("rpavd: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:8790".to_string();
    let mut cache_dir = PathBuf::from("target/rpavd-cache");
    let mut jobs = None;
    let mut port_file: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--cache" => cache_dir = PathBuf::from(value("--cache")),
            "--jobs" => match value("--jobs").parse::<usize>() {
                Ok(n) if n > 0 => jobs = Some(n),
                _ => fail("--jobs needs a positive integer"),
            },
            "--port-file" => port_file = Some(PathBuf::from(value("--port-file"))),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    let listener =
        TcpListener::bind(&addr).unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")));
    let bound = listener
        .local_addr()
        .unwrap_or_else(|e| fail(&format!("no local address: {e}")));

    if let Some(path) = &port_file {
        // Atomic write: harnesses poll for this file and must never read
        // a partial address.
        if let Err(e) = write_atomic(path, |f| writeln!(f, "{bound}")) {
            fail(&format!("cannot write port file {}: {e}", path.display()));
        }
    }

    let daemon = Daemon::new(DaemonConfig {
        cache_dir: cache_dir.clone(),
        jobs,
    })
    .unwrap_or_else(|e| fail(&format!("cannot start daemon: {e}")));

    eprintln!(
        "rpavd: listening on http://{bound} (cache {}, {} campaign(s) recovered)",
        cache_dir.display(),
        daemon.campaign_count()
    );
    if let Err(e) = daemon.serve(listener) {
        fail(&format!("accept loop failed: {e}"));
    }
}
