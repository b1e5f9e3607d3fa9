//! The rpav benchmark (see `README.md` beside this crate).
//!
//! `--workload NAME` runs one workload in this process and ends with the
//! one-line result object of the driver's contract. Without it the
//! program runs every workload, each in a child process of its own, and
//! prints one table; `--trace`, `--selfcheck` and `--smoke` shape that.

mod daemon;
mod fixtures;
mod layers;
mod ndjson;
mod replay;
mod report;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use rpav_core::json::{self, Json};

use report::{fmt, Manifest};

// Allocation events are an end-to-end metric, so the benchmark binary —
// like `perf_matrix` and `rpavd` — runs on the counting allocator.
#[global_allocator]
static GLOBAL: rpav_sim::alloc::CountingAlloc = rpav_sim::alloc::CountingAlloc;

const USAGE: &str = "usage: rpav-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--selfcheck] [--smoke] [--list] --manifest BENCHMARK.json --rpavd PATH --out DIR";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    selfcheck: bool,
    smoke: bool,
    list: bool,
    manifest: PathBuf,
    rpavd: PathBuf,
    out: PathBuf,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: fixtures::DEFAULT_SEED,
        seconds: None,
        trace: false,
        selfcheck: false,
        smoke: false,
        list: false,
        manifest: PathBuf::from("BENCHMARK.json"),
        rpavd: PathBuf::from("rpavd"),
        out: PathBuf::from("benchmark/out"),
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        i += 1;
        let mut value = |name: &str| -> Result<String, String> {
            let v = argv
                .get(i)
                .cloned()
                .ok_or(format!("{name} needs a value"))?;
            i += 1;
            Ok(v)
        };
        match flag {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = parse_seed(&v).ok_or(format!("--seed: not a number: {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => Some(s),
                    _ => return Err(format!("--seconds: not a positive number: {v}")),
                };
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => match argv.get(i).map(String::as_str) {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--selfcheck" => args.selfcheck = true,
            "--smoke" => args.smoke = true,
            "--list" => args.list = true,
            "--manifest" => args.manifest = PathBuf::from(value("--manifest")?),
            "--rpavd" => args.rpavd = PathBuf::from(value("--rpavd")?),
            "--out" => args.out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The per-run temp directory; removed when the run ends, also by panic.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One workload in this process: the contract's mode.
fn run_one(args: &Args, manifest: &Manifest, name: &str) -> Result<bool, String> {
    let workload =
        fixtures::workload(name, args.seed).ok_or(format!("unknown workload {name:?}"))?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let scratch = Scratch(args.out.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let opts = run::Options {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(manifest.run_seconds as f64),
        trace: args.trace,
        smoke: args.smoke,
        scratch: scratch.0.clone(),
        rpavd: args.rpavd.clone(),
    };
    let mut tracer = trace::Tracer::new(args.trace);
    let mut outcome = run::run(&workload, &opts, &mut tracer);
    if args.trace {
        // A traced run reports the per-layer metrics; the end-to-end ones
        // always come from the untraced run. Its own passes are kept as
        // context, to put a number on the tracing overhead.
        let traced_cells_per_s = outcome
            .metrics
            .iter()
            .find(|s| s.name == "cells_per_s")
            .map_or(0.0, |s| s.value);
        let layered = layers::measure(&workload, &opts, &mut tracer, &mut outcome.oracle);
        outcome.metrics = layered.metrics;
        outcome
            .info
            .push(("traced_cells_per_s", traced_cells_per_s, "1/s"));
        let path = args.out.join(format!("trace-{name}.json"));
        let doc = json::obj(vec![
            ("workload", Json::Str(name.into())),
            ("seed", Json::UInt(args.seed)),
            ("layer_table", layered.table),
            ("trace", tracer.to_json()),
        ]);
        std::fs::write(&path, doc.canonical()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{}", layered.text);
        println!("   wrote {}", path.display());
    }
    print!("{}", outcome.table());
    println!("{}", outcome.report_line());
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

/// Run one workload in a child process and return its report object.
fn child_report(
    args: &Args,
    name: &str,
    seed: u64,
    trace: bool,
    seconds: f64,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--workload")
        .arg(name)
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--seconds")
        .arg(seconds.to_string())
        .arg("--trace")
        .arg(if trace { "1" } else { "0" })
        .arg("--manifest")
        .arg(&args.manifest)
        .arg("--rpavd")
        .arg(&args.rpavd)
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    if lines.len() < 2 {
        return Err(format!("{name}: no report ({})", output.status));
    }
    // Everything but the two machine-read lines is the child's table.
    for line in &lines[..lines.len() - 2] {
        println!("{line}");
    }
    Json::parse(lines[lines.len() - 2]).map_err(|e| format!("{name}: report line: {e}"))
}

fn metric_value(report: &Json, metric: &str) -> Option<f64> {
    report.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Every workload once (and once more traced, if asked). Returns the
/// untraced reports in workload order and whether all were correct.
fn run_all(args: &Args, manifest: &Manifest) -> Result<(Vec<Json>, bool), String> {
    let seconds = args.seconds.unwrap_or(manifest.run_seconds as f64);
    let mut reports = Vec::new();
    let mut traced_reports = Vec::new();
    let mut traces = Vec::new();
    let mut correct = true;
    for (name, _) in &manifest.workloads {
        let report = child_report(args, name, args.seed, false, seconds)?;
        correct &= report.get("correct").and_then(Json::as_bool) == Some(true);
        if args.trace {
            let traced = child_report(args, name, args.seed, true, seconds)?;
            correct &= traced.get("correct").and_then(Json::as_bool) == Some(true);
            let plain = metric_value(&report, "cells_per_s");
            let with = traced
                .get("info")
                .and_then(|i| i.get("traced_cells_per_s")?.get("value")?.as_f64());
            if let (Some(plain), Some(with)) = (plain, with) {
                println!(
                    "   trace_overhead {name}: {} % (cells_per_s {} untraced, {} traced)",
                    fmt((plain / with - 1.0) * 100.0),
                    fmt(plain),
                    fmt(with)
                );
            }
            let path = args.out.join(format!("trace-{name}.json"));
            if let Ok(text) = std::fs::read_to_string(&path) {
                if let Ok(doc) = Json::parse(&text) {
                    traces.push((name.clone(), doc));
                }
                let _ = std::fs::remove_file(&path);
            }
            traced_reports.push(traced);
        }
        reports.push(report);
    }
    // Every report object of this invocation, for whoever wants the
    // numbers without scraping tables (`BASELINE.json` is one of these).
    let path = args.out.join("report.json");
    let doc = json::obj(vec![
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::Float(seconds)),
        ("untraced", Json::Array(reports.clone())),
        ("traced", Json::Array(traced_reports)),
    ]);
    std::fs::write(&path, doc.canonical()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if args.trace {
        let path = args.out.join("trace.json");
        let doc = Json::Object(vec![
            ("seed".into(), Json::UInt(args.seed)),
            ("workloads".into(), Json::Object(traces)),
        ]);
        std::fs::write(&path, doc.canonical()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok((reports, correct))
}

/// How far apart two readings are, as a share of the smaller one.
fn apart(x: f64, y: f64) -> f64 {
    if x == y {
        0.0
    } else {
        (x - y).abs() / x.abs().min(y.abs())
    }
}

/// `--selfcheck`: the whole benchmark twice. Every end-to-end metric's
/// two values must lie within its bound of each other, whichever run
/// read better; every digest must be equal, and so must
/// `allocs_per_packet` where the work is single-threaded.
fn selfcheck(args: &Args, manifest: &Manifest) -> Result<bool, String> {
    let (first, ok_a) = run_all(args, manifest)?;
    let (second, ok_b) = run_all(args, manifest)?;
    let mut ok = ok_a && ok_b;
    println!("== selfcheck: the two runs against each other, per bound");
    for ((name, _), (a, b)) in manifest.workloads.iter().zip(first.iter().zip(&second)) {
        let digest = |r: &Json| {
            r.get("stats_digest")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        if digest(a) != digest(b) {
            println!("   {name}: stats_digest differs — FAIL");
            ok = false;
        }
        let single_threaded =
            fixtures::workload(name, args.seed).is_some_and(|w| w.kind == fixtures::Kind::Direct);
        for m in &manifest.end_to_end {
            let (Some(x), Some(y)) = (metric_value(a, &m.name), metric_value(b, &m.name)) else {
                println!("   {name} {}: missing — FAIL", m.name);
                ok = false;
                continue;
            };
            let exact = single_threaded && m.name == "allocs_per_packet";
            let bound = if exact { 0.0 } else { m.bound.unwrap_or(0.0) };
            let apart = apart(x, y);
            ok &= apart <= bound;
            println!(
                "   {name:<14} {:<20} {:>14} ↔ {:>14}  apart by {:>8} % (bound {}) {}",
                m.name,
                fmt(x),
                fmt(y),
                fmt(apart * 100.0),
                if exact {
                    "exact".to_string()
                } else {
                    format!("{} %", fmt(bound * 100.0))
                },
                if apart <= bound { "ok" } else { "FAIL" }
            );
        }
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    let manifest = Manifest::load(&args.manifest)?;
    if args.list {
        for (name, why) in &manifest.workloads {
            println!("{name}: {why}");
        }
        println!("end-to-end metrics (bound = share of the parent's median it may worsen by):");
        for m in &manifest.end_to_end {
            let bound = m
                .bound
                .map_or_else(String::new, |b| format!(", bound {} %", fmt(b * 100.0)));
            println!("   {} [{}], {} is better{bound}", m.name, m.unit, m.better);
        }
        println!(
            "per-layer metrics (traced run, no bound): {}",
            manifest
                .per_layer
                .iter()
                .map(|m| format!("{} [{}]", m.name, m.unit))
                .collect::<Vec<_>>()
                .join(", ")
        );
        return Ok(true);
    }
    if !args.rpavd.is_file() {
        return Err(format!(
            "rpavd binary not found at {}",
            args.rpavd.display()
        ));
    }
    println!(
        "rpav benchmark — seed {:#x} (held-out seed {:#x}), {} core(s), jobs {}",
        args.seed,
        fixtures::HELD_OUT_SEED,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        fixtures::JOBS
    );
    match &args.workload {
        // Incorrect outputs are reported in the result line (`correct:
        // false`); the run itself completed.
        Some(name) => run_one(&args, &manifest, name).map(|_| true),
        None if args.selfcheck => selfcheck(&args, &manifest),
        None => run_all(&args, &manifest).map(|(_, ok)| ok),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rpav-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::MetricDecl;

    fn manifest() -> Manifest {
        Manifest::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    /// The contract's rule for names: a letter or digit first, then at
    /// most 64 of `[A-Za-z0-9_.-]`.
    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn manifest_keeps_the_contracts_limits() {
        let m = manifest();
        assert!((1..=60).contains(&m.run_seconds));
        assert!((2..=8).contains(&m.workloads.len()));
        assert!((1..=16).contains(&m.end_to_end.len()));
        assert!((1..=128).contains(&m.per_layer.len()));
        let mut names: Vec<&str> = Vec::new();
        for (name, why) in &m.workloads {
            assert!(name_ok(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
            names.push(name);
        }
        for d in m.end_to_end.iter().chain(&m.per_layer) {
            assert!(name_ok(&d.name), "{}", d.name);
            assert!(unit_ok(&d.unit), "{}: unit {}", d.name, d.unit);
            assert!(d.better == "lower" || d.better == "higher", "{}", d.name);
            names.push(&d.name);
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for d in &m.end_to_end {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        }
        assert!(m.per_layer.iter().all(|d| d.bound.is_none()));
        let setup = m.end_to_end.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let widest = m
            .end_to_end
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
    }

    #[test]
    fn manifest_and_code_declare_the_same_things() {
        let m = manifest();
        let workloads: Vec<&str> = m.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(workloads, fixtures::WORKLOADS);
        for name in workloads {
            assert!(fixtures::workload(name, 1).is_some(), "{name}");
        }
        let declared = |d: &[MetricDecl]| -> Vec<(String, String)> {
            d.iter().map(|d| (d.name.clone(), d.unit.clone())).collect()
        };
        let measured = |s: &[report::Sample]| -> Vec<(String, String)> {
            s.iter()
                .map(|s| (s.name.to_string(), s.unit.to_string()))
                .collect()
        };
        assert_eq!(
            declared(&m.end_to_end),
            measured(&run::tests::sample_outcome().metrics)
        );
        assert_eq!(
            declared(&m.per_layer),
            measured(&layers::tests::empty_metrics())
        );
        for (decl, (_, _, better)) in m.per_layer.iter().zip(layers::PER_LAYER) {
            assert_eq!(decl.better, better, "{}", decl.name);
        }
    }

    #[test]
    fn printed_report_parses_and_names_only_declared_metrics() {
        let m = manifest();
        let mut traced = run::tests::sample_outcome();
        traced.traced = true;
        traced.metrics = layers::tests::empty_metrics();
        for (outcome, declared) in [
            (run::tests::sample_outcome(), &m.end_to_end),
            (traced, &m.per_layer),
        ] {
            // The contract's result line: exactly four keys.
            let result = Json::parse(&outcome.result_line()).expect("result line parses");
            let keys: Vec<&str> = result
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("attempted").and_then(Json::as_u64), Some(42));
            let metrics = result.get("metrics").unwrap().as_object().unwrap();
            assert_eq!(metrics.len(), declared.len());
            for (name, body) in metrics {
                let decl = declared
                    .iter()
                    .find(|d| &d.name == name)
                    .unwrap_or_else(|| panic!("{name} is not in BENCHMARK.json"));
                assert!(name_ok(name));
                assert_eq!(
                    body.get("unit").and_then(Json::as_str),
                    Some(decl.unit.as_str())
                );
                assert!(body.get("value").and_then(Json::as_f64).is_some(), "{name}");
            }
            // The full report line.
            let report = Json::parse(&outcome.report_line()).expect("report line parses");
            let workload = report.get("workload").and_then(Json::as_str).unwrap();
            assert!(name_ok(workload) && m.workloads.iter().any(|(n, _)| n == workload));
            assert_eq!(report.get("seed").and_then(Json::as_u64), Some(7));
            assert_eq!(
                report.get("stats_digest").and_then(Json::as_str),
                Some("00000000deadbeef")
            );
            for (name, body) in report.get("metrics").unwrap().as_object().unwrap() {
                assert!(declared.iter().any(|d| &d.name == name), "{name}");
                for key in ["value", "median", "q1", "q3"] {
                    assert!(
                        body.get(key).and_then(Json::as_f64).is_some(),
                        "{name}.{key}"
                    );
                }
                assert!(body.get("n").and_then(Json::as_u64).is_some_and(|n| n >= 1));
            }
            // The table names every metric with its unit.
            let table = outcome.table();
            for d in declared {
                assert!(
                    table.contains(&d.name) && table.contains(&d.unit),
                    "{}",
                    d.name
                );
            }
            assert!(table.contains("seed 0x7") && table.contains("stats_digest"));
        }
    }

    #[test]
    fn trace_flag_takes_the_drivers_value_or_none() {
        let a = parse_args(&argv(&[
            "--workload",
            "single_air",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert!(!a.trace);
        assert_eq!(
            (a.seed, a.seconds, a.workload.as_deref()),
            (7, Some(10.0), Some("single_air"))
        );
        assert!(parse_args(&argv(&["--trace", "1"])).unwrap().trace);
        let bare = parse_args(&argv(&["--trace", "--smoke"])).unwrap();
        assert!(bare.trace && bare.smoke);
        assert!(parse_args(&argv(&["--trace"])).unwrap().trace);
        assert_eq!(
            parse_args(&argv(&["--seed", "0x1AC2022"])).unwrap().seed,
            fixtures::DEFAULT_SEED
        );
        assert!(parse_args(&argv(&["--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["--bogus"])).is_err());
    }

    #[test]
    fn selfcheck_distance_does_not_care_which_run_read_better() {
        assert_eq!(apart(100.0, 140.0), 0.4);
        assert_eq!(apart(140.0, 100.0), 0.4);
        assert_eq!(apart(0.0, 0.0), 0.0);
        assert_eq!(apart(5e-4, 5e-4), 0.0);
        assert!(
            apart(0.0, 1.0) > 1e9,
            "a zero against a non-zero never passes"
        );
    }

    #[test]
    fn failures_make_a_run_incorrect_and_count_in_the_share() {
        let mut outcome = run::tests::sample_outcome();
        outcome
            .oracle
            .attempt(false, || "cell 3: digest differs".into());
        assert!(!outcome.correct());
        let result = Json::parse(&outcome.result_line()).unwrap();
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(1));
        assert_eq!(result.get("attempted").and_then(Json::as_u64), Some(43));
        assert!(outcome.table().contains("FAILED: cell 3: digest differs"));
    }
}
