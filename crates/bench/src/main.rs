//! `rpav-bench` — every figure regenerator and acceptance matrix behind
//! one executable; `USAGE` below is its command line.
//!
//! `--smoke` is the one mode flag: it shrinks a suite's sweep to CI size
//! (suites without a smaller sweep ignore it) and may stand before or
//! after the suite name. `RPAV_RUNS`, `RPAV_SEED`, `RPAV_JOBS` and
//! `RPAV_CACHE` act as documented in the library.

mod suites;

use std::path::PathBuf;

use suites::{Suite, SUITES};

// `perf_matrix` reads its `allocs` from the counting allocator, as
// in `rpavd` and the benchmark.
#[global_allocator]
static GLOBAL: rpav_sim::alloc::CountingAlloc = rpav_sim::alloc::CountingAlloc;

const USAGE: &str = "usage: rpav-bench <suite> [--smoke]
       rpav-bench perf_matrix [--smoke] [--check <baseline.json>] [--out <file>]
       rpav-bench list";

/// What the command line tells a suite.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    /// Shrink the sweep to CI size.
    pub smoke: bool,
    /// `perf_matrix`: the baseline to gate this run against.
    pub check: Option<PathBuf>,
    /// `perf_matrix`: where to write this run's JSON.
    pub out: Option<PathBuf>,
}

enum Command {
    Help,
    List,
    Run(&'static Suite, Args),
}

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut argv = argv.into_iter();
    let mut args = Args::default();
    let mut name = None;
    while let Some(arg) = argv.next() {
        let mut file = || {
            let value = argv.next().ok_or(format!("{arg} needs a file"))?;
            Ok::<_, String>(Some(PathBuf::from(value)))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--smoke" => args.smoke = true,
            "--check" => args.check = file()?,
            "--out" => args.out = file()?,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ if name.is_none() => name = Some(arg),
            _ => return Err(format!("unexpected argument {arg}")),
        }
    }
    let name = name.ok_or("missing suite name")?;
    if name == "list" {
        return Ok(Command::List);
    }
    let suite = SUITES
        .iter()
        .find(|(n, ..)| *n == name)
        .ok_or(format!("unknown suite {name}"))?;
    if name != "perf_matrix" && (args.check.is_some() || args.out.is_some()) {
        return Err(format!("{name} takes neither --check nor --out"));
    }
    Ok(Command::Run(suite, args))
}

fn print_suites(mut w: impl std::io::Write) {
    let _ = writeln!(w, "{USAGE}\n\nsuites:");
    for (name, about, _) in SUITES {
        let _ = writeln!(w, "  {name:<24}{about}");
    }
}

fn main() {
    match parse(std::env::args().skip(1)) {
        Ok(Command::Help) => print_suites(std::io::stdout()),
        Ok(Command::List) => {
            for (name, ..) in SUITES {
                println!("{name}");
            }
        }
        Ok(Command::Run(suite, args)) => (suite.2)(&args),
        Err(msg) => {
            eprintln!("rpav-bench: {msg}");
            print_suites(std::io::stderr());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The suite name and arguments a command line runs, or why not.
    fn run_of(words: &[&str]) -> Result<(&'static str, Args), String> {
        match parse(words.iter().map(|w| w.to_string()))? {
            Command::Run(suite, args) => Ok((suite.0, args)),
            Command::Help | Command::List => Err("not a run".into()),
        }
    }

    #[test]
    fn smoke_is_accepted_before_and_after_the_suite_name() {
        let args = |smoke| Args {
            smoke,
            ..Args::default()
        };
        assert_eq!(run_of(&["chaos_matrix"]), Ok(("chaos_matrix", args(false))));
        for words in [["chaos_matrix", "--smoke"], ["--smoke", "chaos_matrix"]] {
            assert_eq!(run_of(&words), Ok(("chaos_matrix", args(true))));
        }
    }

    #[test]
    fn check_and_out_belong_to_perf_matrix() {
        let words = ["perf_matrix", "--check", "base.json", "--out", "now.json"];
        let args = Args {
            smoke: false,
            check: Some("base.json".into()),
            out: Some("now.json".into()),
        };
        assert_eq!(run_of(&words), Ok(("perf_matrix", args)));
        assert!(run_of(&["perf_matrix", "--check"]).is_err());
        assert!(run_of(&["fig06_goodput", "--out", "x"]).is_err());
    }

    #[test]
    fn bad_command_lines_are_errors() {
        let err = |words: &[&str]| run_of(words).unwrap_err();
        assert_eq!(err(&[]), "missing suite name");
        assert_eq!(err(&["--smoke"]), "missing suite name");
        assert_eq!(err(&["chaos_matrix", "--quick"]), "unknown flag --quick");
        assert_eq!(err(&["no_such_suite"]), "unknown suite no_such_suite");
        assert_eq!(err(&["chaos_matrix", "extra"]), "unexpected argument extra");
    }
}
