//! What one workload run produced, and how it is printed.
//!
//! A run prints, in this order: a table a person can read; one line
//! holding the full report as JSON (every metric with unit, value,
//! median, quartiles and sample count, plus the `stats_digest`); and —
//! last — the one-line result object of the driver's contract.

use std::path::Path;

use rpav_core::json::{self, Json};

use crate::stats;

/// One named metric of a run.
#[derive(Clone, Debug)]
pub struct Sample {
    pub name: &'static str,
    pub unit: &'static str,
    /// The number the run stands for: what the result line carries and
    /// what two runs are compared by.
    pub value: f64,
    /// Per-pass (or per-probe-cell) observations behind `value`; a
    /// single entry for a single reading.
    pub samples: Vec<f64>,
}

impl Sample {
    /// A metric whose value is the median of its samples.
    pub fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Sample {
            name,
            unit,
            value: stats::median(&samples),
            samples,
        }
    }

    /// A single reading: an exact count, a ratio of exact counts, or a
    /// time taken once in the run.
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Self {
        Sample {
            name,
            unit,
            value,
            samples: vec![value],
        }
    }

    /// A value formed otherwise than as the median of the passes — a
    /// rate computed from the run's fastest pass (README.md, "How a run's
    /// value is formed"). `samples` are the whole passes, so the table
    /// still shows their median and quartiles.
    pub fn beside_passes(
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: Vec<f64>,
    ) -> Self {
        Sample {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Counts operations and remembers the first failures.
#[derive(Default)]
pub struct Oracle {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Oracle {
    /// One attempted operation; `ok == false` counts it as failed.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// `n` operations that succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// A failure found on an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    /// An invariant that is not an operation of its own: it fails the
    /// run without adding to `attempted`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub passes: usize,
    pub oracle: Oracle,
    /// FNV-1a over every cell's `RunMetrics::to_bytes()` digest (and the
    /// aggregate bytes where the workload has them): two commits that
    /// print the same digest simulated the same statistics.
    pub stats_digest: u64,
    pub metrics: Vec<Sample>,
    /// Numbers printed for context that are not metrics of the contract
    /// (crate build time is printed by `run.sh`).
    pub info: Vec<(&'static str, f64, &'static str)>,
}

fn num(x: f64) -> Json {
    if x.is_finite() {
        Json::Float(x)
    } else {
        Json::Null
    }
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.oracle.failed == 0
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, values as measured.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|s| {
                (
                    s.name,
                    json::obj(vec![
                        ("value", num(s.value)),
                        ("unit", Json::Str(s.unit.into())),
                    ]),
                )
            })
            .collect();
        json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.oracle.attempted.max(1))),
            ("failed", Json::UInt(self.oracle.failed)),
            ("metrics", json::obj(metrics)),
        ])
        .canonical()
    }

    /// The full report as one JSON line.
    pub fn report_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|s| {
                let (q1, med, q3) = stats::quartiles(&s.samples);
                let tail = match stats::supported_tail(&s.samples) {
                    Some((p, v)) => json::obj(vec![("p", num(p)), ("value", num(v))]),
                    None => Json::Null,
                };
                (
                    s.name,
                    json::obj(vec![
                        ("unit", Json::Str(s.unit.into())),
                        ("value", num(s.value)),
                        ("median", num(med)),
                        ("q1", num(q1)),
                        ("q3", num(q3)),
                        ("n", Json::UInt(s.samples.len() as u64)),
                        ("tail", tail),
                    ]),
                )
            })
            .collect();
        let info = self
            .info
            .iter()
            .map(|(k, v, unit)| {
                (
                    *k,
                    json::obj(vec![
                        ("value", num(*v)),
                        ("unit", Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect();
        json::obj(vec![
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::UInt(self.seed)),
            ("trace", Json::Bool(self.traced)),
            ("passes", Json::UInt(self.passes as u64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.oracle.attempted.max(1))),
            ("failed", Json::UInt(self.oracle.failed)),
            (
                "failed_share",
                num(self.oracle.failed as f64 / self.oracle.attempted.max(1) as f64),
            ),
            (
                "failures",
                Json::Array(
                    self.oracle
                        .failures
                        .iter()
                        .map(|f| Json::Str(f.clone()))
                        .collect(),
                ),
            ),
            (
                "stats_digest",
                Json::Str(format!("{:016x}", self.stats_digest)),
            ),
            ("metrics", json::obj(metrics)),
            ("info", json::obj(info)),
        ])
        .canonical()
    }

    /// The table for people.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} — seed {:#x}, {} pass(es), {} run\n",
            self.workload,
            self.seed,
            self.passes,
            if self.traced { "traced" } else { "untraced" }
        );
        out.push_str(&format!(
            "{:<34} {:>8} {:>14} {:>14} {:>14} {:>14} {:>4}  tail\n",
            "metric", "unit", "value", "median", "q1", "q3", "n"
        ));
        for s in &self.metrics {
            let (q1, med, q3) = stats::quartiles(&s.samples);
            let tail = stats::supported_tail(&s.samples)
                .map(|(p, v)| format!("p{p} {}", fmt(v)))
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{:<34} {:>8} {:>14} {:>14} {:>14} {:>14} {:>4}  {}\n",
                s.name,
                s.unit,
                fmt(s.value),
                fmt(med),
                fmt(q1),
                fmt(q3),
                s.samples.len(),
                tail
            ));
        }
        for (k, v, unit) in &self.info {
            out.push_str(&format!("   info {k}: {} {unit}\n", fmt(*v)));
        }
        out.push_str(&format!(
            "   failed_share {}/{} = {}   stats_digest {:016x}\n",
            self.oracle.failed,
            self.oracle.attempted.max(1),
            fmt(self.oracle.failed as f64 / self.oracle.attempted.max(1) as f64),
            self.stats_digest
        ));
        for f in &self.oracle.failures {
            out.push_str(&format!("   FAILED: {f}\n"));
        }
        out
    }
}

/// Six significant digits, no exponent for everyday magnitudes.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1e6 || x.abs() < 1e-3 {
        format!("{x:.5e}")
    } else {
        let digits = (5 - x.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{x:.digits$}")
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the program reads back.
#[derive(Clone, Debug)]
pub struct Manifest {
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Manifest {
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` must be an array"))
        };
        let text_of = |j: &Json, key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: missing string `{key}`"))
        };
        let decls = |key: &str| -> Result<Vec<MetricDecl>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDecl {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: text_of(m, "better")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: `run_seconds` must be a whole number")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: decls("end_to_end")?,
            per_layer: decls("per_layer")?,
        })
    }

    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Manifest::parse(&text)
    }
}
