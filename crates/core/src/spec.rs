//! `CampaignSpec` — the versioned, canonical external representation of a
//! campaign.
//!
//! A campaign used to exist only as Rust constructor calls inside each
//! bench binary: a [`MatrixSpec`] built in code, an [`ExperimentConfig`]
//! base, and engine knobs smeared across ad-hoc `RPAV_*` env vars. The
//! daemon needs all of that *on the wire*, so this module defines the one
//! cross-process shape:
//!
//! * a `spec_version` field (documents reject unknown versions),
//! * **unknown-field rejection** at every object level (a typo'd knob is a
//!   typed [`SpecError`], never a silently-ignored default),
//! * **byte-stable canonical serialization** — [`CampaignSpec::to_json`]
//!   emits every field (defaults included) through the canonical
//!   [`Json`] serializer, so `from_json(to_json(s)).to_json() ==
//!   to_json(s)` bytewise and [`CampaignSpec::identity`] (FNV-1a over the
//!   canonical bytes) is a stable campaign identity.
//!
//! The identity chain: canonical bytes are stable → the [`to_matrix`]
//! expansion is a pure function of the spec → every [`Cell::key`] is a
//! pure function of the expansion — so one `CampaignSpec` JSON document,
//! wherever it is parsed, lands on the same cache entries, which is all
//! resuming it takes.
//!
//! One retired key is still *accepted and ignored*: `options.batch`,
//! which every document archived before cell batching was deleted
//! carries. It is never emitted, so canonical bytes (and identities)
//! differ from those older builds' by exactly that key.
//!
//! [`to_matrix`]: CampaignSpec::to_matrix
//! [`Cell::key`]: crate::exec::Cell::key

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use rpav_lte::{Environment, Operator};
use rpav_netem::{FaultClause, FaultScript, PacketKind};
use rpav_sim::{SimDuration, SimTime, WatchdogConfig};

use crate::codec::fnv1a;
use crate::exec::{CcAxis, CellFault, EngineOptions, MatrixSpec, RunScheme};
use crate::json::{Json, JsonError};
use crate::multipath::MultipathScheme;
use crate::scenario::{CcMode, ExperimentConfig, Mobility};

/// The wire-format version this build emits and accepts.
pub const SPEC_VERSION: u64 = 1;

/// The largest cross-product a wire-submitted campaign may expand to.
/// [`CampaignSpec::from_json`] rejects anything larger *before* the spec
/// can be persisted or expanded, so a hostile `{"runs": u64::MAX}` is a
/// typed 400, not an allocation abort inside the daemon.
pub const MAX_CELLS: u64 = 1 << 20;

/// The longest `hold_us` one wire-submitted cell may ask for (the paper's
/// flights hold 5 s in the air, 45 s on the ground). [`MAX_CELLS`] bounds
/// how many cells a document expands to; this and [`MAX_GROUND_SWEEPS`]
/// bound what one cell costs, so a hostile `hold_us` cannot park the
/// daemon's executor on a multi-year simulation.
pub const MAX_HOLD: SimDuration = SimDuration::from_secs(600);

/// The most `ground_sweeps` one wire-submitted cell may ask for (the
/// paper's ground runs sweep 3 times). The mobility profile allocates per
/// sweep, so an unbounded count is an allocation abort — which no
/// `catch_unwind` sees — replayed from the spec archive on every restart.
pub const MAX_GROUND_SWEEPS: u64 = 64;

/// Typed failures of [`CampaignSpec::from_json`]. Every variant names the
/// JSON path of the offending field, so a daemon 400 response can point at
/// the culprit.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// `spec_version` is present but not one this build understands.
    UnsupportedVersion {
        /// The version the document claimed.
        found: u64,
    },
    /// A required field is absent (`spec_version` is the only one).
    MissingField {
        /// JSON path of the absent field.
        path: String,
    },
    /// A field this schema does not define — typos must not silently
    /// become defaults.
    UnknownField {
        /// JSON path of the rejected field.
        path: String,
    },
    /// A field holds the wrong JSON type or an out-of-domain value.
    BadValue {
        /// JSON path of the field.
        path: String,
        /// What the schema wanted there.
        want: &'static str,
    },
    /// The axis cross-product (× `runs`) expands past [`MAX_CELLS`] — or
    /// overflows `u64` entirely. Caught at parse time so the document can
    /// never reach expansion or the spec archive.
    TooManyCells {
        /// The expanded count, when it fits in a `u64`.
        cells: Option<u64>,
        /// The cap it exceeded ([`MAX_CELLS`]).
        max: u64,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid JSON: {e}"),
            SpecError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported spec_version {found} (this build speaks {SPEC_VERSION})"
                )
            }
            SpecError::MissingField { path } => write!(f, "missing required field `{path}`"),
            SpecError::UnknownField { path } => write!(f, "unknown field `{path}`"),
            SpecError::BadValue { path, want } => {
                write!(f, "bad value at `{path}`: expected {want}")
            }
            SpecError::TooManyCells { cells, max } => match cells {
                Some(n) => write!(f, "campaign expands to {n} cells (max {max})"),
                None => write!(f, "campaign cell count overflows u64 (max {max})"),
            },
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

/// A complete, self-contained campaign: a [`MatrixSpec`] (the axes over a
/// base [`ExperimentConfig`]) and the [`EngineOptions`] to execute it
/// under.
///
/// In-process, build one with the fluent methods, which forward to
/// [`MatrixSpec`]'s. Across processes, [`to_json`](Self::to_json) /
/// [`from_json`](Self::from_json) are the *only* construction path — the
/// JSON document is the API.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    matrix: MatrixSpec,
    options: EngineOptions,
}

impl CampaignSpec {
    /// A single-cell campaign of `base` under default engine options.
    pub fn new(base: ExperimentConfig) -> Self {
        CampaignSpec {
            matrix: MatrixSpec::new(base),
            options: EngineOptions::default(),
        }
    }

    fn axis(mut self, set: impl FnOnce(MatrixSpec) -> MatrixSpec) -> Self {
        self.matrix = set(self.matrix);
        self
    }

    /// Sweep flight environments.
    pub fn environments(self, envs: impl IntoIterator<Item = Environment>) -> Self {
        self.axis(|m| m.environments(envs))
    }

    /// Sweep cellular operators.
    pub fn operators(self, ops: impl IntoIterator<Item = Operator>) -> Self {
        self.axis(|m| m.operators(ops))
    }

    /// Sweep mobilities.
    pub fn mobilities(self, mobilities: impl IntoIterator<Item = Mobility>) -> Self {
        self.axis(|m| m.mobilities(mobilities))
    }

    /// Sweep an explicit CC list.
    pub fn ccs(self, ccs: impl IntoIterator<Item = CcMode>) -> Self {
        self.axis(|m| m.ccs(ccs))
    }

    /// Sweep the paper's three §3.2 workloads.
    pub fn paper_workloads(self) -> Self {
        self.axis(MatrixSpec::paper_workloads)
    }

    /// Sweep run schemes (mix pipeline and multipath cells).
    pub fn schemes(self, schemes: impl IntoIterator<Item = RunScheme>) -> Self {
        self.axis(|m| m.schemes(schemes))
    }

    /// Sweep multipath schemes.
    pub fn multipath_schemes(self, schemes: impl IntoIterator<Item = MultipathScheme>) -> Self {
        self.axis(|m| m.multipath_schemes(schemes))
    }

    /// Sweep named fault campaigns.
    pub fn faults(self, faults: impl IntoIterator<Item = CellFault>) -> Self {
        self.axis(|m| m.faults(faults))
    }

    /// Sweep the NACK/RTX repair switch.
    pub fn repairs(self, repairs: impl IntoIterator<Item = bool>) -> Self {
        self.axis(|m| m.repairs(repairs))
    }

    /// Seed-decorrelated runs per cell.
    pub fn runs(self, runs: u64) -> Self {
        self.axis(|m| m.runs(runs))
    }

    /// Replace the engine options.
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// The base configuration.
    pub fn base(&self) -> &ExperimentConfig {
        &self.matrix.base
    }

    /// The engine options the campaign asks for.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The [`MatrixSpec`] the engine executes. Two parses of the same
    /// canonical bytes hold identical matrices (and hence identical cache
    /// keys).
    pub fn to_matrix(&self) -> MatrixSpec {
        self.matrix.clone()
    }

    /// The campaign identity: FNV-1a over the canonical JSON bytes. The
    /// daemon keys campaigns (and their persisted spec documents) by it.
    pub fn identity(&self) -> u64 {
        fnv1a(self.to_json().as_bytes())
    }

    // ---- wire format ------------------------------------------------------

    /// Serialize to the canonical JSON document: every field present
    /// (defaults included), keys sorted, no whitespace. Byte-stable:
    /// re-parsing and re-serializing reproduces the identical bytes.
    pub fn to_json(&self) -> String {
        let m = &self.matrix;
        let ccs = match &m.ccs {
            CcAxis::Base => Json::Str("base".into()),
            CcAxis::PaperWorkloads => Json::Str("paper_workloads".into()),
            CcAxis::List(list) => Json::Array(list.iter().map(cc_to_json).collect()),
        };
        let doc = Json::Object(vec![
            ("spec_version".into(), Json::UInt(SPEC_VERSION)),
            ("base".into(), config_to_json(&m.base)),
            (
                "environments".into(),
                Json::Array(
                    m.environments
                        .iter()
                        .map(|e| Json::Str(env_name(*e).into()))
                        .collect(),
                ),
            ),
            (
                "operators".into(),
                Json::Array(
                    m.operators
                        .iter()
                        .map(|o| Json::Str(op_name(*o).into()))
                        .collect(),
                ),
            ),
            (
                "mobilities".into(),
                Json::Array(
                    m.mobilities
                        .iter()
                        .map(|mob| Json::Str(mob_name(*mob).into()))
                        .collect(),
                ),
            ),
            ("ccs".into(), ccs),
            (
                "schemes".into(),
                Json::Array(
                    m.schemes
                        .iter()
                        .map(|s| Json::Str(s.name().into()))
                        .collect(),
                ),
            ),
            (
                "faults".into(),
                Json::Array(m.faults.iter().map(fault_to_json).collect()),
            ),
            (
                "repairs".into(),
                Json::Array(m.repairs.iter().map(|&r| Json::Bool(r)).collect()),
            ),
            ("runs".into(), Json::UInt(m.runs)),
            ("options".into(), options_to_json(&self.options)),
        ]);
        doc.canonical()
    }

    /// Parse a `CampaignSpec` document. `spec_version` is required and
    /// must equal [`SPEC_VERSION`]; every other field defaults when
    /// absent; fields outside the schema are rejected.
    pub fn from_json(input: &str) -> Result<CampaignSpec, SpecError> {
        let doc = Json::parse(input)?;
        let fields = expect_obj(&doc, "")?;
        check_fields(
            fields,
            "",
            &[
                "spec_version",
                "base",
                "environments",
                "operators",
                "mobilities",
                "ccs",
                "schemes",
                "faults",
                "repairs",
                "runs",
                "options",
            ],
        )?;
        let version = match doc.get("spec_version") {
            None => {
                return Err(SpecError::MissingField {
                    path: "spec_version".into(),
                })
            }
            Some(v) => v.as_u64().ok_or(SpecError::BadValue {
                path: "spec_version".into(),
                want: "an unsigned integer",
            })?,
        };
        if version != SPEC_VERSION {
            return Err(SpecError::UnsupportedVersion { found: version });
        }

        let base = match doc.get("base") {
            Some(v) => config_from_json(v, "base")?,
            None => ExperimentConfig::builder().build(),
        };
        let environments = list_of(&doc, "environments", |v, p| {
            str_of(v, p).and_then(|s| env_from_name(s, p))
        })?;
        let operators = list_of(&doc, "operators", |v, p| {
            str_of(v, p).and_then(|s| op_from_name(s, p))
        })?;
        let mobilities = list_of(&doc, "mobilities", |v, p| {
            str_of(v, p).and_then(|s| mob_from_name(s, p))
        })?;
        let ccs = match doc.get("ccs") {
            None => CcAxis::Base,
            Some(Json::Str(s)) if s == "base" => CcAxis::Base,
            Some(Json::Str(s)) if s == "paper_workloads" => CcAxis::PaperWorkloads,
            Some(Json::Array(items)) => CcAxis::List(
                items
                    .iter()
                    .enumerate()
                    .map(|(i, v)| cc_from_json(v, &format!("ccs[{i}]")))
                    .collect::<Result<_, _>>()?,
            ),
            Some(_) => {
                return Err(SpecError::BadValue {
                    path: "ccs".into(),
                    want: "\"base\", \"paper_workloads\", or a CC list",
                })
            }
        };
        let schemes = list_of(&doc, "schemes", |v, p| {
            str_of(v, p).and_then(|s| scheme_from_name(s, p))
        })?;
        let faults = list_of(&doc, "faults", fault_from_json)?;
        let repairs = list_of(&doc, "repairs", bool_of)?;
        let runs = opt_u64(&doc, "runs")?.unwrap_or(1);
        let options = match doc.get("options") {
            Some(v) => options_from_json(v, "options")?,
            None => EngineOptions::default(),
        };

        let matrix = MatrixSpec {
            base,
            environments,
            operators,
            mobilities,
            ccs,
            schemes,
            faults,
            repairs,
            runs,
        };
        match matrix.cell_count() {
            Some(cells) if cells <= MAX_CELLS => Ok(CampaignSpec { matrix, options }),
            cells => Err(SpecError::TooManyCells {
                cells,
                max: MAX_CELLS,
            }),
        }
    }
}

// ---- leaf name tables -----------------------------------------------------

fn env_name(e: Environment) -> &'static str {
    match e {
        Environment::Urban => "urban",
        Environment::Rural => "rural",
    }
}

fn env_from_name(s: &str, path: &str) -> Result<Environment, SpecError> {
    match s {
        "urban" => Ok(Environment::Urban),
        "rural" => Ok(Environment::Rural),
        _ => Err(SpecError::BadValue {
            path: path.into(),
            want: "\"urban\" or \"rural\"",
        }),
    }
}

fn op_name(o: Operator) -> &'static str {
    match o {
        Operator::P1 => "p1",
        Operator::P2 => "p2",
    }
}

fn op_from_name(s: &str, path: &str) -> Result<Operator, SpecError> {
    match s {
        "p1" => Ok(Operator::P1),
        "p2" => Ok(Operator::P2),
        _ => Err(SpecError::BadValue {
            path: path.into(),
            want: "\"p1\" or \"p2\"",
        }),
    }
}

fn mob_name(m: Mobility) -> &'static str {
    match m {
        Mobility::Air => "air",
        Mobility::Ground => "ground",
    }
}

fn mob_from_name(s: &str, path: &str) -> Result<Mobility, SpecError> {
    match s {
        "air" => Ok(Mobility::Air),
        "ground" => Ok(Mobility::Ground),
        _ => Err(SpecError::BadValue {
            path: path.into(),
            want: "\"air\" or \"ground\"",
        }),
    }
}

fn scheme_from_name(s: &str, path: &str) -> Result<RunScheme, SpecError> {
    // Names match `RunScheme::name` exactly, so spec ↔ label vocabulary
    // never diverges.
    Ok(match s {
        "pipeline" => RunScheme::Pipeline,
        "single-path" => RunScheme::Multipath(MultipathScheme::SinglePath),
        "duplicate" => RunScheme::Multipath(MultipathScheme::Duplicate),
        "failover" => RunScheme::Multipath(MultipathScheme::Failover),
        "sel-duplicate" => RunScheme::Multipath(MultipathScheme::SelectiveDuplicate),
        "bonded" => RunScheme::Multipath(MultipathScheme::Bonded),
        _ => {
            return Err(SpecError::BadValue {
                path: path.into(),
                want: "a run-scheme name (\"pipeline\", \"single-path\", \"duplicate\", \"failover\", \"sel-duplicate\", \"bonded\")",
            })
        }
    })
}

fn kind_name(k: PacketKind) -> &'static str {
    match k {
        PacketKind::Media => "media",
        PacketKind::Feedback => "feedback",
        PacketKind::Probe => "probe",
    }
}

fn kind_from_name(s: &str, path: &str) -> Result<PacketKind, SpecError> {
    match s {
        "media" => Ok(PacketKind::Media),
        "feedback" => Ok(PacketKind::Feedback),
        "probe" => Ok(PacketKind::Probe),
        _ => Err(SpecError::BadValue {
            path: path.into(),
            want: "\"media\", \"feedback\", or \"probe\"",
        }),
    }
}

// ---- ExperimentConfig -----------------------------------------------------

fn cc_to_json(cc: &CcMode) -> Json {
    match cc {
        CcMode::Static { bitrate_bps } => Json::Object(vec![
            ("mode".into(), Json::Str("static".into())),
            ("bitrate_bps".into(), Json::Float(*bitrate_bps)),
        ]),
        CcMode::Gcc => Json::Object(vec![("mode".into(), Json::Str("gcc".into()))]),
        CcMode::Scream { ack_span } => Json::Object(vec![
            ("mode".into(), Json::Str("scream".into())),
            ("ack_span".into(), Json::UInt(*ack_span as u64)),
        ]),
    }
}

fn cc_from_json(v: &Json, path: &str) -> Result<CcMode, SpecError> {
    let fields = expect_obj(v, path)?;
    let mode = req_str(v, path, "mode")?;
    match mode {
        "static" => {
            check_fields(fields, path, &["mode", "bitrate_bps"])?;
            Ok(CcMode::Static {
                bitrate_bps: req_f64(v, path, "bitrate_bps")?,
            })
        }
        "gcc" => {
            check_fields(fields, path, &["mode"])?;
            Ok(CcMode::Gcc)
        }
        "scream" => {
            check_fields(fields, path, &["mode", "ack_span"])?;
            Ok(CcMode::Scream {
                ack_span: req_u64(v, path, "ack_span")? as usize,
            })
        }
        _ => Err(SpecError::BadValue {
            path: format!("{path}.mode"),
            want: "\"static\", \"gcc\", or \"scream\"",
        }),
    }
}

fn watchdog_to_json(w: &WatchdogConfig) -> Json {
    Json::Object(vec![
        ("enabled".into(), Json::Bool(w.enabled)),
        ("timeout_us".into(), Json::UInt(w.timeout.as_micros())),
        (
            "backoff_interval_us".into(),
            Json::UInt(w.backoff_interval.as_micros()),
        ),
        ("backoff_factor".into(), Json::Float(w.backoff_factor)),
        ("floor_bps".into(), Json::Float(w.floor_bps)),
        ("ramp_factor".into(), Json::Float(w.ramp_factor)),
    ])
}

fn watchdog_from_json(v: &Json, path: &str) -> Result<WatchdogConfig, SpecError> {
    let fields = expect_obj(v, path)?;
    check_fields(
        fields,
        path,
        &[
            "enabled",
            "timeout_us",
            "backoff_interval_us",
            "backoff_factor",
            "floor_bps",
            "ramp_factor",
        ],
    )?;
    let mut w = WatchdogConfig::default();
    if let Some(b) = opt_field(v, path, "enabled", bool_of)? {
        w.enabled = b;
    }
    if let Some(us) = opt_field(v, path, "timeout_us", u64_of)? {
        w.timeout = SimDuration::from_micros(us);
    }
    if let Some(us) = opt_field(v, path, "backoff_interval_us", u64_of)? {
        w.backoff_interval = SimDuration::from_micros(us);
    }
    if let Some(x) = opt_field(v, path, "backoff_factor", f64_of)? {
        w.backoff_factor = x;
    }
    if let Some(x) = opt_field(v, path, "floor_bps", f64_of)? {
        w.floor_bps = x;
    }
    if let Some(x) = opt_field(v, path, "ramp_factor", f64_of)? {
        w.ramp_factor = x;
    }
    Ok(w)
}

fn config_to_json(c: &ExperimentConfig) -> Json {
    Json::Object(vec![
        (
            "environment".into(),
            Json::Str(env_name(c.environment).into()),
        ),
        ("operator".into(), Json::Str(op_name(c.operator).into())),
        ("mobility".into(), Json::Str(mob_name(c.mobility).into())),
        ("cc".into(), cc_to_json(&c.cc)),
        ("seed".into(), Json::UInt(c.seed)),
        ("run_index".into(), Json::UInt(c.run_index)),
        ("hold_us".into(), Json::UInt(c.hold.as_micros())),
        ("ground_sweeps".into(), Json::UInt(c.ground_sweeps as u64)),
        ("drop_on_latency".into(), Json::Bool(c.drop_on_latency)),
        (
            "hysteresis_db".into(),
            c.hysteresis_override_db.map_or(Json::Null, Json::Float),
        ),
        (
            "ttt_ms".into(),
            c.ttt_override_ms.map_or(Json::Null, Json::UInt),
        ),
        (
            "jitter_target_ms".into(),
            c.jitter_target_override_ms.map_or(Json::Null, Json::UInt),
        ),
        ("watchdog".into(), watchdog_to_json(&c.watchdog)),
        ("repair".into(), Json::Bool(c.repair)),
        (
            "leg_cap_bps".into(),
            c.leg_cap_bps.map_or(Json::Null, |(a, b)| {
                Json::Array(vec![Json::Float(a), Json::Float(b)])
            }),
        ),
        ("fec_cap".into(), Json::Float(c.fec_cap)),
        ("n_legs".into(), Json::UInt(c.n_legs as u64)),
        ("coupled_cc".into(), Json::Bool(c.coupled_cc)),
    ])
}

fn config_from_json(v: &Json, path: &str) -> Result<ExperimentConfig, SpecError> {
    let fields = expect_obj(v, path)?;
    check_fields(
        fields,
        path,
        &[
            "environment",
            "operator",
            "mobility",
            "cc",
            "seed",
            "run_index",
            "hold_us",
            "ground_sweeps",
            "drop_on_latency",
            "hysteresis_db",
            "ttt_ms",
            "jitter_target_ms",
            "watchdog",
            "repair",
            "leg_cap_bps",
            "fec_cap",
            "n_legs",
            "coupled_cc",
        ],
    )?;
    let mut b = ExperimentConfig::builder();
    if let Some(s) = opt_field(v, path, "environment", str_owned)? {
        b = b.environment(env_from_name(&s, &format!("{path}.environment"))?);
    }
    if let Some(s) = opt_field(v, path, "operator", str_owned)? {
        b = b.operator(op_from_name(&s, &format!("{path}.operator"))?);
    }
    if let Some(s) = opt_field(v, path, "mobility", str_owned)? {
        b = b.mobility(mob_from_name(&s, &format!("{path}.mobility"))?);
    }
    if let Some(cc) = v.get("cc") {
        b = b.cc(cc_from_json(cc, &format!("{path}.cc"))?);
    }
    if let Some(seed) = opt_field(v, path, "seed", u64_of)? {
        b = b.seed(seed);
    }
    if let Some(r) = opt_field(v, path, "run_index", u64_of)? {
        b = b.run_index(r);
    }
    if let Some(us) = opt_field(v, path, "hold_us", u64_of)? {
        if us > MAX_HOLD.as_micros() {
            return Err(SpecError::BadValue {
                path: format!("{path}.hold_us"),
                want: "at most 600 s (MAX_HOLD)",
            });
        }
        b = b.hold(SimDuration::from_micros(us));
    }
    if let Some(n) = opt_field(v, path, "ground_sweeps", u64_of)? {
        if n > MAX_GROUND_SWEEPS {
            return Err(SpecError::BadValue {
                path: format!("{path}.ground_sweeps"),
                want: "at most 64 sweeps (MAX_GROUND_SWEEPS)",
            });
        }
        b = b.ground_sweeps(n as usize);
    }
    if let Some(on) = opt_field(v, path, "drop_on_latency", bool_of)? {
        b = b.drop_on_latency(on);
    }
    if let Some(db) = opt_nullable(v, path, "hysteresis_db", f64_of)? {
        b = b.hysteresis_db(db);
    }
    if let Some(ms) = opt_nullable(v, path, "ttt_ms", u64_of)? {
        b = b.ttt_ms(ms);
    }
    if let Some(ms) = opt_nullable(v, path, "jitter_target_ms", u64_of)? {
        b = b.jitter_target_ms(ms);
    }
    if let Some(w) = v.get("watchdog") {
        b = b.watchdog(watchdog_from_json(w, &format!("{path}.watchdog"))?);
    }
    if let Some(on) = opt_field(v, path, "repair", bool_of)? {
        b = b.repair(on);
    }
    if let Some(caps) = opt_nullable(v, path, "leg_cap_bps", |v, p| {
        let items = v.as_array().ok_or(SpecError::BadValue {
            path: p.into(),
            want: "null or [primary_bps, secondary_bps]",
        })?;
        if items.len() != 2 {
            return Err(SpecError::BadValue {
                path: p.into(),
                want: "null or [primary_bps, secondary_bps]",
            });
        }
        Ok((
            f64_of(&items[0], &format!("{p}[0]"))?,
            f64_of(&items[1], &format!("{p}[1]"))?,
        ))
    })? {
        b = b.leg_caps(caps.0, caps.1);
    }
    if let Some(cap) = opt_field(v, path, "fec_cap", f64_of)? {
        b = b.fec_cap(cap);
    }
    if let Some(n) = opt_field(v, path, "n_legs", u64_of)? {
        b = b.n_legs(n as usize);
    }
    if let Some(on) = opt_field(v, path, "coupled_cc", bool_of)? {
        b = b.coupled_cc(on);
    }
    Ok(b.build())
}

// ---- fault scripts --------------------------------------------------------

fn clause_to_json(clause: &FaultClause) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::new();
    let kind_field = |name: &'static str| (String::from("kind"), Json::Str(name.into()));
    match clause {
        FaultClause::Blackout { from, until } => {
            fields.push(kind_field("blackout"));
            fields.push(("from_us".into(), Json::UInt(from.as_micros())));
            fields.push(("until_us".into(), Json::UInt(until.as_micros())));
        }
        FaultClause::KindBlackout { from, until, kind } => {
            fields.push(kind_field("kind_blackout"));
            fields.push(("from_us".into(), Json::UInt(from.as_micros())));
            fields.push(("until_us".into(), Json::UInt(until.as_micros())));
            fields.push(("packet".into(), Json::Str(kind_name(*kind).into())));
        }
        FaultClause::Loss {
            from,
            until,
            prob,
            kind,
        } => {
            fields.push(kind_field("loss"));
            fields.push(("from_us".into(), Json::UInt(from.as_micros())));
            fields.push(("until_us".into(), Json::UInt(until.as_micros())));
            fields.push(("prob".into(), Json::Float(*prob)));
            fields.push((
                "packet".into(),
                kind.map_or(Json::Null, |k| Json::Str(kind_name(k).into())),
            ));
        }
        FaultClause::BurstLoss {
            from,
            until,
            p_enter,
            p_exit,
            loss_bad,
            kind,
        } => {
            fields.push(kind_field("burst_loss"));
            fields.push(("from_us".into(), Json::UInt(from.as_micros())));
            fields.push(("until_us".into(), Json::UInt(until.as_micros())));
            fields.push(("p_enter".into(), Json::Float(*p_enter)));
            fields.push(("p_exit".into(), Json::Float(*p_exit)));
            fields.push(("loss_bad".into(), Json::Float(*loss_bad)));
            fields.push((
                "packet".into(),
                kind.map_or(Json::Null, |k| Json::Str(kind_name(k).into())),
            ));
        }
        FaultClause::DelaySpike { from, until, extra } => {
            fields.push(kind_field("delay_spike"));
            fields.push(("from_us".into(), Json::UInt(from.as_micros())));
            fields.push(("until_us".into(), Json::UInt(until.as_micros())));
            fields.push(("extra_us".into(), Json::UInt(extra.as_micros())));
        }
        FaultClause::Duplicate {
            from,
            until,
            prob,
            kind,
        } => {
            fields.push(kind_field("duplicate"));
            fields.push(("from_us".into(), Json::UInt(from.as_micros())));
            fields.push(("until_us".into(), Json::UInt(until.as_micros())));
            fields.push(("prob".into(), Json::Float(*prob)));
            fields.push((
                "packet".into(),
                kind.map_or(Json::Null, |k| Json::Str(kind_name(k).into())),
            ));
        }
        FaultClause::Corrupt {
            from,
            until,
            prob,
            kind,
        } => {
            fields.push(kind_field("corrupt"));
            fields.push(("from_us".into(), Json::UInt(from.as_micros())));
            fields.push(("until_us".into(), Json::UInt(until.as_micros())));
            fields.push(("prob".into(), Json::Float(*prob)));
            fields.push((
                "packet".into(),
                kind.map_or(Json::Null, |k| Json::Str(kind_name(k).into())),
            ));
        }
        FaultClause::Reorder {
            from,
            until,
            prob,
            max_displacement,
        } => {
            fields.push(kind_field("reorder"));
            fields.push(("from_us".into(), Json::UInt(from.as_micros())));
            fields.push(("until_us".into(), Json::UInt(until.as_micros())));
            fields.push(("prob".into(), Json::Float(*prob)));
            fields.push(("max_displacement".into(), Json::UInt(*max_displacement)));
        }
        FaultClause::CoverageHole {
            x,
            y,
            radius_m,
            min_alt_m,
        } => {
            fields.push(kind_field("coverage_hole"));
            fields.push(("x".into(), Json::Float(*x)));
            fields.push(("y".into(), Json::Float(*y)));
            fields.push(("radius_m".into(), Json::Float(*radius_m)));
            fields.push(("min_alt_m".into(), Json::Float(*min_alt_m)));
        }
    }
    Json::Object(fields)
}

fn clause_from_json(v: &Json, path: &str) -> Result<FaultClause, SpecError> {
    let fields = expect_obj(v, path)?;
    let kind = req_str(v, path, "kind")?;
    let from =
        || -> Result<SimTime, SpecError> { Ok(SimTime::from_micros(req_u64(v, path, "from_us")?)) };
    let until = || -> Result<SimTime, SpecError> {
        Ok(SimTime::from_micros(req_u64(v, path, "until_us")?))
    };
    let packet = |fieldless: bool| -> Result<Option<PacketKind>, SpecError> {
        if fieldless {
            return Ok(None);
        }
        opt_nullable(v, path, "packet", |v, p| {
            str_of(v, p).and_then(|s| kind_from_name(s, p))
        })
    };
    match kind {
        "blackout" => {
            check_fields(fields, path, &["kind", "from_us", "until_us"])?;
            Ok(FaultClause::Blackout {
                from: from()?,
                until: until()?,
            })
        }
        "kind_blackout" => {
            check_fields(fields, path, &["kind", "from_us", "until_us", "packet"])?;
            Ok(FaultClause::KindBlackout {
                from: from()?,
                until: until()?,
                kind: kind_from_name(req_str(v, path, "packet")?, &format!("{path}.packet"))?,
            })
        }
        "loss" => {
            check_fields(
                fields,
                path,
                &["kind", "from_us", "until_us", "prob", "packet"],
            )?;
            Ok(FaultClause::Loss {
                from: from()?,
                until: until()?,
                prob: req_f64(v, path, "prob")?,
                kind: packet(false)?,
            })
        }
        "burst_loss" => {
            check_fields(
                fields,
                path,
                &[
                    "kind", "from_us", "until_us", "p_enter", "p_exit", "loss_bad", "packet",
                ],
            )?;
            Ok(FaultClause::BurstLoss {
                from: from()?,
                until: until()?,
                p_enter: req_f64(v, path, "p_enter")?,
                p_exit: req_f64(v, path, "p_exit")?,
                loss_bad: req_f64(v, path, "loss_bad")?,
                kind: packet(false)?,
            })
        }
        "delay_spike" => {
            check_fields(fields, path, &["kind", "from_us", "until_us", "extra_us"])?;
            Ok(FaultClause::DelaySpike {
                from: from()?,
                until: until()?,
                extra: SimDuration::from_micros(req_u64(v, path, "extra_us")?),
            })
        }
        "duplicate" => {
            check_fields(
                fields,
                path,
                &["kind", "from_us", "until_us", "prob", "packet"],
            )?;
            Ok(FaultClause::Duplicate {
                from: from()?,
                until: until()?,
                prob: req_f64(v, path, "prob")?,
                kind: packet(false)?,
            })
        }
        "corrupt" => {
            check_fields(
                fields,
                path,
                &["kind", "from_us", "until_us", "prob", "packet"],
            )?;
            Ok(FaultClause::Corrupt {
                from: from()?,
                until: until()?,
                prob: req_f64(v, path, "prob")?,
                kind: packet(false)?,
            })
        }
        "reorder" => {
            check_fields(
                fields,
                path,
                &["kind", "from_us", "until_us", "prob", "max_displacement"],
            )?;
            Ok(FaultClause::Reorder {
                from: from()?,
                until: until()?,
                prob: req_f64(v, path, "prob")?,
                max_displacement: req_u64(v, path, "max_displacement")?,
            })
        }
        "coverage_hole" => {
            check_fields(fields, path, &["kind", "x", "y", "radius_m", "min_alt_m"])?;
            Ok(FaultClause::CoverageHole {
                x: req_f64(v, path, "x")?,
                y: req_f64(v, path, "y")?,
                radius_m: req_f64(v, path, "radius_m")?,
                min_alt_m: req_f64(v, path, "min_alt_m")?,
            })
        }
        _ => Err(SpecError::BadValue {
            path: format!("{path}.kind"),
            want: "a fault-clause kind",
        }),
    }
}

fn script_to_json(script: &FaultScript) -> Json {
    Json::Array(script.clauses().iter().map(clause_to_json).collect())
}

fn script_from_json(v: &Json, path: &str) -> Result<FaultScript, SpecError> {
    let items = v.as_array().ok_or(SpecError::BadValue {
        path: path.into(),
        want: "an array of fault clauses",
    })?;
    let mut script = FaultScript::default();
    for (i, item) in items.iter().enumerate() {
        script = script.with_clause(clause_from_json(item, &format!("{path}[{i}]"))?);
    }
    Ok(script)
}

fn opt_script_to_json(script: &Option<FaultScript>) -> Json {
    script.as_ref().map_or(Json::Null, script_to_json)
}

fn fault_to_json(fault: &CellFault) -> Json {
    Json::Object(vec![
        ("name".into(), Json::Str(fault.name.clone())),
        ("uplink".into(), opt_script_to_json(&fault.uplink)),
        ("downlink".into(), opt_script_to_json(&fault.downlink)),
        ("secondary".into(), opt_script_to_json(&fault.secondary)),
        (
            "extra".into(),
            Json::Array(fault.extra.iter().map(opt_script_to_json).collect()),
        ),
    ])
}

fn fault_from_json(v: &Json, path: &str) -> Result<CellFault, SpecError> {
    let fields = expect_obj(v, path)?;
    check_fields(
        fields,
        path,
        &["name", "uplink", "downlink", "secondary", "extra"],
    )?;
    let name = opt_field(v, path, "name", str_owned)?.unwrap_or_default();
    let uplink = opt_nullable(v, path, "uplink", script_from_json)?;
    let downlink = opt_nullable(v, path, "downlink", script_from_json)?;
    let secondary = opt_nullable(v, path, "secondary", script_from_json)?;
    let extra = match v.get("extra") {
        None => Vec::new(),
        Some(Json::Array(items)) => items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let p = format!("{path}.extra[{i}]");
                if item.is_null() {
                    Ok(None)
                } else {
                    script_from_json(item, &p).map(Some)
                }
            })
            .collect::<Result<_, _>>()?,
        Some(_) => {
            return Err(SpecError::BadValue {
                path: format!("{path}.extra"),
                want: "an array of per-leg scripts (null entries allowed)",
            })
        }
    };
    Ok(CellFault {
        name,
        uplink,
        downlink,
        secondary,
        extra,
    })
}

// ---- EngineOptions --------------------------------------------------------

fn options_to_json(o: &EngineOptions) -> Json {
    Json::Object(vec![
        (
            "jobs".into(),
            o.jobs.map_or(Json::Null, |j| Json::UInt(j as u64)),
        ),
        (
            "cache_dir".into(),
            o.cache_dir
                .as_ref()
                .map_or(Json::Null, |p| Json::Str(p.display().to_string())),
        ),
        ("max_attempts".into(), Json::UInt(o.max_attempts as u64)),
        (
            "stuck_budget_us".into(),
            Json::UInt(o.stuck_budget.as_micros() as u64),
        ),
        ("reference_tick".into(), Json::Bool(o.reference_tick)),
    ])
}

fn options_from_json(v: &Json, path: &str) -> Result<EngineOptions, SpecError> {
    let fields = expect_obj(v, path)?;
    check_fields(
        fields,
        path,
        &[
            "jobs",
            // Retired with cell batching; archived documents carry it.
            "batch",
            "cache_dir",
            "max_attempts",
            "stuck_budget_us",
            "reference_tick",
        ],
    )?;
    let mut o = EngineOptions::default();
    if let Some(jobs) = opt_nullable(v, path, "jobs", u64_of)? {
        o.jobs = Some((jobs as usize).max(1));
    }
    if let Some(dir) = opt_nullable(v, path, "cache_dir", str_owned)? {
        o.cache_dir = Some(PathBuf::from(dir));
    }
    if let Some(a) = opt_field(v, path, "max_attempts", u64_of)? {
        o.max_attempts = (a as u32).max(1);
    }
    if let Some(us) = opt_field(v, path, "stuck_budget_us", u64_of)? {
        o.stuck_budget = Duration::from_micros(us);
    }
    if let Some(on) = opt_field(v, path, "reference_tick", bool_of)? {
        o.reference_tick = on;
    }
    Ok(o)
}

// ---- parse helpers --------------------------------------------------------

fn expect_obj<'a>(v: &'a Json, path: &str) -> Result<&'a [(String, Json)], SpecError> {
    v.as_object().ok_or(SpecError::BadValue {
        path: if path.is_empty() {
            "(document)".into()
        } else {
            path.into()
        },
        want: "an object",
    })
}

fn check_fields(fields: &[(String, Json)], path: &str, allowed: &[&str]) -> Result<(), SpecError> {
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(SpecError::UnknownField {
                path: if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                },
            });
        }
    }
    Ok(())
}

fn u64_of(v: &Json, path: &str) -> Result<u64, SpecError> {
    v.as_u64().ok_or(SpecError::BadValue {
        path: path.into(),
        want: "an unsigned integer",
    })
}

fn f64_of(v: &Json, path: &str) -> Result<f64, SpecError> {
    v.as_f64().ok_or(SpecError::BadValue {
        path: path.into(),
        want: "a number",
    })
}

fn bool_of(v: &Json, path: &str) -> Result<bool, SpecError> {
    v.as_bool().ok_or(SpecError::BadValue {
        path: path.into(),
        want: "a boolean",
    })
}

fn str_of<'a>(v: &'a Json, path: &str) -> Result<&'a str, SpecError> {
    v.as_str().ok_or(SpecError::BadValue {
        path: path.into(),
        want: "a string",
    })
}

fn str_owned(v: &Json, path: &str) -> Result<String, SpecError> {
    str_of(v, path).map(str::to_string)
}

/// Optional top-level array field: absent → empty, present → each item
/// parsed under an indexed path.
fn list_of<T>(
    doc: &Json,
    key: &str,
    parse: impl Fn(&Json, &str) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    match doc.get(key) {
        None => Ok(Vec::new()),
        Some(Json::Array(items)) => items
            .iter()
            .enumerate()
            .map(|(i, v)| parse(v, &format!("{key}[{i}]")))
            .collect(),
        Some(_) => Err(SpecError::BadValue {
            path: key.into(),
            want: "an array",
        }),
    }
}

/// Optional field of an object: absent → `None`, present → parsed.
fn opt_field<T>(
    v: &Json,
    path: &str,
    key: &str,
    parse: impl FnOnce(&Json, &str) -> Result<T, SpecError>,
) -> Result<Option<T>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => parse(x, &format!("{path}.{key}")).map(Some),
    }
}

/// Optional *nullable* field: absent or `null` → `None`.
fn opt_nullable<T>(
    v: &Json,
    path: &str,
    key: &str,
    parse: impl FnOnce(&Json, &str) -> Result<T, SpecError>,
) -> Result<Option<T>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(Json::Null) => Ok(None),
        Some(x) => parse(x, &format!("{path}.{key}")).map(Some),
    }
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, SpecError> {
    opt_field(v, "", key, |x, _| u64_of(x, key))
}

fn req<'a>(v: &'a Json, path: &str, key: &str) -> Result<&'a Json, SpecError> {
    v.get(key).ok_or(SpecError::MissingField {
        path: format!("{path}.{key}"),
    })
}

fn req_u64(v: &Json, path: &str, key: &str) -> Result<u64, SpecError> {
    req(v, path, key).and_then(|x| u64_of(x, &format!("{path}.{key}")))
}

fn req_f64(v: &Json, path: &str, key: &str) -> Result<f64, SpecError> {
    req(v, path, key).and_then(|x| f64_of(x, &format!("{path}.{key}")))
}

fn req_str<'a>(v: &'a Json, path: &str, key: &str) -> Result<&'a str, SpecError> {
    match v.get(key) {
        None => Err(SpecError::MissingField {
            path: format!("{path}.{key}"),
        }),
        Some(x) => x.as_str().ok_or(SpecError::BadValue {
            path: format!("{path}.{key}"),
            want: "a string",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercised_spec() -> CampaignSpec {
        let blackout = FaultScript::default().with_clause(FaultClause::Blackout {
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(2),
        });
        let loss = FaultScript::default().with_clause(FaultClause::Loss {
            from: SimTime::ZERO,
            until: SimTime::from_secs(3),
            prob: 0.05,
            kind: Some(PacketKind::Feedback),
        });
        CampaignSpec::new(
            ExperimentConfig::builder()
                .environment(Environment::Urban)
                .seed(7)
                .hold_secs(1)
                .fec_cap(0.25)
                .n_legs(3)
                .build(),
        )
        .environments([Environment::Urban, Environment::Rural])
        .paper_workloads()
        .schemes([
            RunScheme::Pipeline,
            RunScheme::Multipath(MultipathScheme::Bonded),
        ])
        .faults([
            CellFault::none(),
            CellFault::link("blk", blackout),
            CellFault::per_leg("fbl", vec![Some(loss), None, Some(FaultScript::default())]),
        ])
        .repairs([false, true])
        .runs(2)
        .with_options(EngineOptions {
            jobs: Some(4),
            cache_dir: Some(PathBuf::from("target/rpav-cache")),
            max_attempts: 3,
            stuck_budget: Duration::from_secs(60),
            reference_tick: false,
        })
    }

    #[test]
    fn round_trip_is_exact_and_bytes_are_stable() {
        let spec = exercised_spec();
        let json = spec.to_json();
        let back = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), json, "canonical bytes must be stable");
        assert_eq!(back.identity(), spec.identity());
    }

    #[test]
    fn expansion_matches_direct_matrix_construction() {
        let spec = exercised_spec();
        let direct = spec.to_matrix().expand();
        let wired = CampaignSpec::from_json(&spec.to_json())
            .unwrap()
            .to_matrix()
            .expand();
        assert_eq!(direct.len(), wired.len());
        for (a, b) in direct.iter().zip(&wired) {
            assert_eq!(
                a.key(),
                b.key(),
                "cell {} key drifted over the wire",
                a.label()
            );
        }
    }

    #[test]
    fn minimal_document_fills_defaults() {
        let spec = CampaignSpec::from_json("{\"spec_version\":1}").unwrap();
        assert_eq!(spec, CampaignSpec::new(ExperimentConfig::builder().build()));
        assert_eq!(spec.to_matrix().expand().len(), 1);
    }

    #[test]
    fn version_is_required_and_checked() {
        assert_eq!(
            CampaignSpec::from_json("{}"),
            Err(SpecError::MissingField {
                path: "spec_version".into()
            })
        );
        assert_eq!(
            CampaignSpec::from_json("{\"spec_version\":99}"),
            Err(SpecError::UnsupportedVersion { found: 99 })
        );
    }

    #[test]
    fn unknown_fields_are_rejected_with_paths() {
        assert_eq!(
            CampaignSpec::from_json("{\"spec_version\":1,\"bogus\":0}"),
            Err(SpecError::UnknownField {
                path: "bogus".into()
            })
        );
        assert_eq!(
            CampaignSpec::from_json("{\"spec_version\":1,\"base\":{\"sed\":1}}"),
            Err(SpecError::UnknownField {
                path: "base.sed".into()
            })
        );
        assert_eq!(
            CampaignSpec::from_json(
                "{\"spec_version\":1,\"faults\":[{\"uplink\":[{\"kind\":\"blackout\",\"from_us\":0,\"until_us\":1,\"prob\":0.1}]}]}"
            ),
            Err(SpecError::UnknownField {
                path: "faults[0].uplink[0].prob".into()
            })
        );
    }

    #[test]
    fn retired_batch_key_is_accepted_and_ignored() {
        // Documents as the builds with cell batching emitted them:
        // `recover()` must keep decoding every archived spec.
        let spec = exercised_spec();
        let doc = spec.to_json();
        assert!(!doc.contains("batch"));
        for old in ["\"batch\":null,", "\"batch\":4,"] {
            let archived = doc.replace("\"cache_dir\"", &format!("{old}\"cache_dir\""));
            assert_ne!(archived, doc);
            assert_eq!(CampaignSpec::from_json(&archived), Ok(spec.clone()));
        }
    }

    #[test]
    fn strict_integer_discipline() {
        // A count written as a float is a type error, not a silent cast.
        assert!(matches!(
            CampaignSpec::from_json("{\"spec_version\":1,\"runs\":2.0}"),
            Err(SpecError::BadValue { .. })
        ));
    }
}
