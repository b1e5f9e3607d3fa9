//! How a campaign is *written down*: [`CampaignSpec`], the versioned
//! canonical JSON document, and the byte encoding behind [`Cell::key`],
//! side by side.
//!
//! Both encodings walk the same inputs — an [`ExperimentConfig`], the
//! matrix axes, fault scripts — and share one vocabulary: one table per
//! enum, where a variant's index is its key tag and its string its JSON
//! name, and one per-variant field list for CC modes and fault clauses
//! (`cc_fields`, `clause_fields`), so a new clause or parameter is
//! written down once. Both config encoders destructure `ExperimentConfig`
//! and `WatchdogConfig` without `..`: a new config field does not compile
//! until both write it.
//!
//! The document is the one cross-process shape of a campaign:
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
//! One retired member is still *accepted and ignored*: `options`, the
//! engine knobs (workers, cache directory, retries, stuck budget,
//! scheduler) that every document archived before they left the spec
//! carries — with `batch` inside in the oldest. How a campaign runs is its
//! runner's choice (`rpavd --jobs`), not part of what the campaign is. It
//! is never emitted, so canonical bytes (and identities) differ from those
//! older builds' by exactly that member.
//!
//! [`to_matrix`]: CampaignSpec::to_matrix

use std::fmt;

use rpav_lte::{Environment, Operator};
use rpav_netem::{FaultClause, FaultScript, PacketKind};
use rpav_sim::{SimDuration, SimTime, WatchdogConfig};

use crate::codec::{fnv1a, ByteWriter};
use crate::json::{Json, JsonError};
use crate::matrix::{CcAxis, Cell, CellFault, MatrixSpec, RunScheme};
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
/// base [`ExperimentConfig`]).
///
/// In-process, build one with the fluent methods, which forward to
/// [`MatrixSpec`]'s. Across processes, [`to_json`](Self::to_json) /
/// [`from_json`](Self::from_json) are the *only* construction path — the
/// JSON document is the API.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    matrix: MatrixSpec,
}

impl CampaignSpec {
    /// A single-cell campaign of `base`.
    pub fn new(base: ExperimentConfig) -> Self {
        CampaignSpec {
            matrix: MatrixSpec::new(base),
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

    /// The base configuration.
    pub fn base(&self) -> &ExperimentConfig {
        &self.matrix.base
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
            CcAxis::List(list) => Json::Array(list.iter().map(|&cc| cc_to_json(cc)).collect()),
        };
        let doc = Json::Object(vec![
            ("spec_version".into(), Json::UInt(SPEC_VERSION)),
            ("base".into(), config_to_json(&m.base)),
            (
                "environments".into(),
                ENVIRONMENTS.json_list(&m.environments),
            ),
            ("operators".into(), OPERATORS.json_list(&m.operators)),
            ("mobilities".into(), MOBILITIES.json_list(&m.mobilities)),
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
        ]);
        doc.canonical()
    }

    /// Parse a `CampaignSpec` document. `spec_version` is required and
    /// must equal [`SPEC_VERSION`]; every other field defaults when
    /// absent; fields outside the schema are rejected, except the retired
    /// `options` member, which is ignored.
    pub fn from_json(input: &str) -> Result<CampaignSpec, SpecError> {
        let doc = Json::parse(input)?;
        check_fields(
            &doc,
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
                // Retired engine knobs; every archived document has them.
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
        let environments = list_of(&doc, "environments", |v, p| ENVIRONMENTS.decode(v, p))?;
        let operators = list_of(&doc, "operators", |v, p| OPERATORS.decode(v, p))?;
        let mobilities = list_of(&doc, "mobilities", |v, p| MOBILITIES.decode(v, p))?;
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
        let schemes = list_of(&doc, "schemes", scheme_from_json)?;
        let faults = list_of(&doc, "faults", fault_from_json)?;
        let repairs = list_of(&doc, "repairs", bool_of)?;
        let runs = opt_u64(&doc, "runs")?.unwrap_or(1);

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
            Some(cells) if cells <= MAX_CELLS => Ok(CampaignSpec { matrix }),
            cells => Err(SpecError::TooManyCells {
                cells,
                max: MAX_CELLS,
            }),
        }
    }
}

// ---- one table per enum ---------------------------------------------------

/// The vocabulary of a fieldless enum: a variant's index in `table` is
/// its key tag, its string its JSON name.
struct Names<T: 'static> {
    table: &'static [(T, &'static str)],
    /// What a name outside the table is told was wanted.
    want: &'static str,
}

impl<T: Copy + PartialEq> Names<T> {
    fn index(&self, value: T) -> usize {
        self.table
            .iter()
            .position(|&(v, _)| v == value)
            .expect("every variant has a row in its table")
    }

    fn tag(&self, value: T) -> u8 {
        self.index(value) as u8
    }

    fn json(&self, value: T) -> Json {
        Json::Str(self.table[self.index(value)].1.into())
    }

    fn json_list(&self, values: &[T]) -> Json {
        Json::Array(values.iter().map(|&v| self.json(v)).collect())
    }

    fn parse(&self, name: &str, path: &str) -> Result<T, SpecError> {
        self.table
            .iter()
            .find(|&&(_, n)| n == name)
            .map(|&(v, _)| v)
            .ok_or_else(|| SpecError::BadValue {
                path: path.into(),
                want: self.want,
            })
    }

    fn decode(&self, v: &Json, path: &str) -> Result<T, SpecError> {
        str_of(v, path).and_then(|s| self.parse(s, path))
    }
}

const ENVIRONMENTS: Names<Environment> = Names {
    table: &[(Environment::Urban, "urban"), (Environment::Rural, "rural")],
    want: "\"urban\" or \"rural\"",
};

const OPERATORS: Names<Operator> = Names {
    table: &[(Operator::P1, "p1"), (Operator::P2, "p2")],
    want: "\"p1\" or \"p2\"",
};

const MOBILITIES: Names<Mobility> = Names {
    table: &[(Mobility::Air, "air"), (Mobility::Ground, "ground")],
    want: "\"air\" or \"ground\"",
};

const PACKET_KINDS: Names<PacketKind> = Names {
    table: &[
        (PacketKind::Media, "media"),
        (PacketKind::Feedback, "feedback"),
        (PacketKind::Probe, "probe"),
    ],
    want: "\"media\", \"feedback\", or \"probe\"",
};

/// A variant's JSON decoder (the document object, its path).
type Decode<T> = fn(&Json, &str) -> Result<T, SpecError>;

/// CC modes: a mode's index is its key tag, its string the JSON `mode`.
/// [`cc_fields`] encodes; the decoder sits beside the name.
const CC_MODES: [(&str, Decode<CcMode>); 3] = [
    ("static", |v, p| {
        check_fields(v, p, &["mode", "bitrate_bps"])?;
        Ok(CcMode::Static {
            bitrate_bps: req_f64(v, p, "bitrate_bps")?,
        })
    }),
    ("gcc", |v, p| {
        check_fields(v, p, &["mode"])?;
        Ok(CcMode::Gcc)
    }),
    ("scream", |v, p| {
        check_fields(v, p, &["mode", "ack_span"])?;
        Ok(CcMode::Scream {
            ack_span: req_u64(v, p, "ack_span")? as usize,
        })
    }),
];

/// Fault-clause kinds: a kind's index is its key tag, its string the
/// JSON `kind`. [`clause_fields`] encodes; the decoder sits beside the
/// name.
const CLAUSE_KINDS: [(&str, Decode<FaultClause>); 9] = [
    ("blackout", |v, p| {
        check_fields(v, p, &["kind", "from_us", "until_us"])?;
        Ok(FaultClause::Blackout {
            from: req_time(v, p, "from_us")?,
            until: req_time(v, p, "until_us")?,
        })
    }),
    ("kind_blackout", |v, p| {
        check_fields(v, p, &["kind", "from_us", "until_us", "packet"])?;
        Ok(FaultClause::KindBlackout {
            from: req_time(v, p, "from_us")?,
            until: req_time(v, p, "until_us")?,
            kind: PACKET_KINDS.parse(req_str(v, p, "packet")?, &format!("{p}.packet"))?,
        })
    }),
    ("loss", |v, p| {
        check_fields(v, p, &["kind", "from_us", "until_us", "prob", "packet"])?;
        Ok(FaultClause::Loss {
            from: req_time(v, p, "from_us")?,
            until: req_time(v, p, "until_us")?,
            prob: req_f64(v, p, "prob")?,
            kind: opt_packet(v, p)?,
        })
    }),
    ("delay_spike", |v, p| {
        check_fields(v, p, &["kind", "from_us", "until_us", "extra_us"])?;
        Ok(FaultClause::DelaySpike {
            from: req_time(v, p, "from_us")?,
            until: req_time(v, p, "until_us")?,
            extra: SimDuration::from_micros(req_u64(v, p, "extra_us")?),
        })
    }),
    ("duplicate", |v, p| {
        check_fields(v, p, &["kind", "from_us", "until_us", "prob", "packet"])?;
        Ok(FaultClause::Duplicate {
            from: req_time(v, p, "from_us")?,
            until: req_time(v, p, "until_us")?,
            prob: req_f64(v, p, "prob")?,
            kind: opt_packet(v, p)?,
        })
    }),
    ("corrupt", |v, p| {
        check_fields(v, p, &["kind", "from_us", "until_us", "prob", "packet"])?;
        Ok(FaultClause::Corrupt {
            from: req_time(v, p, "from_us")?,
            until: req_time(v, p, "until_us")?,
            prob: req_f64(v, p, "prob")?,
            kind: opt_packet(v, p)?,
        })
    }),
    ("reorder", |v, p| {
        check_fields(
            v,
            p,
            &["kind", "from_us", "until_us", "prob", "max_displacement"],
        )?;
        Ok(FaultClause::Reorder {
            from: req_time(v, p, "from_us")?,
            until: req_time(v, p, "until_us")?,
            prob: req_f64(v, p, "prob")?,
            max_displacement: req_u64(v, p, "max_displacement")?,
        })
    }),
    ("coverage_hole", |v, p| {
        check_fields(v, p, &["kind", "x", "y", "radius_m", "min_alt_m"])?;
        Ok(FaultClause::CoverageHole {
            x: req_f64(v, p, "x")?,
            y: req_f64(v, p, "y")?,
            radius_m: req_f64(v, p, "radius_m")?,
            min_alt_m: req_f64(v, p, "min_alt_m")?,
        })
    }),
    ("burst_loss", |v, p| {
        check_fields(
            v,
            p,
            &[
                "kind", "from_us", "until_us", "p_enter", "p_exit", "loss_bad", "packet",
            ],
        )?;
        Ok(FaultClause::BurstLoss {
            from: req_time(v, p, "from_us")?,
            until: req_time(v, p, "until_us")?,
            p_enter: req_f64(v, p, "p_enter")?,
            p_exit: req_f64(v, p, "p_exit")?,
            loss_bad: req_f64(v, p, "loss_bad")?,
            kind: opt_packet(v, p)?,
        })
    }),
];

impl RunScheme {
    /// The scheme's byte in the cache key. 1–5 were the multipath schemes
    /// under the second session driver; their results changed when the
    /// drivers were unified, so a durable cache written back then must
    /// miss — the numbers are retired, not reused.
    fn tag(self) -> u8 {
        match self {
            RunScheme::Pipeline => 0,
            RunScheme::Multipath(MultipathScheme::SinglePath) => 6,
            RunScheme::Multipath(MultipathScheme::Duplicate) => 7,
            RunScheme::Multipath(MultipathScheme::Failover) => 8,
            RunScheme::Multipath(MultipathScheme::SelectiveDuplicate) => 9,
            RunScheme::Multipath(MultipathScheme::Bonded) => 10,
        }
    }
}

/// A run scheme by its [`RunScheme::name`], so spec and label vocabulary
/// cannot diverge.
fn scheme_from_json(v: &Json, path: &str) -> Result<RunScheme, SpecError> {
    let name = str_of(v, path)?;
    std::iter::once(RunScheme::Pipeline)
        .chain(MultipathScheme::all().map(RunScheme::Multipath))
        .find(|s| s.name() == name)
        .ok_or_else(|| SpecError::BadValue {
            path: path.into(),
            want: "a run-scheme name (\"pipeline\", \"single-path\", \"duplicate\", \"failover\", \"sel-duplicate\", \"bonded\")",
        })
}

// ---- one field list per variant -------------------------------------------

/// One parameter of a CC mode or fault clause, as both encoders see it.
#[derive(Clone, Copy)]
enum Field {
    /// An instant: key `time`, JSON microseconds.
    Time(SimTime),
    /// A span: key `duration`, JSON microseconds.
    Span(SimDuration),
    Num(f64),
    Count(u64),
    Packet(PacketKind),
    /// A packet-kind filter: `None` is every kind (JSON `null`).
    AnyPacket(Option<PacketKind>),
}

/// The parameters of one variant, in key order, named as in JSON.
type Fields<'a> = &'a [(&'static str, Field)];

/// A CC mode as its index in [`CC_MODES`] and its parameters.
fn cc_fields<R>(cc: CcMode, encode: impl FnOnce(usize, Fields) -> R) -> R {
    match cc {
        CcMode::Static { bitrate_bps } => encode(0, &[("bitrate_bps", Field::Num(bitrate_bps))]),
        CcMode::Gcc => encode(1, &[]),
        CcMode::Scream { ack_span } => encode(2, &[("ack_span", Field::Count(ack_span as u64))]),
    }
}

/// A fault clause as its index in [`CLAUSE_KINDS`] and its parameters.
fn clause_fields<R>(clause: &FaultClause, encode: impl FnOnce(usize, Fields) -> R) -> R {
    use Field::{AnyPacket, Count, Num, Packet, Span, Time};
    match *clause {
        FaultClause::Blackout { from, until } => {
            encode(0, &[("from_us", Time(from)), ("until_us", Time(until))])
        }
        FaultClause::KindBlackout { from, until, kind } => encode(
            1,
            &[
                ("from_us", Time(from)),
                ("until_us", Time(until)),
                ("packet", Packet(kind)),
            ],
        ),
        FaultClause::Loss {
            from,
            until,
            prob,
            kind,
        } => encode(
            2,
            &[
                ("from_us", Time(from)),
                ("until_us", Time(until)),
                ("prob", Num(prob)),
                ("packet", AnyPacket(kind)),
            ],
        ),
        FaultClause::DelaySpike { from, until, extra } => encode(
            3,
            &[
                ("from_us", Time(from)),
                ("until_us", Time(until)),
                ("extra_us", Span(extra)),
            ],
        ),
        FaultClause::Duplicate {
            from,
            until,
            prob,
            kind,
        } => encode(
            4,
            &[
                ("from_us", Time(from)),
                ("until_us", Time(until)),
                ("prob", Num(prob)),
                ("packet", AnyPacket(kind)),
            ],
        ),
        FaultClause::Corrupt {
            from,
            until,
            prob,
            kind,
        } => encode(
            5,
            &[
                ("from_us", Time(from)),
                ("until_us", Time(until)),
                ("prob", Num(prob)),
                ("packet", AnyPacket(kind)),
            ],
        ),
        FaultClause::Reorder {
            from,
            until,
            prob,
            max_displacement,
        } => encode(
            6,
            &[
                ("from_us", Time(from)),
                ("until_us", Time(until)),
                ("prob", Num(prob)),
                ("max_displacement", Count(max_displacement)),
            ],
        ),
        FaultClause::CoverageHole {
            x,
            y,
            radius_m,
            min_alt_m,
        } => encode(
            7,
            &[
                ("x", Num(x)),
                ("y", Num(y)),
                ("radius_m", Num(radius_m)),
                ("min_alt_m", Num(min_alt_m)),
            ],
        ),
        FaultClause::BurstLoss {
            from,
            until,
            p_enter,
            p_exit,
            loss_bad,
            kind,
        } => encode(
            8,
            &[
                ("from_us", Time(from)),
                ("until_us", Time(until)),
                ("p_enter", Num(p_enter)),
                ("p_exit", Num(p_exit)),
                ("loss_bad", Num(loss_bad)),
                ("packet", AnyPacket(kind)),
            ],
        ),
    }
}

// ---- the cache key --------------------------------------------------------

/// The bytes behind [`Cell::key`], hashed: crate version and codec
/// format (so a rebuilt crate misses), the config, the scheme's tag and
/// every fault script. The cell's index and fault name are not inputs.
pub(crate) fn cell_key(cell: &Cell) -> u64 {
    let mut w = ByteWriter::new();
    w.bytes(env!("CARGO_PKG_VERSION").as_bytes());
    w.u32(crate::codec::FORMAT_VERSION);
    write_config(&mut w, &cell.config);
    w.u8(cell.scheme.tag());
    let CellFault {
        name: _,
        uplink,
        downlink,
        secondary,
        extra,
    } = &cell.fault;
    for script in [uplink, downlink, secondary] {
        w.opt(script.as_ref(), write_script);
    }
    w.u64(extra.len() as u64);
    for script in extra {
        w.opt(script.as_ref(), write_script);
    }
    fnv1a(&w.into_bytes())
}

fn write_config(w: &mut ByteWriter, c: &ExperimentConfig) {
    let ExperimentConfig {
        environment,
        operator,
        mobility,
        cc,
        seed,
        run_index,
        hold,
        ground_sweeps,
        drop_on_latency,
        hysteresis_override_db,
        ttt_override_ms,
        jitter_target_override_ms,
        watchdog,
        repair,
        leg_cap_bps,
        fec_cap,
        n_legs,
        coupled_cc,
    } = *c;
    let WatchdogConfig {
        enabled,
        timeout,
        backoff_interval,
        backoff_factor,
        floor_bps,
        ramp_factor,
    } = watchdog;
    w.u8(ENVIRONMENTS.tag(environment));
    w.u8(OPERATORS.tag(operator));
    w.u8(MOBILITIES.tag(mobility));
    cc_fields(cc, |tag, fields| write_variant(w, tag, fields));
    w.u64(seed);
    w.u64(run_index);
    w.duration(hold);
    w.u64(ground_sweeps as u64);
    w.bool(drop_on_latency);
    w.opt(hysteresis_override_db, |w, v| w.f64(v));
    w.opt(ttt_override_ms, |w, v| w.u64(v));
    w.opt(jitter_target_override_ms, |w, v| w.u64(v));
    w.bool(enabled);
    w.duration(timeout);
    w.duration(backoff_interval);
    w.f64(backoff_factor);
    w.f64(floor_bps);
    w.f64(ramp_factor);
    w.bool(repair);
    w.opt(leg_cap_bps, |w, (a, b)| {
        w.f64(a);
        w.f64(b);
    });
    w.f64(fec_cap);
    w.u64(n_legs as u64);
    w.bool(coupled_cc);
}

fn write_script(w: &mut ByteWriter, script: &FaultScript) {
    w.u64(script.clauses().len() as u64);
    for clause in script.clauses() {
        clause_fields(clause, |tag, fields| write_variant(w, tag, fields));
    }
}

/// A variant as key bytes: its tag, then its parameters in order.
fn write_variant(w: &mut ByteWriter, tag: usize, fields: Fields) {
    w.u8(tag as u8);
    for &(_, field) in fields {
        match field {
            Field::Time(t) => w.time(t),
            Field::Span(d) => w.duration(d),
            Field::Num(x) => w.f64(x),
            Field::Count(n) => w.u64(n),
            Field::Packet(k) => w.u8(PACKET_KINDS.tag(k)),
            Field::AnyPacket(k) => w.opt(k, |w, k| w.u8(PACKET_KINDS.tag(k))),
        }
    }
}

// ---- JSON writer ----------------------------------------------------------

/// A variant as a JSON object: `{<tag_key>: name, parameter: value, …}`.
fn variant_json(tag_key: &str, name: &str, fields: Fields) -> Json {
    let mut members = Vec::with_capacity(1 + fields.len());
    members.push((tag_key.to_string(), Json::Str(name.into())));
    members.extend(fields.iter().map(|&(key, field)| {
        let value = match field {
            Field::Time(t) => Json::UInt(t.as_micros()),
            Field::Span(d) => Json::UInt(d.as_micros()),
            Field::Num(x) => Json::Float(x),
            Field::Count(n) => Json::UInt(n),
            Field::Packet(k) => PACKET_KINDS.json(k),
            Field::AnyPacket(k) => k.map_or(Json::Null, |k| PACKET_KINDS.json(k)),
        };
        (key.to_string(), value)
    }));
    Json::Object(members)
}

fn cc_to_json(cc: CcMode) -> Json {
    cc_fields(cc, |tag, fields| {
        variant_json("mode", CC_MODES[tag].0, fields)
    })
}

fn config_to_json(c: &ExperimentConfig) -> Json {
    let ExperimentConfig {
        environment,
        operator,
        mobility,
        cc,
        seed,
        run_index,
        hold,
        ground_sweeps,
        drop_on_latency,
        hysteresis_override_db,
        ttt_override_ms,
        jitter_target_override_ms,
        watchdog,
        repair,
        leg_cap_bps,
        fec_cap,
        n_legs,
        coupled_cc,
    } = *c;
    let WatchdogConfig {
        enabled,
        timeout,
        backoff_interval,
        backoff_factor,
        floor_bps,
        ramp_factor,
    } = watchdog;
    let watchdog = Json::Object(vec![
        ("enabled".into(), Json::Bool(enabled)),
        ("timeout_us".into(), Json::UInt(timeout.as_micros())),
        (
            "backoff_interval_us".into(),
            Json::UInt(backoff_interval.as_micros()),
        ),
        ("backoff_factor".into(), Json::Float(backoff_factor)),
        ("floor_bps".into(), Json::Float(floor_bps)),
        ("ramp_factor".into(), Json::Float(ramp_factor)),
    ]);
    Json::Object(vec![
        ("environment".into(), ENVIRONMENTS.json(environment)),
        ("operator".into(), OPERATORS.json(operator)),
        ("mobility".into(), MOBILITIES.json(mobility)),
        ("cc".into(), cc_to_json(cc)),
        ("seed".into(), Json::UInt(seed)),
        ("run_index".into(), Json::UInt(run_index)),
        ("hold_us".into(), Json::UInt(hold.as_micros())),
        ("ground_sweeps".into(), Json::UInt(ground_sweeps as u64)),
        ("drop_on_latency".into(), Json::Bool(drop_on_latency)),
        (
            "hysteresis_db".into(),
            hysteresis_override_db.map_or(Json::Null, Json::Float),
        ),
        (
            "ttt_ms".into(),
            ttt_override_ms.map_or(Json::Null, Json::UInt),
        ),
        (
            "jitter_target_ms".into(),
            jitter_target_override_ms.map_or(Json::Null, Json::UInt),
        ),
        ("watchdog".into(), watchdog),
        ("repair".into(), Json::Bool(repair)),
        (
            "leg_cap_bps".into(),
            leg_cap_bps.map_or(Json::Null, |(a, b)| {
                Json::Array(vec![Json::Float(a), Json::Float(b)])
            }),
        ),
        ("fec_cap".into(), Json::Float(fec_cap)),
        ("n_legs".into(), Json::UInt(n_legs as u64)),
        ("coupled_cc".into(), Json::Bool(coupled_cc)),
    ])
}

fn script_to_json(script: &FaultScript) -> Json {
    Json::Array(
        script
            .clauses()
            .iter()
            .map(|clause| {
                clause_fields(clause, |tag, fields| {
                    variant_json("kind", CLAUSE_KINDS[tag].0, fields)
                })
            })
            .collect(),
    )
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

// ---- JSON reader ----------------------------------------------------------

/// The decoder of the variant a `<tag_key>` member names in `table`.
fn variant_from_json<T>(
    v: &Json,
    path: &str,
    tag_key: &str,
    table: &[(&str, Decode<T>)],
    want: &'static str,
) -> Result<T, SpecError> {
    expect_obj(v, path)?;
    let name = req_str(v, path, tag_key)?;
    match table.iter().find(|(n, _)| *n == name) {
        Some((_, decode)) => decode(v, path),
        None => Err(SpecError::BadValue {
            path: format!("{path}.{tag_key}"),
            want,
        }),
    }
}

fn cc_from_json(v: &Json, path: &str) -> Result<CcMode, SpecError> {
    variant_from_json(
        v,
        path,
        "mode",
        &CC_MODES,
        "\"static\", \"gcc\", or \"scream\"",
    )
}

fn watchdog_from_json(v: &Json, path: &str) -> Result<WatchdogConfig, SpecError> {
    check_fields(
        v,
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

fn config_from_json(v: &Json, path: &str) -> Result<ExperimentConfig, SpecError> {
    check_fields(
        v,
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
    if let Some(e) = opt_field(v, path, "environment", |v, p| ENVIRONMENTS.decode(v, p))? {
        b = b.environment(e);
    }
    if let Some(o) = opt_field(v, path, "operator", |v, p| OPERATORS.decode(v, p))? {
        b = b.operator(o);
    }
    if let Some(m) = opt_field(v, path, "mobility", |v, p| MOBILITIES.decode(v, p))? {
        b = b.mobility(m);
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

fn script_from_json(v: &Json, path: &str) -> Result<FaultScript, SpecError> {
    let items = v.as_array().ok_or(SpecError::BadValue {
        path: path.into(),
        want: "an array of fault clauses",
    })?;
    let mut script = FaultScript::default();
    for (i, item) in items.iter().enumerate() {
        let clause = variant_from_json(
            item,
            &format!("{path}[{i}]"),
            "kind",
            &CLAUSE_KINDS,
            "a fault-clause kind",
        )?;
        script = script.with_clause(clause);
    }
    Ok(script)
}

fn fault_from_json(v: &Json, path: &str) -> Result<CellFault, SpecError> {
    check_fields(
        v,
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

/// `v` must be an object whose members are all in `allowed`.
fn check_fields(v: &Json, path: &str, allowed: &[&str]) -> Result<(), SpecError> {
    for (key, _) in expect_obj(v, path)? {
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

/// A clause's optional `packet` filter.
fn opt_packet(v: &Json, path: &str) -> Result<Option<PacketKind>, SpecError> {
    opt_nullable(v, path, "packet", |v, p| PACKET_KINDS.decode(v, p))
}

fn req<'a>(v: &'a Json, path: &str, key: &str) -> Result<&'a Json, SpecError> {
    v.get(key).ok_or(SpecError::MissingField {
        path: format!("{path}.{key}"),
    })
}

fn req_u64(v: &Json, path: &str, key: &str) -> Result<u64, SpecError> {
    req(v, path, key).and_then(|x| u64_of(x, &format!("{path}.{key}")))
}

fn req_time(v: &Json, path: &str, key: &str) -> Result<SimTime, SpecError> {
    req_u64(v, path, key).map(SimTime::from_micros)
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
        // Documents as earlier builds archived them: an `options` member
        // of engine knobs, holding `batch` in the builds that batched
        // cells. `recover()` must keep decoding every archived spec — to
        // the spec without them, whose bytes carry neither.
        let spec = exercised_spec();
        let doc = spec.to_json();
        assert!(!doc.contains("options") && !doc.contains("batch"));
        for options in [
            r#"{"cache_dir":"target/rpav-cache","jobs":4,"max_attempts":3,"reference_tick":false,"stuck_budget_us":60000000}"#,
            r#"{"batch":null,"cache_dir":null,"jobs":null,"max_attempts":2,"reference_tick":false,"stuck_budget_us":120000000}"#,
            r#"{"batch":4}"#,
        ] {
            let archived =
                doc.replace("\"repairs\"", &format!("\"options\":{options},\"repairs\""));
            assert_ne!(archived, doc);
            let parsed = CampaignSpec::from_json(&archived);
            assert_eq!(parsed, Ok(spec.clone()));
            assert_eq!(parsed.unwrap().identity(), spec.identity());
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
