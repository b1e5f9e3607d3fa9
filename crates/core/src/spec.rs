//! How a campaign is *written down*: [`CampaignSpec`], the versioned
//! canonical JSON document, and the byte encoding behind [`Cell::key`],
//! side by side.
//!
//! Both encodings walk the same inputs — an [`ExperimentConfig`], the
//! matrix axes, fault scripts — through one vocabulary: one table per
//! enum (a variant's row is its key tag, its string its JSON name) and one
//! *slot list* per type the spec writes down (`config_slots`,
//! `watchdog_slots`, `cc_slots`, `clause_slots`), which visits each member
//! as a JSON name and a `Slot` borrowed from the value, in key order. The
//! key writer, the JSON writer and the JSON reader all walk it; the reader
//! fills a template and rejects members the list does not name. The lists
//! destructure without `..` and match every variant, so a new field or
//! clause parameter does not compile until its slot line exists. CC modes
//! and clause kinds are `(name, template)` rows; a value's row is the one
//! whose template has its `std::mem::discriminant`.
//!
//! The document is the one cross-process shape of a campaign:
//!
//! * a `spec_version` field (documents reject unknown versions),
//! * **unknown-field rejection** at every object level (a typo'd knob is a
//!   typed [`SpecError`], never a silently-ignored default),
//! * **bounded cost per cell**: [`MAX_HOLD`], [`MAX_GROUND_SWEEPS`],
//!   [`MAX_STATIC_BITRATE_BPS`], and positive watchdog back-off intervals
//!   and SCReAM ack spans, each a typed `BadValue` at its member's path
//!   (`spec_json_fuzz::oversized_cells_are_typed_errors_not_aborts`), so
//!   no accepted document can abort, hang or panic the cell it becomes,
//! * **byte-stable canonical serialization** — [`CampaignSpec::to_json`]
//!   emits every field (defaults included) through the canonical
//!   [`Json`] serializer, so `from_json(to_json(s)).to_json() ==
//!   to_json(s)` bytewise and [`CampaignSpec::identity`] (FNV-1a over the
//!   canonical bytes) is a stable campaign identity
//!   (`spec_json_fuzz::wire_bytes_and_keys_stay_put` pins the bytes and
//!   keys across commits).
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
use std::mem::discriminant;

use rpav_lte::{Environment, Operator};
use rpav_netem::{FaultClause, FaultScript, PacketKind};
use rpav_sim::{SimDuration, SimTime, WatchdogConfig};

use crate::codec::{fnv1a, ByteWriter};
use crate::json::{Json, JsonError};
use crate::matrix::{CcAxis, Cell, CellFault, MatrixSpec, RunScheme};
use crate::multipath::MultipathScheme;
use crate::scenario::{CcMode, ExperimentConfig, Mobility, MAX_LEGS};

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

/// The highest Static `bitrate_bps` one wire-submitted cell may ask for:
/// 4× the paper's highest Static rate (25 Mbps urban) and the CCs' own
/// ceiling. Encoder and path buffers grow with the rate, so an unbounded
/// one is an allocation abort, like an unbounded [`MAX_GROUND_SWEEPS`].
pub const MAX_STATIC_BITRATE_BPS: f64 = 100e6;

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
    /// A required field is absent: `spec_version`, a CC `mode`, a clause
    /// `kind`, or a non-nullable parameter of either.
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
        let mut base = m.base;
        let ccs = match &m.ccs {
            CcAxis::Base => Json::Str("base".into()),
            CcAxis::PaperWorkloads => Json::Str("paper_workloads".into()),
            CcAxis::List(list) => Json::Array(
                list.iter()
                    .map(|&cc| variant_json(cc, "mode", &CC_MODES, cc_slots))
                    .collect(),
            ),
        };
        let doc = Json::Object(vec![
            ("spec_version".into(), Json::UInt(SPEC_VERSION)),
            (
                "base".into(),
                object_json(None, &mut |visit| config_slots(&mut base, visit)),
            ),
            ("environments".into(), names_json(&m.environments)),
            ("operators".into(), names_json(&m.operators)),
            ("mobilities".into(), names_json(&m.mobilities)),
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
            Some(v) => v
                .as_u64()
                .ok_or_else(|| bad("spec_version", "an unsigned integer"))?,
        };
        if version != SPEC_VERSION {
            return Err(SpecError::UnsupportedVersion { found: version });
        }

        let mut base = ExperimentConfig::builder().build();
        if let Some(v) = doc.get("base") {
            read_object(v, "base", None, false, &mut |visit| {
                config_slots(&mut base, visit)
            })?;
        }
        let environments = list_of(&doc, "environments", Environment::decode)?;
        let operators = list_of(&doc, "operators", Operator::decode)?;
        let mobilities = list_of(&doc, "mobilities", Mobility::decode)?;
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
            Some(_) => return Err(bad("ccs", "\"base\", \"paper_workloads\", or a CC list")),
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

/// A fieldless enum's vocabulary: a variant's row in `NAMES` is its key
/// tag, its string its JSON name.
trait Vocabulary: Copy + PartialEq + 'static {
    const NAMES: &'static [(Self, &'static str)];
    /// What a name outside `NAMES` is told was wanted.
    const WANT: &'static str;

    fn row(self) -> usize {
        Self::NAMES
            .iter()
            .position(|&(v, _)| v == self)
            .expect("every variant has a row in its table")
    }

    fn decode(v: &Json, path: &str) -> Result<Self, SpecError> {
        let name = str_of(v, path)?;
        Self::NAMES
            .iter()
            .find(|&&(_, n)| n == name)
            .map(|&(v, _)| v)
            .ok_or_else(|| bad(path, Self::WANT))
    }
}

impl Vocabulary for Environment {
    const NAMES: &'static [(Self, &'static str)] =
        &[(Environment::Urban, "urban"), (Environment::Rural, "rural")];
    const WANT: &'static str = "\"urban\" or \"rural\"";
}

impl Vocabulary for Operator {
    const NAMES: &'static [(Self, &'static str)] = &[(Operator::P1, "p1"), (Operator::P2, "p2")];
    const WANT: &'static str = "\"p1\" or \"p2\"";
}

impl Vocabulary for Mobility {
    const NAMES: &'static [(Self, &'static str)] =
        &[(Mobility::Air, "air"), (Mobility::Ground, "ground")];
    const WANT: &'static str = "\"air\" or \"ground\"";
}

impl Vocabulary for PacketKind {
    const NAMES: &'static [(Self, &'static str)] = &[
        (PacketKind::Media, "media"),
        (PacketKind::Feedback, "feedback"),
        (PacketKind::Probe, "probe"),
    ];
    const WANT: &'static str = "\"media\", \"feedback\", or \"probe\"";
}

/// A [`Vocabulary`] value as a [`Slot::Name`] holds it.
trait Named {
    fn tag(&self) -> u8;
    fn json(&self) -> Json;
    fn read(&mut self, v: &Json, path: &str) -> Result<(), SpecError>;
}

impl<T: Vocabulary> Named for T {
    fn tag(&self) -> u8 {
        self.row() as u8
    }

    fn json(&self) -> Json {
        Json::Str(T::NAMES[self.row()].1.into())
    }

    fn read(&mut self, v: &Json, path: &str) -> Result<(), SpecError> {
        *self = T::decode(v, path)?;
        Ok(())
    }
}

/// A list of [`Vocabulary`] values as a JSON array of names.
fn names_json<T: Vocabulary>(values: &[T]) -> Json {
    Json::Array(values.iter().map(Named::json).collect())
}

/// CC modes: a mode's row is its key tag, its string the JSON `mode`, its
/// template what the reader fills.
const CC_MODES: [(&str, CcMode); 3] = [
    ("static", CcMode::Static { bitrate_bps: 0.0 }),
    ("gcc", CcMode::Gcc),
    ("scream", CcMode::Scream { ack_span: 0 }),
];

/// Fault-clause kinds: a kind's row is its key tag, its string the JSON
/// `kind`, its template what the reader fills.
const CLAUSE_KINDS: [(&str, FaultClause); 9] = {
    use FaultClause::*;
    const T: SimTime = SimTime::ZERO;
    [
        ("blackout", Blackout { from: T, until: T }),
        (
            "kind_blackout",
            KindBlackout {
                from: T,
                until: T,
                kind: PacketKind::Media,
            },
        ),
        (
            "loss",
            Loss {
                from: T,
                until: T,
                prob: 0.0,
                kind: None,
            },
        ),
        (
            "delay_spike",
            DelaySpike {
                from: T,
                until: T,
                extra: SimDuration::ZERO,
            },
        ),
        (
            "duplicate",
            Duplicate {
                from: T,
                until: T,
                prob: 0.0,
                kind: None,
            },
        ),
        (
            "corrupt",
            Corrupt {
                from: T,
                until: T,
                prob: 0.0,
                kind: None,
            },
        ),
        (
            "reorder",
            Reorder {
                from: T,
                until: T,
                prob: 0.0,
                max_displacement: 0,
            },
        ),
        (
            "coverage_hole",
            CoverageHole {
                x: 0.0,
                y: 0.0,
                radius_m: 0.0,
                min_alt_m: 0.0,
            },
        ),
        (
            "burst_loss",
            BurstLoss {
                from: T,
                until: T,
                p_enter: 0.0,
                p_exit: 0.0,
                loss_bad: 0.0,
                kind: None,
            },
        ),
    ]
};

/// The row of `rows` whose template is `value`'s variant.
fn row_of<T>(rows: &[(&'static str, T)], value: &T) -> usize {
    rows.iter()
        .position(|(_, template)| discriminant(template) == discriminant(value))
        .expect("every variant has a row in its table")
}

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
        .ok_or_else(|| bad(path, "a run-scheme name (\"pipeline\", \"single-path\", \"duplicate\", \"failover\", \"sel-duplicate\", \"bonded\")"))
}

// ---- one slot list per type -----------------------------------------------

/// One member of a spec object, borrowed from the value it belongs to.
enum Slot<'a> {
    Flag(&'a mut bool),
    Count(&'a mut u64),
    /// A `usize`: key and JSON as an unsigned integer.
    Size(&'a mut usize, Limit),
    /// An instant: key `time`, JSON microseconds.
    Time(&'a mut SimTime),
    /// A span: key `duration`, JSON microseconds.
    Span(&'a mut SimDuration, Limit),
    /// The hover hold: a span of at most [`MAX_HOLD`]. Absent, it is the
    /// paper hold of the mobility read before it, as the builder's is.
    Hold(&'a mut SimDuration, Mobility),
    Num(&'a mut f64, Limit),
    /// `None` is JSON `null`, as for every `Opt*` slot.
    OptNum(&'a mut Option<f64>),
    OptCount(&'a mut Option<u64>),
    /// Per-leg caps: JSON `[primary, secondary]`.
    OptPair(&'a mut Option<(f64, f64)>),
    /// A fieldless enum, by its table.
    Name(&'a mut dyn Named),
    /// A packet-kind filter: `None` is every kind.
    OptPacket(&'a mut Option<PacketKind>),
    Cc(&'a mut CcMode),
    Watchdog(&'a mut WatchdogConfig),
}

impl Slot<'_> {
    /// May be absent even where members are required: `null` says the same.
    fn nullable(&self) -> bool {
        matches!(
            self,
            Slot::OptNum(_) | Slot::OptCount(_) | Slot::OptPair(_) | Slot::OptPacket(_)
        )
    }
}

/// What a numeric slot accepts on read (JSON units). The writers ignore it.
#[derive(Clone, Copy)]
enum Limit {
    Any,
    /// Values below are a `BadValue` wanting the message.
    AtLeast(f64, &'static str),
    /// Values above are a `BadValue` wanting the message.
    AtMost(f64, &'static str),
    /// Out-of-range values are clamped, as the builder's setter does.
    Clamp(u64, u64),
}

impl Limit {
    fn num(self, x: f64, path: &str) -> Result<f64, SpecError> {
        match self {
            Limit::AtLeast(min, want) if x < min => Err(bad(path, want)),
            Limit::AtMost(max, want) if x > max => Err(bad(path, want)),
            _ => Ok(x),
        }
    }

    fn int(self, v: &Json, path: &str) -> Result<u64, SpecError> {
        let n = u64_of(v, path)?;
        match self {
            Limit::Clamp(lo, hi) => Ok(n.clamp(lo, hi)),
            _ => self.num(n as f64, path).map(|_| n),
        }
    }
}

/// A back-off interval or ack span of 0 never advances: it hangs or
/// panics the cell.
const POSITIVE: Limit = Limit::AtLeast(1.0, "a positive integer");

/// The visitor a slot list calls once per member, in key order.
type Visit<'v> = &'v mut dyn FnMut(&'static str, Slot<'_>);

fn config_slots(c: &mut ExperimentConfig, visit: Visit) {
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
    } = c;
    let sweeps = Limit::AtMost(
        MAX_GROUND_SWEEPS as f64,
        "at most 64 sweeps (MAX_GROUND_SWEEPS)",
    );
    visit("environment", Slot::Name(environment));
    visit("operator", Slot::Name(operator));
    visit("mobility", Slot::Name(&mut *mobility));
    visit("cc", Slot::Cc(cc));
    visit("seed", Slot::Count(seed));
    visit("run_index", Slot::Count(run_index));
    visit("hold_us", Slot::Hold(hold, *mobility));
    visit("ground_sweeps", Slot::Size(ground_sweeps, sweeps));
    visit("drop_on_latency", Slot::Flag(drop_on_latency));
    visit("hysteresis_db", Slot::OptNum(hysteresis_override_db));
    visit("ttt_ms", Slot::OptCount(ttt_override_ms));
    visit(
        "jitter_target_ms",
        Slot::OptCount(jitter_target_override_ms),
    );
    visit("watchdog", Slot::Watchdog(watchdog));
    visit("repair", Slot::Flag(repair));
    visit("leg_cap_bps", Slot::OptPair(leg_cap_bps));
    visit("fec_cap", Slot::Num(fec_cap, Limit::Any));
    visit(
        "n_legs",
        Slot::Size(n_legs, Limit::Clamp(1, MAX_LEGS as u64)),
    );
    visit("coupled_cc", Slot::Flag(coupled_cc));
}

fn watchdog_slots(w: &mut WatchdogConfig, visit: Visit) {
    let WatchdogConfig {
        enabled,
        timeout,
        backoff_interval,
        backoff_factor,
        floor_bps,
        ramp_factor,
    } = w;
    visit("enabled", Slot::Flag(enabled));
    visit("timeout_us", Slot::Span(timeout, Limit::Any));
    visit(
        "backoff_interval_us",
        Slot::Span(backoff_interval, POSITIVE),
    );
    visit("backoff_factor", Slot::Num(backoff_factor, Limit::Any));
    visit("floor_bps", Slot::Num(floor_bps, Limit::Any));
    visit("ramp_factor", Slot::Num(ramp_factor, Limit::Any));
}

fn cc_slots(cc: &mut CcMode, visit: Visit) {
    match cc {
        CcMode::Static { bitrate_bps } => {
            let ceiling = Limit::AtMost(
                MAX_STATIC_BITRATE_BPS,
                "at most 100 Mbps (MAX_STATIC_BITRATE_BPS)",
            );
            visit("bitrate_bps", Slot::Num(bitrate_bps, ceiling))
        }
        CcMode::Gcc => {}
        CcMode::Scream { ack_span } => visit("ack_span", Slot::Size(ack_span, POSITIVE)),
    }
}

fn clause_slots(clause: &mut FaultClause, visit: Visit) {
    use Limit::Any;
    use Slot::{Count, Name, Num, OptPacket, Span, Time};
    fn window(visit: Visit, from: &mut SimTime, until: &mut SimTime) {
        visit("from_us", Time(from));
        visit("until_us", Time(until));
    }
    match clause {
        FaultClause::Blackout { from, until } => window(visit, from, until),
        FaultClause::KindBlackout { from, until, kind } => {
            window(visit, from, until);
            visit("packet", Name(kind));
        }
        FaultClause::Loss {
            from,
            until,
            prob,
            kind,
        }
        | FaultClause::Duplicate {
            from,
            until,
            prob,
            kind,
        }
        | FaultClause::Corrupt {
            from,
            until,
            prob,
            kind,
        } => {
            window(visit, from, until);
            visit("prob", Num(prob, Any));
            visit("packet", OptPacket(kind));
        }
        FaultClause::DelaySpike { from, until, extra } => {
            window(visit, from, until);
            visit("extra_us", Span(extra, Any));
        }
        FaultClause::Reorder {
            from,
            until,
            prob,
            max_displacement,
        } => {
            window(visit, from, until);
            visit("prob", Num(prob, Any));
            visit("max_displacement", Count(max_displacement));
        }
        FaultClause::CoverageHole {
            x,
            y,
            radius_m,
            min_alt_m,
        } => {
            visit("x", Num(x, Any));
            visit("y", Num(y, Any));
            visit("radius_m", Num(radius_m, Any));
            visit("min_alt_m", Num(min_alt_m, Any));
        }
        FaultClause::BurstLoss {
            from,
            until,
            p_enter,
            p_exit,
            loss_bad,
            kind,
        } => {
            window(visit, from, until);
            visit("p_enter", Num(p_enter, Any));
            visit("p_exit", Num(p_exit, Any));
            visit("loss_bad", Num(loss_bad, Any));
            visit("packet", OptPacket(kind));
        }
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
    let mut config = cell.config;
    config_slots(&mut config, &mut |_, slot| write_slot(&mut w, slot));
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

fn write_script(w: &mut ByteWriter, script: &FaultScript) {
    w.u64(script.clauses().len() as u64);
    for clause in script.clauses() {
        write_variant(w, clause.clone(), &CLAUSE_KINDS, clause_slots);
    }
}

/// A variant as key bytes: its row, then its slots in order.
fn write_variant<T>(
    w: &mut ByteWriter,
    mut value: T,
    rows: &[(&'static str, T)],
    slots: fn(&mut T, Visit),
) {
    w.u8(row_of(rows, &value) as u8);
    slots(&mut value, &mut |_, slot| write_slot(w, slot));
}

fn write_slot(w: &mut ByteWriter, slot: Slot) {
    match slot {
        Slot::Flag(b) => w.bool(*b),
        Slot::Count(n) => w.u64(*n),
        Slot::Size(n, _) => w.u64(*n as u64),
        Slot::Time(t) => w.time(*t),
        Slot::Span(d, _) | Slot::Hold(d, _) => w.duration(*d),
        Slot::Num(x, _) => w.f64(*x),
        Slot::OptNum(x) => w.opt(*x, |w, x| w.f64(x)),
        Slot::OptCount(n) => w.opt(*n, |w, n| w.u64(n)),
        Slot::OptPair(pair) => w.opt(*pair, |w, (a, b)| {
            w.f64(a);
            w.f64(b);
        }),
        Slot::Name(name) => w.u8(name.tag()),
        Slot::OptPacket(kind) => w.opt(*kind, |w, k| w.u8(k.tag())),
        Slot::Cc(cc) => write_variant(w, *cc, &CC_MODES, cc_slots),
        Slot::Watchdog(wd) => watchdog_slots(wd, &mut |_, slot| write_slot(w, slot)),
    }
}

// ---- JSON writer ----------------------------------------------------------

/// An object of the members a slot list visits, led by `tag` if given.
fn object_json(tag: Option<(&str, &str)>, slots: &mut dyn FnMut(Visit)) -> Json {
    let mut len = usize::from(tag.is_some());
    slots(&mut |_, _| len += 1);
    let mut members = Vec::with_capacity(len);
    if let Some((key, name)) = tag {
        members.push((key.to_string(), Json::Str(name.into())));
    }
    slots(&mut |name, slot| members.push((name.to_string(), slot_json(slot))));
    Json::Object(members)
}

/// A variant as `{<tag_key>: row name, slot: value, …}`.
fn variant_json<T>(
    mut value: T,
    tag_key: &str,
    rows: &[(&'static str, T)],
    slots: fn(&mut T, Visit),
) -> Json {
    let name = rows[row_of(rows, &value)].0;
    object_json(Some((tag_key, name)), &mut |visit| slots(&mut value, visit))
}

fn slot_json(slot: Slot) -> Json {
    match slot {
        Slot::Flag(b) => Json::Bool(*b),
        Slot::Count(n) => Json::UInt(*n),
        Slot::Size(n, _) => Json::UInt(*n as u64),
        Slot::Time(t) => Json::UInt(t.as_micros()),
        Slot::Span(d, _) | Slot::Hold(d, _) => Json::UInt(d.as_micros()),
        Slot::Num(x, _) => Json::Float(*x),
        Slot::OptNum(x) => x.map_or(Json::Null, Json::Float),
        Slot::OptCount(n) => n.map_or(Json::Null, Json::UInt),
        Slot::OptPair(pair) => pair.map_or(Json::Null, |(a, b)| {
            Json::Array(vec![Json::Float(a), Json::Float(b)])
        }),
        Slot::Name(name) => name.json(),
        Slot::OptPacket(kind) => kind.map_or(Json::Null, |k| k.json()),
        Slot::Cc(cc) => variant_json(*cc, "mode", &CC_MODES, cc_slots),
        Slot::Watchdog(w) => object_json(None, &mut |visit| watchdog_slots(w, visit)),
    }
}

fn script_to_json(script: &FaultScript) -> Json {
    Json::Array(
        script
            .clauses()
            .iter()
            .map(|clause| variant_json(clause.clone(), "kind", &CLAUSE_KINDS, clause_slots))
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

/// Read object `v` into the slots a slot list visits. A member no slot
/// names (other than `tag_key`) is an `UnknownField`; then each slot, in
/// order, reads its member. An absent member keeps the slot's value — or,
/// when `required` and the slot is not nullable, is a `MissingField`.
fn read_object(
    v: &Json,
    path: &str,
    tag_key: Option<&str>,
    required: bool,
    slots: &mut dyn FnMut(Visit),
) -> Result<(), SpecError> {
    for (key, _) in expect_obj(v, path)? {
        let mut known = Some(key.as_str()) == tag_key;
        slots(&mut |name, _| known |= name == key);
        if !known {
            return Err(SpecError::UnknownField {
                path: format!("{path}.{key}"),
            });
        }
    }
    let mut result = Ok(());
    slots(&mut |name, slot| {
        if result.is_ok() {
            let path = || format!("{path}.{name}");
            result = match v.get(name) {
                Some(member) => read_slot(slot, member, &path()),
                None if required && !slot.nullable() => {
                    Err(SpecError::MissingField { path: path() })
                }
                None => {
                    if let Slot::Hold(hold, mobility) = slot {
                        *hold = ExperimentConfig::paper_hold(mobility);
                    }
                    Ok(())
                }
            };
        }
    });
    result
}

fn read_slot(slot: Slot, v: &Json, path: &str) -> Result<(), SpecError> {
    match slot {
        Slot::Flag(b) => *b = bool_of(v, path)?,
        Slot::Count(n) => *n = u64_of(v, path)?,
        Slot::Size(n, limit) => *n = limit.int(v, path)? as usize,
        Slot::Time(t) => *t = SimTime::from_micros(u64_of(v, path)?),
        Slot::Span(d, limit) => *d = SimDuration::from_micros(limit.int(v, path)?),
        Slot::Hold(d, _) => {
            let limit = Limit::AtMost(MAX_HOLD.as_micros() as f64, "at most 600 s (MAX_HOLD)");
            *d = SimDuration::from_micros(limit.int(v, path)?)
        }
        Slot::Num(x, limit) => *x = limit.num(f64_of(v, path)?, path)?,
        Slot::OptNum(x) => *x = nullable(v, path, f64_of)?,
        Slot::OptCount(n) => *n = nullable(v, path, u64_of)?,
        Slot::OptPair(pair) => {
            *pair = nullable(v, path, |v, p| match v.as_array() {
                Some([a, b]) => Ok((
                    f64_of(a, &format!("{p}[0]"))?,
                    f64_of(b, &format!("{p}[1]"))?,
                )),
                _ => Err(bad(p, "null or [primary_bps, secondary_bps]")),
            })?
        }
        Slot::Name(name) => name.read(v, path)?,
        Slot::OptPacket(kind) => *kind = nullable(v, path, PacketKind::decode)?,
        Slot::Cc(cc) => *cc = cc_from_json(v, path)?,
        Slot::Watchdog(w) => {
            read_object(v, path, None, false, &mut |visit| watchdog_slots(w, visit))?
        }
    }
    Ok(())
}

/// The variant a `<tag_key>` member names in `rows`: its template, with
/// every slot read (each required unless nullable).
fn variant_from_json<T: Clone>(
    v: &Json,
    path: &str,
    tag_key: &str,
    rows: &[(&'static str, T)],
    want: &'static str,
    slots: fn(&mut T, Visit),
) -> Result<T, SpecError> {
    expect_obj(v, path)?;
    let tag_path = format!("{path}.{tag_key}");
    let name = match v.get(tag_key) {
        None => return Err(SpecError::MissingField { path: tag_path }),
        Some(tag) => str_of(tag, &tag_path)?,
    };
    let Some((_, template)) = rows.iter().find(|(n, _)| *n == name) else {
        return Err(bad(&tag_path, want));
    };
    let mut value = template.clone();
    read_object(v, path, Some(tag_key), true, &mut |visit| {
        slots(&mut value, visit)
    })?;
    Ok(value)
}

fn cc_from_json(v: &Json, path: &str) -> Result<CcMode, SpecError> {
    variant_from_json(
        v,
        path,
        "mode",
        &CC_MODES,
        "\"static\", \"gcc\", or \"scream\"",
        cc_slots,
    )
}

fn script_from_json(v: &Json, path: &str) -> Result<FaultScript, SpecError> {
    let items = v
        .as_array()
        .ok_or_else(|| bad(path, "an array of fault clauses"))?;
    let mut script = FaultScript::default();
    for (i, item) in items.iter().enumerate() {
        let clause = variant_from_json(
            item,
            &format!("{path}[{i}]"),
            "kind",
            &CLAUSE_KINDS,
            "a fault-clause kind",
            clause_slots,
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
            .map(|(i, item)| nullable(item, &format!("{path}.extra[{i}]"), script_from_json))
            .collect::<Result<_, _>>()?,
        Some(_) => {
            return Err(bad(
                &format!("{path}.extra"),
                "an array of per-leg scripts (null entries allowed)",
            ))
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
    let path = if path.is_empty() { "(document)" } else { path };
    v.as_object().ok_or_else(|| bad(path, "an object"))
}

/// The `BadValue` at `path`.
fn bad(path: &str, want: &'static str) -> SpecError {
    SpecError::BadValue {
        path: path.into(),
        want,
    }
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
    v.as_u64().ok_or_else(|| bad(path, "an unsigned integer"))
}

fn f64_of(v: &Json, path: &str) -> Result<f64, SpecError> {
    v.as_f64().ok_or_else(|| bad(path, "a number"))
}

fn bool_of(v: &Json, path: &str) -> Result<bool, SpecError> {
    v.as_bool().ok_or_else(|| bad(path, "a boolean"))
}

fn str_of<'a>(v: &'a Json, path: &str) -> Result<&'a str, SpecError> {
    v.as_str().ok_or_else(|| bad(path, "a string"))
}

fn str_owned(v: &Json, path: &str) -> Result<String, SpecError> {
    str_of(v, path).map(str::to_string)
}

/// A nullable value: `null` → `None`, anything else parsed.
fn nullable<T>(
    v: &Json,
    path: &str,
    parse: impl FnOnce(&Json, &str) -> Result<T, SpecError>,
) -> Result<Option<T>, SpecError> {
    if v.is_null() {
        Ok(None)
    } else {
        parse(v, path).map(Some)
    }
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
        Some(_) => Err(bad(key, "an array")),
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
    opt_field(v, path, key, |x, p| nullable(x, p, parse)).map(Option::flatten)
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, SpecError> {
    opt_field(v, "", key, |x, _| u64_of(x, key))
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
    fn bounds_are_checked_as_each_member_is_read() {
        // With several faults in one object, the first in key order is
        // reported: `hold_us` precedes `repair` whatever the document's
        // member order, and a bound is no later than a type error.
        assert_eq!(
            CampaignSpec::from_json(
                r#"{"spec_version":1,"base":{"repair":1,"hold_us":700000000}}"#
            ),
            Err(SpecError::BadValue {
                path: "base.hold_us".into(),
                want: "at most 600 s (MAX_HOLD)",
            })
        );
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
