//! Spec/JSON codec fuzz suite: the daemon's wire format is a total
//! function both ways — any byte string maps to `Ok(CampaignSpec)` or a
//! typed [`SpecError`], never a panic — and canonical bytes are a
//! *stable identity*: `from_json ∘ to_json` is the identity on specs,
//! `to_json ∘ from_json` is the identity on canonical documents, and
//! whitespace/key-order noise re-canonicalizes to the same bytes (so
//! the same campaign always lands on the same cache entries and daemon
//! id).
//!
//! Same discipline as `cache_fuzz.rs`: generators draw from the
//! deterministic `SimRng`, truncation is exercised at *every* byte
//! boundary, and bit flips must map to typed errors or a clean parse.

use rpav_core::json::{Json, JsonError};
use rpav_core::prelude::*;
use rpav_netem::{FaultScript, PacketKind};
use rpav_sim::{SimDuration, SimRng, SimTime};

fn random_kind(rng: &mut SimRng) -> Option<PacketKind> {
    match rng.uniform_u64(0, 4) {
        0 => Some(PacketKind::Media),
        1 => Some(PacketKind::Feedback),
        2 => Some(PacketKind::Probe),
        _ => None,
    }
}

fn random_cc(rng: &mut SimRng) -> CcMode {
    match rng.uniform_u64(0, 3) {
        0 => CcMode::Static {
            bitrate_bps: rng.uniform_u64(1, 50) as f64 * 1e6,
        },
        1 => CcMode::Gcc,
        _ => CcMode::Scream {
            ack_span: rng.uniform_u64(1, 512) as usize,
        },
    }
}

/// A script touching every clause kind the wire format knows, with
/// randomised windows and parameters.
fn random_script(rng: &mut SimRng) -> FaultScript {
    let mut script = FaultScript::new();
    for _ in 0..rng.uniform_u64(1, 4) {
        let at = SimTime::from_micros(rng.uniform_u64(0, 60_000_000));
        let dur = SimDuration::from_micros(rng.uniform_u64(1, 30_000_000));
        let prob = rng.uniform_u64(1, 100) as f64 / 100.0;
        script = match rng.uniform_u64(0, 9) {
            0 => script.blackout(at, dur),
            1 => script.feedback_blackout(at, dur),
            2 => script.loss_window(at, dur, prob, random_kind(rng)),
            3 => script.burst_loss_window(
                at,
                dur,
                prob,
                rng.uniform_u64(1, 100) as f64 / 100.0,
                rng.uniform_u64(1, 100) as f64 / 100.0,
                random_kind(rng),
            ),
            4 => script.delay_spike(
                at,
                dur,
                SimDuration::from_micros(rng.uniform_u64(1, 500_000)),
            ),
            5 => script.duplicate_window(at, dur, prob, random_kind(rng)),
            6 => script.corrupt_window(at, dur, prob, random_kind(rng)),
            7 => script.reorder_window(at, dur, prob, rng.uniform_u64(1, 32)),
            _ => script.coverage_hole(
                rng.uniform_u64(0, 5_000) as f64,
                rng.uniform_u64(0, 5_000) as f64,
                rng.uniform_u64(10, 800) as f64,
                rng.uniform_u64(0, 120) as f64,
            ),
        };
    }
    script
}

fn random_fault(rng: &mut SimRng, i: u64) -> CellFault {
    let mut fault = match rng.uniform_u64(0, 4) {
        0 => CellFault::none(),
        1 => CellFault::link(format!("link-{i}"), random_script(rng)),
        2 => CellFault::uplink(format!("up-{i}"), random_script(rng)),
        _ => CellFault::downlink(format!("down-{i}"), random_script(rng)),
    };
    if rng.chance(0.3) {
        fault.secondary = Some(random_script(rng));
    }
    for _ in 0..rng.uniform_u64(0, 3) {
        fault.extra.push(if rng.chance(0.5) {
            Some(random_script(rng))
        } else {
            None
        });
    }
    fault
}

/// A random but valid spec exercising every axis and every base-config
/// knob the wire format carries.
fn random_spec(rng: &mut SimRng) -> CampaignSpec {
    let mut base = ExperimentConfig::builder()
        .environment(if rng.chance(0.5) {
            Environment::Urban
        } else {
            Environment::Rural
        })
        .operator(if rng.chance(0.5) {
            Operator::P1
        } else {
            Operator::P2
        })
        .mobility(if rng.chance(0.5) {
            Mobility::Air
        } else {
            Mobility::Ground
        })
        .cc(random_cc(rng))
        .seed(rng.uniform_u64(0, u64::MAX))
        .run_index(rng.uniform_u64(0, 16))
        .hold(SimDuration::from_micros(rng.uniform_u64(1, 10_000_000)))
        .ground_sweeps(rng.uniform_u64(1, 6) as usize)
        .drop_on_latency(rng.chance(0.5))
        .repair(rng.chance(0.5))
        .fec_cap(rng.uniform_u64(0, 50) as f64 / 100.0)
        .n_legs(rng.uniform_u64(1, MAX_LEGS as u64 + 1) as usize)
        .coupled_cc(rng.chance(0.5))
        .watchdog_enabled(rng.chance(0.5));
    if rng.chance(0.4) {
        base = base.hysteresis_db(rng.uniform_u64(0, 100) as f64 / 10.0);
    }
    if rng.chance(0.4) {
        base = base.ttt_ms(rng.uniform_u64(0, 1024));
    }
    if rng.chance(0.4) {
        base = base.jitter_target_ms(rng.uniform_u64(10, 500));
    }
    if rng.chance(0.4) {
        base = base.leg_caps(
            rng.uniform_u64(1, 40) as f64 * 1e6,
            rng.uniform_u64(1, 40) as f64 * 1e6,
        );
    }

    let mut spec = CampaignSpec::new(base.build()).runs(rng.uniform_u64(1, 5));
    if rng.chance(0.5) {
        spec = spec.environments(
            [Environment::Urban, Environment::Rural]
                .into_iter()
                .take(rng.uniform_u64(1, 3) as usize),
        );
    }
    if rng.chance(0.5) {
        spec = spec.operators(
            [Operator::P1, Operator::P2]
                .into_iter()
                .take(rng.uniform_u64(1, 3) as usize),
        );
    }
    if rng.chance(0.3) {
        spec = spec.mobilities([Mobility::Air, Mobility::Ground]);
    }
    match rng.uniform_u64(0, 3) {
        0 => {}
        1 => spec = spec.paper_workloads(),
        _ => {
            let ccs: Vec<CcMode> = (0..rng.uniform_u64(1, 4)).map(|_| random_cc(rng)).collect();
            spec = spec.ccs(ccs);
        }
    }
    if rng.chance(0.4) {
        spec = spec.schemes([
            RunScheme::Pipeline,
            RunScheme::Multipath(match rng.uniform_u64(0, 5) {
                0 => MultipathScheme::SinglePath,
                1 => MultipathScheme::Duplicate,
                2 => MultipathScheme::Failover,
                3 => MultipathScheme::SelectiveDuplicate,
                _ => MultipathScheme::Bonded,
            }),
        ]);
    }
    if rng.chance(0.5) {
        let faults: Vec<CellFault> = (0..rng.uniform_u64(1, 4))
            .map(|i| random_fault(rng, i))
            .collect();
        spec = spec.faults(faults);
    }
    if rng.chance(0.3) {
        spec = spec.repairs([false, true]);
    }
    spec
}

/// Inject random whitespace between JSON tokens (never inside strings).
fn add_whitespace(rng: &mut SimRng, doc: &str) -> String {
    let mut out = String::with_capacity(doc.len() * 2);
    let mut in_string = false;
    let mut escaped = false;
    for c in doc.chars() {
        out.push(c);
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '}' | '[' | ']' | ':' | ',' => {
                for _ in 0..rng.uniform_u64(0, 3) {
                    out.push(match rng.uniform_u64(0, 4) {
                        0 => ' ',
                        1 => '\t',
                        2 => '\n',
                        _ => '\r',
                    });
                }
            }
            _ => {}
        }
    }
    out
}

#[test]
fn round_trip_is_lossless_and_canonical_bytes_are_the_identity() {
    let mut rng = SimRng::seed_from_u64(0x5EC_0001);
    for case in 0..400 {
        let spec = random_spec(&mut rng);
        let doc = spec.to_json();
        assert!(doc.is_ascii(), "canonical documents are ASCII");

        let parsed = CampaignSpec::from_json(&doc)
            .unwrap_or_else(|e| panic!("case {case}: own document rejected: {e}\n{doc}"));
        assert_eq!(parsed, spec, "case {case}: round-trip lost information");
        assert_eq!(
            parsed.to_json(),
            doc,
            "case {case}: canonical bytes drifted"
        );
        assert_eq!(parsed.identity(), spec.identity());

        // Non-canonical presentation of the same document must
        // re-canonicalize to *identical* bytes — the cache/id identity
        // rule.
        let noisy = add_whitespace(&mut rng, &doc);
        let reparsed = CampaignSpec::from_json(&noisy)
            .unwrap_or_else(|e| panic!("case {case}: whitespace variant rejected: {e}"));
        assert_eq!(reparsed.to_json(), doc);
        assert_eq!(reparsed.identity(), spec.identity());

        // The expansion the engine sees is a pure function of those
        // bytes: cell keys agree between the original and the wire copy.
        let a: Vec<u64> = spec.to_matrix().expand().iter().map(|c| c.key()).collect();
        let b: Vec<u64> = reparsed
            .to_matrix()
            .expand()
            .iter()
            .map(|c| c.key())
            .collect();
        assert_eq!(a, b, "case {case}: wire copy expands to different cells");
    }
}

#[test]
fn wire_bytes_and_keys_stay_put() {
    // The round trip above compares a build with itself; this pins the
    // wire format from one commit to the next. The literal is FNV-1a over
    // the canonical bytes and the first four cell keys of each spec, as
    // the codec wrote them before the spec types moved to slot lists. A
    // renamed JSON member or a reordered key field moves it — and with it
    // every campaign id and every cache entry.
    let mut rng = SimRng::seed_from_u64(0x5EC_0008);
    let mut wire = Vec::new();
    for _ in 0..2_000 {
        let spec = random_spec(&mut rng);
        wire.extend_from_slice(spec.to_json().as_bytes());
        for cell in spec.to_matrix().expand().iter().take(4) {
            wire.extend_from_slice(&cell.key().to_le_bytes());
        }
    }
    assert_eq!(rpav_core::codec::fnv1a(&wire), 0x65bf_f7ba_f99d_6c66);
}

#[test]
fn truncation_at_every_boundary_is_a_typed_error() {
    let mut rng = SimRng::seed_from_u64(0x5EC_0002);
    let mut spent = 0usize;
    while spent < 12_000 {
        let doc = random_spec(&mut rng).to_json();
        for cut in 0..doc.len() {
            assert!(
                CampaignSpec::from_json(&doc[..cut]).is_err(),
                "truncation at {cut} parsed:\n{doc}"
            );
            spent += 1;
        }
        assert!(CampaignSpec::from_json(&doc).is_ok());
    }
}

#[test]
fn bit_flips_and_noise_never_panic() {
    let mut rng = SimRng::seed_from_u64(0x5EC_0003);
    let (mut ok, mut err) = (0u64, 0u64);
    for _ in 0..4_000 {
        let mut bytes = random_spec(&mut rng).to_json().into_bytes();
        let bit = rng.uniform_u64(0, bytes.len() as u64 * 8);
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        let Ok(text) = std::str::from_utf8(&bytes) else {
            continue; // from_json takes &str; a non-UTF-8 flip can't reach it
        };
        match CampaignSpec::from_json(text) {
            Ok(_) => ok += 1,   // e.g. a digit flip — still a valid document
            Err(_) => err += 1, // typed, not a panic
        }
    }
    assert!(err > 0, "no flip was ever rejected");
    // Pure noise through the raw JSON layer, magic-free: total as well.
    for _ in 0..8_000 {
        let len = rng.uniform_u64(0, 96) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.uniform_u64(0, 256) as u8).collect();
        if let Ok(text) = std::str::from_utf8(&bytes) {
            match Json::parse(text) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
    }
    assert!(ok > 0 && err > 0);
}

#[test]
fn unknown_spec_version_is_a_typed_error() {
    let doc = CampaignSpec::new(ExperimentConfig::builder().hold_secs(1).build()).to_json();
    for bad in [0, SPEC_VERSION + 1, 999] {
        let patched = doc.replace(
            &format!("\"spec_version\":{SPEC_VERSION}"),
            &format!("\"spec_version\":{bad}"),
        );
        match CampaignSpec::from_json(&patched) {
            Err(SpecError::UnsupportedVersion { found }) => assert_eq!(found, bad),
            other => panic!("version {bad}: expected UnsupportedVersion, got {other:?}"),
        }
    }
    // And a document with *no* version field is refused outright.
    match CampaignSpec::from_json("{}") {
        Err(SpecError::MissingField { path }) => assert_eq!(path, "spec_version"),
        other => panic!("expected MissingField(spec_version), got {other:?}"),
    }
}

#[test]
fn oversized_cross_products_are_typed_errors_not_aborts() {
    // A hostile `runs` must die at parse time — before the daemon can
    // persist the spec or try to allocate u64::MAX cells.
    for runs in [u64::MAX, MAX_CELLS + 1] {
        let doc = format!("{{\"spec_version\":1,\"runs\":{runs}}}");
        match CampaignSpec::from_json(&doc) {
            Err(SpecError::TooManyCells { cells, max }) => {
                assert_eq!(max, MAX_CELLS);
                assert_eq!(cells, Some(runs));
            }
            other => panic!("runs={runs}: expected TooManyCells, got {other:?}"),
        }
    }
    // Overflow of the count itself (axes × runs past u64) is the same
    // typed error, with the count marked uncomputable.
    let doc = format!(
        "{{\"spec_version\":1,\"environments\":[\"urban\",\"rural\"],\"runs\":{}}}",
        u64::MAX
    );
    match CampaignSpec::from_json(&doc) {
        Err(SpecError::TooManyCells { cells: None, max }) => assert_eq!(max, MAX_CELLS),
        other => panic!("expected overflowing TooManyCells, got {other:?}"),
    }
    // The cap is inclusive: exactly MAX_CELLS parses, and the counted
    // size matches what expansion would produce.
    let doc = format!("{{\"spec_version\":1,\"runs\":{MAX_CELLS}}}");
    let spec = CampaignSpec::from_json(&doc).expect("MAX_CELLS itself is accepted");
    assert_eq!(spec.to_matrix().cell_count(), Some(MAX_CELLS));
}

#[test]
fn oversized_cells_are_typed_errors_not_aborts() {
    // `MAX_CELLS` bounds how many cells a document expands to; these
    // bound what one cell may cost. Both caps are inclusive.
    let doc = |field: &str, value: u64| {
        format!("{{\"spec_version\":1,\"base\":{{\"mobility\":\"ground\",\"{field}\":{value}}}}}")
    };
    for (field, max) in [
        ("hold_us", MAX_HOLD.as_micros()),
        ("ground_sweeps", MAX_GROUND_SWEEPS),
    ] {
        for hostile in [max + 1, u64::MAX] {
            match CampaignSpec::from_json(&doc(field, hostile)) {
                Err(SpecError::BadValue { path, .. }) => assert_eq!(path, format!("base.{field}")),
                other => panic!("{field}={hostile}: expected BadValue, got {other:?}"),
            }
        }
        let spec = CampaignSpec::from_json(&doc(field, max)).expect("the cap itself is accepted");
        let base = spec.base();
        assert!(base.hold == MAX_HOLD || base.ground_sweeps as u64 == MAX_GROUND_SWEEPS);
    }
    // Values a cell cannot survive: a zero back-off interval spins the
    // starved watchdog forever, a 10 Gbps Static rate aborts on
    // allocation, a zero ack span panics the RFC 8888 builder. Each is a
    // 400 at its member's path, and the bound next to it parses.
    let base = |member: &str| format!("{{\"spec_version\":1,\"base\":{{{member}}}}}");
    for (hostile, path, edge) in [
        (
            r#""watchdog":{"backoff_interval_us":0}"#,
            "base.watchdog.backoff_interval_us",
            r#""watchdog":{"backoff_interval_us":1}"#,
        ),
        (
            r#""cc":{"mode":"static","bitrate_bps":10000000000}"#,
            "base.cc.bitrate_bps",
            r#""cc":{"mode":"static","bitrate_bps":100000000.0}"#,
        ),
        (
            r#""cc":{"mode":"scream","ack_span":0}"#,
            "base.cc.ack_span",
            r#""cc":{"mode":"scream","ack_span":1}"#,
        ),
    ] {
        match CampaignSpec::from_json(&base(hostile)) {
            Err(SpecError::BadValue { path: at, .. }) => assert_eq!(at, path),
            other => panic!("{hostile}: expected BadValue, got {other:?}"),
        }
        CampaignSpec::from_json(&base(edge)).expect("the bound itself is accepted");
    }
    assert_eq!(
        CampaignSpec::from_json(r#"{"spec_version":1,"ccs":[{"mode":"scream","ack_span":0}]}"#),
        Err(SpecError::BadValue {
            path: "ccs[0].ack_span".into(),
            want: "a positive integer",
        })
    );
    assert_eq!(MAX_STATIC_BITRATE_BPS, 100e6);
}

#[test]
fn cell_count_matches_expansion() {
    let mut rng = SimRng::seed_from_u64(0x5EC_0007);
    for _ in 0..50 {
        let spec = random_spec(&mut rng);
        let matrix = spec.to_matrix();
        assert_eq!(
            matrix.cell_count(),
            Some(matrix.expand().len() as u64),
            "checked count must agree with the real expansion"
        );
    }
}

#[test]
fn duplicate_keys_are_rejected_at_the_json_layer() {
    let mut rng = SimRng::seed_from_u64(0x5EC_0004);
    for _ in 0..50 {
        let doc = random_spec(&mut rng).to_json();
        // Canonical docs open with `{"base":…`; prefixing a second
        // `"base"` member makes the *object* malformed before the spec
        // layer ever sees it.
        let dup = format!("{{\"base\":0,{}", &doc[1..]);
        match CampaignSpec::from_json(&dup) {
            Err(SpecError::Json(JsonError::DuplicateKey { key, .. })) => {
                assert_eq!(key, "base");
            }
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
    }
    // Duplicates deep inside a nested object are caught too.
    let nested = r#"{"spec_version":1,"base":{"seed":1,"seed":2}}"#;
    assert!(matches!(
        CampaignSpec::from_json(nested),
        Err(SpecError::Json(JsonError::DuplicateKey { .. }))
    ));
}

#[test]
fn readme_quick_start_example_parses() {
    // The exact spec body from README.md's service-mode quick start —
    // if this stops parsing, fix the docs along with the codec.
    let body = r#"{
  "spec_version": 1,
  "base": {"cc": {"mode": "gcc"}, "seed": 42, "hold_us": 2000000},
  "environments": ["urban", "rural"],
  "runs": 2
}"#;
    let spec = CampaignSpec::from_json(body).expect("README example must stay valid");
    assert_eq!(spec.to_matrix().expand().len(), 4);
    // Re-canonicalized bytes are the identity, whatever the input spacing.
    assert_eq!(
        spec.identity(),
        CampaignSpec::from_json(&spec.to_json()).unwrap().identity()
    );
}
