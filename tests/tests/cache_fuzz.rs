//! Cache-codec fuzz suite: the disk-cache decode path is a total
//! function — any byte string maps to `Some(RunMetrics)` or `None`
//! (a cache miss), never a panic and never a silent partial decode.
//!
//! Extends the wire-parser pattern from `parser_fuzz.rs` to the cache
//! entry points:
//!
//! * [`RunMetrics::from_bytes`] — the raw canonical encoding;
//! * [`RunMetrics::from_cache_bytes`] and [`unseal`] — the record the
//!   engine writes to `RPAV_CACHE`: a summary section
//!   (`"RPVS" ‖ slen ‖ crc32 ‖ summary`, the cell's one-cell
//!   `CampaignAggregates`) ahead of the body envelope
//!   (`"RPVE" ‖ len ‖ crc32 ‖ payload`);
//! * [`unseal_summary`] — the summary-only read a streaming hit makes.
//!
//! Every record the suite writes also carries a summary equal to the
//! one-cell fold of its own decoded body.
//!
//! The generators are the same three as PR 2's suite (pure noise,
//! truncation at every byte boundary, single-bit flips) plus the
//! corruptions a real cache directory produces: trailing garbage from
//! a torn append, and a stale `FORMAT_VERSION` resealed with a valid
//! CRC. All randomness comes from the deterministic `SimRng`, so a
//! failure reproduces exactly.

use rpav_core::codec::{
    record_head, seal, unseal, unseal_record, unseal_summary, RecordHead, FORMAT_VERSION,
};
use rpav_core::prelude::*;
use rpav_sim::{SimDuration, SimRng, SimTime};

/// Adversarial cases per entry point (the acceptance floor is 10 000).
const CASES: usize = 12_000;

/// A randomised but valid metrics record: scalar counters plus a few
/// variable-length sequences so truncation boundaries land inside
/// `seq` headers, elements, and the f64 payloads alike. NaN OWD
/// samples are included deliberately — the codec must round-trip their
/// exact bit pattern.
fn valid_metrics(rng: &mut SimRng) -> RunMetrics {
    let mut m = RunMetrics {
        duration: SimDuration::from_millis(rng.uniform_u64(1, 120_000)),
        media_sent: rng.uniform_u64(0, 1 << 24),
        media_received: rng.uniform_u64(0, 1 << 24),
        media_received_bytes: rng.uniform_u64(0, 1 << 32),
        stalls: rng.uniform_u64(0, 64),
        stalled_time: SimDuration::from_micros(rng.uniform_u64(0, 5_000_000)),
        nacks_sent: rng.uniform_u64(0, 1 << 12),
        rtx_recovered: rng.uniform_u64(0, 1 << 12),
        fec_tx: rng.uniform_u64(0, 1 << 12),
        fec_recovered: rng.uniform_u64(0, 1 << 10),
        ..RunMetrics::default()
    };
    for i in 0..rng.uniform_u64(0, 12) {
        let ms = if rng.chance(0.1) {
            f64::NAN
        } else {
            rng.uniform_u64(0, 500_000) as f64 / 1_000.0
        };
        m.owd.push((SimTime::from_micros(i * 1_000), ms));
    }
    m
}

fn random_bytes(rng: &mut SimRng, max: u64) -> Vec<u8> {
    let len = rng.uniform_u64(0, max) as usize;
    (0..len).map(|_| rng.uniform_u64(0, 256) as u8).collect()
}

/// Hammer one decoder with noise, every-boundary truncations, and
/// single-bit flips. `strict_flips` asserts every flip is *rejected*
/// (the sealed envelope's CRC guarantee); without it a flip merely
/// must not panic (the raw encoding carries no checksum).
fn hammer(
    name: &str,
    seed: u64,
    encode: impl Fn(&RunMetrics) -> Vec<u8>,
    parse: impl Fn(&[u8]) -> bool,
    strict_flips: bool,
) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut ok = 0u64;
    let mut err = 0u64;
    let mut tally = |parsed: bool| if parsed { ok += 1 } else { err += 1 };

    // 1) Pure noise, half of it wearing a plausible 4-byte magic so the
    //    decoders get past the cheapest rejection.
    for _ in 0..CASES / 3 {
        let mut b = random_bytes(&mut rng, 96);
        if rng.chance(0.5) && b.len() >= 4 {
            let magic = [b"RPAV", b"RPVE", b"RPVS"][rng.uniform_u64(0, 3) as usize];
            b[..4].copy_from_slice(magic);
        }
        tally(parse(&b));
    }

    // 2) Truncation at every byte boundary of a valid record, cycling
    //    fresh records until the budget is spent. Every proper prefix
    //    is a clean miss; the full encoding parses.
    let mut spent = 0;
    while spent < CASES / 3 {
        let wire = encode(&valid_metrics(&mut rng));
        for cut in 0..wire.len() {
            assert!(!parse(&wire[..cut]), "{name}: truncation at {cut} parsed");
            spent += 1;
        }
        assert!(parse(&wire), "{name}: valid record failed to parse");
        tally(true);
        // Trailing garbage — a torn cache append — is a miss, not a
        // silent partial decode.
        let mut padded = wire.clone();
        padded.push(rng.uniform_u64(0, 256) as u8);
        assert!(!parse(&padded), "{name}: trailing garbage parsed");
    }

    // 3) Single-bit flips at random positions.
    for _ in 0..CASES / 3 {
        let mut bytes = encode(&valid_metrics(&mut rng));
        let bit = rng.uniform_u64(0, bytes.len() as u64 * 8);
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        let parsed = parse(&bytes);
        if strict_flips {
            assert!(!parsed, "{name}: bit flip at {bit} slipped past the CRC");
        }
        tally(parsed);
    }

    assert!(ok > 0, "{name}: no generated input ever parsed");
    assert!(err > 0, "{name}: no generated input was ever rejected");
}

#[test]
fn from_bytes_is_total() {
    hammer(
        "RunMetrics::from_bytes",
        0xCAFE_0001,
        |m| m.to_bytes(),
        |b| RunMetrics::from_bytes(b).is_some(),
        false,
    );
}

/// A record as the engine writes it, checked on the way out: its summary
/// section decodes to exactly the one-cell fold of its decoded body.
fn cache_record(m: &RunMetrics) -> Vec<u8> {
    let wire = m.to_cache_bytes();
    let (summary, body) = unseal_record(&wire).expect("a fresh record unseals");
    let summary = CampaignAggregates::from_bytes(summary.expect("a summary section leads"))
        .expect("the summary decodes");
    let mut fold = CampaignAggregates::default();
    fold.fold(&RunMetrics::from_bytes(body).expect("the body decodes"));
    assert_eq!(summary, fold, "the stored summary is not the body's fold");
    assert_eq!(summary.to_bytes(), fold.to_bytes());
    wire
}

#[test]
fn from_cache_bytes_is_total_and_crc_rejects_every_flip() {
    hammer(
        "RunMetrics::from_cache_bytes",
        0xCAFE_0002,
        cache_record,
        |b| RunMetrics::from_cache_bytes(b).is_some(),
        // CRC-32 detects any single-bit error, and flips in the
        // envelope header break the magic / length / stored CRC — so
        // *every* flip must read as a miss, not just most.
        true,
    );
}

#[test]
fn unseal_is_total_and_crc_rejects_every_flip() {
    hammer(
        "unseal",
        0xCAFE_0006,
        cache_record,
        |b| unseal(b).is_some(),
        true,
    );
}

/// The summary section and the body of a record, as byte ranges.
fn sections(wire: &[u8]) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
    let Some(RecordHead::Summary { prefix }) = record_head(wire) else {
        panic!("no summary section");
    };
    let prefix = prefix as usize;
    (0..prefix - 16, prefix - 16..wire.len())
}

/// Single-bit flips aimed at each section in turn, through both whole-record
/// entry points: every one is rejected. Through the summary-only read a
/// flip in the summary section or in the body header's magic or length is
/// rejected too; the body's CRC and payload are the body read's to check.
#[test]
fn flips_in_either_section_are_rejected() {
    let mut rng = SimRng::seed_from_u64(0xCAFE_0007);
    let mut flips = [0usize; 2];
    while flips.iter().any(|&n| n < CASES) {
        let mut wire = cache_record(&valid_metrics(&mut rng));
        let (summary, body) = sections(&wire);
        let prefix = body.start + 16;
        for (section, range) in [summary, body].into_iter().enumerate() {
            let bit = rng.uniform_u64((range.start * 8) as u64, (range.end * 8) as u64) as usize;
            wire[bit / 8] ^= 1 << (bit % 8);
            assert!(unseal(&wire).is_none(), "flip at bit {bit} unsealed");
            assert!(
                RunMetrics::from_cache_bytes(&wire).is_none(),
                "flip at bit {bit} decoded"
            );
            let head_only = unseal_summary(&wire[..prefix.min(wire.len())], wire.len() as u64);
            if bit / 8 < prefix - 4 {
                assert!(
                    head_only.is_none(),
                    "flip at bit {bit} passed the summary read"
                );
            }
            wire[bit / 8] ^= 1 << (bit % 8);
            flips[section] += 1;
        }
        assert!(unseal(&wire).is_some());
        assert!(unseal_summary(&wire[..prefix], wire.len() as u64).is_some());
    }
}

/// Every truncation of a record, and every truncation of its prefix, is
/// refused by the summary-only read: it checks the record's length
/// against both headers without reading the body.
#[test]
fn summary_read_rejects_every_truncation() {
    let mut rng = SimRng::seed_from_u64(0xCAFE_0008);
    let mut spent = 0;
    while spent < CASES {
        let wire = cache_record(&valid_metrics(&mut rng));
        let prefix = sections(&wire).1.start + 16;
        for cut in 0..wire.len() {
            let seen = &wire[..prefix.min(cut)];
            assert!(
                unseal_summary(seen, cut as u64).is_none(),
                "a record cut at {cut} passed the summary read"
            );
            spent += 1;
        }
        assert!(unseal_summary(&wire[..prefix], wire.len() as u64 + 1).is_none());
        assert!(unseal_summary(&wire[..prefix], wire.len() as u64).is_some());
    }
}

/// Payloads at least this long are checksummed by the carry-less-multiply
/// CRC kernel where the build has one (shorter ones by slice-by-16 alone).
const CRC_KERNEL_MIN_LEN: usize = 128;

/// Exhaustive single-bit sweep over one cache record, both sections: all
/// `len × 8` flips are rejected, and restoring the bit re-parses. Each
/// payload is long enough for the CRC kernel, so a flip anywhere in it —
/// in the 64-byte fold, the 16-byte fold tail or the byte tail — is
/// caught by the kernel, not by the slice-by-16 fallback.
#[test]
fn sealed_record_rejects_all_bit_flips_exhaustively() {
    let mut rng = SimRng::seed_from_u64(0xCAFE_0003);
    let mut wire = cache_record(&valid_metrics(&mut rng));
    let payload = unseal(&wire).expect("valid record").len();
    assert!(payload >= CRC_KERNEL_MIN_LEN, "payload of {payload} B");
    assert_ne!(payload % 16, 0, "the sweep must reach the byte tail");
    for bit in 0..wire.len() * 8 {
        wire[bit / 8] ^= 1 << (bit % 8);
        assert!(
            RunMetrics::from_cache_bytes(&wire).is_none(),
            "flip at bit {bit} survived"
        );
        wire[bit / 8] ^= 1 << (bit % 8);
    }
    assert!(RunMetrics::from_cache_bytes(&wire).is_some());
}

/// A `FORMAT_VERSION` bump is a clean miss through both entry points —
/// including when the stale payload is *resealed with a valid CRC*,
/// the shape an old cache directory takes after a release upgrade.
#[test]
fn format_version_bump_is_a_clean_miss() {
    let mut rng = SimRng::seed_from_u64(0xCAFE_0004);
    let good = valid_metrics(&mut rng).to_bytes();
    assert!(RunMetrics::from_bytes(&good).is_some());
    // The version is the little-endian u32 after the 4-byte magic.
    for stale in [FORMAT_VERSION + 1, FORMAT_VERSION - 1, 0, u32::MAX] {
        let mut patched = good.clone();
        patched[4..8].copy_from_slice(&stale.to_le_bytes());
        assert!(
            RunMetrics::from_bytes(&patched).is_none(),
            "version {stale} decoded"
        );
        // Resealing gives the stale payload a *correct* envelope CRC;
        // the inner version check must still reject it.
        assert!(
            RunMetrics::from_cache_bytes(&seal(&patched)).is_none(),
            "resealed version {stale} decoded"
        );
    }
}

/// Round-trip through the sealed envelope is byte-exact — the property
/// the engine's bit-identity invariants (jobs=1 ≡ jobs=N, kill/resume)
/// stand on.
#[test]
fn cache_roundtrip_is_byte_exact() {
    let mut rng = SimRng::seed_from_u64(0xCAFE_0005);
    for _ in 0..200 {
        let m = valid_metrics(&mut rng);
        let back = RunMetrics::from_cache_bytes(&cache_record(&m)).expect("roundtrip");
        assert_eq!(back.to_bytes(), m.to_bytes());
    }
}

/// Offset of the `owd` length field in an encoded record: where the
/// encodings of an empty and a one-sample record first differ (the low
/// byte of the little-endian count).
fn owd_len_offset() -> usize {
    let empty = RunMetrics::default().to_bytes();
    let mut one = RunMetrics::default();
    one.owd.push((SimTime::ZERO, 0.0));
    let one = one.to_bytes();
    empty.iter().zip(&one).position(|(a, b)| a != b).unwrap()
}

/// A length field that claims far more elements than the record has
/// bytes for — wearing a *valid* CRC, so the envelope lets it through —
/// is a clean miss for every bulk sequence, and is rejected from the
/// claimed count alone: nothing close to `claimed × element size` is ever
/// reserved (a 2^40-element `radio` reservation would abort the process,
/// not return).
#[test]
fn hostile_sequence_length_in_a_crc_valid_record_is_a_miss() {
    // One record with every bulk sequence empty, so each length field
    // sits at a known offset: owd, handovers, radio, frames — 8 bytes
    // each, back to back.
    let good = RunMetrics::default().to_bytes();
    assert!(RunMetrics::from_bytes(&good).is_some());
    let owd = owd_len_offset();
    for (name, at) in [("owd", owd), ("radio", owd + 16), ("frames", owd + 24)] {
        assert_eq!(good[at..at + 8], [0; 8], "{name}: not a zero length field");
        // Far more than the bytes present, a little more than the bytes
        // present, and lengths whose byte count overflows a usize.
        let remaining = (good.len() - at - 8) as u64;
        for claimed in [
            1 << 40,
            remaining + 1,
            remaining / 16 + 1,
            u64::MAX,
            u64::MAX / 16 + 2,
        ] {
            let mut hostile = good.clone();
            hostile[at..at + 8].copy_from_slice(&claimed.to_le_bytes());
            assert!(
                RunMetrics::from_bytes(&hostile).is_none(),
                "{name}: claimed {claimed} decoded"
            );
            assert!(
                RunMetrics::from_cache_bytes(&seal(&hostile)).is_none(),
                "{name}: resealed claimed {claimed} decoded"
            );
        }
    }
}
