//! Byte-exact serialization of [`RunMetrics`].
//!
//! The matrix engine ([`exec`](crate::exec)) needs two things from a run's
//! metrics: a canonical byte form whose equality *is* result equality (the
//! determinism contract "jobs=1 ≡ jobs=8" is asserted over these bytes),
//! and a round-trippable encoding for the on-disk result cache under
//! `target/rpav-cache`. Both are served by one hand-rolled little-endian
//! format — no external serde in this workspace.
//!
//! The format is versioned ([`FORMAT_VERSION`]) and salted with the crate
//! version, so a rebuilt crate silently invalidates every cached result
//! instead of replaying metrics a code change may have altered.
//!
//! On-disk records additionally ride inside a checksummed envelope
//! ([`seal`]/[`unseal`]): a magic + payload length + CRC32 frame so a
//! torn write, a flipped bit, or an unrelated file degrades to a cache
//! miss at the envelope layer — before the structural decoder even runs.
//! [`RunMetrics::to_cache_bytes`]/[`RunMetrics::from_cache_bytes`] are
//! the durable-store entry points the engine uses.

use rpav_lte::HandoverKind;
use rpav_sim::{SimDuration, SimTime};

use crate::failover::SwitchCause;
use crate::metrics::{
    FrameRecord, HandoverRecord, OutageRecord, PathHealthSummary, RadioTraceRow, RunMetrics,
    SwitchRecord,
};

/// Bump on any change to the byte layout below.
/// (v4: on-disk records gained the CRC32 `seal` envelope.)
pub const FORMAT_VERSION: u32 = 4;

/// Magic prefix of every encoded blob.
const MAGIC: &[u8; 4] = b"RPAV";

/// Magic prefix of the on-disk cache envelope.
const ENVELOPE_MAGIC: &[u8; 4] = b"RPVE";

/// Envelope header size: magic + u64 payload length + u32 CRC32.
const ENVELOPE_HEADER: usize = 4 + 8 + 4;

/// CRC-32/ISO-HDLC (the ubiquitous IEEE 802.3 polynomial) slice-by-16
/// lookup tables, generated at compile time — dependency-free like the
/// rest of the codec. `CRC32_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, which lets sixteen input bytes fold into the register with
/// sixteen independent lookups instead of a sixteen-deep dependency chain.
static CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32/ISO-HDLC of `bytes` — detects any single-burst corruption up to
/// 32 bits, so every 1-byte flip in a sealed record is caught.
///
/// Where the compile target has PCLMULQDQ and SSE4.1 (this workspace
/// builds with `target-cpu=native`), inputs of 128 bytes or more fold
/// through the carry-less-multiply kernel and only the last `len % 16`
/// bytes go through slice-by-16; everywhere else
/// slice-by-16 is the whole CRC. Same polynomial and same values as the
/// byte-at-a-time loop (which survives as the test oracle) on every
/// input, whichever path runs.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "pclmulqdq",
        target_feature = "sse4.1"
    ))]
    if bytes.len() >= clmul::MIN_LEN {
        let (body, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: `clmul::fold` needs PCLMULQDQ and SSE4.1, and this
        // block is compiled only for targets that guarantee both (the
        // `cfg` above), so every CPU that runs this binary has them.
        let c = unsafe { clmul::fold(0xFFFF_FFFF, body) };
        return crc32_slice16(c, tail) ^ 0xFFFF_FFFF;
    }
    crc32_slice16(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Slice-by-16 over the running (pre-inverted) CRC register `c`: sixteen
/// bytes per step through [`CRC32_TABLES`], then a byte-wise tail.
fn crc32_slice16(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        // The twelve lookups that do not wait for the running CRC first,
        // then the four that do: the block's critical path is one table
        // load, not sixteen. (Written as one sixteen-term expression,
        // LLVM turns the loads into AVX-512 gathers where the target has
        // them — this workspace builds with `target-cpu=native` — and the
        // step runs three times slower.)
        let mut next = 0;
        for (table, &byte) in t[..12].iter().rev().zip(&b[4..]) {
            next ^= table[byte as usize];
        }
        let head = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ c;
        c = next
            ^ t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 by carry-less multiplication: the folding scheme of Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009), for the bit-reflected polynomial. Four
/// 128-bit lanes each fold 64 bytes ahead per step, the lanes fold into
/// one, single 16-byte blocks fold after that, and a Barrett reduction
/// takes the 64-bit remainder to the 32-bit CRC register.
///
/// The functions are safe `#[target_feature]` functions: the intrinsics
/// need no `unsafe` inside them, and the loads go through
/// `u64::from_le_bytes`, so the one `unsafe` is [`crc32`]'s call.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "pclmulqdq",
    target_feature = "sse4.1"
))]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_extract_epi32, _mm_set_epi64x,
        _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input [`fold`] takes: below two lane-widths the setup and
    /// the reduction cost more than slice-by-16 does.
    pub(super) const MIN_LEN: usize = 128;

    /// `x^(512±32) mod P` and `x^(128±32) mod P`, bit-reflected: the
    /// multipliers that move a 128-bit lane 64 bytes and 16 bytes ahead.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64 mod P`, bit-reflected: the 64 → 32-bit fold.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial `P'` and the Barrett constant `μ = x^64 / P`,
    /// bit-reflected.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Sixteen bytes as one little-endian lane.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(b: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(b[..8].try_into().unwrap());
        let hi = u64::from_le_bytes(b[8..16].try_into().unwrap());
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `x` moved ahead by the distance `k` encodes, xor `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The CRC register after `body` (a multiple of 16 bytes, at least
    /// 64) has been folded into the running register `crc`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, body: &[u8]) -> u32 {
        assert!(body.len() >= 64 && body.len() % 16 == 0);
        let mut blocks = body.chunks_exact(64);
        let first = blocks.next().expect("at least one 64-byte block");
        let mut lanes = [
            _mm_xor_si128(load(&first[..16]), _mm_set_epi64x(0, i64::from(crc))),
            load(&first[16..32]),
            load(&first[32..48]),
            load(&first[48..]),
        ];
        let k = _mm_set_epi64x(K2, K1);
        for block in &mut blocks {
            for (lane, next) in lanes.iter_mut().zip(block.chunks_exact(16)) {
                *lane = fold_into(*lane, k, load(next));
            }
        }
        let k = _mm_set_epi64x(K4, K3);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = fold_into(x, k, lane);
        }
        for next in blocks.remainder().chunks_exact(16) {
            x = fold_into(x, k, load(next));
        }

        // 128 → 64 bits, then 64 → 32 bits, each by one multiply.
        let low32 = _mm_set_epi64x(0xFFFF_FFFF, 0xFFFF_FFFF);
        let x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k, 0x10));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction: q = ⌊x · μ⌋ on the low 32 bits, x − q · P.
        let pmu = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, low32), pmu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, qp), 1) as u32
    }
}

/// The byte-at-a-time CRC-32 [`crc32`] replaced: the oracle its tests
/// (and the cross-version cache test in `exec`) compare against.
#[cfg(test)]
pub(crate) fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// 64-bit FNV-1a: tiny, dependency-free, stable across processes and
/// platforms. The hash behind every cross-process identity in the repo —
/// cell cache keys, campaign journal identity, and the daemon's
/// canonical-spec-bytes campaign id.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Frame `payload` in the durable-store envelope:
/// `"RPVE" ‖ len: u64 ‖ crc32(payload): u32 ‖ payload`.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_HEADER + payload.len());
    out.extend_from_slice(ENVELOPE_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Streaming variant of [`seal`]: writes the same envelope followed by
/// the payload to `w` without materialising the sealed buffer.
pub fn seal_to<W: std::io::Write>(payload: &[u8], w: &mut W) -> std::io::Result<()> {
    w.write_all(ENVELOPE_MAGIC)?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)
}

/// Strip and verify a [`seal`] envelope. Returns `None` — never panics —
/// on a short buffer, wrong magic, a length that disagrees with the bytes
/// actually present (truncation *or* trailing garbage), or a CRC mismatch.
pub fn unseal(buf: &[u8]) -> Option<&[u8]> {
    if buf.len() < ENVELOPE_HEADER || &buf[..4] != ENVELOPE_MAGIC {
        return None;
    }
    let len = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let crc = u32::from_le_bytes(buf[12..16].try_into().unwrap());
    let payload = &buf[ENVELOPE_HEADER..];
    if payload.len() as u64 != len || crc32(payload) != crc {
        return None;
    }
    Some(payload)
}

/// Append-only little-endian byte sink.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Writer over a recycled buffer: clears the contents but keeps the
    /// capacity, so a per-worker scratch vector serves every encode.
    pub fn with_buf(mut buf: Vec<u8>) -> Self {
        buf.clear();
        ByteWriter { buf }
    }

    /// Finish and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its IEEE-754 bit pattern (bit-exact, NaN-safe).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a [`SimTime`] as microseconds.
    pub fn time(&mut self, t: SimTime) {
        self.u64(t.as_micros());
    }

    /// Write a [`SimDuration`] as microseconds.
    pub fn duration(&mut self, d: SimDuration) {
        self.u64(d.as_micros());
    }

    /// Write an optional value behind a presence byte.
    pub fn opt<T>(&mut self, v: Option<T>, write: impl FnOnce(&mut Self, T)) {
        match v {
            Some(v) => {
                self.u8(1);
                write(self, v);
            }
            None => self.u8(0),
        }
    }

    /// Write a slice behind a length prefix. `stride` is the encoded size
    /// of one element (its minimum, for elements with optional fields):
    /// the whole sequence is reserved once instead of growing per field.
    pub fn seq<T>(&mut self, items: &[T], stride: usize, mut write: impl FnMut(&mut Self, &T)) {
        self.buf.reserve(8 + items.len() * stride);
        self.u64(items.len() as u64);
        for item in items {
            write(self, item);
        }
    }

    /// Write raw bytes (length-prefixed).
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
}

/// Cursor over an encoded blob; every read returns `None` past the end, so
/// truncated or foreign cache files decode to a miss, never a panic.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Whether every byte has been consumed.
    pub fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Read a bool; rejects anything but 0/1.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Read a [`SimTime`].
    pub fn time(&mut self) -> Option<SimTime> {
        self.u64().map(SimTime::from_micros)
    }

    /// Read a [`SimDuration`].
    pub fn duration(&mut self) -> Option<SimDuration> {
        self.u64().map(SimDuration::from_micros)
    }

    /// Read an optional value.
    pub fn opt<T>(&mut self, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        match self.u8()? {
            0 => Some(None),
            1 => read(self).map(Some),
            _ => None,
        }
    }

    /// Read a length-prefixed sequence whose elements each encode to at
    /// least `min_stride` (≥ 1) bytes. A length field claiming more
    /// elements than the remaining bytes could hold is rejected *before*
    /// anything is allocated, so a hostile length can reserve at most the
    /// in-memory size of the elements the blob really has room for.
    pub fn seq<T>(
        &mut self,
        min_stride: usize,
        mut read: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = usize::try_from(self.u64()?).ok()?;
        if n > (self.buf.len() - self.pos) / min_stride {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Some(out)
    }

    /// Bulk form of [`seq`](Self::seq) for elements that always encode to
    /// exactly `N` bytes: one length check claims the whole `n × N` body,
    /// then each element decodes from its own `N`-byte chunk — no
    /// per-field cursor checks against the blob. An element reader that
    /// fails, or that does not consume its chunk exactly, is a `None`
    /// like every other malformed input.
    pub fn seq_fixed<const N: usize, T>(
        &mut self,
        mut read: impl FnMut(&mut ByteReader) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = usize::try_from(self.u64()?).ok()?;
        let body = self.take(n.checked_mul(N)?)?;
        let mut out = Vec::with_capacity(n);
        for chunk in body.chunks_exact(N) {
            let chunk: &[u8; N] = chunk.try_into().ok()?;
            let mut r = ByteReader::new(chunk);
            out.push(read(&mut r)?);
            if !r.exhausted() {
                return None;
            }
        }
        Some(out)
    }
}

/// Encoded element sizes of the `RunMetrics` sequences, for the
/// [`ByteWriter::seq`] reservation and the decoders' length bound: exact
/// for the fixed-layout elements (`OWD` — [`write_owd`] / [`read_owd`] —
/// and `HANDOVER`, `RADIO`, `SWITCH`, read with
/// [`ByteReader::seq_fixed`]), the all-`None` minimum for the rest (read
/// with [`ByteReader::seq`]).
mod stride {
    pub const OWD: usize = 8 + 8;
    pub const HANDOVER: usize = 8 + 8 + 1 + 4 + 4;
    pub const RADIO: usize = 8 + 4 * 8 + 1;
    pub const FRAME: usize = 8 + 8 + 1 + 8 + 1;
    pub const OUTAGE: usize = 8 + 8 + 8 + 4;
    pub const SWITCH: usize = 8 + 3;
    pub const PATH_HEALTH: usize = 1 + 3 * 8 + 8 + 1 + 1 + 8;
}

fn handover_kind_tag(kind: HandoverKind) -> u8 {
    match kind {
        HandoverKind::A3 => 0,
        HandoverKind::RadioLinkFailure => 1,
    }
}

fn handover_kind_from(tag: u8) -> Option<HandoverKind> {
    match tag {
        0 => Some(HandoverKind::A3),
        1 => Some(HandoverKind::RadioLinkFailure),
        _ => None,
    }
}

fn switch_cause_tag(cause: SwitchCause) -> u8 {
    match cause {
        SwitchCause::Starvation => 0,
        SwitchCause::RadioLinkFailure => 1,
        SwitchCause::HandoverSignal => 2,
        SwitchCause::Degraded => 3,
    }
}

fn switch_cause_from(tag: u8) -> Option<SwitchCause> {
    match tag {
        0 => Some(SwitchCause::Starvation),
        1 => Some(SwitchCause::RadioLinkFailure),
        2 => Some(SwitchCause::HandoverSignal),
        3 => Some(SwitchCause::Degraded),
        _ => None,
    }
}

/// The `owd` sequence — one sample per received packet, > 90 % of a
/// record's bytes — in one fixed-stride pass: the length prefix, then the
/// buffer grown once and each sample written into its own 16-byte chunk.
fn write_owd(w: &mut ByteWriter, owd: &[(SimTime, f64)]) {
    w.u64(owd.len() as u64);
    let start = w.buf.len();
    w.buf.resize(start + owd.len() * stride::OWD, 0);
    for (chunk, &(t, ms)) in w.buf[start..].chunks_exact_mut(stride::OWD).zip(owd) {
        let (at, value) = chunk.split_at_mut(8);
        at.copy_from_slice(&t.as_micros().to_le_bytes());
        value.copy_from_slice(&ms.to_bits().to_le_bytes());
    }
}

/// [`write_owd`]'s inverse: one length check claims the whole body (so a
/// hostile count is rejected before anything is reserved), then every
/// 16-byte chunk is one `(SimTime, f64)` sample — no cursor, no
/// per-element bounds or exhaustion check.
fn read_owd(r: &mut ByteReader) -> Option<Vec<(SimTime, f64)>> {
    let n = usize::try_from(r.u64()?).ok()?;
    let body = r.take(n.checked_mul(stride::OWD)?)?;
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
    let sample = |c: &[u8]| {
        (
            SimTime::from_micros(word(&c[..8])),
            f64::from_bits(word(&c[8..])),
        )
    };
    Some(body.chunks_exact(stride::OWD).map(sample).collect())
}

fn write_handover(w: &mut ByteWriter, h: &HandoverRecord) {
    w.time(h.at);
    w.duration(h.het);
    w.u8(handover_kind_tag(h.kind));
    w.u32(h.from);
    w.u32(h.to);
}

fn read_handover(r: &mut ByteReader) -> Option<HandoverRecord> {
    Some(HandoverRecord {
        at: r.time()?,
        het: r.duration()?,
        kind: handover_kind_from(r.u8()?)?,
        from: r.u32()?,
        to: r.u32()?,
    })
}

fn write_radio(w: &mut ByteWriter, row: &RadioTraceRow) {
    w.time(row.t);
    w.f64(row.altitude_m);
    w.f64(row.capacity_bps);
    w.f64(row.rsrp_dbm);
    w.f64(row.sinr_db);
    w.bool(row.in_handover);
}

fn read_radio(r: &mut ByteReader) -> Option<RadioTraceRow> {
    Some(RadioTraceRow {
        t: r.time()?,
        altitude_m: r.f64()?,
        capacity_bps: r.f64()?,
        rsrp_dbm: r.f64()?,
        sinr_db: r.f64()?,
        in_handover: r.bool()?,
    })
}

fn write_frame(w: &mut ByteWriter, f: &FrameRecord) {
    w.u64(f.number);
    w.time(f.display_at);
    w.opt(f.latency_ms, |w, v| w.f64(v));
    w.f64(f.ssim);
    w.bool(f.displayed);
}

fn read_frame(r: &mut ByteReader) -> Option<FrameRecord> {
    Some(FrameRecord {
        number: r.u64()?,
        display_at: r.time()?,
        latency_ms: r.opt(|r| r.f64())?,
        ssim: r.f64()?,
        displayed: r.bool()?,
    })
}

fn write_outage(w: &mut ByteWriter, o: &OutageRecord) {
    w.time(o.from);
    w.time(o.until);
    w.f64(o.baseline_bps);
    w.opt(o.first_arrival_after, |w, v| w.time(v));
    w.opt(o.first_frame_after, |w, v| w.time(v));
    w.opt(o.rate_half_recovered_at, |w, v| w.time(v));
    w.opt(o.rate_recovered_at, |w, v| w.time(v));
}

fn read_outage(r: &mut ByteReader) -> Option<OutageRecord> {
    Some(OutageRecord {
        from: r.time()?,
        until: r.time()?,
        baseline_bps: r.f64()?,
        first_arrival_after: r.opt(|r| r.time())?,
        first_frame_after: r.opt(|r| r.time())?,
        rate_half_recovered_at: r.opt(|r| r.time())?,
        rate_recovered_at: r.opt(|r| r.time())?,
    })
}

fn write_switch(w: &mut ByteWriter, s: &SwitchRecord) {
    w.time(s.at);
    w.u8(s.from_leg);
    w.u8(s.to_leg);
    w.u8(switch_cause_tag(s.cause));
}

fn read_switch(r: &mut ByteReader) -> Option<SwitchRecord> {
    Some(SwitchRecord {
        at: r.time()?,
        from_leg: r.u8()?,
        to_leg: r.u8()?,
        cause: switch_cause_from(r.u8()?)?,
    })
}

fn write_path_health(w: &mut ByteWriter, p: &PathHealthSummary) {
    w.u8(p.leg);
    w.duration(p.time_healthy);
    w.duration(p.time_degraded);
    w.duration(p.time_dead);
    w.u64(p.reports);
    w.opt(p.final_rtt_ms, |w, v| w.f64(v));
    w.opt(p.final_loss, |w, v| w.f64(v));
    w.u64(p.tx_packets);
}

fn read_path_health(r: &mut ByteReader) -> Option<PathHealthSummary> {
    Some(PathHealthSummary {
        leg: r.u8()?,
        time_healthy: r.duration()?,
        time_degraded: r.duration()?,
        time_dead: r.duration()?,
        reports: r.u64()?,
        final_rtt_ms: r.opt(|r| r.f64())?,
        final_loss: r.opt(|r| r.f64())?,
        tx_packets: r.u64()?,
    })
}

impl RunMetrics {
    /// Canonical byte encoding. Two metrics encode identically **iff**
    /// every recorded field — down to each OWD sample's f64 bit pattern —
    /// is identical; the parallel engine's determinism tests compare these
    /// bytes directly.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.write_into(&mut w);
        w.into_bytes()
    }

    /// [`to_bytes`](Self::to_bytes) into a caller-supplied writer, so the
    /// engine's per-worker record buffer absorbs the encode allocation
    /// across every cell the worker runs.
    pub fn write_into(&self, w: &mut ByteWriter) {
        w.buf.extend_from_slice(MAGIC);
        w.u32(FORMAT_VERSION);
        w.bytes(env!("CARGO_PKG_VERSION").as_bytes());
        w.duration(self.duration);
        w.u64(self.media_sent);
        w.u64(self.media_received);
        w.u64(self.media_received_bytes);
        write_owd(w, &self.owd);
        w.seq(&self.handovers, stride::HANDOVER, write_handover);
        w.seq(&self.radio, stride::RADIO, write_radio);
        w.seq(&self.frames, stride::FRAME, write_frame);
        w.u64(self.stalls);
        w.duration(self.stalled_time);
        w.u64(self.frames_late_discarded);
        w.u64(self.sender_discarded);
        w.u64(self.span_skipped);
        w.u64(self.distinct_cells as u64);
        w.u64(self.plis_sent);
        w.u64(self.plis_received);
        w.u64(self.forced_keyframes);
        w.u64(self.watchdog_activations);
        w.u64(self.watchdog_recoveries);
        w.opt(self.watchdog_last_ramp, |w, v| w.duration(v));
        w.u64(self.jitter_inflations);
        w.u64(self.script_dropped);
        w.seq(&self.outages, stride::OUTAGE, write_outage);
        w.u64(self.malformed_packets);
        w.u64(self.corrupted_arrivals);
        w.u64(self.duplicate_packets);
        w.u64(self.late_packets);
        w.u64(self.malformed_payloads);
        w.u64(self.nacks_sent);
        w.u64(self.nack_seqs_requested);
        w.u64(self.rtx_recovered);
        w.u64(self.rtx_late);
        w.u64(self.nack_abandoned);
        w.u64(self.rtx_sent);
        w.u64(self.rtx_bytes);
        w.u64(self.rtx_budget_exhausted);
        w.u64(self.rtx_not_in_history);
        w.seq(&self.switches, stride::SWITCH, write_switch);
        w.seq(&self.path_health, stride::PATH_HEALTH, write_path_health);
        w.u64(self.probes_sent);
        w.u64(self.dup_tx_packets);
        w.u64(self.dup_tx_bytes);
        w.u64(self.path_reports_received);
        w.u64(self.fec_tx);
        w.u64(self.fec_recovered);
        w.u64(self.reorder_buffered);
        w.u64(self.fec_multi_recovered);
    }

    /// Decode a blob written by [`to_bytes`](Self::to_bytes). Returns
    /// `None` on any mismatch — wrong magic, a different format or crate
    /// version, truncation, trailing bytes, or an unknown enum tag — so a
    /// stale cache entry degrades to a cache miss.
    pub fn from_bytes(buf: &[u8]) -> Option<RunMetrics> {
        let mut r = ByteReader::new(buf);
        if r.take(4)? != MAGIC {
            return None;
        }
        if r.u32()? != FORMAT_VERSION {
            return None;
        }
        let version_len = r.u64()? as usize;
        if r.take(version_len)? != env!("CARGO_PKG_VERSION").as_bytes() {
            return None;
        }
        let m = RunMetrics {
            duration: r.duration()?,
            media_sent: r.u64()?,
            media_received: r.u64()?,
            media_received_bytes: r.u64()?,
            owd: read_owd(&mut r)?,
            handovers: r.seq_fixed::<{ stride::HANDOVER }, _>(read_handover)?,
            radio: r.seq_fixed::<{ stride::RADIO }, _>(read_radio)?,
            frames: r.seq(stride::FRAME, read_frame)?,
            stalls: r.u64()?,
            stalled_time: r.duration()?,
            frames_late_discarded: r.u64()?,
            sender_discarded: r.u64()?,
            span_skipped: r.u64()?,
            distinct_cells: r.u64()? as usize,
            plis_sent: r.u64()?,
            plis_received: r.u64()?,
            forced_keyframes: r.u64()?,
            watchdog_activations: r.u64()?,
            watchdog_recoveries: r.u64()?,
            watchdog_last_ramp: r.opt(|r| r.duration())?,
            jitter_inflations: r.u64()?,
            script_dropped: r.u64()?,
            outages: r.seq(stride::OUTAGE, read_outage)?,
            malformed_packets: r.u64()?,
            corrupted_arrivals: r.u64()?,
            duplicate_packets: r.u64()?,
            late_packets: r.u64()?,
            malformed_payloads: r.u64()?,
            nacks_sent: r.u64()?,
            nack_seqs_requested: r.u64()?,
            rtx_recovered: r.u64()?,
            rtx_late: r.u64()?,
            nack_abandoned: r.u64()?,
            rtx_sent: r.u64()?,
            rtx_bytes: r.u64()?,
            rtx_budget_exhausted: r.u64()?,
            rtx_not_in_history: r.u64()?,
            switches: r.seq_fixed::<{ stride::SWITCH }, _>(read_switch)?,
            path_health: r.seq(stride::PATH_HEALTH, read_path_health)?,
            probes_sent: r.u64()?,
            dup_tx_packets: r.u64()?,
            dup_tx_bytes: r.u64()?,
            path_reports_received: r.u64()?,
            fec_tx: r.u64()?,
            fec_recovered: r.u64()?,
            reorder_buffered: r.u64()?,
            fec_multi_recovered: r.u64()?,
        };
        if !r.exhausted() {
            return None;
        }
        Some(m)
    }

    /// [`to_bytes`](Self::to_bytes) wrapped in the durable-store
    /// [`seal`] envelope — the form the engine writes to `RPAV_CACHE`.
    pub fn to_cache_bytes(&self) -> Vec<u8> {
        seal(&self.to_bytes())
    }

    /// Decode an on-disk cache record. Any corruption — a torn write, a
    /// flipped bit anywhere in the file, truncation, or a stale format —
    /// returns `None` so the engine treats the file as a miss.
    pub fn from_cache_bytes(buf: &[u8]) -> Option<RunMetrics> {
        RunMetrics::from_bytes(unseal(buf)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunMetrics {
        RunMetrics {
            duration: SimDuration::from_secs(10),
            media_sent: 1_000,
            media_received: 990,
            media_received_bytes: 1_200_000,
            owd: vec![
                (SimTime::from_millis(5), 17.25),
                (SimTime::from_millis(6), f64::NAN),
            ],
            handovers: vec![HandoverRecord {
                at: SimTime::from_secs(2),
                het: SimDuration::from_millis(45),
                kind: HandoverKind::RadioLinkFailure,
                from: 3,
                to: 7,
            }],
            radio: vec![RadioTraceRow {
                t: SimTime::from_millis(100),
                altitude_m: 80.0,
                capacity_bps: 12e6,
                rsrp_dbm: -95.5,
                sinr_db: 11.0,
                in_handover: true,
            }],
            frames: vec![FrameRecord {
                number: 1,
                display_at: SimTime::from_millis(200),
                latency_ms: Some(180.5),
                ssim: 0.93,
                displayed: true,
            }],
            stalls: 2,
            stalled_time: SimDuration::from_millis(750),
            watchdog_last_ramp: Some(SimDuration::from_millis(1_200)),
            outages: vec![OutageRecord {
                from: SimTime::from_secs(3),
                until: SimTime::from_secs(5),
                baseline_bps: 8e6,
                first_arrival_after: Some(SimTime::from_millis(5_100)),
                first_frame_after: None,
                rate_half_recovered_at: Some(SimTime::from_secs(6)),
                rate_recovered_at: None,
            }],
            switches: vec![SwitchRecord {
                at: SimTime::from_secs(4),
                from_leg: 0,
                to_leg: 1,
                cause: SwitchCause::Degraded,
            }],
            path_health: vec![PathHealthSummary {
                leg: 1,
                time_healthy: SimDuration::from_secs(8),
                time_degraded: SimDuration::from_secs(1),
                time_dead: SimDuration::from_secs(1),
                reports: 160,
                final_rtt_ms: Some(42.0),
                final_loss: None,
                tx_packets: 4_321,
            }],
            fec_tx: 55,
            fec_recovered: 7,
            reorder_buffered: 31,
            fec_multi_recovered: 3,
            ..RunMetrics::default()
        }
    }

    #[test]
    fn roundtrip_is_byte_exact() {
        let m = sample();
        let bytes = m.to_bytes();
        let back = RunMetrics::from_bytes(&bytes).expect("decode");
        // Equality via re-encoding: covers every field, including the NaN
        // OWD sample's exact bit pattern.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn hostile_bytes_decode_to_none_not_panic() {
        let good = sample().to_bytes();
        assert!(RunMetrics::from_bytes(&[]).is_none());
        assert!(RunMetrics::from_bytes(b"JUNKJUNKJUNK").is_none());
        // Truncations at every prefix length must fail cleanly.
        for cut in [4usize, 8, 12, 40, good.len() / 2, good.len() - 1] {
            assert!(RunMetrics::from_bytes(&good[..cut]).is_none(), "cut {cut}");
        }
        // Trailing garbage is rejected (no silent partial decode).
        let mut padded = good.clone();
        padded.push(0);
        assert!(RunMetrics::from_bytes(&padded).is_none());
        // A flipped version byte invalidates the blob.
        let mut wrong_version = good.clone();
        wrong_version[4] ^= 0xFF;
        assert!(RunMetrics::from_bytes(&wrong_version).is_none());
    }

    #[test]
    fn default_metrics_roundtrip() {
        let m = RunMetrics::default();
        let bytes = m.to_bytes();
        let back = RunMetrics::from_bytes(&bytes).expect("decode default");
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // CRC-32/ISO-HDLC check values (the zlib/PNG/IEEE 802.3 CRC).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_matches_bytewise_reference_at_every_length_and_alignment() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let mut rng = rpav_sim::SimRng::seed_from_u64(0xC4C3_2016);
        let mut random =
            |len: usize| -> Vec<u8> { (0..len).map(|_| rng.uniform_u64(0, 256) as u8).collect() };
        // Every length 0..=1 024 at every start offset mod 16: below the
        // kernel's 128-byte floor (slice-by-16 alone), the 64-byte fold
        // loop, the 16-byte fold tail after it, the byte tail, and every
        // hand-over between them.
        let buf = random(16 + 1_024);
        for start in 0..16 {
            for len in 0..=1_024 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        let mut lengths = rpav_sim::SimRng::seed_from_u64(0xC4C3_2017);
        for case in 0..1_000 {
            let buf = random(lengths.uniform_u64(0, 64 * 1024 + 1) as usize);
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "case {case}");
        }
        for case in 0..16 {
            let buf = random(lengths.uniform_u64(0, 1024 * 1024 + 1) as usize);
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "large case {case}");
        }
    }

    #[test]
    fn owd_bulk_codec_matches_the_per_field_layout() {
        // The bulk pass writes exactly what a `seq` of `time` + `f64`
        // fields writes (the layout every sealed record already has), and
        // reads it back bit for bit, NaN payloads included.
        let owd = [
            (SimTime::from_micros(1), 17.25),
            (
                SimTime::from_micros(u64::MAX),
                f64::from_bits(0x7FF8_0000_0000_0001),
            ),
            (SimTime::ZERO, -0.0),
        ];
        let mut bulk = ByteWriter::new();
        write_owd(&mut bulk, &owd);
        let mut fields = ByteWriter::new();
        fields.seq(&owd, stride::OWD, |w, &(t, ms)| {
            w.time(t);
            w.f64(ms);
        });
        let bytes = bulk.into_bytes();
        assert_eq!(bytes, fields.into_bytes());
        assert_eq!(bytes.len(), 8 + owd.len() * stride::OWD);
        let mut r = ByteReader::new(&bytes);
        let back = read_owd(&mut r).expect("decode");
        assert!(r.exhausted());
        let bits = |v: &[(SimTime, f64)]| -> Vec<(SimTime, u64)> {
            v.iter().map(|&(t, ms)| (t, ms.to_bits())).collect()
        };
        assert_eq!(bits(&back), bits(&owd));
    }

    #[test]
    fn strides_match_the_encoded_element_sizes() {
        let m = sample();
        let encoded = |write: &dyn Fn(&mut ByteWriter)| {
            let mut w = ByteWriter::new();
            write(&mut w);
            w.into_bytes().len()
        };
        assert_eq!(
            encoded(&|w| write_handover(w, &m.handovers[0])),
            stride::HANDOVER
        );
        assert_eq!(encoded(&|w| write_radio(w, &m.radio[0])), stride::RADIO);
        assert_eq!(
            encoded(&|w| write_switch(w, &m.switches[0])),
            stride::SWITCH
        );
        // The elements with optional fields: the stride is the all-`None`
        // encoding, the lower bound `ByteReader::seq` divides by.
        let frame = FrameRecord {
            latency_ms: None,
            ..m.frames[0]
        };
        assert_eq!(encoded(&|w| write_frame(w, &frame)), stride::FRAME);
        let outage = OutageRecord {
            first_arrival_after: None,
            rate_half_recovered_at: None,
            ..m.outages[0]
        };
        assert_eq!(encoded(&|w| write_outage(w, &outage)), stride::OUTAGE);
        let health = PathHealthSummary {
            final_rtt_ms: None,
            ..m.path_health[0]
        };
        assert_eq!(
            encoded(&|w| write_path_health(w, &health)),
            stride::PATH_HEALTH
        );
    }

    #[test]
    fn hostile_sequence_lengths_are_rejected_before_allocating() {
        // A 24-byte blob whose length field claims 2^60 elements: the
        // bound is `remaining / stride`, so nothing is reserved.
        let mut w = ByteWriter::new();
        w.u64(1 << 60);
        w.u64(0);
        w.u64(0);
        let blob = w.into_bytes();
        assert!(ByteReader::new(&blob).seq(1, |r| r.u8()).is_none());
        assert!(ByteReader::new(&blob)
            .seq_fixed::<{ stride::RADIO }, _>(read_radio)
            .is_none());
        assert!(read_owd(&mut ByteReader::new(&blob)).is_none());
        // One more element than the bytes hold is already too many…
        let mut w = ByteWriter::new();
        w.u64(2);
        w.u64(7);
        let blob = w.into_bytes();
        assert!(ByteReader::new(&blob).seq(8, |r| r.u64()).is_none());
        assert!(read_owd(&mut ByteReader::new(&blob)).is_none());
        assert!(ByteReader::new(&blob)
            .seq_fixed::<8, _>(|r| r.u64())
            .is_none());
        // …and exactly as many is fine.
        let mut w = ByteWriter::new();
        w.seq(&[7u64, 9], 8, |w, v| w.u64(*v));
        let blob = w.into_bytes();
        assert_eq!(ByteReader::new(&blob).seq(8, |r| r.u64()), Some(vec![7, 9]));
        assert_eq!(
            ByteReader::new(&blob).seq_fixed::<8, _>(|r| r.u64()),
            Some(vec![7, 9])
        );
        // An element reader that leaves part of its chunk unread is a
        // malformed decode, not a silent misparse.
        assert!(ByteReader::new(&blob)
            .seq_fixed::<8, _>(|r| r.u32())
            .is_none());
    }

    #[test]
    fn envelope_roundtrip_and_rejection() {
        let m = sample();
        let sealed = m.to_cache_bytes();
        let back = RunMetrics::from_cache_bytes(&sealed).expect("unseal");
        assert_eq!(back.to_bytes(), m.to_bytes());

        // Truncation at every prefix length fails at the envelope layer.
        for cut in 0..sealed.len() {
            assert!(
                RunMetrics::from_cache_bytes(&sealed[..cut]).is_none(),
                "cut {cut}"
            );
        }
        // Any single flipped bit is caught by the CRC (or magic/len check).
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert!(RunMetrics::from_cache_bytes(&bad).is_none(), "flip at {i}");
        }
        // Trailing garbage disagrees with the recorded length.
        let mut padded = sealed.clone();
        padded.push(0);
        assert!(RunMetrics::from_cache_bytes(&padded).is_none());
    }

    #[test]
    fn envelope_rejects_resealed_stale_format() {
        // A stale inner FORMAT_VERSION with a *valid* CRC must still be
        // rejected — the envelope proves integrity, not freshness.
        let mut payload = sample().to_bytes();
        payload[4] ^= 0xFF; // corrupt FORMAT_VERSION, then reseal honestly
        assert!(RunMetrics::from_cache_bytes(&seal(&payload)).is_none());
        assert!(
            unseal(&seal(&payload)).is_some(),
            "envelope itself is valid"
        );
    }
}
