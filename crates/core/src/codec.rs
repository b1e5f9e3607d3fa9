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
//! The body layout is written down once per type: each record is a list
//! of its fields in encoding order (`record!`) and each enum a list of its
//! variants with their tags (`tagged!`), and the writer, the reader, the
//! shortest encoding and the fixed-size flag all come from that list.
//!
//! On-disk records additionally ride inside a checksummed envelope
//! ([`seal`]/[`unseal`]): a magic + payload length + CRC32 frame so a
//! torn write, a flipped bit, or an unrelated file degrades to a cache
//! miss at the envelope layer — before the structural decoder even runs.
//!
//! A cache record leads with a second section of the same shape
//! ([`seal_record`]): `"RPVS" ‖ slen ‖ crc32 ‖ summary`, the cell's
//! one-cell [`CampaignAggregates`] in its canonical bytes (a few KB),
//! then the body envelope unchanged. The frame is versioned by its
//! leading magic, not by [`FORMAT_VERSION`], which salts every cache key.
//! [`record_head`] and [`unseal_summary`] let a reader verify the summary
//! and the record's length from the bytes up to the body payload alone;
//! [`unseal`] accepts either frame, verifies every CRC present and
//! returns the body payload.
//! [`RunMetrics::to_cache_bytes`]/[`RunMetrics::from_cache_bytes`] write
//! and read whole records.

use rpav_lte::HandoverKind;
use rpav_sim::{SimDuration, SimTime};

use crate::failover::SwitchCause;
use crate::metrics::{
    FrameRecord, HandoverRecord, OutageRecord, PathHealthSummary, RadioTraceRow, RunMetrics,
    SwitchRecord,
};
use crate::summary::CampaignAggregates;

/// Bump on any change to the byte layout below.
/// (v4: on-disk records gained the CRC32 `seal` envelope.)
pub const FORMAT_VERSION: u32 = 4;

/// Magic prefix of every encoded blob.
const MAGIC: &[u8; 4] = b"RPAV";

/// Magic prefix of the on-disk cache envelope.
const ENVELOPE_MAGIC: &[u8; 4] = b"RPVE";

/// Magic prefix of a cache record's leading summary section.
const SUMMARY_MAGIC: &[u8; 4] = b"RPVS";

/// Size of one section header (the envelope's, or the summary's): magic +
/// u64 payload length + u32 CRC32.
pub const ENVELOPE_HEADER: usize = 4 + 8 + 4;

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

/// The [`ENVELOPE_HEADER`] bytes framing `payload` behind `magic`.
fn section_header(magic: &[u8; 4], payload: &[u8]) -> [u8; ENVELOPE_HEADER] {
    let mut head = [0; ENVELOPE_HEADER];
    head[..4].copy_from_slice(magic);
    head[4..12].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    head[12..].copy_from_slice(&crc32(payload).to_le_bytes());
    head
}

/// Frame `payload` in the durable-store envelope:
/// `"RPVE" ‖ len: u64 ‖ crc32(payload): u32 ‖ payload`.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_HEADER + payload.len());
    out.extend_from_slice(&section_header(ENVELOPE_MAGIC, payload));
    out.extend_from_slice(payload);
    out
}

/// Streaming variant of [`seal`]: writes the same envelope followed by
/// the payload to `w` without materialising the sealed buffer.
pub fn seal_to<W: std::io::Write>(payload: &[u8], w: &mut W) -> std::io::Result<()> {
    w.write_all(&section_header(ENVELOPE_MAGIC, payload))?;
    w.write_all(payload)
}

/// Parse one section header wearing `magic`: the section's payload length
/// and CRC, or `None` for a short buffer or another magic.
fn section(head: &[u8], magic: &[u8; 4]) -> Option<(u64, u32)> {
    if head.len() < ENVELOPE_HEADER || &head[..4] != magic {
        return None;
    }
    let len = u64::from_le_bytes(head[4..12].try_into().unwrap());
    let crc = u32::from_le_bytes(head[12..16].try_into().unwrap());
    Some((len, crc))
}

/// Strip and verify a [`seal`] envelope — or a cache record's, which
/// [`seal_record`] leads with a summary section. Returns the body payload,
/// `None` — never panics — on a short buffer, wrong magic, a length that
/// disagrees with the bytes actually present (truncation *or* trailing
/// garbage), or a CRC mismatch in any section present.
pub fn unseal(buf: &[u8]) -> Option<&[u8]> {
    unseal_record(buf).map(|(_, body)| body)
}

/// Frame a cache record: a summary section, then the body envelope —
/// `"RPVS" ‖ slen: u64 ‖ crc32(summary): u32 ‖ summary ‖ seal(body)`.
pub fn seal_record(summary: &[u8], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * ENVELOPE_HEADER + summary.len() + body.len());
    seal_record_to(summary, body, &mut out).expect("writes into a Vec cannot fail");
    out
}

/// Streaming variant of [`seal_record`].
pub fn seal_record_to<W: std::io::Write>(
    summary: &[u8],
    body: &[u8],
    w: &mut W,
) -> std::io::Result<()> {
    w.write_all(&section_header(SUMMARY_MAGIC, summary))?;
    w.write_all(summary)?;
    seal_to(body, w)
}

/// What a cache record's first [`ENVELOPE_HEADER`] bytes announce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordHead {
    /// A summary section leads; the record's first `prefix` bytes run
    /// through the body envelope's header, up to the body payload.
    Summary {
        /// Bytes from the start of the record to the body payload.
        prefix: u64,
    },
    /// A body envelope alone, as [`seal`] writes it.
    BodyOnly,
}

/// Classify a record by its leading header; `None` for anything that is
/// neither frame (or shorter than one header).
pub fn record_head(head: &[u8]) -> Option<RecordHead> {
    if let Some((len, _)) = section(head, SUMMARY_MAGIC) {
        let prefix = len.checked_add(2 * ENVELOPE_HEADER as u64)?;
        return Some(RecordHead::Summary { prefix });
    }
    section(head, ENVELOPE_MAGIC).map(|_| RecordHead::BodyOnly)
}

/// Verify a record's summary section from its `prefix` bytes alone (see
/// [`RecordHead::Summary`]) and the record's total length: both headers'
/// magic, section lengths that add up to exactly `record_len`, and the
/// summary CRC. The body payload is neither read nor checked. Returns the
/// summary payload.
pub fn unseal_summary(prefix: &[u8], record_len: u64) -> Option<&[u8]> {
    let (slen, crc) = section(prefix, SUMMARY_MAGIC)?;
    let summary = prefix
        .get(ENVELOPE_HEADER..)?
        .get(..usize::try_from(slen).ok()?)?;
    let body_head = &prefix[ENVELOPE_HEADER + summary.len()..];
    let (blen, _) = section(body_head, ENVELOPE_MAGIC)?;
    let whole = (prefix.len() as u64).checked_add(blen)?;
    (body_head.len() == ENVELOPE_HEADER && whole == record_len && crc32(summary) == crc)
        .then_some(summary)
}

/// Split and verify a whole record of either frame: every section's
/// magic, length and CRC. Returns the summary payload (`None` for a
/// body-only frame) and the body payload.
pub fn unseal_record(buf: &[u8]) -> Option<(Option<&[u8]>, &[u8])> {
    let (summary, body) = match record_head(buf)? {
        RecordHead::BodyOnly => (None, buf),
        RecordHead::Summary { prefix } => {
            let prefix = usize::try_from(prefix).ok().filter(|p| *p <= buf.len())?;
            let summary = unseal_summary(&buf[..prefix], buf.len() as u64)?;
            (Some(summary), &buf[prefix - ENVELOPE_HEADER..])
        }
    };
    let (len, crc) = section(body, ENVELOPE_MAGIC)?;
    let payload = &body[ENVELOPE_HEADER..];
    (payload.len() as u64 == len && crc32(payload) == crc).then_some((summary, payload))
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

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Make room for `additional` more bytes in one allocation.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
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
    /// exactly `len` (≥ 1) bytes: one length check claims the whole
    /// `n × len` body, then each element decodes from its own chunk — no
    /// per-field cursor checks against the blob. An element reader that
    /// fails, or that does not consume its chunk exactly, is a `None`
    /// like every other malformed input.
    pub fn seq_exact<T>(
        &mut self,
        len: usize,
        mut read: impl FnMut(&mut ByteReader) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = usize::try_from(self.u64()?).ok()?;
        let body = self.take(n.checked_mul(len)?)?;
        let mut out = Vec::with_capacity(n);
        for chunk in body.chunks_exact(len) {
            let mut r = ByteReader::new(chunk);
            out.push(read(&mut r)?);
            if !r.exhausted() {
                return None;
            }
        }
        Some(out)
    }
}

/// A value with a place in a record's byte layout: how it is written, how
/// it is read back, the fewest bytes it can encode to (what
/// [`ByteReader::seq`] divides a claimed sequence length by, and what
/// [`ByteWriter`] reserves per element) and whether every value encodes
/// to exactly that many (a sequence of such values is read with
/// [`ByteReader::seq_exact`]). Scalars are the writer's and the reader's
/// methods; `record!` and `tagged!` derive all four from one list per
/// struct or enum, so the layout is written down once.
trait Field: Sized {
    /// Shortest encoding, in bytes (≥ 1).
    const MIN_LEN: usize;
    /// Whether every value encodes to exactly `MIN_LEN` bytes.
    const FIXED: bool;
    fn write(&self, w: &mut ByteWriter);
    fn read(r: &mut ByteReader) -> Option<Self>;
}

/// Fixed-width scalars: the width, the writer method, the reader method.
macro_rules! scalar {
    ($($ty:ty: $len:expr, $write:expr, $read:expr;)*) => {$(
        impl Field for $ty {
            const MIN_LEN: usize = $len;
            const FIXED: bool = true;
            fn write(&self, w: &mut ByteWriter) {
                $write(w, *self)
            }
            fn read(r: &mut ByteReader) -> Option<Self> {
                $read(r)
            }
        }
    )*};
}

scalar! {
    u8: 1, ByteWriter::u8, ByteReader::u8;
    bool: 1, ByteWriter::bool, ByteReader::bool;
    u32: 4, ByteWriter::u32, ByteReader::u32;
    u64: 8, ByteWriter::u64, ByteReader::u64;
    f64: 8, ByteWriter::f64, ByteReader::f64;
    usize: 8,
        |w: &mut ByteWriter, v: usize| w.u64(v as u64),
        |r: &mut ByteReader| r.u64().map(|v| v as usize);
    SimTime: 8, ByteWriter::time, |r: &mut ByteReader| r.u64().map(SimTime::from_micros);
    SimDuration: 8,
        ByteWriter::duration,
        |r: &mut ByteReader| r.u64().map(SimDuration::from_micros);
}

/// A presence byte, then the value.
impl<T: Field> Field for Option<T> {
    const MIN_LEN: usize = 1;
    const FIXED: bool = false;
    fn write(&self, w: &mut ByteWriter) {
        w.opt(self.as_ref(), |w, v| v.write(w));
    }
    fn read(r: &mut ByteReader) -> Option<Self> {
        match r.u8()? {
            0 => Some(None),
            1 => T::read(r).map(Some),
            _ => None,
        }
    }
}

/// A length prefix, then the elements: reserved once at their shortest
/// length, and read in one bulk pass when they are fixed-size.
impl<T: Field> Field for Vec<T> {
    const MIN_LEN: usize = 8;
    const FIXED: bool = false;
    fn write(&self, w: &mut ByteWriter) {
        w.reserve(8 + self.len() * T::MIN_LEN);
        w.u64(self.len() as u64);
        for item in self {
            item.write(w);
        }
    }
    fn read(r: &mut ByteReader) -> Option<Self> {
        if T::FIXED {
            r.seq_exact(T::MIN_LEN, T::read)
        } else {
            r.seq(T::MIN_LEN, T::read)
        }
    }
}

/// The `owd` sequence — one sample per received packet, > 90 % of a
/// record's bytes — in the same bytes as a sequence of `(SimTime, f64)`
/// fields, but in one pass each way: the buffer grown once and each
/// sample written into its own 16-byte chunk; one length check claims
/// the whole body (so a hostile count is rejected before anything is
/// reserved), then every chunk is one sample, with no cursor.
impl Field for Vec<(SimTime, f64)> {
    const MIN_LEN: usize = 8;
    const FIXED: bool = false;
    fn write(&self, w: &mut ByteWriter) {
        w.u64(self.len() as u64);
        let start = w.buf.len();
        w.buf.resize(start + self.len() * OWD_SAMPLE, 0);
        for (chunk, &(t, ms)) in w.buf[start..].chunks_exact_mut(OWD_SAMPLE).zip(self) {
            let (at, value) = chunk.split_at_mut(8);
            at.copy_from_slice(&t.as_micros().to_le_bytes());
            value.copy_from_slice(&ms.to_bits().to_le_bytes());
        }
    }
    fn read(r: &mut ByteReader) -> Option<Self> {
        let n = usize::try_from(r.u64()?).ok()?;
        let body = r.take(n.checked_mul(OWD_SAMPLE)?)?;
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        let sample = |c: &[u8]| {
            (
                SimTime::from_micros(word(&c[..8])),
                f64::from_bits(word(&c[8..])),
            )
        };
        Some(body.chunks_exact(OWD_SAMPLE).map(sample).collect())
    }
}

/// Encoded length of one OWD sample.
const OWD_SAMPLE: usize = <SimTime as Field>::MIN_LEN + <f64 as Field>::MIN_LEN;

/// A fieldless enum as one tag byte: its variants with their tags. The
/// writer's `match` is exhaustive, so a new variant does not compile
/// until it has a tag.
macro_rules! tagged {
    ($ty:ident { $($variant:ident = $tag:literal),* $(,)? }) => {
        impl Field for $ty {
            const MIN_LEN: usize = 1;
            const FIXED: bool = true;
            fn write(&self, w: &mut ByteWriter) {
                w.u8(match self { $($ty::$variant => $tag),* })
            }
            fn read(r: &mut ByteReader) -> Option<Self> {
                match r.u8()? {
                    $($tag => Some($ty::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

/// A struct as its fields, in encoding order. The reader builds the
/// struct from the same list, so a field left out or listed twice does
/// not compile; the shortest length and the fixed-size flag are the sum
/// and the conjunction over the fields' own.
macro_rules! record {
    ($ty:ident: $($field:ident),* $(,)?) => {
        impl Field for $ty {
            const MIN_LEN: usize = 0 $(+ min_len(|x: &$ty| &x.$field))*;
            const FIXED: bool = true $(&& fixed(|x: &$ty| &x.$field))*;
            fn write(&self, w: &mut ByteWriter) {
                $(Field::write(&self.$field, w);)*
            }
            fn read(r: &mut ByteReader) -> Option<Self> {
                Some($ty { $($field: Field::read(r)?),* })
            }
        }
    };
}

/// `MIN_LEN` of the field `of` picks out of a record.
const fn min_len<R, T: Field>(_of: fn(&R) -> &T) -> usize {
    T::MIN_LEN
}

/// `FIXED` of the field `of` picks out of a record.
const fn fixed<R, T: Field>(_of: fn(&R) -> &T) -> bool {
    T::FIXED
}

tagged! { HandoverKind { A3 = 0, RadioLinkFailure = 1 } }
tagged! { SwitchCause { Starvation = 0, RadioLinkFailure = 1, HandoverSignal = 2, Degraded = 3 } }

record! { HandoverRecord: at, het, kind, from, to }
record! { RadioTraceRow: t, altitude_m, capacity_bps, rsrp_dbm, sinr_db, in_handover }
record! { FrameRecord: number, display_at, latency_ms, ssim, displayed }
record! {
    OutageRecord: from, until, baseline_bps, first_arrival_after, first_frame_after,
    rate_half_recovered_at, rate_recovered_at
}
record! { SwitchRecord: at, from_leg, to_leg, cause }
record! {
    PathHealthSummary: leg, time_healthy, time_degraded, time_dead, reports, final_rtt_ms,
    final_loss, tx_packets
}
record! {
    RunMetrics: duration, media_sent, media_received, media_received_bytes, owd, handovers,
    radio, frames, stalls, stalled_time, frames_late_discarded, sender_discarded,
    span_skipped, distinct_cells, plis_sent, plis_received, forced_keyframes,
    watchdog_activations, watchdog_recoveries, watchdog_last_ramp, jitter_inflations,
    script_dropped, outages, malformed_packets, corrupted_arrivals, duplicate_packets,
    late_packets, malformed_payloads, nacks_sent, nack_seqs_requested, rtx_recovered,
    rtx_late, nack_abandoned, rtx_sent, rtx_bytes, rtx_budget_exhausted, rtx_not_in_history,
    switches, path_health, probes_sent, dup_tx_packets, dup_tx_bytes, path_reports_received,
    fec_tx, fec_recovered, reorder_buffered, fec_multi_recovered
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
        Field::write(self, w);
    }

    /// Decode a blob written by [`to_bytes`](Self::to_bytes). Returns
    /// `None` on any mismatch — wrong magic, a different format or crate
    /// version, truncation, trailing bytes, or an unknown enum tag — so a
    /// stale cache entry degrades to a cache miss.
    pub fn from_bytes(buf: &[u8]) -> Option<RunMetrics> {
        let mut r = ByteReader::new(buf);
        if r.take(4)? != MAGIC || r.u32()? != FORMAT_VERSION {
            return None;
        }
        let version_len = r.u64()? as usize;
        if r.take(version_len)? != env!("CARGO_PKG_VERSION").as_bytes() {
            return None;
        }
        let m = <RunMetrics as Field>::read(&mut r)?;
        r.exhausted().then_some(m)
    }

    /// The cache record the engine writes to `RPAV_CACHE`: the one-cell
    /// [`CampaignAggregates`] fold as the summary section, then
    /// [`to_bytes`](Self::to_bytes) in the [`seal`] envelope
    /// ([`seal_record`]).
    pub fn to_cache_bytes(&self) -> Vec<u8> {
        let mut summary = CampaignAggregates::default();
        summary.fold(self);
        seal_record(&summary.to_bytes(), &self.to_bytes())
    }

    /// Decode an on-disk cache record's body, of either frame. Any
    /// corruption — a torn write, a flipped bit anywhere in the file,
    /// truncation, or a stale format — returns `None` so the engine
    /// treats the file as a miss.
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
        // The bulk pass writes exactly what a sequence of `SimTime` +
        // `f64` fields writes (the layout every sealed record already
        // has), and reads it back bit for bit, NaN payloads included.
        let owd = vec![
            (SimTime::from_micros(1), 17.25),
            (
                SimTime::from_micros(u64::MAX),
                f64::from_bits(0x7FF8_0000_0000_0001),
            ),
            (SimTime::ZERO, -0.0),
        ];
        let mut bulk = ByteWriter::new();
        Field::write(&owd, &mut bulk);
        let mut fields = ByteWriter::new();
        fields.u64(owd.len() as u64);
        for (t, ms) in &owd {
            t.write(&mut fields);
            ms.write(&mut fields);
        }
        let bytes = bulk.into_bytes();
        assert_eq!(bytes, fields.into_bytes());
        assert_eq!(bytes.len(), 8 + owd.len() * OWD_SAMPLE);
        let mut r = ByteReader::new(&bytes);
        let back = Vec::<(SimTime, f64)>::read(&mut r).expect("decode");
        assert!(r.exhausted());
        let bits = |v: &[(SimTime, f64)]| -> Vec<(SimTime, u64)> {
            v.iter().map(|&(t, ms)| (t, ms.to_bits())).collect()
        };
        assert_eq!(bits(&back), bits(&owd));
    }

    fn encoded_len<T: Field>(value: &T) -> usize {
        let mut w = ByteWriter::new();
        value.write(&mut w);
        w.len()
    }

    #[test]
    fn strides_match_the_encoded_element_sizes() {
        let m = sample();
        // The derived shortest lengths are the ones the format has always
        // had, so every hostile-length bound is where it was.
        let lens = [
            HandoverRecord::MIN_LEN,
            RadioTraceRow::MIN_LEN,
            FrameRecord::MIN_LEN,
            OutageRecord::MIN_LEN,
            SwitchRecord::MIN_LEN,
            PathHealthSummary::MIN_LEN,
        ];
        assert_eq!(lens, [25, 41, 26, 28, 11, 43]);
        let fixed = [
            HandoverRecord::FIXED,
            RadioTraceRow::FIXED,
            FrameRecord::FIXED,
            OutageRecord::FIXED,
            SwitchRecord::FIXED,
            PathHealthSummary::FIXED,
            RunMetrics::FIXED,
        ];
        assert_eq!(fixed, [true, true, false, false, true, false, false]);
        // A fixed-size type encodes to its shortest length whatever the
        // values…
        let a3 = HandoverRecord {
            kind: HandoverKind::A3,
            ..m.handovers[0]
        };
        for h in [m.handovers[0], a3] {
            assert_eq!(encoded_len(&h), HandoverRecord::MIN_LEN);
        }
        assert_eq!(encoded_len(&m.radio[0]), RadioTraceRow::MIN_LEN);
        assert_eq!(encoded_len(&m.switches[0]), SwitchRecord::MIN_LEN);
        // …and a type with optional fields or sequences encodes to it
        // when every option is `None` and every sequence empty.
        let frame = FrameRecord {
            latency_ms: None,
            ..m.frames[0]
        };
        assert_eq!(encoded_len(&frame), FrameRecord::MIN_LEN);
        assert!(encoded_len(&m.frames[0]) > FrameRecord::MIN_LEN);
        let outage = OutageRecord {
            first_arrival_after: None,
            rate_half_recovered_at: None,
            ..m.outages[0]
        };
        assert_eq!(encoded_len(&outage), OutageRecord::MIN_LEN);
        let health = PathHealthSummary {
            final_rtt_ms: None,
            ..m.path_health[0]
        };
        assert_eq!(encoded_len(&health), PathHealthSummary::MIN_LEN);
        assert_eq!(encoded_len(&RunMetrics::default()), RunMetrics::MIN_LEN);
    }

    #[test]
    fn hostile_sequence_lengths_are_rejected_before_allocating() {
        // A 24-byte blob whose length field claims 2^60 elements: the
        // bound is `remaining / MIN_LEN`, so nothing is reserved.
        let mut w = ByteWriter::new();
        w.u64(1 << 60);
        w.u64(0);
        w.u64(0);
        let blob = w.into_bytes();
        assert!(ByteReader::new(&blob).seq(1, |r| r.u8()).is_none());
        assert!(Vec::<RadioTraceRow>::read(&mut ByteReader::new(&blob)).is_none());
        assert!(Vec::<FrameRecord>::read(&mut ByteReader::new(&blob)).is_none());
        assert!(Vec::<(SimTime, f64)>::read(&mut ByteReader::new(&blob)).is_none());
        // One more element than the bytes hold is already too many…
        let mut w = ByteWriter::new();
        w.u64(2);
        w.u64(7);
        let blob = w.into_bytes();
        assert!(ByteReader::new(&blob).seq(8, |r| r.u64()).is_none());
        assert!(Vec::<(SimTime, f64)>::read(&mut ByteReader::new(&blob)).is_none());
        assert!(ByteReader::new(&blob).seq_exact(8, |r| r.u64()).is_none());
        // …and exactly as many is fine.
        let mut w = ByteWriter::new();
        vec![7u64, 9].write(&mut w);
        let blob = w.into_bytes();
        assert_eq!(ByteReader::new(&blob).seq(8, |r| r.u64()), Some(vec![7, 9]));
        assert_eq!(
            ByteReader::new(&blob).seq_exact(8, |r| r.u64()),
            Some(vec![7, 9])
        );
        assert_eq!(
            Vec::<u64>::read(&mut ByteReader::new(&blob)),
            Some(vec![7, 9])
        );
        // An element reader that leaves part of its chunk unread is a
        // malformed decode, not a silent misparse.
        assert!(ByteReader::new(&blob).seq_exact(8, |r| r.u32()).is_none());
    }

    /// FNV-1a of the fixture's body and cache record and of the empty
    /// run's body, pinned before the layouts became field lists: a moved
    /// byte is a format change.
    #[test]
    fn record_bytes_stay_put() {
        let m = sample();
        assert_eq!(fnv1a(&m.to_bytes()), 0x95e0_8c41_d6e7_59f7);
        assert_eq!(fnv1a(&m.to_cache_bytes()), 0x26e4_0b2b_de9b_af08);
        assert_eq!(
            fnv1a(&RunMetrics::default().to_bytes()),
            0x8743_1b65_a60b_86a8
        );
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
