//! Reed–Solomon forward error correction across bonded legs.
//!
//! The bonded multipath scheme stripes a frame's packets over every Up
//! leg; a single bursty leg then erases a *subset* of a frame instead of
//! a contiguous run. Parity shards protect a group of up to
//! [`MAX_FEC_GROUP`] consecutive media packets: the receiver rebuilds
//! lost members from the parity and the survivors — before the NACK/RTX
//! path ever has to spend a round trip on them.
//!
//! The Gilbert–Elliott bursts the fault scripts inject routinely erase
//! several consecutive stripes, so one parity per group is not enough.
//! The systematic GF(256) Reed–Solomon layer ([`RsGroup`] /
//! [`RsParityPacket`] / [`rs_recover`]) emits up to [`MAX_RS_PARITY`]
//! parity shards per group and recovers *any* combination of as many
//! data erasures as parity shards received. Coefficients come from a
//! Cauchy matrix (`1 / (x_j ⊕ y_i)` with disjoint index sets), whose
//! every square submatrix is nonsingular — so the decode system is
//! always solvable regardless of which members and which parities were
//! lost.
//!
//! Each protected member is encoded as an independent shard
//! `[payload_type, marker, timestamp(4, be), len(2, be), payload…]`
//! zero-padded to the longest member, so a recovered shard rebuilds the
//! complete packet without chaining metadata across the group. The
//! parity rides as a normal RTP packet of payload type
//! [`RS_FEC_PAYLOAD_TYPE`], in a sequence space of its own:
//!
//! ```text
//!  0      1      2      3      4      5      6..7      8..
//! +------+------+------+------+------+------+---------+---------+
//! | sn_base (be)| count|  r   | idx  | rsvd | shard_l | shard   |
//! +------+------+------+------+------+------+---------+---------+
//! ```
//!
//! `sn_base` is the first protected media sequence number, `count` the
//! number of consecutive protected packets (1..=16), `r` the group's
//! parity-shard count and `idx` which of them this is. Like every parser
//! in this crate, [`RsParityPacket::parse_payload`] is a total function
//! over arbitrary bytes and returns a typed [`ParseError`].

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::ParseError;
use crate::packet::RtpPacket;

/// Largest protected group: the range of the wire `count` field and the
/// cap the bonded scheduler sizes its groups under.
pub const MAX_FEC_GROUP: u8 = 16;
/// Dynamic payload type carrying Reed–Solomon parity shards.
pub const RS_FEC_PAYLOAD_TYPE: u8 = 126;
/// Fixed RS parity header length inside the RTP payload.
pub const RS_HEADER_LEN: usize = 8;
/// Most parity shards one group may carry: beyond 4 the overhead beats
/// simply lowering the group size.
pub const MAX_RS_PARITY: usize = 4;
/// Per-member shard header: payload type, marker, timestamp, length.
pub const RS_MEMBER_HEADER: usize = 8;

/// GF(256) exponent/log tables for the AES-adjacent primitive polynomial
/// 0x11d, built at compile time. The exponent table is doubled so
/// `exp[log a + log b]` never needs a mod-255 reduction.
const fn build_gf_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
        i += 1;
    }
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const GF_TABLES: ([u8; 512], [u8; 256]) = build_gf_tables();

#[inline]
fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let (exp, log) = (&GF_TABLES.0, &GF_TABLES.1);
    exp[log[a as usize] as usize + log[b as usize] as usize]
}

/// Multiplicative inverse; 0 maps to 0 (never fed a zero by the Cauchy
/// construction below).
#[inline]
fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    let (exp, log) = (&GF_TABLES.0, &GF_TABLES.1);
    exp[255 - log[a as usize] as usize]
}

/// `dst[i] ^= c · src[i]` over GF(256), for every `i` both slices have.
///
/// The Reed–Solomon hot loop. Eight bytes ride in one `u64`: the product
/// is accumulated shift-and-add over the bits of `c` (a per-bit all-ones /
/// all-zeros mask selects the partial product, so there is no branch per
/// byte), and each doubling step reduces all eight lanes at once by
/// 0x1d — the low byte of the field polynomial 0x11d. The word loop has
/// no cross-iteration dependency, so LLVM widens it to whatever vector
/// registers the target has; unvectorised it still moves eight bytes per
/// step. The < 8-byte tail falls back to the exp/log [`gf_mul`].
fn gf_mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const LSB: u64 = 0x0101_0101_0101_0101;
    const POLY: u64 = 0x1d1d_1d1d_1d1d_1d1d;
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let masks: [u64; 8] = std::array::from_fn(|bit| 0u64.wrapping_sub(u64::from(c >> bit & 1)));
    let mut dst_words = dst.chunks_exact_mut(8);
    let mut src_words = src.chunks_exact(8);
    for (d, s) in (&mut dst_words).zip(&mut src_words) {
        let mut x = u64::from_le_bytes(s.try_into().expect("chunks_exact yields 8 bytes"));
        let mut acc = 0u64;
        for mask in masks {
            acc ^= x & mask;
            // x ← 2·x per lane: shift the low seven bits up, and fold
            // each lane's carried-out top bit back in as 0x1d
            // (`carry * 0xff` spreads a lane's 0/1 into a byte mask).
            let carry = (x >> 7) & LSB;
            x = ((x & LOW7) << 1) ^ ((carry << 8).wrapping_sub(carry) & POLY);
        }
        let word = u64::from_le_bytes((&*d).try_into().expect("chunks_exact yields 8 bytes"));
        d.copy_from_slice(&(word ^ acc).to_le_bytes());
    }
    for (d, s) in dst_words
        .into_remainder()
        .iter_mut()
        .zip(src_words.remainder())
    {
        *d ^= gf_mul(c, *s);
    }
}

/// Cauchy generator coefficient for parity row `parity` (0..r) and data
/// column `member` (0..k): `1 / (x_j ⊕ y_i)` with `x_j = j` and
/// `y_i = MAX_RS_PARITY + i`. The index sets are disjoint, so every
/// denominator is nonzero and every square submatrix of the generator is
/// nonsingular — any erasure pattern the shard counts allow is solvable.
#[inline]
fn rs_coeff(parity: usize, member: usize) -> u8 {
    gf_inv(parity as u8 ^ (MAX_RS_PARITY + member) as u8)
}

/// The shard header of one protected member (the shard body is the
/// member's payload, zero-padded to the group's longest shard).
#[inline]
fn rs_member_header(p: &RtpPacket) -> [u8; RS_MEMBER_HEADER] {
    let len = p.payload.len().min(u16::MAX as usize) as u16;
    let ts = p.timestamp.to_be_bytes();
    let len = len.to_be_bytes();
    [
        p.payload_type,
        p.marker as u8,
        ts[0],
        ts[1],
        ts[2],
        ts[3],
        len[0],
        len[1],
    ]
}

/// A parsed (or freshly built) Reed–Solomon parity shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsParityPacket {
    /// First protected media sequence number.
    pub sn_base: u16,
    /// Number of consecutive protected packets (1..=[`MAX_FEC_GROUP`]).
    pub count: u8,
    /// Parity shards emitted for this group (1..=[`MAX_RS_PARITY`]).
    pub parity_count: u8,
    /// Which of the group's parity shards this is (0..parity_count).
    pub index: u8,
    /// The encoded parity shard.
    pub shard: Bytes,
}

impl RsParityPacket {
    /// True when `seq` is one of the protected sequence numbers
    /// (wrap-aware).
    pub fn covers(&self, seq: u16) -> bool {
        seq.wrapping_sub(self.sn_base) < u16::from(self.count)
    }

    /// Serialise the parity header + shard — the RTP *payload* of the
    /// parity packet.
    pub fn serialize_payload(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(RS_HEADER_LEN + self.shard.len());
        b.put_u16(self.sn_base);
        b.put_u8(self.count);
        b.put_u8(self.parity_count);
        b.put_u8(self.index);
        b.put_u8(0); // reserved
        b.put_u16(self.shard.len().min(u16::MAX as usize) as u16);
        b.extend_from_slice(&self.shard);
        b.freeze()
    }

    /// Wrap the parity into a sendable RTP packet, in the parity
    /// sequence space.
    pub fn into_rtp(self, ssrc: u32, parity_seq: u16) -> RtpPacket {
        RtpPacket {
            marker: false,
            payload_type: RS_FEC_PAYLOAD_TYPE,
            sequence: parity_seq,
            timestamp: (u32::from(self.sn_base) << 8) | u32::from(self.index),
            ssrc,
            transport_seq: None,
            payload: self.serialize_payload(),
            wire: None,
        }
    }

    /// Parse a parity header + shard from an RTP payload. Total:
    /// truncated or out-of-range bytes yield a typed [`ParseError`],
    /// never a panic.
    pub fn parse_payload(mut data: Bytes) -> Result<RsParityPacket, ParseError> {
        if data.len() < RS_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: RS_HEADER_LEN,
                have: data.len(),
            });
        }
        let sn_base = data.get_u16();
        let count = data.get_u8();
        if count == 0 || count > MAX_FEC_GROUP {
            return Err(ParseError::Malformed {
                reason: "rs count out of range",
            });
        }
        let parity_count = data.get_u8();
        if parity_count == 0 || usize::from(parity_count) > MAX_RS_PARITY {
            return Err(ParseError::Malformed {
                reason: "rs parity count out of range",
            });
        }
        let index = data.get_u8();
        if index >= parity_count {
            return Err(ParseError::Malformed {
                reason: "rs parity index out of range",
            });
        }
        if data.get_u8() != 0 {
            return Err(ParseError::Malformed {
                reason: "rs reserved byte set",
            });
        }
        let shard_len = usize::from(data.get_u16());
        if shard_len != data.len() {
            return Err(ParseError::Malformed {
                reason: "rs shard length mismatch",
            });
        }
        Ok(RsParityPacket {
            sn_base,
            count,
            parity_count,
            index,
            shard: data,
        })
    }
}

/// Incremental Reed–Solomon accumulator the sender feeds each media
/// packet into. Internal buffers are retained across
/// [`build_into`](RsGroup::build_into) calls and the emitted shard bytes
/// come from the thread's buffer arena, so steady-state encoding does not
/// touch the system allocator.
#[derive(Clone, Debug, Default)]
pub struct RsGroup {
    sn_base: u16,
    count: u8,
    parity_count: u8,
    shard_len: usize,
    shards: [Vec<u8>; MAX_RS_PARITY],
}

impl RsGroup {
    /// Start an empty group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Members accumulated so far.
    pub fn len(&self) -> u8 {
        self.count
    }

    /// True when no packet has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Parity shards this group will emit (0 while empty).
    pub fn parity_count(&self) -> u8 {
        if self.count == 0 {
            0
        } else {
            self.parity_count
        }
    }

    /// Fold one media packet into the group. The first push pins
    /// `sn_base` *and* the group's parity-shard count (clamped to
    /// 1..=[`MAX_RS_PARITY`]; later pushes ignore the argument). Callers
    /// push consecutive sequence numbers. Returns `false` (and ignores
    /// the packet) once the group is full.
    pub fn push(&mut self, p: &RtpPacket, parity_count: usize) -> bool {
        if self.count >= MAX_FEC_GROUP {
            return false;
        }
        if self.count == 0 {
            self.sn_base = p.sequence;
            self.parity_count = parity_count.clamp(1, MAX_RS_PARITY) as u8;
            self.shard_len = 0;
        }
        let member = usize::from(self.count);
        self.count += 1;
        let need = RS_MEMBER_HEADER + p.payload.len();
        if need > self.shard_len {
            self.shard_len = need;
        }
        let header = rs_member_header(p);
        for parity in 0..usize::from(self.parity_count) {
            let c = rs_coeff(parity, member);
            let shard = &mut self.shards[parity];
            if shard.len() < need {
                shard.resize(need, 0);
            }
            let (head, body) = shard.split_at_mut(RS_MEMBER_HEADER);
            gf_mul_acc(head, &header, c);
            gf_mul_acc(body, &p.payload, c);
        }
        true
    }

    /// Close the group and append its parity shards (zero-padded to the
    /// longest member) to `out`; the accumulator resets to empty but
    /// keeps its buffers. Appends nothing for an empty group.
    pub fn build_into(&mut self, out: &mut Vec<RsParityPacket>) {
        if self.count == 0 {
            return;
        }
        for parity in 0..usize::from(self.parity_count) {
            let shard = &mut self.shards[parity];
            if shard.len() < self.shard_len {
                shard.resize(self.shard_len, 0);
            }
            out.push(RsParityPacket {
                sn_base: self.sn_base,
                count: self.count,
                parity_count: self.parity_count,
                index: parity as u8,
                shard: Bytes::from(&shard[..self.shard_len]),
            });
            shard.clear();
        }
        self.count = 0;
        self.parity_count = 0;
        self.shard_len = 0;
    }

    /// Convenience wrapper over [`build_into`](Self::build_into).
    pub fn build(&mut self) -> Vec<RsParityPacket> {
        let mut out = Vec::new();
        self.build_into(&mut out);
        out
    }
}

/// Invert the `m × m` leading block of `a` over GF(256) by Gauss–Jordan
/// elimination. Returns `None` if singular (impossible for well-formed
/// Cauchy submatrices; reachable only through damaged wire input).
fn gf_invert(
    mut a: [[u8; MAX_RS_PARITY]; MAX_RS_PARITY],
    m: usize,
) -> Option<[[u8; MAX_RS_PARITY]; MAX_RS_PARITY]> {
    let mut inv = [[0u8; MAX_RS_PARITY]; MAX_RS_PARITY];
    for (i, row) in inv.iter_mut().enumerate().take(m) {
        row[i] = 1;
    }
    for col in 0..m {
        let pivot = (col..m).find(|&r| a[r][col] != 0)?;
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let d = gf_inv(a[col][col]);
        for c in 0..m {
            a[col][c] = gf_mul(a[col][c], d);
            inv[col][c] = gf_mul(inv[col][c], d);
        }
        for r in 0..m {
            if r != col && a[r][col] != 0 {
                let f = a[r][col];
                for c in 0..m {
                    a[r][c] ^= gf_mul(f, a[col][c]);
                    inv[r][c] ^= gf_mul(f, inv[col][c]);
                }
            }
        }
    }
    Some(inv)
}

/// Rebuild every missing member of one RS group from the parity shards
/// received and the surviving members.
///
/// `parities` are shards of the *same* group (mismatched or duplicate
/// shards are ignored); `survivors` is iterated twice, so any cheap
/// clonable iterator over the receive window works — no collection
/// required. Returns the recovered packets (empty when nothing is
/// missing), or `None` when more members are missing than parity shards
/// are available, or the shards are damaged.
///
pub fn rs_recover<'a, I>(
    parities: &[&RsParityPacket],
    survivors: I,
    ssrc_hint: u32,
) -> Option<Vec<RtpPacket>>
where
    I: Iterator<Item = &'a RtpPacket> + Clone,
{
    let mut out = Vec::new();
    rs_recover_into(parities, survivors, ssrc_hint, &mut out).then_some(out)
}

/// [`rs_recover`] into a caller-owned buffer: the recovered packets are
/// appended to `out` and `true` returned (nothing appended when nothing
/// was missing); `false`, with `out` as it was, when the group cannot be
/// solved. Working rows and the recovered payloads live in arena blocks,
/// so with a reused `out` the call never touches the system allocator.
pub fn rs_recover_into<'a, I>(
    parities: &[&RsParityPacket],
    survivors: I,
    ssrc_hint: u32,
    out: &mut Vec<RtpPacket>,
) -> bool
where
    I: Iterator<Item = &'a RtpPacket> + Clone,
{
    let Some(first) = parities.first() else {
        return false;
    };
    let n = usize::from(first.count);
    let shard_len = first.shard.len();
    if shard_len < RS_MEMBER_HEADER {
        return false;
    }

    // Which member offsets survived? (first copy wins; foreign packets
    // and duplicates in the iterator are ignored)
    let mut have = [false; MAX_FEC_GROUP as usize];
    let mut ssrc = ssrc_hint;
    for p in survivors.clone() {
        let off = usize::from(p.sequence.wrapping_sub(first.sn_base));
        if off < n {
            have[off] = true;
            ssrc = p.ssrc;
        }
    }
    let mut missing = [0usize; MAX_RS_PARITY];
    let mut m = 0;
    for off in (0..n).filter(|&off| !have[off]) {
        if m == MAX_RS_PARITY {
            return false; // more erasures than any group has shards
        }
        missing[m] = off;
        m += 1;
    }
    if m == 0 {
        return true;
    }
    let missing = &missing[..m];

    // Deduplicate usable parity shards by index, keeping only ones that
    // agree with the first shard's group geometry; the `m` lowest
    // indices become the rows of the decode system.
    let mut chosen: [Option<&RsParityPacket>; MAX_RS_PARITY] = [None; MAX_RS_PARITY];
    for p in parities {
        let idx = usize::from(p.index);
        if p.sn_base == first.sn_base
            && p.count == first.count
            && p.parity_count == first.parity_count
            && p.shard.len() == shard_len
            && idx < MAX_RS_PARITY
            && chosen[idx].is_none()
        {
            chosen[idx] = Some(p);
        }
    }
    let mut rows = [*first; MAX_RS_PARITY];
    let mut usable = 0;
    for p in chosen.into_iter().flatten().take(m) {
        rows[usable] = p;
        usable += 1;
    }
    if usable < m {
        return false;
    }
    let rows = &rows[..m];

    // RHS_t = parity_t ⊕ Σ_{survivor i} c(j_t, i) · shard_i.
    let mut rhs: [BytesMut; MAX_RS_PARITY] = std::array::from_fn(|t| match rows.get(t) {
        Some(row) => {
            let mut rhs_t = BytesMut::with_capacity(shard_len);
            rhs_t.extend_from_slice(&row.shard);
            rhs_t
        }
        None => BytesMut::new(),
    });
    for p in survivors {
        let off = usize::from(p.sequence.wrapping_sub(first.sn_base));
        if off >= n || !have[off] {
            continue;
        }
        have[off] = false; // consume each survivor offset exactly once
        let header = rs_member_header(p);
        for (rhs_t, row) in rhs.iter_mut().zip(rows) {
            let c = rs_coeff(usize::from(row.index), off);
            let (head, body) = rhs_t.split_at_mut(RS_MEMBER_HEADER);
            gf_mul_acc(head, &header, c);
            gf_mul_acc(body, &p.payload, c);
        }
    }

    // Solve A·x = RHS for the missing shards.
    let mut a = [[0u8; MAX_RS_PARITY]; MAX_RS_PARITY];
    for (t, row) in rows.iter().enumerate() {
        for (s, &off) in missing.iter().enumerate() {
            a[t][s] = rs_coeff(usize::from(row.index), off);
        }
    }
    let Some(inv) = gf_invert(a, m) else {
        return false;
    };

    let recovered_from = out.len();
    for (s, &off) in missing.iter().enumerate() {
        let mut shard = BytesMut::with_capacity(shard_len);
        shard.resize(shard_len, 0);
        for (rhs_t, &c) in rhs.iter().zip(&inv[s][..m]) {
            if c != 0 {
                gf_mul_acc(&mut shard, rhs_t, c);
            }
        }
        // Decode the member header; reject damaged shards.
        let payload_type = shard[0];
        let timestamp = u32::from_be_bytes([shard[2], shard[3], shard[4], shard[5]]);
        let len = usize::from(u16::from_be_bytes([shard[6], shard[7]]));
        if shard[1] > 1 || RS_MEMBER_HEADER + len > shard_len {
            out.truncate(recovered_from);
            return false;
        }
        let marker = shard[1] == 1;
        out.push(RtpPacket {
            marker,
            payload_type,
            sequence: first.sn_base.wrapping_add(off as u16),
            timestamp,
            ssrc,
            transport_seq: None,
            payload: shard
                .freeze()
                .slice(RS_MEMBER_HEADER..RS_MEMBER_HEADER + len),
            wire: None,
        });
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn media(seq: u16, payload: &[u8], marker: bool) -> RtpPacket {
        RtpPacket {
            marker,
            payload_type: 96,
            sequence: seq,
            timestamp: 90_000u32.wrapping_mul(u32::from(seq)),
            ssrc: 0xABCD_EF01,
            transport_seq: None,
            payload: Bytes::from(payload.to_vec()),
            wire: None,
        }
    }

    fn rs_group_of(packets: &[RtpPacket], parity_count: usize) -> Vec<RsParityPacket> {
        let mut g = RsGroup::new();
        for p in packets {
            assert!(g.push(p, parity_count));
        }
        g.build()
    }

    /// Packets with deliberately varied lengths, markers, and payload
    /// content so shard padding and metadata recovery are both stressed.
    fn rs_members(k: usize) -> Vec<RtpPacket> {
        (0..k)
            .map(|i| {
                let body: Vec<u8> = (0..(7 + 31 * i) % 120 + 1)
                    .map(|b| (b as u8).wrapping_mul(17).wrapping_add(i as u8))
                    .collect();
                media(400 + i as u16, &body, i % 3 == 0)
            })
            .collect()
    }

    #[test]
    fn gf_arithmetic_is_a_field() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a={a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        // Distributivity spot check over a deterministic sample.
        for a in (1..=255u8).step_by(7) {
            for b in (1..=255u8).step_by(11) {
                let c = 0x53u8;
                assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
            }
        }
    }

    #[test]
    fn gf_mul_acc_matches_the_scalar_loop_on_every_coefficient_length_and_overhang() {
        // All 256 coefficients × lengths 0..=67 (word loop, tail, both) ×
        // equal / longer / shorter `src` × three start alignments.
        let backing: Vec<u8> = (0..96u32).map(|i| (i * 151 % 256) as u8).collect();
        for c in 0..=255u8 {
            for len in 0..=67usize {
                for (dst_len, src_len) in [(len, len), (len, len + 5), (len + 5, len)] {
                    for align in 0..3usize {
                        let src = &backing[align..align + src_len];
                        let mut buf = vec![0xA5u8; align + dst_len];
                        let mut want = buf.clone();
                        for (d, s) in want[align..].iter_mut().zip(src) {
                            *d ^= gf_mul(c, *s);
                        }
                        gf_mul_acc(&mut buf[align..], src, c);
                        assert_eq!(buf, want, "c={c} dst={dst_len} src={src_len} align={align}");
                    }
                }
            }
        }
    }

    #[test]
    fn rs_parity_wire_bytes_match_the_committed_vector() {
        // The ten `rs_members`, three parity shards: the bytes the first
        // Reed–Solomon implementation put on the wire. Any kernel or
        // coefficient change that moves one of them breaks every
        // receiver built against the old sender.
        const SHARDS: [&str; 3] = [
            "af8a997288f9001ba09b6081cafc56b7d020b20ab2cc772e96111a6e65efb515faec5fe70a09d3d0\
             415ce423b2a219361f332639aa5f9087e91b75610f5966721c9becb03be7463fe6a3a0d9a9e17484\
             3063b060786e56764e3a02f2cab38bab9392065a8874106c602094e8e4fe30f0f7",
            "af789977b0cc003e62fca24608c794921867f6f8e1c086725c35567c231b752c804b8d7595e1014a\
             877cb435f852e5b0c55144a83e9f52156cb5f0f38aabe3e099116922be89c3ad630d254b2c130eb5\
             b8f06679a70a0fb2b7b8bd797c22279a9fc18d00a7a846104c1a8ddb87b4c3e8c6",
            "7ee62168b226005dec121dc975464a47d0900938eedf7d4e63604d5cff311f22b6a703ecdc237dce\
             716e6752ed3f459211103627ed012b41d9a9bf851ddcc9f36b3e64107febe5c079282104c15d7d1b\
             770a91b39c5de01ca10fb202bfdc619d20abfda651da529b35884c852b88ee7183",
        ];
        let parities = rs_group_of(&rs_members(10), 3);
        assert_eq!(parities.len(), 3);
        for (fp, want) in parities.iter().zip(SHARDS) {
            assert_eq!((fp.sn_base, fp.count, fp.parity_count), (400, 10, 3));
            let hex: String = fp.shard.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, want, "shard {}", fp.index);
        }
    }

    #[test]
    fn rs_exhaustive_erasure_patterns_recover() {
        // Every erasure pattern of ≤ parity-count data shards recovers,
        // for every (k, r) geometry worth the enumeration.
        for k in [1usize, 2, 5, 8] {
            for r in 1..=MAX_RS_PARITY.min(k + 1) {
                let packets = rs_members(k);
                let parities = rs_group_of(&packets, r);
                assert_eq!(parities.len(), r);
                for mask in 0u32..(1 << k) {
                    let erased = mask.count_ones() as usize;
                    if erased == 0 || erased > r {
                        continue;
                    }
                    let survivors: Vec<&RtpPacket> = packets
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) == 0)
                        .map(|(_, p)| p)
                        .collect();
                    let parity_refs: Vec<&RsParityPacket> = parities.iter().collect();
                    let rec = rs_recover(&parity_refs, survivors.iter().copied(), 0xABCD_EF01)
                        .unwrap_or_else(|| panic!("k={k} r={r} mask={mask:b}: no recovery"));
                    assert_eq!(rec.len(), erased, "k={k} r={r} mask={mask:b}");
                    for p in rec {
                        let original = &packets[usize::from(p.sequence - 400)];
                        assert_eq!(&p, original, "k={k} r={r} mask={mask:b}");
                    }
                }
            }
        }
    }

    #[test]
    fn rs_survives_parity_shard_loss_too() {
        // 2 of 4 parity shards lost, 2 data members lost: still solvable
        // — and with every parity-row subset, not just a prefix.
        let packets = rs_members(6);
        let parities = rs_group_of(&packets, 4);
        let survivors: Vec<&RtpPacket> = packets[..4].iter().collect();
        for (i, j) in [(0usize, 1usize), (0, 3), (1, 2), (2, 3)] {
            let rows = [&parities[i], &parities[j]];
            let rec = rs_recover(&rows, survivors.iter().copied(), 0)
                .unwrap_or_else(|| panic!("rows {i},{j}: no recovery"));
            assert_eq!(rec.len(), 2);
            for p in rec {
                assert_eq!(&p, &packets[usize::from(p.sequence - 400)]);
            }
        }
    }

    #[test]
    fn rs_one_erasure_beyond_parity_fails_cleanly() {
        for r in 1..MAX_RS_PARITY {
            let packets = rs_members(8);
            let parities = rs_group_of(&packets, r);
            let survivors: Vec<&RtpPacket> = packets[r + 1..].iter().collect();
            let parity_refs: Vec<&RsParityPacket> = parities.iter().collect();
            assert!(
                rs_recover(&parity_refs, survivors.iter().copied(), 0).is_none(),
                "r={r}: {} erasures must not recover",
                r + 1
            );
        }
    }

    #[test]
    fn rs_nothing_missing_is_an_empty_recovery() {
        let packets = rs_members(4);
        let parities = rs_group_of(&packets, 2);
        let parity_refs: Vec<&RsParityPacket> = parities.iter().collect();
        let rec = rs_recover(&parity_refs, packets.iter(), 0).expect("complete group");
        assert!(rec.is_empty());
    }

    #[test]
    fn rs_single_parity_matches_xor_recovery_set() {
        // One parity shard recovers exactly what a single XOR parity
        // would — any single loss, never a double — and rebuilds the
        // original member byte for byte.
        let packets = rs_members(6);
        let rs = rs_group_of(&packets, 1);
        let rs_refs: Vec<&RsParityPacket> = rs.iter().collect();
        for missing in 0..packets.len() {
            let survivors = packets
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != missing)
                .map(|(_, p)| p);
            let rec = rs_recover(&rs_refs, survivors, 0).expect("rs recovers single loss");
            assert_eq!(rec, [packets[missing].clone()], "missing {missing}");
        }
        assert!(rs_recover(&rs_refs, packets[2..].iter(), 0).is_none());
    }

    #[test]
    fn rs_recovers_a_double_burst_xor_provably_cannot() {
        // The tentpole claim in miniature: a 2-packet burst erasure in
        // one group defeats any single parity but falls to r=2 RS — at the
        // head of the group, and mid-group across members of unequal
        // length (shard padding and length recovery both exercised).
        let packets = rs_members(8);
        assert_ne!(packets[3].payload.len(), packets[4].payload.len());
        let rs = rs_group_of(&packets, 2);
        let rs_refs: Vec<&RsParityPacket> = rs.iter().collect();
        for lost in [0..2, 3..5] {
            let survivors = (packets.iter().enumerate())
                .filter(|(i, _)| !lost.contains(i))
                .map(|(_, p)| p);
            assert!(
                rs_recover(&[&rs[0]], survivors.clone(), 0).is_none(),
                "one shard must fail on {lost:?}"
            );
            let rec = rs_recover(&rs_refs, survivors, 0).expect("rs repairs burst");
            assert_eq!(rec, packets[lost]);
        }
    }

    #[test]
    fn duplicates_and_foreign_packets_ignored_in_recovery() {
        let packets = [media(50, b"one", true), media(51, b"two", false)];
        let rs = rs_group_of(&packets, 1);
        let stranger = media(900, b"not-in-group", false);
        let noisy = [&packets[0], &packets[0], &stranger];
        let rec = rs_recover(&[&rs[0]], noisy.into_iter(), 0).expect("recovery despite noise");
        assert_eq!(rec, [packets[1].clone()]);
    }

    #[test]
    fn recovers_across_sequence_wrap() {
        let packets = [
            media(65_534, b"pre-wrap", false),
            media(65_535, b"at-wrap", true),
            media(0, b"post-wrap", false),
        ];
        let rs = rs_group_of(&packets, 1);
        assert!(rs[0].covers(65_534) && rs[0].covers(0) && !rs[0].covers(1));
        let rec = rs_recover(&[&rs[0]], [&packets[0], &packets[2]].into_iter(), 0)
            .expect("recovery across wrap");
        assert_eq!(rec, [packets[1].clone()]);
    }

    #[test]
    fn rs_wire_roundtrip_and_discriminability() {
        let packets = rs_members(3);
        let parities = rs_group_of(&packets, 3);
        for fec in &parities {
            assert!(fec.covers(400) && fec.covers(402) && !fec.covers(403));
            let rtp = fec.clone().into_rtp(0xABCD_EF01, 77);
            assert_eq!(rtp.payload_type, RS_FEC_PAYLOAD_TYPE);
            let parsed = RtpPacket::parse(rtp.serialize()).expect("rs parity RTP reparses");
            let back = RsParityPacket::parse_payload(parsed.payload).expect("rs payload reparses");
            assert_eq!(&back, fec);
        }
    }

    #[test]
    fn rs_hostile_payloads_rejected() {
        let wire = rs_group_of(&rs_members(2), 2)[0].serialize_payload();
        for cut in 0..RS_HEADER_LEN {
            let truncated = Bytes::from(wire[..cut].to_vec());
            assert!(
                RsParityPacket::parse_payload(truncated).is_err(),
                "cut {cut}"
            );
        }
        let reject = |mutate: &dyn Fn(&mut Vec<u8>)| {
            let mut b = wire.to_vec();
            mutate(&mut b);
            assert!(RsParityPacket::parse_payload(Bytes::from(b)).is_err());
        };
        reject(&|b| b[2] = 0); // count 0
        reject(&|b| b[2] = MAX_FEC_GROUP + 1); // count > max
        reject(&|b| b[3] = 0); // parity_count 0
        reject(&|b| b[3] = MAX_RS_PARITY as u8 + 1); // parity_count > max
        reject(&|b| b[4] = b[3]); // index >= parity_count
        reject(&|b| b[5] = 1); // reserved byte set
        reject(&|b| b[7] = b[7].wrapping_add(1)); // shard length mismatch
        reject(&|b| {
            b.pop(); // truncated shard body
        });
    }

    #[test]
    fn rs_damaged_shard_refuses_recovery() {
        let packets = rs_members(4);
        let mut parities = rs_group_of(&packets, 1);
        // Flip a byte in the encoded length field region of the shard:
        // the decoded member header becomes inconsistent.
        let mut shard = parities[0].shard.to_vec();
        shard[6] ^= 0xFF;
        parities[0].shard = Bytes::from(shard);
        let survivors: Vec<&RtpPacket> = packets[1..].iter().collect();
        let refs: Vec<&RsParityPacket> = parities.iter().collect();
        assert!(rs_recover(&refs, survivors.iter().copied(), 0).is_none());
    }

    #[test]
    fn rs_group_caps_and_reuses_buffers() {
        let mut g = RsGroup::new();
        for s in 0..u16::from(MAX_FEC_GROUP) {
            assert!(g.push(&media(s, b"x", false), 2));
        }
        assert!(!g.push(&media(99, b"overflow", false), 2));
        assert_eq!(g.len(), MAX_FEC_GROUP);
        assert_eq!(g.parity_count(), 2);
        let mut out = Vec::new();
        g.build_into(&mut out);
        assert_eq!(out.len(), 2);
        assert!(g.is_empty());
        assert_eq!(g.parity_count(), 0);
        g.build_into(&mut out);
        assert_eq!(out.len(), 2, "empty group appends nothing");
        // The recycled accumulator produces correct parity again.
        let packets = rs_members(3);
        for p in &packets {
            g.push(p, 1);
        }
        let second = g.build();
        let survivors: Vec<&RtpPacket> = packets[1..].iter().collect();
        let refs: Vec<&RsParityPacket> = second.iter().collect();
        let rec = rs_recover(&refs, survivors.iter().copied(), 0).expect("recycled group works");
        assert_eq!(rec[0], packets[0]);
    }
}
