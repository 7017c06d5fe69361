//! Bit-sliced (SWAR) evaluation of the Merkle-tree instruction hash:
//! sixteen independent 4-bit lanes packed into each `u64`, so one pass of
//! the compression tree hashes a whole retirement block.
//!
//! # Data layout
//!
//! [`transpose`] turns 16 instruction words into 8 *nibble planes*. Plane
//! `j` collects nibble `j` (bits `4j..4j+4`) of every word, with word `i`
//! occupying bits `4i..4i+4` of the plane:
//!
//! ```text
//!              lane 15        lane 1   lane 0
//!            ┌────┄┄┄┄────┬────────┬────────┐
//! plane 0    │ w15[3:0]   │ w1[3:0]│ w0[3:0]│   (low nibble of each word)
//! plane 1    │ w15[7:4]   │ w1[7:4]│ w0[7:4]│
//!   ⋮        │     ⋮      │    ⋮   │    ⋮   │
//! plane 7    │ w15[31:28] │w1[31:28]│w0[31:28]│ (high nibble of each word)
//!            └────┄┄┄┄────┴────────┴────────┘
//! ```
//!
//! Each of the 15 tree nodes then runs once on whole planes instead of 16
//! times on scalar nibbles. The per-node cost:
//!
//! * **SumMod16** — one SWAR add with carry masking ([`swar_add_mod16`]):
//!   the low three bits of each lane are added with the lane's top bit
//!   masked off (a 3-bit sum cannot carry across the lane boundary), and
//!   the top bits are folded back in as XOR — their mod-2 sum.
//! * **Xor** — a single 64-bit XOR.
//! * **SBox** — the SWAR add followed by the PRESENT S-box as a bitsliced
//!   boolean network ([`sbox_planes`]): split the lane nibbles into four
//!   bit sub-planes, evaluate the S-box's algebraic normal form with
//!   shared subterms (~20 gates), recombine.
//! * **SipRound** — the SWAR add, an in-lane shift-add (×5 mod 16), an
//!   in-lane rotate, and a constant XOR; rotates are mask-and-shift pairs
//!   in this layout.
//!
//! Correctness is pinned by exhaustive differential tests against the
//! scalar path (`proptests.rs` randomizes params, words, and compressions;
//! the S-box network is additionally checked against its table on all 16
//! inputs).

use super::{Compression, MerkleTreeHash, BLOCK_LANES};

/// Bit 0 of every 4-bit lane.
const LANE_LSB: u64 = 0x1111_1111_1111_1111;
/// Low three bits of every lane (the carry-safe part of a SWAR add).
const LANE_LOW3: u64 = 0x7777_7777_7777_7777;
/// Top bit of every lane.
const LANE_MSB: u64 = 0x8888_8888_8888_8888;
/// Bits 2..4 of every lane (what an in-lane `<< 2` may keep).
const LANE_HI2: u64 = 0xCCCC_CCCC_CCCC_CCCC;
/// Bits 1..4 of every lane (what an in-lane `<< 1` may keep).
const LANE_HI3: u64 = 0xEEEE_EEEE_EEEE_EEEE;
/// The SipRound round constant `0x6`, broadcast to every lane.
const LANE_SIP_RC: u64 = 0x6666_6666_6666_6666;

/// Transposes a block of instruction words into the eight nibble planes
/// described in the module docs.
///
/// Implemented as a recursive in-register bit-matrix transpose rather
/// than a nibble-at-a-time gather (which costs 16×8 shift/mask/or
/// round-trips and erases the SWAR win). Pairing word `k` with word
/// `k + 8` in one `u64` puts two independent 8×8 nibble matrices side by
/// side — rows are words, columns are nibble positions — and three rounds
/// of delta swaps (block sizes 4, 2, 1; twelve swaps total) transpose
/// both halves at once. Row `j` of the transposed matrix is then exactly
/// plane `j`: its low half holds nibble `j` of words 0..8 in lanes 0..8,
/// its high half nibble `j` of words 8..16 in lanes 8..16.
#[inline]
pub fn transpose(words: &[u32; BLOCK_LANES]) -> [u64; 8] {
    let mut r: [u64; 8] =
        std::array::from_fn(|k| u64::from(words[k]) | (u64::from(words[k + 8]) << 32));
    // Swap the top-right and bottom-left 4×4 blocks (columns are nibbles,
    // so a 4-column block is 16 bits of each 32-bit half).
    for i in 0..4 {
        let t = ((r[i] >> 16) ^ r[i + 4]) & 0x0000_FFFF_0000_FFFF;
        r[i + 4] ^= t;
        r[i] ^= t << 16;
    }
    // Same exchange inside each 4×4 block (2×2 sub-blocks, 8 bits)...
    for i in [0, 1, 4, 5] {
        let t = ((r[i] >> 8) ^ r[i + 2]) & 0x00FF_00FF_00FF_00FF;
        r[i + 2] ^= t;
        r[i] ^= t << 8;
    }
    // ...and inside each 2×2 block (single nibbles).
    for i in [0, 2, 4, 6] {
        let t = ((r[i] >> 4) ^ r[i + 1]) & 0x0F0F_0F0F_0F0F_0F0F;
        r[i + 1] ^= t;
        r[i] ^= t << 4;
    }
    r
}

/// Lane-parallel `(a + b) mod 16` over all 16 lanes.
///
/// The carry-mask trick: `a + b` within a lane can carry into the next
/// lane, so the top lane bit is masked off both operands before the add
/// (three-bit operands sum to at most 14 — no cross-lane carry), and the
/// top bits' mod-2 sum (their XOR) is folded back in afterwards. The
/// discarded carry *out* of the top bit is exactly the mod-16 reduction.
#[inline]
pub fn swar_add_mod16(a: u64, b: u64) -> u64 {
    ((a & LANE_LOW3) + (b & LANE_LOW3)) ^ ((a ^ b) & LANE_MSB)
}

/// The PRESENT S-box applied to every lane of `x`, as a bitsliced boolean
/// network over the four bit sub-planes.
///
/// The network is a shared-subterm factoring of the S-box's algebraic
/// normal form (derived by Möbius transform, verified exhaustively in the
/// tests); complements are realized as XOR with `LANE_LSB` so bits
/// outside the sub-plane positions stay zero.
#[inline]
pub fn sbox_planes(x: u64) -> u64 {
    let x0 = x & LANE_LSB;
    let x1 = (x >> 1) & LANE_LSB;
    let x2 = (x >> 2) & LANE_LSB;
    let x3 = (x >> 3) & LANE_LSB;
    let s = x1 ^ x2;
    let t = x1 & x2;
    let u = x3 & s;
    let maj = t ^ u; // majority(x1, x2, x3)
    let y0 = x0 ^ x2 ^ x3 ^ t;
    let y1 = x1 ^ x3 ^ u ^ (x0 & maj);
    let y2 = LANE_LSB ^ x2 ^ x3 ^ (x0 & x1) ^ (x3 & ((x0 | x1) ^ (x0 & x2)));
    let y3 = LANE_LSB ^ x0 ^ x1 ^ x3 ^ (t & (x0 ^ LANE_LSB)) ^ ((x0 & x3) & s);
    y0 | (y1 << 1) | (y2 << 2) | (y3 << 3)
}

/// Lane-parallel [`Compression::SipRound`]: SWAR add, in-lane shift-add
/// (×5 mod 16), in-lane rotate-left 1, constant XOR.
#[inline]
pub fn sip_planes(a: u64, b: u64) -> u64 {
    let s = swar_add_mod16(a, b);
    let m = swar_add_mod16(s, (s << 2) & LANE_HI2); // 5·s mod 16 per lane
    (((m << 1) & LANE_HI3) | ((m >> 3) & LANE_LSB)) ^ LANE_SIP_RC
}

/// One compression node evaluated over whole planes — the lane-parallel
/// counterpart of [`Compression::compress`].
#[inline]
pub fn compress_planes(c: Compression, a: u64, b: u64) -> u64 {
    match c {
        Compression::SumMod16 => swar_add_mod16(a, b),
        Compression::Xor => a ^ b,
        Compression::SBox => sbox_planes(swar_add_mod16(a, b)),
        Compression::SipRound => sip_planes(a, b),
    }
}

/// Unpacks a lane-packed plane into per-lane nibbles: each 32-bit half
/// (eight lanes) is spread into eight bytes with a Morton-style
/// shift-or-mask cascade, then the two halves are stored as the low and
/// high eight output bytes — two wide stores instead of sixteen nibble
/// picks.
#[inline]
fn extract(plane: u64) -> [u8; BLOCK_LANES] {
    #[inline]
    fn spread(half: u64) -> u64 {
        let x = (half | (half << 16)) & 0x0000_FFFF_0000_FFFF;
        let x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
        (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F
    }
    let lo = spread(plane & 0xFFFF_FFFF).to_le_bytes();
    let hi = spread(plane >> 32).to_le_bytes();
    let mut out = [0u8; BLOCK_LANES];
    out[..8].copy_from_slice(&lo);
    out[8..].copy_from_slice(&hi);
    out
}

/// The bit-sliced evaluator for one [`MerkleTreeHash`] instance: the
/// secret parameter's nibbles pre-broadcast across all lanes, ready to
/// hash [`BLOCK_LANES`] instruction words per pass.
///
/// Produces bit-identical results to the scalar tree — `hash_block(w)[i]
/// == scalar.hash(w[i])` for every lane, every parameter, and every
/// compression (the monitor's block path relies on this, and the
/// differential proptests enforce it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitslicedMerkleHash {
    /// `param` nibble `j` broadcast to all 16 lanes of plane `j`.
    param_planes: [u64; 8],
    /// The parameter's whole-tree contribution, pre-folded, for the
    /// compressions whose tree collapses: `Σ pⱼ mod 16` (SumMod16) or
    /// `⊕ pⱼ` (Xor), broadcast to all lanes. Zero for the nonlinear
    /// compressions, which evaluate the tree node by node.
    param_fold: u64,
    compression: Compression,
}

impl BitslicedMerkleHash {
    /// Builds the evaluator for `param` under `compression`.
    pub fn new(param: u32, compression: Compression) -> BitslicedMerkleHash {
        let nib = |j: u32| (param >> (4 * j)) & 0xf;
        let param_fold = match compression {
            Compression::SumMod16 => u64::from((0..8).map(nib).sum::<u32>() & 0xf) * LANE_LSB,
            Compression::Xor => u64::from((0..8).fold(0, |acc, j| acc ^ nib(j))) * LANE_LSB,
            Compression::SBox | Compression::SipRound => 0,
        };
        BitslicedMerkleHash {
            param_planes: std::array::from_fn(|j| u64::from(nib(j as u32)) * LANE_LSB),
            param_fold,
            compression,
        }
    }

    /// Builds the evaluator matching a scalar hash instance.
    pub fn from_scalar(hash: &MerkleTreeHash) -> BitslicedMerkleHash {
        BitslicedMerkleHash::new(hash.param(), hash.compression())
    }

    /// Evaluates the tree down to the two level-2 planes, node by node.
    #[inline]
    fn level2_planes(&self, words: &[u32; BLOCK_LANES]) -> (u64, u64) {
        let c = self.compression;
        let word_planes = transpose(words);
        let mut leaves = [0u64; 8];
        for (j, leaf) in leaves.iter_mut().enumerate() {
            *leaf = compress_planes(c, self.param_planes[j], word_planes[j]);
        }
        let l1 = [
            compress_planes(c, leaves[0], leaves[1]),
            compress_planes(c, leaves[2], leaves[3]),
            compress_planes(c, leaves[4], leaves[5]),
            compress_planes(c, leaves[6], leaves[7]),
        ];
        (
            compress_planes(c, l1[0], l1[1]),
            compress_planes(c, l1[2], l1[3]),
        )
    }

    /// Hashes all [`BLOCK_LANES`] words in one tree pass.
    ///
    /// For [`Compression::SumMod16`] and [`Compression::Xor`] the tree is
    /// not evaluated node by node: both operations are associative and
    /// commutative (addition in ℤ/16, XOR in GF(2)⁴), so the 15-node tree
    /// over `{p₀..p₇, w₀..w₇}` equals one fold of the eight word planes
    /// plus the pre-folded parameter plane — bit-identical by reassociation
    /// (the differential tests pin it), at roughly half the plane ops. The
    /// nonlinear compressions (S-box, SipRound) take the full tree.
    pub fn hash_block(&self, words: &[u32; BLOCK_LANES]) -> [u8; BLOCK_LANES] {
        let plane = match self.compression {
            Compression::SumMod16 => {
                let w = transpose(words);
                let s01 = swar_add_mod16(w[0], w[1]);
                let s23 = swar_add_mod16(w[2], w[3]);
                let s45 = swar_add_mod16(w[4], w[5]);
                let s67 = swar_add_mod16(w[6], w[7]);
                let lo = swar_add_mod16(s01, s23);
                let hi = swar_add_mod16(s45, s67);
                swar_add_mod16(swar_add_mod16(lo, hi), self.param_fold)
            }
            Compression::Xor => {
                let w = transpose(words);
                w[0] ^ w[1] ^ w[2] ^ w[3] ^ w[4] ^ w[5] ^ w[6] ^ w[7] ^ self.param_fold
            }
            Compression::SBox | Compression::SipRound => {
                let (a, b) = self.level2_planes(words);
                compress_planes(self.compression, a, b)
            }
        };
        extract(plane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::InstructionHash;

    #[test]
    fn sbox_network_matches_table_on_all_inputs() {
        for v in 0u64..16 {
            // Every lane loaded with the same nibble; every lane must come
            // back as the table entry.
            let plane = v * LANE_LSB;
            let out = sbox_planes(plane);
            let expect = Compression::SBox.compress(0, v as u8);
            // compress(SBox, 0, v) == SBOX4[v].
            for lane in extract(out) {
                assert_eq!(lane, expect, "S-box network wrong at input {v}");
            }
        }
    }

    #[test]
    fn sbox_network_is_lane_independent() {
        // Distinct values in every lane at once.
        let words: [u32; BLOCK_LANES] = std::array::from_fn(|i| i as u32);
        let plane = transpose(&words)[0];
        let out = extract(sbox_planes(plane));
        for (i, &lane) in out.iter().enumerate() {
            assert_eq!(lane, Compression::SBox.compress(0, i as u8));
        }
    }

    #[test]
    fn swar_add_matches_scalar_exhaustively() {
        for a in 0u64..16 {
            for b in 0u64..16 {
                let sum = swar_add_mod16(a * LANE_LSB, b * LANE_LSB);
                for lane in extract(sum) {
                    assert_eq!(lane, ((a + b) & 0xf) as u8);
                }
            }
        }
    }

    #[test]
    fn sip_planes_match_scalar_exhaustively() {
        for a in 0u8..16 {
            for b in 0u8..16 {
                let out = sip_planes(u64::from(a) * LANE_LSB, u64::from(b) * LANE_LSB);
                for lane in extract(out) {
                    assert_eq!(lane, Compression::SipRound.compress(a, b));
                }
            }
        }
    }

    #[test]
    fn transpose_layout() {
        let mut words = [0u32; BLOCK_LANES];
        words[3] = 0x8765_4321;
        let planes = transpose(&words);
        for (j, &plane) in planes.iter().enumerate() {
            // Only lane 3 is populated; its nibble j is digit j of the word.
            assert_eq!(plane, ((j as u64) + 1) << 12, "plane {j}");
        }
    }

    #[test]
    fn block_matches_scalar_for_every_compression() {
        let words: [u32; BLOCK_LANES] =
            std::array::from_fn(|i| (i as u32).wrapping_mul(0x9E37_79B9) ^ 0x1234_5678);
        for c in Compression::ALL {
            let scalar = MerkleTreeHash::with_compression(0xCAFE_F00D, c);
            let sliced = BitslicedMerkleHash::from_scalar(&scalar);
            let block = sliced.hash_block(&words);
            for (i, &w) in words.iter().enumerate() {
                assert_eq!(block[i], scalar.hash(w), "lane {i} under {c:?}");
            }
        }
    }
}
