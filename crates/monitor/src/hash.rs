//! Instruction-word hash functions for the hardware monitor.
//!
//! The monitor compares a short hash of every executed instruction against
//! the monitoring graph, so the hash must be computable within one
//! processor clock cycle. The paper contributes a **parameterizable
//! Merkle-tree hash** (Figure 4): a binary tree of 8-to-4-bit compression
//! nodes whose leaves mix 4 bits of a secret 32-bit parameter with 4 bits
//! of the instruction word. The parameter is chosen per router, defeating
//! cross-device attack reuse (SR2). A conventional **bitcount hash** is
//! implemented as the comparison baseline of Table 3.

use std::fmt;

pub mod bitslice;

/// Lanes processed by one [`InstructionHash::hash_block`] call — the width
/// of the bit-sliced data path (16 × 4-bit lanes fill one `u64` plane).
pub const BLOCK_LANES: usize = 16;

/// Maps a 32-bit instruction word to a short hash value.
///
/// Implementations must be pure functions of `(parameter, word)` — the
/// monitoring graph is built offline with the same function the monitor
/// evaluates at runtime.
pub trait InstructionHash {
    /// Hash output width in bits (4 in the paper's deployment).
    fn output_bits(&self) -> u8;

    /// Hashes one instruction word; the result fits in
    /// [`InstructionHash::output_bits`] bits.
    fn hash(&self, word: u32) -> u8;

    /// Hashes a full block of [`BLOCK_LANES`] instruction words.
    ///
    /// Must produce exactly `[hash(words[0]), …, hash(words[15])]`. The
    /// monitor's block-verification path consumes it. The default is the
    /// scalar loop; [`MerkleTreeHash`] overrides it with the [`bitslice`]
    /// SWAR evaluation.
    fn hash_block(&self, words: &[u32; BLOCK_LANES]) -> [u8; BLOCK_LANES] {
        let mut out = [0u8; BLOCK_LANES];
        for (o, &w) in out.iter_mut().zip(words) {
            *o = self.hash(w);
        }
        out
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Compression function used at each Merkle-tree node (8 bits in, 4 out).
///
/// The paper's prototype uses the 4-bit arithmetic sum
/// ([`Compression::SumMod16`]). **Reproduction finding** (see
/// EXPERIMENTS.md): with the sum, the whole tree collapses to
/// `(nibble_sum(word) + nibble_sum(param)) mod 16`, so whether two words
/// *collide* does not depend on the parameter at all — a mimicry attack
/// built against one router's monitor then evades every router, defeating
/// the diversity goal (SR2). The same holds for [`Compression::Xor`]
/// (linear). The nonlinear [`Compression::SBox`] restores
/// parameter-dependent collisions and is what the SDMMon protocol layer of
/// this reproduction uses by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Compression {
    /// `(a + b) mod 16` — the paper's choice ("4-bit arithmetic sum of
    /// both 4-bit inputs").
    #[default]
    SumMod16,
    /// `a XOR b` — cheaper but weaker diffusion (linear).
    Xor,
    /// A fixed 4-bit S-box applied to `(a + b) mod 16` — stronger
    /// nonlinearity at slightly higher LUT cost.
    SBox,
    /// A keyed SipHash-style ARX round on `(a + b) mod 16`: shift-add
    /// multiply by 5 (mod 16), rotate-left 1, xor a round constant. Like
    /// SipHash, the only operations are add/rotate/xor — no lookup table —
    /// so the node costs three adders in hardware and bit-slices without a
    /// boolean network. The router's secret parameter is the key, mixed in
    /// at every tree leaf exactly as for the other compressions; the mod-16
    /// carries make the permutation nonlinear over GF(2), so collisions
    /// stay parameter-dependent (the SR2 diversity property the linear
    /// compressions lack).
    SipRound,
}

/// 4-bit S-box used by [`Compression::SBox`] (the PRESENT cipher S-box).
const SBOX4: [u8; 16] = [12, 5, 6, 11, 9, 0, 10, 13, 3, 14, 15, 8, 4, 7, 1, 2];

/// Scalar ARX round of [`Compression::SipRound`]: add (`⊞` mod 16),
/// shift-add multiply by 5, rotate-left 1, xor the round constant. The
/// result is a fixed bijection of `(a + b) mod 16`, so the compression is
/// bijective in each argument (uniform outputs over uniform inputs, which
/// the 16^-k escape model depends on).
#[inline]
fn sip_round(a: u8, b: u8) -> u8 {
    let s = (a + b) & 0xf;
    let m = (s + ((s << 2) & 0xf)) & 0xf; // 5·s mod 16, as shift-add
    (((m << 1) | (m >> 3)) & 0xf) ^ 0x6
}

impl Compression {
    /// All compression functions, for sweeps and campaign harnesses.
    pub const ALL: [Compression; 4] = [
        Compression::SumMod16,
        Compression::Xor,
        Compression::SBox,
        Compression::SipRound,
    ];

    /// Applies the 8→4-bit compression to two nibbles.
    ///
    /// Both inputs are masked to their low nibble up front: the scalar and
    /// bit-sliced paths must agree on malformed (out-of-range) input, and
    /// the unmasked `a + b` would overflow the `u8` in debug builds for
    /// large bytes while silently wrapping in release.
    #[inline]
    pub fn compress(self, a: u8, b: u8) -> u8 {
        let (a, b) = (a & 0xf, b & 0xf);
        match self {
            Compression::SumMod16 => (a + b) & 0xf,
            Compression::Xor => a ^ b,
            Compression::SBox => SBOX4[((a + b) & 0xf) as usize],
            Compression::SipRound => sip_round(a, b),
        }
    }

    /// Stable wire identifier (carried inside SDMMon packages so the device
    /// builds the same hash the operator extracted the graph with).
    pub fn to_id(self) -> u8 {
        match self {
            Compression::SumMod16 => 0,
            Compression::Xor => 1,
            Compression::SBox => 2,
            Compression::SipRound => 3,
        }
    }

    /// Inverse of [`Compression::to_id`].
    pub fn from_id(id: u8) -> Option<Compression> {
        match id {
            0 => Some(Compression::SumMod16),
            1 => Some(Compression::Xor),
            2 => Some(Compression::SBox),
            3 => Some(Compression::SipRound),
            _ => None,
        }
    }
}

/// The paper's parameterizable Merkle-tree hash (Figure 4).
///
/// Structure, bit-exact to the figure: the 32-bit instruction word and the
/// 32-bit secret parameter are split into eight nibbles each. Leaf node *i*
/// compresses `(param_nibble[i], word_nibble[i])`; the eight leaf outputs
/// are then reduced pairwise through two further levels of the same
/// compression function, producing the final 4-bit hash after
/// ⌈log₂⌉-depth = 4 dependent operations — cheap enough for one evaluation
/// per clock.
///
/// # Examples
///
/// ```
/// use sdmmon_monitor::hash::{InstructionHash, MerkleTreeHash};
///
/// let h1 = MerkleTreeHash::new(0x1111_1111);
/// let h2 = MerkleTreeHash::new(0x2222_2222);
/// let word = 0x2408_0005; // addiu $t0, $zero, 5
/// assert!(h1.hash(word) < 16);
/// // Different router parameters give (generally) different hashes.
/// assert_ne!(
///     (0..200u32).map(|w| h1.hash(w)).collect::<Vec<_>>(),
///     (0..200u32).map(|w| h2.hash(w)).collect::<Vec<_>>(),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MerkleTreeHash {
    param: u32,
    compression: Compression,
    /// `param` split into its eight nibbles once at construction — the
    /// leaf-level key inputs, re-extracted per `level2` call before.
    param_nibbles: [u8; 8],
    /// The matching 16-lane SWAR evaluator (parameter planes
    /// pre-broadcast), built once so `hash_block` pays no per-block setup.
    bitsliced: bitslice::BitslicedMerkleHash,
}

/// Splits a 32-bit value into its eight nibbles, low nibble first.
#[inline]
fn nibbles(value: u32) -> [u8; 8] {
    std::array::from_fn(|i| ((value >> (i * 4)) & 0xf) as u8)
}

impl MerkleTreeHash {
    /// Creates the hash with a secret 32-bit `param` and the paper's
    /// sum-mod-16 compression.
    pub fn new(param: u32) -> MerkleTreeHash {
        MerkleTreeHash::with_compression(param, Compression::SumMod16)
    }

    /// Creates the hash with an explicit compression function (ablation).
    pub fn with_compression(param: u32, compression: Compression) -> MerkleTreeHash {
        MerkleTreeHash {
            param,
            compression,
            param_nibbles: nibbles(param),
            bitsliced: bitslice::BitslicedMerkleHash::new(param, compression),
        }
    }

    /// The secret parameter (transported encrypted inside SDMMon packages).
    pub fn param(&self) -> u32 {
        self.param
    }

    /// The compression function in use.
    pub fn compression(&self) -> Compression {
        self.compression
    }

    /// Evaluates the tree, returning the two level-2 outputs (8 bits of
    /// state) — used by the width-ablation wrappers.
    #[inline]
    fn level2(&self, word: u32) -> (u8, u8) {
        let c = self.compression;
        let mut leaves = [0u8; 8];
        for (i, leaf) in leaves.iter_mut().enumerate() {
            let w = ((word >> (i * 4)) & 0xf) as u8;
            *leaf = c.compress(self.param_nibbles[i], w);
        }
        let l1 = [
            c.compress(leaves[0], leaves[1]),
            c.compress(leaves[2], leaves[3]),
            c.compress(leaves[4], leaves[5]),
            c.compress(leaves[6], leaves[7]),
        ];
        (c.compress(l1[0], l1[1]), c.compress(l1[2], l1[3]))
    }
}

impl InstructionHash for MerkleTreeHash {
    fn output_bits(&self) -> u8 {
        4
    }

    #[inline]
    fn hash(&self, word: u32) -> u8 {
        let (a, b) = self.level2(word);
        self.compression.compress(a, b)
    }

    #[inline]
    fn hash_block(&self, words: &[u32; BLOCK_LANES]) -> [u8; BLOCK_LANES] {
        self.bitsliced.hash_block(words)
    }

    fn name(&self) -> &'static str {
        "merkle-tree"
    }
}

/// Width-ablated Merkle-tree hash producing 2, 4, or 8 output bits.
///
/// * 8 bits: the two level-2 node outputs concatenated (tree truncated one
///   level early).
/// * 4 bits: identical to [`MerkleTreeHash`].
/// * 2 bits: the final node folded once more (`high ⊕ low` 2-bit halves).
///
/// It serves the width ablation and tests, so its block path is the
/// trait's scalar loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WidthHash {
    inner: MerkleTreeHash,
    bits: u8,
}

impl WidthHash {
    /// Creates a width-ablated hash.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is 2, 4, or 8.
    pub fn new(param: u32, bits: u8) -> WidthHash {
        assert!(matches!(bits, 2 | 4 | 8), "supported widths: 2, 4, 8");
        WidthHash {
            inner: MerkleTreeHash::new(param),
            bits,
        }
    }
}

impl InstructionHash for WidthHash {
    fn output_bits(&self) -> u8 {
        self.bits
    }

    fn hash(&self, word: u32) -> u8 {
        match self.bits {
            8 => {
                let (a, b) = self.inner.level2(word);
                (a << 4) | b
            }
            4 => self.inner.hash(word),
            _ => {
                let h = self.inner.hash(word);
                (h >> 2) ^ (h & 0x3)
            }
        }
    }

    fn name(&self) -> &'static str {
        "merkle-tree-width"
    }
}

/// The conventional baseline of Table 3: the 4-bit folded population count
/// of the instruction word. Parameter-free, hence identical on every router
/// — the homogeneity weakness SDMMon is designed to remove.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct BitcountHash;

impl BitcountHash {
    /// Creates the bitcount hash.
    pub fn new() -> BitcountHash {
        BitcountHash
    }
}

impl InstructionHash for BitcountHash {
    fn output_bits(&self) -> u8 {
        4
    }

    fn hash(&self, word: u32) -> u8 {
        // A 32-bit word has 0..=32 set bits; fold the 6-bit count to 4.
        let count = word.count_ones();
        ((count & 0xf) ^ (count >> 4)) as u8
    }

    fn name(&self) -> &'static str {
        "bitcount"
    }
}

impl fmt::Display for MerkleTreeHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "merkle-tree(param=0x{:08x}, {:?})",
            self.param, self.compression
        )
    }
}

/// Hamming distance between two 4-bit (or 8-bit) hash values.
pub fn hamming(a: u8, b: u8) -> u32 {
    (a ^ b).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_fit_width() {
        let m = MerkleTreeHash::new(0xdead_beef);
        let b = BitcountHash::new();
        for word in (0..10_000u32).map(|i| i.wrapping_mul(2_654_435_761)) {
            assert!(m.hash(word) < 16);
            assert!(b.hash(word) < 16);
        }
        for bits in [2u8, 4, 8] {
            let w = WidthHash::new(1, bits);
            for word in 0..1000u32 {
                assert!((w.hash(word) as u16) < (1 << bits));
            }
        }
    }

    #[test]
    fn deterministic() {
        let m = MerkleTreeHash::new(42);
        assert_eq!(m.hash(0x1234_5678), m.hash(0x1234_5678));
    }

    #[test]
    fn paper_example_structure() {
        // With the sum compression and param 0, the hash is simply the sum
        // of the word's eight nibbles mod 16 — verifiable by hand.
        let m = MerkleTreeHash::new(0);
        assert_eq!(m.hash(0x1111_1111), 8);
        assert_eq!(m.hash(0x0000_0000), 0);
        assert_eq!(m.hash(0xffff_ffff), (15 * 8) % 16);
        assert_eq!(m.hash(0x0000_0007), 7);
    }

    #[test]
    fn parameter_changes_mapping() {
        // For the sum compression, param p shifts the hash by the nibble
        // sum of p; any nonzero nibble-sum param changes every hash.
        let base = MerkleTreeHash::new(0);
        let other = MerkleTreeHash::new(0x0000_0001);
        for word in 0..256u32 {
            assert_eq!(other.hash(word), (base.hash(word) + 1) & 0xf);
        }
    }

    #[test]
    fn hash_distribution_is_roughly_uniform() {
        let m = MerkleTreeHash::new(0x8badf00d);
        let mut counts = [0u32; 16];
        let samples = 160_000u32;
        for i in 0..samples {
            counts[m.hash(i.wrapping_mul(0x9E37_79B9)) as usize] += 1;
        }
        let expect = samples / 16;
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < (expect / 10) as u64,
                "bucket {v} count {c} far from {expect}"
            );
        }
    }

    #[test]
    fn sbox_compression_differs_from_sum() {
        let sum = MerkleTreeHash::new(7);
        let sbox = MerkleTreeHash::with_compression(7, Compression::SBox);
        let differs = (0..64u32).any(|w| sum.hash(w) != sbox.hash(w));
        assert!(differs);
    }

    #[test]
    fn xor_compression_is_linear() {
        // XOR compression makes the whole hash linear in (word, param):
        // H(a ^ b) == H(a) ^ H(b) ^ H(0). This is the weakness the ablation
        // demonstrates.
        let m = MerkleTreeHash::with_compression(0x5a5a_5a5a, Compression::Xor);
        for (a, b) in [
            (0x1234_5678u32, 0x9abc_def0u32),
            (3, 4),
            (0xffff_0000, 0x0000_ffff),
        ] {
            assert_eq!(m.hash(a ^ b), m.hash(a) ^ m.hash(b) ^ m.hash(0));
        }
    }

    #[test]
    fn bitcount_matches_popcount_fold() {
        assert_eq!(BitcountHash::new().hash(0), 0);
        assert_eq!(BitcountHash::new().hash(0b111), 3);
        assert_eq!(BitcountHash::new().hash(u32::MAX), 2); // 32 = 0b100000 → 0 ^ 2
    }

    #[test]
    fn width_variants_are_consistent() {
        let four = WidthHash::new(99, 4);
        let reference = MerkleTreeHash::new(99);
        for w in 0..512u32 {
            assert_eq!(four.hash(w), reference.hash(w));
        }
    }

    #[test]
    #[should_panic(expected = "supported widths")]
    fn unsupported_width_panics() {
        WidthHash::new(0, 5);
    }

    #[test]
    fn sum_compression_collisions_are_parameter_invariant() {
        // The reproduction finding: under the paper's sum compression, two
        // words collide under one parameter iff they collide under every
        // parameter. The S-box compression does not have this property.
        let (a, b) = (0x2408_0005u32, 0x0000_0003u32); // nibble sums 19 and 3, equal mod 16
        assert_eq!(
            MerkleTreeHash::new(0).hash(a),
            MerkleTreeHash::new(0).hash(b),
            "chosen pair collides at param 0"
        );
        for param in [1u32, 0xdead_beef, 0x8000_0001, 42] {
            let h = MerkleTreeHash::new(param);
            assert_eq!(
                h.hash(a),
                h.hash(b),
                "collision persists at param {param:#x}"
            );
        }
        let breaks = [1u32, 0xdead_beef, 0x8000_0001, 42].iter().any(|&p| {
            let h = MerkleTreeHash::with_compression(p, Compression::SBox);
            h.hash(a) != h.hash(b)
        });
        assert!(
            breaks,
            "S-box compression must make collisions parameter-dependent"
        );
    }

    #[test]
    fn compression_id_round_trip() {
        for c in Compression::ALL {
            assert_eq!(Compression::from_id(c.to_id()), Some(c));
        }
        assert_eq!(Compression::from_id(9), None);
    }

    #[test]
    fn compress_masks_out_of_range_inputs() {
        // Regression: out-of-range nibbles used to overflow the `u8` add in
        // debug builds (SumMod16/SBox) and silently wrap in release. Both
        // inputs are masked now, so any byte behaves as its low nibble —
        // keeping the scalar and bit-sliced paths in agreement on
        // malformed input.
        for c in Compression::ALL {
            for (a, b) in [(0xffu8, 0xffu8), (0x10, 0x02), (0xa5, 0x5a), (16, 16)] {
                assert_eq!(
                    c.compress(a, b),
                    c.compress(a & 0xf, b & 0xf),
                    "{c:?} compress({a:#x}, {b:#x})"
                );
                assert!(c.compress(a, b) < 16);
            }
        }
    }

    #[test]
    fn sip_round_is_bijective_per_argument() {
        // Bijectivity in each argument keeps hash outputs uniform over
        // uniform words — the property the 16^-k escape model needs.
        for fixed in 0u8..16 {
            let mut by_a: Vec<u8> = (0..16)
                .map(|a| Compression::SipRound.compress(a, fixed))
                .collect();
            let mut by_b: Vec<u8> = (0..16)
                .map(|b| Compression::SipRound.compress(fixed, b))
                .collect();
            by_a.sort_unstable();
            by_b.sort_unstable();
            let all: Vec<u8> = (0..16).collect();
            assert_eq!(by_a, all);
            assert_eq!(by_b, all);
        }
    }

    #[test]
    fn sip_collisions_are_parameter_dependent() {
        // Like the S-box, the ARX round's GF(2) nonlinearity must break the
        // sum compression's parameter-invariant collisions (SR2).
        let (a, b) = (0x2408_0005u32, 0x0000_0003u32); // collide under sum at every param
        let breaks = [1u32, 0xdead_beef, 0x8000_0001, 42].iter().any(|&p| {
            let h = MerkleTreeHash::with_compression(p, Compression::SipRound);
            h.hash(a) != h.hash(b)
        });
        assert!(breaks, "SipRound must make collisions parameter-dependent");
    }

    #[test]
    fn sip_hash_distribution_is_roughly_uniform() {
        let m = MerkleTreeHash::with_compression(0x8badf00d, Compression::SipRound);
        let mut counts = [0u32; 16];
        let samples = 160_000u32;
        for i in 0..samples {
            counts[m.hash(i.wrapping_mul(0x9E37_79B9)) as usize] += 1;
        }
        let expect = samples / 16;
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < (expect / 10) as u64,
                "bucket {v} count {c} far from {expect}"
            );
        }
    }

    #[test]
    fn default_hash_block_matches_scalar_loop() {
        // The trait default must be the scalar loop; BitcountHash does not
        // override it.
        let h = BitcountHash::new();
        let words: [u32; BLOCK_LANES] = std::array::from_fn(|i| (i as u32) * 0x0101_0101);
        let block = h.hash_block(&words);
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(block[i], h.hash(w));
        }
    }

    #[test]
    fn hamming_helper() {
        assert_eq!(hamming(0b0000, 0b1111), 4);
        assert_eq!(hamming(5, 5), 0);
        assert_eq!(hamming(0b1000, 0b0000), 1);
    }
}
