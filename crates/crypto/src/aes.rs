//! AES block cipher (FIPS 197) with CBC and CTR modes of operation.
//!
//! The SDMMon installation protocol encrypts the package (binary ‖
//! monitoring graph ‖ hash parameter) under a random AES key; this module
//! provides the cipher the control processor uses to decrypt it.
//!
//! Decryption runs the equivalent inverse cipher (FIPS 197 §5.3.5): a
//! decryption key schedule with InvMixColumns folded into the middle round
//! keys, and middle rounds of four word-table lookups per column (tables
//! built from the S-box at compile time). Encryption stays the byte-wise
//! cipher of §5.1; it runs once per package. Like the S-box lookups, the
//! table lookups index memory by secret bytes, so neither path is
//! constant-time: the simulator makes no timing side-channel claim.

use crate::CryptoError;
use sdmmon_rng::RngCore;

/// AES forward S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// AES inverse S-box, the inverse permutation of [`SBOX`].
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Round tables of the equivalent inverse cipher. `TD[0][x]` is
/// InvMixColumns of the column (InvSubBytes(x), 0, 0, 0) as a big-endian
/// word; `TD[r]` is `TD[0]` rotated right by 8·r bits, the same for a byte
/// in row r. One middle round of a column is then four lookups and a
/// round key.
static TD: [[u32; 256]; 4] = {
    let mut td = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = INV_SBOX[x];
        let w = u32::from_be_bytes([gmul(s, 14), gmul(s, 9), gmul(s, 13), gmul(s, 11)]);
        td[0][x] = w;
        td[1][x] = w.rotate_right(8);
        td[2][x] = w.rotate_right(16);
        td[3][x] = w.rotate_right(24);
        x += 1;
    }
    td
};

/// Multiplication in GF(2⁸) with the AES polynomial x⁸+x⁴+x³+x+1.
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// Byte `row` (0 = most significant) of a big-endian column word.
#[inline]
fn byte(word: u32, row: usize) -> usize {
    (word >> (24 - 8 * row)) as u8 as usize
}

/// InvMixColumns of one column word. `TD` composes InvSubBytes, so each
/// byte goes through [`SBOX`] first.
fn inv_mix_word(w: u32) -> u32 {
    (0..4).fold(0, |acc, row| acc ^ TD[row][SBOX[byte(w, row)] as usize])
}

/// AES key size variants supported by the cipher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 192-bit key, 12 rounds.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    fn nk(self) -> usize {
        match self {
            KeySize::Aes128 => 4,
            KeySize::Aes192 => 6,
            KeySize::Aes256 => 8,
        }
    }

    fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }

    /// Key length in bytes.
    pub fn key_bytes(self) -> usize {
        self.nk() * 4
    }
}

/// An expanded AES key ready for block operations.
///
/// # Examples
///
/// ```
/// use sdmmon_crypto::aes::Aes;
///
/// # fn main() -> Result<(), sdmmon_crypto::CryptoError> {
/// let aes = Aes::new(&[0u8; 16])?;
/// let ct = aes.encrypt_block([0u8; 16]);
/// assert_eq!(aes.decrypt_block(ct), [0u8; 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
    /// The equivalent inverse cipher's schedule: `round_keys` in reverse
    /// order as column words, with InvMixColumns applied to all but the
    /// first and the last.
    inv_round_keys: Vec<[u32; 4]>,
    rounds: usize,
}

/// AES block size in bytes.
pub const BLOCK: usize = 16;

impl Aes {
    /// Expands `key` (16, 24, or 32 bytes) into round keys.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] for other key lengths.
    pub fn new(key: &[u8]) -> Result<Aes, CryptoError> {
        let size = match key.len() {
            16 => KeySize::Aes128,
            24 => KeySize::Aes192,
            32 => KeySize::Aes256,
            n => return Err(CryptoError::InvalidKey(format!("AES key of {n} bytes"))),
        };
        let nk = size.nk();
        let rounds = size.rounds();
        let nwords = 4 * (rounds + 1);
        let mut w: Vec<[u8; 4]> = Vec::with_capacity(nwords);
        for chunk in key.chunks_exact(4) {
            w.push(chunk.try_into().expect("4-byte word"));
        }
        let mut rcon = 1u8;
        for i in nk..nwords {
            let mut t = w[i - 1];
            if i % nk == 0 {
                t.rotate_left(1);
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
                t[0] ^= rcon;
                rcon = gmul(rcon, 2);
            } else if nk > 6 && i % nk == 4 {
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
            }
            let prev = w[i - nk];
            w.push([
                t[0] ^ prev[0],
                t[1] ^ prev[1],
                t[2] ^ prev[2],
                t[3] ^ prev[3],
            ]);
        }
        let round_keys = w
            .chunks_exact(4)
            .map(|c| {
                let mut rk = [0u8; 16];
                for (j, word) in c.iter().enumerate() {
                    rk[j * 4..j * 4 + 4].copy_from_slice(word);
                }
                rk
            })
            .collect();
        let inv_round_keys = w
            .chunks_exact(4)
            .rev()
            .enumerate()
            .map(|(i, c)| {
                std::array::from_fn(|j| {
                    let word = u32::from_be_bytes(c[j]);
                    if i == 0 || i == rounds {
                        word
                    } else {
                        inv_mix_word(word)
                    }
                })
            })
            .collect();
        Ok(Aes {
            round_keys,
            inv_round_keys,
            rounds,
        })
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, mut state: [u8; 16]) -> [u8; 16] {
        xor_block(&mut state, &self.round_keys[0]);
        for round in 1..=self.rounds {
            for b in &mut state {
                *b = SBOX[*b as usize];
            }
            shift_rows(&mut state);
            if round != self.rounds {
                mix_columns(&mut state);
            }
            xor_block(&mut state, &self.round_keys[round]);
        }
        state
    }

    /// Decrypts one 16-byte block through the equivalent inverse cipher:
    /// the state is four big-endian column words, and InvShiftRows is the
    /// choice of source column for each row's byte.
    pub fn decrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let keys = &self.inv_round_keys;
        let mut s: [u32; 4] = std::array::from_fn(|c| {
            u32::from_be_bytes(block[4 * c..4 * c + 4].try_into().expect("column")) ^ keys[0][c]
        });
        for key in &keys[1..self.rounds] {
            s = std::array::from_fn(|c| {
                TD[0][byte(s[c], 0)]
                    ^ TD[1][byte(s[(c + 3) % 4], 1)]
                    ^ TD[2][byte(s[(c + 2) % 4], 2)]
                    ^ TD[3][byte(s[(c + 1) % 4], 3)]
                    ^ key[c]
            });
        }
        let last = &keys[self.rounds];
        let mut out = [0u8; 16];
        for c in 0..4 {
            let column = u32::from_be_bytes(std::array::from_fn(|row| {
                INV_SBOX[byte(s[(c + 4 - row) % 4], row)]
            }));
            out[4 * c..4 * c + 4].copy_from_slice(&(column ^ last[c]).to_be_bytes());
        }
        out
    }

    /// Encrypts `plaintext` in CBC mode with PKCS#7 padding, prepending the
    /// random IV to the ciphertext.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdmmon_crypto::aes::Aes;
    /// use sdmmon_rng::SeedableRng;
    ///
    /// # fn main() -> Result<(), sdmmon_crypto::CryptoError> {
    /// let aes = Aes::new(&[7u8; 16])?;
    /// let mut rng = sdmmon_rng::StdRng::seed_from_u64(1);
    /// let ct = aes.encrypt_cbc(b"attack at dawn", &mut rng);
    /// assert_eq!(aes.decrypt_cbc(&ct)?, b"attack at dawn");
    /// # Ok(())
    /// # }
    /// ```
    pub fn encrypt_cbc<R: RngCore + ?Sized>(&self, plaintext: &[u8], rng: &mut R) -> Vec<u8> {
        let mut iv = [0u8; BLOCK];
        rng.fill_bytes(&mut iv);
        self.encrypt_cbc_with_iv(plaintext, iv)
    }

    /// CBC encryption under a caller-supplied IV (still IV-prefixed and
    /// PKCS#7-padded, so [`Aes::decrypt_cbc`] reads it unchanged).
    ///
    /// This is the deterministic-encryption building block of the fleet
    /// delta path: deriving the IV from the plaintext (SIV-style) makes
    /// unchanged sections re-encrypt to identical ciphertext, which is what
    /// lets a delta download skip them. Callers own the IV-misuse tradeoff:
    /// equal `(key, iv, plaintext)` triples produce equal ciphertexts.
    pub fn encrypt_cbc_with_iv(&self, plaintext: &[u8], iv: [u8; BLOCK]) -> Vec<u8> {
        let mut out = iv.to_vec();
        let pad = BLOCK - plaintext.len() % BLOCK;
        let mut prev = iv;
        let mut buf = plaintext.to_vec();
        buf.extend(std::iter::repeat_n(pad as u8, pad));
        for chunk in buf.chunks_exact(BLOCK) {
            let mut block: [u8; 16] = chunk.try_into().expect("block chunk");
            xor_block(&mut block, &prev);
            prev = self.encrypt_block(block);
            out.extend_from_slice(&prev);
        }
        out
    }

    /// Decrypts an IV-prefixed CBC ciphertext, stripping PKCS#7 padding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPadding`] when the ciphertext length is
    /// not a positive multiple of the block size past the IV, or the padding
    /// bytes are inconsistent.
    pub fn decrypt_cbc(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if ciphertext.len() < 2 * BLOCK || !ciphertext.len().is_multiple_of(BLOCK) {
            return Err(CryptoError::InvalidPadding);
        }
        let mut prev: [u8; 16] = ciphertext[..BLOCK].try_into().expect("iv");
        let mut out = Vec::with_capacity(ciphertext.len() - BLOCK);
        for chunk in ciphertext[BLOCK..].chunks_exact(BLOCK) {
            let block: [u8; 16] = chunk.try_into().expect("block chunk");
            let mut plain = self.decrypt_block(block);
            xor_block(&mut plain, &prev);
            out.extend_from_slice(&plain);
            prev = block;
        }
        let pad = *out.last().ok_or(CryptoError::InvalidPadding)? as usize;
        if pad == 0 || pad > BLOCK || out.len() < pad {
            return Err(CryptoError::InvalidPadding);
        }
        if out[out.len() - pad..].iter().any(|&b| b as usize != pad) {
            return Err(CryptoError::InvalidPadding);
        }
        out.truncate(out.len() - pad);
        Ok(out)
    }

    /// CTR-mode keystream XOR: encryption and decryption are the same
    /// operation. The 16-byte `nonce_counter` is the initial counter block,
    /// incremented big-endian per block.
    pub fn apply_ctr(&self, nonce_counter: [u8; 16], data: &[u8]) -> Vec<u8> {
        let mut counter = nonce_counter;
        let mut out = Vec::with_capacity(data.len());
        for chunk in data.chunks(BLOCK) {
            let keystream = self.encrypt_block(counter);
            out.extend(chunk.iter().zip(keystream.iter()).map(|(d, k)| d ^ k));
            increment_counter(&mut counter);
        }
        out
    }
}

fn xor_block(state: &mut [u8; 16], key: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(key.iter()) {
        *s ^= k;
    }
}

/// AES state is column-major: byte `r + 4c` is row r, column c.
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col: [u8; 4] = state[4 * c..4 * c + 4].try_into().expect("column");
        state[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
        state[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
    }
}

fn increment_counter(counter: &mut [u8; 16]) {
    for b in counter.iter_mut().rev() {
        *b = b.wrapping_add(1);
        if *b != 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdmmon_rng::SeedableRng;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The byte-wise inverse cipher (FIPS 197 §5.3): the oracle of the
    /// table-driven [`Aes::decrypt_block`].
    fn decrypt_block_bytewise(aes: &Aes, mut state: [u8; 16]) -> [u8; 16] {
        xor_block(&mut state, &aes.round_keys[aes.rounds]);
        for round in (1..=aes.rounds).rev() {
            inv_shift_rows(&mut state);
            for b in &mut state {
                *b = INV_SBOX[*b as usize];
            }
            xor_block(&mut state, &aes.round_keys[round - 1]);
            if round != 1 {
                inv_mix_columns(&mut state);
            }
        }
        state
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
            }
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col: [u8; 4] = state[4 * c..4 * c + 4].try_into().expect("column");
            state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            state[4 * c + 1] =
                gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            state[4 * c + 2] =
                gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            state[4 * c + 3] =
                gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
    }

    /// The table path equals the byte-wise inverse cipher on seeded
    /// random keys and blocks of every key size, and inverts encryption.
    #[test]
    fn table_decrypt_matches_bytewise_inverse_cipher() {
        let mut rng = sdmmon_rng::StdRng::seed_from_u64(0xAE5_0027);
        for key_len in [16usize, 24, 32] {
            for _ in 0..1024 {
                let mut key = vec![0u8; key_len];
                rng.fill_bytes(&mut key);
                let aes = Aes::new(&key).unwrap();
                for _ in 0..4 {
                    let mut block = [0u8; 16];
                    rng.fill_bytes(&mut block);
                    let plain = aes.decrypt_block(block);
                    assert_eq!(
                        plain,
                        decrypt_block_bytewise(&aes, block),
                        "key {key:02x?} block {block:02x?}"
                    );
                    assert_eq!(aes.encrypt_block(plain), block);
                }
            }
        }
    }

    /// NIST SP 800-38A F.2.2, F.2.4 and F.2.6 (CBC-AES128/192/256
    /// decrypt), chained through [`Aes::decrypt_block`]: the vectors carry
    /// no padding, so [`Aes::decrypt_cbc`] cannot read them whole.
    #[test]
    fn sp800_38a_cbc_decrypt_vectors() {
        let iv = from_hex("000102030405060708090a0b0c0d0e0f");
        let plaintext = from_hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        let vectors = [
            (
                "2b7e151628aed2a6abf7158809cf4f3c",
                concat!(
                    "7649abac8119b246cee98e9b12e9197d",
                    "5086cb9b507219ee95db113a917678b2",
                    "73bed6b8e3c1743b7116e69e22229516",
                    "3ff1caa1681fac09120eca307586e1a7",
                ),
            ),
            (
                "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
                concat!(
                    "4f021db243bc633d7178183a9fa071e8",
                    "b4d9ada9ad7dedf4e5e738763f69145a",
                    "571b242012fb7ae07fa9baac3df102e0",
                    "08b0e27988598881d920a9e64f5615cd",
                ),
            ),
            (
                "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
                concat!(
                    "f58c4c04d6e5f1ba779eabfb5f7bfbd6",
                    "9cfc4e967edb808d679f777bc6702c7d",
                    "39f23369a9d9bacfa530e26304231461",
                    "b2eb05e2c39be9fcda6c19078c6a9d1b",
                ),
            ),
        ];
        for (key, ciphertext) in vectors {
            let aes = Aes::new(&from_hex(key)).unwrap();
            let ciphertext = from_hex(ciphertext);
            let mut prev: [u8; 16] = iv.clone().try_into().unwrap();
            let mut out = Vec::new();
            for chunk in ciphertext.chunks_exact(BLOCK) {
                let block: [u8; 16] = chunk.try_into().unwrap();
                let mut plain = aes.decrypt_block(block);
                xor_block(&mut plain, &prev);
                out.extend_from_slice(&plain);
                prev = block;
            }
            assert_eq!(out, plaintext, "key {key}");
        }
    }

    #[test]
    fn fips197_aes128_vector() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f");
        let pt: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        let aes = Aes::new(&key).unwrap();
        let ct = aes.encrypt_block(pt);
        assert_eq!(ct.to_vec(), from_hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    #[test]
    fn fips197_aes192_vector() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f1011121314151617");
        let pt: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        let aes = Aes::new(&key).unwrap();
        let ct = aes.encrypt_block(pt);
        assert_eq!(ct.to_vec(), from_hex("dda97ca4864cdfe06eaf70a0ec0d7191"));
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    #[test]
    fn fips197_aes256_vector() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let pt: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        let aes = Aes::new(&key).unwrap();
        let ct = aes.encrypt_block(pt);
        assert_eq!(ct.to_vec(), from_hex("8ea2b7ca516745bfeafc49904b496089"));
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    #[test]
    fn sp800_38a_ctr_vector() {
        // NIST SP 800-38A F.5.1 CTR-AES128.
        let key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
        let counter: [u8; 16] = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .try_into()
            .unwrap();
        let pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
        let aes = Aes::new(&key).unwrap();
        let ct = aes.apply_ctr(counter, &pt);
        assert_eq!(ct, from_hex("874d6191b620e3261bef6864990db6ce"));
        // CTR is an involution.
        assert_eq!(aes.apply_ctr(counter, &ct), pt);
    }

    #[test]
    fn invalid_key_lengths_rejected() {
        for len in [0usize, 1, 15, 17, 23, 31, 33] {
            assert!(Aes::new(&vec![0u8; len]).is_err(), "len {len}");
        }
    }

    #[test]
    fn cbc_round_trip_various_lengths() {
        let aes = Aes::new(&[9u8; 32]).unwrap();
        let mut rng = sdmmon_rng::StdRng::seed_from_u64(5);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 100, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = aes.encrypt_cbc(&pt, &mut rng);
            assert_eq!(aes.decrypt_cbc(&ct).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn cbc_tamper_detected_as_padding_or_garbage() {
        let aes = Aes::new(&[9u8; 16]).unwrap();
        let mut rng = sdmmon_rng::StdRng::seed_from_u64(5);
        let ct = aes.encrypt_cbc(b"network operator package", &mut rng);
        // Truncated / misaligned ciphertexts are rejected outright.
        assert_eq!(
            aes.decrypt_cbc(&ct[..ct.len() - 1]),
            Err(CryptoError::InvalidPadding)
        );
        assert_eq!(
            aes.decrypt_cbc(&ct[..BLOCK]),
            Err(CryptoError::InvalidPadding)
        );
        // Flipping a bit in the last block corrupts padding with high
        // probability; either way the plaintext must differ.
        let mut tampered = ct.clone();
        *tampered.last_mut().unwrap() ^= 1;
        match aes.decrypt_cbc(&tampered) {
            Err(CryptoError::InvalidPadding) => {}
            Ok(p) => assert_ne!(p, b"network operator package"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn ctr_counter_wraps() {
        let mut c = [0xffu8; 16];
        increment_counter(&mut c);
        assert_eq!(c, [0u8; 16]);
    }

    #[test]
    fn key_size_metadata() {
        assert_eq!(KeySize::Aes128.key_bytes(), 16);
        assert_eq!(KeySize::Aes192.key_bytes(), 24);
        assert_eq!(KeySize::Aes256.key_bytes(), 32);
    }
}
