//! The control-processor cycle model behind Table 2.
//!
//! The paper measures its security steps on a 100 MHz Nios II soft core
//! running uClinux and the OpenSSL toolkit. This reproduction executes the
//! same cryptographic algorithms natively (orders of magnitude faster), so
//! wall-clock timing is meaningless; instead, each step's cost is modelled
//! analytically from the algorithm's operation counts:
//!
//! * RSA: square-and-multiply modular exponentiation ⇒
//!   `≈1.5 · exponent_bits` modular multiplications, each
//!   `2 · (modulus_bits / 32)²` 32×32 limb multiplications (multiply +
//!   reduce) on the 32-bit soft core;
//! * AES and SHA-256: cycles-per-byte over the package;
//! * a fixed per-invocation overhead capturing uClinux process spawn,
//!   flash I/O, and OpenSSL key parsing — the reason the paper's
//!   certificate check costs 3.33 s even though an `e = 65537` RSA verify
//!   is only a handful of multiplications.
//!
//! The four constants below are calibrated **once** against the paper's
//! Table 2 (see DESIGN.md); every derived number — including how the table
//! scales with key size or package size — then follows from algorithm
//! structure, which is what the reproduced *shape* rests on.

use std::time::Duration;

/// Cost model of the Nios II/uClinux/OpenSSL control processor.
///
/// # Examples
///
/// ```
/// use sdmmon_core::timing::NiosCycleModel;
///
/// let model = NiosCycleModel::paper();
/// // The paper's "Decrypt AES key using router's private key" row: 8.74 s.
/// let t = model.rsa_private_op(2048).as_secs_f64();
/// assert!((8.0..9.5).contains(&t), "{t}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NiosCycleModel {
    /// Core clock in Hz (100 MHz on the DE4 prototype).
    pub clock_hz: f64,
    /// Fixed cycles per security-tool invocation (process spawn, key file
    /// parsing, flash I/O under uClinux).
    pub invocation_overhead_cycles: f64,
    /// Cycles per 32×32→64 multiply-accumulate in the bignum inner loop.
    pub cycles_per_limb_mult: f64,
    /// Cycles per byte of AES-CBC (software tables on a soft core).
    pub aes_cycles_per_byte: f64,
    /// Cycles per byte of SHA-256.
    pub sha256_cycles_per_byte: f64,
}

impl NiosCycleModel {
    /// The calibrated model of the paper's prototype.
    pub fn paper() -> NiosCycleModel {
        NiosCycleModel {
            clock_hz: 100e6,
            invocation_overhead_cycles: 3.2e8, // 3.2 s of uClinux/OpenSSL overhead
            cycles_per_limb_mult: 22.0,
            aes_cycles_per_byte: 566.0,
            sha256_cycles_per_byte: 80.0,
        }
    }

    fn seconds(&self, cycles: f64) -> Duration {
        Duration::from_secs_f64(cycles / self.clock_hz)
    }

    /// Cycles of one modular multiplication at `modulus_bits`.
    fn modmul_cycles(&self, modulus_bits: usize) -> f64 {
        let limbs = (modulus_bits as f64 / 32.0).ceil();
        // Multiply (limbs²) plus reduction (≈ limbs²).
        2.0 * limbs * limbs * self.cycles_per_limb_mult
    }

    /// Time of an RSA private-key operation (full-size exponent).
    pub fn rsa_private_op(&self, modulus_bits: usize) -> Duration {
        let modmuls = 1.5 * modulus_bits as f64; // squarings + ~50% multiplies
        self.seconds(self.invocation_overhead_cycles + modmuls * self.modmul_cycles(modulus_bits))
    }

    /// Time of an RSA public-key operation with `e = 65537` (17 modular
    /// multiplications), *excluding* any hashing of the message.
    pub fn rsa_public_op(&self, modulus_bits: usize) -> Duration {
        self.seconds(self.invocation_overhead_cycles + 17.0 * self.modmul_cycles(modulus_bits))
    }

    /// Time to AES-decrypt (or encrypt) `bytes` of payload.
    pub fn aes_cbc(&self, bytes: usize) -> Duration {
        self.seconds(self.invocation_overhead_cycles + bytes as f64 * self.aes_cycles_per_byte)
    }

    /// Time to SHA-256 `bytes` of payload.
    pub fn sha256(&self, bytes: usize) -> Duration {
        self.seconds(bytes as f64 * self.sha256_cycles_per_byte)
    }

    /// Signature verification = hash the payload + one public-key op.
    pub fn verify_signature(&self, modulus_bits: usize, payload_bytes: usize) -> Duration {
        self.rsa_public_op(modulus_bits) + self.sha256(payload_bytes)
    }

    /// Certificate check = hash the (small) certificate + one public-key op.
    pub fn check_certificate(&self, modulus_bits: usize, cert_bytes: usize) -> Duration {
        self.rsa_public_op(modulus_bits) + self.sha256(cert_bytes)
    }
}

/// One row of the Table 2 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTiming {
    /// Step description (mirrors the paper's wording).
    pub step: &'static str,
    /// Modelled duration.
    pub time: Duration,
}

/// The five security steps of Table 2 for a given package/certificate size
/// and download time.
///
/// `download` comes from the channel model (`sdmmon_net::channel`); the
/// remaining rows come from the cycle model.
pub fn table2_rows(
    model: &NiosCycleModel,
    modulus_bits: usize,
    package_bytes: usize,
    cert_bytes: usize,
    download: Duration,
) -> Vec<StepTiming> {
    vec![
        StepTiming {
            step: "Download data from FTP server",
            time: download,
        },
        StepTiming {
            step: "Check manufacturer certificate of network operator's public key",
            time: model.check_certificate(modulus_bits, cert_bytes),
        },
        StepTiming {
            step: "Decrypt AES key using router's private key",
            time: model.rsa_private_op(modulus_bits),
        },
        StepTiming {
            step: "Decrypt package with AES key",
            time: model.aes_cbc(package_bytes),
        },
        StepTiming {
            step: "Verify package signature with network operator's public key",
            time: model.verify_signature(modulus_bits, package_bytes),
        },
    ]
}

/// Sum of all rows (the paper's "Total").
pub fn table2_total(rows: &[StepTiming]) -> Duration {
    rows.iter().map(|r| r.time).sum()
}

/// Total without networking and certificate check (the paper's second
/// total: the cert is checked once at boot, and download time depends on
/// server location).
pub fn table2_total_no_net_no_cert(rows: &[StepTiming]) -> Duration {
    rows.iter()
        .filter(|r| !r.step.starts_with("Download") && !r.step.starts_with("Check"))
        .map(|r| r.time)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's package scale: a production IPv4+CM binary plus
    /// monitoring graph (~800 KiB with crypto envelope).
    const PAPER_PKG: usize = 800 * 1024;
    const PAPER_CERT: usize = 1024;

    #[test]
    fn paper_rows_reproduce_table2_within_tolerance() {
        let m = NiosCycleModel::paper();
        let rows = table2_rows(
            &m,
            2048,
            PAPER_PKG,
            PAPER_CERT,
            Duration::from_secs_f64(1.90),
        );
        let paper = [1.90f64, 3.33, 8.74, 7.73, 3.92];
        for (row, &expect) in rows.iter().zip(paper.iter()) {
            let got = row.time.as_secs_f64();
            let rel = (got - expect).abs() / expect;
            assert!(
                rel < 0.15,
                "{}: modelled {got:.2} s vs paper {expect:.2} s",
                row.step
            );
        }
        let total = table2_total(&rows).as_secs_f64();
        assert!((total - 25.62).abs() / 25.62 < 0.10, "total {total:.2}");
        let reduced = table2_total_no_net_no_cert(&rows).as_secs_f64();
        assert!(
            (18.0..22.0).contains(&reduced),
            "reduced total {reduced:.2}"
        );
    }

    #[test]
    fn ordering_matches_paper() {
        // The structural claim: RSA private > AES package decrypt >
        // signature verify ≥ certificate check > (typical) download.
        let m = NiosCycleModel::paper();
        let rows = table2_rows(
            &m,
            2048,
            PAPER_PKG,
            PAPER_CERT,
            Duration::from_secs_f64(1.9),
        );
        let t: Vec<f64> = rows.iter().map(|r| r.time.as_secs_f64()).collect();
        assert!(t[2] > t[3], "RSA private ({}) > AES ({})", t[2], t[3]);
        assert!(t[3] > t[4], "AES ({}) > verify ({})", t[3], t[4]);
        assert!(t[4] >= t[1], "verify ({}) >= cert ({})", t[4], t[1]);
        assert!(t[1] > t[0], "cert ({}) > download ({})", t[1], t[0]);
    }

    #[test]
    fn rsa_private_scales_cubically_with_key_size() {
        let m = NiosCycleModel::paper();
        let overhead = m.seconds(m.invocation_overhead_cycles).as_secs_f64();
        let t1024 = m.rsa_private_op(1024).as_secs_f64() - overhead;
        let t2048 = m.rsa_private_op(2048).as_secs_f64() - overhead;
        let ratio = t2048 / t1024;
        assert!(
            (7.0..9.0).contains(&ratio),
            "expected ≈8× for doubled key, got {ratio}"
        );
    }

    #[test]
    fn aes_scales_linearly_with_package() {
        let m = NiosCycleModel::paper();
        let overhead = m.seconds(m.invocation_overhead_cycles).as_secs_f64();
        let t1 = m.aes_cbc(100_000).as_secs_f64() - overhead;
        let t2 = m.aes_cbc(200_000).as_secs_f64() - overhead;
        assert!((t2 / t1 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn public_op_is_much_cheaper_than_private() {
        let m = NiosCycleModel::paper();
        let overhead = m.seconds(m.invocation_overhead_cycles).as_secs_f64();
        let public = m.rsa_public_op(2048).as_secs_f64() - overhead;
        let private = m.rsa_private_op(2048).as_secs_f64() - overhead;
        assert!(private / public > 100.0);
    }
}
