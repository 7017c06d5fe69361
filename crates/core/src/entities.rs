//! The three entities of the SDMMon security model: manufacturer, network
//! operator, and network-processor device (paper §2.2 and §3.1).

use crate::cert::Certificate;
use crate::package::{InstallationBundle, Package};
use crate::timing::NiosCycleModel;
use crate::wire2::{BundleV2, Section, SectionTag, TlvBundle, SEGMENT_BYTES};
use crate::SdmmonError;
use sdmmon_crypto::aes::Aes;
use sdmmon_crypto::hmac::hmac_sha256;
use sdmmon_crypto::rsa::{wrap_key_batch, RsaKeyPair, RsaPublicKey};
use sdmmon_isa::asm::Program;
use sdmmon_monitor::hash::Compression;
use sdmmon_monitor::{HardwareMonitor, MerkleTreeHash, MonitoringGraph};
use sdmmon_npu::np::NetworkProcessor;
use sdmmon_npu::runtime::PacketOutcome;
use sdmmon_rng::RngCore;
use std::time::Duration;

/// AES key length for package encryption (AES-128, the OpenSSL default of
/// the paper's era).
const SYM_KEY_BYTES: usize = 16;

/// The router/network-processor manufacturer: the root of trust.
///
/// "At manufacturing time ... the manufacturer configures the device with
/// a public/private key pair ... \[and\] installs the manufacturer's public
/// key into the device so that a root of trust can be established."
#[derive(Debug)]
pub struct Manufacturer {
    name: String,
    keys: RsaKeyPair,
}

impl Manufacturer {
    /// Creates a manufacturer with a fresh `key_bits` RSA key pair.
    ///
    /// # Errors
    ///
    /// Propagates key-generation failures.
    pub fn new<R: RngCore + ?Sized>(
        name: &str,
        key_bits: usize,
        rng: &mut R,
    ) -> Result<Manufacturer, SdmmonError> {
        Ok(Manufacturer {
            name: name.to_owned(),
            keys: RsaKeyPair::generate(key_bits, rng)?,
        })
    }

    /// The manufacturer's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The manufacturer's public key (pre-installed in every router).
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.keys.public
    }

    /// Issues the certificate that lets routers trust `operator_key`
    /// ("at installation time").
    pub fn certify_operator(
        &self,
        operator_key: &RsaPublicKey,
        operator_name: &str,
    ) -> Certificate {
        Certificate::issue(operator_name, operator_key, &self.keys.private)
    }

    /// Manufactures a router: generates its device key pair, burns in the
    /// manufacturer public key, and attaches a `cores`-core NP
    /// ("at manufacturing time").
    ///
    /// # Errors
    ///
    /// Returns [`SdmmonError::NoSuchCore`] for a zero-core router (before
    /// drawing any randomness) and propagates key-generation failures.
    pub fn provision_router<R: RngCore + ?Sized>(
        &self,
        name: &str,
        cores: usize,
        key_bits: usize,
        rng: &mut R,
    ) -> Result<RouterDevice, SdmmonError> {
        if cores == 0 {
            return Err(SdmmonError::NoSuchCore { core: 0, cores: 0 });
        }
        Ok(self.provision_router_with_keys(name, cores, RsaKeyPair::generate(key_bits, rng)?))
    }

    /// [`Manufacturer::provision_router`] with a caller-supplied device key
    /// pair.
    ///
    /// This is the fleet-scale provisioning path: a bounded pool of
    /// pre-generated key pairs caps key-generation cost when manufacturing
    /// tens of thousands of simulated routers, while the install protocol
    /// itself stays strictly per-key.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero (a network processor needs at least one
    /// core).
    pub fn provision_router_with_keys(
        &self,
        name: &str,
        cores: usize,
        keys: RsaKeyPair,
    ) -> RouterDevice {
        RouterDevice {
            name: name.to_owned(),
            keys,
            manufacturer_key: self.keys.public.clone(),
            np: NetworkProcessor::new(cores),
            installed: vec![None; cores],
            last_sequence: 0,
        }
    }
}

/// The network operator: prepares and signs installation packages.
#[derive(Debug)]
pub struct NetworkOperator {
    name: String,
    keys: RsaKeyPair,
    certificate: Option<Certificate>,
    compression: Compression,
    /// Monotonic package counter (anti-replay extension; see
    /// `Package::sequence`). Atomic so package preparation stays `&self`
    /// and parallel deployments can reserve sequence blocks concurrently.
    next_sequence: std::sync::atomic::AtomicU64,
}

impl NetworkOperator {
    /// Creates an operator with a fresh key pair (no certificate yet).
    ///
    /// # Errors
    ///
    /// Propagates key-generation failures.
    pub fn new<R: RngCore + ?Sized>(
        name: &str,
        key_bits: usize,
        rng: &mut R,
    ) -> Result<NetworkOperator, SdmmonError> {
        Ok(NetworkOperator {
            name: name.to_owned(),
            keys: RsaKeyPair::generate(key_bits, rng)?,
            certificate: None,
            // Reproduction deviation (documented in EXPERIMENTS.md): the
            // paper's sum compression makes hash collisions parameter-
            // independent, which would void the fleet-diversity goal; the
            // protocol layer therefore defaults to the S-box compression.
            compression: Compression::SBox,
            next_sequence: std::sync::atomic::AtomicU64::new(1),
        })
    }

    /// Overrides the Merkle-tree compression used for new packages (e.g.
    /// [`Compression::SumMod16`] for paper-faithful ablations).
    pub fn set_compression(&mut self, compression: Compression) {
        self.compression = compression;
    }

    /// The compression new packages will use.
    pub fn compression(&self) -> Compression {
        self.compression
    }

    /// The operator's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator's public key (to be certified by the manufacturer).
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.keys.public
    }

    /// Stores the manufacturer-issued certificate.
    pub fn accept_certificate(&mut self, certificate: Certificate) {
        self.certificate = Some(certificate);
    }

    /// Builds the installation bundle for one specific router
    /// ("at programming time"):
    ///
    /// 1. extract the monitoring graph from `program` under a freshly drawn
    ///    random 32-bit hash parameter (SR2),
    /// 2. sign `binary ‖ graph ‖ parameter` with the operator key (SR1),
    /// 3. encrypt the payload under a random AES key (SR3),
    /// 4. wrap the AES key with the router's public key (SR4).
    ///
    /// # Errors
    ///
    /// Returns [`SdmmonError::MissingCertificate`] before certification and
    /// propagates graph/crypto failures.
    pub fn prepare_package<R: RngCore + ?Sized>(
        &self,
        program: &Program,
        router_key: &RsaPublicKey,
        rng: &mut R,
    ) -> Result<InstallationBundle, SdmmonError> {
        let sequence = self.reserve_sequences(1);
        self.prepare_package_with_sequence(program, router_key, sequence, rng)
    }

    /// Reserves a contiguous block of `count` package sequence numbers,
    /// returning the first.
    ///
    /// Parallel fleet deployments reserve one block up front and assign
    /// `first + i` to router `i`, so the sequence a router receives does
    /// not depend on thread scheduling.
    pub fn reserve_sequences(&self, count: u64) -> u64 {
        self.next_sequence
            .fetch_add(count, std::sync::atomic::Ordering::Relaxed)
    }

    /// [`NetworkOperator::prepare_package`] with a caller-assigned sequence
    /// number (obtained from [`NetworkOperator::reserve_sequences`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`NetworkOperator::prepare_package`].
    pub fn prepare_package_with_sequence<R: RngCore + ?Sized>(
        &self,
        program: &Program,
        router_key: &RsaPublicKey,
        sequence: u64,
        rng: &mut R,
    ) -> Result<InstallationBundle, SdmmonError> {
        let (certificate, payload, signature) = self.sign(program, rng.next_u32(), sequence)?;
        let mut sym_key = [0u8; SYM_KEY_BYTES];
        rng.fill_bytes(&mut sym_key);
        let aes = Aes::new(&sym_key)?;
        let ciphertext = aes.encrypt_cbc(&payload, rng);
        let wrapped_key = router_key.encrypt(&sym_key, rng)?;

        Ok(InstallationBundle {
            ciphertext,
            wrapped_key,
            signature,
            certificate,
        })
    }

    /// Prepares one **shared fleet update**: the expensive per-package work
    /// — graph extraction, signing, and payload encryption — happens *once*
    /// here, leaving only the cheap per-router RSA key-wrap
    /// ([`FleetUpdate::wrap_keys`]) to scale with fleet size. This is the
    /// amortization the paper's structure permits: SR1/SR3 cover the shared
    /// payload, SR4 stays per-router via the wrap.
    ///
    /// The payload is encrypted per [`SEGMENT_BYTES`]-sized section with a
    /// plaintext-derived IV, so successor updates
    /// ([`NetworkOperator::prepare_fleet_successor`]) re-encrypt unchanged
    /// sections to identical ciphertext — the delta-update contract.
    ///
    /// Note the SR2 tradeoff: every router installing one fleet update
    /// shares a hash parameter (diversity is *across updates*, not across
    /// routers within one update). Operators wanting per-router diversity
    /// keep using [`NetworkOperator::prepare_package`].
    ///
    /// # Errors
    ///
    /// Same contract as [`NetworkOperator::prepare_package`].
    pub fn prepare_fleet_update<R: RngCore + ?Sized>(
        &self,
        program: &Program,
        rng: &mut R,
    ) -> Result<FleetUpdate, SdmmonError> {
        let sequence = self.reserve_sequences(1);
        let hash_param = rng.next_u32();
        let mut sym_key = [0u8; SYM_KEY_BYTES];
        rng.fill_bytes(&mut sym_key);
        self.build_fleet_update(program, hash_param, sym_key, sequence)
    }

    /// Prepares the **successor version** of a fleet update: same package
    /// key and hash parameter as `prev`, fresh sequence number. Unchanged
    /// payload sections re-encrypt to byte-identical ciphertext, so routers
    /// holding `prev` download only the sections that differ (for a pure
    /// sequence bump: the final section, which carries the sequence field).
    ///
    /// Reusing the hash parameter is the documented delta-vs-rotation
    /// choice: a successor keeps monitors parameter-compatible across the
    /// fleet but does not re-diversify (SR2 across versions); preparing a
    /// fresh [`NetworkOperator::prepare_fleet_update`] rotates both and
    /// forces a full download. Entirely deterministic — no rng.
    ///
    /// # Errors
    ///
    /// Same contract as [`NetworkOperator::prepare_package`].
    pub fn prepare_fleet_successor(
        &self,
        prev: &FleetUpdate,
        program: &Program,
    ) -> Result<FleetUpdate, SdmmonError> {
        let sequence = self.reserve_sequences(1);
        self.build_fleet_update(program, prev.hash_param, prev.sym_key, sequence)
    }

    fn build_fleet_update(
        &self,
        program: &Program,
        hash_param: u32,
        sym_key: [u8; SYM_KEY_BYTES],
        sequence: u64,
    ) -> Result<FleetUpdate, SdmmonError> {
        let (certificate, payload, signature) = self.sign(program, hash_param, sequence)?;
        let cipher_sections = encrypt_segments(&sym_key, &payload)?;
        sdmmon_obs::metrics().inc(sdmmon_obs::Counter::FleetUpdatesPrepared);
        Ok(FleetUpdate {
            certificate,
            payload,
            signature,
            sym_key,
            cipher_sections,
            sequence,
            hash_param,
        })
    }

    /// The signing half every package shares, per-router or fleet-wide:
    /// extract the monitoring graph under `hash_param` (SR2), serialize the
    /// [`Package`], and sign it with the operator key (SR1). Returns the
    /// certificate to ship, the plaintext payload, and its signature.
    fn sign(
        &self,
        program: &Program,
        hash_param: u32,
        sequence: u64,
    ) -> Result<(Certificate, Vec<u8>, Vec<u8>), SdmmonError> {
        let certificate = self
            .certificate
            .clone()
            .ok_or(SdmmonError::MissingCertificate)?;
        let hash = MerkleTreeHash::with_compression(hash_param, self.compression);
        let graph = MonitoringGraph::extract(program, &hash)
            .map_err(|e| SdmmonError::Graph(e.to_string()))?;
        let payload = Package {
            binary: program.to_bytes(),
            base: program.base,
            graph: graph.to_bytes(),
            hash_param,
            compression: self.compression,
            sequence,
        }
        .to_bytes();
        let signature = self.keys.private.sign(&payload);
        Ok((certificate, payload, signature))
    }
}

/// Splits `payload` into fixed-size segments and CBC-encrypts each under a
/// deterministic plaintext-derived IV (SIV-style):
/// `IV = HMAC-SHA256(sym_key, segment)[..16]`.
///
/// Determinism is the point — same key, same plaintext section, same
/// ciphertext — which is what lets a delta download skip unchanged sections
/// of a successor update. The tradeoff is the standard encrypted-dedup one:
/// an observer learns *which* sections changed between versions (never
/// their contents); rotating the package key restores full unlinkability at
/// the price of a full download. See docs/RESILIENCE.md.
fn encrypt_segments(
    sym_key: &[u8; SYM_KEY_BYTES],
    payload: &[u8],
) -> Result<Vec<Vec<u8>>, SdmmonError> {
    let aes = Aes::new(sym_key)?;
    Ok(payload
        .chunks(SEGMENT_BYTES)
        .map(|seg| {
            let tag = hmac_sha256(sym_key, seg);
            let iv: [u8; 16] = tag[..16].try_into().expect("16 bytes");
            aes.encrypt_cbc_with_iv(seg, iv)
        })
        .collect())
}

/// One fleet-wide update: the package payload extracted, signed, and
/// section-encrypted **once**, with only the per-router key-wrap left to
/// do. Produced by [`NetworkOperator::prepare_fleet_update`]; rendered
/// per router as a [`BundleV2`] (or a v1 [`InstallationBundle`] for the
/// differential path).
#[derive(Debug, Clone)]
pub struct FleetUpdate {
    certificate: Certificate,
    /// Plaintext package payload — operator-side only, never transported.
    payload: Vec<u8>,
    signature: Vec<u8>,
    sym_key: [u8; SYM_KEY_BYTES],
    cipher_sections: Vec<Vec<u8>>,
    sequence: u64,
    hash_param: u32,
}

impl FleetUpdate {
    /// The anti-replay sequence number this update carries.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// The fleet-wide hash parameter of this update (SR2 note on
    /// [`NetworkOperator::prepare_fleet_update`]).
    pub fn hash_param(&self) -> u32 {
        self.hash_param
    }

    /// The operator's certificate embedded in every rendering.
    pub fn certificate(&self) -> &Certificate {
        &self.certificate
    }

    /// Plaintext package payload size in bytes.
    pub fn package_bytes(&self) -> usize {
        self.payload.len()
    }

    /// The encrypted payload sections, in order.
    pub fn cipher_sections(&self) -> &[Vec<u8>] {
        &self.cipher_sections
    }

    /// The sections every router shares: `cert`, `sig`, then each `ciph`
    /// segment — everything except the per-router `key`.
    pub fn shared_sections(&self) -> Vec<Section> {
        let mut out = Vec::with_capacity(2 + self.cipher_sections.len());
        out.push(Section::new(
            SectionTag::Certificate,
            self.certificate.to_bytes(),
        ));
        out.push(Section::new(SectionTag::Signature, self.signature.clone()));
        for seg in &self.cipher_sections {
            out.push(Section::new(SectionTag::Ciphertext, seg.clone()));
        }
        out
    }

    /// Serializes the shared sections as one TLV document — what the
    /// operator publishes once and relays cache.
    pub fn shared_document(&self) -> Vec<u8> {
        TlvBundle::new(self.shared_sections()).to_bytes()
    }

    /// Serializes one router's wrapped key as a single-section TLV
    /// document — the only per-router bytes on the wire.
    pub fn key_document(wrapped_key: Vec<u8>) -> Vec<u8> {
        TlvBundle::new(vec![Section::new(SectionTag::WrappedKey, wrapped_key)]).to_bytes()
    }

    /// Wraps the package key for one router (SR4).
    ///
    /// # Errors
    ///
    /// Propagates RSA failures (e.g. a modulus too small for the key).
    pub fn wrap_key_for<R: RngCore + ?Sized>(
        &self,
        router_key: &RsaPublicKey,
        rng: &mut R,
    ) -> Result<Vec<u8>, SdmmonError> {
        sdmmon_obs::metrics().inc(sdmmon_obs::Counter::FleetKeyWraps);
        Ok(router_key.encrypt(&self.sym_key, rng)?)
    }

    /// Wraps the package key for a whole fleet in one batched pass —
    /// byte-identical to calling [`FleetUpdate::wrap_key_for`] per router
    /// with the same rng, but amortizing Montgomery context setup across
    /// routers that share pool keys (see [`wrap_key_batch`]).
    ///
    /// # Errors
    ///
    /// Propagates RSA failures; a failed batch consumes no randomness.
    pub fn wrap_keys<R: RngCore + ?Sized>(
        &self,
        recipients: &[&RsaPublicKey],
        rng: &mut R,
    ) -> Result<Vec<Vec<u8>>, SdmmonError> {
        sdmmon_obs::metrics().add(sdmmon_obs::Counter::FleetKeyWraps, recipients.len() as u64);
        Ok(wrap_key_batch(&self.sym_key, recipients, rng)?)
    }

    /// Renders the complete v2 bundle for one router.
    ///
    /// # Errors
    ///
    /// Propagates RSA failures from the key-wrap.
    pub fn bundle_v2_for<R: RngCore + ?Sized>(
        &self,
        router_key: &RsaPublicKey,
        rng: &mut R,
    ) -> Result<BundleV2, SdmmonError> {
        Ok(BundleV2 {
            certificate: self.certificate.clone(),
            signature: self.signature.clone(),
            wrapped_key: self.wrap_key_for(router_key, rng)?,
            cipher_sections: self.cipher_sections.clone(),
        })
    }

    /// Renders this update as a v1 [`InstallationBundle`] for one router:
    /// the same payload, signature, and certificate, with the payload
    /// re-encrypted as one random-IV CBC blob. This is the differential
    /// anchor — a router installing either rendering must end up in a
    /// byte-identical state.
    ///
    /// # Errors
    ///
    /// Propagates RSA failures from the key-wrap.
    pub fn bundle_v1_for<R: RngCore + ?Sized>(
        &self,
        router_key: &RsaPublicKey,
        rng: &mut R,
    ) -> Result<InstallationBundle, SdmmonError> {
        let aes = Aes::new(&self.sym_key)?;
        let ciphertext = aes.encrypt_cbc(&self.payload, rng);
        Ok(InstallationBundle {
            ciphertext,
            wrapped_key: self.wrap_key_for(router_key, rng)?,
            signature: self.signature.clone(),
            certificate: self.certificate.clone(),
        })
    }
}

/// What a router remembers about an application installed on one core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstalledApp {
    /// The secret hash parameter in use on this core.
    pub hash_param: u32,
    /// Binary size in bytes.
    pub binary_bytes: usize,
    /// Serialized monitoring-graph size in bytes.
    pub graph_bytes: usize,
}

/// Timing breakdown of one installation, from the control-processor model.
#[derive(Debug, Clone, PartialEq)]
pub struct InstallTiming {
    /// Certificate check (once per operator, cacheable).
    pub check_certificate: Duration,
    /// RSA unwrap of the AES key.
    pub unwrap_key: Duration,
    /// AES decryption of the package.
    pub decrypt_package: Duration,
    /// Signature verification over the payload.
    pub verify_signature: Duration,
}

impl InstallTiming {
    /// Total modelled control-processor time (excluding download).
    pub fn total(&self) -> Duration {
        self.check_certificate + self.unwrap_key + self.decrypt_package + self.verify_signature
    }
}

/// Report returned by a successful installation.
#[derive(Debug, Clone, PartialEq)]
pub struct InstallReport {
    /// Cores that were (re)programmed.
    pub cores: Vec<usize>,
    /// Size of the encrypted transport bundle.
    pub bundle_bytes: usize,
    /// Size of the plaintext package payload.
    pub package_bytes: usize,
    /// Modelled Nios II timing of the security steps.
    pub timing: InstallTiming,
}

/// A deployed router: device key pair, manufacturer root of trust, and a
/// multicore NP whose cores run monitored workloads.
#[derive(Debug)]
pub struct RouterDevice {
    name: String,
    keys: RsaKeyPair,
    manufacturer_key: RsaPublicKey,
    np: NetworkProcessor,
    installed: Vec<Option<InstalledApp>>,
    /// Highest package sequence accepted so far (anti-replay extension).
    last_sequence: u64,
}

impl RouterDevice {
    /// The router's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The router's public key (targets for [`NetworkOperator::prepare_package`]).
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.keys.public
    }

    /// The router's network processor, read-only: core health, flow
    /// dispatch ([`NetworkProcessor::core_for`]), lockdown and statistics.
    /// Packets enter through [`RouterDevice::process`],
    /// [`RouterDevice::process_on`] and [`RouterDevice::process_batch`],
    /// which execute the supervisor's zeroize orders; no mutable accessor
    /// exists that could dispatch around them.
    pub fn np(&self) -> &NetworkProcessor {
        &self.np
    }

    /// Installation record for a core, if programmed.
    pub fn installed(&self, core: usize) -> Option<&InstalledApp> {
        self.installed[core].as_ref()
    }

    /// The full secure-installation sequence of the paper's control
    /// processor: certificate check → AES-key unwrap → package decrypt →
    /// signature verify → program cores and monitors.
    ///
    /// # Errors
    ///
    /// Each verification failure maps to the security requirement it
    /// enforces — see [`SdmmonError`]. Nothing is installed on any error.
    pub fn install_bundle(
        &mut self,
        bundle: &InstallationBundle,
        cores: &[usize],
    ) -> Result<InstallReport, SdmmonError> {
        self.install(
            &bundle.certificate,
            &bundle.wrapped_key,
            std::slice::from_ref(&bundle.ciphertext),
            &bundle.signature,
            cores,
            bundle.transport_size(),
        )
    }

    /// [`RouterDevice::install_bundle`] for a wire-format-v2 bundle: the
    /// same check ladder with the shared-package envelope, whose payload
    /// arrives as independently encrypted sections.
    ///
    /// # Errors
    ///
    /// Identical error mapping to [`RouterDevice::install_bundle`]; nothing
    /// is installed on any error.
    pub fn install_bundle_v2(
        &mut self,
        bundle: &BundleV2,
        cores: &[usize],
    ) -> Result<InstallReport, SdmmonError> {
        self.install(
            &bundle.certificate,
            &bundle.wrapped_key,
            &bundle.cipher_sections,
            &bundle.signature,
            cores,
            bundle.transport_size(),
        )
    }

    /// The SR1–SR4 check ladder behind both envelopes. A v1 bundle's single
    /// ciphertext is a one-section list; v2 sections decrypt independently
    /// and concatenate to the payload. Every check precedes the programming
    /// loop, so an install either programs all requested cores or touches
    /// none.
    fn install(
        &mut self,
        certificate: &Certificate,
        wrapped_key: &[u8],
        cipher_sections: &[Vec<u8>],
        signature: &[u8],
        cores: &[usize],
        transport_bytes: usize,
    ) -> Result<InstallReport, SdmmonError> {
        if let Some(&bad) = cores.iter().find(|&&c| c >= self.installed.len()) {
            return Err(SdmmonError::NoSuchCore {
                core: bad,
                cores: self.installed.len(),
            });
        }
        // SR1 (chain of trust): the certificate must be manufacturer-signed.
        if !certificate.verify(&self.manufacturer_key) {
            return Err(SdmmonError::CertificateInvalid);
        }
        let operator_key = certificate
            .subject_key()
            .map_err(|_| SdmmonError::CertificateInvalid)?;

        // SR4: only this router's private key can unwrap the AES key.
        let sym_key = self
            .keys
            .private
            .decrypt(wrapped_key)
            .map_err(|_| SdmmonError::WrongDevice)?;

        // SR3: decrypt the confidential payload; any damaged section fails
        // the whole install.
        let aes = Aes::new(&sym_key).map_err(|_| SdmmonError::DecryptionFailed)?;
        let mut payload = Vec::new();
        for section in cipher_sections {
            payload.extend_from_slice(
                &aes.decrypt_cbc(section)
                    .map_err(|_| SdmmonError::DecryptionFailed)?,
            );
        }

        // SR1: the payload must carry a valid operator signature.
        if !operator_key.verify(&payload, signature) {
            return Err(SdmmonError::SignatureInvalid);
        }

        let package = Package::from_bytes(&payload)
            .map_err(|e| SdmmonError::MalformedPackage(e.to_string()))?;
        // Anti-replay (reproduction extension): reject packages that do not
        // advance the device's sequence high-water mark — otherwise a
        // recorded old package (say, a binary later found vulnerable) could
        // be re-fed to the device and would verify perfectly.
        if package.sequence <= self.last_sequence {
            return Err(SdmmonError::ReplayedPackage {
                got: package.sequence,
                latest: self.last_sequence,
            });
        }
        let graph = MonitoringGraph::from_bytes(&package.graph)
            .map_err(|e| SdmmonError::MalformedPackage(e.to_string()))?;

        // Program the requested cores: binary + monitor(graph, param). The
        // monitor is compiled once; the other cores get copies.
        let hash = MerkleTreeHash::with_compression(package.hash_param, package.compression);
        let monitors = vec![HardwareMonitor::new(graph, hash); cores.len()];
        for (&core, monitor) in cores.iter().zip(monitors) {
            self.np
                .install(core, &package.binary, package.base, Box::new(monitor));
            self.installed[core] = Some(InstalledApp {
                hash_param: package.hash_param,
                binary_bytes: package.binary.len(),
                graph_bytes: package.graph.len(),
            });
        }

        self.last_sequence = package.sequence;
        let m = NiosCycleModel::paper();
        let modulus_bits = self.keys.public.modulus_bits();
        let timing = InstallTiming {
            check_certificate: m.check_certificate(modulus_bits, certificate.to_bytes().len()),
            unwrap_key: m.rsa_private_op(modulus_bits),
            decrypt_package: m.aes_cbc(cipher_sections.iter().map(Vec::len).sum()),
            verify_signature: m.verify_signature(modulus_bits, payload.len()),
        };
        Ok(InstallReport {
            cores: cores.to_vec(),
            bundle_bytes: transport_bytes,
            package_bytes: payload.len(),
            timing,
        })
    }

    /// Processes a data-plane packet on the next round-robin core.
    ///
    /// # Panics
    ///
    /// Panics if the selected core has no installed program.
    pub fn process(&mut self, packet: &[u8]) -> (usize, PacketOutcome) {
        self.dispatch(|np| np.process(packet))
    }

    /// Processes a packet on a specific core.
    pub fn process_on(&mut self, core: usize, packet: &[u8]) -> PacketOutcome {
        self.dispatch(|np| np.process_on(core, packet))
    }

    /// Processes a batch on the NP's sharded engine.
    pub fn process_batch(&mut self, packets: &[Vec<u8>]) -> Vec<(usize, PacketOutcome)> {
        self.dispatch(|np| np.process_batch(packets))
    }

    /// The one post-dispatch step of every packet path: `run` dispatches
    /// on the NP, then any zeroize orders the graded supervisor issued
    /// meanwhile are executed. A zeroized core's installation record —
    /// including its wrapped secret hash parameter — is destroyed and the
    /// core decommissioned (fresh blank core, quarantined out of dispatch)
    /// until an operator installs a new bundle on it.
    fn dispatch<T>(&mut self, run: impl FnOnce(&mut NetworkProcessor) -> T) -> T {
        let outcome = run(&mut self.np);
        for core in self.np.take_zeroize_orders() {
            self.installed[core] = None;
            self.np.decommission(core);
        }
        outcome
    }

    /// Mutable access to one NP core — the hook the fault-injection
    /// harness uses to flip bits in a live core's instruction memory.
    pub fn core_mut(&mut self, core: usize) -> &mut sdmmon_npu::core::Core {
        self.np.core_mut(core)
    }

    /// Forces a mid-run recovery reset of one core (fault-injection /
    /// operator-commanded recovery; counted as a recovery cycle).
    pub fn reset_core(&mut self, core: usize) {
        self.np.reset_core(core)
    }

    /// Replaces the NP's supervisor policy (escalating recovery — see
    /// `sdmmon_npu::supervisor`). Routers come up with the paper's
    /// reset-only recovery; the resilient deployment path enables the
    /// ladder.
    pub fn set_supervisor_policy(&mut self, policy: sdmmon_npu::supervisor::SupervisorPolicy) {
        self.np.set_policy(policy);
    }

    /// Quarantines a core by operator decree (reversed by installing a
    /// bundle on it).
    pub fn quarantine_core(&mut self, core: usize) {
        self.np.quarantine_core(core);
    }

    /// Attaches (or detaches) a deterministic event bus to the NP — the
    /// `supervisor.*` / `np.batch` stream the frontier harness consumes.
    pub fn set_event_bus(&mut self, bus: Option<std::sync::Arc<sdmmon_obs::EventBus>>) {
        self.np.set_event_bus(bus);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdmmon_npu::programs::{self, testing};
    use sdmmon_npu::runtime::{HaltReason, Verdict};
    use sdmmon_npu::supervisor::{AdaptiveConfig, SupervisorPolicy};
    use sdmmon_rng::SeedableRng;

    const KEY_BITS: usize = 512; // small keys for fast tests; protocol is size-agnostic

    struct World {
        manufacturer: Manufacturer,
        operator: NetworkOperator,
        router: RouterDevice,
        rng: sdmmon_rng::StdRng,
    }

    fn world(seed: u64) -> World {
        let mut rng = sdmmon_rng::StdRng::seed_from_u64(seed);
        let manufacturer = Manufacturer::new("acme", KEY_BITS, &mut rng).unwrap();
        let mut operator = NetworkOperator::new("op-1", KEY_BITS, &mut rng).unwrap();
        operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op-1"));
        let router = manufacturer
            .provision_router("r-1", 2, KEY_BITS, &mut rng)
            .unwrap();
        World {
            manufacturer,
            operator,
            router,
            rng,
        }
    }

    #[test]
    fn end_to_end_install_and_forward() {
        let mut w = world(1);
        let program = programs::ipv4_forward().unwrap();
        let bundle = w
            .operator
            .prepare_package(&program, w.router.public_key(), &mut w.rng)
            .unwrap();
        let report = w.router.install_bundle(&bundle, &[0, 1]).unwrap();
        assert_eq!(report.cores, vec![0, 1]);
        assert!(report.package_bytes > program.to_bytes().len());
        assert!(
            report.bundle_bytes > report.package_bytes,
            "envelope adds overhead"
        );
        let app = w.router.installed(0).unwrap().clone();
        assert_eq!(w.router.installed(1), Some(&app));

        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 3], 64, b"p");
        let (_, out) = w.router.process(&packet);
        assert_eq!(out.verdict, Verdict::Forward(3));
        assert_eq!(out.halt, HaltReason::Completed);
    }

    #[test]
    fn operator_without_certificate_cannot_package() {
        let mut rng = sdmmon_rng::StdRng::seed_from_u64(2);
        let operator = NetworkOperator::new("op", KEY_BITS, &mut rng).unwrap();
        let manufacturer = Manufacturer::new("m", KEY_BITS, &mut rng).unwrap();
        let router = manufacturer
            .provision_router("r", 1, KEY_BITS, &mut rng)
            .unwrap();
        let program = programs::ipv4_forward().unwrap();
        assert_eq!(
            operator
                .prepare_package(&program, router.public_key(), &mut rng)
                .unwrap_err(),
            SdmmonError::MissingCertificate
        );
    }

    #[test]
    fn sr1_uncertified_operator_rejected() {
        // An attacker with their own key pair and a self-made certificate
        // cannot get a package accepted.
        let mut w = world(3);
        let mut rng = sdmmon_rng::StdRng::seed_from_u64(99);
        let attacker_keys = RsaKeyPair::generate(KEY_BITS, &mut rng).unwrap();
        let mut attacker = NetworkOperator::new("evil", KEY_BITS, &mut rng).unwrap();
        // Self-signed "certificate": signed by the attacker, not the
        // manufacturer.
        attacker.accept_certificate(Certificate::issue(
            "evil",
            attacker.public_key(),
            &attacker_keys.private,
        ));
        let program = programs::ipv4_forward().unwrap();
        let bundle = attacker
            .prepare_package(&program, w.router.public_key(), &mut rng)
            .unwrap();
        assert_eq!(
            w.router.install_bundle(&bundle, &[0]).unwrap_err(),
            SdmmonError::CertificateInvalid
        );
    }

    #[test]
    fn sr1_tampered_payload_rejected() {
        let mut w = world(4);
        let program = programs::ipv4_forward().unwrap();
        let mut bundle = w
            .operator
            .prepare_package(&program, w.router.public_key(), &mut w.rng)
            .unwrap();
        // Flip a ciphertext bit: decryption either fails padding or yields
        // a payload whose signature no longer verifies.
        let mid = bundle.ciphertext.len() / 2;
        bundle.ciphertext[mid] ^= 0x01;
        let err = w.router.install_bundle(&bundle, &[0]).unwrap_err();
        assert!(
            matches!(
                err,
                SdmmonError::DecryptionFailed
                    | SdmmonError::SignatureInvalid
                    | SdmmonError::MalformedPackage(_)
            ),
            "{err}"
        );
        assert!(
            w.router.installed(0).is_none(),
            "nothing installed on failure"
        );
    }

    #[test]
    fn sr4_bundle_for_other_router_rejected() {
        let mut w = world(5);
        let other = w
            .manufacturer
            .provision_router("r-2", 1, KEY_BITS, &mut w.rng)
            .unwrap();
        let program = programs::ipv4_forward().unwrap();
        // Package built for the *other* router's key...
        let bundle = w
            .operator
            .prepare_package(&program, other.public_key(), &mut w.rng)
            .unwrap();
        // ...replayed to our router.
        assert_eq!(
            w.router.install_bundle(&bundle, &[0]).unwrap_err(),
            SdmmonError::WrongDevice
        );
    }

    #[test]
    fn sr2_fresh_parameter_per_package() {
        let mut w = world(6);
        let program = programs::ipv4_forward().unwrap();
        let b1 = w
            .operator
            .prepare_package(&program, w.router.public_key(), &mut w.rng)
            .unwrap();
        let b2 = w
            .operator
            .prepare_package(&program, w.router.public_key(), &mut w.rng)
            .unwrap();
        w.router.install_bundle(&b1, &[0]).unwrap();
        let p1 = w.router.installed(0).unwrap().hash_param;
        w.router.install_bundle(&b2, &[0]).unwrap();
        let p2 = w.router.installed(0).unwrap().hash_param;
        assert_ne!(p1, p2, "every package draws a fresh parameter");
    }

    #[test]
    fn sr3_bundle_is_confidential() {
        // The transported bundle must not contain the plaintext binary,
        // graph, or parameter.
        let mut w = world(7);
        let program = programs::ipv4_forward().unwrap();
        let bundle = w
            .operator
            .prepare_package(&program, w.router.public_key(), &mut w.rng)
            .unwrap();
        let transport = bundle.to_bytes();
        let binary = program.to_bytes();
        assert!(
            !contains_subslice(&transport, &binary[..16.min(binary.len())]),
            "binary prefix leaked in transport bytes"
        );
    }

    fn contains_subslice(haystack: &[u8], needle: &[u8]) -> bool {
        haystack.windows(needle.len()).any(|w| w == needle)
    }

    #[test]
    fn dynamic_reprogramming_switches_workloads() {
        // The "Dynamics" requirement: reprogram a core at runtime.
        let mut w = world(8);
        let fwd = programs::ipv4_forward().unwrap();
        let cm = programs::ipv4_cm().unwrap();
        let b1 = w
            .operator
            .prepare_package(&fwd, w.router.public_key(), &mut w.rng)
            .unwrap();
        w.router.install_bundle(&b1, &[0, 1]).unwrap();
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"");
        assert_eq!(w.router.process_on(0, &packet).verdict, Verdict::Forward(2));

        let b2 = w
            .operator
            .prepare_package(&cm, w.router.public_key(), &mut w.rng)
            .unwrap();
        w.router.install_bundle(&b2, &[0]).unwrap();
        assert_eq!(w.router.process_on(0, &packet).verdict, Verdict::Forward(2));
        assert!(
            w.router.installed(0).unwrap().binary_bytes
                != w.router.installed(1).unwrap().binary_bytes,
            "core 0 now runs the CM binary, core 1 the old one"
        );
    }

    #[test]
    fn attack_detected_after_secure_install() {
        // Full stack: securely installed vulnerable binary + monitor still
        // detects the data-plane attack and recovers.
        let mut w = world(9);
        let program = programs::vulnerable_forward().unwrap();
        let bundle = w
            .operator
            .prepare_package(&program, w.router.public_key(), &mut w.rng)
            .unwrap();
        w.router.install_bundle(&bundle, &[0, 1]).unwrap();
        let attack =
            testing::hijack_packet("li $t4, 0x0007fff0\nli $t5, 15\nsw $t5, 0($t4)\nbreak 0")
                .unwrap();
        let out = w.router.process_on(0, &attack);
        assert_eq!(out.verdict, Verdict::Drop);
        assert_eq!(out.halt, HaltReason::MonitorViolation);
        assert_eq!(w.router.np().stats().violations, 1);
        assert_eq!(w.router.np().stats().recoveries, 1);
        // Service continues.
        let good = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"");
        assert_eq!(w.router.process_on(0, &good).verdict, Verdict::Forward(2));
    }

    #[test]
    fn every_packet_path_executes_zeroize_orders() {
        // Hijacks drive a graded router's threat to Critical, which orders
        // the core's key zeroized. Whichever entry point carried them, the
        // router must destroy that core's installation record (its secret
        // hash parameter) and decommission the core. Zeroizing at the
        // quarantine score keeps round-robin `process` on the core long
        // enough to get there.
        type Entry = fn(&mut RouterDevice, &[u8]);
        let entries: [(&str, Entry); 3] = [
            ("process", |r, p| {
                r.process(p);
            }),
            ("process_on", |r, p| {
                r.process_on(0, p);
            }),
            ("process_batch", |r, p| {
                r.process_batch(&[p.to_vec()]);
            }),
        ];
        let adaptive = AdaptiveConfig::default();
        let policy = SupervisorPolicy::graded(AdaptiveConfig {
            critical: adaptive.high,
            ..adaptive
        });
        let attack = testing::hijack_packet("break 1").unwrap();
        for (name, entry) in entries {
            let mut w = world(5);
            let program = programs::vulnerable_forward().unwrap();
            let bundle = w
                .operator
                .prepare_package(&program, w.router.public_key(), &mut w.rng)
                .unwrap();
            w.router.install_bundle(&bundle, &[0, 1]).unwrap();
            w.router.set_supervisor_policy(policy);
            for _ in 0..32 {
                if w.router.np().is_locked_down() {
                    break;
                }
                entry(&mut w.router, &attack);
            }
            assert!(w.router.np().is_locked_down(), "{name}: no lockdown");
            let zeroized: Vec<usize> = (0..2)
                .filter(|&c| w.router.np().core_health(c).zeroize_ordered)
                .collect();
            assert!(!zeroized.is_empty(), "{name}: no zeroize order");
            for core in zeroized {
                assert_eq!(w.router.installed(core), None, "{name}: core {core}");
                assert!(!w.router.np().core(core).is_programmed(), "{name}");
                assert!(w.router.np().is_quarantined(core), "{name}");
            }
        }
    }

    #[test]
    fn install_failure_is_atomic() {
        // Regression: a bundle that fails verification partway — here a
        // core list pointing past the device, checked after a prior good
        // install — must leave previously installed apps, monitor state,
        // and the anti-replay high-water mark untouched. No partial
        // install, full rollback semantics.
        let mut w = world(20);
        let program = programs::vulnerable_forward().unwrap();
        let good = w
            .operator
            .prepare_package(&program, w.router.public_key(), &mut w.rng)
            .unwrap();
        w.router.install_bundle(&good, &[0, 1]).unwrap();
        let before: Vec<Option<InstalledApp>> =
            (0..2).map(|c| w.router.installed(c).cloned()).collect();

        // Failure mode 1: bad core index (caught before programming).
        let next = w
            .operator
            .prepare_package(&program, w.router.public_key(), &mut w.rng)
            .unwrap();
        assert_eq!(
            w.router.install_bundle(&next, &[0, 7]).unwrap_err(),
            SdmmonError::NoSuchCore { core: 7, cores: 2 }
        );

        // Failure mode 2: tampered ciphertext (caught in verification).
        let mut tampered = w
            .operator
            .prepare_package(&program, w.router.public_key(), &mut w.rng)
            .unwrap();
        let mid = tampered.ciphertext.len() / 2;
        tampered.ciphertext[mid] ^= 0x80;
        assert!(w.router.install_bundle(&tampered, &[0, 1]).is_err());

        // Failure mode 3: replayed bundle (caught after decrypt).
        assert!(matches!(
            w.router.install_bundle(&good, &[0, 1]).unwrap_err(),
            SdmmonError::ReplayedPackage { .. }
        ));

        // The previously installed apps survive every failure unchanged...
        let after: Vec<Option<InstalledApp>> =
            (0..2).map(|c| w.router.installed(c).cloned()).collect();
        assert_eq!(
            before, after,
            "failed installs must not touch installed state"
        );
        // ...and the monitors still work: the hijack is still detected.
        let attack =
            testing::hijack_packet("li $t4, 0x0007fff0\nli $t5, 15\nsw $t5, 0($t4)\nbreak 0")
                .unwrap();
        assert_eq!(
            w.router.process_on(0, &attack).halt,
            HaltReason::MonitorViolation
        );
        // A fresh valid bundle still installs (sequence not burned by the
        // failures).
        let fresh = w
            .operator
            .prepare_package(&program, w.router.public_key(), &mut w.rng)
            .unwrap();
        w.router.install_bundle(&fresh, &[0, 1]).unwrap();
    }

    #[test]
    fn install_timing_reported() {
        let mut w = world(10);
        let program = programs::ipv4_forward().unwrap();
        let bundle = w
            .operator
            .prepare_package(&program, w.router.public_key(), &mut w.rng)
            .unwrap();
        let report = w.router.install_bundle(&bundle, &[0]).unwrap();
        // With the paper model, every step includes the ~3.2 s invocation
        // overhead; the RSA private op dominates at small payload sizes.
        let t = &report.timing;
        assert!(t.unwrap_key > t.check_certificate);
        assert!(t.total() > t.unwrap_key);
    }

    #[test]
    fn fleet_v1_and_v2_renderings_install_identically() {
        // The differential anchor: one FleetUpdate rendered as a v1
        // envelope and as a v2 TLV bundle must leave two identically
        // provisioned routers in byte-identical states.
        let mut w = world(20);
        let keys = RsaKeyPair::generate(KEY_BITS, &mut w.rng).unwrap();
        let mut r1 = w
            .manufacturer
            .provision_router_with_keys("twin", 2, keys.clone());
        let mut r2 = w.manufacturer.provision_router_with_keys("twin", 2, keys);
        let program = programs::ipv4_forward().unwrap();
        let update = w
            .operator
            .prepare_fleet_update(&program, &mut w.rng)
            .unwrap();
        let v1 = update.bundle_v1_for(r1.public_key(), &mut w.rng).unwrap();
        let v2 = update.bundle_v2_for(r2.public_key(), &mut w.rng).unwrap();
        let rep1 = r1.install_bundle(&v1, &[0, 1]).unwrap();
        let rep2 = r2.install_bundle_v2(&v2, &[0, 1]).unwrap();
        assert_eq!(rep1.package_bytes, rep2.package_bytes);
        for core in 0..2 {
            assert_eq!(r1.installed(core), r2.installed(core));
        }
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 4], 64, b"d");
        assert_eq!(r1.process_on(0, &packet), r2.process_on(0, &packet));
        assert_eq!(r1.np().stats(), r2.np().stats());
    }

    #[test]
    fn fleet_successor_changes_only_trailing_sections() {
        // A pure sequence bump re-encrypts to identical ciphertext for
        // every section except the last (the sequence lives at the end of
        // the package payload) — the delta-download foundation.
        let mut w = world(21);
        // A padded workload whose package payload spans several 4 KiB
        // sections (ipv4_forward alone fits in one).
        let mut source = String::from(
            "    li   $t4, 0x0007fff0\n    li   $t3, 2\n    sw   $t3, 0($t4)\n    break 0\npad:\n",
        );
        for i in 0..2400 {
            source.push_str(&format!("    .word {i}\n"));
        }
        let program = sdmmon_isa::asm::Assembler::new().assemble(&source).unwrap();
        let first = w
            .operator
            .prepare_fleet_update(&program, &mut w.rng)
            .unwrap();
        let second = w
            .operator
            .prepare_fleet_successor(&first, &program)
            .unwrap();
        assert!(second.sequence() > first.sequence());
        assert_eq!(first.hash_param(), second.hash_param());
        let a = first.cipher_sections();
        let b = second.cipher_sections();
        assert_eq!(a.len(), b.len());
        assert!(a.len() >= 2, "package should span multiple sections");
        assert_eq!(a[..a.len() - 1], b[..b.len() - 1], "shared prefix intact");
        assert_ne!(a.last(), b.last(), "sequence bump changes the tail");
    }

    #[test]
    fn fleet_v2_install_enforces_sr_ladder() {
        // One table over the v1 and the v2 rendering of the same fleet
        // update: each forged, foreign, tampered, replayed, or misaddressed
        // bundle must fail with the same error in both envelopes and leave
        // the installed apps and the anti-replay mark untouched.
        let program = programs::ipv4_forward().unwrap();
        let mut w = world(22);
        let other = w
            .manufacturer
            .provision_router("r-other", 1, KEY_BITS, &mut w.rng)
            .unwrap();
        let forger = RsaKeyPair::generate(KEY_BITS, &mut w.rng).unwrap();
        let forged = Certificate::issue("op-1", w.operator.public_key(), &forger.private);

        let installed = w
            .operator
            .prepare_fleet_update(&program, &mut w.rng)
            .unwrap();
        let good = installed
            .bundle_v2_for(w.router.public_key(), &mut w.rng)
            .unwrap();
        w.router.install_bundle_v2(&good, &[0, 1]).unwrap();
        let next = w
            .operator
            .prepare_fleet_update(&program, &mut w.rng)
            .unwrap();

        let mine = w.router.public_key().clone();
        let mut render = |update: &FleetUpdate, key: &RsaPublicKey| {
            (
                update.bundle_v1_for(key, &mut w.rng).unwrap(),
                update.bundle_v2_for(key, &mut w.rng).unwrap(),
            )
        };
        let mut cases = Vec::new();
        let (mut v1, mut v2) = render(&next, &mine);
        v1.certificate = forged.clone();
        v2.certificate = forged;
        cases.push((
            "forged certificate",
            v1,
            v2,
            vec![0],
            SdmmonError::CertificateInvalid,
        ));
        let (v1, v2) = render(&next, other.public_key());
        cases.push((
            "foreign key wrap",
            v1,
            v2,
            vec![0],
            SdmmonError::WrongDevice,
        ));
        // Byte 7 lies in the CBC IV: the payload decrypts with one flipped
        // byte and intact padding, so the signature check catches it.
        let (mut v1, mut v2) = render(&next, &mine);
        v1.ciphertext[7] ^= 0x40;
        v2.cipher_sections[0][7] ^= 0x40;
        cases.push((
            "tampered ciphertext",
            v1,
            v2,
            vec![0],
            SdmmonError::SignatureInvalid,
        ));
        let (mut v1, mut v2) = render(&next, &mine);
        v1.signature[0] ^= 0x01;
        v2.signature[0] ^= 0x01;
        cases.push((
            "tampered signature",
            v1,
            v2,
            vec![0],
            SdmmonError::SignatureInvalid,
        ));
        let (v1, v2) = render(&installed, &mine);
        let replayed = SdmmonError::ReplayedPackage {
            got: installed.sequence(),
            latest: installed.sequence(),
        };
        cases.push(("replayed sequence", v1, v2, vec![0], replayed));
        let (v1, v2) = render(&next, &mine);
        let no_core = SdmmonError::NoSuchCore { core: 7, cores: 2 };
        cases.push(("core index out of range", v1, v2, vec![0, 7], no_core));

        let state = |r: &RouterDevice| (r.installed.clone(), r.last_sequence);
        let before = state(&w.router);
        for (name, v1, v2, cores, want) in &cases {
            let e1 = w.router.install_bundle(v1, cores).unwrap_err();
            assert_eq!(state(&w.router), before, "{name}: v1 touched state");
            let e2 = w.router.install_bundle_v2(v2, cores).unwrap_err();
            assert_eq!(state(&w.router), before, "{name}: v2 touched state");
            assert_eq!((&e1, &e2), (want, want), "{name}");
        }
        // The failures burned nothing: the next update still installs.
        let (_, v2) = render(&next, &mine);
        w.router.install_bundle_v2(&v2, &[0, 1]).unwrap();
        assert_eq!(w.router.last_sequence, next.sequence());
    }
}
