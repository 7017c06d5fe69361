//! Wire-format v2: the TLV installation bundle with per-section checksums.
//!
//! The v1 [`InstallationBundle`](crate::package::InstallationBundle) is one
//! opaque blob — a single flipped bit re-fetches the whole file, and two
//! consecutive fleet updates share no transport bytes even when only the
//! sequence number changed. Wire-format v2 restructures the same four
//! logical fields into a self-describing TLV document:
//!
//! ```text
//! offset 0   magic        "SDB2"                      (4 bytes)
//!        4   version      0x02                        (1 byte)
//!        5   count        number of sections          (u32 BE)
//!        9   table sum    FNV-1a 64 over the table    (u64 BE)
//!       17   table        count x { tag u8, len u32 BE, checksum u64 BE }
//!       ...  payloads     section bytes, concatenated in table order
//! ```
//!
//! Every section carries its own FNV-1a transport checksum in the table, so
//! a reader that already holds the 17-byte header plus table can fetch each
//! section independently (`DownloadClient::download_range`), verify it in
//! isolation, and re-fetch *only* a damaged section. That is the same retry
//! loop a v1 whole-file `DownloadClient::download` runs after its probe;
//! v2 only narrows the range it verifies. The same checksums key
//! the delta path: a cache of `(tag, checksum) -> bytes` lets a fleet
//! upgrade skip every section whose table entry is unchanged since the
//! installed version.
//!
//! Section tags:
//!
//! | tag | name | contents |
//! |-----|------|----------|
//! | 1 | `cert` | the operator's manufacturer-issued certificate |
//! | 2 | `sig`  | operator signature over the plaintext payload (SR1) |
//! | 3 | `key`  | the AES package key, RSA-wrapped to one router (SR4) |
//! | 4 | `ciph` | one encrypted payload segment (IV-prefixed CBC, SR3) |
//!
//! `cert`, `sig`, and `ciph` are identical for every router in a fleet
//! update — only `key` is per-router. The hierarchical distribution layer
//! ([`crate::distrib`]) therefore publishes one shared document holding
//! `cert`/`sig`/`ciph` and one tiny per-router `key` document.
//!
//! v1 and v2 reject each other automatically: v2 opens with the `SDB2`
//! magic where v1 expects a `u32` length prefix (0x53444232 ≈ 1.4 GB, an
//! immediate truncation error), and v1 bytes fail the v2 magic check.

use crate::cert::Certificate;
use crate::wire::WireError;
use sdmmon_net::resilience::transport_checksum;

/// The four magic bytes opening every v2 document.
pub const BUNDLE_V2_MAGIC: [u8; 4] = *b"SDB2";
/// Format version carried after the magic.
pub const BUNDLE_V2_VERSION: u8 = 2;
/// Fixed header length: magic + version + count + table checksum.
pub const HEADER_LEN: usize = 4 + 1 + 4 + 8;
/// Bytes per section-table entry: tag + length + checksum.
pub const TABLE_ENTRY_LEN: usize = 1 + 4 + 8;
/// Upper bound on sections per document (sanity cap for hostile headers).
pub const MAX_SECTIONS: usize = 65_536;
/// Plaintext segment size the package payload is sliced into before
/// per-section encryption (each segment becomes one `ciph` section).
pub const SEGMENT_BYTES: usize = 4096;

/// Section type tags of wire-format v2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SectionTag {
    /// The operator's manufacturer-issued certificate.
    Certificate = 1,
    /// Operator signature over the plaintext payload (SR1).
    Signature = 2,
    /// The AES package key, RSA-wrapped to one router (SR4).
    WrappedKey = 3,
    /// One encrypted payload segment (IV-prefixed CBC, SR3).
    Ciphertext = 4,
}

impl SectionTag {
    /// Decodes a wire tag byte.
    pub fn from_id(id: u8) -> Option<SectionTag> {
        match id {
            1 => Some(SectionTag::Certificate),
            2 => Some(SectionTag::Signature),
            3 => Some(SectionTag::WrappedKey),
            4 => Some(SectionTag::Ciphertext),
            _ => None,
        }
    }

    /// The wire tag byte.
    pub fn id(self) -> u8 {
        self as u8
    }

    /// Short lowercase name used in events and error messages.
    pub fn name(self) -> &'static str {
        match self {
            SectionTag::Certificate => "cert",
            SectionTag::Signature => "sig",
            SectionTag::WrappedKey => "key",
            SectionTag::Ciphertext => "ciph",
        }
    }
}

/// One tagged section: the unit of fetch, verify, and cache reuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// What the bytes are.
    pub tag: SectionTag,
    /// The section payload.
    pub bytes: Vec<u8>,
}

impl Section {
    /// Creates a section.
    pub fn new(tag: SectionTag, bytes: Vec<u8>) -> Section {
        Section { tag, bytes }
    }

    /// The section's FNV-1a transport checksum (what the table carries).
    pub fn checksum(&self) -> u64 {
        transport_checksum(&self.bytes)
    }
}

/// A parsed section-table entry, with the payload offset resolved against
/// the document layout. This is all a delta-capable fetcher needs to decide
/// whether a cached copy is still current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// The section's type tag.
    pub tag: SectionTag,
    /// Absolute byte offset of the payload within the document.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// FNV-1a transport checksum of the payload.
    pub checksum: u64,
}

/// An ordered TLV document: the transport container of wire-format v2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlvBundle {
    /// Sections in table (= payload) order.
    pub sections: Vec<Section>,
}

impl TlvBundle {
    /// Wraps sections into a document.
    pub fn new(sections: Vec<Section>) -> TlvBundle {
        TlvBundle { sections }
    }

    /// Byte offset where payloads start for a `count`-section document.
    pub fn payload_offset(count: usize) -> usize {
        HEADER_LEN + count * TABLE_ENTRY_LEN
    }

    /// The raw section-table bytes (everything between header and payloads).
    fn table_bytes(&self) -> Vec<u8> {
        let mut table = Vec::with_capacity(self.sections.len() * TABLE_ENTRY_LEN);
        for s in &self.sections {
            table.push(s.tag.id());
            table.extend_from_slice(&(s.bytes.len() as u32).to_be_bytes());
            table.extend_from_slice(&s.checksum().to_be_bytes());
        }
        table
    }

    /// Serializes the document: header, checksummed table, payloads.
    pub fn to_bytes(&self) -> Vec<u8> {
        let table = self.table_bytes();
        let payload: usize = self.sections.iter().map(|s| s.bytes.len()).sum();
        let mut out = Vec::with_capacity(HEADER_LEN + table.len() + payload);
        out.extend_from_slice(&BUNDLE_V2_MAGIC);
        out.push(BUNDLE_V2_VERSION);
        out.extend_from_slice(&(self.sections.len() as u32).to_be_bytes());
        out.extend_from_slice(&transport_checksum(&table).to_be_bytes());
        out.extend_from_slice(&table);
        for s in &self.sections {
            out.extend_from_slice(&s.bytes);
        }
        out
    }

    /// Validates the fixed header and returns the section count.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, wrong magic (including any v1
    /// bundle), wrong version, or an implausible section count.
    pub fn parse_header(bytes: &[u8]) -> Result<usize, WireError> {
        if bytes.len() < HEADER_LEN {
            return Err(WireError::new(format!(
                "v2 header needs {HEADER_LEN} bytes, got {}",
                bytes.len()
            )));
        }
        if bytes[0..4] != BUNDLE_V2_MAGIC {
            return Err(WireError::new("not a wire-format-v2 document (bad magic)"));
        }
        if bytes[4] != BUNDLE_V2_VERSION {
            return Err(WireError::new(format!(
                "unsupported wire-format version {}",
                bytes[4]
            )));
        }
        let count = u32::from_be_bytes(bytes[5..9].try_into().expect("4 bytes")) as usize;
        if count == 0 || count > MAX_SECTIONS {
            return Err(WireError::new(format!("implausible section count {count}")));
        }
        Ok(count)
    }

    /// Parses and verifies the section table from a prefix holding at least
    /// header + table bytes, resolving each entry's payload offset.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on a bad header, a truncated table, a table
    /// checksum mismatch (the header's own integrity guard), an unknown
    /// tag, or a total length overflowing `u32`.
    pub fn parse_table(bytes: &[u8]) -> Result<Vec<SectionEntry>, WireError> {
        let count = TlvBundle::parse_header(bytes)?;
        let table_end = TlvBundle::payload_offset(count);
        if bytes.len() < table_end {
            return Err(WireError::new(format!(
                "section table needs {table_end} bytes, got {}",
                bytes.len()
            )));
        }
        let want = u64::from_be_bytes(bytes[9..17].try_into().expect("8 bytes"));
        let table = &bytes[HEADER_LEN..table_end];
        if transport_checksum(table) != want {
            return Err(WireError::new("section-table checksum mismatch"));
        }
        let mut entries = Vec::with_capacity(count);
        let mut offset = table_end;
        for i in 0..count {
            let e = &table[i * TABLE_ENTRY_LEN..(i + 1) * TABLE_ENTRY_LEN];
            let tag = SectionTag::from_id(e[0])
                .ok_or_else(|| WireError::new(format!("unknown section tag {}", e[0])))?;
            let len = u32::from_be_bytes(e[1..5].try_into().expect("4 bytes")) as usize;
            let checksum = u64::from_be_bytes(e[5..13].try_into().expect("8 bytes"));
            entries.push(SectionEntry {
                tag,
                offset,
                len,
                checksum,
            });
            offset = offset
                .checked_add(len)
                .ok_or_else(|| WireError::new("section lengths overflow"))?;
        }
        Ok(entries)
    }

    /// Parses a complete document, verifying every per-section checksum and
    /// rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any structural fault or checksum mismatch;
    /// the message names the first damaged section.
    pub fn from_bytes(bytes: &[u8]) -> Result<TlvBundle, WireError> {
        let entries = TlvBundle::parse_table(bytes)?;
        let end = entries.last().map_or(HEADER_LEN, |e| e.offset + e.len);
        if bytes.len() != end {
            return Err(WireError::new(format!(
                "document is {} bytes, table describes {end}",
                bytes.len()
            )));
        }
        let mut sections = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            let payload = &bytes[e.offset..e.offset + e.len];
            if transport_checksum(payload) != e.checksum {
                return Err(WireError::new(format!(
                    "checksum mismatch in section {i} ({})",
                    e.tag.name()
                )));
            }
            sections.push(Section::new(e.tag, payload.to_vec()));
        }
        Ok(TlvBundle { sections })
    }
}

/// The v2 installation bundle: the same four logical fields as v1, carried
/// as TLV sections with the ciphertext split into independently-verifiable
/// segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleV2 {
    /// The operator's manufacturer-issued certificate.
    pub certificate: Certificate,
    /// Operator signature over the *plaintext* payload (SR1).
    pub signature: Vec<u8>,
    /// The AES key, RSA-encrypted to the target router (SR4).
    pub wrapped_key: Vec<u8>,
    /// IV-prefixed CBC ciphertext of each payload segment, in order (SR3).
    pub cipher_sections: Vec<Vec<u8>>,
}

impl BundleV2 {
    /// The canonical section order: `cert`, `sig`, `key`, then every
    /// `ciph` segment.
    pub fn sections(&self) -> Vec<Section> {
        let mut out = Vec::with_capacity(3 + self.cipher_sections.len());
        out.push(Section::new(
            SectionTag::Certificate,
            self.certificate.to_bytes(),
        ));
        out.push(Section::new(SectionTag::Signature, self.signature.clone()));
        out.push(Section::new(
            SectionTag::WrappedKey,
            self.wrapped_key.clone(),
        ));
        for seg in &self.cipher_sections {
            out.push(Section::new(SectionTag::Ciphertext, seg.clone()));
        }
        out
    }

    /// Serializes as a TLV document.
    pub fn to_bytes(&self) -> Vec<u8> {
        TlvBundle::new(self.sections()).to_bytes()
    }

    /// Total transport size in bytes (drives the download-time model).
    pub fn transport_size(&self) -> usize {
        TlvBundle::payload_offset(3 + self.cipher_sections.len())
            + self.certificate.to_bytes().len()
            + self.signature.len()
            + self.wrapped_key.len()
            + self.cipher_sections.iter().map(Vec::len).sum::<usize>()
    }

    /// Reassembles a bundle from sections in canonical order — the shared
    /// document's sections with the router's `key` section spliced in.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] unless the sections are exactly one `cert`,
    /// one `sig`, one `key`, then one or more `ciph`, in that order.
    pub fn from_sections(sections: &[Section]) -> Result<BundleV2, WireError> {
        let bad = |why: &str| WireError::new(format!("malformed v2 bundle: {why}"));
        if sections.len() < 4 {
            return Err(bad("fewer than four sections"));
        }
        if sections[0].tag != SectionTag::Certificate {
            return Err(bad("first section is not cert"));
        }
        if sections[1].tag != SectionTag::Signature {
            return Err(bad("second section is not sig"));
        }
        if sections[2].tag != SectionTag::WrappedKey {
            return Err(bad("third section is not key"));
        }
        let mut cipher_sections = Vec::with_capacity(sections.len() - 3);
        for s in &sections[3..] {
            if s.tag != SectionTag::Ciphertext {
                return Err(bad("non-ciph section after key"));
            }
            cipher_sections.push(s.bytes.clone());
        }
        Ok(BundleV2 {
            certificate: Certificate::from_bytes(&sections[0].bytes)?,
            signature: sections[1].bytes.clone(),
            wrapped_key: sections[2].bytes.clone(),
            cipher_sections,
        })
    }

    /// Parses a complete v2 document.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any TLV fault, checksum mismatch, or
    /// non-canonical section layout.
    pub fn from_bytes(bytes: &[u8]) -> Result<BundleV2, WireError> {
        BundleV2::from_sections(&TlvBundle::from_bytes(bytes)?.sections)
    }

    /// Splices a router's `key` section into the fleet's shared sections
    /// (`cert`, `sig`, `ciph`…) to form the canonical bundle — the last
    /// step of a hierarchical fetch, where the shared document came from a
    /// relay cache and the wrapped key from a per-router fetch.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] unless `shared` is exactly one `cert`, one
    /// `sig`, then one or more `ciph`.
    pub fn assemble(shared: &[Section], wrapped_key: Vec<u8>) -> Result<BundleV2, WireError> {
        if shared.len() < 3 {
            return Err(WireError::new("shared document has too few sections"));
        }
        let mut sections = Vec::with_capacity(shared.len() + 1);
        sections.push(shared[0].clone());
        sections.push(shared[1].clone());
        sections.push(Section::new(SectionTag::WrappedKey, wrapped_key));
        sections.extend(shared[2..].iter().cloned());
        BundleV2::from_sections(&sections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdmmon_rng::{RngCore, SeedableRng, StdRng};

    fn random_sections(rng: &mut StdRng) -> Vec<Section> {
        let tags = [
            SectionTag::Certificate,
            SectionTag::Signature,
            SectionTag::WrappedKey,
            SectionTag::Ciphertext,
        ];
        let count = 1 + (rng.next_u32() as usize % 12);
        (0..count)
            .map(|_| {
                let tag = tags[rng.next_u32() as usize % tags.len()];
                let len = rng.next_u32() as usize % 9000; // includes 0
                let mut bytes = vec![0u8; len];
                rng.fill_bytes(&mut bytes);
                Section::new(tag, bytes)
            })
            .collect()
    }

    #[test]
    fn round_trip_random_layouts() {
        let mut rng = StdRng::seed_from_u64(0x7177);
        for _ in 0..50 {
            let doc = TlvBundle::new(random_sections(&mut rng));
            let bytes = doc.to_bytes();
            assert_eq!(TlvBundle::from_bytes(&bytes).unwrap(), doc);
            let entries = TlvBundle::parse_table(&bytes).unwrap();
            assert_eq!(entries.len(), doc.sections.len());
            for (e, s) in entries.iter().zip(&doc.sections) {
                assert_eq!(e.tag, s.tag);
                assert_eq!(e.len, s.bytes.len());
                assert_eq!(e.checksum, s.checksum());
                assert_eq!(&bytes[e.offset..e.offset + e.len], &s.bytes[..]);
            }
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let mut rng = StdRng::seed_from_u64(0x7178);
        let doc = TlvBundle::new(vec![
            Section::new(SectionTag::Certificate, vec![1; 40]),
            Section::new(SectionTag::Ciphertext, vec![2; 64]),
        ]);
        let clean = doc.to_bytes();
        for _ in 0..64 {
            let mut bytes = clean.clone();
            let i = rng.next_u32() as usize % bytes.len();
            bytes[i] ^= 1 + (rng.next_u32() % 255) as u8;
            assert!(TlvBundle::from_bytes(&bytes).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn truncated_and_padded_documents_rejected() {
        let doc = TlvBundle::new(vec![Section::new(SectionTag::Signature, vec![7; 32])]);
        let clean = doc.to_bytes();
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN, clean.len() - 1] {
            assert!(TlvBundle::from_bytes(&clean[..cut]).is_err(), "cut {cut}");
        }
        let mut padded = clean;
        padded.push(0);
        assert!(TlvBundle::from_bytes(&padded).is_err());
    }

    #[test]
    fn zero_sections_and_unknown_tags_rejected() {
        let empty = TlvBundle::new(Vec::new()).to_bytes();
        assert!(TlvBundle::from_bytes(&empty).is_err());
        let mut doc = TlvBundle::new(vec![Section::new(SectionTag::WrappedKey, vec![1; 8])]);
        let mut bytes = doc.to_bytes();
        bytes[HEADER_LEN] = 99; // unknown tag in the table
        assert!(TlvBundle::from_bytes(&bytes).is_err());
        // Rewriting the tag *and* fixing the table checksum still fails:
        // from_id rejects 99 after the checksum passes.
        let table_start = HEADER_LEN;
        let table_end = TlvBundle::payload_offset(1);
        let sum = transport_checksum(&bytes[table_start..table_end]);
        bytes[9..17].copy_from_slice(&sum.to_be_bytes());
        assert!(TlvBundle::from_bytes(&bytes).is_err());
        doc.sections.clear();
        assert!(TlvBundle::from_bytes(&doc.to_bytes()).is_err());
    }
}
