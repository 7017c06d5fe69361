//! IPv4 packet construction and parsing.
//!
//! The byte layout matches what the NP workloads of
//! `sdmmon-npu::programs` parse in assembly, so packets built here can be
//! fed straight into the simulated cores.

use std::fmt;

/// Errors raised while parsing a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsePacketError {
    /// Fewer bytes than a minimal header.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The version field is not 4.
    BadVersion(u8),
    /// The IHL field is below 5 or the header exceeds the packet.
    BadHeaderLength(u8),
    /// The total-length field disagrees with the byte count.
    BadTotalLength {
        /// Value from the header.
        declared: usize,
        /// Actual byte count.
        actual: usize,
    },
    /// The header checksum does not verify.
    BadChecksum,
}

impl fmt::Display for ParsePacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePacketError::Truncated { need, have } => {
                write!(f, "truncated packet: need {need} bytes, have {have}")
            }
            ParsePacketError::BadVersion(v) => write!(f, "IP version {v} is not 4"),
            ParsePacketError::BadHeaderLength(ihl) => write!(f, "invalid IHL {ihl}"),
            ParsePacketError::BadTotalLength { declared, actual } => {
                write!(f, "total length {declared} does not match {actual} bytes")
            }
            ParsePacketError::BadChecksum => write!(f, "header checksum mismatch"),
        }
    }
}

impl std::error::Error for ParsePacketError {}

/// Computes the RFC 791 ones'-complement header checksum of `bytes`
/// (with the checksum field zeroed or absent).
///
/// # Examples
///
/// ```
/// use sdmmon_net::packet::ones_complement_checksum;
/// // A header that already contains its checksum sums to zero.
/// let p = sdmmon_net::packet::Ipv4Packet::builder().build();
/// assert_eq!(ones_complement_checksum(&p[..20]), 0);
/// ```
pub fn ones_complement_checksum(bytes: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in bytes.chunks(2) {
        sum += u16::from_be_bytes([chunk[0], *chunk.get(1).unwrap_or(&0)]) as u32;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// A parsed IPv4 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Type-of-service / DSCP+ECN byte.
    pub tos: u8,
    /// Time to live.
    pub ttl: u8,
    /// Protocol number (17 = UDP).
    pub protocol: u8,
    /// Source address.
    pub src: [u8; 4],
    /// Destination address.
    pub dst: [u8; 4],
    /// Raw option bytes (multiple of 4, possibly empty).
    pub options: Vec<u8>,
    /// Payload after the header.
    pub payload: Vec<u8>,
}

impl Ipv4Packet {
    /// Starts building a packet with sane defaults (TTL 64, UDP protocol).
    pub fn builder() -> Ipv4PacketBuilder {
        Ipv4PacketBuilder::new()
    }

    /// Parses and validates `bytes` as an IPv4 packet.
    ///
    /// # Errors
    ///
    /// Returns a [`ParsePacketError`] describing the first malformation
    /// found (the same conditions the assembly workloads check on-core).
    pub fn parse(bytes: &[u8]) -> Result<Ipv4Packet, ParsePacketError> {
        if bytes.len() < 20 {
            return Err(ParsePacketError::Truncated {
                need: 20,
                have: bytes.len(),
            });
        }
        let version = bytes[0] >> 4;
        if version != 4 {
            return Err(ParsePacketError::BadVersion(version));
        }
        let ihl = bytes[0] & 0xf;
        let header_len = ihl as usize * 4;
        if ihl < 5 || header_len > bytes.len() {
            return Err(ParsePacketError::BadHeaderLength(ihl));
        }
        let declared = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        if declared != bytes.len() {
            return Err(ParsePacketError::BadTotalLength {
                declared,
                actual: bytes.len(),
            });
        }
        if ones_complement_checksum(&bytes[..header_len]) != 0 {
            return Err(ParsePacketError::BadChecksum);
        }
        Ok(Ipv4Packet {
            tos: bytes[1],
            ttl: bytes[8],
            protocol: bytes[9],
            src: bytes[12..16].try_into().expect("4 bytes"),
            dst: bytes[16..20].try_into().expect("4 bytes"),
            options: bytes[20..header_len].to_vec(),
            payload: bytes[header_len..].to_vec(),
        })
    }
}

/// Builder for [`Ipv4Packet`] byte images.
#[derive(Debug, Clone)]
pub struct Ipv4PacketBuilder {
    tos: u8,
    ttl: u8,
    protocol: u8,
    src: [u8; 4],
    dst: [u8; 4],
    options: Vec<u8>,
    payload: Vec<u8>,
    corrupt_checksum: bool,
}

impl Default for Ipv4PacketBuilder {
    fn default() -> Ipv4PacketBuilder {
        Ipv4PacketBuilder::new()
    }
}

impl Ipv4PacketBuilder {
    /// Creates a builder with TTL 64, UDP protocol, zero addresses.
    pub fn new() -> Ipv4PacketBuilder {
        Ipv4PacketBuilder {
            tos: 0,
            ttl: 64,
            protocol: 17,
            src: [0; 4],
            dst: [0; 4],
            options: Vec::new(),
            payload: Vec::new(),
            corrupt_checksum: false,
        }
    }

    /// Sets the TOS byte.
    pub fn tos(mut self, tos: u8) -> Self {
        self.tos = tos;
        self
    }

    /// Sets the TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the protocol number.
    pub fn protocol(mut self, protocol: u8) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the source address.
    pub fn src(mut self, src: [u8; 4]) -> Self {
        self.src = src;
        self
    }

    /// Sets the destination address.
    pub fn dst(mut self, dst: [u8; 4]) -> Self {
        self.dst = dst;
        self
    }

    /// Appends header options (padded to a 4-byte multiple at build time).
    ///
    /// # Panics
    ///
    /// `build` panics if padded options exceed 40 bytes.
    pub fn options(mut self, options: &[u8]) -> Self {
        self.options.extend_from_slice(options);
        self
    }

    /// Sets the payload.
    pub fn payload(mut self, payload: &[u8]) -> Self {
        self.payload = payload.to_vec();
        self
    }

    /// Deliberately corrupts the checksum (for malformed-traffic tests).
    pub fn corrupt_checksum(mut self) -> Self {
        self.corrupt_checksum = true;
        self
    }

    /// Produces the packet bytes.
    ///
    /// # Panics
    ///
    /// Panics if options exceed the IPv4 maximum of 40 bytes or the total
    /// length exceeds 65535.
    pub fn build(self) -> Vec<u8> {
        let mut opts = self.options;
        while !opts.len().is_multiple_of(4) {
            opts.push(0);
        }
        assert!(opts.len() <= 40, "IPv4 options limited to 40 bytes");
        let header_len = 20 + opts.len();
        let total = header_len + self.payload.len();
        assert!(total <= 65535, "packet exceeds IPv4 maximum size");
        let mut bytes = vec![0u8; header_len];
        bytes[0] = 0x40 | (header_len / 4) as u8;
        bytes[1] = self.tos;
        bytes[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        bytes[8] = self.ttl;
        bytes[9] = self.protocol;
        bytes[12..16].copy_from_slice(&self.src);
        bytes[16..20].copy_from_slice(&self.dst);
        bytes[20..].copy_from_slice(&opts);
        let mut ck = ones_complement_checksum(&bytes);
        if self.corrupt_checksum {
            ck ^= 0x5555;
        }
        bytes[10..12].copy_from_slice(&ck.to_be_bytes());
        bytes.extend_from_slice(&self.payload);
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_parse_round_trip() {
        let bytes = Ipv4Packet::builder()
            .src([192, 168, 0, 1])
            .dst([10, 1, 2, 3])
            .ttl(17)
            .tos(0x20)
            .protocol(6)
            .payload(b"segment")
            .build();
        let p = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(p.src, [192, 168, 0, 1]);
        assert_eq!(p.dst, [10, 1, 2, 3]);
        assert_eq!(p.ttl, 17);
        assert_eq!(p.tos, 0x20);
        assert_eq!(p.protocol, 6);
        assert!(p.options.is_empty());
        assert_eq!(p.payload, b"segment");
    }

    #[test]
    fn options_padded_and_parsed() {
        let bytes = Ipv4Packet::builder().options(&[0x44, 4, 0]).build();
        let p = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(p.options, vec![0x44, 4, 0, 0]);
    }

    #[test]
    fn parse_rejects_malformations() {
        assert!(matches!(
            Ipv4Packet::parse(&[0u8; 10]),
            Err(ParsePacketError::Truncated { .. })
        ));

        let mut bad_version = Ipv4Packet::builder().build();
        bad_version[0] = 0x55;
        assert!(matches!(
            Ipv4Packet::parse(&bad_version),
            Err(ParsePacketError::BadVersion(5))
        ));

        let mut bad_ihl = Ipv4Packet::builder().build();
        bad_ihl[0] = 0x42;
        assert!(matches!(
            Ipv4Packet::parse(&bad_ihl),
            Err(ParsePacketError::BadHeaderLength(2))
        ));

        let mut bad_len = Ipv4Packet::builder().payload(b"xy").build();
        bad_len.pop();
        assert!(matches!(
            Ipv4Packet::parse(&bad_len),
            Err(ParsePacketError::BadTotalLength { .. })
        ));

        let corrupted = Ipv4Packet::builder().corrupt_checksum().build();
        assert_eq!(
            Ipv4Packet::parse(&corrupted),
            Err(ParsePacketError::BadChecksum)
        );
    }

    #[test]
    fn checksum_matches_rfc_example() {
        // Classic worked example from RFC 1071 discussions.
        let header: [u8; 20] = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(ones_complement_checksum(&header), 0xb861);
    }

    #[test]
    #[should_panic(expected = "40 bytes")]
    fn oversized_options_panic() {
        Ipv4Packet::builder().options(&[0u8; 44]).build();
    }
}
