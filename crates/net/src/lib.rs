//! # sdmmon-net — simulated network substrate
//!
//! The SDMMon prototype sits on a DE4 board with four 1 Gbps Ethernet
//! ports: the data plane receives IPv4 packets to forward, and the control
//! processor downloads installation packages from the network operator's
//! FTP server. This crate models both sides:
//!
//! * [`packet`] — IPv4 header construction and parsing with checksums
//! * [`traffic`] — seeded workload generation: closed-loop flows of valid
//!   packets with configurable malformed-packet rates
//!   ([`traffic::TrafficGenerator`]) and an open-loop arrival process with
//!   heavy-tailed bounded-Pareto flow sizes, burst arrivals, and flow
//!   churn ([`traffic::OpenLoopSource`]) for the streaming engine
//! * [`channel`] — a bandwidth/latency channel model and an in-memory
//!   [`channel::FileServer`], reproducing the "download data from FTP
//!   server" row of the paper's Table 2
//! * [`resilience`] — seeded transport-fault injection: a
//!   [`resilience::LossyChannel`] link model (loss, corruption, stalls)
//!   and a [`resilience::FlakyServer`] wrapper with outage windows and
//!   blackholed paths
//! * [`download`] — a retrying [`download::DownloadClient`] with bounded
//!   exponential backoff + jitter, chunked resumable transfer, and an
//!   integrity re-check of every assembly; whole-file downloads and
//!   ranged section fetches run the same retry loop
//!
//! # Examples
//!
//! ```
//! use sdmmon_net::packet::Ipv4Packet;
//!
//! let p = Ipv4Packet::builder()
//!     .src([10, 0, 0, 1])
//!     .dst([10, 0, 0, 2])
//!     .ttl(64)
//!     .payload(b"hello")
//!     .build();
//! let parsed = Ipv4Packet::parse(&p).unwrap();
//! assert_eq!(parsed.dst, [10, 0, 0, 2]);
//! assert_eq!(parsed.payload, b"hello");
//! ```

pub mod channel;
pub mod download;
pub mod packet;
pub mod resilience;
pub mod traffic;
