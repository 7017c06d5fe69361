//! Seeded transport-fault injection: a lossy link and a flaky file server.
//!
//! The paper's deployment path assumes the package download succeeds in one
//! shot; real control-plane links lose connections, corrupt bytes, stall,
//! and talk to servers that are briefly down. [`LossyChannel`] and
//! [`FlakyServer`] wrap the clean [`Channel`]/[`FileServer`] pair with
//! exactly those four fault classes, drawing every fault from a seeded
//! `sdmmon-rng` stream so an entire flaky deployment replays byte-for-byte
//! from its seed. The retrying client in [`crate::download`] is the layer
//! that survives them.
//!
//! Fault model (per chunk-fetch attempt, in this order):
//!
//! 1. **outage** — the server is down for a window of attempt numbers
//!    (connection refused; costs one round trip);
//! 2. **blackhole** — the path is permanently unreachable (models a dead
//!    router-side link; the attempt stalls to the timeout);
//! 3. **stall** — the connection hangs until the fixed
//!    [`LossyChannel::STALL_TIMEOUT`];
//! 4. **loss** — the connection drops partway; a prefix of the chunk is
//!    delivered and the client may resume from the received offset;
//! 5. **corruption** — the chunk arrives complete but with flipped bytes,
//!    detectable only by an end-to-end integrity check.
//!
//! None of this weakens the security argument: corruption on the wire is
//! *always* caught at installation time by the package signature (SR1).
//! The transport checksum exposed by [`FlakyServer::probe`] is purely an
//! engineering signal that triggers cheap retransmission before the
//! expensive crypto runs — see `docs/RESILIENCE.md`.

use crate::channel::{Channel, FileServer};
use sdmmon_rng::{Rng, SeedableRng, StdRng};
use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

/// FNV-1a 64 over `bytes` — the transport integrity checksum carried by
/// [`FileMeta`]. Fast, dependency-free, and *not* cryptographic: it guards
/// against accidental wire corruption only; adversarial tampering is the
/// package signature's job (SR1).
pub fn transport_checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A [`Channel`] with seeded link-level fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossyChannel {
    /// The underlying clean latency/throughput model.
    pub channel: Channel,
    /// Probability that a chunk transfer drops partway (short read; the
    /// delivered prefix is kept and the client may resume).
    pub loss: f64,
    /// Probability that a delivered chunk carries flipped bytes.
    pub corrupt: f64,
    /// Probability that an attempt stalls until [`LossyChannel::STALL_TIMEOUT`].
    pub stall: f64,
}

impl LossyChannel {
    /// Modelled time a stalled or blackholed attempt wastes before the
    /// client gives up on it.
    pub const STALL_TIMEOUT: Duration = Duration::from_millis(500);

    /// A fault-free wrapper around `channel` (all probabilities zero).
    pub fn clean(channel: Channel) -> LossyChannel {
        LossyChannel {
            channel,
            loss: 0.0,
            corrupt: 0.0,
            stall: 0.0,
        }
    }

    /// Sets the loss probability.
    pub fn with_loss(mut self, loss: f64) -> LossyChannel {
        self.loss = loss;
        self
    }

    /// Sets the corruption probability.
    pub fn with_corrupt(mut self, corrupt: f64) -> LossyChannel {
        self.corrupt = corrupt;
        self
    }

    /// Sets the stall probability.
    pub fn with_stall(mut self, stall: f64) -> LossyChannel {
        self.stall = stall;
        self
    }
}

/// A transient server outage: every fetch attempt numbered in
/// `[from, from + len)` (0-based, across all paths) is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// First affected attempt number.
    pub from: u64,
    /// Number of consecutive refused attempts.
    pub len: u64,
}

impl OutageWindow {
    /// True when attempt number `n` falls inside the outage.
    pub fn covers(&self, n: u64) -> bool {
        n >= self.from && n - self.from < self.len
    }
}

/// Why a transport attempt failed. Every variant carries the modelled
/// wall-clock the failed attempt wasted, so retry timelines stay
/// deterministic and wall-clock-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The path is not published on the server (permanent; do not retry).
    NotFound {
        /// The requested path.
        path: String,
        /// Round-trip wasted learning it.
        wasted: Duration,
    },
    /// The server refused the connection (transient outage).
    Unavailable {
        /// Round-trip wasted on the refusal.
        wasted: Duration,
    },
    /// The connection hung until the client's timeout.
    Timeout {
        /// The full stall timeout the attempt burned.
        wasted: Duration,
    },
}

impl TransportError {
    /// The modelled time the failed attempt cost.
    pub fn wasted(&self) -> Duration {
        match self {
            TransportError::NotFound { wasted, .. }
            | TransportError::Unavailable { wasted }
            | TransportError::Timeout { wasted } => *wasted,
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::NotFound { path, .. } => write!(f, "no such file on server: {path}"),
            TransportError::Unavailable { .. } => write!(f, "server unavailable (outage)"),
            TransportError::Timeout { .. } => write!(f, "transfer stalled until timeout"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Size and integrity metadata for a published file, as returned by
/// [`FlakyServer::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileMeta {
    /// Total file size in bytes.
    pub len: usize,
    /// FNV-1a 64 transport checksum of the pristine published bytes.
    pub checksum: u64,
}

/// One (possibly truncated) chunk delivered by [`FlakyServer::fetch_chunk`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// The delivered bytes (a prefix of the request on a lossy short read;
    /// possibly corrupted — only an end-to-end checksum can tell).
    pub bytes: Vec<u8>,
    /// Modelled transfer time, including per-attempt session setup.
    pub took: Duration,
    /// False when the connection dropped partway (short read).
    pub complete: bool,
}

/// Server-side fault accounting (observability for tests and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlakyStats {
    /// Total fetch/probe attempts seen (including refused ones).
    pub attempts: u64,
    /// Attempts refused by an outage window.
    pub outage_refusals: u64,
    /// Attempts lost to a blackholed path.
    pub blackholed: u64,
    /// Attempts that stalled to the client timeout.
    pub stalls: u64,
    /// Chunks cut short by connection loss.
    pub losses: u64,
    /// Chunks delivered with corrupted bytes.
    pub corruptions: u64,
}

/// A [`FileServer`] behind a faulty transport: seeded packet loss, byte
/// corruption, stalls, transient outage windows, and per-path blackholes.
///
/// All randomness comes from one internal stream seeded at construction, so
/// a deployment driven through a `FlakyServer` is a pure function of
/// `(published files, fault parameters, seed, request sequence)`.
///
/// # Examples
///
/// ```
/// use sdmmon_net::channel::{Channel, FileServer};
/// use sdmmon_net::resilience::{FlakyServer, LossyChannel};
///
/// let mut server = FileServer::new();
/// server.publish("pkg/r0.sdmmon", vec![7u8; 4096]);
/// let mut flaky = FlakyServer::new(server, 1);
/// let link = LossyChannel::clean(Channel::ideal_gigabit());
/// let meta = flaky.probe("pkg/r0.sdmmon", &link).unwrap();
/// assert_eq!(meta.len, 4096);
/// let chunk = flaky.fetch_chunk("pkg/r0.sdmmon", 0, 1024, &link).unwrap();
/// assert!(chunk.complete);
/// assert_eq!(chunk.bytes.len(), 1024);
/// ```
#[derive(Debug, Clone)]
pub struct FlakyServer {
    server: FileServer,
    rng: StdRng,
    outages: Vec<OutageWindow>,
    blackholes: BTreeSet<String>,
    stats: FlakyStats,
}

impl FlakyServer {
    /// Wraps `server`, drawing all faults from a stream seeded by `seed`.
    pub fn new(server: FileServer, seed: u64) -> FlakyServer {
        FlakyServer {
            server,
            rng: StdRng::seed_from_u64(seed),
            outages: Vec::new(),
            blackholes: BTreeSet::new(),
            stats: FlakyStats::default(),
        }
    }

    /// Schedules a transient outage window (attempt-numbered, not timed, so
    /// replays are exact).
    pub fn schedule_outage(&mut self, window: OutageWindow) {
        self.outages.push(window);
    }

    /// Marks `path` permanently unreachable (a dead last-mile link: every
    /// attempt stalls to the timeout and never reaches the server).
    pub fn blackhole(&mut self, path: impl Into<String>) {
        self.blackholes.insert(path.into());
    }

    /// The wrapped server (publishing, tampering, fetch counters).
    pub fn server(&self) -> &FileServer {
        &self.server
    }

    /// Mutable access to the wrapped server.
    pub fn server_mut(&mut self) -> &mut FileServer {
        &mut self.server
    }

    /// Fault accounting so far.
    pub fn stats(&self) -> FlakyStats {
        self.stats
    }

    /// Total transport attempts seen so far (the outage clock).
    pub fn attempts(&self) -> u64 {
        self.stats.attempts
    }

    /// The fault gates every probe and fetch passes first, in the module
    /// docs' order: outage, blackhole, stall. Increments the attempt clock.
    fn gate(&mut self, path: &str, link: &LossyChannel) -> Result<(), TransportError> {
        let n = self.stats.attempts;
        self.stats.attempts += 1;
        if self.outages.iter().any(|w| w.covers(n)) {
            self.stats.outage_refusals += 1;
            // A refused connection costs one round trip.
            return Err(TransportError::Unavailable {
                wasted: link.channel.latency * 2,
            });
        }
        if self.blackholes.contains(path) {
            self.stats.blackholed += 1;
            return Err(TransportError::Timeout {
                wasted: LossyChannel::STALL_TIMEOUT,
            });
        }
        if link.stall > 0.0 && self.rng.gen_bool(link.stall) {
            self.stats.stalls += 1;
            return Err(TransportError::Timeout {
                wasted: LossyChannel::STALL_TIMEOUT,
            });
        }
        Ok(())
    }

    /// Fetches the size and transport checksum of `path` (one round trip;
    /// subject to outages, blackholes, and stalls but not loss/corruption —
    /// the control exchange fits in one segment).
    ///
    /// # Errors
    ///
    /// [`TransportError`] on outage, blackhole, stall, or unknown path.
    /// Unknown paths are counted as server-side misses.
    pub fn probe(&mut self, path: &str, link: &LossyChannel) -> Result<FileMeta, TransportError> {
        self.gate(path, link)?;
        match self.server.stat(path) {
            Some(bytes) => Ok(FileMeta {
                len: bytes.len(),
                checksum: transport_checksum(bytes),
            }),
            None => {
                self.server.record_miss(path);
                Err(TransportError::NotFound {
                    path: path.to_owned(),
                    wasted: link.channel.latency * 2,
                })
            }
        }
    }

    /// Fetches up to `len` bytes of `path` starting at `offset` over the
    /// faulty link. Short reads ([`Chunk::complete`] = false) deliver a
    /// prefix the client can resume after; corrupted chunks are delivered
    /// silently — only an end-to-end checksum reveals them.
    ///
    /// Requests past the end of the file return an empty complete chunk.
    /// Successful (even short or corrupted) reads count toward the wrapped
    /// server's per-path fetch counters — the "server-side effort" retry
    /// tests assert on.
    ///
    /// # Errors
    ///
    /// [`TransportError`] on outage, blackhole, stall, or unknown path.
    pub fn fetch_chunk(
        &mut self,
        path: &str,
        offset: usize,
        len: usize,
        link: &LossyChannel,
    ) -> Result<Chunk, TransportError> {
        self.gate(path, link)?;
        let (mut bytes, _) = self
            .server
            .fetch_range(path, offset, len, &link.channel)
            .map_err(|e| TransportError::NotFound {
                path: e.path,
                wasted: link.channel.latency * 2,
            })?;
        let mut complete = true;
        if !bytes.is_empty() && link.loss > 0.0 && self.rng.gen_bool(link.loss) {
            // The connection drops partway: keep a strict prefix.
            let keep = self.rng.gen_range(0..bytes.len());
            bytes.truncate(keep);
            complete = false;
            self.stats.losses += 1;
        }
        if !bytes.is_empty() && link.corrupt > 0.0 && self.rng.gen_bool(link.corrupt) {
            // Flip 1..=4 bytes somewhere in the delivered range.
            for _ in 0..self.rng.gen_range(1..=4usize) {
                let i = self.rng.gen_range(0..bytes.len());
                bytes[i] ^= self.rng.gen_range(1..=255u8);
            }
            self.stats.corruptions += 1;
        }
        let took = link.channel.transfer_time(bytes.len());
        Ok(Chunk {
            bytes,
            took,
            complete,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_with(path: &str, len: usize) -> FileServer {
        let mut s = FileServer::new();
        s.publish(path, (0..len).map(|i| i as u8).collect());
        s
    }

    fn clean_link() -> LossyChannel {
        LossyChannel::clean(Channel::ideal_gigabit())
    }

    #[test]
    fn clean_flaky_server_behaves_like_file_server() {
        let mut flaky = FlakyServer::new(server_with("a", 100), 7);
        let link = clean_link();
        let meta = flaky.probe("a", &link).unwrap();
        assert_eq!(meta.len, 100);
        let c = flaky.fetch_chunk("a", 0, 100, &link).unwrap();
        assert!(c.complete);
        assert_eq!(c.bytes, (0..100).map(|i| i as u8).collect::<Vec<_>>());
        assert_eq!(meta.checksum, transport_checksum(&c.bytes));
        // Ranged reads: middle and past-the-end.
        let mid = flaky.fetch_chunk("a", 50, 10, &link).unwrap();
        assert_eq!(mid.bytes, (50..60).map(|i| i as u8).collect::<Vec<_>>());
        let past = flaky.fetch_chunk("a", 100, 10, &link).unwrap();
        assert!(past.bytes.is_empty() && past.complete);
    }

    #[test]
    fn outage_window_refuses_then_recovers() {
        let mut flaky = FlakyServer::new(server_with("a", 10), 1);
        flaky.schedule_outage(OutageWindow { from: 1, len: 2 });
        let link = clean_link();
        assert!(flaky.probe("a", &link).is_ok()); // attempt 0
        for _ in 0..2 {
            match flaky.fetch_chunk("a", 0, 4, &link) {
                Err(TransportError::Unavailable { wasted }) => assert!(wasted > Duration::ZERO),
                other => panic!("expected outage, got {other:?}"),
            }
        }
        assert!(flaky.fetch_chunk("a", 0, 4, &link).is_ok()); // attempt 3
        assert_eq!(flaky.stats().outage_refusals, 2);
    }

    #[test]
    fn blackholed_path_always_times_out() {
        let mut flaky = FlakyServer::new(server_with("a", 10), 1);
        flaky.blackhole("a");
        let link = clean_link();
        for _ in 0..5 {
            match flaky.fetch_chunk("a", 0, 4, &link) {
                Err(TransportError::Timeout { wasted }) => {
                    assert_eq!(wasted, LossyChannel::STALL_TIMEOUT);
                }
                other => panic!("expected timeout, got {other:?}"),
            }
        }
        assert_eq!(flaky.stats().blackholed, 5);
        // The server never saw any of it.
        assert_eq!(flaky.server().fetches(), 0);
    }

    #[test]
    fn loss_delivers_resumable_prefix() {
        let mut flaky = FlakyServer::new(server_with("a", 256), 3);
        let link = clean_link().with_loss(1.0);
        let c = flaky.fetch_chunk("a", 0, 256, &link).unwrap();
        assert!(!c.complete);
        assert!(c.bytes.len() < 256);
        // The prefix is intact: resuming after it reassembles the file.
        assert_eq!(
            c.bytes,
            (0..c.bytes.len()).map(|i| i as u8).collect::<Vec<_>>()
        );
        let rest = flaky
            .fetch_chunk("a", c.bytes.len(), 256 - c.bytes.len(), &clean_link())
            .unwrap();
        let mut all = c.bytes.clone();
        all.extend_from_slice(&rest.bytes);
        assert_eq!(all.len(), 256);
        assert_eq!(
            transport_checksum(&all),
            transport_checksum(flaky.server().stat("a").unwrap())
        );
    }

    #[test]
    fn corruption_is_silent_but_checksum_detects_it() {
        let mut flaky = FlakyServer::new(server_with("a", 64), 5);
        let link = clean_link().with_corrupt(1.0);
        let meta_link = clean_link();
        let meta = flaky.probe("a", &meta_link).unwrap();
        let c = flaky.fetch_chunk("a", 0, 64, &link).unwrap();
        assert!(c.complete, "corruption does not truncate");
        assert_ne!(transport_checksum(&c.bytes), meta.checksum);
        assert_eq!(flaky.stats().corruptions, 1);
    }

    #[test]
    fn fault_stream_replays_per_seed() {
        let run = |seed: u64| {
            let mut flaky = FlakyServer::new(server_with("a", 512), seed);
            let link = clean_link()
                .with_loss(0.4)
                .with_corrupt(0.3)
                .with_stall(0.2);
            let mut log = Vec::new();
            for _ in 0..32 {
                match flaky.fetch_chunk("a", 0, 128, &link) {
                    Ok(c) => log.push((c.bytes, c.complete)),
                    Err(e) => log.push((vec![e.wasted().as_nanos() as u8], false)),
                }
            }
            (log, flaky.stats())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
