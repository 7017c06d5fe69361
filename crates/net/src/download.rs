//! A retrying, resuming download client for the faulty transport.
//!
//! [`DownloadClient`] drives [`FlakyServer::fetch_chunk`] to completion
//! under loss, corruption, stalls, and outages: chunked transfer with
//! resume-after-short-read, bounded exponential backoff with seeded jitter,
//! and an integrity re-check of the assembled bytes against their transport
//! checksum (a corrupted assembly is discarded and refetched, still within
//! the attempt budget). Both entry points run the same retry loop:
//! [`DownloadClient::download_range`] over the range it is given, and
//! [`DownloadClient::download`] over the whole file after a probe for its
//! size and checksum. Every duration is *modelled* — nothing sleeps — so
//! a download timeline is a deterministic function of the seeds involved.

use crate::resilience::{transport_checksum, FileMeta, FlakyServer, LossyChannel, TransportError};
use sdmmon_obs::{metrics, Counter, Event, Hist};
use sdmmon_rng::{Rng, RngCore};
use std::fmt;
use std::time::Duration;

/// Retry/backoff policy of one download.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total transport attempts (probes + chunk fetches) allowed before the
    /// download fails.
    pub max_attempts: u32,
    /// Bytes requested per chunk.
    pub chunk_bytes: usize,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 24,
            chunk_bytes: 64 * 1024,
        }
    }
}

impl RetryPolicy {
    /// Backoff after the first consecutive failure; doubles per failure.
    pub const BASE_BACKOFF: Duration = Duration::from_millis(50);
    /// Backoff ceiling.
    pub const MAX_BACKOFF: Duration = Duration::from_secs(2);
    /// Fraction of each backoff randomized (0 = fixed, 1 = full jitter).
    pub const JITTER: f64 = 0.5;

    /// Sets the attempt budget (at least 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> RetryPolicy {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the chunk size (at least 1 byte).
    pub fn with_chunk_bytes(mut self, bytes: usize) -> RetryPolicy {
        self.chunk_bytes = bytes.max(1);
        self
    }

    /// The bounded-exponential backoff after `consecutive` failures
    /// (1-based), jittered from `rng`.
    fn backoff<R: RngCore>(consecutive: u32, rng: &mut R) -> Duration {
        if consecutive == 0 {
            return Duration::ZERO;
        }
        let exp = consecutive.saturating_sub(1).min(16);
        let raw = RetryPolicy::BASE_BACKOFF
            .saturating_mul(1u32 << exp)
            .min(RetryPolicy::MAX_BACKOFF);
        // Jittered into [raw * (1 - JITTER), raw]: decorrelates concurrent
        // retriers without ever exceeding the bound.
        let u: f64 = rng.gen();
        raw.mul_f64(1.0 - RetryPolicy::JITTER * u)
    }
}

/// What one transport attempt achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Metadata probe succeeded.
    Probed,
    /// A complete chunk of this many bytes arrived.
    Chunk(usize),
    /// The connection dropped; this prefix was salvaged for resumption.
    ShortRead(usize),
    /// The attempt stalled to the client timeout.
    Stalled,
    /// The server refused the connection (outage).
    Refused,
    /// The assembled file failed the integrity re-check and was discarded.
    IntegrityReject,
}

/// One entry of the per-attempt download log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// Byte offset the attempt targeted.
    pub offset: usize,
    /// What happened.
    pub outcome: AttemptOutcome,
    /// Modelled time on the wire (transfer or wasted wait).
    pub took: Duration,
    /// Modelled backoff slept *before* this attempt.
    pub backoff: Duration,
}

/// A download's full attempt timeline, plus the bytes when it completed.
/// A download that gives up carries its timeline too
/// ([`DownloadError::AttemptsExhausted`]), so callers book the effort
/// whatever the outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DownloadReport {
    /// The verified file contents (empty in a given-up download's log).
    pub bytes: Vec<u8>,
    /// Every transport attempt, in order, with per-attempt timing.
    pub attempts: Vec<Attempt>,
    /// Full-file restarts forced by the integrity re-check.
    pub integrity_restarts: u32,
    /// Bytes salvaged from short reads (delivered, kept, not re-fetched).
    pub resumed_bytes: usize,
}

impl DownloadReport {
    /// Modelled wire time across all attempts.
    pub fn transfer_time(&self) -> Duration {
        self.attempts.iter().map(|a| a.took).sum()
    }

    /// Modelled backoff time across all attempts.
    pub fn backoff_time(&self) -> Duration {
        self.attempts.iter().map(|a| a.backoff).sum()
    }

    /// Total modelled wall clock of the download.
    pub fn total_time(&self) -> Duration {
        self.transfer_time() + self.backoff_time()
    }

    /// Attempts that did not deliver a complete chunk or probe.
    pub fn failures(&self) -> u32 {
        self.attempts
            .iter()
            .filter(|a| !matches!(a.outcome, AttemptOutcome::Probed | AttemptOutcome::Chunk(_)))
            .count() as u32
    }

    /// Renders the deterministic attempt timeline as structured events for
    /// the observability bus: one `download.retry` per failed attempt, one
    /// `download.integrity_restart` per integrity reject, and a closing
    /// `download.complete` summary. `label` names the transfer (typically
    /// `router/path`); each event's logical clock is `clock_base` plus the
    /// attempt's index in the timeline, so merged streams stay ordered.
    pub fn to_events(&self, label: &str, clock_base: u64) -> Vec<Event> {
        let mut events = Vec::new();
        for (i, a) in self.attempts.iter().enumerate() {
            let clock = clock_base + i as u64;
            match a.outcome {
                AttemptOutcome::Probed | AttemptOutcome::Chunk(_) => {}
                AttemptOutcome::IntegrityReject => {
                    events.push(
                        Event::new("download.integrity_restart", clock)
                            .field("target", label)
                            .field("discarded_bytes", a.offset as u64),
                    );
                }
                AttemptOutcome::ShortRead(got) => {
                    events.push(
                        Event::new("download.retry", clock)
                            .field("target", label)
                            .field("reason", "short_read")
                            .field("offset", a.offset as u64)
                            .field("salvaged_bytes", got as u64)
                            .field("backoff_nanos", a.backoff.as_nanos() as u64),
                    );
                }
                AttemptOutcome::Stalled | AttemptOutcome::Refused => {
                    let reason = if a.outcome == AttemptOutcome::Stalled {
                        "stalled"
                    } else {
                        "refused"
                    };
                    events.push(
                        Event::new("download.retry", clock)
                            .field("target", label)
                            .field("reason", reason)
                            .field("offset", a.offset as u64)
                            .field("backoff_nanos", a.backoff.as_nanos() as u64),
                    );
                }
            }
        }
        events.push(
            Event::new("download.complete", clock_base + self.attempts.len() as u64)
                .field("target", label)
                .field("bytes", self.bytes.len() as u64)
                .field("attempts", self.attempts.len() as u64)
                .field("retries", self.failures() as u64)
                .field("integrity_restarts", self.integrity_restarts as u64)
                .field("resumed_bytes", self.resumed_bytes as u64)
                .field("backoff_nanos", self.backoff_time().as_nanos() as u64),
        );
        events
    }
}

/// Folds one finished (or abandoned) attempt timeline into the global
/// metrics registry. Called once per download, success or not, so
/// counters reflect all transport effort spent.
fn record_download_metrics(attempts: &[Attempt], integrity_restarts: u32, resumed_bytes: usize) {
    let m = metrics();
    m.add(Counter::NetDownloadAttempts, attempts.len() as u64);
    let mut chunks = 0u64;
    let mut retries = 0u64;
    let mut backoff = Duration::ZERO;
    for a in attempts {
        match a.outcome {
            AttemptOutcome::Probed => {}
            AttemptOutcome::Chunk(_) => chunks += 1,
            _ => retries += 1,
        }
        backoff += a.backoff;
    }
    m.add(Counter::NetDownloadChunks, chunks);
    m.add(Counter::NetDownloadRetries, retries);
    m.add(Counter::NetIntegrityRestarts, integrity_restarts as u64);
    m.add(Counter::NetResumedBytes, resumed_bytes as u64);
    m.add(Counter::NetBackoffNanos, backoff.as_nanos() as u64);
    m.observe(Hist::DownloadAttempts, attempts.len() as u64);
}

/// Why a download gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownloadError {
    /// The path is not published (permanent — retrying cannot help).
    NotFound {
        /// The requested path.
        path: String,
    },
    /// The attempt budget ran out before a verified file was assembled.
    AttemptsExhausted {
        /// The requested path.
        path: String,
        /// Human-readable description of the last failure, or of the spent
        /// budget when every attempt delivered.
        last: String,
        /// What the download spent before giving up: every attempt,
        /// integrity restart and salvaged byte (`bytes` stays empty).
        spent: DownloadReport,
    },
}

impl fmt::Display for DownloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DownloadError::NotFound { path } => write!(f, "download {path}: not published"),
            DownloadError::AttemptsExhausted { path, last, spent } => {
                let n = spent.attempts.len();
                let plural = if n == 1 { "" } else { "s" };
                write!(
                    f,
                    "download {path}: gave up after {n} attempt{plural} ({last})"
                )
            }
        }
    }
}

impl std::error::Error for DownloadError {}

/// The resilient download client (see the module docs).
///
/// # Examples
///
/// ```
/// use sdmmon_net::channel::{Channel, FileServer};
/// use sdmmon_net::download::{DownloadClient, RetryPolicy};
/// use sdmmon_net::resilience::{FlakyServer, LossyChannel};
/// use sdmmon_rng::{SeedableRng, StdRng};
///
/// let mut server = FileServer::new();
/// server.publish("pkg", (0..100_000u32).map(|i| i as u8).collect());
/// let mut flaky = FlakyServer::new(server, 3);
/// let link = LossyChannel::clean(Channel::ideal_gigabit()).with_loss(0.3);
/// let client = DownloadClient::new(RetryPolicy::default());
/// let mut rng = StdRng::seed_from_u64(1);
/// let report = client.download(&mut flaky, "pkg", &link, &mut rng).unwrap();
/// assert_eq!(report.bytes.len(), 100_000);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DownloadClient {
    policy: RetryPolicy,
}

impl DownloadClient {
    /// Creates a client with the given retry policy.
    pub fn new(policy: RetryPolicy) -> DownloadClient {
        DownloadClient { policy }
    }

    /// The client's policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Downloads `path` from `server` over `link` to completion: a probe
    /// for size and transport checksum, then the verified-range loop of
    /// [`DownloadClient::download_range`] over the whole file, both inside
    /// one attempt budget. A checksum mismatch discards the assembly and
    /// restarts it. `rng` drives only the backoff jitter.
    ///
    /// # Errors
    ///
    /// [`DownloadError::NotFound`] immediately for unpublished paths;
    /// [`DownloadError::AttemptsExhausted`] when the budget runs out.
    pub fn download<R: RngCore>(
        &self,
        server: &mut FlakyServer,
        path: &str,
        link: &LossyChannel,
        rng: &mut R,
    ) -> Result<DownloadReport, DownloadError> {
        self.transfer(server, path, link, rng, |t| {
            let meta = t.probe()?;
            let give_up = "integrity re-check failed (corrupted transfer)";
            t.fetch(0, meta.len, Some(meta.checksum), give_up)
        })
    }

    /// Downloads the `len`-byte range of `path` starting at `offset` — the
    /// per-section fetch of wire-format v2, where the section table already
    /// supplies length and checksum so no probe round-trip is needed.
    ///
    /// Short reads resume mid-range. When `expected` is given, the
    /// assembled range is verified against the FNV-1a transport checksum
    /// and a mismatch discards *only this range* and refetches it: this is
    /// what localizes corruption to the damaged section instead of
    /// restarting the whole file. `rng` drives only the backoff jitter.
    ///
    /// # Errors
    ///
    /// [`DownloadError::NotFound`] for unpublished paths;
    /// [`DownloadError::AttemptsExhausted`] when the budget runs out
    /// (including a range that never matches `expected` — a persistently
    /// tampered section is indistinguishable from a hostile link).
    // The argument list mirrors a range request's wire fields one-to-one;
    // bundling them into a struct would just rename the call site.
    #[allow(clippy::too_many_arguments)]
    pub fn download_range<R: RngCore>(
        &self,
        server: &mut FlakyServer,
        path: &str,
        offset: usize,
        len: usize,
        expected: Option<u64>,
        link: &LossyChannel,
        rng: &mut R,
    ) -> Result<DownloadReport, DownloadError> {
        self.transfer(server, path, link, rng, |t| {
            let give_up = "range checksum mismatch (corrupted section)";
            t.fetch(offset, len, expected, give_up)
        })
    }

    /// Runs `body` as one transfer, then folds its attempt log into the
    /// metrics registry and into the result, whatever the outcome.
    fn transfer<R: RngCore>(
        &self,
        server: &mut FlakyServer,
        path: &str,
        link: &LossyChannel,
        rng: &mut R,
        body: impl FnOnce(&mut Transfer<'_, R>) -> Result<Vec<u8>, Stop>,
    ) -> Result<DownloadReport, DownloadError> {
        let mut t = Transfer {
            policy: &self.policy,
            server,
            path,
            link,
            rng,
            attempts: Vec::new(),
            consecutive: 0,
            last_failure: None,
            integrity_restarts: 0,
            resumed_bytes: 0,
        };
        let bytes = body(&mut t);
        let log = DownloadReport {
            bytes: Vec::new(),
            attempts: t.attempts,
            integrity_restarts: t.integrity_restarts,
            resumed_bytes: t.resumed_bytes,
        };
        record_download_metrics(&log.attempts, log.integrity_restarts, log.resumed_bytes);
        let path = path.to_owned();
        match bytes {
            Ok(bytes) => Ok(DownloadReport { bytes, ..log }),
            Err(Stop::NotFound) => Err(DownloadError::NotFound { path }),
            Err(Stop::Exhausted) => Err(DownloadError::AttemptsExhausted {
                path,
                // With no failure logged, every attempt delivered and the
                // budget itself ended the transfer.
                last: t.last_failure.unwrap_or_else(|| {
                    format!("attempt budget of {} spent", self.policy.max_attempts)
                }),
                spent: log,
            }),
        }
    }
}

/// Why a transfer stopped short; [`DownloadClient::transfer`] turns it into
/// a [`DownloadError`] carrying the attempt log.
enum Stop {
    /// The server does not publish the path.
    NotFound,
    /// The attempt budget is spent.
    Exhausted,
}

/// One download in flight: the attempt log and retry state both entry
/// points share. Every transport attempt is a [`Transfer::probe`] or a
/// pass of the one retry loop, [`Transfer::fetch`].
struct Transfer<'a, R> {
    policy: &'a RetryPolicy,
    server: &'a mut FlakyServer,
    path: &'a str,
    link: &'a LossyChannel,
    rng: &'a mut R,
    attempts: Vec<Attempt>,
    /// Failures since the last delivering attempt (drives the backoff).
    consecutive: u32,
    /// The most recent failure, the reason a give-up reports; `None`
    /// while every attempt has delivered.
    last_failure: Option<String>,
    integrity_restarts: u32,
    resumed_bytes: usize,
}

impl<R: RngCore> Transfer<'_, R> {
    /// Probes for the file's size and transport checksum.
    fn probe(&mut self) -> Result<FileMeta, Stop> {
        loop {
            let backoff = self.next_backoff()?;
            match self.server.probe(self.path, self.link) {
                Ok(meta) => {
                    let took = self.link.channel.latency * 2;
                    self.log(0, AttemptOutcome::Probed, took, backoff, None);
                    return Ok(meta);
                }
                Err(e) => self.transport_failure(0, e, backoff)?,
            }
        }
    }

    /// The retry loop: assembles the `len` bytes at `offset` chunk by
    /// chunk, resuming after short reads, until they match `expected`
    /// (when given). A mismatch discards the assembly and refetches it,
    /// with `give_up` as the failure an exhausted budget then reports.
    fn fetch(
        &mut self,
        offset: usize,
        len: usize,
        expected: Option<u64>,
        give_up: &str,
    ) -> Result<Vec<u8>, Stop> {
        let mut data: Vec<u8> = Vec::new();
        while data.len() < len || expected.is_some_and(|want| transport_checksum(&data) != want) {
            let at = offset + data.len();
            if data.len() >= len {
                // Assembled but failed the checksum: discard and refetch. A
                // budget that runs out here gives up on this failure.
                self.last_failure = Some(give_up.to_owned());
                let backoff = self.next_backoff()?;
                self.log(
                    at,
                    AttemptOutcome::IntegrityReject,
                    Duration::ZERO,
                    backoff,
                    Some(give_up.to_owned()),
                );
                data.clear();
                self.integrity_restarts += 1;
                continue;
            }
            let backoff = self.next_backoff()?;
            let want = self.policy.chunk_bytes.min(len - data.len());
            match self.server.fetch_chunk(self.path, at, want, self.link) {
                Ok(chunk) => {
                    let got = chunk.bytes.len();
                    data.extend_from_slice(&chunk.bytes);
                    if chunk.complete && got == want {
                        self.log(at, AttemptOutcome::Chunk(got), chunk.took, backoff, None);
                    } else {
                        // Short read: keep the prefix, back off, resume.
                        self.resumed_bytes += got;
                        let why = Some(format!("connection lost after {got} bytes"));
                        self.log(at, AttemptOutcome::ShortRead(got), chunk.took, backoff, why);
                    }
                }
                Err(e) => self.transport_failure(at, e, backoff)?,
            }
        }
        Ok(data)
    }

    /// The backoff before the next attempt, or the give-up once the
    /// attempt budget is spent.
    fn next_backoff(&mut self) -> Result<Duration, Stop> {
        if self.attempts.len() as u32 >= self.policy.max_attempts {
            return Err(Stop::Exhausted);
        }
        Ok(RetryPolicy::backoff(self.consecutive, self.rng))
    }

    /// Appends one attempt. A delivering one (`failure` = `None`) ends the
    /// backoff streak; a failed one extends it and becomes the reason a
    /// give-up reports.
    fn log(
        &mut self,
        offset: usize,
        outcome: AttemptOutcome,
        took: Duration,
        backoff: Duration,
        failure: Option<String>,
    ) {
        self.attempts.push(Attempt {
            offset,
            outcome,
            took,
            backoff,
        });
        match failure {
            None => self.consecutive = 0,
            Some(why) => {
                self.consecutive += 1;
                self.last_failure = Some(why);
            }
        }
    }

    /// Logs a transient transport error as a failed attempt; a permanent
    /// one ends the download without an entry.
    fn transport_failure(
        &mut self,
        offset: usize,
        e: TransportError,
        backoff: Duration,
    ) -> Result<(), Stop> {
        let outcome = match e {
            TransportError::NotFound { .. } => return Err(Stop::NotFound),
            TransportError::Unavailable { .. } => AttemptOutcome::Refused,
            TransportError::Timeout { .. } => AttemptOutcome::Stalled,
        };
        self.log(offset, outcome, e.wasted(), backoff, Some(e.to_string()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, FileServer};
    use crate::resilience::OutageWindow;
    use sdmmon_rng::{SeedableRng, StdRng};

    fn published(len: usize) -> FileServer {
        let mut s = FileServer::new();
        s.publish("pkg", (0..len).map(|i| (i * 7) as u8).collect());
        s
    }

    fn policy() -> RetryPolicy {
        RetryPolicy::default().with_chunk_bytes(4096)
    }

    #[test]
    fn clean_download_round_trips() {
        let mut flaky = FlakyServer::new(published(40_000), 1);
        let link = LossyChannel::clean(Channel::paper_testbed());
        let client = DownloadClient::new(policy());
        let mut rng = StdRng::seed_from_u64(2);
        let r = client.download(&mut flaky, "pkg", &link, &mut rng).unwrap();
        assert_eq!(r.bytes, flaky.server().stat("pkg").unwrap());
        assert_eq!(r.failures(), 0);
        assert_eq!(r.integrity_restarts, 0);
        assert!(r.total_time() > Duration::ZERO);
        // 1 probe + ceil(40000/4096) chunks.
        assert_eq!(r.attempts.len(), 1 + 10);
    }

    #[test]
    fn range_download_fetches_exact_slice() {
        let mut flaky = FlakyServer::new(published(40_000), 4);
        let link = LossyChannel::clean(Channel::paper_testbed());
        let client = DownloadClient::new(policy());
        let mut rng = StdRng::seed_from_u64(9);
        let full = flaky.server().stat("pkg").unwrap().to_vec();
        let want = &full[300..5300];
        let sum = transport_checksum(want);
        let r = client
            .download_range(&mut flaky, "pkg", 300, 5000, Some(sum), &link, &mut rng)
            .unwrap();
        assert_eq!(r.bytes, want);
        assert_eq!(r.integrity_restarts, 0);
    }

    #[test]
    fn corrupted_range_refetches_alone_until_checksum_matches() {
        let mut flaky = FlakyServer::new(published(20_000), 21);
        let link = LossyChannel::clean(Channel::ideal_gigabit())
            .with_loss(0.2)
            .with_corrupt(0.3);
        let client = DownloadClient::new(policy().with_max_attempts(200));
        let mut rng = StdRng::seed_from_u64(5);
        let full = flaky.server().stat("pkg").unwrap().to_vec();
        let want = &full[4096..8192];
        let sum = transport_checksum(want);
        let r = client
            .download_range(&mut flaky, "pkg", 4096, 4096, Some(sum), &link, &mut rng)
            .unwrap();
        assert_eq!(r.bytes, want);
        // The hostile link forced at least one full re-fetch of the range.
        assert!(r.integrity_restarts + r.failures() > 0);
    }

    #[test]
    fn persistently_tampered_range_exhausts_budget() {
        let mut server = published(8192);
        let pristine = server.stat("pkg").unwrap().to_vec();
        let sum = transport_checksum(&pristine[0..4096]);
        server.tamper("pkg", |bytes| {
            bytes[100] ^= 0xff;
            bytes[101] ^= 0xfe;
        });
        let mut flaky = FlakyServer::new(server, 8);
        let link = LossyChannel::clean(Channel::ideal_gigabit());
        let client = DownloadClient::new(policy().with_max_attempts(12));
        let mut rng = StdRng::seed_from_u64(6);
        let err = client
            .download_range(&mut flaky, "pkg", 0, 4096, Some(sum), &link, &mut rng)
            .unwrap_err();
        assert!(matches!(err, DownloadError::AttemptsExhausted { .. }));
    }

    #[test]
    fn lossy_download_resumes_instead_of_restarting() {
        let mut flaky = FlakyServer::new(published(60_000), 7);
        let link = LossyChannel::clean(Channel::ideal_gigabit()).with_loss(0.5);
        let client = DownloadClient::new(
            RetryPolicy::default()
                .with_chunk_bytes(8192)
                .with_max_attempts(200),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let r = client.download(&mut flaky, "pkg", &link, &mut rng).unwrap();
        assert_eq!(r.bytes, flaky.server().stat("pkg").unwrap());
        assert!(r.resumed_bytes > 0, "short reads must contribute bytes");
        assert!(r.failures() > 0);
        assert!(r.backoff_time() > Duration::ZERO, "failures must back off");
        // Server-side effort is visible: more ranged fetches than the
        // fault-free chunk count.
        assert!(flaky.server().fetches() > 8, "{}", flaky.server().fetches());
    }

    #[test]
    fn corrupted_download_is_detected_and_restarted() {
        let mut flaky = FlakyServer::new(published(30_000), 11);
        let link = LossyChannel::clean(Channel::ideal_gigabit()).with_corrupt(0.2);
        let client = DownloadClient::new(policy().with_max_attempts(400));
        let mut rng = StdRng::seed_from_u64(4);
        let r = client.download(&mut flaky, "pkg", &link, &mut rng).unwrap();
        assert_eq!(
            r.bytes,
            flaky.server().stat("pkg").unwrap(),
            "integrity re-check must reject every corrupted assembly"
        );
        assert!(
            r.integrity_restarts > 0,
            "seed chosen to corrupt at least once"
        );
    }

    #[test]
    fn outage_is_ridden_out_by_backoff() {
        let mut flaky = FlakyServer::new(published(10_000), 2);
        flaky.schedule_outage(OutageWindow { from: 0, len: 5 });
        let link = LossyChannel::clean(Channel::ideal_gigabit());
        let client = DownloadClient::new(policy());
        let mut rng = StdRng::seed_from_u64(5);
        let r = client.download(&mut flaky, "pkg", &link, &mut rng).unwrap();
        assert_eq!(r.bytes.len(), 10_000);
        let refused = r
            .attempts
            .iter()
            .filter(|a| a.outcome == AttemptOutcome::Refused)
            .count();
        assert_eq!(refused, 5);
    }

    #[test]
    fn unpublished_path_fails_fast() {
        let mut flaky = FlakyServer::new(FileServer::new(), 1);
        let link = LossyChannel::clean(Channel::ideal_gigabit());
        let client = DownloadClient::new(policy());
        let mut rng = StdRng::seed_from_u64(6);
        let err = client
            .download(&mut flaky, "nope", &link, &mut rng)
            .unwrap_err();
        assert!(matches!(err, DownloadError::NotFound { .. }));
        assert_eq!(
            flaky.server().misses(),
            1,
            "the miss is on the server's books"
        );
    }

    #[test]
    fn hopeless_link_exhausts_attempts() {
        let mut flaky = FlakyServer::new(published(1000), 1);
        flaky.blackhole("pkg");
        let link = LossyChannel::clean(Channel::ideal_gigabit());
        let client = DownloadClient::new(policy().with_max_attempts(6));
        let mut rng = StdRng::seed_from_u64(7);
        let err = client
            .download(&mut flaky, "pkg", &link, &mut rng)
            .unwrap_err();
        match err {
            DownloadError::AttemptsExhausted { spent, .. } => assert_eq!(spent.attempts.len(), 6),
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn budget_spent_on_a_corrupt_assembly_gives_up_on_the_integrity_failure() {
        // Every chunk arrives complete but corrupted, so the budget runs
        // out on a full assembly that fails its checksum — the failure a
        // give-up must report, not "no attempts made".
        let link = LossyChannel::clean(Channel::ideal_gigabit()).with_corrupt(1.0);
        let mut rng = StdRng::seed_from_u64(8);
        let mut flaky = FlakyServer::new(published(1000), 3);
        let client = DownloadClient::new(policy().with_max_attempts(2));
        let whole = client.download(&mut flaky, "pkg", &link, &mut rng);
        let sum = transport_checksum(&flaky.server().stat("pkg").unwrap()[..1000]);
        let client = DownloadClient::new(policy().with_max_attempts(1));
        let range = client.download_range(&mut flaky, "pkg", 0, 1000, Some(sum), &link, &mut rng);
        for (result, probe_and_chunks, why) in [
            (whole, 2, "integrity re-check failed"),
            (range, 1, "range checksum mismatch"),
        ] {
            match result.unwrap_err() {
                DownloadError::AttemptsExhausted { last, spent, .. } => {
                    assert_eq!(spent.attempts.len(), probe_and_chunks);
                    assert!(last.starts_with(why), "{last}");
                }
                other => panic!("expected exhaustion, got {other:?}"),
            }
        }
    }

    #[test]
    fn download_timeline_replays_per_seed() {
        let run = |seed| {
            let mut flaky = FlakyServer::new(published(30_000), seed);
            flaky.schedule_outage(OutageWindow { from: 3, len: 2 });
            let link = LossyChannel::clean(Channel::paper_testbed())
                .with_loss(0.25)
                .with_corrupt(0.08)
                .with_stall(0.1);
            let client = DownloadClient::new(policy().with_max_attempts(500));
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
            client.download(&mut flaky, "pkg", &link, &mut rng).unwrap()
        };
        let a = run(21);
        let b = run(21);
        assert_eq!(a, b, "identical seeds, identical timeline");
        assert_ne!(run(21), run(22));
    }

    #[test]
    fn report_events_cover_failures_and_close_with_a_summary() {
        let mut flaky = FlakyServer::new(published(30_000), 21);
        flaky.schedule_outage(OutageWindow { from: 3, len: 2 });
        let link = LossyChannel::clean(Channel::paper_testbed())
            .with_loss(0.25)
            .with_corrupt(0.08)
            .with_stall(0.1);
        let client = DownloadClient::new(policy().with_max_attempts(500));
        let mut rng = StdRng::seed_from_u64(21 ^ 0xabc);
        let r = client.download(&mut flaky, "pkg", &link, &mut rng).unwrap();
        let events = r.to_events("r0/pkg", 100);
        // One event per non-delivering attempt plus the summary.
        let expected = r.failures() as usize + 1;
        assert_eq!(events.len(), expected);
        let last = events.last().unwrap();
        assert_eq!(last.kind, "download.complete");
        assert_eq!(last.clock, 100 + r.attempts.len() as u64);
        // Clocks ride the attempt index, so the stream is ordered.
        assert!(events.windows(2).all(|w| w[0].clock <= w[1].clock));
        for e in &events {
            sdmmon_obs::validate_event_line(&e.render_line(0)).unwrap();
        }
    }

    #[test]
    fn budget_spent_on_delivering_attempts_gives_up_on_the_budget() {
        // A clean link delivers every attempt, so only the budget can end
        // these downloads: the probe alone, and the first of two chunks.
        let link = LossyChannel::clean(Channel::ideal_gigabit());
        let mut rng = StdRng::seed_from_u64(9);
        let mut flaky = FlakyServer::new(published(8192), 4);
        let client = DownloadClient::new(policy().with_max_attempts(1));
        let whole = client.download(&mut flaky, "pkg", &link, &mut rng);
        let range = client.download_range(&mut flaky, "pkg", 0, 8192, None, &link, &mut rng);
        for (result, outcome) in [
            (whole, AttemptOutcome::Probed),
            (range, AttemptOutcome::Chunk(4096)),
        ] {
            let err = result.unwrap_err();
            assert_eq!(
                err.to_string(),
                "download pkg: gave up after 1 attempt (attempt budget of 1 spent)"
            );
            match err {
                DownloadError::AttemptsExhausted { last, spent, .. } => {
                    assert_eq!(spent.attempts.len(), 1);
                    assert_eq!(spent.attempts[0].outcome, outcome);
                    assert_eq!(last, "attempt budget of 1 spent");
                }
                other => panic!("expected exhaustion, got {other:?}"),
            }
        }
    }

    #[test]
    fn backoff_is_bounded_and_grows() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(RetryPolicy::backoff(0, &mut rng), Duration::ZERO);
        for consecutive in 1..=40u32 {
            // The bound doubles per failure until the cap holds it, from
            // the seventh failure on.
            let doubled = RetryPolicy::BASE_BACKOFF * (1 << (consecutive - 1).min(16));
            let bound = doubled.min(RetryPolicy::MAX_BACKOFF);
            let floor = bound.mul_f64(1.0 - RetryPolicy::JITTER);
            let draws: Vec<Duration> = (0..64)
                .map(|_| RetryPolicy::backoff(consecutive, &mut rng))
                .collect();
            for &b in &draws {
                assert!((floor..=bound).contains(&b), "{consecutive}: {b:?}");
            }
            // The jitter spreads the draws over the band.
            let (lo, hi) = (draws.iter().min().unwrap(), draws.iter().max().unwrap());
            assert!(
                *hi - *lo > (bound - floor) / 2,
                "{consecutive}: {lo:?}..{hi:?}"
            );
        }
    }
}
