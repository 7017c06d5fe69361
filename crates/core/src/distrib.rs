//! Hierarchical fleet distribution: operator → regional relays → routers.
//!
//! The PR 3 deploy path serves every router from the operator's single
//! file server and re-prepares a full bundle per router — at 10k routers
//! the operator's egress and RSA bill both scale O(routers). This module
//! is the fleet-scale control plane built on the shared-package split of
//! [`FleetUpdate`] and wire-format v2 ([`crate::wire2`]):
//!
//! * the operator prepares **one** update (one graph extraction, one
//!   signature, one section-encryption pass) and publishes the shared
//!   document — `cert` + `sig` + `ciph` sections — exactly once;
//! * each **relay** syncs the shared document from the origin over a
//!   faulty link and re-serves it to its routers, so the origin's
//!   shared-payload egress is O(relays), not O(routers);
//! * each **router** fetches the shared sections from its relay and its
//!   tiny wrapped-key document from the origin (the only O(routers)
//!   traffic), splices them into a [`BundleV2`], and runs the full SR1–SR4
//!   install ladder;
//! * per-section checksums make every fetch independently verifiable: a
//!   corrupted section re-fetches alone, and a [`SectionCache`] carries
//!   verified sections across retry cycles and across update versions
//!   (delta downloads).
//!
//! Everything is deterministic per seed: entity keys, the fault streams of
//! origin and relays, per-router rng, and the serial relay-then-router
//! order. The whole run replays byte-identically — report, events, spans
//! (when [`FleetDeployConfig::trace`] is set), and quarantine accounting.
//!
//! [`deploy_fleet`] and
//! [`Fleet::deploy_resilient`](crate::system::Fleet::deploy_resilient) stay
//! two functions on purpose, with no packaging or transport parameter. The
//! per-router loop there (a fresh v1 bundle per cycle, whole-file downloads
//! from one flaky server) and the relay-tree loop here (one shared update,
//! relay sync, per-section fetches into a cache, pooled device keys,
//! streamed routers) share only their final install call, and that is
//! already one SR1–SR4 ladder behind
//! [`RouterDevice::install_bundle`] / [`RouterDevice::install_bundle_v2`].
//! One function would branch on its caller at every step.
//!
//! Memory note: a simulated NP core owns 1 MiB of packet memory, so 10k
//! live routers would need ~10 GB. [`deploy_fleet`] therefore *streams*
//! routers — provision, install, record, drop — keeping O(1) routers
//! alive regardless of fleet size ([`FleetDeployConfig::keep_routers`]
//! retains a prefix for traffic-level assertions in tests).

use crate::entities::{FleetUpdate, Manufacturer, NetworkOperator, RouterDevice};
use crate::wire2::{BundleV2, Section, SectionTag, TlvBundle, HEADER_LEN, TABLE_ENTRY_LEN};
use crate::SdmmonError;
use sdmmon_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use sdmmon_isa::asm::Program;
use sdmmon_net::channel::{Channel, FileServer};
use sdmmon_net::download::{DownloadClient, DownloadError, RetryPolicy};
use sdmmon_net::resilience::{FlakyServer, LossyChannel, OutageWindow};
use sdmmon_obs::trace::{self, TraceContext};
use sdmmon_obs::{metrics, Counter, Event, EventBus};
use sdmmon_rng::{split_seed, RngCore, SeedableRng, StdRng};
use std::collections::BTreeMap;

/// Key size of the manufacturer and operator. Signatures carry a SHA-256
/// DigestInfo, so the signing modulus must be ≥ 496 bits.
const AUTHORITY_KEY_BITS: usize = 512;
/// Path of the shared ciphertext document on origin and relays.
pub const SHARED_PATH: &str = "fleet/shared.sdb2";
/// Full document re-fetch rounds before a fetch gives up (each range
/// inside a round has its own bounded retry budget underneath).
const DOC_ROUNDS: u32 = 3;

/// Path of one router's wrapped-key document on the origin server.
pub fn key_path(router: usize) -> String {
    format!("fleet/key-{router}.sdb2")
}

/// A cache of verified sections keyed by `(tag, checksum, len)` — the
/// delta-download mechanism. Entries only ever hold bytes that matched
/// their table checksum, so a hit both skips the fetch and heals over a
/// tampered copy upstream; the cache cannot be poisoned by the transport.
#[derive(Debug, Clone, Default)]
pub struct SectionCache {
    map: BTreeMap<(u8, u64, usize), Vec<u8>>,
}

impl SectionCache {
    /// An empty cache.
    pub fn new() -> SectionCache {
        SectionCache::default()
    }

    /// Number of cached sections.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn get(&self, tag: SectionTag, checksum: u64, len: usize) -> Option<Vec<u8>> {
        self.map.get(&(tag.id(), checksum, len)).cloned()
    }

    fn put(&mut self, tag: SectionTag, checksum: u64, bytes: Vec<u8>) {
        self.map.insert((tag.id(), checksum, bytes.len()), bytes);
    }
}

/// Accounting of one [`fetch_document`] call (merged across rounds).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Transport attempts spent.
    pub attempts: u64,
    /// Sections fetched over the wire (cache misses).
    pub sections_fetched: u64,
    /// Sections served from the cache (delta hits).
    pub sections_reused: u64,
    /// Goodput: verified section payload bytes fetched over the wire
    /// (header and table bytes excluded).
    pub bytes_fetched: u64,
    /// Extra transport attempts per section index beyond the minimum chunk
    /// count — the corruption-localization witness: a damaged section
    /// shows up here alone.
    pub retries_by_section: Vec<u64>,
}

impl FetchStats {
    fn note_section(&mut self, idx: usize, extra: u64) {
        if self.retries_by_section.len() <= idx {
            self.retries_by_section.resize(idx + 1, 0);
        }
        self.retries_by_section[idx] += extra;
    }
}

/// Fetches a TLV document section by section: fixed header, checksummed
/// table, then each section independently — reusing `cache` hits and
/// verifying every miss against its table checksum. Corruption re-fetches
/// only the damaged section; an unchanged section is never re-downloaded.
///
/// # Errors
///
/// [`SdmmonError::Download`] when the path is unpublished or the bounded
/// round/attempt budget runs out (e.g. a persistently tampered section).
pub fn fetch_document<R: RngCore>(
    client: &DownloadClient,
    server: &mut FlakyServer,
    path: &str,
    link: &LossyChannel,
    cache: &mut SectionCache,
    rng: &mut R,
) -> Result<(Vec<Section>, FetchStats), SdmmonError> {
    let mut stats = FetchStats::default();
    let mut last = String::from("no rounds attempted");
    let mut sections = None;
    for _round in 0..DOC_ROUNDS {
        match fetch_round(client, server, path, link, cache, rng, &mut stats) {
            Ok(fetched) => {
                sections = Some(fetched);
                break;
            }
            Err(RoundEnd::NotPublished) => {
                last = "not published".to_owned();
                break;
            }
            Err(RoundEnd::Burned(why)) => last = why,
        }
    }
    metrics().add(Counter::FleetSectionsFetched, stats.sections_fetched);
    metrics().add(Counter::FleetSectionsReused, stats.sections_reused);
    match sections {
        Some(sections) => Ok((sections, stats)),
        None => Err(SdmmonError::Download(format!("document {path}: {last}"))),
    }
}

/// Why one round of [`fetch_document`] ended without the document.
enum RoundEnd {
    /// The path is not published: no later round can help.
    NotPublished,
    /// A range budget ran out or a header/table failed to parse; the next
    /// round starts from scratch.
    Burned(String),
}

/// One round of [`fetch_document`]: header, table, then every section.
/// Every transport attempt lands in `stats.attempts`.
fn fetch_round<R: RngCore>(
    client: &DownloadClient,
    server: &mut FlakyServer,
    path: &str,
    link: &LossyChannel,
    cache: &mut SectionCache,
    rng: &mut R,
    stats: &mut FetchStats,
) -> Result<Vec<Section>, RoundEnd> {
    // One ranged fetch, its attempts booked in `stats`: "not published"
    // aborts the document, an exhausted budget burns the round.
    let mut range = |stats: &mut FetchStats, offset, len, expected| {
        let fetched = client.download_range(server, path, offset, len, expected, link, rng);
        stats.attempts += match &fetched {
            Ok(spent) | Err(DownloadError::AttemptsExhausted { spent, .. }) => {
                spent.attempts.len() as u64
            }
            Err(DownloadError::NotFound { .. }) => 0,
        };
        fetched.map_err(|e| match e {
            DownloadError::NotFound { .. } => RoundEnd::NotPublished,
            e => RoundEnd::Burned(e.to_string()),
        })
    };
    // 1. Fixed header. No a-priori checksum exists for it — a corrupted
    // header fails magic/version/count validation (or the table check
    // below, via the table checksum it carries) and burns the round.
    let header = range(stats, 0, HEADER_LEN, None)?;
    let count =
        TlvBundle::parse_header(&header.bytes).map_err(|e| RoundEnd::Burned(e.to_string()))?;
    // 2. Section table, verified against the checksum the header
    // carries. A lying header makes this range unobtainable; the
    // bounded range budget burns and the round retries from scratch.
    let table_sum = u64::from_be_bytes(header.bytes[9..17].try_into().expect("8 bytes"));
    let table = range(stats, HEADER_LEN, count * TABLE_ENTRY_LEN, Some(table_sum))?;
    let mut prefix = header.bytes;
    prefix.extend_from_slice(&table.bytes);
    let entries = TlvBundle::parse_table(&prefix).map_err(|e| RoundEnd::Burned(e.to_string()))?;
    // 3. Each section independently: cache hit or verified ranged
    // fetch. Verified bytes enter the cache immediately, so a later
    // round (or a later cycle reusing this cache) skips them.
    let mut sections = Vec::with_capacity(entries.len());
    for (idx, e) in entries.iter().enumerate() {
        if let Some(bytes) = cache.get(e.tag, e.checksum, e.len) {
            stats.sections_reused += 1;
            stats.note_section(idx, 0);
            sections.push(Section::new(e.tag, bytes));
            continue;
        }
        let before = stats.attempts;
        let fetched = range(stats, e.offset, e.len, Some(e.checksum));
        // Attempts beyond what a clean fetch of this range needs (every
        // attempt of a failed one).
        let min = match fetched {
            Ok(_) => e.len.div_ceil(client.policy().chunk_bytes).max(1) as u64,
            Err(_) => 0,
        };
        stats.note_section(idx, (stats.attempts - before).saturating_sub(min));
        let r = fetched?;
        stats.sections_fetched += 1;
        stats.bytes_fetched += r.bytes.len() as u64;
        cache.put(e.tag, e.checksum, r.bytes.clone());
        sections.push(Section::new(e.tag, r.bytes));
    }
    Ok(sections)
}

/// Knobs of [`deploy_fleet`] — the fleet-scale deployment campaign.
#[derive(Debug, Clone)]
pub struct FleetDeployConfig {
    /// Fleet size.
    pub routers: usize,
    /// Regional relays between operator and routers (≥ 1 enforced).
    pub relays: usize,
    /// NP cores per router.
    pub cores_each: usize,
    /// Router device key size. The 16-byte package key plus 11 bytes of
    /// PKCS#1 padding needs a ≥ 216-bit modulus; 256 is the campaign
    /// default (small enough to generate in bulk, large enough to wrap).
    pub key_bits: usize,
    /// Distinct device key pairs generated up front; routers cycle through
    /// the pool (`min(routers, key_pool)`), bounding key-generation cost
    /// at fleet scale. Set `>= routers` for fully distinct keys.
    pub key_pool: usize,
    /// Fault model of every link (origin ↔ relay and relay ↔ router).
    pub link: LossyChannel,
    /// Per-range transport retry policy.
    pub retry: RetryPolicy,
    /// Full fetch + assemble + install cycles per router before quarantine.
    pub max_deploy_attempts: u32,
    /// Origin outage window (in origin fetch attempts), if any.
    pub outage: Option<OutageWindow>,
    /// Router index whose key document the origin blackholes — the
    /// deterministic quarantine fixture.
    pub blackhole_router: Option<usize>,
    /// Keep the first N installed routers alive in the report so tests can
    /// drive traffic through them; everything else streams out of memory.
    pub keep_routers: usize,
    /// Causal span layer: when set (and a bus is attached), the run emits
    /// the control-plane span chain alongside the `fleet.*` events — one
    /// `span.operator` root at clock 0, one `span.relay` per synced relay
    /// (clock = cumulative transport attempts), and one `span.install` per
    /// router whose trace id derives from [`trace::entity_flow`] — so
    /// [`sdmmon_obs::assemble_traces`] links operator → relay → install per
    /// router.
    pub trace: Option<TraceContext>,
}

impl Default for FleetDeployConfig {
    fn default() -> FleetDeployConfig {
        FleetDeployConfig {
            routers: 16,
            relays: 2,
            cores_each: 1,
            key_bits: 256,
            key_pool: 64,
            link: LossyChannel::clean(Channel::ideal_gigabit()),
            retry: RetryPolicy::default(),
            max_deploy_attempts: 3,
            outage: None,
            blackhole_router: None,
            keep_routers: 0,
            trace: None,
        }
    }
}

/// Terminal record of one router's hierarchical deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterRow {
    /// Router index.
    pub router: usize,
    /// Relay that served its shared sections.
    pub relay: usize,
    /// Whether the install ladder completed.
    pub installed: bool,
    /// Fetch + install cycles spent.
    pub cycles: u32,
    /// Sections fetched over the wire across all cycles.
    pub sections_fetched: u64,
    /// Sections reused from this router's cache across all cycles.
    pub sections_reused: u64,
    /// Terminal error, for quarantined routers.
    pub error: Option<String>,
}

/// Result of [`deploy_fleet`]: totals, egress accounting, one row per
/// router. Byte-stable per seed — no wall-clock anywhere.
#[derive(Debug)]
pub struct FleetScaleReport {
    /// The seed the run derives everything from.
    pub seed: u64,
    /// Fleet size.
    pub routers: usize,
    /// Relay count.
    pub relays: usize,
    /// Cores per router.
    pub cores_each: usize,
    /// Router key size.
    pub key_bits: usize,
    /// Distinct device keys generated.
    pub key_pool: usize,
    /// Routers that completed the install ladder.
    pub installed: usize,
    /// Routers that ran out of cycles (or lost their relay).
    pub quarantined: usize,
    /// Relays that synced the shared document.
    pub relays_synced: usize,
    /// Size of the shared TLV document.
    pub shared_document_bytes: usize,
    /// Size of one wrapped-key TLV document (router 0's).
    pub key_document_bytes: usize,
    /// Plaintext package payload size.
    pub package_bytes: usize,
    /// Origin section bytes served syncing the shared document to relays —
    /// O(relays), the hierarchical egress win.
    pub origin_shared_egress_bytes: u64,
    /// Origin section bytes served as per-router key documents —
    /// O(routers) but tiny (one wrapped key each).
    pub origin_key_egress_bytes: u64,
    /// Relay section bytes served to routers (shared sections).
    pub relay_egress_bytes: u64,
    /// Total sections fetched over any link.
    pub sections_fetched: u64,
    /// Total sections served from caches.
    pub sections_reused: u64,
    /// Global transport attempts (origin + all relays) — the fault clock
    /// at the end of the run.
    pub transport_attempts: u64,
    /// Indices of quarantined routers, ascending.
    pub quarantined_routers: Vec<usize>,
    /// One row per router, in index order.
    pub rows: Vec<RouterRow>,
    /// The first [`FleetDeployConfig::keep_routers`] installed routers,
    /// alive for traffic-level assertions (never serialized).
    pub kept: Vec<RouterDevice>,
}

impl FleetScaleReport {
    /// Strict accounting: every router ends installed xor quarantined, and
    /// the rows agree with the totals.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify_accounting(&self) -> Result<(), String> {
        if self.installed + self.quarantined != self.routers {
            return Err(format!(
                "installed {} + quarantined {} != routers {}",
                self.installed, self.quarantined, self.routers
            ));
        }
        if self.rows.len() != self.routers {
            return Err(format!(
                "{} rows for {} routers",
                self.rows.len(),
                self.routers
            ));
        }
        let installed = self.rows.iter().filter(|r| r.installed).count();
        if installed != self.installed {
            return Err(format!(
                "rows say {installed} installed, report says {}",
                self.installed
            ));
        }
        let quarantined: Vec<usize> = self
            .rows
            .iter()
            .filter(|r| !r.installed)
            .map(|r| r.router)
            .collect();
        if quarantined != self.quarantined_routers {
            return Err("quarantined_routers disagrees with rows".to_owned());
        }
        for (i, row) in self.rows.iter().enumerate() {
            if row.router != i {
                return Err(format!("row {i} carries router index {}", row.router));
            }
            if !row.installed && row.error.is_none() {
                return Err(format!("quarantined router {i} has no error"));
            }
        }
        Ok(())
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "fleet seed {}: {}/{} installed via {} relays ({} quarantined), \
             origin egress {} B shared + {} B keys, relay egress {} B, \
             {} sections fetched / {} reused, {} transport attempts",
            self.seed,
            self.installed,
            self.routers,
            self.relays,
            self.quarantined,
            self.origin_shared_egress_bytes,
            self.origin_key_egress_bytes,
            self.relay_egress_bytes,
            self.sections_fetched,
            self.sections_reused,
            self.transport_attempts
        )
    }
}

/// Deploys one shared fleet update through the relay tree, streaming
/// routers so memory stays O(1) in fleet size. See the module docs for the
/// protocol and [`FleetDeployConfig`] for the knobs (including the optional
/// span layer, [`FleetDeployConfig::trace`]). Deterministic per `seed` — a
/// rerun replays the report and event stream byte-identically.
///
/// # Errors
///
/// Systemic failures only: [`SdmmonError::NoSuchCore`] for
/// `cores_each == 0` (checked before any key generation), key generation,
/// packaging, and [`SdmmonError::MalformedPackage`] when the report fails
/// [`FleetScaleReport::verify_accounting`] — a campaign whose books do not
/// balance fails loudly instead of returning a report. Transport and
/// verification failures end in quarantine rows, never an error.
pub fn deploy_fleet(
    config: &FleetDeployConfig,
    program: &Program,
    seed: u64,
    bus: Option<&EventBus>,
) -> Result<FleetScaleReport, SdmmonError> {
    if config.cores_each == 0 {
        return Err(SdmmonError::NoSuchCore { core: 0, cores: 0 });
    }
    let tracing = config.trace.as_ref();
    let mut rng = StdRng::seed_from_u64(seed);
    let manufacturer = Manufacturer::new("fleet-acme", AUTHORITY_KEY_BITS, &mut rng)?;
    let mut operator = NetworkOperator::new("fleet-op", AUTHORITY_KEY_BITS, &mut rng)?;
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "fleet-op"));

    // Bounded provisioning pool: key generation is the one per-router cost
    // the protocol cannot amortize, so it is amortized by reuse instead.
    let pool_len = config.key_pool.clamp(1, config.routers.max(1));
    let pool: Vec<RsaKeyPair> = (0..pool_len)
        .map(|_| RsaKeyPair::generate(config.key_bits, &mut rng))
        .collect::<Result<_, _>>()?;

    // One shared update; one batched key-wrap pass over the whole fleet.
    let update = operator.prepare_fleet_update(program, &mut rng)?;
    let recipients: Vec<&RsaPublicKey> = (0..config.routers)
        .map(|i| &pool[i % pool_len].public)
        .collect();
    let wrapped = update.wrap_keys(&recipients, &mut rng)?;

    // Origin: the shared document once, plus one tiny key document per
    // router — the only O(routers) bytes the origin owns.
    let shared_doc = update.shared_document();
    let shared_document_bytes = shared_doc.len();
    let key_document_bytes = wrapped
        .first()
        .map_or(0, |w| FleetUpdate::key_document(w.clone()).len());
    let mut origin = FlakyServer::new(FileServer::new(), rng.next_u64());
    origin.server_mut().publish(SHARED_PATH, shared_doc);
    for (i, w) in wrapped.iter().enumerate() {
        origin
            .server_mut()
            .publish(key_path(i), FleetUpdate::key_document(w.clone()));
    }
    if let Some(window) = config.outage {
        origin.schedule_outage(window);
    }
    if let Some(victim) = config.blackhole_router {
        origin.blackhole(key_path(victim));
    }

    let relay_count = config.relays.max(1);
    let mut relays: Vec<FlakyServer> = (0..relay_count)
        .map(|_| FlakyServer::new(FileServer::new(), rng.next_u64()))
        .collect();
    let router_split = rng.next_u64();

    let client = DownloadClient::new(config.retry);
    if let Some(bus) = bus {
        bus.record(
            Event::new("fleet.update_prepared", 0)
                .field("sequence", update.sequence())
                .field("routers", config.routers)
                .field("relays", relay_count)
                .field("shared_bytes", shared_document_bytes)
                .field("package_bytes", update.package_bytes())
                .field("cipher_sections", update.cipher_sections().len()),
        );
        if tracing.is_some() {
            metrics().inc(Counter::TraceSpans);
            bus.record(
                Event::new(trace::KIND_SPAN_OPERATOR, 0).field("sequence", update.sequence()),
            );
        }
    }

    // Phase one — relay sync, serial in relay order. A relay that cannot
    // assemble the shared document is down for the whole run; its routers
    // quarantine with a relay error.
    let mut relay_alive = vec![false; relay_count];
    let mut origin_shared_egress_bytes = 0u64;
    let mut sections_fetched = 0u64;
    let mut sections_reused = 0u64;
    let mut relays_synced = 0usize;
    for r in 0..relay_count {
        let mut cache = SectionCache::new();
        let mut relay_rng = StdRng::seed_from_u64(split_seed(router_split, 0x5e1a_0000 + r as u64));
        let synced = fetch_document(
            &client,
            &mut origin,
            SHARED_PATH,
            &config.link,
            &mut cache,
            &mut relay_rng,
        );
        let clock = origin.attempts() + relays.iter().map(FlakyServer::attempts).sum::<u64>();
        match synced {
            Ok((sections, stats)) => {
                origin_shared_egress_bytes += stats.bytes_fetched;
                sections_fetched += stats.sections_fetched;
                sections_reused += stats.sections_reused;
                relays[r]
                    .server_mut()
                    .publish(SHARED_PATH, TlvBundle::new(sections).to_bytes());
                relay_alive[r] = true;
                relays_synced += 1;
                metrics().inc(Counter::FleetRelaySyncs);
                metrics().add(Counter::FleetOriginEgressBytes, stats.bytes_fetched);
                if let Some(bus) = bus {
                    bus.record(
                        Event::new("fleet.relay_synced", clock)
                            .field("relay", r)
                            .field("sections", stats.sections_fetched)
                            .field("attempts", stats.attempts)
                            .field("bytes", stats.bytes_fetched),
                    );
                    if tracing.is_some() {
                        metrics().inc(Counter::TraceSpans);
                        bus.record(
                            Event::new(trace::KIND_SPAN_RELAY, clock)
                                .field("relay", r)
                                .field("attempts", stats.attempts),
                        );
                    }
                }
            }
            Err(e) => {
                if let Some(bus) = bus {
                    bus.record(
                        Event::new("fleet.relay_failed", clock)
                            .field("relay", r)
                            .field("error", e.to_string()),
                    );
                }
            }
        }
    }

    // Phase two — routers, serial in index order, streamed: each router is
    // provisioned, deployed, recorded, and dropped before the next starts.
    let cores: Vec<usize> = (0..config.cores_each).collect();
    let mut rows: Vec<RouterRow> = Vec::with_capacity(config.routers);
    let mut kept: Vec<RouterDevice> = Vec::new();
    let mut installed = 0usize;
    let mut origin_key_egress_bytes = 0u64;
    let mut relay_egress_bytes = 0u64;
    for i in 0..config.routers {
        let relay = i * relay_count / config.routers.max(1);
        let mut row = RouterRow {
            router: i,
            relay,
            installed: false,
            cycles: 0,
            sections_fetched: 0,
            sections_reused: 0,
            error: None,
        };
        if !relay_alive[relay] {
            row.error = Some(format!("relay {relay} unreachable"));
        } else {
            let mut router_rng = StdRng::seed_from_u64(split_seed(router_split, i as u64));
            let mut router = manufacturer.provision_router_with_keys(
                &format!("router-{i}"),
                config.cores_each,
                pool[i % pool_len].clone(),
            );
            let mut cache = SectionCache::new();
            let mut outcome: Option<RouterDevice> = None;
            while row.cycles < config.max_deploy_attempts.max(1) {
                row.cycles += 1;
                metrics().inc(Counter::FleetDeployCycles);
                // Shared sections from the relay. Verified sections stay
                // in the router's cache across cycles, so a retry only
                // re-fetches what actually failed.
                let shared = match fetch_document(
                    &client,
                    &mut relays[relay],
                    SHARED_PATH,
                    &config.link,
                    &mut cache,
                    &mut router_rng,
                ) {
                    Ok((sections, stats)) => {
                        row.sections_fetched += stats.sections_fetched;
                        row.sections_reused += stats.sections_reused;
                        relay_egress_bytes += stats.bytes_fetched;
                        sections
                    }
                    Err(e) => {
                        row.error = Some(e.to_string());
                        continue;
                    }
                };
                // The wrapped key straight from the origin — tiny, and
                // per-router by design (SR4).
                let key_sections = match fetch_document(
                    &client,
                    &mut origin,
                    &key_path(i),
                    &config.link,
                    &mut cache,
                    &mut router_rng,
                ) {
                    Ok((sections, stats)) => {
                        row.sections_fetched += stats.sections_fetched;
                        row.sections_reused += stats.sections_reused;
                        origin_key_egress_bytes += stats.bytes_fetched;
                        sections
                    }
                    Err(e) => {
                        row.error = Some(e.to_string());
                        continue;
                    }
                };
                let wrapped_key = match key_sections.as_slice() {
                    [s] if s.tag == SectionTag::WrappedKey => s.bytes.clone(),
                    _ => {
                        row.error = Some("malformed key document".to_owned());
                        continue;
                    }
                };
                // Assemble + full SR1–SR4 install ladder. install_bundle_v2
                // is atomic, so a failed cycle leaves the router clean.
                let result = BundleV2::assemble(&shared, wrapped_key)
                    .map_err(|e| SdmmonError::MalformedPackage(e.to_string()))
                    .and_then(|b| router.install_bundle_v2(&b, &cores).map(|_| ()));
                match result {
                    Ok(()) => {
                        outcome = Some(router);
                        break;
                    }
                    Err(e) => {
                        row.error = Some(e.to_string());
                    }
                }
            }
            if let Some(router) = outcome {
                row.installed = true;
                row.error = None;
                if kept.len() < config.keep_routers {
                    kept.push(router);
                }
            }
        }
        sections_fetched += row.sections_fetched;
        sections_reused += row.sections_reused;
        let clock = origin.attempts() + relays.iter().map(FlakyServer::attempts).sum::<u64>();
        if row.installed {
            installed += 1;
            metrics().inc(Counter::FleetRoutersInstalled);
        } else {
            metrics().inc(Counter::FleetRoutersQuarantined);
        }
        if let Some(bus) = bus {
            let kind = if row.installed {
                "fleet.router_installed"
            } else {
                "fleet.router_quarantined"
            };
            let mut event = Event::new(kind, clock)
                .field("router", i)
                .field("relay", relay)
                .field("cycles", row.cycles)
                .field("sections_fetched", row.sections_fetched)
                .field("sections_reused", row.sections_reused);
            if let Some(error) = &row.error {
                event = event.field("error", error.as_str());
            }
            bus.record(event);
            if let Some(tc) = tracing {
                metrics().inc(Counter::TraceSpans);
                bus.record(
                    Event::new(trace::KIND_SPAN_INSTALL, clock)
                        .field("trace", tc.trace_id(trace::entity_flow("router", i as u64)))
                        .field("router", i)
                        .field("relay", relay)
                        .field("cycles", row.cycles)
                        .field("installed", row.installed),
                );
            }
        }
        rows.push(row);
    }

    metrics().add(Counter::FleetRelayEgressBytes, relay_egress_bytes);
    metrics().add(Counter::FleetOriginEgressBytes, origin_key_egress_bytes);
    let transport_attempts =
        origin.attempts() + relays.iter().map(FlakyServer::attempts).sum::<u64>();
    let quarantined_routers: Vec<usize> = rows
        .iter()
        .filter(|r| !r.installed)
        .map(|r| r.router)
        .collect();
    let report = FleetScaleReport {
        seed,
        routers: config.routers,
        relays: relay_count,
        cores_each: config.cores_each,
        key_bits: config.key_bits,
        key_pool: pool_len,
        installed,
        quarantined: config.routers - installed,
        relays_synced,
        shared_document_bytes,
        key_document_bytes,
        package_bytes: update.package_bytes(),
        origin_shared_egress_bytes,
        origin_key_egress_bytes,
        relay_egress_bytes,
        sections_fetched,
        sections_reused,
        transport_attempts,
        quarantined_routers,
        rows,
        kept,
    };
    report
        .verify_accounting()
        .map_err(SdmmonError::MalformedPackage)?;
    if let Some(bus) = bus {
        bus.record(
            Event::new("fleet.deploy_done", transport_attempts)
                .field("installed", report.installed)
                .field("quarantined", report.quarantined)
                .field("origin_shared_egress", report.origin_shared_egress_bytes)
                .field("origin_key_egress", report.origin_key_egress_bytes)
                .field("relay_egress", report.relay_egress_bytes),
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdmmon_npu::programs;

    fn base_config(routers: usize, relays: usize) -> FleetDeployConfig {
        FleetDeployConfig {
            routers,
            relays,
            key_pool: 8,
            ..FleetDeployConfig::default()
        }
    }

    #[test]
    fn clean_fleet_installs_everyone() {
        let program = programs::ipv4_forward().unwrap();
        let report = deploy_fleet(&base_config(12, 3), &program, 0xF1EE7, None).unwrap();
        report.verify_accounting().unwrap();
        assert_eq!(report.installed, 12);
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.relays_synced, 3);
        // Routers pull the shared payload from relays, not the origin.
        assert!(report.relay_egress_bytes > report.origin_shared_egress_bytes);
    }

    #[test]
    fn origin_shared_egress_is_o_relays() {
        let program = programs::ipv4_forward().unwrap();
        let two = deploy_fleet(&base_config(24, 2), &program, 7, None).unwrap();
        let eight = deploy_fleet(&base_config(24, 8), &program, 7, None).unwrap();
        // Shared egress scales with relays (4x), not routers (fixed count).
        assert_eq!(
            eight.origin_shared_egress_bytes,
            4 * two.origin_shared_egress_bytes
        );
        // Relay egress scales with routers and is invariant in relay count.
        assert_eq!(two.relay_egress_bytes, eight.relay_egress_bytes);
    }

    #[test]
    fn blackholed_key_quarantines_exactly_that_router() {
        let program = programs::ipv4_forward().unwrap();
        let mut config = base_config(10, 2);
        config.blackhole_router = Some(4);
        let report = deploy_fleet(&config, &program, 99, None).unwrap();
        report.verify_accounting().unwrap();
        assert_eq!(report.quarantined_routers, vec![4]);
        assert_eq!(report.installed, 9);
        assert!(report.rows[4].error.is_some());
    }

    #[test]
    fn replay_is_byte_identical_per_seed() {
        let program = programs::ipv4_forward().unwrap();
        let mut config = base_config(8, 2);
        config.link = config.link.with_loss(0.1).with_corrupt(0.1);
        let a = deploy_fleet(&config, &program, 1234, None).unwrap();
        let b = deploy_fleet(&config, &program, 1234, None).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.transport_attempts, b.transport_attempts);
        assert_eq!(a.origin_shared_egress_bytes, b.origin_shared_egress_bytes);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn zero_core_fleet_is_an_error_not_a_panic() {
        let program = programs::ipv4_forward().unwrap();
        let mut config = base_config(4, 2);
        config.cores_each = 0;
        assert_eq!(
            deploy_fleet(&config, &program, 5, None).unwrap_err(),
            SdmmonError::NoSuchCore { core: 0, cores: 0 }
        );
    }

    #[test]
    fn kept_routers_forward_traffic() {
        use sdmmon_npu::runtime::Verdict;
        let program = programs::ipv4_forward().unwrap();
        let mut config = base_config(4, 1);
        config.keep_routers = 2;
        let report = deploy_fleet(&config, &program, 11, None).unwrap();
        let mut kept = report.kept;
        assert_eq!(kept.len(), 2);
        let packet = programs::testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"x");
        for router in &mut kept {
            assert_eq!(router.process_on(0, &packet).verdict, Verdict::Forward(2));
        }
    }
}
