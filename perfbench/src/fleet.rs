//! `fleet-10k`: the fleet install path. One `distrib::deploy_fleet` call
//! rolls one shared update out to 10 000 single-core routers through 16
//! relays, over links that lose 2% and corrupt 1% of transfers, with
//! 256-bit device keys drawn from a pool of 64.
//!
//! Untraced, the run makes timed `deploy_fleet` calls (`pps` is routers per
//! second of one; every report must pass `verify_accounting`) and replays
//! every third one's phases through the same public functions with the
//! same seeds ([`replay`]), timing each router from provisioning to
//! installed — the per-router latency. The replay must reproduce
//! `deploy_fleet`'s report exactly: every row, the totals, transport
//! attempts and egress bytes.
//!
//! Traced, the replay additionally times every phase and, for each
//! installed router, replays the install's key operations on its bundle.

use crate::report::{self, clock, median, quantile, show, Ledger, Results};
use crate::Args;
use sdmmon_core::distrib::{
    deploy_fleet, fetch_document, key_path, FleetDeployConfig, FleetScaleReport, RouterRow,
    SectionCache, SHARED_PATH,
};
use sdmmon_core::entities::{FleetUpdate, Manufacturer, NetworkOperator, RouterDevice};
use sdmmon_core::wire2::{BundleV2, SectionTag, TlvBundle};
use sdmmon_core::SdmmonError;
use sdmmon_crypto::aes::Aes;
use sdmmon_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use sdmmon_isa::asm::Program;
use sdmmon_net::channel::{Channel, FileServer};
use sdmmon_net::download::DownloadClient;
use sdmmon_net::resilience::{FlakyServer, LossyChannel};
use sdmmon_npu::programs;
use sdmmon_rng::{split_seed, RngCore, SeedableRng, StdRng};
use std::time::{Duration, Instant};

/// `deploy_fleet`'s manufacturer and operator key size.
const AUTHORITY_KEY_BITS: usize = 512;
/// Program assemblies per `deploy_fleet` call (`setup_s` is their median).
const SETUPS: usize = 16;

fn config() -> FleetDeployConfig {
    FleetDeployConfig {
        routers: 10_000,
        relays: 16,
        cores_each: 1,
        key_bits: 256,
        key_pool: 64,
        link: LossyChannel::clean(Channel::ideal_gigabit())
            .with_loss(0.02)
            .with_corrupt(0.01),
        ..FleetDeployConfig::default()
    }
}

/// Phase totals of one replay. The per-router latency is recorded in every
/// replay; the key-operation replicas only when traced.
#[derive(Debug, Default)]
struct Layers {
    authorities: Duration,
    keygen: Duration,
    keygens: u64,
    package: Duration,
    sign: Duration,
    wrap: Duration,
    relay_sync: Duration,
    provision: Duration,
    provisioned: u64,
    fetch: Duration,
    fetching_routers: u64,
    install: Duration,
    installs: u64,
    unwrap: Duration,
    aes: Duration,
    cert: Duration,
    sig_verify: Duration,
    replicas: u64,
    /// Time spent in replicas, excluded from the replay's end to end.
    replica_time: Duration,
    /// Per-router deploy latency in microseconds.
    latency: Vec<f64>,
}

/// The replay's totals, in `FleetScaleReport` terms.
#[derive(Debug, Default, PartialEq)]
struct Totals {
    installed: usize,
    quarantined: usize,
    relays_synced: usize,
    origin_shared_egress_bytes: u64,
    origin_key_egress_bytes: u64,
    relay_egress_bytes: u64,
    sections_fetched: u64,
    sections_reused: u64,
    transport_attempts: u64,
    quarantined_routers: Vec<usize>,
}

impl Totals {
    fn of(r: &FleetScaleReport) -> Totals {
        Totals {
            installed: r.installed,
            quarantined: r.quarantined,
            relays_synced: r.relays_synced,
            origin_shared_egress_bytes: r.origin_shared_egress_bytes,
            origin_key_egress_bytes: r.origin_key_egress_bytes,
            relay_egress_bytes: r.relay_egress_bytes,
            sections_fetched: r.sections_fetched,
            sections_reused: r.sections_reused,
            transport_attempts: r.transport_attempts,
            quarantined_routers: r.quarantined_routers.clone(),
        }
    }
}

/// Replays `deploy_fleet(cfg, program, seed, None)` phase by phase through
/// the public functions it is made of, drawing the same random streams in
/// the same order, and checks the result against `expected`.
fn replay(
    cfg: &FleetDeployConfig,
    program: &Program,
    seed: u64,
    traced: bool,
    expected: &FleetScaleReport,
    l: &mut Layers,
) -> Result<(), String> {
    let err = |e: SdmmonError| format!("replay: {e}");
    let mut rng = StdRng::seed_from_u64(seed);
    let (manufacturer, d) = clock(|| Manufacturer::new("fleet-acme", AUTHORITY_KEY_BITS, &mut rng));
    l.authorities += d;
    let manufacturer = manufacturer.map_err(err)?;
    // The operator keeps its private key; a traced replay regenerates the
    // identical pair from a copy of the rng to replay the signature.
    let operator_keys = if traced {
        let mut r = rng.clone();
        let (keys, d) = clock(|| RsaKeyPair::generate(AUTHORITY_KEY_BITS, &mut r));
        l.replica_time += d;
        Some(keys.map_err(|e| err(e.into()))?)
    } else {
        None
    };
    let (operator, d) = clock(|| {
        let mut op = NetworkOperator::new("fleet-op", AUTHORITY_KEY_BITS, &mut rng)?;
        op.accept_certificate(manufacturer.certify_operator(op.public_key(), "fleet-op"));
        Ok::<_, SdmmonError>(op)
    });
    l.authorities += d;
    let operator = operator.map_err(err)?;

    let pool_len = cfg.key_pool.clamp(1, cfg.routers.max(1));
    let mut pool = Vec::with_capacity(pool_len);
    for _ in 0..pool_len {
        let (keys, d) = clock(|| RsaKeyPair::generate(cfg.key_bits, &mut rng));
        l.keygen += d;
        l.keygens += 1;
        pool.push(keys.map_err(|e| err(e.into()))?);
    }
    let (update, d) = clock(|| operator.prepare_fleet_update(program, &mut rng));
    l.package += d;
    let update = update.map_err(err)?;
    let recipients: Vec<&RsaPublicKey> = (0..cfg.routers)
        .map(|i| &pool[i % pool_len].public)
        .collect();
    let (wrapped, d) = clock(|| update.wrap_keys(&recipients, &mut rng));
    l.wrap += d;
    let wrapped = wrapped.map_err(err)?;

    let mut origin = FlakyServer::new(FileServer::new(), rng.next_u64());
    origin
        .server_mut()
        .publish(SHARED_PATH, update.shared_document());
    for (i, w) in wrapped.iter().enumerate() {
        origin
            .server_mut()
            .publish(key_path(i), FleetUpdate::key_document(w.clone()));
    }
    if let Some(window) = cfg.outage {
        origin.schedule_outage(window);
    }
    if let Some(victim) = cfg.blackhole_router {
        origin.blackhole(key_path(victim));
    }
    let relay_count = cfg.relays.max(1);
    let mut relays: Vec<FlakyServer> = (0..relay_count)
        .map(|_| FlakyServer::new(FileServer::new(), rng.next_u64()))
        .collect();
    let router_split = rng.next_u64();
    let client = DownloadClient::new(cfg.retry);

    let mut t = Totals::default();
    let mut relay_alive = vec![false; relay_count];
    for (r, alive) in relay_alive.iter_mut().enumerate() {
        let mut cache = SectionCache::new();
        let mut relay_rng = StdRng::seed_from_u64(split_seed(router_split, 0x5e1a_0000 + r as u64));
        let (synced, d) = clock(|| {
            fetch_document(
                &client,
                &mut origin,
                SHARED_PATH,
                &cfg.link,
                &mut cache,
                &mut relay_rng,
            )
        });
        l.relay_sync += d;
        if let Ok((sections, stats)) = synced {
            t.origin_shared_egress_bytes += stats.bytes_fetched;
            t.sections_fetched += stats.sections_fetched;
            t.sections_reused += stats.sections_reused;
            relays[r]
                .server_mut()
                .publish(SHARED_PATH, TlvBundle::new(sections).to_bytes());
            *alive = true;
            t.relays_synced += 1;
        }
    }

    let cores: Vec<usize> = (0..cfg.cores_each).collect();
    let mut rows = Vec::with_capacity(cfg.routers);
    let mut signed = false;
    for i in 0..cfg.routers {
        let relay = i * relay_count / cfg.routers.max(1);
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
            let mut spent = Duration::ZERO;
            let mut router_rng = StdRng::seed_from_u64(split_seed(router_split, i as u64));
            let (mut router, d) = clock(|| {
                manufacturer.provision_router_with_keys(
                    &format!("router-{i}"),
                    cfg.cores_each,
                    pool[i % pool_len].clone(),
                )
            });
            l.provision += d;
            l.provisioned += 1;
            l.fetching_routers += 1;
            spent += d;
            let mut cache = SectionCache::new();
            let mut installed_bundle: Option<BundleV2> = None;
            while row.cycles < cfg.max_deploy_attempts.max(1) {
                row.cycles += 1;
                let (shared, d) = clock(|| {
                    fetch_document(
                        &client,
                        &mut relays[relay],
                        SHARED_PATH,
                        &cfg.link,
                        &mut cache,
                        &mut router_rng,
                    )
                });
                l.fetch += d;
                spent += d;
                let shared = match shared {
                    Ok((sections, stats)) => {
                        row.sections_fetched += stats.sections_fetched;
                        row.sections_reused += stats.sections_reused;
                        t.relay_egress_bytes += stats.bytes_fetched;
                        sections
                    }
                    Err(e) => {
                        row.error = Some(e.to_string());
                        continue;
                    }
                };
                let (keys, d) = clock(|| {
                    fetch_document(
                        &client,
                        &mut origin,
                        &key_path(i),
                        &cfg.link,
                        &mut cache,
                        &mut router_rng,
                    )
                });
                l.fetch += d;
                spent += d;
                let key_sections = match keys {
                    Ok((sections, stats)) => {
                        row.sections_fetched += stats.sections_fetched;
                        row.sections_reused += stats.sections_reused;
                        t.origin_key_egress_bytes += stats.bytes_fetched;
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
                let (result, d) = clock(|| install(&mut router, &shared, wrapped_key, &cores));
                l.install += d;
                l.installs += 1;
                spent += d;
                match result {
                    Ok(bundle) => {
                        installed_bundle = Some(bundle);
                        break;
                    }
                    Err(e) => row.error = Some(e.to_string()),
                }
            }
            if let Some(bundle) = installed_bundle {
                row.installed = true;
                row.error = None;
                l.latency.push(spent.as_secs_f64() * 1e6);
                if traced {
                    let payload = replicate_install(
                        &bundle,
                        &pool[i % pool_len],
                        &manufacturer,
                        &operator,
                        l,
                    )?;
                    if !signed {
                        let keys = operator_keys
                            .as_ref()
                            .expect("traced replay regenerates the operator key");
                        let (sig, d) = clock(|| keys.private.sign(&payload));
                        l.sign += d;
                        l.replica_time += d;
                        if sig != bundle.signature {
                            return Err(
                                "sign replica did not reproduce the update's signature".into()
                            );
                        }
                        signed = true;
                    }
                }
            }
        }
        t.sections_fetched += row.sections_fetched;
        t.sections_reused += row.sections_reused;
        if row.installed {
            t.installed += 1;
        }
        rows.push(row);
    }
    t.quarantined = cfg.routers - t.installed;
    t.quarantined_routers = rows
        .iter()
        .filter(|r| !r.installed)
        .map(|r| r.router)
        .collect();
    t.transport_attempts =
        origin.attempts() + relays.iter().map(FlakyServer::attempts).sum::<u64>();
    if let Some(i) =
        (0..rows.len().max(expected.rows.len())).find(|&i| rows.get(i) != expected.rows.get(i))
    {
        return Err(format!(
            "replay row {i} diverged from deploy_fleet: {:?} vs {:?}",
            rows.get(i),
            expected.rows.get(i)
        ));
    }
    let want = Totals::of(expected);
    if t != want {
        return Err(format!(
            "replay totals {t:?} diverged from deploy_fleet {want:?}"
        ));
    }
    Ok(())
}

/// `BundleV2::assemble` + `install_bundle_v2`, exactly as `deploy_fleet`
/// runs them; returns the installed bundle.
fn install(
    router: &mut RouterDevice,
    shared: &[sdmmon_core::wire2::Section],
    wrapped_key: Vec<u8>,
    cores: &[usize],
) -> Result<BundleV2, SdmmonError> {
    let bundle = BundleV2::assemble(shared, wrapped_key)
        .map_err(|e| SdmmonError::MalformedPackage(e.to_string()))?;
    router.install_bundle_v2(&bundle, cores)?;
    Ok(bundle)
}

/// Replays the key operations of one v2 install on its bundle; returns the
/// decrypted payload.
fn replicate_install(
    bundle: &BundleV2,
    device: &RsaKeyPair,
    manufacturer: &Manufacturer,
    operator: &NetworkOperator,
    l: &mut Layers,
) -> Result<Vec<u8>, String> {
    let (key, unwrap) = clock(|| device.private.decrypt(&bundle.wrapped_key));
    let key = key.map_err(|e| format!("unwrap replica: {e}"))?;
    let (payload, aes) = clock(|| {
        let aes = Aes::new(&key)?;
        let mut payload = Vec::new();
        for section in &bundle.cipher_sections {
            payload.extend_from_slice(&aes.decrypt_cbc(section)?);
        }
        Ok::<_, sdmmon_crypto::CryptoError>(payload)
    });
    let payload = payload.map_err(|e| format!("decrypt replica: {e}"))?;
    let (cert_ok, cert) = clock(|| bundle.certificate.verify(manufacturer.public_key()));
    let (sig_ok, sig_verify) = clock(|| operator.public_key().verify(&payload, &bundle.signature));
    if !(cert_ok && sig_ok) {
        return Err("install replica failed to verify an installed bundle".into());
    }
    l.unwrap += unwrap;
    l.aes += aes;
    l.cert += cert;
    l.sig_verify += sig_verify;
    l.replicas += 1;
    l.replica_time += unwrap + aes + cert + sig_verify;
    Ok(payload)
}

fn deploy(
    cfg: &FleetDeployConfig,
    program: &Program,
    seed: u64,
) -> Result<(FleetScaleReport, Duration), String> {
    let (report, d) = clock(|| deploy_fleet(cfg, program, seed, None));
    let report = report.map_err(|e| format!("deploy_fleet: {e}"))?;
    report.verify_accounting()?;
    Ok((report, d))
}

/// Runs `fleet-10k`.
pub fn run(args: &Args) -> Result<Results, String> {
    let cfg = config();
    let seed = split_seed(args.seed, 9);
    let mut setups = Vec::new();
    let program = programs::ipv4_forward().map_err(|e| format!("workload assembles: {e}"))?;
    let mut results = Results::default();
    results.context("routers", cfg.routers);
    results.context("relays", cfg.relays);
    results.context("key_bits", cfg.key_bits);
    results.context("key_pool", cfg.key_pool);
    println!(
        "workload fleet-10k: {} routers, {} relays, {}-bit device keys from a pool of {}, \
         2% loss and 1% corruption on every link",
        cfg.routers, cfg.relays, cfg.key_bits, cfg.key_pool
    );
    if args.trace {
        traced(args, &cfg, &program, seed, &mut results)?;
        return Ok(results);
    }

    let deadline = Instant::now() + args.seconds;
    let mut deploys = Vec::new();
    let mut layers = Layers::default();
    let mut failed = 0u64;
    while deploys.is_empty() || Instant::now() < deadline {
        setups.extend((0..SETUPS).map(|_| clock(programs::ipv4_forward).1.as_secs_f64()));
        let (report, d) = deploy(&cfg, &program, seed)?;
        if deploys.is_empty() {
            println!("deploy: {}", report.summary());
        }
        deploys.push(d.as_secs_f64());
        failed += report.quarantined as u64;
        // Every third call is replayed: enough per-router samples, more
        // deploy samples.
        if deploys.len() % 3 == 1 {
            replay(&cfg, &program, seed, false, &report, &mut layers)?;
        }
    }
    let deploy_s = median(&mut deploys);
    show(
        "deploy_s",
        deploy_s,
        &format!("median of {} deploy_fleet calls", deploys.len()),
    );
    show(
        "fail_rate",
        failed as f64 / (cfg.routers * deploys.len()) as f64,
        "quarantined routers",
    );
    let n = layers.latency.len();
    println!(
        "also latency_p90_us = {:.4} us, latency_p99_us = {:.4} us \
         (per router, n={n}; unbounded, see README.md)",
        quantile(&mut layers.latency, 0.9),
        quantile(&mut layers.latency, 0.99)
    );
    let values = [
        (
            "setup_s",
            median(&mut setups),
            format!("median of {} program assemblies", setups.len()),
        ),
        (
            "pps",
            cfg.routers as f64 / deploy_s,
            "routers installed per second of deploy_fleet".into(),
        ),
        (
            "latency_p50_us",
            quantile(&mut layers.latency, 0.5),
            format!("per router, n={n}"),
        ),
        ("peak_rss_mb", report::peak_rss_mb(), String::new()),
    ];
    for (name, value, note) in values {
        show(name, value, &note);
        results.set(name, value);
    }
    results.context("deploy_samples", deploys.len());
    results.context("latency_samples", n);
    results.context("setup_samples", setups.len());
    results.attempted = (cfg.routers * deploys.len()) as u64;
    results.failed = failed;
    Ok(results)
}

fn traced(
    args: &Args,
    cfg: &FleetDeployConfig,
    program: &Program,
    seed: u64,
    results: &mut Results,
) -> Result<(), String> {
    let deadline = Instant::now() + args.seconds / 2;
    let mut deploys = Vec::new();
    let mut report = None;
    while deploys.is_empty() || Instant::now() < deadline {
        let (r, d) = deploy(cfg, program, seed)?;
        deploys.push(d.as_secs_f64());
        report = Some(r);
    }
    let report = report.expect("at least one deploy");
    let mut l = Layers::default();
    let (res, wall) = clock(|| replay(cfg, program, seed, true, &report, &mut l));
    res?;
    // One more untraced call after the traced replay, so the baseline
    // brackets it.
    deploys.push(deploy(cfg, program, seed)?.1.as_secs_f64());
    let e2e = wall.saturating_sub(l.replica_time);

    let routers = cfg.routers as u64;
    let mut ledger = Ledger::new("fleet-10k", e2e, routers, "router");
    ledger.layer(
        "core.entities authorities (Manufacturer, NetworkOperator::new)",
        l.authorities,
    );
    ledger.layer("crypto.rsa.keygen (key pool)", l.keygen);
    ledger.layer("core.entities.package (prepare_fleet_update)", l.package);
    ledger.part("crypto.rsa.sign", l.sign);
    ledger.layer("core.entities.wrap (wrap_keys)", l.wrap);
    ledger.layer("core.distrib relay sync (fetch_document)", l.relay_sync);
    ledger.layer("core.entities.provision", l.provision);
    ledger.layer("core.distrib.fetch (router documents)", l.fetch);
    ledger.layer(
        "core.entities.install (assemble + install_bundle_v2)",
        l.install,
    );
    ledger.part("crypto.rsa.unwrap", l.unwrap);
    ledger.part("crypto.aes.decrypt", l.aes);
    ledger.part("core.cert.verify", l.cert);
    ledger.part("crypto.rsa.sig_verify", l.sig_verify);
    ledger.print();
    println!("ledger   the remainder is publishing, document serialization and bookkeeping");
    let deploy_s = median(&mut deploys);
    let overhead = report::overhead_pct(e2e, Duration::from_secs_f64(deploy_s));

    let us = |d: Duration, n: u64| d.as_secs_f64() * 1e6 / n.max(1) as f64;
    let values = [
        ("crypto.rsa.keygen_ms", us(l.keygen, l.keygens) / 1e3),
        ("core.entities.package_us", us(l.package, 1)),
        ("crypto.rsa.sign_us", us(l.sign, 1)),
        ("core.entities.wrap_us_per_router", us(l.wrap, routers)),
        (
            "core.entities.provision_us_per_router",
            us(l.provision, l.provisioned),
        ),
        (
            "core.distrib.fetch_us_per_router",
            us(l.fetch, l.fetching_routers),
        ),
        ("core.entities.install_us", us(l.install, l.installs)),
        ("crypto.rsa.unwrap_us", us(l.unwrap, l.replicas)),
        ("core.cert.verify_us", us(l.cert, l.replicas)),
        ("crypto.rsa.sig_verify_us", us(l.sig_verify, l.replicas)),
        ("crypto.aes.decrypt_us", us(l.aes, l.replicas)),
        ("net.download.attempts", report.transport_attempts as f64),
        (
            "core.distrib.sections_fetched",
            report.sections_fetched as f64,
        ),
        (
            "core.distrib.sections_reused",
            report.sections_reused as f64,
        ),
        (
            "core.distrib.origin_egress_bytes",
            (report.origin_shared_egress_bytes + report.origin_key_egress_bytes) as f64,
        ),
        (
            "core.distrib.relay_egress_bytes",
            report.relay_egress_bytes as f64,
        ),
        ("deploy_s", deploy_s),
        ("latency_p90_us", quantile(&mut l.latency, 0.9)),
        ("latency_p99_us", quantile(&mut l.latency, 0.99)),
        ("fail_rate", report.quarantined as f64 / routers as f64),
        ("bench.unattributed_pct", ledger.unattributed_pct()),
        ("bench.trace_overhead_pct", overhead),
    ];
    for (name, value) in values {
        show(name, value, "");
        results.set(name, value);
    }
    results.context("untraced_deploys", deploys.len());
    results.context("install_replicas", l.replicas);
    results.attempted = routers * (deploys.len() as u64 + 1);
    results.failed = report.quarantined as u64 * (deploys.len() as u64 + 1);
    Ok(())
}
