//! `install-2048`: the paper's per-router install path at paper key sizes.
//!
//! Set-up creates a manufacturer, an operator and four single-core routers,
//! all with RSA-2048 keys, and certifies the operator. Each update is one
//! `NetworkOperator::prepare_package` for a router followed by that
//! router's `install_bundle`, round-robin over the routers, closed loop.
//! Every install must return an `InstallReport` for the router's core, and
//! every router must forward a packet afterwards.
//!
//! Traced, each update is followed by replays of the private and public
//! key operations inside it on the same inputs: `RsaPrivateKey::sign` on
//! the decrypted payload (it must reproduce the bundle's signature),
//! `RsaPrivateKey::decrypt` of the wrapped key, `Aes::decrypt_cbc`,
//! `Certificate::verify` and `RsaPublicKey::verify`.

use crate::report::{self, clock, median, quantile, show, Ledger, Results};
use crate::Args;
use sdmmon_core::entities::{Manufacturer, NetworkOperator, RouterDevice};
use sdmmon_crypto::aes::Aes;
use sdmmon_crypto::rsa::RsaKeyPair;
use sdmmon_isa::asm::Program;
use sdmmon_npu::programs::{self, testing};
use sdmmon_npu::runtime::Verdict;
use sdmmon_rng::{split_seed, SeedableRng, StdRng};
use std::time::{Duration, Instant};

/// Paper key size for every entity.
const KEY_BITS: usize = 2048;
/// Routers updated round-robin.
const ROUTERS: usize = 4;
/// The core each update programs.
const CORE: [usize; 1] = [0];
/// Set-ups per run (`setup_s` is their median).
const SETUPS: usize = 3;

/// The entities of one run.
struct Site {
    manufacturer: Manufacturer,
    operator: NetworkOperator,
    routers: Vec<RouterDevice>,
    router_keys: Vec<RsaKeyPair>,
    /// The operator's key pair, regenerated from the same rng state in a
    /// traced set-up (the operator keeps its own private).
    operator_keys: Option<RsaKeyPair>,
    /// Every timed `RsaKeyPair::generate`.
    keygen: Vec<Duration>,
}

fn setup(seed: u64, replicate: bool) -> Result<Site, String> {
    let err = |e: &dyn std::fmt::Display| format!("set-up: {e}");
    let mut rng = StdRng::seed_from_u64(split_seed(seed, 7));
    let mut keygen = Vec::new();
    let replica = |rng: &StdRng, keygen: &mut Vec<Duration>| {
        let mut r = rng.clone();
        let (keys, d) = clock(|| RsaKeyPair::generate(KEY_BITS, &mut r));
        keygen.push(d);
        keys.map_err(|e| err(&e))
    };
    let manufacturer_keys = if replicate {
        Some(replica(&rng, &mut keygen)?)
    } else {
        None
    };
    let manufacturer = Manufacturer::new("bench-mfr", KEY_BITS, &mut rng).map_err(|e| err(&e))?;
    let operator_keys = if replicate {
        Some(replica(&rng, &mut keygen)?)
    } else {
        None
    };
    let mut operator = NetworkOperator::new("bench-op", KEY_BITS, &mut rng).map_err(|e| err(&e))?;
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "bench-op"));
    if manufacturer_keys.is_some_and(|k| k.public != *manufacturer.public_key())
        || operator_keys
            .as_ref()
            .is_some_and(|k| k.public != *operator.public_key())
    {
        return Err("replicated authority key differs from the entity's".into());
    }
    let mut routers = Vec::with_capacity(ROUTERS);
    let mut router_keys = Vec::with_capacity(ROUTERS);
    for i in 0..ROUTERS {
        let (keys, d) = clock(|| RsaKeyPair::generate(KEY_BITS, &mut rng));
        keygen.push(d);
        let keys = keys.map_err(|e| err(&e))?;
        routers.push(manufacturer.provision_router_with_keys(
            &format!("router-{i}"),
            1,
            keys.clone(),
        ));
        router_keys.push(keys);
    }
    Ok(Site {
        manufacturer,
        operator,
        routers,
        router_keys,
        operator_keys,
        keygen,
    })
}

/// One update of router `r`: returns the `prepare_package` and
/// `install_bundle` times, and the bundle for the traced replays.
fn update(
    site: &mut Site,
    program: &Program,
    r: usize,
    rng: &mut StdRng,
) -> Result<(Duration, Duration, sdmmon_core::package::InstallationBundle), String> {
    let key = site.routers[r].public_key().clone();
    let (bundle, package) = clock(|| site.operator.prepare_package(program, &key, rng));
    let bundle = bundle.map_err(|e| format!("prepare_package: {e}"))?;
    let (report, install) = clock(|| site.routers[r].install_bundle(&bundle, &CORE));
    let report = report.map_err(|e| format!("install_bundle on router {r}: {e}"))?;
    if report.cores != CORE || site.routers[r].installed(CORE[0]).is_none() {
        return Err(format!(
            "router {r}: install report {:?} is not for core {}",
            report.cores, CORE[0]
        ));
    }
    Ok((package, install, bundle))
}

/// Every router forwards a benign packet on its freshly installed core.
fn check_forwarding(site: &mut Site) -> Result<(), String> {
    let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 5], 64, b"perfbench");
    for (r, router) in site.routers.iter_mut().enumerate() {
        let out = router.process_on(CORE[0], &packet);
        if out.verdict != Verdict::Forward(5) {
            return Err(format!("router {r} did not forward after install: {out:?}"));
        }
    }
    Ok(())
}

/// Runs `install-2048`.
pub fn run(args: &Args) -> Result<Results, String> {
    let program = programs::ipv4_forward().map_err(|e| format!("workload assembles: {e}"))?;
    let mut results = Results::default();
    results.context("routers", ROUTERS);
    results.context("key_bits", KEY_BITS);
    println!(
        "workload install-2048: {ROUTERS} routers, RSA-{KEY_BITS} manufacturer, operator and \
         device keys; prepare_package + install_bundle per update, round-robin"
    );
    if args.trace {
        traced(args, &program, &mut results)?;
        return Ok(results);
    }

    // Set-ups interleave with the updates, each site serving a third of
    // the window, so set-up and update samples span the same host time.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut latency = Vec::new();
    let mut busy = Duration::ZERO;
    for k in 0..SETUPS {
        let (site, d) = clock(|| setup(args.seed, false));
        setups.push(d.as_secs_f64());
        let mut site = site?;
        let mut rng = StdRng::seed_from_u64(split_seed(args.seed, 8 + k as u64));
        let deadline = Instant::now() + args.seconds / SETUPS as u32;
        let mut updates = 0;
        while Instant::now() < deadline || updates == 0 {
            let (package, install, _) = update(&mut site, &program, updates % ROUTERS, &mut rng)?;
            updates += 1;
            busy += package + install;
            latency.push((package + install).as_secs_f64() * 1e6);
        }
        check_forwarding(&mut site)?;
    }
    let n = latency.len();
    let values = [
        (
            "setup_s",
            median(&mut setups),
            format!("median of {SETUPS} set-ups"),
        ),
        (
            "pps",
            n as f64 / busy.as_secs_f64(),
            "updates per second".to_string(),
        ),
        (
            "latency_p50_us",
            quantile(&mut latency, 0.5),
            format!("n={n}"),
        ),
        ("peak_rss_mb", report::peak_rss_mb(), String::new()),
    ];
    show("fail_rate", 0.0, "every update installed");
    println!(
        "also latency_p90_us = {:.4} us, latency_p99_us = {:.4} us (n={n}; unbounded, see README.md)",
        quantile(&mut latency, 0.9),
        quantile(&mut latency, 0.99)
    );
    for (name, value, note) in values {
        show(name, value, &note);
        results.set(name, value);
    }
    results.context("latency_samples", n);
    results.context("setup_samples", SETUPS);
    results.attempted = n as u64;
    Ok(results)
}

/// Totals of the traced updates.
#[derive(Debug, Default)]
struct Layers {
    updates: u64,
    package: Duration,
    install: Duration,
    sign: Duration,
    unwrap: Duration,
    aes: Duration,
    cert: Duration,
    sig_verify: Duration,
}

fn traced(args: &Args, program: &Program, results: &mut Results) -> Result<(), String> {
    let mut site = setup(args.seed, true)?;
    let operator_keys = site
        .operator_keys
        .clone()
        .expect("traced set-up replicates");
    let mut rng = StdRng::seed_from_u64(split_seed(args.seed, 8));

    // Untraced reference updates (the tracing-overhead baseline) alternate
    // with traced ones, so both see the same host.
    let mut untraced = Vec::new();
    let mut l = Layers::default();
    let mut traced_e2e = Vec::new();
    let deadline = Instant::now() + args.seconds;
    let mut k = 0;
    while Instant::now() < deadline || l.updates == 0 {
        let r = k % ROUTERS;
        k += 1;
        let (package, install, bundle) = update(&mut site, program, r, &mut rng)?;
        if k % 2 == 1 {
            untraced.push((package + install).as_secs_f64());
            continue;
        }
        l.updates += 1;
        l.package += package;
        l.install += install;
        traced_e2e.push((package + install).as_secs_f64());

        let (key, d) = clock(|| site.router_keys[r].private.decrypt(&bundle.wrapped_key));
        l.unwrap += d;
        let key = key.map_err(|e| format!("unwrap replica: {e}"))?;
        let (payload, d) =
            clock(|| Aes::new(&key).and_then(|aes| aes.decrypt_cbc(&bundle.ciphertext)));
        l.aes += d;
        let payload = payload.map_err(|e| format!("decrypt replica: {e}"))?;
        let (ok, d) = clock(|| bundle.certificate.verify(site.manufacturer.public_key()));
        l.cert += d;
        if !ok {
            return Err("certificate replica did not verify".into());
        }
        let (ok, d) = clock(|| {
            site.operator
                .public_key()
                .verify(&payload, &bundle.signature)
        });
        l.sig_verify += d;
        if !ok {
            return Err("signature replica did not verify".into());
        }
        let (sig, d) = clock(|| operator_keys.private.sign(&payload));
        l.sign += d;
        if sig != bundle.signature {
            return Err("sign replica did not reproduce the bundle's signature".into());
        }
    }
    check_forwarding(&mut site)?;

    let e2e = l.package + l.install;
    let mut ledger = Ledger::new("install-2048", e2e, l.updates, "update");
    ledger.layer("crypto.rsa.sign (in prepare_package)", l.sign);
    ledger.layer("crypto.rsa.unwrap (in install_bundle)", l.unwrap);
    ledger.layer("crypto.aes.decrypt (in install_bundle)", l.aes);
    ledger.layer("core.cert.verify (in install_bundle)", l.cert);
    ledger.layer("crypto.rsa.sig_verify (in install_bundle)", l.sig_verify);
    ledger.print();
    println!(
        "ledger   the remainder is graph extraction, AES encryption and key wrap in \
         prepare_package, and parsing and core programming in install_bundle"
    );
    let overhead = report::overhead_pct(
        Duration::from_secs_f64(median(&mut traced_e2e)),
        Duration::from_secs_f64(median(&mut untraced)),
    );
    let us = |d: Duration| d.as_secs_f64() * 1e6 / l.updates as f64;
    let keygen_ms =
        site.keygen.iter().map(Duration::as_secs_f64).sum::<f64>() * 1e3 / site.keygen.len() as f64;
    let values = [
        ("crypto.rsa.keygen_ms", keygen_ms),
        ("core.entities.package_us", us(l.package)),
        ("crypto.rsa.sign_us", us(l.sign)),
        ("core.entities.install_us", us(l.install)),
        ("crypto.rsa.unwrap_us", us(l.unwrap)),
        ("core.cert.verify_us", us(l.cert)),
        ("crypto.rsa.sig_verify_us", us(l.sig_verify)),
        ("crypto.aes.decrypt_us", us(l.aes)),
        ("fail_rate", 0.0),
        ("latency_p90_us", quantile(&mut untraced, 0.9) * 1e6),
        ("latency_p99_us", quantile(&mut untraced, 0.99) * 1e6),
        ("bench.unattributed_pct", ledger.unattributed_pct()),
        ("bench.trace_overhead_pct", overhead),
    ];
    for (name, value) in values {
        show(name, value, "");
        results.set(name, value);
    }
    results.context("traced_updates", l.updates);
    results.context("untraced_reference_updates", untraced.len());
    results.context("keygens_timed", site.keygen.len());
    results.attempted = l.updates + untraced.len() as u64;
    Ok(())
}
