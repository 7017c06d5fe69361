//! Integration pins for the sharded batch engine (PR 4).
//!
//! * Determinism: [`NetworkProcessor::process_batch`] must be byte-identical
//!   to [`NetworkProcessor::process_batch_serial`] — outcomes *and*
//!   [`NpStats`] — for every shard count and seed, including a seed that
//!   drives the supervisor through redeploy and quarantine mid-batch.
//! * Traced determinism: with an event bus traced by a [`TraceContext`]
//!   at sampling rates 0, 200 and 1000 per mille, the sharded engine emits
//!   the serial oracle's event stream — supervisor events, spans, and
//!   flight promotions — event for event.
//! * Flow affinity: a 5-tuple never crosses shards, per-flow order is
//!   preserved (observable through order-dependent core state), and the
//!   flow hash spreads load within 2x of uniform.

use sdmmon_npu::cpu::NullObserver;
use sdmmon_npu::engine::shard_of;
use sdmmon_npu::np::{flow_hash, NetworkProcessor};
use sdmmon_npu::programs::{self, testing};
use sdmmon_npu::runtime::Verdict;
use sdmmon_npu::supervisor::SupervisorPolicy;
use sdmmon_obs::{Event, EventBus, Span, TraceContext};
use sdmmon_rng::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

const CORES: usize = 8;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Three traffic seeds; the last one prepends an attack burst that drives
/// at least one core through 2 redeploys into quarantine *mid-batch*.
const SEEDS: [(u64, bool); 3] = [
    (0x5EED_0001, false),
    (0x5EED_0002, false),
    (0xC0DE_CAFE, true),
];

fn loaded_np(policy: SupervisorPolicy) -> NetworkProcessor {
    let program = programs::vulnerable_forward().unwrap();
    let mut np = NetworkProcessor::with_policy(CORES, policy);
    np.install_all(&program.to_bytes(), program.base, |_| {
        Box::new(NullObserver)
    });
    np
}

/// Four distinct attack packets (distinct bytes → distinct flows → they can
/// land on distinct cores). Each faults with `break 1` — an unclean halt
/// that strikes the supervisor ledger.
fn attack_variants() -> Vec<Vec<u8>> {
    (0..4)
        .map(|i| testing::hijack_packet(&format!("li $t5, {i}\nbreak 1")).unwrap())
        .collect()
}

/// Mixed traffic: forwards, policy drops (dst .16 has no route), and
/// scattered hijacks. With `burst`, the batch *starts* with four
/// back-to-back copies of each attack variant; copies of one variant are
/// contiguous in input order, hence contiguous in their core's queue, so
/// the {redeploy_after: 2, quarantine_after: 2} ladder tops out mid-batch.
fn traffic(seed: u64, n: usize, burst: bool) -> Vec<Vec<u8>> {
    let attacks = attack_variants();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut packets = Vec::with_capacity(n + 16);
    if burst {
        for attack in &attacks {
            for _ in 0..4 {
                packets.push(attack.clone());
            }
        }
    }
    for _ in 0..n {
        if rng.gen_range(0..8u32) == 0 {
            packets.push(attacks[rng.gen_range(0..attacks.len())].clone());
        } else {
            let src = [10, rng.gen_range(0..4u8), rng.gen_range(0..250u8), 1];
            let dst = [10, 0, 0, rng.gen_range(1..=16u8)];
            packets.push(testing::ipv4_packet(src, dst, 64, b"pay"));
        }
    }
    packets
}

#[test]
fn sharded_batch_is_byte_identical_to_serial_for_all_shard_counts_and_seeds() {
    let policy = SupervisorPolicy::ladder(2, 2);
    for (seed, burst) in SEEDS {
        let packets = traffic(seed, 160, burst);
        // A second batch repartitions against the (possibly degraded)
        // active-core set left behind by the first.
        let follow_up = traffic(seed ^ 0xFFFF, 80, false);

        let mut oracle = loaded_np(policy);
        let serial_one = oracle.process_batch_serial(&packets);
        let serial_two = oracle.process_batch_serial(&follow_up);
        let serial_stats = oracle.stats();
        if burst {
            assert!(
                serial_stats.redeploys >= 2 && serial_stats.quarantined_cores >= 1,
                "quarantine seed must actually escalate mid-batch: {serial_stats}"
            );
        }

        for shards in SHARD_COUNTS {
            let mut np = loaded_np(policy);
            np.set_shards(shards);
            let one = np.process_batch(&packets);
            let two = np.process_batch(&follow_up);
            assert_eq!(
                one, serial_one,
                "batch 1 diverged from serial at {shards} shards, seed {seed:#x}"
            );
            assert_eq!(
                two, serial_two,
                "batch 2 diverged from serial at {shards} shards, seed {seed:#x}"
            );
            assert_eq!(
                np.stats(),
                serial_stats,
                "NpStats diverged from serial at {shards} shards, seed {seed:#x}"
            );
        }
    }
}

/// Every event but `np.batch`, which is telemetry of the sharded path
/// only.
fn oracle_events(bus: &EventBus) -> Vec<Event> {
    bus.take()
        .into_iter()
        .filter(|e| e.kind != "np.batch")
        .collect()
}

#[test]
fn traced_sharded_batch_emits_the_serial_event_stream() {
    let policy = SupervisorPolicy::ladder(2, 2);
    for (seed, burst) in SEEDS {
        let batches = [traffic(seed, 160, burst), traffic(seed ^ 0xFFFF, 80, false)];
        for per_mille in [0u16, 200, 1000] {
            // `None` runs the serial oracle; `Some(n)` the engine at n shards.
            let run = |shards: Option<usize>| {
                let bus = Arc::new(EventBus::traced(TraceContext::new(seed, per_mille)));
                let mut np = loaded_np(policy);
                np.set_event_bus(Some(bus.clone()));
                let outcomes: Vec<_> = batches
                    .iter()
                    .map(|packets| match shards {
                        None => np.process_batch_serial(packets),
                        Some(n) => {
                            np.set_shards(n);
                            np.process_batch(packets)
                        }
                    })
                    .collect();
                (outcomes, np.stats(), oracle_events(&bus))
            };
            let want = run(None);
            // Flight promotions carry the trace at 0 per mille, dispatch
            // spans above it.
            let traced = |e: &Event| match e.span {
                Some(Span::Flight { .. }) => per_mille == 0,
                Some(Span::Dispatch { .. }) => per_mille > 0,
                _ => false,
            };
            assert!(
                want.2.iter().any(traced),
                "per-mille {per_mille}: the oracle stream carries no trace content"
            );
            for shards in SHARD_COUNTS {
                assert_eq!(
                    run(Some(shards)),
                    want,
                    "traced run diverged from serial at {shards} shards, \
                     seed {seed:#x}, per-mille {per_mille}"
                );
            }
        }
    }
}

#[test]
fn shard_count_change_between_batches_does_not_change_results() {
    // The same NP stepped through 1 → 4 → 2 → 8 shards across batches must
    // match a serial twin batch for batch (the pool is torn down and
    // respawned on each change; results may never depend on that).
    let mut np = loaded_np(SupervisorPolicy::never());
    let mut oracle = loaded_np(SupervisorPolicy::never());
    for (round, shards) in [1usize, 4, 2, 8].into_iter().enumerate() {
        let packets = traffic(0x0BAD_5EED + round as u64, 60, false);
        np.set_shards(shards);
        assert_eq!(
            np.process_batch(&packets),
            oracle.process_batch_serial(&packets),
            "round {round} at {shards} shards"
        );
    }
    assert_eq!(np.stats(), oracle.stats());
}

#[test]
fn five_tuple_never_crosses_shards() {
    // Packets of one flow differ only beyond the L4 word, so they share a
    // flow key; every one must land on the same core, hence the same shard,
    // for dividing and non-dividing shard counts alike.
    for shards in [2usize, 3, 5, 8] {
        let mut np = loaded_np(SupervisorPolicy::never());
        np.set_shards(shards);
        let mut packets = Vec::new();
        for f in 0..48u8 {
            let ports = [0x12, f, 0x00, 0x50];
            for k in 0..4u8 {
                let mut payload = ports.to_vec();
                payload.extend_from_slice(&[k, k ^ 0x5a, 7]);
                packets.push(testing::ipv4_packet(
                    [10, 1, f, 7],
                    [10, 0, 0, (f % 15) + 1],
                    64,
                    &payload,
                ));
            }
        }
        let out = np.process_batch(&packets);
        for f in 0..48usize {
            let cores: Vec<usize> = (0..4).map(|k| out[f * 4 + k].0).collect();
            assert!(
                cores.iter().all(|&c| c == cores[0]),
                "flow {f} crossed cores {cores:?} at {shards} shards"
            );
            let predicted = (flow_hash(&packets[f * 4]) % CORES as u64) as usize;
            assert_eq!(cores[0], predicted, "flow {f} left its hash-mapped core");
            let shard = shard_of(cores[0], CORES, shards);
            assert!(shard < shards, "core {} maps past the shard set", cores[0]);
        }
    }
}

#[test]
fn per_flow_order_is_preserved_under_sharding() {
    // The attack bumps route_table[2] and halts *cleanly* (observed
    // `break 0`), so the bump survives on the core. A same-core good packet
    // for dst .2 then forwards to the bumped port — its verdict reveals how
    // many attacks ran before it. Order-preserving dispatch must yield
    // strictly increasing ports in input order.
    let program = programs::vulnerable_forward().unwrap();
    let table = program.symbol("route_table").unwrap();
    let attack = testing::hijack_packet(&format!(
        "li $t4, 0x{table:x}
         lw $t5, 8($t4)
         addiu $t5, $t5, 1
         sw $t5, 8($t4)      # route_table[2] += 1
         break 0"
    ))
    .unwrap();
    let attack_core = (flow_hash(&attack) % CORES as u64) as usize;
    // A clean flow that shares the attack's core (probed via the public
    // flow hash — the engine must use the same mapping).
    let good = (0..=255u8)
        .map(|s| testing::ipv4_packet([10, 9, s, 1], [10, 0, 0, 2], 64, b"ordr"))
        .find(|p| (flow_hash(p) % CORES as u64) as usize == attack_core)
        .expect("some source address collides with the attack flow");

    let mut np = loaded_np(SupervisorPolicy::never());
    np.set_shards(CORES);
    let batch = vec![
        good.clone(),
        attack.clone(),
        good.clone(),
        attack,
        good.clone(),
    ];
    let out = np.process_batch(&batch);
    let ports: Vec<Verdict> = [0usize, 2, 4].iter().map(|&i| out[i].1.verdict).collect();
    assert_eq!(
        ports,
        [
            Verdict::Forward(2),
            Verdict::Forward(3),
            Verdict::Forward(4)
        ],
        "same-flow packets were reordered relative to the attacks"
    );
}

#[test]
fn flow_hash_spreads_load_within_2x_of_uniform() {
    let n = 4096u64;
    let mut rng = StdRng::seed_from_u64(0xD157_0BEE);
    let packets: Vec<Vec<u8>> = (0..n)
        .map(|_| {
            testing::ipv4_packet(
                [
                    10,
                    rng.gen_range(0..255u8),
                    rng.gen_range(0..255u8),
                    rng.gen_range(0..255u8),
                ],
                [10, 0, 0, rng.gen_range(1..15u8)],
                64,
                b"dist",
            )
        })
        .collect();

    let mut core_loads = vec![0u64; CORES];
    for p in &packets {
        core_loads[(flow_hash(p) % CORES as u64) as usize] += 1;
    }
    let core_bound = 2 * n.div_ceil(CORES as u64);
    for (core, &load) in core_loads.iter().enumerate() {
        assert!(load > 0, "core {core} starved: {core_loads:?}");
        assert!(
            load <= core_bound,
            "core {core} loaded {load} > 2x uniform ({core_bound}): {core_loads:?}"
        );
    }

    for shards in [2usize, 4, 8] {
        let mut shard_loads = vec![0u64; shards];
        for p in &packets {
            let core = (flow_hash(p) % CORES as u64) as usize;
            shard_loads[shard_of(core, CORES, shards)] += 1;
        }
        let bound = 2 * n.div_ceil(shards as u64);
        for (shard, &load) in shard_loads.iter().enumerate() {
            assert!(load > 0, "shard {shard} starved: {shard_loads:?}");
            assert!(
                load <= bound,
                "shard {shard} loaded {load} > 2x uniform ({bound}): {shard_loads:?}"
            );
        }
    }
}
