//! Randomized property tests for the network-processor substrate:
//! architectural invariants of the CPU under arbitrary instruction streams,
//! and robustness of the packet runtime under arbitrary packet bytes.
//!
//! Cases are drawn from seeded [`StdRng`] streams so failures reproduce.

use sdmmon_isa::Reg;
use sdmmon_npu::core::Core;
use sdmmon_npu::cpu::{Cpu, NullObserver, Trap};
use sdmmon_npu::mem::Memory;
use sdmmon_npu::programs::{self, testing};
use sdmmon_npu::runtime::{HaltReason, Verdict, MEM_SIZE};
use sdmmon_rng::{Rng, RngCore, SeedableRng, StdRng};

const CASES: usize = 256;

fn word_soup(rng: &mut StdRng, max_words: usize) -> Memory {
    let mut mem = Memory::new(0x1000);
    let n = rng.gen_range(1..max_words);
    for i in 0..n {
        mem.store_u32(i as u32 * 4, rng.next_u32()).unwrap();
    }
    mem
}

/// Running the CPU over *arbitrary word soup* never panics: every outcome
/// is a retired instruction or a clean trap.
#[test]
fn cpu_never_panics_on_arbitrary_memory() {
    let mut rng = StdRng::seed_from_u64(0x4B0_0001);
    for _ in 0..CASES {
        let mut mem = word_soup(&mut rng, 64);
        let steps = rng.gen_range(1..200usize);
        let mut cpu = Cpu::new();
        for _ in 0..steps {
            if cpu.step(&mut mem).is_err() {
                break;
            }
        }
    }
}

/// The zero register reads zero no matter what executed.
#[test]
fn zero_register_invariant() {
    let mut rng = StdRng::seed_from_u64(0x4B0_0002);
    for _ in 0..CASES {
        let mut mem = word_soup(&mut rng, 64);
        let mut cpu = Cpu::new();
        for _ in 0..64 {
            if cpu.step(&mut mem).is_err() {
                break;
            }
            assert_eq!(cpu.reg(Reg::ZERO), 0);
        }
    }
}

/// Retired.next_pc always equals the pc of the following fetch.
#[test]
fn next_pc_is_honest() {
    let mut rng = StdRng::seed_from_u64(0x4B0_0003);
    for _ in 0..CASES {
        let mut mem = word_soup(&mut rng, 32);
        let mut cpu = Cpu::new();
        for _ in 0..32 {
            match cpu.step(&mut mem) {
                Ok(retired) => assert_eq!(retired.next_pc, cpu.pc()),
                Err(_) => break,
            }
        }
    }
}

/// The packet runtime handles arbitrary packet bytes without panicking,
/// always producing a verdict, and never exceeding the step budget.
#[test]
fn runtime_robust_to_arbitrary_packets() {
    let program = programs::ipv4_forward().expect("workload assembles");
    let mut core = Core::new();
    core.install(&program.to_bytes(), program.base);
    core.set_step_limit(100_000);
    let mut rng = StdRng::seed_from_u64(0x4B0_0004);
    for _ in 0..CASES {
        let mut packet = vec![0u8; rng.gen_range(0..600usize)];
        rng.fill_bytes(&mut packet);
        let out = core.process_packet(&packet, &mut NullObserver);
        assert!(out.steps <= 100_000);
        // The hardened ipv4 workload always completes and drops junk.
        assert_eq!(out.halt, HaltReason::Completed);
    }
}

/// Valid generated packets are forwarded to the port selected by the
/// destination's last octet (mod 16, entry 0 drops).
#[test]
fn routing_matches_destination() {
    let program = programs::ipv4_forward().expect("workload assembles");
    let mut core = Core::new();
    core.install(&program.to_bytes(), program.base);
    let mut rng = StdRng::seed_from_u64(0x4B0_0005);
    for _ in 0..CASES {
        let dst = rng.gen::<u8>();
        let ttl = rng.gen_range(2..255u8);
        let mut payload = vec![0u8; rng.gen_range(0..64usize)];
        rng.fill_bytes(&mut payload);
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, dst], ttl, &payload);
        let out = core.process_packet(&packet, &mut NullObserver);
        assert_eq!(out.halt, HaltReason::Completed);
        let expected = (dst & 0xf) as u32;
        if expected == 0 {
            assert_eq!(out.verdict, Verdict::Drop);
        } else {
            assert_eq!(out.verdict, Verdict::Forward(expected));
        }
    }
}

/// TTL 0/1 always drops; the packet is never forwarded with TTL 0.
#[test]
fn expired_ttl_drops() {
    let program = programs::ipv4_forward().expect("workload assembles");
    let mut core = Core::new();
    core.install(&program.to_bytes(), program.base);
    for ttl in 0..2u8 {
        for dst in 1..15u8 {
            let packet = testing::ipv4_packet([1, 2, 3, 4], [10, 0, 0, dst], ttl, b"x");
            let out = core.process_packet(&packet, &mut NullObserver);
            assert_eq!(out.verdict, Verdict::Drop);
        }
    }
}

/// Single-bit corruption anywhere in a valid packet is either dropped
/// (checksum/structure) or forwarded with a correctly rewritten header —
/// never a crash or a runaway.
#[test]
fn bit_flips_never_crash_the_forwarder() {
    let program = programs::ipv4_forward().expect("workload assembles");
    let mut core = Core::new();
    core.install(&program.to_bytes(), program.base);
    let mut rng = StdRng::seed_from_u64(0x4B0_0006);
    for _ in 0..CASES {
        let dst = rng.gen_range(1..15u8);
        let mut packet = testing::ipv4_packet([10, 0, 0, 9], [10, 0, 0, dst], 64, b"payload");
        let bit = rng.gen_range(0..packet.len() * 8);
        packet[bit / 8] ^= 1 << (bit % 8);
        let out = core.process_packet(&packet, &mut NullObserver);
        assert_eq!(out.halt, HaltReason::Completed);
    }
}

/// A reset core is indistinguishable from a freshly installed one: after
/// hijacks that store anywhere in memory, arbitrary packets, and direct
/// writes into the program text, `reset` restores every byte of memory,
/// and the next benign packet runs exactly as on a fresh core.
#[test]
fn reset_equals_fresh_install() {
    let program = programs::vulnerable_forward().expect("workload assembles");
    let image = program.to_bytes();
    let install = || {
        let mut core = Core::new();
        core.install(&image, program.base);
        core.set_step_limit(20_000);
        core
    };
    let pristine = install().memory().read_bytes(0, MEM_SIZE).unwrap().to_vec();
    let text_words = image.len() as u32 / 4;
    let mut core = install();
    let mut rng = StdRng::seed_from_u64(0x4B0_000A);
    for _ in 0..CASES {
        for _ in 0..rng.gen_range(1..6usize) {
            match rng.gen_range(0..4u32) {
                0 => {
                    // Injected code storing random words at random
                    // addresses, ending cleanly or in a trap.
                    let mut code = String::new();
                    for _ in 0..rng.gen_range(1..4usize) {
                        let addr = rng.gen_range(0..MEM_SIZE / 4) * 4;
                        code += &format!(
                            "li $t4, 0x{addr:x}\nli $t5, 0x{:x}\nsw $t5, 0($t4)\n",
                            rng.next_u32()
                        );
                    }
                    code += if rng.gen() { "break 0" } else { "break 1" };
                    let attack = testing::hijack_packet(&code).expect("injected code assembles");
                    core.process_packet(&attack, &mut NullObserver);
                }
                1 => {
                    let mut packet = vec![0u8; rng.gen_range(0..600usize)];
                    rng.fill_bytes(&mut packet);
                    core.process_packet(&packet, &mut NullObserver);
                }
                2 => {
                    let addr = program.base + rng.gen_range(0..text_words) * 4;
                    core.memory_mut().store_u32(addr, rng.next_u32()).unwrap();
                }
                _ => {
                    let mut block = vec![0u8; rng.gen_range(1..9000usize)];
                    rng.fill_bytes(&mut block);
                    let addr = rng.gen_range(0..MEM_SIZE - block.len() as u32);
                    core.memory_mut().write_bytes(addr, &block).unwrap();
                }
            }
        }
        assert!(core.memory().read_bytes(0, MEM_SIZE).unwrap() != &pristine[..]);
        core.reset();
        assert!(
            core.memory().read_bytes(0, MEM_SIZE).unwrap() == &pristine[..],
            "reset left memory different from a fresh install"
        );
        let dst = rng.gen_range(1..15u8);
        let good = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, dst], 64, b"after");
        assert_eq!(
            core.process_packet(&good, &mut NullObserver),
            install().process_packet(&good, &mut NullObserver)
        );
    }
}

/// Folding the same sample sequence through `ewma_step`, the supervisor's
/// fixed-point EWMA step, gives the same fixed-point state, independent of
/// when the replay happens — the filter is a pure fold, which is what lets
/// the graded supervisor promise byte-identical threat streams across
/// shard counts.
#[test]
fn ewma_is_a_deterministic_fold() {
    use sdmmon_npu::supervisor::ewma_step;
    let mut rng = StdRng::seed_from_u64(0x4B0_0007);
    for _ in 0..CASES {
        let shift = rng.gen_range(1..16u32);
        let n = rng.gen_range(1..64usize);
        let samples: Vec<u64> = (0..n)
            .map(|_| rng.next_u64() >> rng.gen_range(0..64))
            .collect();
        let fold = || samples.iter().fold(0, |e, &s| ewma_step(e, s, shift));
        assert_eq!(fold(), fold(), "same fold, same fixed-point state");
    }
}

/// The EWMA never overflows or panics, even fed `u64::MAX` forever: the
/// u128 intermediate saturates and the level stays a sane fixed-point
/// value bounded by the largest sample seen.
#[test]
fn ewma_never_overflows_under_extreme_samples() {
    use sdmmon_npu::supervisor::ewma_step;
    let mut rng = StdRng::seed_from_u64(0x4B0_0008);
    for _ in 0..CASES {
        let shift = rng.gen_range(1..16u32);
        let mut filter = 0;
        for _ in 0..rng.gen_range(1..128usize) {
            let sample = if rng.gen_range(0..4) == 0 {
                u64::MAX
            } else {
                rng.next_u64()
            };
            let before = filter;
            filter = ewma_step(filter, sample, shift);
            // Monotone step: the new state sits between the old state and
            // the (saturated) sample's fixed-point image.
            let target = sample.saturating_mul(1 << 16);
            let (lo, hi) = if target >= before {
                (before, target.max(before))
            } else {
                (target, before)
            };
            assert!(
                (lo..=hi.saturating_add(1 << shift)).contains(&filter),
                "EWMA left the [state, sample] envelope"
            );
        }
        // Raw step function saturates instead of wrapping.
        assert_eq!(ewma_step(u64::MAX, u64::MAX, 1), u64::MAX);
    }
}

/// Feeding a constant converges to that constant's fixed-point image and
/// then holds it exactly (the filter is idempotent at its fixed point).
#[test]
fn ewma_converges_to_constant_input() {
    use sdmmon_npu::supervisor::{ewma_step, FRAC_BITS};
    let mut rng = StdRng::seed_from_u64(0x4B0_0009);
    for _ in 0..CASES {
        let shift = rng.gen_range(1..8u32);
        let constant = rng.gen_range(0..1_000_000u64);
        let settled = (0..10_000).fold(0, |e, _| ewma_step(e, constant, shift));
        assert_eq!(
            ewma_step(settled, constant, shift),
            settled,
            "fixed point is exact"
        );
        let level = settled >> FRAC_BITS;
        assert!(
            level.abs_diff(constant) <= 1,
            "settled level {level} strays from constant {constant}"
        );
    }
}

/// Deterministic companion check.
#[test]
fn break_trap_is_reported_with_code() {
    let program = sdmmon_isa::asm::Assembler::new()
        .assemble("break 42")
        .unwrap();
    let mut mem = Memory::new(0x100);
    mem.write_bytes(0, &program.to_bytes()).unwrap();
    let mut cpu = Cpu::new();
    assert_eq!(cpu.step(&mut mem), Err(Trap::Break(42)));
}
