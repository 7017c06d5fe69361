//! The streaming hijack scenario behind `sdmmon stream`, `sdmmon trace` and
//! the [`traceprof`](crate::traceprof) overhead gate: the deliberately
//! vulnerable forwarder on [`CORES`] monitored cores under
//! `SupervisorPolicy::ladder(2, 2)`, fed seeded open-loop rounds in which
//! one packet in 24 is a stack-smashing hijack, so a run walks the graded
//! supervisor (escalation, forensics, parole) mid-stream, not just clean
//! forwarding.

use sdmmon_isa::asm::Program;
use sdmmon_monitor::{HardwareMonitor, MerkleTreeHash, MonitoringGraph};
use sdmmon_net::traffic::{OpenLoopConfig, OpenLoopSource};
use sdmmon_npu::np::NetworkProcessor;
use sdmmon_npu::programs::{self, testing};
use sdmmon_npu::supervisor::SupervisorPolicy;
use sdmmon_rng::{Rng, SeedableRng, StdRng};

/// Simulated NP cores of the scenario.
pub const CORES: usize = 8;

/// One seeded instance of the scenario: the workload and its arrival
/// rounds, a pure function of `(seed, rounds)`.
#[derive(Debug, Clone)]
pub struct HijackScenario {
    /// The vulnerable forwarder every core runs.
    pub program: Program,
    image: Vec<u8>,
    /// Open-loop arrival rounds with the hijacks already salted in.
    pub rounds: Vec<Vec<Vec<u8>>>,
}

impl HijackScenario {
    /// `rounds` open-loop rounds from `seed`. The hijack salt (one packet
    /// in 24 replaced by `li $t5, 5 / break 1`) draws from `seed ^ 0x5A17`.
    pub fn new(seed: u64, rounds: usize) -> HijackScenario {
        let program = programs::vulnerable_forward().expect("embedded workload assembles");
        let mut source = OpenLoopSource::new(OpenLoopConfig {
            seed,
            ..OpenLoopConfig::default()
        });
        let mut rounds = source.take_rounds(rounds);
        let attack = testing::hijack_packet("li $t5, 5\nbreak 1").expect("attack assembles");
        let mut salt = StdRng::seed_from_u64(seed ^ 0x5A17);
        for round in &mut rounds {
            for packet in round.iter_mut() {
                if salt.gen_range(0..24u32) == 0 {
                    *packet = attack.clone();
                }
            }
        }
        HijackScenario {
            image: program.to_bytes(),
            program,
            rounds,
        }
    }

    /// A fresh NP at `shards` shards: every core runs the forwarder under
    /// its own monitor, keyed `0x57AE_0000 ^ core`.
    pub fn np(&self, shards: usize) -> NetworkProcessor {
        let mut np = NetworkProcessor::with_policy(CORES, SupervisorPolicy::ladder(2, 2));
        np.install_all(&self.image, self.program.base, |i| {
            let hash = MerkleTreeHash::new(0x57AE_0000 ^ i as u32);
            let graph =
                MonitoringGraph::extract(&self.program, &hash).expect("embedded workload extracts");
            Box::new(HardwareMonitor::new(graph, hash))
        });
        np.set_shards(shards);
        np
    }
}
