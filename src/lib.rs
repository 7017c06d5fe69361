//! # sdmmon — System-Level Security for Network Processors with Hardware Monitors
//!
//! A full reproduction of the DAC 2014 SDMMon paper (Hu, Wolf, Teixeira,
//! Tessier) as a Rust workspace. This facade crate re-exports every
//! subsystem so applications can depend on one crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`isa`] | `sdmmon-isa` | MIPS-I subset, assembler, disassembler |
//! | [`crypto`] | `sdmmon-crypto` | bignum, RSA, AES, SHA-256, HMAC |
//! | [`npu`] | `sdmmon-npu` | CPU simulator, packet runtime, multicore NP, workloads |
//! | [`monitor`] | `sdmmon-monitor` | monitoring graphs, hardware monitor, Merkle-tree hash |
//! | [`net`] | `sdmmon-net` | packets, traffic generation, channel/file-server models |
//! | [`fpga`] | `sdmmon-fpga` | FPGA resource estimation (Tables 1 and 3) |
//! | [`core`] | `sdmmon-core` | the SDMMon protocol: entities, packages, timing, fleets |
//! | [`testkit`] | `sdmmon-testkit` | deterministic fault injection + adversarial campaigns |
//! | [`bench`](mod@bench) | `sdmmon-bench` | benchmark scenarios (incl. the sharded-engine sweep) |
//! | [`obs`] | `sdmmon-obs` | structured event bus + metrics registry (deterministic observability) |
//!
//! # Examples
//!
//! The fastest way in is `examples/quickstart.rs`; the minimal monitored
//! core looks like this:
//!
//! ```
//! use sdmmon::monitor::{HardwareMonitor, MerkleTreeHash, MonitoringGraph};
//! use sdmmon::npu::{core::Core, programs, runtime::HaltReason};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = programs::ipv4_forward()?;
//! let hash = MerkleTreeHash::new(0x5eed_cafe);
//! let graph = MonitoringGraph::extract(&program, &hash)?;
//! let mut core = Core::new();
//! core.install(&program.to_bytes(), program.base);
//! let mut monitor = HardwareMonitor::new(graph, hash);
//! let packet = programs::testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"hello");
//! let outcome = core.process_packet(&packet, &mut monitor);
//! assert_eq!(outcome.halt, HaltReason::Completed);
//! # Ok(())
//! # }
//! ```

pub use sdmmon_bench as bench;
pub use sdmmon_core as core;
pub use sdmmon_crypto as crypto;
pub use sdmmon_fpga as fpga;
pub use sdmmon_isa as isa;
pub use sdmmon_monitor as monitor;
pub use sdmmon_net as net;
pub use sdmmon_npu as npu;
pub use sdmmon_obs as obs;
pub use sdmmon_testkit as testkit;
