//! # sdmmon-monitor — hardware monitors for network processors
//!
//! This crate models the per-instruction hardware monitor of Mao & Wolf
//! (IEEE ToC 2010) that the SDMMon paper builds on:
//!
//! 1. **Offline analysis** ([`graph::MonitoringGraph::extract`]) turns a
//!    processing binary into a *monitoring graph*: for every instruction, a
//!    short (default 4-bit) hash of the instruction word plus the set of
//!    valid successor addresses derived from the control-flow structure.
//! 2. **Runtime checking** ([`monitor::HardwareMonitor`]) observes the hash
//!    of each instruction the core retires and tracks the set of graph
//!    positions consistent with the observed hash stream (an NFA, compiled
//!    to a DFA transition table when the monitor is built). If the set
//!    becomes empty the processor deviated from programmed behaviour — an
//!    attack is flagged and the core is reset.
//! 3. **Parameterizable hashing** ([`hash::MerkleTreeHash`]) gives every
//!    router its own secret 32-bit hash parameter, so a hash-collision
//!    attack built for one device does not transfer to any other — the
//!    paper's answer to fleet homogeneity (SR2).
//!
//! The monitor deliberately matches on the *hash stream only* (never the
//! program counter), exactly like the hardware design: the pc argument of
//! the observer interface is used for diagnostics alone.
//!
//! # Examples
//!
//! ```
//! use sdmmon_monitor::{graph::MonitoringGraph, hash::MerkleTreeHash, monitor::HardwareMonitor};
//! use sdmmon_npu::{core::Core, programs, runtime::HaltReason};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = programs::ipv4_forward()?;
//! let hash = MerkleTreeHash::new(0xC0FF_EE42);
//! let graph = MonitoringGraph::extract(&program, &hash)?;
//! let mut monitor = HardwareMonitor::new(graph, hash);
//!
//! let mut core = Core::new();
//! core.install(&program.to_bytes(), program.base);
//! let packet = programs::testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"hi");
//! let outcome = core.process_packet(&packet, &mut monitor);
//! assert_eq!(outcome.halt, HaltReason::Completed); // legit traffic passes
//! # Ok(())
//! # }
//! ```

pub mod block;
pub mod graph;
pub mod hash;
pub mod monitor;

pub use graph::MonitoringGraph;
pub use hash::{BitcountHash, InstructionHash, MerkleTreeHash};
pub use monitor::HardwareMonitor;
