//! # sdmmon-npu — network-processor substrate
//!
//! The SDMMon paper prototypes on a PLASMA (MIPS-I) network-processor core
//! inside a Stratix IV FPGA. This crate is the software model of that
//! substrate:
//!
//! * [`mem::Memory`] — the core's flat big-endian memory
//! * [`cpu::Cpu`] — a cycle-stepped MIPS-I interpreter that reports every
//!   retired `(pc, instruction word)` pair, exactly the signal the hardware
//!   monitor taps
//! * [`core::Core`] — CPU + memory + program image with reset/recovery
//! * [`runtime`] — the packet-processing ABI (packet buffer in, verdict out)
//! * [`np::NetworkProcessor`] — a multicore NP with per-core observers,
//!   dispatching packets and applying the paper's detect → drop → reset
//!   recovery
//! * [`engine`] — the building blocks of the NP's one executor behind
//!   [`np::NetworkProcessor::process_batch`] and
//!   [`np::NetworkProcessor::process_stream`]: a persistent worker pool,
//!   owner plans (static shard spans and whole-queue steal plans), and
//!   bounded ingress admission
//! * [`supervisor`] — the runtime escalation ladder above that recovery:
//!   redeploy a core from its last-known-good image after repeated unclean
//!   halts, quarantine it out of dispatch after repeated redeploys
//! * [`programs`] — the packet-processing workloads of the paper's
//!   evaluation (IPv4 forwarding, IPv4 + congestion management) plus the
//!   deliberately vulnerable forwarder used by the attack experiments
//!
//! # Examples
//!
//! ```
//! use sdmmon_npu::{core::Core, cpu::NullObserver, programs, runtime::Verdict};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = programs::ipv4_forward()?;
//! let mut core = Core::new();
//! core.install(&program.to_bytes(), program.base);
//! let packet = programs::testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 3], 64, &[1, 2, 3]);
//! let outcome = core.process_packet(&packet, &mut NullObserver);
//! assert_eq!(outcome.verdict, Verdict::Forward(3));
//! # Ok(())
//! # }
//! ```

pub mod core;
pub mod cpu;
pub mod engine;
pub mod mem;
pub mod np;
pub mod programs;
pub mod runtime;
pub mod supervisor;
pub mod timing;
pub mod trace;
