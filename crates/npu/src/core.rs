//! A network-processor core: CPU + memory + installed program image, with
//! the reset/recovery behaviour the paper relies on ("dropping the attack
//! packet, resetting the processing stack, and continuing with processing
//! the next packet").

use crate::cpu::{Cpu, DecodeCache, ExecutionObserver, Observation, Trap};
use crate::mem::Memory;
use crate::runtime::{
    HaltReason, PacketOutcome, Verdict, MEM_SIZE, PKT_DATA_ADDR, PKT_LEN_ADDR, PKT_MAX_BYTES,
    STACK_TOP, VERDICT_ADDR,
};
use sdmmon_isa::Reg;

/// Default per-packet instruction budget; real packet workloads finish in a
/// few hundred instructions, so this bounds runaway/hijacked code.
pub const DEFAULT_STEP_LIMIT: u64 = 1_000_000;

/// Retired instructions buffered per block-verification pass of
/// [`Core::process_packet_blocks`] — sized to the monitor's 16-lane
/// bit-sliced hash width (16 × 4-bit lanes fill one `u64` plane).
pub const RETIRE_BLOCK: usize = 16;

/// An observer consuming retired instructions block-wise instead of one at
/// a time — the interface of the monitor's bit-sliced verification path
/// (see [`Core::process_packet_blocks`]).
///
/// Implementations must be observationally identical to checking each word
/// with a per-instruction [`ExecutionObserver`]: same accept/violate
/// verdicts at the same stream positions, same observer statistics. The
/// differential suites pin block-path runs against the scalar oracle.
pub trait BlockObserver {
    /// Called when packet processing (re)starts at `entry`.
    fn begin(&mut self, entry: u32);

    /// Verifies `1..=RETIRE_BLOCK` retired instruction words, in
    /// retirement order. Returns the index of the first violating word, or
    /// `None` if the whole block passes.
    fn observe_block(&mut self, words: &[u32]) -> Option<usize>;
}

/// One simulated PLASMA-class packet-processing core.
///
/// # Examples
///
/// See the crate-level example: install a workload with [`Core::install`],
/// then feed packets through [`Core::process_packet`].
#[derive(Debug, Clone)]
pub struct Core {
    cpu: Cpu,
    mem: Memory,
    /// Pristine program image for reset/recovery.
    image: Vec<u8>,
    /// Load address / entry point of the installed image.
    entry: u32,
    /// Pre-decoded text segment, built once at install from the pristine
    /// image and restored on reset; `None` until a program is installed.
    pristine_dcache: Option<DecodeCache>,
    /// Working decode cache; diverges from pristine when the running
    /// program writes into its own text.
    dcache: Option<DecodeCache>,
    step_limit: u64,
    /// Number of resets performed (for the recovery statistics).
    resets: u64,
}

impl Default for Core {
    fn default() -> Core {
        Core::new()
    }
}

impl Core {
    /// Creates a core with empty memory and no installed program.
    pub fn new() -> Core {
        Core {
            cpu: Cpu::new(),
            mem: Memory::new(MEM_SIZE),
            image: Vec::new(),
            entry: 0,
            pristine_dcache: None,
            dcache: None,
            step_limit: DEFAULT_STEP_LIMIT,
            resets: 0,
        }
    }

    /// Sets the per-packet instruction budget.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// Installs a program image at `base` (also the entry point) and resets
    /// the core. This is the operation the SDMMon control processor performs
    /// after decrypting and verifying a package.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit below the verdict/packet region.
    pub fn install(&mut self, image: &[u8], base: u32) {
        assert!(
            (base as u64 + image.len() as u64) <= VERDICT_ADDR as u64,
            "program image overlaps the packet/verdict region"
        );
        self.image = image.to_vec();
        self.entry = base;
        self.pristine_dcache = None;
        self.reset();
        // Decode the text segment once; every packet run reuses the
        // pre-decoded form (restored from this pristine copy on reset).
        let cache = DecodeCache::build(&self.mem, base, image.len() as u32);
        self.dcache = Some(cache.clone());
        self.pristine_dcache = Some(cache);
    }

    /// Returns true once a program is installed.
    pub fn is_programmed(&self) -> bool {
        !self.image.is_empty()
    }

    /// Entry point of the installed program.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// How many resets (recoveries) this core has performed.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Hard-resets the core: clears memory and registers and re-loads the
    /// pristine program image (the paper's recovery action after an attack).
    ///
    /// Afterwards memory equals a freshly installed core's byte for byte.
    /// [`Memory`] marks every page a store or block write touches, and an
    /// unmarked page is all zero, so the reset zeroes only the marked
    /// pages (those written since the last reset, the image's own
    /// included) and copies the pristine decode cache into the working
    /// one's allocation: recovery costs the pages the packets wrote, not
    /// the 1 MiB address space.
    pub fn reset(&mut self) {
        self.cpu.reset();
        self.mem.clear();
        if !self.image.is_empty() {
            self.mem
                .write_bytes(self.entry, &self.image)
                .expect("image fits: checked at install");
        }
        self.dcache.clone_from(&self.pristine_dcache);
        self.resets += 1;
    }

    /// Direct read access to core memory (for tests and attack setup).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Direct write access to core memory.
    ///
    /// The caller may write anywhere — including into the program text — so
    /// the pre-decoded instruction cache is conservatively flushed.
    pub fn memory_mut(&mut self) -> &mut Memory {
        if let Some(cache) = self.dcache.as_mut() {
            cache.invalidate_all();
        }
        &mut self.mem
    }

    /// Processes one packet: loads it into the packet buffer, runs the
    /// installed program from its entry point with `observer` watching
    /// every retired instruction, and reads back the verdict.
    ///
    /// Any unclean halt — trap, monitor violation, step-limit exhaustion —
    /// forces [`Verdict::Drop`] and leaves the core state *dirty*; callers
    /// implementing the paper's recovery policy should call [`Core::reset`]
    /// before the next packet (see [`crate::np::NetworkProcessor`]).
    ///
    /// Oversized packets are dropped without executing anything.
    pub fn process_packet<O: ExecutionObserver + ?Sized>(
        &mut self,
        packet: &[u8],
        observer: &mut O,
    ) -> PacketOutcome {
        assert!(self.is_programmed(), "no program installed");
        if packet.len() as u64 > PKT_MAX_BYTES as u64 {
            return oversized_outcome();
        }
        self.stage_packet(packet);
        observer.begin(self.entry);

        // Resolve the decode-cache `Option` once: the per-iteration `match`
        // (and the re-borrow of `self` it forces) otherwise sits on the hot
        // path of every retired instruction.
        let mut steps = 0u64;
        let step_limit = self.step_limit;
        let (cpu, mem) = (&mut self.cpu, &mut self.mem);
        let halt = match self.dcache.as_mut() {
            Some(cache) => run_loop(cpu, mem, observer, step_limit, &mut steps, |c, m| {
                c.step_cached(m, cache)
            }),
            None => run_loop(cpu, mem, observer, step_limit, &mut steps, Cpu::step),
        };
        self.outcome(halt, steps)
    }

    /// [`Core::process_packet`] with block-wise verification: retired
    /// instruction words accumulate in a [`RETIRE_BLOCK`]-entry buffer and
    /// are handed to the observer one block at a time, so a bit-sliced
    /// monitor hashes 16 instructions per pass. Trap, `break 0`, and
    /// step-limit boundaries flush a partial block (the observer's scalar
    /// tail).
    ///
    /// Execution past an undetected-yet violation inside a block is
    /// *speculative*: the outcome reports the step count at the violating
    /// instruction (exactly as the per-instruction path would), the halt
    /// forces [`Verdict::Drop`], and recovery resets the core — so the
    /// over-execution is observationally invisible. Outcomes are
    /// byte-identical to [`Core::process_packet`] under an equivalent
    /// per-instruction observer; the differential suites pin this.
    pub fn process_packet_blocks<O: BlockObserver + ?Sized>(
        &mut self,
        packet: &[u8],
        observer: &mut O,
    ) -> PacketOutcome {
        assert!(self.is_programmed(), "no program installed");
        if packet.len() as u64 > PKT_MAX_BYTES as u64 {
            return oversized_outcome();
        }
        self.stage_packet(packet);
        observer.begin(self.entry);

        let mut steps = 0u64;
        let step_limit = self.step_limit;
        let (cpu, mem) = (&mut self.cpu, &mut self.mem);
        let halt = match self.dcache.as_mut() {
            Some(cache) => block_loop(cpu, mem, observer, step_limit, &mut steps, |c, m| {
                c.step_cached(m, cache)
            }),
            None => block_loop(cpu, mem, observer, step_limit, &mut steps, Cpu::step),
        };
        self.outcome(halt, steps)
    }

    /// Loads the packet into the buffer region, clears the verdict word,
    /// and points the CPU at the entry with a fresh register file.
    fn stage_packet(&mut self, packet: &[u8]) {
        self.mem
            .store_u32(PKT_LEN_ADDR, packet.len() as u32)
            .expect("packet length slot in range");
        self.mem
            .write_bytes(PKT_DATA_ADDR, packet)
            .expect("bounded by PKT_MAX_BYTES");
        self.mem
            .store_u32(VERDICT_ADDR, Verdict::Drop.to_word())
            .expect("verdict slot in range");
        self.cpu.reset();
        self.cpu.set_pc(self.entry);
        self.cpu.set_reg(Reg::SP, STACK_TOP);
    }

    /// Reads the verdict for a finished run (forced Drop on unclean halts).
    fn outcome(&self, halt: HaltReason, steps: u64) -> PacketOutcome {
        let verdict = if halt.is_clean() {
            Verdict::from_word(
                self.mem
                    .load_u32(VERDICT_ADDR)
                    .expect("verdict slot in range"),
            )
        } else {
            Verdict::Drop
        };
        PacketOutcome {
            verdict,
            steps,
            halt,
        }
    }
}

/// Outcome of a packet too large for the buffer: dropped without running.
fn oversized_outcome() -> PacketOutcome {
    PacketOutcome {
        verdict: Verdict::Drop,
        steps: 0,
        halt: HaltReason::Completed,
    }
}

/// The interpret–observe loop of [`Core::process_packet`], monomorphized
/// per fetch path (`step` closures capture the decode cache, if any).
/// Inlined into each caller so the observer's fast path and the step
/// dispatch fold into one loop body.
#[inline(always)]
fn run_loop<O: ExecutionObserver + ?Sized>(
    cpu: &mut Cpu,
    mem: &mut crate::mem::Memory,
    observer: &mut O,
    step_limit: u64,
    steps: &mut u64,
    mut step: impl FnMut(&mut Cpu, &mut crate::mem::Memory) -> Result<crate::cpu::Retired, Trap>,
) -> HaltReason {
    loop {
        if *steps >= step_limit {
            return HaltReason::StepLimit;
        }
        match step(cpu, mem) {
            Ok(retired) => {
                *steps += 1;
                if observer.observe(retired.pc, retired.word) == Observation::Violation {
                    return HaltReason::MonitorViolation;
                }
            }
            Err(Trap::Break(0)) => {
                // The halting `break` itself retires and is visible to the
                // hardware monitor (the trap is delivered after the
                // instruction completes), so it must be observed too —
                // otherwise an attacker's final block would escape its
                // digest check.
                *steps += 1;
                let pc = cpu.pc();
                let word = mem.load_u32(pc).expect("break was just fetched from here");
                if observer.observe(pc, word) == Observation::Violation {
                    return HaltReason::MonitorViolation;
                }
                return HaltReason::Completed;
            }
            Err(trap) => return HaltReason::Fault(trap),
        }
    }
}

/// The interpret–buffer–verify loop of [`Core::process_packet_blocks`]:
/// retire up to [`RETIRE_BLOCK`] instructions, then verify the whole
/// buffer in one observer call. Monomorphized per fetch path like
/// [`run_loop`].
#[inline(always)]
fn block_loop<O: BlockObserver + ?Sized>(
    cpu: &mut Cpu,
    mem: &mut crate::mem::Memory,
    observer: &mut O,
    step_limit: u64,
    steps: &mut u64,
    mut step: impl FnMut(&mut Cpu, &mut crate::mem::Memory) -> Result<crate::cpu::Retired, Trap>,
) -> HaltReason {
    let mut buf = [0u32; RETIRE_BLOCK];
    loop {
        // Fill one retirement block, stopping early on any halt condition.
        let mut fill = 0usize;
        let mut pending = None;
        while fill < RETIRE_BLOCK {
            if *steps >= step_limit {
                pending = Some(HaltReason::StepLimit);
                break;
            }
            match step(cpu, mem) {
                Ok(retired) => {
                    *steps += 1;
                    buf[fill] = retired.word;
                    fill += 1;
                }
                Err(Trap::Break(0)) => {
                    // The halting `break` retires and must be verified too
                    // (same rule as the per-instruction loop).
                    *steps += 1;
                    let pc = cpu.pc();
                    buf[fill] = mem.load_u32(pc).expect("break was just fetched from here");
                    fill += 1;
                    pending = Some(HaltReason::Completed);
                    break;
                }
                Err(trap) => {
                    pending = Some(HaltReason::Fault(trap));
                    break;
                }
            }
        }
        if fill > 0 {
            if let Some(j) = observer.observe_block(&buf[..fill]) {
                // Report the step count the per-instruction path would have
                // stopped at; instructions retired past the violation were
                // speculative (the unclean halt forces Drop and the caller
                // resets the core). The violation also outranks whatever
                // condition ended the fill — the violating instruction
                // retired before it.
                *steps -= (fill - j - 1) as u64;
                return HaltReason::MonitorViolation;
            }
        }
        if let Some(halt) = pending {
            return halt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::NullObserver;
    use sdmmon_isa::asm::Assembler;

    fn forward_everything_program() -> Vec<u8> {
        Assembler::new()
            .assemble(
                "   li $t0, 0x0007fff0   # VERDICT_ADDR
                    li $t1, 7
                    sw $t1, 0($t0)
                    break 0",
            )
            .unwrap()
            .to_bytes()
    }

    #[test]
    fn runs_program_and_reads_verdict() {
        let mut core = Core::new();
        core.install(&forward_everything_program(), 0);
        let out = core.process_packet(&[1, 2, 3], &mut NullObserver);
        assert_eq!(out.verdict, Verdict::Forward(7));
        assert_eq!(out.halt, HaltReason::Completed);
        assert!(out.steps > 0);
    }

    #[test]
    fn packet_visible_to_program() {
        let program = Assembler::new()
            .assemble(
                "   li $t0, 0x00080000   # PKT_LEN_ADDR
                    lw $t1, 0($t0)       # len
                    lbu $t2, 4($t0)      # first payload byte
                    addu $t3, $t1, $t2
                    li $t4, 0x0007fff0
                    sw $t3, 0($t4)       # verdict = len + first byte
                    break 0",
            )
            .unwrap()
            .to_bytes();
        let mut core = Core::new();
        core.install(&program, 0);
        let out = core.process_packet(&[10, 0, 0], &mut NullObserver);
        assert_eq!(out.verdict, Verdict::Forward(13));
    }

    #[test]
    fn unclean_halt_forces_drop() {
        // Program sets verdict then jumps into the weeds.
        let program = Assembler::new()
            .assemble(
                "   li $t0, 0x0007fff0
                    li $t1, 9
                    sw $t1, 0($t0)
                    li $t2, 0x00f00000
                    jr $t2",
            )
            .unwrap()
            .to_bytes();
        let mut core = Core::new();
        core.install(&program, 0);
        let out = core.process_packet(&[], &mut NullObserver);
        assert_eq!(out.verdict, Verdict::Drop);
        assert!(matches!(out.halt, HaltReason::Fault(_)));
    }

    #[test]
    fn step_limit_stops_runaway() {
        let program = Assembler::new()
            .assemble("spin: b spin")
            .unwrap()
            .to_bytes();
        let mut core = Core::new();
        core.install(&program, 0);
        core.set_step_limit(100);
        let out = core.process_packet(&[], &mut NullObserver);
        assert_eq!(out.halt, HaltReason::StepLimit);
        assert_eq!(out.steps, 100);
        assert_eq!(out.verdict, Verdict::Drop);
    }

    #[test]
    fn observer_violation_stops_core() {
        struct AfterN(u32);
        impl ExecutionObserver for AfterN {
            fn begin(&mut self, _e: u32) {}
            fn observe(&mut self, _pc: u32, _w: u32) -> Observation {
                if self.0 == 0 {
                    return Observation::Violation;
                }
                self.0 -= 1;
                Observation::Continue
            }
        }
        let mut core = Core::new();
        core.install(&forward_everything_program(), 0);
        let out = core.process_packet(&[], &mut AfterN(2));
        assert_eq!(out.halt, HaltReason::MonitorViolation);
        assert_eq!(out.steps, 3);
        assert_eq!(out.verdict, Verdict::Drop);
    }

    #[test]
    fn reset_restores_pristine_image() {
        let mut core = Core::new();
        core.install(&forward_everything_program(), 0);
        // Corrupt the program in memory.
        core.memory_mut().store_u32(0, 0xffff_ffff).unwrap();
        let bad = core.process_packet(&[], &mut NullObserver);
        assert!(matches!(
            bad.halt,
            HaltReason::Fault(Trap::ReservedInstruction { .. })
        ));
        core.reset();
        let good = core.process_packet(&[], &mut NullObserver);
        assert_eq!(good.halt, HaltReason::Completed);
    }

    #[test]
    fn oversized_packet_dropped_without_running() {
        let mut core = Core::new();
        core.install(&forward_everything_program(), 0);
        let big = vec![0u8; (PKT_MAX_BYTES + 1) as usize];
        let out = core.process_packet(&big, &mut NullObserver);
        assert_eq!(out.steps, 0);
        assert_eq!(out.verdict, Verdict::Drop);
    }

    #[test]
    #[should_panic(expected = "no program installed")]
    fn processing_without_program_panics() {
        Core::new().process_packet(&[], &mut NullObserver);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn image_overlapping_packet_region_rejected() {
        let mut core = Core::new();
        core.install(&vec![0u8; (VERDICT_ADDR + 8) as usize], 0);
    }

    /// Drives a per-instruction observer through the block interface — the
    /// reference adapter the block-path tests compare against.
    struct BlockAdapter<O>(O);

    impl<O: ExecutionObserver> BlockObserver for BlockAdapter<O> {
        fn begin(&mut self, entry: u32) {
            self.0.begin(entry);
        }

        fn observe_block(&mut self, words: &[u32]) -> Option<usize> {
            words
                .iter()
                .position(|&w| self.0.observe(0, w) == Observation::Violation)
        }
    }

    #[test]
    fn block_path_matches_per_instruction_path() {
        let mut a = Core::new();
        a.install(&forward_everything_program(), 0);
        let mut b = a.clone();
        let out_a = a.process_packet(&[1, 2, 3], &mut NullObserver);
        let out_b = b.process_packet_blocks(&[1, 2, 3], &mut BlockAdapter(NullObserver));
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn block_violation_reports_exact_step() {
        struct AfterN(u32);
        impl ExecutionObserver for AfterN {
            fn begin(&mut self, _e: u32) {}
            fn observe(&mut self, _pc: u32, _w: u32) -> Observation {
                if self.0 == 0 {
                    return Observation::Violation;
                }
                self.0 -= 1;
                Observation::Continue
            }
        }
        // Violation at the third retired instruction, mid-block: the
        // outcome must report the per-instruction stopping point even
        // though the block ran ahead speculatively.
        let mut core = Core::new();
        core.install(&forward_everything_program(), 0);
        let out = core.process_packet_blocks(&[], &mut BlockAdapter(AfterN(2)));
        assert_eq!(out.halt, HaltReason::MonitorViolation);
        assert_eq!(out.steps, 3);
        assert_eq!(out.verdict, Verdict::Drop);
    }

    #[test]
    fn block_step_limit_flushes_partial_block() {
        let program = Assembler::new()
            .assemble("spin: b spin")
            .unwrap()
            .to_bytes();
        let mut core = Core::new();
        core.install(&program, 0);
        // A limit that is not a multiple of the block size exercises the
        // partial flush before the StepLimit halt.
        core.set_step_limit(37);
        let out = core.process_packet_blocks(&[], &mut BlockAdapter(NullObserver));
        assert_eq!(out.halt, HaltReason::StepLimit);
        assert_eq!(out.steps, 37);
    }
}
