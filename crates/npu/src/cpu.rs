//! The MIPS-I processor core interpreter.
//!
//! Each call to [`Cpu::step`] fetches, decodes, and retires exactly one
//! instruction, returning the `(pc, word)` pair the hardware monitor of the
//! paper observes. Deviations from real MIPS are documented in DESIGN.md;
//! the significant one is the absence of branch-delay slots.

use crate::mem::{MemError, Memory};
use sdmmon_isa::{DecodeError, Inst, Reg};
use std::fmt;

/// A fault that stops instruction execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trap {
    /// `break` instruction; code 0 is the packet-runtime halt convention.
    Break(u32),
    /// `syscall` instruction (unused by the packet workloads).
    Syscall(u32),
    /// The fetched word is not a valid instruction.
    ReservedInstruction {
        /// Address of the bad word.
        pc: u32,
        /// The word itself.
        word: u32,
    },
    /// Signed overflow in `add`/`addi`/`sub`.
    Overflow {
        /// Address of the overflowing instruction.
        pc: u32,
    },
    /// A data access faulted.
    MemFault {
        /// Address of the faulting instruction.
        pc: u32,
        /// The underlying memory error.
        error: MemError,
    },
    /// Instruction fetch itself faulted (wild jump).
    FetchFault {
        /// The unfetchable pc.
        pc: u32,
        /// The underlying memory error.
        error: MemError,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Break(code) => write!(f, "break {code}"),
            Trap::Syscall(code) => write!(f, "syscall {code}"),
            Trap::ReservedInstruction { pc, word } => {
                write!(f, "reserved instruction 0x{word:08x} at 0x{pc:08x}")
            }
            Trap::Overflow { pc } => write!(f, "arithmetic overflow at 0x{pc:08x}"),
            Trap::MemFault { pc, error } => write!(f, "memory fault at 0x{pc:08x}: {error}"),
            Trap::FetchFault { pc, error } => write!(f, "fetch fault at 0x{pc:08x}: {error}"),
        }
    }
}

impl std::error::Error for Trap {}

/// One retired instruction, as reported to the hardware monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Address the instruction was fetched from.
    pub pc: u32,
    /// The raw 32-bit instruction word (input to the monitor's hash).
    pub word: u32,
    /// Address of the next instruction to execute.
    pub next_pc: u32,
}

/// Decision returned by an [`ExecutionObserver`] after each instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// Execution may continue.
    Continue,
    /// The observer flags the instruction stream as deviating from the
    /// monitoring graph — the core must be stopped and recovered.
    Violation,
}

/// A hardware monitor's view of the core: it sees every retired
/// `(pc, instruction word)` pair, exactly like the monitor of the paper
/// sees the hash of the processor's "current operation".
pub trait ExecutionObserver {
    /// Called when packet processing (re)starts at `entry`.
    fn begin(&mut self, entry: u32);

    /// Called for every retired instruction; returning
    /// [`Observation::Violation`] halts the core.
    fn observe(&mut self, pc: u32, word: u32) -> Observation;

    /// Runs one whole packet on `core` under this observer.
    ///
    /// The default forwards to [`crate::core::Core::process_packet`], so
    /// behaviour is always identical to the per-instruction path. The point
    /// of the hook is *dispatch cost*: a `Box<dyn ExecutionObserver>` pays
    /// one virtual call per retired instruction through
    /// [`ExecutionObserver::observe`], but only one per **packet** through
    /// this method — inside the override everything monomorphizes. Observers
    /// with a per-instruction fast path (the hardware monitor's compiled
    /// tables) override this; the sharded batch engine dispatches through
    /// it. Overrides must be observationally identical to the default —
    /// same outcomes, same observer statistics — for any packet; the
    /// differential suites pin this.
    fn run_packet(
        &mut self,
        core: &mut crate::core::Core,
        packet: &[u8],
    ) -> crate::runtime::PacketOutcome {
        core.process_packet(packet, self)
    }
}

/// An observer that accepts everything (a core without a monitor).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl ExecutionObserver for NullObserver {
    fn begin(&mut self, _entry: u32) {}

    fn observe(&mut self, _pc: u32, _word: u32) -> Observation {
        Observation::Continue
    }
}

/// One pre-decoded text-segment word.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// The word decodes; fetches reuse the decoded form directly.
    Decoded { word: u32, inst: Inst },
    /// The word does not decode; fetches trap without re-decoding.
    Reserved { word: u32 },
    /// Invalidated (or unreadable at build time); the next fetch re-decodes
    /// from memory and refills the slot.
    Stale,
}

/// A pre-decoded view of a program's text segment.
///
/// Decoding a MIPS word is a bit-slicing match that the interpreter
/// otherwise repeats on every retired instruction. The cache decodes the
/// whole text range once (at program install) so the hot fetch path is an
/// array index; stores into the text range invalidate the covered slots, so
/// self-modifying or corrupted code still behaves exactly like the uncached
/// interpreter.
///
/// # Examples
///
/// ```
/// use sdmmon_npu::{cpu::{Cpu, DecodeCache}, mem::Memory};
/// use sdmmon_isa::{Inst, Reg};
///
/// let mut mem = Memory::new(64);
/// mem.store_u32(0, Inst::Addiu { rt: Reg::T0, rs: Reg::ZERO, imm: 42 }.encode()).unwrap();
/// let mut cache = DecodeCache::build(&mem, 0, 4);
/// let mut cpu = Cpu::new();
/// cpu.step_cached(&mut mem, &mut cache).unwrap();
/// assert_eq!(cpu.reg(Reg::T0), 42);
/// ```
#[derive(Debug)]
pub struct DecodeCache {
    /// First cached address (word-aligned).
    base: u32,
    /// One slot per text word.
    slots: Vec<Slot>,
}

impl Clone for DecodeCache {
    fn clone(&self) -> DecodeCache {
        DecodeCache {
            base: self.base,
            slots: self.slots.clone(),
        }
    }

    /// Copies into the existing slot vector, so a core reset restores its
    /// pristine cache without allocating.
    fn clone_from(&mut self, source: &DecodeCache) {
        self.base = source.base;
        self.slots.clone_from(&source.slots);
    }
}

impl DecodeCache {
    /// Pre-decodes `len_bytes` of memory starting at `base`.
    ///
    /// Words that cannot be read (range runs past memory) are left stale and
    /// resolve through the ordinary fetch path; words that do not decode are
    /// remembered as reserved so they trap without re-decoding.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not word-aligned.
    pub fn build(mem: &Memory, base: u32, len_bytes: u32) -> DecodeCache {
        assert_eq!(base % 4, 0, "text segment must be word-aligned");
        let words = (len_bytes as usize).div_ceil(4);
        let mut slots = Vec::with_capacity(words);
        for i in 0..words {
            let addr = base.wrapping_add((i as u32) * 4);
            let slot = match mem.load_u32(addr) {
                Ok(word) => match Inst::decode(word) {
                    Ok(inst) => Slot::Decoded { word, inst },
                    Err(DecodeError { word }) => Slot::Reserved { word },
                },
                Err(_) => Slot::Stale,
            };
            slots.push(slot);
        }
        DecodeCache { base, slots }
    }

    /// First cached address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Marks every slot stale, forcing re-decode on next fetch. Used when
    /// memory is mutated behind the cache's back (e.g. direct test access).
    pub fn invalidate_all(&mut self) {
        self.slots.fill(Slot::Stale);
    }

    /// Invalidates the slots covering a `width`-byte store at `addr`.
    pub fn invalidate(&mut self, addr: u32, width: u32) {
        let end = addr.wrapping_add(width.saturating_sub(1));
        for word_addr in [addr & !3, end & !3] {
            if let Some(idx) = self.index_of(word_addr) {
                self.slots[idx] = Slot::Stale;
            }
        }
    }

    /// Slot index for an aligned in-range address.
    fn index_of(&self, addr: u32) -> Option<usize> {
        let off = addr.wrapping_sub(self.base);
        if addr < self.base || !off.is_multiple_of(4) {
            return None;
        }
        let idx = (off / 4) as usize;
        (idx < self.slots.len()).then_some(idx)
    }

    /// Cached fetch+decode for `pc`, or `None` when `pc` falls outside the
    /// cached range (caller takes the uncached fetch path). One index
    /// computation serves both the range check and the slot access — this
    /// is the first load of every retired instruction, so the double
    /// `covers()` + `fetch()` arithmetic it replaces was measurable.
    #[inline]
    fn try_fetch(&mut self, pc: u32, mem: &Memory) -> Option<Result<(u32, Inst), Trap>> {
        let idx = self.index_of(pc)?;
        Some(self.fetch_slot(idx, pc, mem))
    }

    /// Cached fetch+decode, refilling stale slots from memory.
    fn fetch_slot(&mut self, idx: usize, pc: u32, mem: &Memory) -> Result<(u32, Inst), Trap> {
        match self.slots[idx] {
            Slot::Decoded { word, inst } => Ok((word, inst)),
            Slot::Reserved { word } => Err(Trap::ReservedInstruction { pc, word }),
            Slot::Stale => {
                let word = mem
                    .load_u32(pc)
                    .map_err(|error| Trap::FetchFault { pc, error })?;
                match Inst::decode(word) {
                    Ok(inst) => {
                        self.slots[idx] = Slot::Decoded { word, inst };
                        Ok((word, inst))
                    }
                    Err(DecodeError { word }) => {
                        self.slots[idx] = Slot::Reserved { word };
                        Err(Trap::ReservedInstruction { pc, word })
                    }
                }
            }
        }
    }
}

/// Architectural state of the MIPS-I core.
///
/// # Examples
///
/// ```
/// use sdmmon_npu::{cpu::Cpu, mem::Memory};
/// use sdmmon_isa::{Inst, Reg};
///
/// let mut mem = Memory::new(64);
/// mem.store_u32(0, Inst::Addiu { rt: Reg::T0, rs: Reg::ZERO, imm: 42 }.encode()).unwrap();
/// let mut cpu = Cpu::new();
/// cpu.step(&mut mem).unwrap();
/// assert_eq!(cpu.reg(Reg::T0), 42);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpu {
    regs: [u32; 32],
    hi: u32,
    lo: u32,
    pc: u32,
}

impl Default for Cpu {
    fn default() -> Cpu {
        Cpu::new()
    }
}

impl Cpu {
    /// Creates a core with all registers zero and `pc = 0`.
    pub fn new() -> Cpu {
        Cpu {
            regs: [0; 32],
            hi: 0,
            lo: 0,
            pc: 0,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Reads a general-purpose register (`$zero` always reads 0).
    ///
    /// The `& 31` is a no-op (register numbers are `0..=31` by
    /// construction) that proves the index in range, keeping the per-
    /// instruction register accesses free of bounds checks.
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[(r.number() & 31) as usize]
    }

    /// Writes a general-purpose register (writes to `$zero` are ignored).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r != Reg::ZERO {
            self.regs[(r.number() & 31) as usize] = value;
        }
    }

    /// The HI register of the multiply/divide unit.
    pub fn hi(&self) -> u32 {
        self.hi
    }

    /// The LO register of the multiply/divide unit.
    pub fn lo(&self) -> u32 {
        self.lo
    }

    /// Resets all architectural state to power-on values.
    pub fn reset(&mut self) {
        *self = Cpu::new();
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] that stopped execution: `break`/`syscall`,
    /// reserved instructions, arithmetic overflow, or memory faults. The pc
    /// is left pointing *at* the trapping instruction so recovery code can
    /// inspect it.
    #[inline]
    pub fn step(&mut self, mem: &mut Memory) -> Result<Retired, Trap> {
        self.step_impl(mem, None)
    }

    /// Executes one instruction, fetching through a pre-decoded text cache.
    ///
    /// Behaviour is bit-identical to [`Cpu::step`] (stores into the cached
    /// range invalidate the covered slots), only faster: in-range fetches
    /// skip the load + decode work entirely.
    ///
    /// # Errors
    ///
    /// Same contract as [`Cpu::step`].
    #[inline]
    pub fn step_cached(
        &mut self,
        mem: &mut Memory,
        cache: &mut DecodeCache,
    ) -> Result<Retired, Trap> {
        self.step_impl(mem, Some(cache))
    }

    // Inline hint: each hot run loop wants its own copy specialized for
    // its (statically known) cache argument, folding the `Option` tests
    // and the per-instruction call/return round-trip away.
    #[inline]
    fn step_impl(
        &mut self,
        mem: &mut Memory,
        mut cache: Option<&mut DecodeCache>,
    ) -> Result<Retired, Trap> {
        let pc = self.pc;
        let (word, inst) = match cache.as_deref_mut().and_then(|c| c.try_fetch(pc, mem)) {
            Some(fetched) => fetched?,
            None => {
                let word = mem
                    .load_u32(pc)
                    .map_err(|error| Trap::FetchFault { pc, error })?;
                let inst = Inst::decode(word)
                    .map_err(|DecodeError { word }| Trap::ReservedInstruction { pc, word })?;
                (word, inst)
            }
        };
        let mut next_pc = pc.wrapping_add(4);

        use Inst::*;
        match inst {
            Sll { rd, rt, shamt } => self.set_reg(rd, self.reg(rt) << shamt),
            Srl { rd, rt, shamt } => self.set_reg(rd, self.reg(rt) >> shamt),
            Sra { rd, rt, shamt } => self.set_reg(rd, ((self.reg(rt) as i32) >> shamt) as u32),
            Sllv { rd, rt, rs } => self.set_reg(rd, self.reg(rt) << (self.reg(rs) & 31)),
            Srlv { rd, rt, rs } => self.set_reg(rd, self.reg(rt) >> (self.reg(rs) & 31)),
            Srav { rd, rt, rs } => {
                self.set_reg(rd, ((self.reg(rt) as i32) >> (self.reg(rs) & 31)) as u32)
            }
            Add { rd, rs, rt } => {
                let (v, overflow) = (self.reg(rs) as i32).overflowing_add(self.reg(rt) as i32);
                if overflow {
                    return Err(Trap::Overflow { pc });
                }
                self.set_reg(rd, v as u32);
            }
            Addu { rd, rs, rt } => self.set_reg(rd, self.reg(rs).wrapping_add(self.reg(rt))),
            Sub { rd, rs, rt } => {
                let (v, overflow) = (self.reg(rs) as i32).overflowing_sub(self.reg(rt) as i32);
                if overflow {
                    return Err(Trap::Overflow { pc });
                }
                self.set_reg(rd, v as u32);
            }
            Subu { rd, rs, rt } => self.set_reg(rd, self.reg(rs).wrapping_sub(self.reg(rt))),
            And { rd, rs, rt } => self.set_reg(rd, self.reg(rs) & self.reg(rt)),
            Or { rd, rs, rt } => self.set_reg(rd, self.reg(rs) | self.reg(rt)),
            Xor { rd, rs, rt } => self.set_reg(rd, self.reg(rs) ^ self.reg(rt)),
            Nor { rd, rs, rt } => self.set_reg(rd, !(self.reg(rs) | self.reg(rt))),
            Slt { rd, rs, rt } => {
                self.set_reg(rd, u32::from((self.reg(rs) as i32) < (self.reg(rt) as i32)))
            }
            Sltu { rd, rs, rt } => self.set_reg(rd, u32::from(self.reg(rs) < self.reg(rt))),
            Mult { rs, rt } => {
                let prod = (self.reg(rs) as i32 as i64) * (self.reg(rt) as i32 as i64);
                self.lo = prod as u32;
                self.hi = (prod >> 32) as u32;
            }
            Multu { rs, rt } => {
                let prod = (self.reg(rs) as u64) * (self.reg(rt) as u64);
                self.lo = prod as u32;
                self.hi = (prod >> 32) as u32;
            }
            Div { rs, rt } => {
                let (a, b) = (self.reg(rs) as i32, self.reg(rt) as i32);
                if b == 0 {
                    // MIPS leaves HI/LO unpredictable on divide-by-zero; we
                    // define them as zero for determinism.
                    self.lo = 0;
                    self.hi = 0;
                } else {
                    self.lo = a.wrapping_div(b) as u32;
                    self.hi = a.wrapping_rem(b) as u32;
                }
            }
            Divu { rs, rt } => {
                // Divide-by-zero is architecturally unpredictable; define
                // HI/LO as zero for determinism.
                let (a, b) = (self.reg(rs), self.reg(rt));
                self.lo = a.checked_div(b).unwrap_or(0);
                self.hi = a.checked_rem(b).unwrap_or(0);
            }
            Mfhi { rd } => self.set_reg(rd, self.hi),
            Mthi { rs } => self.hi = self.reg(rs),
            Mflo { rd } => self.set_reg(rd, self.lo),
            Mtlo { rs } => self.lo = self.reg(rs),
            Jr { rs } => next_pc = self.reg(rs),
            Jalr { rd, rs } => {
                let target = self.reg(rs);
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = target;
            }
            J { index } => next_pc = (pc.wrapping_add(4) & 0xF000_0000) | (index << 2),
            Jal { index } => {
                self.set_reg(Reg::RA, pc.wrapping_add(4));
                next_pc = (pc.wrapping_add(4) & 0xF000_0000) | (index << 2);
            }
            Syscall { code } => return Err(Trap::Syscall(code)),
            Break { code } => return Err(Trap::Break(code)),
            Beq { rs, rt, offset } => {
                if self.reg(rs) == self.reg(rt) {
                    next_pc = branch_target(pc, offset);
                }
            }
            Bne { rs, rt, offset } => {
                if self.reg(rs) != self.reg(rt) {
                    next_pc = branch_target(pc, offset);
                }
            }
            Blez { rs, offset } => {
                if (self.reg(rs) as i32) <= 0 {
                    next_pc = branch_target(pc, offset);
                }
            }
            Bgtz { rs, offset } => {
                if (self.reg(rs) as i32) > 0 {
                    next_pc = branch_target(pc, offset);
                }
            }
            Bltz { rs, offset } => {
                if (self.reg(rs) as i32) < 0 {
                    next_pc = branch_target(pc, offset);
                }
            }
            Bgez { rs, offset } => {
                if (self.reg(rs) as i32) >= 0 {
                    next_pc = branch_target(pc, offset);
                }
            }
            Bltzal { rs, offset } => {
                let taken = (self.reg(rs) as i32) < 0;
                self.set_reg(Reg::RA, pc.wrapping_add(4));
                if taken {
                    next_pc = branch_target(pc, offset);
                }
            }
            Bgezal { rs, offset } => {
                let taken = (self.reg(rs) as i32) >= 0;
                self.set_reg(Reg::RA, pc.wrapping_add(4));
                if taken {
                    next_pc = branch_target(pc, offset);
                }
            }
            Addi { rt, rs, imm } => {
                let (v, overflow) = (self.reg(rs) as i32).overflowing_add(imm as i32);
                if overflow {
                    return Err(Trap::Overflow { pc });
                }
                self.set_reg(rt, v as u32);
            }
            Addiu { rt, rs, imm } => self.set_reg(rt, self.reg(rs).wrapping_add(imm as i32 as u32)),
            Slti { rt, rs, imm } => self.set_reg(rt, u32::from((self.reg(rs) as i32) < imm as i32)),
            Sltiu { rt, rs, imm } => self.set_reg(rt, u32::from(self.reg(rs) < imm as i32 as u32)),
            Andi { rt, rs, imm } => self.set_reg(rt, self.reg(rs) & imm as u32),
            Ori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) | imm as u32),
            Xori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) ^ imm as u32),
            Lui { rt, imm } => self.set_reg(rt, (imm as u32) << 16),
            Lb { rt, base, offset } => {
                let v = self.load(mem, pc, base, offset, Memory::load_u8)?;
                self.set_reg(rt, v as i8 as i32 as u32);
            }
            Lbu { rt, base, offset } => {
                let v = self.load(mem, pc, base, offset, Memory::load_u8)?;
                self.set_reg(rt, v as u32);
            }
            Lh { rt, base, offset } => {
                let v = self.load(mem, pc, base, offset, Memory::load_u16)?;
                self.set_reg(rt, v as i16 as i32 as u32);
            }
            Lhu { rt, base, offset } => {
                let v = self.load(mem, pc, base, offset, Memory::load_u16)?;
                self.set_reg(rt, v as u32);
            }
            Lw { rt, base, offset } => {
                let v = self.load(mem, pc, base, offset, Memory::load_u32)?;
                self.set_reg(rt, v);
            }
            Sb { rt, base, offset } => {
                let addr = self.eff_addr(base, offset);
                mem.store_u8(addr, self.reg(rt) as u8)
                    .map_err(|error| Trap::MemFault { pc, error })?;
                if let Some(c) = cache.as_deref_mut() {
                    c.invalidate(addr, 1);
                }
            }
            Sh { rt, base, offset } => {
                let addr = self.eff_addr(base, offset);
                mem.store_u16(addr, self.reg(rt) as u16)
                    .map_err(|error| Trap::MemFault { pc, error })?;
                if let Some(c) = cache.as_deref_mut() {
                    c.invalidate(addr, 2);
                }
            }
            Sw { rt, base, offset } => {
                let addr = self.eff_addr(base, offset);
                mem.store_u32(addr, self.reg(rt))
                    .map_err(|error| Trap::MemFault { pc, error })?;
                if let Some(c) = cache {
                    c.invalidate(addr, 4);
                }
            }
        }

        self.pc = next_pc;
        Ok(Retired { pc, word, next_pc })
    }

    fn eff_addr(&self, base: Reg, offset: i16) -> u32 {
        self.reg(base).wrapping_add(offset as i32 as u32)
    }

    fn load<T>(
        &self,
        mem: &Memory,
        pc: u32,
        base: Reg,
        offset: i16,
        f: impl Fn(&Memory, u32) -> Result<T, MemError>,
    ) -> Result<T, Trap> {
        f(mem, self.eff_addr(base, offset)).map_err(|error| Trap::MemFault { pc, error })
    }
}

fn branch_target(pc: u32, offset: i16) -> u32 {
    pc.wrapping_add(4)
        .wrapping_add(((offset as i32) << 2) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdmmon_isa::asm::Assembler;

    /// Assembles and runs `src` until `break 0`, returning the CPU.
    fn run(src: &str) -> (Cpu, Memory) {
        let program = Assembler::new()
            .assemble(src)
            .expect("test program assembles");
        let mut mem = Memory::new(0x10000);
        mem.write_bytes(0, &program.to_bytes()).unwrap();
        let mut cpu = Cpu::new();
        for _ in 0..10_000 {
            match cpu.step(&mut mem) {
                Ok(_) => {}
                Err(Trap::Break(0)) => return (cpu, mem),
                Err(t) => panic!("unexpected trap: {t}"),
            }
        }
        panic!("program did not halt");
    }

    #[test]
    fn arithmetic_and_logic() {
        let (cpu, _) = run("li $t0, 7
             li $t1, 5
             addu $t2, $t0, $t1
             subu $t3, $t0, $t1
             and  $t4, $t0, $t1
             or   $t5, $t0, $t1
             xor  $t6, $t0, $t1
             nor  $t7, $t0, $t1
             break 0");
        assert_eq!(cpu.reg(Reg::T2), 12);
        assert_eq!(cpu.reg(Reg::T3), 2);
        assert_eq!(cpu.reg(Reg::T4), 5);
        assert_eq!(cpu.reg(Reg::T5), 7);
        assert_eq!(cpu.reg(Reg::T6), 2);
        assert_eq!(cpu.reg(Reg::T7), !7u32);
    }

    #[test]
    fn shifts_and_set_less_than() {
        let (cpu, _) = run("li $t0, 0x80000000
             srl $t1, $t0, 4
             sra $t2, $t0, 4
             li $t3, 3
             sllv $t4, $t3, $t3
             slt $t5, $t0, $zero     # signed: 0x80000000 < 0
             sltu $t6, $t0, $zero    # unsigned: not less
             slti $t7, $t3, 10
             break 0");
        assert_eq!(cpu.reg(Reg::T1), 0x0800_0000);
        assert_eq!(cpu.reg(Reg::T2), 0xF800_0000);
        assert_eq!(cpu.reg(Reg::T4), 24);
        assert_eq!(cpu.reg(Reg::T5), 1);
        assert_eq!(cpu.reg(Reg::T6), 0);
        assert_eq!(cpu.reg(Reg::T7), 1);
    }

    #[test]
    fn multiply_divide() {
        let (cpu, _) = run("li $t0, -6
             li $t1, 4
             mult $t0, $t1
             mflo $t2
             mfhi $t3
             li $t4, 17
             li $t5, 5
             divu $t4, $t5
             mflo $t6
             mfhi $t7
             break 0");
        assert_eq!(cpu.reg(Reg::T2) as i32, -24);
        assert_eq!(cpu.reg(Reg::T3) as i32, -1); // sign extension of product
        assert_eq!(cpu.reg(Reg::T6), 3);
        assert_eq!(cpu.reg(Reg::T7), 2);
    }

    #[test]
    fn divide_by_zero_is_deterministic_zero() {
        let (cpu, _) = run("li $t0, 9
             div $t0, $zero
             mflo $t1
             mfhi $t2
             break 0");
        assert_eq!(cpu.reg(Reg::T1), 0);
        assert_eq!(cpu.reg(Reg::T2), 0);
    }

    #[test]
    fn loads_stores_and_sign_extension() {
        let (cpu, _) = run("li $t0, 0x1000
             li $t1, 0xffffff80
             sb $t1, 0($t0)
             lb $t2, 0($t0)
             lbu $t3, 0($t0)
             li $t4, 0x8001
             sh $t4, 2($t0)
             lh $t5, 2($t0)
             lhu $t6, 2($t0)
             sw $t1, 4($t0)
             lw $t7, 4($t0)
             break 0");
        assert_eq!(cpu.reg(Reg::T2), 0xffff_ff80);
        assert_eq!(cpu.reg(Reg::T3), 0x80);
        assert_eq!(cpu.reg(Reg::T5), 0xffff_8001);
        assert_eq!(cpu.reg(Reg::T6), 0x8001);
        assert_eq!(cpu.reg(Reg::T7), 0xffff_ff80);
    }

    #[test]
    fn branches_and_loop() {
        let (cpu, _) = run("       li $t0, 5
                    li $t1, 0
             loop:  addu $t1, $t1, $t0
                    addiu $t0, $t0, -1
                    bgtz $t0, loop
                    break 0");
        assert_eq!(cpu.reg(Reg::T1), 15); // 5+4+3+2+1
    }

    #[test]
    fn function_call_and_return() {
        let (cpu, _) = run("       li $sp, 0x8000
                    li $a0, 20
                    jal double
                    move $s0, $v0
                    break 0
             double: addu $v0, $a0, $a0
                    jr $ra");
        assert_eq!(cpu.reg(Reg::S0), 40);
    }

    #[test]
    fn jalr_links_and_jumps() {
        let (cpu, _) = run("       la $t0, target
                    jalr $t1, $t0
                    break 0
             target: li $s1, 99
                    jr $t1");
        assert_eq!(cpu.reg(Reg::S1), 99);
        assert_eq!(cpu.reg(Reg::T1), 12); // return address after jalr (2 la words + jalr)
    }

    #[test]
    fn zero_register_is_immutable() {
        let (cpu, _) = run("li $at, 7\naddu $zero, $at, $at\nbreak 0");
        assert_eq!(cpu.reg(Reg::ZERO), 0);
    }

    #[test]
    fn overflow_traps() {
        let program = Assembler::new()
            .assemble("li $t0, 0x7fffffff\nli $t1, 1\nadd $t2, $t0, $t1")
            .unwrap();
        let mut mem = Memory::new(0x1000);
        mem.write_bytes(0, &program.to_bytes()).unwrap();
        let mut cpu = Cpu::new();
        let trap = loop {
            match cpu.step(&mut mem) {
                Ok(_) => {}
                Err(t) => break t,
            }
        };
        assert_eq!(trap, Trap::Overflow { pc: 16 });
        assert_eq!(cpu.reg(Reg::T2), 0, "overflowing add must not write rd");
    }

    #[test]
    fn unaligned_access_traps() {
        let program = Assembler::new()
            .assemble("li $t0, 2\nlw $t1, 0($t0)")
            .unwrap();
        let mut mem = Memory::new(0x1000);
        mem.write_bytes(0, &program.to_bytes()).unwrap();
        let mut cpu = Cpu::new();
        let trap = loop {
            match cpu.step(&mut mem) {
                Ok(_) => {}
                Err(t) => break t,
            }
        };
        assert!(matches!(
            trap,
            Trap::MemFault {
                error: MemError::Unaligned { addr: 2, .. },
                ..
            }
        ));
    }

    #[test]
    fn wild_jump_fetch_faults() {
        let program = Assembler::new()
            .assemble("li $t0, 0x00ff0000\njr $t0")
            .unwrap();
        let mut mem = Memory::new(0x1000);
        mem.write_bytes(0, &program.to_bytes()).unwrap();
        let mut cpu = Cpu::new();
        let trap = loop {
            match cpu.step(&mut mem) {
                Ok(_) => {}
                Err(t) => break t,
            }
        };
        assert!(matches!(trap, Trap::FetchFault { pc: 0x00ff0000, .. }));
    }

    /// Runs `src` twice — once plain, once through a [`DecodeCache`] — and
    /// asserts the retired streams and final states are identical.
    fn run_both_ways(src: &str) -> (Cpu, Memory) {
        let program = Assembler::new()
            .assemble(src)
            .expect("test program assembles");
        let bytes = program.to_bytes();

        let mut mem_a = Memory::new(0x10000);
        mem_a.write_bytes(0, &bytes).unwrap();
        let mut cpu_a = Cpu::new();

        let mut mem_b = Memory::new(0x10000);
        mem_b.write_bytes(0, &bytes).unwrap();
        let mut cpu_b = Cpu::new();
        let mut cache = DecodeCache::build(&mem_b, 0, bytes.len() as u32);

        for _ in 0..100_000 {
            let plain = cpu_a.step(&mut mem_a);
            let cached = cpu_b.step_cached(&mut mem_b, &mut cache);
            assert_eq!(plain, cached, "cached stepping diverged");
            assert_eq!(cpu_a, cpu_b);
            match plain {
                Ok(_) => {}
                Err(_) => return (cpu_b, mem_b),
            }
        }
        panic!("program did not halt");
    }

    #[test]
    fn cached_stepping_is_bit_identical() {
        run_both_ways(
            "       li $t0, 5
                    li $t1, 0
             loop:  addu $t1, $t1, $t0
                    addiu $t0, $t0, -1
                    bgtz $t0, loop
                    li $sp, 0x8000
                    jal double
                    break 0
             double: addu $v0, $a0, $a0
                    jr $ra",
        );
    }

    #[test]
    fn cached_stepping_sees_self_modifying_code() {
        // The program overwrites its own upcoming instruction (a `break 1`)
        // with `break 0` before reaching it; the store-side invalidation
        // must make the cached path fetch the new word.
        let (cpu, _) = run_both_ways(
            "       la $t0, patch
                    li $t1, 13             # 0x0000000d: encoding of `break 0`
                    sw $t1, 0($t0)
                    li $s0, 77
             patch: break 1",
        );
        assert_eq!(cpu.reg(Reg::S0), 77);
    }

    #[test]
    fn cache_invalidate_all_forces_refetch() {
        let program = Assembler::new().assemble("nop\nbreak 0").unwrap();
        let mut mem = Memory::new(0x100);
        mem.write_bytes(0, &program.to_bytes()).unwrap();
        let mut cache = DecodeCache::build(&mem, 0, 8);
        // Mutate memory behind the cache's back, then invalidate.
        mem.store_u32(
            0,
            Inst::Addiu {
                rt: Reg::T0,
                rs: Reg::ZERO,
                imm: 9,
            }
            .encode(),
        )
        .unwrap();
        cache.invalidate_all();
        let mut cpu = Cpu::new();
        cpu.step_cached(&mut mem, &mut cache).unwrap();
        assert_eq!(cpu.reg(Reg::T0), 9);
    }

    #[test]
    fn cache_out_of_range_fetch_falls_through() {
        // Program counter outside the cached range uses the plain path.
        let mut mem = Memory::new(0x100);
        mem.store_u32(0x40, Inst::Break { code: 3 }.encode())
            .unwrap();
        let mut cache = DecodeCache::build(&mem, 0, 8);
        let mut cpu = Cpu::new();
        cpu.set_pc(0x40);
        assert_eq!(cpu.step_cached(&mut mem, &mut cache), Err(Trap::Break(3)));
    }

    #[test]
    fn cache_reserved_word_traps_like_plain_step() {
        let mut mem = Memory::new(0x100);
        mem.store_u32(0, 0xffff_ffff).unwrap();
        let mut cache = DecodeCache::build(&mem, 0, 4);
        let mut cpu = Cpu::new();
        assert_eq!(
            cpu.step_cached(&mut mem, &mut cache),
            Err(Trap::ReservedInstruction {
                pc: 0,
                word: 0xffff_ffff
            })
        );
    }

    #[test]
    fn retired_reports_pc_word_and_next() {
        let program = Assembler::new().assemble("nop\nj 0").unwrap();
        let mut mem = Memory::new(0x100);
        mem.write_bytes(0, &program.to_bytes()).unwrap();
        let mut cpu = Cpu::new();
        let r0 = cpu.step(&mut mem).unwrap();
        assert_eq!((r0.pc, r0.word, r0.next_pc), (0, 0, 4));
        let r1 = cpu.step(&mut mem).unwrap();
        assert_eq!(r1.pc, 4);
        assert_eq!(r1.next_pc, 0);
    }
}
