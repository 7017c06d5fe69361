//! Flat big-endian memory for the simulated network-processor core.

use std::fmt;

/// Error raised by a memory access the core cannot perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemError {
    /// The access touched bytes outside the memory array.
    OutOfBounds {
        /// Faulting address.
        addr: u32,
        /// Access width in bytes.
        width: u32,
    },
    /// A half-word or word access was not naturally aligned.
    Unaligned {
        /// Faulting address.
        addr: u32,
        /// Access width in bytes.
        width: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr, width } => {
                write!(f, "{width}-byte access at 0x{addr:08x} out of bounds")
            }
            MemError::Unaligned { addr, width } => {
                write!(f, "{width}-byte access at 0x{addr:08x} not aligned")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Bytes per page of [`Memory`]'s written-page bitmap.
const PAGE_BYTES: usize = 4096;

/// Byte-addressed big-endian memory (classic MIPS byte order, matching the
/// PLASMA core the paper uses).
///
/// Memory keeps one bit per 4 KiB page written since the last
/// [`Memory::clear`]. The store methods and [`Memory::write_bytes`] are
/// the only ways to change a byte, and each marks the pages it touches, so
/// an unmarked page is always all zero. `clear` relies on that invariant to
/// zero only the marked pages: resetting a core costs the pages its last
/// run wrote, not the whole memory.
///
/// # Examples
///
/// ```
/// use sdmmon_npu::mem::Memory;
///
/// let mut mem = Memory::new(64);
/// mem.store_u32(0, 0x01020304).unwrap();
/// assert_eq!(mem.load_u8(1).unwrap(), 2);
/// assert_eq!(mem.load_u16(2).unwrap(), 0x0304);
/// assert!(mem.load_u32(62).is_err());
/// ```
#[derive(Debug, Clone, Eq)]
pub struct Memory {
    bytes: Vec<u8>,
    /// One bit per page written since the last clear (page `p` is bit
    /// `p % 64` of word `p / 64`).
    written: Vec<u64>,
}

/// Equality is on contents only: which pages were written since the last
/// clear is bookkeeping, not state.
impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        self.bytes == other.bytes
    }
}

impl Memory {
    /// Allocates `size` bytes of zeroed memory.
    pub fn new(size: u32) -> Memory {
        let pages = (size as usize).div_ceil(PAGE_BYTES);
        Memory {
            bytes: vec![0; size as usize],
            written: vec![0; pages.div_ceil(64)],
        }
    }

    /// Memory size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// Zeroes all of memory by zeroing the pages written since the last
    /// clear; every other page is already zero.
    pub fn clear(&mut self) {
        for (w, word) in self.written.iter_mut().enumerate() {
            while *word != 0 {
                let start = (w * 64 + word.trailing_zeros() as usize) * PAGE_BYTES;
                let end = (start + PAGE_BYTES).min(self.bytes.len());
                self.bytes[start..end].fill(0);
                *word &= *word - 1;
            }
        }
    }

    /// Marks the page holding byte `i` as written. A naturally aligned
    /// half-word or word never straddles a page, so a scalar store marks
    /// exactly the page of its first byte.
    #[inline]
    fn mark(&mut self, i: usize) {
        let page = i / PAGE_BYTES;
        self.written[page / 64] |= 1 << (page % 64);
    }

    fn check(&self, addr: u32, width: u32) -> Result<usize, MemError> {
        if width > 1 && !addr.is_multiple_of(width) {
            return Err(MemError::Unaligned { addr, width });
        }
        let end = addr as u64 + width as u64;
        if end > self.bytes.len() as u64 {
            return Err(MemError::OutOfBounds { addr, width });
        }
        Ok(addr as usize)
    }

    /// Loads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] past the end of memory.
    pub fn load_u8(&self, addr: u32) -> Result<u8, MemError> {
        let i = self.check(addr, 1)?;
        Ok(self.bytes[i])
    }

    /// Loads a big-endian half-word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unaligned`] for odd addresses and
    /// [`MemError::OutOfBounds`] past the end of memory.
    pub fn load_u16(&self, addr: u32) -> Result<u16, MemError> {
        let i = self.check(addr, 2)?;
        let b: [u8; 2] = self.bytes[i..i + 2].try_into().expect("checked width");
        Ok(u16::from_be_bytes(b))
    }

    /// Loads a big-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unaligned`] for non-multiple-of-4 addresses and
    /// [`MemError::OutOfBounds`] past the end of memory.
    pub fn load_u32(&self, addr: u32) -> Result<u32, MemError> {
        let i = self.check(addr, 4)?;
        let b: [u8; 4] = self.bytes[i..i + 4].try_into().expect("checked width");
        Ok(u32::from_be_bytes(b))
    }

    /// Stores one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] past the end of memory.
    pub fn store_u8(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        let i = self.check(addr, 1)?;
        self.mark(i);
        self.bytes[i] = value;
        Ok(())
    }

    /// Stores a big-endian half-word.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Memory::load_u16`].
    pub fn store_u16(&mut self, addr: u32, value: u16) -> Result<(), MemError> {
        let i = self.check(addr, 2)?;
        self.mark(i);
        self.bytes[i..i + 2].copy_from_slice(&value.to_be_bytes());
        Ok(())
    }

    /// Stores a big-endian word.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Memory::load_u32`].
    pub fn store_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let i = self.check(addr, 4)?;
        self.mark(i);
        self.bytes[i..i + 4].copy_from_slice(&value.to_be_bytes());
        Ok(())
    }

    /// Copies `data` into memory starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the block does not fit.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), MemError> {
        let end = addr as u64 + data.len() as u64;
        if end > self.bytes.len() as u64 {
            return Err(MemError::OutOfBounds {
                addr,
                width: data.len() as u32,
            });
        }
        let (start, end) = (addr as usize, addr as usize + data.len());
        for page_start in (start / PAGE_BYTES * PAGE_BYTES..end).step_by(PAGE_BYTES) {
            self.mark(page_start);
        }
        self.bytes[start..end].copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the block does not fit.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], MemError> {
        let end = addr as u64 + len as u64;
        if end > self.bytes.len() as u64 {
            return Err(MemError::OutOfBounds { addr, width: len });
        }
        Ok(&self.bytes[addr as usize..(addr + len) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_are_big_endian() {
        let mut m = Memory::new(16);
        m.store_u32(4, 0xAABBCCDD).unwrap();
        assert_eq!(m.load_u8(4).unwrap(), 0xAA);
        assert_eq!(m.load_u8(7).unwrap(), 0xDD);
        assert_eq!(m.load_u16(4).unwrap(), 0xAABB);
        assert_eq!(m.load_u32(4).unwrap(), 0xAABBCCDD);
        m.store_u16(0, 0x1234).unwrap();
        assert_eq!(m.load_u8(0).unwrap(), 0x12);
        m.store_u8(2, 0x56).unwrap();
        assert_eq!(m.load_u16(2).unwrap(), 0x5600);
    }

    #[test]
    fn alignment_enforced() {
        let mut m = Memory::new(16);
        assert_eq!(
            m.load_u32(2),
            Err(MemError::Unaligned { addr: 2, width: 4 })
        );
        assert_eq!(
            m.load_u16(1),
            Err(MemError::Unaligned { addr: 1, width: 2 })
        );
        assert_eq!(
            m.store_u32(5, 0),
            Err(MemError::Unaligned { addr: 5, width: 4 })
        );
    }

    #[test]
    fn bounds_enforced() {
        let mut m = Memory::new(8);
        assert!(m.load_u8(7).is_ok());
        assert_eq!(
            m.load_u8(8),
            Err(MemError::OutOfBounds { addr: 8, width: 1 })
        );
        assert!(m.store_u32(4, 1).is_ok());
        assert!(m.store_u32(8, 1).is_err());
        // Wrap-around addresses must not panic.
        assert!(m.load_u32(u32::MAX - 3).is_err());
    }

    #[test]
    fn block_operations() {
        let mut m = Memory::new(16);
        m.write_bytes(3, &[1, 2, 3]).unwrap();
        assert_eq!(m.read_bytes(3, 3).unwrap(), &[1, 2, 3]);
        assert!(m.write_bytes(15, &[1, 2]).is_err());
        assert!(m.read_bytes(15, 2).is_err());
    }

    #[test]
    fn clear_zeroes() {
        let mut m = Memory::new(8);
        m.store_u32(0, u32::MAX).unwrap();
        m.clear();
        assert_eq!(m.load_u32(0).unwrap(), 0);
    }

    /// After any sequence of stores and block writes, `clear` leaves every
    /// byte equal to a freshly allocated memory's — including blocks that
    /// straddle pages, the last byte, and a size that is not a page
    /// multiple.
    #[test]
    fn clear_matches_fresh_memory_after_random_writes() {
        use sdmmon_rng::{Rng, RngCore, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x3E3_0001);
        for size in [64u32, 5000, crate::runtime::MEM_SIZE] {
            let fresh = Memory::new(size);
            let mut m = Memory::new(size);
            for _ in 0..24 {
                for _ in 0..rng.gen_range(1..48usize) {
                    let addr = rng.gen_range(0..size);
                    match rng.gen_range(0..4u32) {
                        0 => m.store_u8(addr, rng.gen_range(1..=255u8)).unwrap(),
                        1 => m.store_u16(addr & !1, rng.gen()).unwrap(),
                        2 => m.store_u32(addr & !3, rng.next_u32()).unwrap(),
                        _ => {
                            let len = rng.gen_range(0..=(size - addr).min(9000));
                            let mut data = vec![0u8; len as usize];
                            rng.fill_bytes(&mut data);
                            m.write_bytes(addr, &data).unwrap();
                        }
                    }
                }
                m.store_u8(size - 1, 0xff).unwrap();
                if size > 4096 {
                    m.write_bytes(4096 - 5, &[0x5a; 11]).unwrap();
                }
                assert!(m.read_bytes(0, size).unwrap() != fresh.read_bytes(0, size).unwrap());
                m.clear();
                assert!(
                    m.read_bytes(0, size).unwrap() == fresh.read_bytes(0, size).unwrap(),
                    "size {size}: clear left written bytes behind"
                );
            }
        }
    }
}
