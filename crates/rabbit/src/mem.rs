//! Physical memory and the Rabbit 2000 memory-management unit.
//!
//! The Rabbit manipulates 16-bit *logical* addresses but can reach 1 MiB of
//! *physical* memory through four windows (the paper's §4: "like the Z80
//! \[it\] manipulates 16-bit addresses \[but\] can access up to 1 MB through
//! bank switching"):
//!
//! | logical range        | segment | physical mapping                   |
//! |----------------------|---------|------------------------------------|
//! | `0x0000..dataseg`    | root    | identity                           |
//! | `dataseg..stackseg`  | data    | `addr + DATASEG * 0x1000`          |
//! | `stackseg..0xE000`   | stack   | `addr + STACKSEG * 0x1000`         |
//! | `0xE000..=0xFFFF`    | xmem    | `addr + XPC * 0x1000`              |
//!
//! The boundaries come from the two nibbles of the `SEGSIZE` register; the
//! xmem window selector `XPC` is a CPU register.
//!
//! On the RMC2000 the physical space holds 512 KiB of flash at
//! `0x00000..0x80000` and 128 KiB of SRAM at `0x80000..0xA0000`. Runtime
//! stores to flash are ignored (flash requires an unlock sequence the
//! firmware never issues); images are loaded through [`Memory::load`],
//! which bypasses write protection.
//!
//! Flash is one immutable image, sized to what was loaded, that every
//! memory loading the same [`crate::fwmap::Firmware`] shares together
//! with the blocks decoded from it. A load that
//! changes flash gives its memory a private copy first, so the
//! programming port reaches one board and never another, and drops every
//! block that memory had cached: only that load can change flash code.

use std::sync::Arc;

use crate::exec::{CacheStats, SharedBlocks};

/// Total physical address space reachable through the MMU.
pub const PHYS_SIZE: usize = 0x10_0000;

/// Size of the RMC2000's flash part (512 KiB).
pub const FLASH_SIZE: usize = 0x8_0000;

/// Size of the RMC2000's SRAM part (128 KiB).
pub const SRAM_SIZE: usize = 0x2_0000;

/// First physical address of SRAM.
pub const SRAM_BASE: u32 = FLASH_SIZE as u32;

/// Base logical address of the bank-switched xmem window.
pub const XMEM_WINDOW: u16 = 0xE000;

/// The MMU mapping registers (normally programmed through internal I/O
/// ports `0x11`–`0x13`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mmu {
    /// `SEGSIZE`: low nibble = data-segment start (in 4 KiB units), high
    /// nibble = stack-segment start.
    pub segsize: u8,
    /// `DATASEG`: 4 KiB-unit offset added to logical addresses in the data
    /// segment.
    pub dataseg: u8,
    /// `STACKSEG`: 4 KiB-unit offset added to logical addresses in the
    /// stack segment.
    pub stackseg: u8,
}

impl Mmu {
    /// Power-on mapping: everything identity-mapped (data segment starts at
    /// `0xD000`, stack at `0xD000`, offsets zero), matching a freshly reset
    /// Rabbit closely enough for firmware that programs the MMU itself.
    pub fn new() -> Mmu {
        Mmu {
            segsize: 0xDD,
            dataseg: 0,
            stackseg: 0,
        }
    }

    /// Logical start of the data segment.
    pub fn data_base(&self) -> u16 {
        u16::from(self.segsize & 0x0F) << 12
    }

    /// Logical start of the stack segment.
    pub fn stack_base(&self) -> u16 {
        u16::from(self.segsize >> 4) << 12
    }

    /// Translates a logical address to a physical address given the current
    /// `XPC` window.
    pub fn translate(&self, addr: u16, xpc: u8) -> u32 {
        if addr >= XMEM_WINDOW {
            (u32::from(addr) + u32::from(xpc) * 0x1000) & (PHYS_SIZE as u32 - 1)
        } else if addr >= self.stack_base() {
            u32::from(addr).wrapping_add(u32::from(self.stackseg) * 0x1000) & (PHYS_SIZE as u32 - 1)
        } else if addr >= self.data_base() {
            u32::from(addr).wrapping_add(u32::from(self.dataseg) * 0x1000) & (PHYS_SIZE as u32 - 1)
        } else {
            u32::from(addr)
        }
    }

    /// Compiles the current mapping (plus an `XPC` value) into a
    /// [`SegMap`]: a per-4-KiB-page offset table that translates with one
    /// indexed add instead of the three-way segment compare chain.
    ///
    /// All four segment boundaries are 4 KiB aligned (the `SEGSIZE`
    /// nibbles and the xmem window base), so a page-granular table is
    /// exact. The map is a snapshot: it must be rebuilt when any of
    /// `SEGSIZE`/`DATASEG`/`STACKSEG`/`XPC` change.
    pub fn seg_map(&self, xpc: u8) -> SegMap {
        let data_page = u16::from(self.segsize & 0x0F);
        let stack_page = u16::from(self.segsize >> 4);
        let mut offsets = [0u32; 16];
        for (page, off) in offsets.iter_mut().enumerate() {
            let page = page as u16;
            *off = if page >= (XMEM_WINDOW >> 12) {
                u32::from(xpc) * 0x1000
            } else if page >= stack_page {
                u32::from(self.stackseg) * 0x1000
            } else if page >= data_page {
                u32::from(self.dataseg) * 0x1000
            } else {
                0
            };
        }
        SegMap { offsets }
    }
}

/// A compiled per-segment translation cache: one physical offset per
/// 4 KiB logical page, derived from an [`Mmu`] snapshot and an `XPC`
/// value by [`Mmu::seg_map`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegMap {
    offsets: [u32; 16],
}

impl SegMap {
    /// Translates a logical address under the snapshotted mapping.
    #[inline]
    pub fn translate(&self, addr: u16) -> u32 {
        u32::from(addr).wrapping_add(self.offsets[usize::from(addr >> 12)]) & (PHYS_SIZE as u32 - 1)
    }
}

impl Default for Mmu {
    fn default() -> Mmu {
        Mmu::new()
    }
}

/// An immutable flash image and the blocks decoded from it alone.
///
/// Cloning shares both: every memory holding a clone reads the same bytes
/// and replays the same flash-resident blocks, so a fleet pays for its
/// firmware once. The bytes are sized to what was loaded; flash past
/// them reads as erased (`0xFF`).
#[derive(Clone, Default)]
pub(crate) struct Flash {
    bytes: Arc<[u8]>,
    /// Blocks whose bytes all lie in this image, keyed like the block
    /// cache; every memory on the image consults them before decoding.
    pub(crate) blocks: Arc<SharedBlocks>,
}

impl Flash {
    /// Whether two handles share one image.
    #[cfg(test)]
    pub(crate) fn same_image(&self, other: &Flash) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes)
    }
}

/// The physical memory of the board: flash plus SRAM, and the block cache
/// decoded from it.
///
/// Unpopulated physical addresses read as `0xFF` and ignore writes, like a
/// floating bus.
pub struct Memory {
    pub(crate) flash: Flash,
    sram: Vec<u8>,
    /// Count of stores that targeted flash and were dropped; useful for
    /// catching firmware bugs in tests.
    pub flash_write_faults: u64,
    /// One bit per 256-byte physical page: set while the page holds
    /// cached code that no store has hit since it was decoded. A store
    /// to a set page clears the bit and records the page in
    /// [`Memory::dirty_pages`]; stores to every other page (the common
    /// data store, and every store of a run that never used the block
    /// cache) pay one bit test and nothing else.
    pub(crate) code_pages: [u64; 64],
    /// Cached-code pages stored to since the block cache last drained
    /// the list, whichever engine or host call made the store. Each page
    /// appears at most once, so the list is bounded by the page count.
    pub(crate) dirty_pages: Vec<u16>,
    /// The block cache of [`crate::Cpu::run_fast`]: it lives with the
    /// bytes it was decoded from, so no other memory can replay it and
    /// every CPU running on this memory shares it. Blocks decoded from
    /// flash alone come from, and go to, the flash image's shared store.
    /// Created on first use.
    pub(crate) cache: Option<Box<crate::exec::ExecEngine>>,
    /// Whether the block cache is frozen: see [`Memory::freeze_cache`].
    pub(crate) cache_frozen: bool,
}

impl Memory {
    /// Creates memory with erased flash (all `0xFF`) and zeroed SRAM.
    pub fn new() -> Memory {
        Memory {
            flash: Flash::default(),
            sram: vec![0; SRAM_SIZE],
            flash_write_faults: 0,
            code_pages: [0; 64],
            dirty_pages: Vec::new(),
            cache: None,
            cache_frozen: false,
        }
    }

    /// The flash image, to share with another memory.
    pub(crate) fn flash(&self) -> &Flash {
        &self.flash
    }

    /// Whether flash was never programmed.
    pub(crate) fn flash_erased(&self) -> bool {
        self.flash.bytes.is_empty()
    }

    /// Replaces the flash image with `flash`, shared rather than copied,
    /// and drops every cached block.
    pub(crate) fn set_flash(&mut self, flash: Flash) {
        self.flash = flash;
        self.forget_blocks();
    }

    /// Empties the block cache's map (its work counters stay). Flash code
    /// changes only here, so the cache lists no page index for blocks
    /// decoded from flash alone.
    fn forget_blocks(&mut self) {
        if let Some(cache) = self.cache.as_mut() {
            cache.forget_blocks();
        }
        self.code_pages = [0; 64];
        self.dirty_pages.clear();
    }

    /// Work counters of the block cache (all zero before its first run).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats).unwrap_or_default()
    }

    /// Freezes or thaws the block cache. A frozen cache takes in no
    /// block: a [`crate::Cpu::run_fast`] that reaches code this memory
    /// has not cached ends there, at that instruction boundary and short
    /// of its budget, without decoding, inserting or allocating anything.
    /// Where a run ends changes nothing the CPU does, so the caller runs
    /// the rest of the budget once the cache thaws. The interpreter never
    /// stops early.
    pub fn freeze_cache(&mut self, frozen: bool) {
        self.cache_frozen = frozen;
    }

    /// Records a store to physical page `page` if it holds cached code.
    #[inline]
    fn mark_dirty(&mut self, page: u32) {
        let (word, bit) = ((page >> 6) as usize, 1u64 << (page & 63));
        if self.code_pages[word] & bit != 0 {
            self.code_pages[word] &= !bit;
            self.dirty_pages.push(page as u16);
        }
    }

    /// Records every populated page of `start..end` that holds cached
    /// code, as stores to them would.
    fn mark_range_dirty(&mut self, start: usize, end: usize) {
        let end = end.min(FLASH_SIZE + SRAM_SIZE);
        if start < end {
            for page in (start >> 8)..=((end - 1) >> 8) {
                self.mark_dirty(page as u32);
            }
        }
    }

    /// Reads one byte of physical memory.
    #[inline]
    pub fn read_phys(&self, phys: u32) -> u8 {
        let p = phys as usize;
        if let Some(&b) = self.flash.bytes.get(p) {
            b
        } else if (FLASH_SIZE..FLASH_SIZE + SRAM_SIZE).contains(&p) {
            self.sram[p - FLASH_SIZE]
        } else {
            0xFF
        }
    }

    /// Writes one byte of physical memory. Stores to flash are dropped and
    /// counted in [`Memory::flash_write_faults`].
    #[inline]
    pub fn write_phys(&mut self, phys: u32, v: u8) {
        let p = phys as usize;
        if p < FLASH_SIZE {
            self.flash_write_faults += 1;
        } else if p < FLASH_SIZE + SRAM_SIZE {
            self.sram[p - FLASH_SIZE] = v;
            self.mark_dirty(phys >> 8);
        }
    }

    /// Loads an image at a physical address, bypassing flash write
    /// protection (this models the development kit's programming port).
    ///
    /// Copies whole populated sub-ranges at once rather than byte by byte;
    /// a load may straddle the flash/SRAM boundary or run off the end of
    /// populated memory (the excess is dropped, like the floating bus).
    /// A load that changes flash is copy-on-write: this memory gets a
    /// private image, with no decoded blocks, before the bytes change,
    /// and its block cache is emptied; one that leaves every flash byte
    /// as it was keeps the image and the cache.
    pub fn load(&mut self, phys: u32, bytes: &[u8]) {
        let start = phys as usize;
        let end = start.saturating_add(bytes.len());

        // Flash portion.
        if start < FLASH_SIZE {
            let n = bytes.len().min(FLASH_SIZE - start);
            if self.dump(phys, n) != bytes[..n] {
                let mut image = self.flash.bytes.to_vec();
                image.resize(image.len().max(start + n), 0xFF);
                image[start..start + n].copy_from_slice(&bytes[..n]);
                self.set_flash(Flash {
                    bytes: image.into(),
                    blocks: Arc::default(),
                });
            }
        }
        // SRAM portion.
        let sram_end = FLASH_SIZE + SRAM_SIZE;
        if end > FLASH_SIZE && start < sram_end {
            let lo = start.max(FLASH_SIZE);
            let hi = end.min(sram_end);
            let src = lo - start;
            self.sram[lo - FLASH_SIZE..hi - FLASH_SIZE]
                .copy_from_slice(&bytes[src..src + (hi - lo)]);
            self.mark_range_dirty(lo, hi);
        }
    }

    /// Copies `len` bytes starting at a physical address into a vector.
    ///
    /// Bulk-copies the populated sub-ranges; unpopulated space reads as
    /// `0xFF` like the floating bus.
    pub fn dump(&self, phys: u32, len: usize) -> Vec<u8> {
        let mut out = vec![0xFF; len];
        let start = phys as usize;
        let end = start.saturating_add(len);

        let flash = &self.flash.bytes;
        if start < flash.len() {
            let n = len.min(flash.len() - start);
            out[..n].copy_from_slice(&flash[start..start + n]);
        }
        let sram_end = FLASH_SIZE + SRAM_SIZE;
        if end > FLASH_SIZE && start < sram_end {
            let lo = start.max(FLASH_SIZE);
            let hi = end.min(sram_end);
            out[lo - start..hi - start].copy_from_slice(&self.sram[lo - FLASH_SIZE..hi - FLASH_SIZE]);
        }
        out
    }
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_mapping_in_root() {
        let mmu = Mmu::new();
        assert_eq!(mmu.translate(0x1234, 0), 0x1234);
    }

    #[test]
    fn xpc_window_maps_to_extended_memory() {
        let mmu = Mmu::new();
        // phys = logical + XPC*0x1000: XPC = 0x72 puts logical 0xE000 at
        // physical 0x80000 (the base of SRAM).
        assert_eq!(mmu.translate(0xE000, 0x72), 0x80000);
        assert_eq!(mmu.translate(0xFFFF, 0x72), 0x81FFF);
    }

    #[test]
    fn data_segment_offset_applies() {
        let mmu = Mmu {
            segsize: 0xD5, // data segment starts at 0x5000
            dataseg: 0x80, // shifted up by 0x80000 (into SRAM)
            stackseg: 0,
        };
        assert_eq!(mmu.translate(0x4FFF, 0), 0x4FFF);
        assert_eq!(mmu.translate(0x5000, 0), 0x85000);
    }

    #[test]
    fn stack_segment_offset_applies() {
        let mmu = Mmu {
            segsize: 0xD5,
            dataseg: 0,
            stackseg: 0x7F, // 0xD000 + 0x7F000 = 0x8C000
        };
        assert_eq!(mmu.translate(0xD000, 0), 0x8C000);
    }

    #[test]
    fn flash_is_write_protected_at_runtime() {
        let mut mem = Memory::new();
        mem.write_phys(0x100, 0xAB);
        assert_eq!(mem.read_phys(0x100), 0xFF);
        assert_eq!(mem.flash_write_faults, 1);
        mem.load(0x100, &[0xAB]);
        assert_eq!(mem.read_phys(0x100), 0xAB);
    }

    #[test]
    fn sram_reads_back() {
        let mut mem = Memory::new();
        mem.write_phys(SRAM_BASE + 5, 0x42);
        assert_eq!(mem.read_phys(SRAM_BASE + 5), 0x42);
    }

    #[test]
    fn unpopulated_space_floats_high() {
        let mut mem = Memory::new();
        mem.write_phys(0xF0000, 1);
        assert_eq!(mem.read_phys(0xF0000), 0xFF);
    }

    #[test]
    fn load_straddles_flash_sram_boundary() {
        let mut mem = Memory::new();
        let img: Vec<u8> = (0..=255u8).cycle().take(0x40).collect();
        mem.load(SRAM_BASE - 0x20, &img);
        for (i, &b) in img.iter().enumerate() {
            assert_eq!(mem.read_phys(SRAM_BASE - 0x20 + i as u32), b, "byte {i}");
        }
        assert_eq!(mem.dump(SRAM_BASE - 0x20, 0x40), img);
    }

    #[test]
    fn load_and_dump_straddle_end_of_populated_memory() {
        let mut mem = Memory::new();
        let top = SRAM_BASE + SRAM_SIZE as u32;
        // Last 4 bytes land in SRAM, the rest falls off the end.
        mem.load(top - 4, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(mem.dump(top - 4, 8), vec![1, 2, 3, 4, 0xFF, 0xFF, 0xFF, 0xFF]);
    }

    #[test]
    fn dump_entirely_outside_populated_memory() {
        let mem = Memory::new();
        assert_eq!(mem.dump(0xF0000, 3), vec![0xFF; 3]);
    }

    #[test]
    fn seg_map_matches_translate() {
        // Every page of a handful of mapping configurations must agree
        // with the reference three-way compare chain.
        let configs = [
            (0xDD, 0x00, 0x00, 0x00),
            (0xD8, 0x78, 0x78, 0x72),
            (0xE5, 0x80, 0x7F, 0xFF),
            (0x4A, 0x12, 0x9C, 0x33),
            (0x00, 0xFF, 0xFF, 0x01),
            (0xFF, 0x01, 0x02, 0x03),
        ];
        for (segsize, dataseg, stackseg, xpc) in configs {
            let mmu = Mmu {
                segsize,
                dataseg,
                stackseg,
            };
            let map = mmu.seg_map(xpc);
            for page in 0..16u32 {
                for off in [0u32, 1, 0x7FF, 0xFFF] {
                    let addr = (page * 0x1000 + off) as u16;
                    assert_eq!(
                        map.translate(addr),
                        mmu.translate(addr, xpc),
                        "addr {addr:#06x} cfg {segsize:#x}/{dataseg:#x}/{stackseg:#x}/{xpc:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn stores_and_loads_record_each_cached_code_page_once() {
        let page = |phys: u32| (phys >> 8) as u16;
        let mut mem = Memory::new();
        mem.write_phys(SRAM_BASE, 1);
        assert!(mem.dirty_pages.is_empty(), "no cached code, nothing recorded");

        // Mark three pages as holding cached code; stores to pages
        // without the bit are filtered out.
        let mark = |mem: &mut Memory, phys: u32| {
            mem.code_pages[usize::from(page(phys) >> 6)] |= 1 << (page(phys) & 63);
        };
        for phys in [SRAM_BASE + 0x100, SRAM_BASE + 0x300, SRAM_BASE + 0x500] {
            mark(&mut mem, phys);
        }
        mem.write_phys(0x123, 0xAB); // flash: dropped, changes no code
        mem.write_phys(SRAM_BASE + 0x123, 2);
        mem.write_phys(SRAM_BASE + 0x124, 3); // same page: recorded once
        mem.write_phys(SRAM_BASE + 0x400, 4); // no code bit: filtered
        mem.write_phys(SRAM_BASE + 0x300, 5);
        mem.load(SRAM_BASE + 0x4F0, &[0; 0x20]); // a load records as a store
        mem.write_phys(SRAM_BASE + 0x1FF, 6); // recorded until drained
        assert_eq!(
            mem.dirty_pages,
            vec![page(SRAM_BASE + 0x100), page(SRAM_BASE + 0x300), page(SRAM_BASE + 0x500)]
        );
        assert_eq!(mem.code_pages, [0; 64], "each recorded page left the set");

        // A load that changes flash empties the whole cache instead:
        // nothing is left to record or to evict.
        mark(&mut mem, SRAM_BASE + 0x100);
        mem.load(0xF0, &[0; 0x20]);
        assert!(mem.dirty_pages.is_empty());
        assert_eq!(mem.code_pages, [0; 64]);
    }
}
