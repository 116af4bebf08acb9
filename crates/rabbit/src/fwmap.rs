//! The firmware memory-map convention shared by every loader in the repo.
//!
//! Dynamic C places root code at [`CODE_ORG`], root data at
//! [`ROOT_DATA_ORG`] (reached through the data segment, which the reset
//! configuration points at SRAM), and xmem sections in the `XPC` window
//! at [`XMEM_DATA_ORG`] on the page [`XMEM_XPC`] selects.
//! `rmc2000::Board::load`, the `dcc` test harness and the `aes-rabbit`
//! runners all load images with [`load_phys`]; keeping one definition
//! here is what guarantees that a program the compiler harness runs
//! behaves identically on the board model. [`Firmware`] is an image
//! placed by that map once, for the programming port of any number of
//! boards.

use crate::asm::Image;
use crate::cpu::Cpu;
use crate::mem::{Flash, Memory};

/// Root code origin (flash).
pub const CODE_ORG: u16 = 0x4000;
/// Root data origin; the data segment maps it onto SRAM.
pub const ROOT_DATA_ORG: u16 = 0x8000;
/// Start of the `XPC` window.
pub const XMEM_DATA_ORG: u16 = 0xE000;
/// `XPC` page the firmware convention selects for xmem data.
pub const XMEM_XPC: u8 = 0x76;
/// `DATASEG` reset value: logical `0x8000` → physical `0x80000` (SRAM).
pub const DATASEG_PAGE: u8 = 0x78;
/// `STACKSEG` reset value (stack backed by the same SRAM bank).
pub const STACKSEG_PAGE: u8 = 0x78;
/// `SEGSIZE` reset value: data segment at `0x8000`, stack at `0xD000`.
pub const SEGSIZE_RESET: u8 = 0xD8;
/// Initial stack pointer.
pub const SP_RESET: u16 = 0xDFF0;

/// Puts `cpu`'s segment registers and stack pointer in the reset
/// configuration this map assumes: the data and stack segments on SRAM
/// ([`SEGSIZE_RESET`], [`DATASEG_PAGE`], [`STACKSEG_PAGE`]) and `SP` at
/// [`SP_RESET`]. Every machine that runs a loaded image starts here.
pub fn reset_registers(cpu: &mut Cpu) {
    cpu.mmu.segsize = SEGSIZE_RESET;
    cpu.mmu.dataseg = DATASEG_PAGE;
    cpu.mmu.stackseg = STACKSEG_PAGE;
    cpu.regs.sp = SP_RESET;
}

/// Maps a logical firmware address to the physical address a loader
/// writes: root code below [`ROOT_DATA_ORG`] sits in flash at its own
/// address, data at `0x8000..0xE000` lands in SRAM through the
/// data-segment mapping, and xmem-window sections land on the page
/// [`XMEM_XPC`] selects.
pub fn load_phys(addr: u16) -> u32 {
    if addr >= XMEM_DATA_ORG {
        u32::from(addr) + u32::from(XMEM_XPC) * 0x1000
    } else if addr >= ROOT_DATA_ORG {
        u32::from(addr) + u32::from(DATASEG_PAGE) * 0x1000
    } else {
        u32::from(addr)
    }
}

/// An assembled image placed by [`load_phys`], ready for the
/// programming port of any number of memories.
///
/// Its flash half is built once, as one immutable image that every memory
/// it is loaded into shares with the blocks decoded from it; its SRAM
/// half is copied into each memory.
pub struct Firmware {
    flash: Flash,
    sections: Vec<(u32, Vec<u8>)>,
}

impl Firmware {
    /// Places `image` by the firmware memory map.
    pub fn new(image: &Image) -> Firmware {
        let sections: Vec<(u32, Vec<u8>)> = image
            .sections
            .iter()
            .map(|s| (load_phys(s.addr), s.bytes.clone()))
            .collect();
        let mut mem = Memory::new();
        for (phys, bytes) in &sections {
            mem.load(*phys, bytes);
        }
        Firmware {
            flash: mem.flash().clone(),
            sections,
        }
    }

    /// Loads the image into `mem`, as [`Memory::load`] of every section
    /// would. Flash that was never programmed takes this image's flash as
    /// its own, shared; over programmed flash the sections load
    /// copy-on-write.
    pub fn load_into(&self, mem: &mut Memory) {
        if mem.flash_erased() {
            mem.set_flash(self.flash.clone());
        }
        for (phys, bytes) in &self.sections {
            mem.load(*phys, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_phys_regions() {
        assert_eq!(load_phys(0x4000), 0x4000, "root code loads in place");
        assert_eq!(load_phys(0x8000), 0x80000, "root data lands in SRAM");
        assert_eq!(
            load_phys(0xDFFF),
            0x8_5FFF,
            "stack region shares the SRAM bank"
        );
        assert_eq!(load_phys(0xE000), 0xE000 + 0x76 * 0x1000, "xmem window");
    }

    #[test]
    fn dataseg_maps_root_data_onto_sram() {
        // The MMU translation with the reset DATASEG must agree with the
        // loader: logical 0x8000 and load_phys(0x8000) are the same byte.
        let mut cpu = Cpu::new();
        reset_registers(&mut cpu);
        assert_eq!(cpu.mmu.translate(0x8000, XMEM_XPC), load_phys(0x8000));
        assert_eq!(cpu.mmu.translate(0xE000, XMEM_XPC), load_phys(0xE000));
    }
}
