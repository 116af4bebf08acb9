//! Unit tests for the individual hand-assembly AES routines: each is
//! called in isolation on a prepared machine and compared against the
//! reference implementation's intermediate state.

use aes_rabbit::aes128_asm_source;
use crypto::gf;
use rabbit::fwmap::load_phys;
use rabbit::{assemble, Cpu, Image, Memory, NullIo};

struct Rig {
    image: Image,
    cpu: Cpu,
    mem: Memory,
}

impl Rig {
    fn new() -> Rig {
        let src = aes128_asm_source(1);
        let image = assemble(&src).expect("asm assembles");
        let mut mem = Memory::new();
        for s in &image.sections {
            mem.load(load_phys(s.addr), &s.bytes);
        }
        let mut cpu = Cpu::new();
        cpu.mmu.segsize = 0xD8;
        cpu.mmu.dataseg = 0x78;
        cpu.mmu.stackseg = 0x78;
        cpu.regs.sp = 0xDFF0;
        Rig { image, cpu, mem }
    }

    fn write(&mut self, sym: &str, data: &[u8]) {
        let addr = self
            .image
            .symbol(sym)
            .unwrap_or_else(|| panic!("symbol {sym}"));
        self.mem.load(load_phys(addr), data);
    }

    fn read(&self, sym: &str, len: usize) -> Vec<u8> {
        let addr = self
            .image
            .symbol(sym)
            .unwrap_or_else(|| panic!("symbol {sym}"));
        self.mem.dump(load_phys(addr), len)
    }

    /// Calls `routine` and runs until the CPU halts (returns to `done:`).
    fn call(&mut self, routine: &str) {
        let target = self.image.symbol(routine).expect("routine symbol");
        let done = self.image.symbol("done").expect("done symbol");
        self.cpu.halted = false;
        // push the return address (points at `halt`)
        self.cpu.regs.sp = 0xDFF0 - 2;
        let sp_phys = load_phys(self.cpu.regs.sp);
        self.mem.write_phys(sp_phys, (done & 0xFF) as u8);
        self.mem.write_phys(sp_phys + 1, (done >> 8) as u8);
        self.cpu.regs.pc = target;
        self.cpu
            .run(&mut self.mem, &mut NullIo, 10_000_000)
            .expect("no fault");
        assert!(self.cpu.halted, "routine {routine} returned");
    }
}

/// Reference AES-128 key schedule, byte-oriented.
fn ref_key_schedule(key: &[u8; 16]) -> Vec<u8> {
    let mut w = key.to_vec();
    let mut rcon: u8 = 1;
    for i in (16..176).step_by(4) {
        let mut t = [w[i - 4], w[i - 3], w[i - 2], w[i - 1]];
        if i % 16 == 0 {
            t = [
                gf::sbox(t[1]) ^ rcon,
                gf::sbox(t[2]),
                gf::sbox(t[3]),
                gf::sbox(t[0]),
            ];
            rcon = gf::xtime(rcon);
        }
        for k in 0..4 {
            let b = w[i - 16 + k] ^ t[k];
            w.push(b);
        }
    }
    w
}

#[test]
fn tables_are_loaded_correctly() {
    let rig = Rig::new();
    let sbox = rig.read("Asbox", 256);
    let xt = rig.read("Axt", 256);
    for i in 0..=255u8 {
        assert_eq!(sbox[usize::from(i)], gf::sbox(i), "sbox[{i}]");
        assert_eq!(xt[usize::from(i)], gf::xtime(i), "xt[{i}]");
    }
    // alignment: tables must sit on 256-byte pages for the ld l,a trick
    assert_eq!(rig.image.symbol("Asbox").unwrap() & 0xFF, 0);
    assert_eq!(rig.image.symbol("Axt").unwrap() & 0xFF, 0);
}

#[test]
fn key_expansion_matches_reference() {
    let mut rig = Rig::new();
    let key: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(7).wrapping_add(3));
    rig.write("Akey", &key);
    rig.call("expand");
    let got = rig.read("Arkeys", 176);
    let expect = ref_key_schedule(&key);
    for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
        assert_eq!(g, e, "round key byte {i} (word {})", i / 4);
    }
}

#[test]
fn subshift_is_subbytes_then_shiftrows() {
    let mut rig = Rig::new();
    let state: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(23).wrapping_add(9));
    rig.write("Astate", &state);
    rig.call("subshift");
    let got = rig.read("Astate", 16);
    // column-major layout s[4c+r]; row r shifted left by r, then sbox
    let mut expect = [0u8; 16];
    for c in 0..4 {
        for r in 0..4 {
            expect[4 * c + r] = gf::sbox(state[4 * ((c + r) % 4) + r]);
        }
    }
    assert_eq!(got, expect);
}

#[test]
fn mixcols_matches_reference() {
    let mut rig = Rig::new();
    let state: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(31).wrapping_add(5));
    rig.write("Astate", &state);
    rig.call("mixcols");
    let got = rig.read("Astate", 16);
    let mut expect = [0u8; 16];
    for c in 0..4 {
        let col = &state[4 * c..4 * c + 4];
        for r in 0..4 {
            expect[4 * c + r] = gf::mul(2, col[r])
                ^ gf::mul(3, col[(r + 1) % 4])
                ^ col[(r + 2) % 4]
                ^ col[(r + 3) % 4];
        }
    }
    assert_eq!(got, expect);
}

#[test]
fn ark_xors_round_key() {
    let mut rig = Rig::new();
    let state = [0xAAu8; 16];
    let rk: [u8; 16] = core::array::from_fn(|i| i as u8);
    rig.write("Astate", &state);
    rig.write("Arkeys", &rk);
    // ark expects ix = Arkeys
    let arkeys = rig.image.symbol("Arkeys").unwrap();
    rig.cpu.regs.ix = arkeys;
    rig.call("ark");
    let got = rig.read("Astate", 16);
    for (i, g) in got.iter().enumerate() {
        assert_eq!(*g, 0xAA ^ (i as u8), "byte {i}");
    }
}
