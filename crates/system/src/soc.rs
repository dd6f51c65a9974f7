//! System-on-chip assemblies: host core + instruction memory + LLC.

use crate::layout::IMEM_SIZE;
use arcane_core::{ArcaneConfig, ArcaneLlc, StandardLlc};
use arcane_isa::asm::Asm;
use arcane_mem::{Access, AccessSize, Bus, BusError, Memory, Sram};
use arcane_rv32::{Coprocessor, Cpu, CpuError, NoCoprocessor, RunResult, XifResponse};
use arcane_sim::EngineMode;
use std::cell::RefCell;

/// The paper's system: CV32E40X host + ARCANE smart LLC (Figure 1).
///
/// The LLC is both a [`Bus`] target (data accesses to the cached
/// external region) and the CV-X-IF [`Coprocessor`] (offloaded `xmnmc`
/// instructions); a `RefCell` lets the two CPU-facing ports share it,
/// just like the two slave ports of the real subsystem.
#[derive(Debug)]
pub struct ArcaneSoc {
    /// The host core.
    pub cpu: Cpu,
    shared: Shared,
}

#[derive(Debug)]
struct Shared {
    imem: RefCell<Sram>,
    llc: RefCell<ArcaneLlc>,
}

struct BusPort<'a>(&'a Shared);
struct XifPort<'a>(&'a Shared);

impl Bus for BusPort<'_> {
    #[inline]
    fn read(&mut self, addr: u32, size: AccessSize, now: u64) -> Result<Access, BusError> {
        if (addr as usize) < IMEM_SIZE {
            let mut b = [0u8; 4];
            let n = size.bytes() as usize;
            self.0.imem.borrow().read_bytes(addr, &mut b[..n])?;
            return Ok(Access::new(u32::from_le_bytes(b), 1));
        }
        self.0
            .llc
            .borrow_mut()
            .host_access(addr, false, 0, size, now)
    }

    #[inline]
    fn write(
        &mut self,
        addr: u32,
        value: u32,
        size: AccessSize,
        now: u64,
    ) -> Result<Access, BusError> {
        if (addr as usize) < IMEM_SIZE {
            let n = size.bytes() as usize;
            self.0
                .imem
                .borrow_mut()
                .write_bytes(addr, &value.to_le_bytes()[..n])?;
            return Ok(Access::new(0, 1));
        }
        self.0
            .llc
            .borrow_mut()
            .host_access(addr, true, value, size, now)
    }

    #[inline]
    fn fetch(&mut self, addr: u32, _now: u64) -> Result<Access, BusError> {
        Ok(Access::new(self.0.imem.borrow().read_u32(addr)?, 1))
    }
}

impl Coprocessor for XifPort<'_> {
    fn offload(&mut self, raw: u32, rs1: u32, rs2: u32, rs3: u32, now: u64) -> XifResponse {
        self.0.llc.borrow_mut().offload(raw, rs1, rs2, rs3, now)
    }
}

impl ArcaneSoc {
    /// Builds the system from an ARCANE configuration.
    pub fn new(cfg: ArcaneConfig) -> Self {
        ArcaneSoc {
            cpu: Cpu::new(0),
            shared: Shared {
                imem: RefCell::new(Sram::new(0, IMEM_SIZE)),
                llc: RefCell::new(ArcaneLlc::new(cfg)),
            },
        }
    }

    /// Loads an assembled program at address 0 and resets the host.
    ///
    /// # Panics
    ///
    /// Panics if assembly fails (label errors) or the image does not
    /// fit the instruction memory.
    pub fn load_program(&mut self, asm: &Asm) {
        let words = asm.assemble(0).expect("program assembles");
        self.shared.imem.borrow_mut().load_words(0, &words);
        self.cpu.reset(0);
        self.cpu.size_op_table(words.len());
    }

    /// Mutable access to the LLC (workload seeding, kernel registry).
    pub fn llc_mut(&mut self) -> std::cell::RefMut<'_, ArcaneLlc> {
        self.shared.llc.borrow_mut()
    }

    /// Shared access to the LLC (result checking, statistics).
    pub fn llc(&self) -> std::cell::Ref<'_, ArcaneLlc> {
        self.shared.llc.borrow()
    }

    /// Runs the host program to completion on the engine selected by
    /// the environment (the predecoded op table unless
    /// `ARCANE_INTERP=1`).
    ///
    /// # Errors
    ///
    /// Propagates [`CpuError`] (bus faults, rejected offloads, …).
    pub fn run(&mut self, max_instrs: u64) -> Result<RunResult, CpuError> {
        self.run_with_engine(max_instrs, EngineMode::current())
    }

    /// [`ArcaneSoc::run`] with an explicit engine choice (differential
    /// testing of the two host-core engines in one process).
    ///
    /// # Errors
    ///
    /// Propagates [`CpuError`] (bus faults, rejected offloads, …).
    pub fn run_with_engine(
        &mut self,
        max_instrs: u64,
        engine: EngineMode,
    ) -> Result<RunResult, CpuError> {
        let mut bus = BusPort(&self.shared);
        let mut xif = XifPort(&self.shared);
        self.cpu
            .run_with_engine(&mut bus, &mut xif, max_instrs, engine)
    }
}

/// A baseline X-HEEP: host core + conventional data LLC, no coprocessor.
///
/// Runs both the RV32IM scalar baseline and the XCVPULP baseline (the
/// ISS executes the packed-SIMD extension when the program uses it —
/// that is the only difference between CV32E40X and CV32E40PX here).
#[derive(Debug)]
pub struct BaselineSoc {
    /// The host core.
    pub cpu: Cpu,
    imem: Sram,
    llc: StandardLlc,
}

struct BaselineBus<'a> {
    imem: &'a mut Sram,
    llc: &'a mut StandardLlc,
}

impl Bus for BaselineBus<'_> {
    // Always inlined, with `StandardLlc::host_access`'s hit head, so a
    // cache hit runs inside the ISS loop without a call.
    #[inline(always)]
    fn read(&mut self, addr: u32, size: AccessSize, now: u64) -> Result<Access, BusError> {
        if (addr as usize) < IMEM_SIZE {
            let mut b = [0u8; 4];
            let n = size.bytes() as usize;
            self.imem.read_bytes(addr, &mut b[..n])?;
            return Ok(Access::new(u32::from_le_bytes(b), 1));
        }
        self.llc.host_access(addr, false, 0, size, now)
    }

    #[inline(always)]
    fn write(
        &mut self,
        addr: u32,
        value: u32,
        size: AccessSize,
        now: u64,
    ) -> Result<Access, BusError> {
        if (addr as usize) < IMEM_SIZE {
            let n = size.bytes() as usize;
            self.imem.write_bytes(addr, &value.to_le_bytes()[..n])?;
            return Ok(Access::new(0, 1));
        }
        self.llc.host_access(addr, true, value, size, now)
    }

    #[inline]
    fn fetch(&mut self, addr: u32, _now: u64) -> Result<Access, BusError> {
        Ok(Access::new(self.imem.read_u32(addr)?, 1))
    }
}

impl BaselineSoc {
    /// Builds the baseline system with the same cache geometry and
    /// external memory as the given ARCANE configuration.
    pub fn new(cfg: &ArcaneConfig) -> Self {
        BaselineSoc {
            cpu: Cpu::new(0),
            imem: Sram::new(0, IMEM_SIZE),
            llc: StandardLlc::new(cfg),
        }
    }

    /// Loads an assembled program at address 0 and resets the host.
    ///
    /// # Panics
    ///
    /// Panics if assembly fails or the image does not fit.
    pub fn load_program(&mut self, asm: &Asm) {
        let words = asm.assemble(0).expect("program assembles");
        self.imem.load_words(0, &words);
        self.cpu.reset(0);
        self.cpu.size_op_table(words.len());
    }

    /// Mutable access to the cache (workload seeding via `ext_mut`).
    pub fn llc_mut(&mut self) -> &mut StandardLlc {
        &mut self.llc
    }

    /// Shared access to the cache.
    pub fn llc(&self) -> &StandardLlc {
        &self.llc
    }

    /// Runs the program to completion on the engine selected by the
    /// environment (the predecoded op table unless `ARCANE_INTERP=1`).
    ///
    /// # Errors
    ///
    /// Propagates [`CpuError`].
    pub fn run(&mut self, max_instrs: u64) -> Result<RunResult, CpuError> {
        self.run_with_engine(max_instrs, EngineMode::current())
    }

    /// [`BaselineSoc::run`] with an explicit engine choice
    /// (differential testing of the two host-core engines in one
    /// process).
    ///
    /// # Errors
    ///
    /// Propagates [`CpuError`].
    pub fn run_with_engine(
        &mut self,
        max_instrs: u64,
        engine: EngineMode,
    ) -> Result<RunResult, CpuError> {
        let mut bus = BaselineBus {
            imem: &mut self.imem,
            llc: &mut self.llc,
        };
        self.cpu
            .run_with_engine(&mut bus, &mut NoCoprocessor, max_instrs, engine)
    }
}

// Both systems can move to another thread, so independent sweep points
// can run in parallel.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ArcaneSoc>();
    assert_send::<BaselineSoc>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::EXT_BASE;
    use arcane_isa::reg::{A0, T0};

    #[test]
    fn baseline_executes_through_cache() {
        let cfg = ArcaneConfig::with_lanes(4);
        let mut soc = BaselineSoc::new(&cfg);
        soc.llc_mut().ext_mut().write_u32(EXT_BASE + 8, 77).unwrap();
        let mut a = Asm::new();
        a.li(T0, EXT_BASE as i32);
        a.lw(A0, T0, 8);
        a.ebreak();
        soc.load_program(&a);
        soc.run(100).unwrap();
        assert_eq!(soc.cpu.reg(A0), 77);
        assert_eq!(soc.llc().stats().misses.get(), 1);
    }

    #[test]
    fn arcane_soc_routes_data_and_offloads() {
        let mut soc = ArcaneSoc::new(ArcaneConfig::with_lanes(2));
        soc.llc_mut().ext_mut().write_u32(EXT_BASE, 5).unwrap();
        let mut a = Asm::new();
        a.li(T0, EXT_BASE as i32);
        a.lw(A0, T0, 0);
        a.sw(A0, T0, 4);
        a.ebreak();
        soc.load_program(&a);
        soc.run(100).unwrap();
        assert_eq!(soc.cpu.reg(A0), 5);
    }
}
