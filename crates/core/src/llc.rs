//! The ARCANE smart LLC: cache + tightly-coupled matrix coprocessor.
//!
//! This type ties every piece of the paper's Figure 1 together:
//!
//! * it is a **cache** — [`ArcaneLlc::host_access`] runs the
//!   fully-associative, write-back, approximate-LRU controller of
//!   [`StandardLlc`] with the lock and hazard stalls of §III-A, and its
//!   VPUs compute on that controller's data array;
//! * it is a **coprocessor** — the [`Coprocessor`] implementation is the
//!   bridge of §III-B: it samples offloaded `xmnmc` instructions,
//!   decodes them in software (C-RT Kernel Decoder), places them on a
//!   VPU under the configured [`crate::SchedulerKind`]
//!   (Kernel Scheduler; least-dirty by default) and runs them through
//!   the Matrix Allocator and the vector units.
//!
//! Co-simulation model: kernel *data* effects are applied eagerly in
//! host program order, while kernel *time* is laid out on an absolute
//! cycle axis (decode → allocation → compute → writeback). Host
//! accesses that would conflict (lock held, WAR on sources, RAW/WAW on
//! destinations, all lines busy) stall until the corresponding phase
//! completes — exactly the synchronisation the hardware enforces.

use crate::cache::{AddressTable, AtEntry, LockWindows, OperandKind};
use crate::config::{ArcaneConfig, CRT};
use crate::kernels::{KernelError, KernelLib, ResolvedArgs};
use crate::runtime::ctx::KernelCtx;
use crate::runtime::map::MatView;
use crate::runtime::map::MatrixMap;
use crate::StandardLlc;
use arcane_fabric::{Fabric, PortStats, ResourceChannel, HOST_PORT};
use arcane_isa::launch::{
    DescriptorBatch, LaunchDecodeError, LaunchDescriptor, LaunchMode, OperandBinding, FUNC5_XMB,
};
use arcane_isa::xmnmc::{self, FUNC5_XMR};
use arcane_mem::{Access, AccessSize, BusError, ExtMem, Memory};
use arcane_rv32::{Coprocessor, XifResponse};
use arcane_sim::{CacheStats, ChannelUtil, LaunchStats, PhaseBreakdown, Sew};
use arcane_vpu::{Vpu, VREGS};
use std::collections::VecDeque;

/// Completed-kernel record: identity, placement and phase timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelRecord {
    /// `func5` kernel id.
    pub id: u8,
    /// Kernel mnemonic.
    pub name: &'static str,
    /// Element width.
    pub width: Sew,
    /// VPU the scheduler chose.
    pub vpu: usize,
    /// Absolute cycle the eCPU began decoding.
    pub decode_start: u64,
    /// Absolute cycle the writeback finished.
    pub end: u64,
    /// Cycles per phase (Figure 3's decomposition).
    pub phases: PhaseBreakdown,
}

/// What a launch pays on the eCPU before its kernel may start.
#[derive(Debug, Clone, Copy)]
enum Tariff {
    /// A legacy `xmkN`: IRQ entry, decode and scheduling, plus the `xmr`
    /// work folded in since the previous kernel. The kernel's control
    /// traffic (vector issue, scalar writes, element reads) serialises
    /// on the shared eCPU.
    Legacy,
    /// A descriptor replayed from an `xmb` batch: `entry` (the batch
    /// entry, paid by the first descriptor only), then the amortised
    /// decode and per-binding tariff. Control traffic stays on the
    /// VPU-side decoder.
    Replay {
        /// Batch-entry cycles this descriptor pays.
        entry: u64,
    },
}

/// The ARCANE LLC subsystem.
#[derive(Debug)]
pub struct ArcaneLlc {
    cfg: ArcaneConfig,
    vpus: Vec<Vpu>,
    /// The cache controller; its data array is the VPUs' registers.
    cache: StandardLlc,
    at: AddressTable,
    locks: LockWindows,
    map: MatrixMap,
    lib: KernelLib,
    /// Writeback-completion times of queued kernels (fixed-capacity
    /// kernel queue back-pressure).
    queue_done: VecDeque<u64>,
    vpu_free_at: Vec<u64>,
    /// The shared memory fabric between the controller complex and the
    /// VPU array (kernel DMA bursts, dispatch descriptors, host
    /// refills under the burst arbiters).
    fabric: Fabric,
    ecpu_chan: ResourceChannel,
    /// eCPU requests and wait cycles; its busy cycles are the
    /// calendar's ([`ResourceChannel::busy_cycles`]).
    ecpu_stats: PortStats,
    /// `xmr` decode work folded into the next kernel's preamble phase.
    pending_preamble: u64,
    /// Descriptor launch-pipeline counters (all zero in legacy mode).
    launch_stats: LaunchStats,
    /// Kernels scheduled so far (the round-robin rotation cursor).
    sched_seq: u64,
    records: Vec<KernelRecord>,
    last_error: Option<KernelError>,
}

impl ArcaneLlc {
    /// Builds the subsystem from a configuration.
    pub fn new(cfg: ArcaneConfig) -> Self {
        ArcaneLlc {
            vpus: (0..cfg.n_vpus).map(|_| Vpu::new(cfg.vpu)).collect(),
            cache: StandardLlc::new(&cfg),
            at: AddressTable::new(cfg.at_capacity),
            locks: LockWindows::new(),
            map: MatrixMap::new(),
            lib: KernelLib::builtin(),
            queue_done: VecDeque::new(),
            vpu_free_at: vec![0; cfg.n_vpus],
            fabric: Fabric::new(cfg.fabric, cfg.n_vpus),
            ecpu_chan: ResourceChannel::new(),
            ecpu_stats: PortStats::default(),
            pending_preamble: 0,
            launch_stats: LaunchStats::default(),
            sched_seq: 0,
            records: Vec::new(),
            last_error: None,
            cfg,
        }
    }

    /// The configuration this instance was built with.
    pub const fn config(&self) -> &ArcaneConfig {
        &self.cfg
    }

    /// Read access to the external memory behind the cache
    /// (workload seeding and result checking).
    pub fn ext(&self) -> &ExtMem {
        self.cache.ext()
    }

    /// Write access to the external memory behind the cache.
    pub fn ext_mut(&mut self) -> &mut ExtMem {
        self.cache.ext_mut()
    }

    /// Registers (or replaces) a user kernel — the software-defined ISA
    /// extensibility of §IV: new `xmkN` opcodes without hardware changes.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 30`: [`FUNC5_XMB`] (`30`) launches descriptor
    /// batches and `31` encodes `xmr`.
    pub fn register_kernel(&mut self, id: u8, kernel: Box<dyn crate::kernels::Kernel>) {
        self.lib.register(id, kernel);
    }

    /// Records of every kernel executed so far, in completion order.
    pub fn records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// Cache hit/miss/stall statistics for host accesses.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Number of `xmr` rebinds resolved by renaming.
    pub fn renames(&self) -> u64 {
        self.map.renames()
    }

    /// The kernel error behind the most recent rejected offload, if any.
    pub fn last_error(&self) -> Option<&KernelError> {
        self.last_error.as_ref()
    }

    /// The shared memory fabric (per-port traffic statistics, bank
    /// occupancy).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Descriptor launch-pipeline counters: batches decoded, descriptors
    /// replayed, decode cycles. All zero on the legacy launch path.
    pub const fn launch_stats(&self) -> &LaunchStats {
        &self.launch_stats
    }

    /// Per-channel utilisation over the run so far: the eCPU, then one
    /// row per fabric port (`host`, `vpu0`, …). Occupancy is measured
    /// against [`ArcaneLlc::completion_time`].
    pub fn channel_utilisation(&self) -> Vec<ChannelUtil> {
        let horizon = self
            .completion_time()
            .max(self.fabric.horizon())
            .max(self.ecpu_chan.horizon());
        let mut rows = vec![ChannelUtil {
            label: "ecpu".into(),
            busy_cycles: self.ecpu_chan.busy_cycles(),
            wait_cycles: self.ecpu_stats.wait_cycles,
            requests: self.ecpu_stats.requests,
            horizon,
        }];
        for (port, s) in self.fabric.port_stats().iter().enumerate() {
            rows.push(ChannelUtil {
                label: Fabric::port_label(port),
                busy_cycles: s.busy_cycles,
                wait_cycles: s.wait_cycles,
                requests: s.requests,
                horizon,
            });
        }
        rows
    }

    /// Absolute cycle at which all queued kernel work completes: the
    /// last VPU retirement or the end of the last eCPU booking.
    pub fn completion_time(&self) -> u64 {
        self.vpu_free_at
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.ecpu_chan.horizon())
    }

    /// One host CPU data access through the smart cache.
    ///
    /// Returns the data and the total cycles the host was occupied,
    /// including every stall (lock windows, hazard protection, busy
    /// lines, miss service).
    ///
    /// The controller is [`StandardLlc`]'s; ARCANE adds two things. A
    /// transaction is admitted only once the controller lock is free
    /// and no Address Table entry blocks it (§III-A2). A
    /// miss's write-back and fill go over the fabric's host port: a
    /// dedicated fixed-latency slave path under the whole-phase
    /// arbiter, contending with kernel bursts under the burst arbiters.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::OutOfRange`] when the address is not in the
    /// cached external-memory region.
    pub fn host_access(
        &mut self,
        addr: u32,
        write: bool,
        value: u32,
        size: AccessSize,
        now: u64,
    ) -> Result<Access, BusError> {
        let (locks, at, fabric) = (&self.locks, &self.at, &mut self.fabric);
        self.cache.access(
            addr,
            write.then_some(value),
            size,
            now,
            |a, len, write, mut t| loop {
                match locks
                    .stall_until(t)
                    .or_else(|| at.stall_until(a, len, write, t))
                {
                    Some(end) => t = end,
                    None => break t,
                }
            },
            |a, t, raw| fabric.request(HOST_PORT, a, t, raw).end,
        )
    }

    /// Kernel Scheduler: counts each VPU's dirty lines and lets the
    /// configured [`crate::SchedulerKind`] place the kernel (§IV-B2;
    /// least-dirty by default, DESIGN.md §4.4).
    fn choose_vpu(&mut self) -> usize {
        let dirty: Vec<usize> = (0..self.cfg.n_vpus)
            .map(|v| self.cache.table.dirty_in_range(v * VREGS, (v + 1) * VREGS))
            .collect();
        let vpu = self
            .cfg
            .scheduler
            .choose(&dirty, &self.vpu_free_at, self.sched_seq);
        self.sched_seq += 1;
        vpu
    }

    fn reject(&mut self, err: KernelError) -> XifResponse {
        self.last_error = Some(err);
        XifResponse::Reject
    }

    /// Binds a logical matrix register to an operand region (an `xmr`
    /// or a descriptor binding; renaming applies alike).
    fn bind(&mut self, b: &OperandBinding, width: Sew) {
        self.map.bind(
            b.reg,
            b.addr,
            b.rows as usize,
            b.cols as usize,
            (b.stride as usize).max(1),
            width,
        );
    }

    /// Books `work` cycles of C-RT software on the (single) eCPU, no
    /// earlier than `earliest`. Returns the booking's `(start, end)`.
    fn book_ecpu(&mut self, earliest: u64, work: u64) -> (u64, u64) {
        let (start, end) = self.ecpu_chan.reserve_fragmented(earliest, work, 16);
        self.ecpu_stats.requests += 1;
        self.ecpu_stats.wait_cycles += (end - earliest).saturating_sub(work);
        (start, end)
    }

    /// Kernel-queue back-pressure (fixed-capacity, statically allocated
    /// queue): retires the kernels done by `t`, then returns the first
    /// cycle at or after `t` at which a queue slot is free.
    fn queue_slot(&mut self, t: u64) -> u64 {
        while self.queue_done.front().is_some_and(|&done| done <= t) {
            self.queue_done.pop_front();
        }
        let cap = self.cfg.kernel_queue_capacity;
        match self.queue_done.len().checked_sub(cap) {
            Some(i) => t.max(self.queue_done[i]),
            None => t,
        }
    }

    fn handle_reserve(&mut self, width: Sew, binding: &OperandBinding, now: u64) -> XifResponse {
        self.bind(binding, width);
        let work = CRT.irq_entry + CRT.decode + CRT.xmr_bind;
        self.book_ecpu(now + CRT.bridge_latency, work);
        self.pending_preamble += work;
        XifResponse::Accept {
            writeback: None,
            cycles: CRT.bridge_latency,
        }
    }

    /// Kernel Decoder front half: O(1) library lookup first (unknown
    /// `func5` is the kill path), then operand resolution and shape
    /// validation. An empty destination or source is rejected here,
    /// before anything is booked.
    fn resolve_launch(
        &self,
        desc: &LaunchDescriptor,
    ) -> Result<(ResolvedArgs, Vec<MatView>, &'static str), KernelError> {
        let kernel = self.lib.get(desc.kernel)?;
        let md = self
            .map
            .resolve(desc.md)
            .ok_or(KernelError::UnboundMatrix { reg: desc.md })?;
        let args = ResolvedArgs {
            width: desc.width,
            alpha: desc.alpha,
            beta: desc.beta,
            md,
            ms1: self.map.resolve(desc.ms1),
            ms2: self.map.resolve(desc.ms2),
            ms3: self.map.resolve(desc.ms3),
        };
        let sources = kernel.validate(&args)?;
        if args.md.elems() == 0 || sources.iter().any(|s| s.elems() == 0) {
            return Err(KernelError::ShapeMismatch {
                what: "empty matrix operand",
            });
        }
        // `xmr` takes any address from a host register: every operand
        // the kernel touches must lie in external memory. Computed in
        // u64, so no shape can wrap the end past the check.
        let ext = self.ext();
        let (lo, hi) = (
            u64::from(ext.base()),
            u64::from(ext.base()) + ext.len() as u64,
        );
        let operands = [
            (desc.md, Some(args.md)),
            (desc.ms1, args.ms1),
            (desc.ms2, args.ms2),
            (desc.ms3, args.ms3),
        ];
        for (reg, view) in operands {
            let Some(v) = view.filter(|v| *v == args.md || sources.contains(v)) else {
                continue;
            };
            let row = (v.cols * v.sew.bytes()) as u64;
            let end = u64::from(v.addr) + (v.rows as u64 - 1) * v.stride as u64 * row + row;
            if u64::from(v.addr) < lo || end > hi {
                return Err(KernelError::OperandOutOfRange { reg });
            }
        }
        Ok((args, sources, kernel.name()))
    }

    /// The launch step both launch modes share: resolve the descriptor
    /// (its bindings already installed), book its preamble on the eCPU
    /// no earlier than `earliest`, schedule it on a VPU, run it, and
    /// register its hazard windows against `hazard_clock`. Returns the
    /// end of the preamble booking.
    fn launch(
        &mut self,
        desc: &LaunchDescriptor,
        earliest: u64,
        hazard_clock: u64,
        tariff: Tariff,
    ) -> Result<u64, KernelError> {
        let (args, sources, name) = self.resolve_launch(desc)?;
        let (preamble, local_issue) = match tariff {
            Tariff::Legacy => {
                let pending = std::mem::take(&mut self.pending_preamble);
                (CRT.irq_entry + CRT.decode + CRT.schedule + pending, false)
            }
            Tariff::Replay { entry } => {
                let p = entry + CRT.desc_decode + CRT.desc_bind * desc.bindings.len() as u64;
                self.launch_stats.descriptors += 1;
                self.launch_stats.decode_cycles += p;
                (p, true)
            }
        };
        let (decode_start, decode_end) = self.book_ecpu(earliest, preamble);

        // Scheduler: VPU choice and kernel start.
        let vpu = self.choose_vpu();
        let t_start = decode_end.max(self.vpu_free_at[vpu]);

        let mut ctx = KernelCtx {
            cache: &mut self.cache,
            vpu: &mut self.vpus[vpu],
            vpu_index: vpu,
            locks: &mut self.locks,
            fabric: &mut self.fabric,
            port: Fabric::vpu_port(vpu),
            ecpu_chan: &mut self.ecpu_chan,
            ecpu_stats: &mut self.ecpu_stats,
            local_issue,
            t: t_start,
            phases: PhaseBreakdown {
                preamble,
                ..PhaseBreakdown::default()
            },
            last_alloc_end: t_start,
        };
        let kernel = self
            .lib
            .get(desc.kernel)
            .expect("resolved before execution");
        kernel.run(&args, &mut ctx)?;
        let end = ctx.t;
        let phases = ctx.phases;
        let last_alloc_end = ctx.last_alloc_end;

        // Mark the VPU's lines busy-computing until the kernel retires.
        for i in vpu * VREGS..(vpu + 1) * VREGS {
            let l = self.cache.table.line_mut(i);
            l.busy_until = l.busy_until.max(end);
        }

        // Address Table: WAR protection on sources until the last
        // allocation, RAW/WAW protection on the destination until
        // writeback completes.
        let operands = sources
            .iter()
            .map(|s| (s, OperandKind::Source, last_alloc_end))
            .chain([(&args.md, OperandKind::Destination, end)]);
        for (view, kind, protect_until) in operands {
            let entry = AtEntry {
                start: view.addr,
                end: view.end_addr(),
                kind,
                protect_until,
            };
            if self.at.register(entry, hazard_clock).is_err() {
                return Err(KernelError::ShapeMismatch {
                    what: "address table exhausted",
                });
            }
        }

        self.vpu_free_at[vpu] = end;
        self.queue_done.push_back(end);
        self.locks.prune(hazard_clock.saturating_sub(1));
        self.records.push(KernelRecord {
            id: desc.kernel,
            name,
            width: args.width,
            vpu,
            decode_start,
            end,
            phases,
        });
        Ok(decode_end)
    }

    /// A legacy `xmkN`: a one-descriptor replay at the legacy tariff.
    /// The host handshake stalls until a kernel-queue slot frees, and
    /// the kernel's hazard windows age against the host's issue time.
    fn handle_kernel(&mut self, desc: &LaunchDescriptor, now: u64) -> XifResponse {
        let t = self.queue_slot(now);
        match self.launch(desc, t + CRT.bridge_latency, now, Tariff::Legacy) {
            Ok(_) => XifResponse::Accept {
                writeback: None,
                cycles: CRT.bridge_latency + (t - now),
            },
            Err(e) => self.reject(e),
        }
    }

    /// The `xmb` handler: fetch one [`DescriptorBatch`] from external
    /// memory over the fabric, decode it **once** on the eCPU, and
    /// replay its descriptors (install bindings, resolve, schedule,
    /// run). Each replayed kernel pays only the amortised
    /// `desc_decode`/`desc_bind` tariff instead of the full legacy
    /// preamble, and the per-VPU decoders keep vector issue and
    /// scalar/element traffic off the shared eCPU calendar.
    ///
    /// The host handshake never blocks on the queue here: the decoder's
    /// replay cursor absorbs kernel-queue back-pressure instead.
    fn handle_batch(&mut self, addr: u32, words: u32, _token: u32, now: u64) -> XifResponse {
        // Functional fetch of the encoded batch. `words` is an unchecked
        // host register: bound the range before allocating for it.
        let len = match words.checked_mul(4) {
            Some(len) if self.ext().contains(addr, len) => len,
            _ => {
                return self.reject(KernelError::ShapeMismatch {
                    what: "descriptor batch lies outside external memory",
                })
            }
        };
        let mut bytes = vec![0u8; len as usize];
        self.ext()
            .read_bytes(addr, &mut bytes)
            .expect("batch range checked against external memory");
        let stream: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let batch = match DescriptorBatch::decode(&stream) {
            Ok(b) => b,
            Err(e) => return self.reject(KernelError::Launch(e)),
        };

        // The batch travels to the decoder as bursts on the fabric's
        // issue-descriptor path (weaving into DMA gaps under the burst
        // arbiters).
        let earliest = now + CRT.bridge_latency;
        let grant = self
            .fabric
            .issue_batch(HOST_PORT, addr, earliest, bytes.len() as u64);
        self.launch_stats.batches += 1;

        // Batch entry is paid once, by the first descriptor. Hazard
        // windows age against the replay cursor (not the host's launch
        // time): the queue back-pressure bounds the AT's live entries
        // exactly as the host handshake does on the legacy path.
        let mut cursor = grant.end;
        let mut entry = CRT.batch_entry;
        for desc in &batch.descriptors {
            cursor = self.queue_slot(cursor);
            for b in &desc.bindings {
                self.bind(b, desc.width);
            }
            self.launch_stats.bindings += desc.bindings.len() as u64;
            match self.launch(desc, cursor, cursor, Tariff::Replay { entry }) {
                Ok(decode_end) => cursor = decode_end,
                Err(e) => return self.reject(e),
            }
            entry = 0;
        }

        XifResponse::Accept {
            writeback: None,
            cycles: CRT.bridge_latency,
        }
    }

    /// Encodes and offloads one `xmnmc` instruction from its fields and
    /// pre-packed operand-register values — the convenience entry
    /// examples, tests and benches use to drive the LLC without
    /// assembling a host program ([`xmnmc::pack_xmr`] /
    /// [`xmnmc::pack_kernel`] produce `vals`).
    pub fn offload_xmnmc(
        &mut self,
        func5: u8,
        width: Sew,
        vals: (u32, u32, u32),
        now: u64,
    ) -> XifResponse {
        use arcane_isa::reg::{A0, A1, A2};
        let raw = xmnmc::encode_raw(&xmnmc::XInstr {
            func5,
            width,
            rs1: A0,
            rs2: A1,
            rs3: A2,
        });
        self.offload(raw, vals.0, vals.1, vals.2, now)
    }
}

impl Coprocessor for ArcaneLlc {
    fn offload(&mut self, raw: u32, rs1: u32, rs2: u32, rs3: u32, now: u64) -> XifResponse {
        // The host offloads only custom-2 words, so the reserved width
        // is the one field `decode_raw` can refuse.
        let Ok(x) = xmnmc::decode_raw(raw) else {
            return self.reject(KernelError::Launch(LaunchDecodeError::BadWidth));
        };
        // Under the descriptor launch pipeline, func5 = 30 is the xmb
        // launch-batch instruction; its register values are a plain
        // (addr, words, token) triple, not packed kernel operands. In
        // legacy mode the id stays on the ordinary kernel path (and is
        // rejected as unknown, exactly as before).
        if x.func5 == FUNC5_XMB && self.cfg.launch == LaunchMode::Descriptor {
            return self.handle_batch(rs1, rs2, rs3, now);
        }
        let resp = if x.func5 == FUNC5_XMR {
            xmnmc::unpack_xmr(rs1, rs2, rs3).map(|b| self.handle_reserve(x.width, &b, now))
        } else {
            xmnmc::unpack_kernel(x.func5, x.width, rs1, rs2, rs3)
                .map(|desc| self.handle_kernel(&desc, now))
        };
        resp.unwrap_or_else(|e| self.reject(KernelError::Launch(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xmb_out_of_range_word_count_is_rejected_before_any_booking() {
        let mut llc = ArcaneLlc::new(ArcaneConfig {
            launch: LaunchMode::Descriptor,
            ..ArcaneConfig::default()
        });
        let base = llc.ext().base();
        let words_in_ext = (llc.ext().len() / 4) as u32;
        for (addr, words) in [
            (base, u32::MAX),         // ~16 GiB: must not be allocated
            (base, u32::MAX / 4 + 1), // byte count overflows u32
            (base, words_in_ext + 1), // one word past the end
            (base + 4, words_in_ext), // in size, but runs off the end
        ] {
            let resp = llc.offload_xmnmc(FUNC5_XMB, Sew::Word, (addr, words, 0), 0);
            assert!(matches!(resp, XifResponse::Reject), "words = {words:#x}");
            assert!(matches!(
                llc.last_error(),
                Some(KernelError::ShapeMismatch { .. })
            ));
        }
        assert!(llc.ecpu_chan.is_empty());
        assert_eq!(llc.fabric().busy_cycles(), 0);
        assert_eq!(llc.launch_stats().batches, 0);
        assert!(llc.records().is_empty());
    }
}
