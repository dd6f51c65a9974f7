//! # arcane-fabric — the shared-memory fabric
//!
//! Everything between the ARCANE controller complex (eCPU, 2-D DMA,
//! host slave port) and the VPU array shares one path: operand bursts
//! DMA'd during allocation, consolidation bursts during writeback,
//! host miss refills, and the dispatch of vector instructions into the
//! VPU controllers. This crate models that path explicitly:
//!
//! * [`ResourceChannel`] — the gap-scheduling calendar every shared
//!   resource (fabric bank, eCPU) is booked on;
//! * [`Fabric`] — `1 + n_vpus` request ports multiplexed onto a
//!   configurable set of bank calendars ([`FabricConfig`]: `banks`,
//!   `bytes_per_cycle`; banks interleave at one 1 KiB line);
//! * [`ArbiterKind`] — the grant discipline:
//!   [`ArbiterKind::WholePhase`] (the legacy contiguous-window model,
//!   cycle-identical to the pre-fabric calendar),
//!   [`ArbiterKind::RoundRobinBurst`] (work-conserving: a transaction
//!   fills every idle slice it finds) and [`ArbiterKind::PriorityHost`]
//!   (contiguous host grants over interleaved kernel traffic).
//!
//! # Examples
//!
//! Two overlapping transactions on one bank: whole-phase pushes the
//! second past the first, a burst arbiter weaves it into the gap the
//! first left and splits it around the booked slice.
//!
//! ```
//! use arcane_fabric::{ArbiterKind, Fabric, FabricConfig};
//!
//! let mut cfg = FabricConfig::default();
//! cfg.arbiter = ArbiterKind::RoundRobinBurst;
//! let mut fabric = Fabric::new(cfg, 2);
//! let p1 = Fabric::vpu_port(0);
//! let p2 = Fabric::vpu_port(1);
//! fabric.request(p1, 0x2000_0000, 0, 100);
//! fabric.request(p1, 0x2000_0000, 500, 100); // idle gap [100, 500)
//! let grant = fabric.request(p2, 0x2000_0000, 0, 600);
//! assert_eq!(grant.start, 100, "second stream fills the gap");
//! assert!(grant.end - grant.start > 600, "split around the booked slice");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod fabric;

pub use channel::ResourceChannel;
pub use fabric::{ArbiterKind, Fabric, FabricConfig, Grant, PortStats, HOST_PORT};
