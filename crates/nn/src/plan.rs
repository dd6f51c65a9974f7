//! Memory planner: external-memory placement of every graph tensor.
//!
//! The planner lays the graph's tensors out as a contiguous arena from
//! a base address, one 1 KiB-aligned region per storage-owning tensor
//! (the same alignment idiom as [`arcane_system::Layout`]). Aligning
//! regions to the cache-line size means a kernel chain's intermediates
//! map onto whole VPU cache lines: once a producing kernel has written
//! a tensor, the consuming kernel's allocation DMA finds the lines
//! LLC-resident and the bytes never make a round trip the host can
//! observe between kernels — the Address Table orders the chain.
//!
//! [`View`](crate::graph::TensorKind::Alias) tensors own no storage:
//! they resolve to their root tensor's address with their own shape.

use crate::graph::{LayerGraph, TensorId, TensorKind};
use arcane_core::align_line;

/// Cache-line/alignment quantum of the arena (= the VLEN).
pub(crate) const ALIGN: u32 = arcane_core::LINE_BYTES as u32;

/// Where one tensor lives: base address plus its (dense) geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Base address in external memory.
    pub addr: u32,
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
}

impl Placement {
    /// Row pitch in bytes for element size `esz` (tensors are dense).
    pub const fn pitch(&self, esz: usize) -> u32 {
        (self.cols * esz) as u32
    }

    /// Address of row `r`.
    pub const fn row_addr(&self, r: usize, esz: usize) -> u32 {
        self.addr + r as u32 * self.pitch(esz)
    }

    /// Total bytes of the dense tensor.
    pub const fn bytes(&self, esz: usize) -> usize {
        self.rows * self.cols * esz
    }
}

/// The planned layout of one graph: per-tensor placements and the
/// arena extent.
#[derive(Debug, Clone)]
pub struct GraphLayout {
    places: Vec<Placement>,
    /// One past the last arena byte.
    pub end: u32,
}

impl GraphLayout {
    /// Plans the layout of `graph` starting at `base`.
    ///
    /// Inputs are placed first (in declaration order, so the seeding
    /// contract is stable), then every storage-owning intermediate in
    /// creation order; aliases resolve to their root's address.
    pub fn plan(graph: &LayerGraph, base: u32) -> GraphLayout {
        let esz = graph.sew().bytes();
        let n = graph.tensors().len();
        let mut places = vec![
            Placement {
                addr: 0,
                rows: 0,
                cols: 0
            };
            n
        ];
        let mut cursor = align_line(base);
        let mut assign = |places: &mut Vec<Placement>, id: usize| {
            let t = &graph.tensors()[id];
            places[id] = Placement {
                addr: cursor,
                rows: t.rows,
                cols: t.cols,
            };
            cursor = align_line(cursor + (t.elems() * esz) as u32);
        };
        // Inputs first, then producing intermediates.
        for (i, t) in graph.tensors().iter().enumerate() {
            if t.kind == TensorKind::Input {
                assign(&mut places, i);
            }
        }
        for (i, t) in graph.tensors().iter().enumerate() {
            if t.kind == TensorKind::Intermediate {
                assign(&mut places, i);
            }
        }
        // Aliases: their root's address, their own shape.
        for i in 0..n {
            if let TensorKind::Alias(_) = graph.tensors()[i].kind {
                let root = graph.storage_root(TensorId(i));
                let t = &graph.tensors()[i];
                places[i] = Placement {
                    addr: places[root.0].addr,
                    rows: t.rows,
                    cols: t.cols,
                };
            }
        }
        GraphLayout {
            places,
            end: cursor,
        }
    }

    /// Placement of a tensor.
    pub fn place(&self, id: TensorId) -> Placement {
        self.places[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcane_sim::Sew;

    #[test]
    fn placements_are_aligned_and_disjoint() {
        let mut g = LayerGraph::new(Sew::Byte);
        let x = g.input("x", 10, 10);
        let f = g.input("f", 3, 3);
        let c = g.conv2d(x, f);
        let r = g.leaky_relu(c, 3);
        g.mark_output(r);
        let l = GraphLayout::plan(&g, 0x2000_0000);
        let ids = [x, f, c, r];
        for id in ids {
            assert_eq!(l.place(id).addr % ALIGN, 0, "{id}");
        }
        // Regions in placement order must not overlap.
        let mut spans: Vec<(u32, u32)> = ids
            .iter()
            .map(|&id| {
                let p = l.place(id);
                (p.addr, p.addr + p.bytes(1) as u32)
            })
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {w:?}");
        }
    }

    #[test]
    fn alias_shares_root_address() {
        let mut g = LayerGraph::new(Sew::Half);
        let x = g.input("x", 4, 6);
        let v = g.view(x, 2, 12);
        let l = GraphLayout::plan(&g, 0x2000_0000);
        assert_eq!(l.place(v).addr, l.place(x).addr);
        assert_eq!((l.place(v).rows, l.place(v).cols), (2, 12));
    }
}
