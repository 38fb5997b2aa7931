//! VFTL — a *split* multi-version KV store stacked on a generic FTL.
//!
//! The paper's main storage baseline (§5.1, Table 1): the same multi-version
//! semantics as MFTL, but implemented as a separate layer above a standard
//! page-mapped FTL ([`crate::pftl`]). The split costs real resources:
//!
//! - **two mapping steps** — key → segment (LBA) → physical page;
//! - **two garbage collectors** — the KV layer compacts segments with dead
//!   tuples (rewriting live ones), *and* the FTL underneath relocates whole
//!   pages to free erase blocks;
//! - **two over-provisioning reserves** — 10 % of capacity is withheld at
//!   each level, so the same device holds less user data and collects more.
//!
//! Table 1's experiment measures exactly this overhead against MFTL.
//!
//! The KV layer's chains, packer and compactor are the shared core in
//! [`crate::mvstore`]. This module owns only the medium, [`LbaMedium`]: a
//! free list over the usable (post-over-provisioning) LBAs, segments
//! written and read through the FTL, compaction victims reclaimed by an FTL
//! trim plus a free-list push, and the two-level mount (the FTL rebuilds
//! its LBA map, then the KV layer peeks each surviving segment).

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use simkit::SimHandle;
use timesync::Timestamp;

use crate::backend::MountReport;
use crate::mvstore::{Medium, MvStore, Page, Scanned, Tuning};
use crate::nand::{NandConfig, NandDevice};
use crate::pftl::{PageFtl, PageFtlConfig};
use crate::types::StoreError;

/// One logical segment's payload: packed tuples (a 4 KB page worth).
pub type Segment = Page;

/// Tuning for a [`SplitStore`].
#[derive(Debug, Clone)]
pub struct VftlConfig {
    /// Per-operation software overhead: two mapping steps through a block
    /// interface (key → LBA in the KV layer, LBA → physical in the FTL).
    pub op_overhead: Duration,
    /// Packing delay bound (same knob as MFTL's; 1 ms in the paper).
    pub packing_window: Duration,
    /// Fraction of *logical* space the KV layer reserves for its own GC —
    /// the "10 % at a second level" of §5.1.
    pub top_overprovision: f64,
    /// KV-layer GC starts when free segments drop to this level.
    pub gc_low_water: usize,
    /// Segments reserved for KV-layer GC relocation.
    pub gc_reserve: usize,
}

impl Default for VftlConfig {
    fn default() -> VftlConfig {
        VftlConfig {
            op_overhead: Duration::from_micros(8),
            packing_window: Duration::from_millis(1),
            top_overprovision: 0.10,
            gc_low_water: 8,
            gc_reserve: 4,
        }
    }
}

/// The split (VFTL) multi-version store. Cloning shares the store.
pub type SplitStore = MvStore<LbaMedium>;

impl SplitStore {
    /// Creates a VFTL store: a KV layer over a fresh generic FTL, with GC
    /// tasks at both levels.
    pub fn new(handle: SimHandle, nand: NandConfig, cfg: VftlConfig) -> SplitStore {
        let blocks = nand.blocks as usize;
        let ftl = PageFtl::new(
            handle,
            nand,
            PageFtlConfig {
                gc_low_water: (blocks / 16).max(3),
                gc_reserve: (blocks / 64).max(1),
                ..PageFtlConfig::default()
            },
        );
        let usable = ((ftl.logical_pages() as f64) * (1.0 - cfg.top_overprovision)).floor() as u32;
        let medium = LbaMedium {
            ftl,
            lbas: Rc::new(RefCell::new(Lbas {
                gc_reserve: cfg.gc_reserve,
                usable,
                free: (0..usable).rev().collect(),
            })),
        };
        let tuning = Tuning {
            op_overhead: cfg.op_overhead,
            packing_window: cfg.packing_window,
            gc_low_water: cfg.gc_low_water,
        };
        MvStore::with_medium(medium, tuning)
    }

    /// The FTL underneath (for stats: its GC traffic is the split's cost).
    pub fn ftl(&self) -> &PageFtl<Segment> {
        &self.medium().ftl
    }
}

/// VFTL's medium: packed segments go to LBAs of a page-mapped FTL.
#[derive(Clone)]
pub struct LbaMedium {
    ftl: PageFtl<Segment>,
    lbas: Rc<RefCell<Lbas>>,
}

struct Lbas {
    /// Segments reserved for KV-layer GC relocation.
    gc_reserve: usize,
    /// LBAs the KV layer may use: the FTL's logical space minus the KV
    /// layer's own over-provisioning.
    usable: u32,
    /// Free LBAs, popped from the back.
    free: Vec<u32>,
}

impl Medium for LbaMedium {
    type Addr = u32;

    fn device(&self) -> &NandDevice<Page> {
        self.ftl.device()
    }

    fn unit(lba: u32) -> usize {
        lba as usize
    }

    fn units(&self) -> usize {
        self.lbas.borrow().usable as usize
    }

    fn free_units(&self) -> usize {
        self.lbas.borrow().free.len()
    }

    fn alloc(&self, _stream: usize, for_gc: bool) -> Option<u32> {
        let mut lbas = self.lbas.borrow_mut();
        let reserve = if for_gc { 0 } else { lbas.gc_reserve };
        if lbas.free.len() <= reserve {
            return None;
        }
        lbas.free.pop()
    }

    fn unalloc(&self, lba: u32) {
        self.lbas.borrow_mut().free.push(lba);
    }

    /// Writes the segment through the FTL, which stamps its own OOB.
    fn program(
        &self,
        lba: u32,
        seg: Segment,
        _epoch: u64,
    ) -> impl Future<Output = Result<(), StoreError>> {
        self.ftl.write(lba, seg)
    }

    async fn read(&self, lba: u32) -> Option<Segment> {
        self.ftl.read(lba).await.ok()
    }

    fn install(&self, seg: Segment, _epoch: u64) -> u32 {
        let lba = self.alloc(0, false).expect("store full during bulk load");
        self.ftl.install(lba, seg);
        lba
    }

    async fn read_victim(&self, lba: usize) -> Option<Vec<(u32, Segment)>> {
        let lba = lba as u32;
        let seg = self.ftl.read(lba).await.ok()?;
        Some(vec![(lba, seg)])
    }

    /// Trims the segment in the FTL (its page becomes the bottom GC's
    /// garbage) and frees the LBA.
    async fn reclaim(&self, lba: usize) {
        self.ftl.trim(lba as u32);
        self.lbas.borrow_mut().free.push(lba as u32);
    }

    fn note_floor(&self, ts: Timestamp) {
        self.ftl.note_floor(ts);
    }

    fn power_fail(&self) -> u64 {
        let torn = self.ftl.power_fail();
        self.lbas.borrow_mut().free.clear();
        torn
    }

    /// The FTL rebuilds its LBA map from OOB; every mapped segment is then
    /// peeked (the scan already charged its read time) and every unmapped
    /// usable LBA is free again.
    async fn mount(&self) -> (MountReport, Vec<Scanned<u32>>) {
        self.lbas.borrow_mut().free.clear();
        let report = self.ftl.mount().await;
        let mapped = self.ftl.mapped_lbas();
        let segs = mapped
            .iter()
            .filter_map(|&lba| {
                let seg = self.ftl.peek_lba(lba)?;
                Some((lba, seg.len() as u32, Some(seg)))
            })
            .collect();
        let mut lbas = self.lbas.borrow_mut();
        lbas.free = (0..lbas.usable)
            .rev()
            .filter(|lba| mapped.binary_search(lba).is_err())
            .collect();
        (report, segs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{value, Key, Value};
    use simkit::Sim;
    use timesync::{ClientId, Version};

    fn v(ts: u64) -> Version {
        Version::new(Timestamp(ts), ClientId(0))
    }

    fn nand(blocks: u32) -> NandConfig {
        NandConfig {
            blocks,
            pages_per_block: 4,
            channels: 2,
            queue_depth: 16,
            ..NandConfig::default()
        }
    }

    fn val(n: usize) -> Value {
        value(vec![0xcdu8; n])
    }

    fn store(sim: &Sim, blocks: u32) -> SplitStore {
        SplitStore::new(sim.handle(), nand(blocks), VftlConfig::default())
    }

    #[test]
    fn double_gc_reclaims_space() {
        let mut sim = Sim::new(3);
        let h = sim.handle();
        // Small device: 20 blocks * 4 pages = 80 pages; 72 logical after
        // bottom OP; ~64 segments after top OP.
        let s = store(&sim, 20);
        sim.block_on(async move {
            let keys = 30u64;
            for round in 0..40u64 {
                let mut joins = Vec::new();
                for i in 0..keys {
                    let ts = round * 100 + i + 1;
                    let s2 = s.clone();
                    joins.push(h.spawn(async move {
                        s2.put(Key::from(i), val(472), v(ts)).await.unwrap();
                    }));
                }
                for j in joins {
                    j.await;
                }
                s.set_watermark(Timestamp(round * 100));
            }
            let top = s.stats();
            assert!(top.gc_collections > 5, "top GC ran: {top:?}");
            for i in 0..keys {
                let got = s.get_latest(&Key::from(i)).await.unwrap();
                assert_eq!(got.version, v(39 * 100 + i + 1));
            }
        });
    }

    #[test]
    fn both_levels_of_gc_observable() {
        let mut sim = Sim::new(4);
        let h = sim.handle();
        let s = store(&sim, 16);
        sim.block_on(async move {
            let keys = 20u64;
            for round in 0..60u64 {
                let mut joins = Vec::new();
                for i in 0..keys {
                    let ts = round * 100 + i + 1;
                    let s2 = s.clone();
                    let h2 = h.clone();
                    joins.push(h.spawn(async move {
                        // Transient capacity backpressure is expected on a
                        // device this tight; retry like a real client.
                        loop {
                            match s2.put(Key::from(i), val(472), v(ts)).await {
                                Ok(()) => break,
                                Err(StoreError::CapacityExhausted) => {
                                    h2.sleep(Duration::from_millis(2)).await;
                                }
                                Err(e) => panic!("{e}"),
                            }
                        }
                    }));
                }
                for j in joins {
                    j.await;
                }
                s.set_watermark(Timestamp(round * 100));
            }
            // Top-level compactions happened...
            assert!(s.stats().gc_collections > 0);
            // ...and the bottom FTL erased blocks too.
            assert!(s.ftl().device().stats().block_erases > 0);
        });
    }
}
