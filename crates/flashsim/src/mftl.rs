//! MFTL — the unified multi-version flash translation layer (SEMEL SDF, §3.1).
//!
//! The paper's third contribution: instead of stacking a KV store on a block
//! FTL (two mapping steps, two garbage collectors), MFTL maps each **key
//! directly to the physical flash location of each of its versions**, and
//! version management rides along with flash management:
//!
//! - the mapping table keeps a per-key chain of versions sorted by
//!   descending version stamp (Figure 3);
//! - writes are packed into pages by a **packing logic** that waits up to a
//!   bounded window (1 ms in §5) to fill a 4 KB page with 512 B tuples —
//!   fresh puts and GC-relocated tuples share the same packer;
//! - old versions are *free*: flash's remap-on-write leaves them in place;
//! - one unified garbage collector relocates live tuples and discards
//!   versions that fell below the watermark (§3.1) in the same pass.
//!
//! The chains, packer and collector are the shared core in
//! [`crate::mvstore`]. This module owns only the medium, [`NandMedium`]:
//! one NAND append point per packing stream, pages programmed with their
//! OOB record (mount epoch and durable floor), GC victims chosen among
//! closed erase blocks and reclaimed by erasing them, and the mount scan
//! over every programmed page.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use simkit::SimHandle;
use timesync::Timestamp;

use crate::backend::MountReport;
use crate::mvstore::{self, Medium, MvStore, Scanned, Tuning};
use crate::nand::{NandConfig, NandDevice, PhysLoc};
use crate::oob::PageOob;
use crate::types::StoreError;

pub use crate::mvstore::Page;

/// Tuning for a [`UnifiedStore`].
#[derive(Debug, Clone)]
pub struct MftlConfig {
    /// Per-operation software overhead: one unified mapping-table access
    /// (§3.1 — SDF collapses the two-step translation into one).
    pub op_overhead: Duration,
    /// Maximum time a tuple waits in the packer before a partial page is
    /// flushed (the paper's 1 ms packing delay).
    pub packing_window: Duration,
    /// Background GC starts when free blocks drop to this level.
    pub gc_low_water: usize,
    /// Blocks reserved for GC's own relocation writes.
    pub gc_reserve: usize,
}

impl Default for MftlConfig {
    fn default() -> MftlConfig {
        MftlConfig {
            op_overhead: Duration::from_micros(1),
            packing_window: Duration::from_millis(1),
            gc_low_water: 4,
            gc_reserve: 2,
        }
    }
}

/// The unified multi-version FTL store. Cloning shares the store.
pub type UnifiedStore = MvStore<NandMedium>;

impl UnifiedStore {
    /// Creates an MFTL store over a fresh device and spawns its GC task.
    pub fn new(handle: SimHandle, nand: NandConfig, cfg: MftlConfig) -> UnifiedStore {
        let dev = NandDevice::new(handle, nand);
        let streams = mvstore::stream_count(dev.config());
        let medium = NandMedium {
            dev,
            state: Rc::new(RefCell::new(NandState {
                gc_reserve: cfg.gc_reserve,
                append: vec![None; streams],
                load_append: vec![None; streams],
                next_load: 0,
                floor: Timestamp::ZERO,
            })),
        };
        let tuning = Tuning {
            op_overhead: cfg.op_overhead,
            packing_window: cfg.packing_window,
            gc_low_water: cfg.gc_low_water,
        };
        MvStore::with_medium(medium, tuning)
    }
}

/// MFTL's medium: packed pages go straight into NAND pages.
#[derive(Clone)]
pub struct NandMedium {
    dev: NandDevice<Page>,
    state: Rc<RefCell<NandState>>,
}

/// An append point: the open block and its next page.
type Append = Option<(u32, u32)>;

struct NandState {
    /// Blocks reserved for GC's own relocation writes.
    gc_reserve: usize,
    /// One append point per packing stream.
    append: Vec<Append>,
    /// Append points used only by the zero-time bulk loader (striped across
    /// channels like the runtime packing streams).
    load_append: Vec<Append>,
    next_load: usize,
    /// Durable write-floor record stamped into each programmed page's OOB;
    /// recovered at mount as the max over intact pages.
    floor: Timestamp,
}

impl NandState {
    fn reset(&mut self) {
        self.append.fill(None);
        self.load_append.fill(None);
        self.next_load = 0;
        self.floor = Timestamp::ZERO;
    }
}

/// Takes the next page of append point `point`, opening a fresh block from
/// `open_block` once the current one is full.
fn next_page(
    point: &mut Append,
    pages_per_block: u32,
    open_block: impl FnOnce() -> Option<u32>,
) -> Option<PhysLoc> {
    match *point {
        Some((block, page)) if page < pages_per_block => {
            *point = Some((block, page + 1));
            Some(PhysLoc { block, page })
        }
        _ => {
            let block = open_block()?;
            *point = Some((block, 1));
            Some(PhysLoc { block, page: 0 })
        }
    }
}

impl NandMedium {
    fn oob(&self, page: &Page, epoch: u64) -> PageOob {
        PageOob::new(
            page.first().map(|r| r.key.trace_id()).unwrap_or(0),
            page.iter().map(|r| r.version.ts.0).max().unwrap_or(0),
            epoch,
            self.state.borrow().floor.0,
        )
    }
}

impl Medium for NandMedium {
    type Addr = PhysLoc;

    fn device(&self) -> &NandDevice<Page> {
        &self.dev
    }

    fn unit(addr: PhysLoc) -> usize {
        addr.block as usize
    }

    fn units(&self) -> usize {
        self.dev.config().blocks as usize
    }

    fn free_units(&self) -> usize {
        self.dev.free_blocks()
    }

    fn alloc(&self, stream: usize, for_gc: bool) -> Option<PhysLoc> {
        let pages_per_block = self.dev.config().pages_per_block;
        let mut st = self.state.borrow_mut();
        let reserve = if for_gc { 0 } else { st.gc_reserve };
        next_page(&mut st.append[stream], pages_per_block, || {
            if self.dev.free_blocks() <= reserve {
                return None;
            }
            self.dev.alloc_block()
        })
    }

    async fn program(&self, loc: PhysLoc, page: Page, epoch: u64) -> Result<(), StoreError> {
        let oob = self.oob(&page, epoch);
        self.dev
            .program_with_oob(loc, page, oob)
            .await
            .expect("MFTL program invariant");
        Ok(())
    }

    async fn read(&self, loc: PhysLoc) -> Option<Page> {
        self.dev.read(loc).await.ok()
    }

    fn install(&self, page: Page, epoch: u64) -> PhysLoc {
        let loc = {
            let mut st = self.state.borrow_mut();
            let point = st.next_load;
            st.next_load = (point + 1) % st.load_append.len();
            let pages_per_block = self.dev.config().pages_per_block;
            next_page(&mut st.load_append[point], pages_per_block, || {
                self.dev.alloc_block()
            })
            .expect("device full during bulk load")
        };
        let oob = self.oob(&page, epoch);
        self.dev
            .install_with_oob(loc, page, oob)
            .expect("bulk load program order");
        loc
    }

    /// The erase block with the most garbage tuples, skipping blocks that
    /// are still open append points.
    fn pick_victim(&self, live: &[u32], written: &[u32]) -> Option<usize> {
        let st = self.state.borrow();
        let open = st.append.iter().chain(&st.load_append).flatten();
        mvstore::most_garbage(live, written, |b| {
            open.clone().any(|&(ob, _)| ob as usize == b)
        })
    }

    /// Reads every programmed page of the victim block concurrently (the
    /// device parallelism GC relies on in practice).
    async fn read_victim(&self, block: usize) -> Option<Vec<(PhysLoc, Page)>> {
        let mut jobs = Vec::new();
        for page in 0..self.dev.config().pages_per_block {
            let loc = PhysLoc {
                block: block as u32,
                page,
            };
            if self.dev.peek(loc).is_none() {
                continue;
            }
            let dev = self.dev.clone();
            jobs.push(
                self.dev
                    .handle()
                    .spawn(async move { (loc, dev.read(loc).await.ok()) }),
            );
        }
        let mut pages = Vec::new();
        for j in jobs {
            if let (loc, Some(page)) = j.await {
                pages.push((loc, page));
            }
        }
        Some(pages)
    }

    async fn reclaim(&self, block: usize) {
        self.dev.erase(block as u32).await.expect("GC erase");
    }

    fn note_floor(&self, ts: Timestamp) {
        let mut st = self.state.borrow_mut();
        st.floor = st.floor.max(ts);
    }

    fn power_fail(&self) -> u64 {
        let torn = self.dev.power_fail();
        self.state.borrow_mut().reset();
        torn
    }

    /// Scans every programmed page's OOB, charging `pages /
    /// mount_scan_rate` of device time, and recovers the durable floor as
    /// the max over intact pages.
    async fn mount(&self) -> (MountReport, Vec<Scanned<PhysLoc>>) {
        self.state.borrow_mut().reset();
        let scan = self.dev.mount_scan().await;
        let mut report = MountReport {
            pages_scanned: scan.len() as u64,
            ..MountReport::default()
        };
        let mut pages = Vec::with_capacity(scan.len());
        for sp in &scan {
            let page = self.dev.peek(sp.loc);
            // The controller knows the page was programmed (write pointer),
            // so even discarded pages count toward `written`: GC can later
            // reclaim them as garbage.
            let written = page.as_ref().map_or(1, |p| p.len() as u32).max(1);
            let intact = sp.oob.filter(|o| !o.is_torn());
            match intact {
                Some(oob) => report.floor = report.floor.max(Timestamp(oob.floor)),
                None => report.torn_pages += 1,
            }
            pages.push((sp.loc, written, page.filter(|_| intact.is_some())));
        }
        self.state.borrow_mut().floor = report.floor;
        (report, pages)
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

    fn vc(ts: u64, c: u32) -> Version {
        Version::new(Timestamp(ts), ClientId(c))
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
        value(vec![0xabu8; n])
    }

    fn store(sim: &Sim, blocks: u32) -> UnifiedStore {
        UnifiedStore::new(sim.handle(), nand(blocks), MftlConfig::default())
    }

    #[test]
    fn stale_writes_rejected_with_latest() {
        let mut sim = Sim::new(1);
        let s = store(&sim, 16);
        sim.block_on(async move {
            let k = Key::from(1u64);
            s.put(k.clone(), val(1), v(20)).await.unwrap();
            let err = s.put(k.clone(), val(2), v(10)).await.unwrap_err();
            assert_eq!(err, StoreError::StaleWrite(v(20)));
            // Equal version also rejected (same-client replay handled above).
            let err = s.put(k.clone(), val(2), v(20)).await.unwrap_err();
            assert_eq!(err, StoreError::StaleWrite(v(20)));
        });
    }

    #[test]
    fn client_id_breaks_ties() {
        let mut sim = Sim::new(1);
        let s = store(&sim, 16);
        sim.block_on(async move {
            let k = Key::from(1u64);
            s.put(k.clone(), val(1), vc(10, 1)).await.unwrap();
            s.put(k.clone(), val(2), vc(10, 2)).await.unwrap(); // later client wins
            let err = s.put(k.clone(), val(3), vc(10, 0)).await.unwrap_err();
            assert_eq!(err, StoreError::StaleWrite(vc(10, 2)));
        });
    }

    #[test]
    fn packing_window_bounds_put_latency() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let s = store(&sim, 16);
        let hh = h.clone();
        sim.block_on(async move {
            let t0 = hh.now();
            // One lonely small tuple: flushed by the 1ms window timer.
            s.put(Key::from(1u64), val(100), v(10)).await.unwrap();
            let lat = hh.now() - t0;
            assert!(
                lat >= Duration::from_millis(1) && lat < Duration::from_micros(1200),
                "latency {lat:?}"
            );
        });
    }

    #[test]
    fn full_page_flushes_immediately() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let s = store(&sim, 16);
        let hh = h.clone();
        sim.block_on(async move {
            // The test device has 2 packing streams (one per channel); 16
            // tuples of 512 accounted bytes fill one 4 KB page per stream.
            let t0 = hh.now();
            let mut joins = Vec::new();
            for i in 0..16u64 {
                let s2 = s.clone();
                joins.push(hh.spawn(async move {
                    s2.put(Key::from(i), val(472), v(10 + i)).await.unwrap();
                }));
            }
            for j in joins {
                j.await;
            }
            let lat = hh.now() - t0;
            // No packing wait: just the 100us program (plus epsilon).
            assert!(lat < Duration::from_micros(300), "latency {lat:?}");
        });
    }

    #[test]
    fn watermark_prunes_old_versions() {
        let mut sim = Sim::new(1);
        let s = store(&sim, 16);
        sim.block_on(async move {
            let k = Key::from(1u64);
            for ts in [10, 20, 30, 40] {
                s.put(k.clone(), val(8), v(ts)).await.unwrap();
            }
            s.set_watermark(Timestamp(25));
            // Next write triggers pruning: versions older than the youngest
            // <= 25 (i.e. v20) die; v10 goes away.
            s.put(k.clone(), val(8), v(50)).await.unwrap();
            assert_eq!(s.versions(&k), vec![v(50), v(40), v(30), v(20)]);
            // Reads at/above the watermark still see a consistent snapshot.
            assert_eq!(s.get_at(&k, Timestamp(25)).await.unwrap().version, v(20));
        });
    }

    #[test]
    fn gc_reclaims_space_under_overwrites() {
        let mut sim = Sim::new(2);
        let h = sim.handle();
        let s = store(&sim, 12); // 12 blocks * 4 pages * 8 tuples = 384 slots
        sim.block_on(async move {
            let keys = 20u64;
            for round in 0..40u64 {
                // Concurrent puts within a round so pages pack well.
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
                // Watermark trails by one round, allowing pruning.
                s.set_watermark(Timestamp(round * 100));
            }
            // 800 writes through 384 slots: GC must have collected.
            assert!(s.stats().gc_collections > 5, "{:?}", s.stats());
            for i in 0..keys {
                let got = s.get_latest(&Key::from(i)).await.unwrap();
                assert_eq!(got.version, v(39 * 100 + i + 1));
            }
        });
    }

    #[test]
    fn delete_removes_all_versions() {
        let mut sim = Sim::new(1);
        let s = store(&sim, 16);
        sim.block_on(async move {
            let k = Key::from(1u64);
            s.put(k.clone(), val(8), v(10)).await.unwrap();
            s.put(k.clone(), val(8), v(20)).await.unwrap();
            s.delete(&k);
            assert_eq!(s.get_latest(&k).await.unwrap_err(), StoreError::NotFound);
            assert!(s.versions(&k).is_empty());
            // Key can be written again afterwards.
            s.put(k.clone(), val(8), v(30)).await.unwrap();
            assert_eq!(s.get_latest(&k).await.unwrap().version, v(30));
        });
    }

    #[test]
    fn buffered_reads_hit_the_packer() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let s = store(&sim, 16);
        let hh = h.clone();
        sim.block_on(async move {
            let k = Key::from(1u64);
            let s2 = s.clone();
            let k2 = k.clone();
            let put = hh.spawn(async move { s2.put(k2, val(9), v(10)).await });
            // Let the put enqueue, then read before the 1ms flush completes.
            hh.sleep(Duration::from_micros(10)).await;
            let t0 = hh.now();
            let got = s.get_at(&k, Timestamp(10)).await.unwrap();
            assert_eq!(got.version, v(10));
            // DRAM hit: only the mapping-table overhead, no flash read.
            assert_eq!(hh.now() - t0, MftlConfig::default().op_overhead);
            put.await.unwrap();
        });
    }

    #[test]
    fn reads_survive_concurrent_gc() {
        let mut sim = Sim::new(9);
        let s = store(&sim, 10);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let keys = 16u64;
            for i in 0..keys {
                s.bulk_load(Key::from(i), val(472), v(1));
            }
            s.finish_load();
            // Writer hammers overwrites (GC churn), readers read everything.
            let s2 = s.clone();
            let h3 = hh.clone();
            let writer = hh.spawn(async move {
                for round in 1..30u64 {
                    let mut joins = Vec::new();
                    for i in 0..keys {
                        let ts = round * 1000 + i;
                        let s4 = s2.clone();
                        joins.push(h3.spawn(async move {
                            s4.put(Key::from(i), val(472), v(ts)).await.unwrap();
                        }));
                    }
                    for j in joins {
                        j.await;
                    }
                    s2.set_watermark(Timestamp((round - 1) * 1000 + keys));
                }
            });
            let s3 = s.clone();
            let reader = hh.spawn(async move {
                for _ in 0..200 {
                    for i in 0..keys {
                        let got = s3.get_latest(&Key::from(i)).await.unwrap();
                        assert_eq!(got.value, val(472));
                    }
                }
            });
            writer.await;
            reader.await;
        });
    }
}
