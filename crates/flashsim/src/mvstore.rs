//! The multi-version store core shared by MFTL (§3.1) and VFTL (§5.1).
//!
//! Both stores keep a per-key chain of versions in DRAM, pack small tuples
//! into pages behind a bounded packing window (1 ms in §5), prune versions
//! that fell below the watermark, and relocate live tuples when garbage
//! collection frees space. They differ only in where a packed page goes:
//!
//! - MFTL programs it straight into a NAND page ([`crate::mftl::NandMedium`]):
//!   one mapping step, one garbage collector;
//! - VFTL writes it to an LBA of a page-mapped FTL
//!   ([`crate::vftl::LbaMedium`]): the FTL adds a second mapping step and a
//!   second garbage collector underneath.
//!
//! [`Medium`] carries exactly that difference and [`MvStore`] is everything
//! else. The crate-private `Chain` is the version chain all three
//! multi-version backends (MFTL, VFTL and DRAM) share.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;
use std::vec::Drain;

use perfkit::FastMap;
use simkit::sync::{mpsc, oneshot, Semaphore};
use simkit::SimHandle;
use timesync::{Timestamp, Version};

use crate::backend::MountReport;
use crate::nand::{NandConfig, NandDevice};
use crate::types::{Key, StoreError, StoreStats, TupleRecord, Value, VersionedValue, TUPLE_HEADER};

/// One packed page's payload: its tuples in slot order.
pub type Page = Rc<Vec<TupleRecord>>;

/// A per-key version chain, youngest first (Figure 3). `L` is what each
/// version maps to: its value (DRAM) or its tuple's location (MFTL, VFTL).
pub(crate) type Chain<L> = Vec<(Version, L)>;

/// The four operations on a [`Chain`].
pub(crate) trait VersionChain<L> {
    /// Inserts `version` in order. Returns false, leaving the chain as it
    /// was, if the chain already holds `version`.
    fn insert_version(&mut self, version: Version, loc: L) -> bool;
    /// The youngest version with timestamp `<= at`.
    fn visible_at(&self, at: Timestamp) -> Option<&(Version, L)>;
    /// The youngest version.
    fn latest(&self) -> Option<&(Version, L)>;
    /// Drops every version older than the youngest one at or below
    /// `watermark` (§3.1) and returns the dropped entries.
    fn prune(&mut self, watermark: Timestamp) -> Drain<'_, (Version, L)>;
}

impl<L> VersionChain<L> for Chain<L> {
    fn insert_version(&mut self, version: Version, loc: L) -> bool {
        let pos = self
            .iter()
            .position(|(v, _)| *v <= version)
            .unwrap_or(self.len());
        if self.get(pos).is_some_and(|(v, _)| *v == version) {
            return false;
        }
        self.insert(pos, (version, loc));
        true
    }

    fn visible_at(&self, at: Timestamp) -> Option<&(Version, L)> {
        crate::types::visible_at(self, at)
    }

    fn latest(&self) -> Option<&(Version, L)> {
        self.first()
    }

    fn prune(&mut self, watermark: Timestamp) -> Drain<'_, (Version, L)> {
        let keep = self
            .iter()
            .position(|(v, _)| v.ts <= watermark)
            .map_or(self.len(), |i| i + 1);
        self.drain(keep..)
    }
}

/// Where packed pages live: what MFTL and VFTL do differently.
///
/// Every task the store spawns holds a clone of the store, medium included,
/// so a medium keeps its mutable state behind one `Rc`.
pub trait Medium: Clone + 'static {
    /// The address of one packed page: a NAND page or an LBA.
    type Addr: Copy + Eq + std::fmt::Debug + 'static;

    /// The NAND device at the bottom (timing, counters, tracing, faults).
    fn device(&self) -> &NandDevice<Page>;

    /// The garbage-collection unit holding `addr`: an erase block or an LBA.
    fn unit(addr: Self::Addr) -> usize;

    /// How many garbage-collection units there are.
    fn units(&self) -> usize;

    /// Free units; GC runs while this is at or below its low-water mark.
    fn free_units(&self) -> usize;

    /// Allocates the page a flush on packing stream `stream` programs. Only
    /// GC relocation flushes (`for_gc`) may use the reserve.
    fn alloc(&self, stream: usize, for_gc: bool) -> Option<Self::Addr>;

    /// Takes back an allocated address whose program failed.
    fn unalloc(&self, _addr: Self::Addr) {}

    /// Programs `page` at `addr` under mount epoch `epoch`.
    fn program(
        &self,
        addr: Self::Addr,
        page: Page,
        epoch: u64,
    ) -> impl Future<Output = Result<(), StoreError>>;

    /// Reads the page at `addr`; `None` if it was erased or unmapped.
    fn read(&self, addr: Self::Addr) -> impl Future<Output = Option<Page>>;

    /// Places a bulk-load page in zero time and returns its address.
    ///
    /// # Panics
    ///
    /// Panics if the medium is full.
    fn install(&self, page: Page, epoch: u64) -> Self::Addr;

    /// The GC victim: by default the unit with the most garbage tuples.
    fn pick_victim(&self, live: &[u32], written: &[u32]) -> Option<usize> {
        most_garbage(live, written, |_| false)
    }

    /// Reads every page of victim `unit`; `None` if the unit is gone.
    fn read_victim(&self, unit: usize) -> impl Future<Output = Option<Vec<(Self::Addr, Page)>>>;

    /// Reclaims victim `unit` once its live tuples have moved out.
    fn reclaim(&self, unit: usize) -> impl Future<Output = ()>;

    /// Records the durable write floor stamped into later programs' OOB.
    fn note_floor(&self, ts: Timestamp);

    /// Tears in-flight programs and drops the medium's volatile state.
    /// Returns the number of torn pages.
    fn power_fail(&self) -> u64;

    /// Drops the medium's volatile state and scans it. Returns the report
    /// (without the key count) and, for each programmed page in scan order,
    /// its address, the tuples it counts as written, and its payload if
    /// the page is intact.
    fn mount(&self) -> impl Future<Output = (MountReport, Vec<Scanned<Self::Addr>>)>;
}

/// One page found by [`Medium::mount`]: address, tuples written, payload.
pub type Scanned<A> = (A, u32, Option<Page>);

/// The unit with the most garbage tuples (`written - live`), skipping
/// `open` ones; the last such unit wins ties. `None` if no unit holds
/// garbage.
pub(crate) fn most_garbage(
    live: &[u32],
    written: &[u32],
    open: impl Fn(usize) -> bool,
) -> Option<usize> {
    (0..written.len())
        .filter(|&u| !open(u) && written[u] > live[u])
        .max_by_key(|&u| written[u] - live[u])
}

/// How many packing streams a device gets: one per channel, as real SSDs
/// program pages on many channels in parallel, but at most one per eight
/// blocks on tiny devices.
pub(crate) fn stream_count(nand: &NandConfig) -> usize {
    (nand.channels as usize).min((nand.blocks as usize / 8).max(1))
}

/// The core's own knobs, taken from `MftlConfig` or `VftlConfig`.
pub(crate) struct Tuning {
    /// Per-operation mapping-table overhead.
    pub(crate) op_overhead: Duration,
    /// How long a tuple may wait in the packer.
    pub(crate) packing_window: Duration,
    /// GC starts when free units drop to this level.
    pub(crate) gc_low_water: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc<A> {
    /// Still in the packer (or an in-flight flush): generation + slot.
    Buffered { gen: u64, idx: usize },
    /// Persisted in the page at `addr`, at tuple index `slot`.
    Stored { addr: A, slot: u16 },
}

#[derive(Debug, Clone, Copy)]
enum Origin<A> {
    /// A fresh put or replicated write.
    Fresh,
    /// GC relocation of the tuple stored at `addr`, tuple index `slot`.
    Reloc { addr: A, slot: u16 },
}

#[derive(Debug)]
struct Pending<A> {
    rec: TupleRecord,
    origin: Origin<A>,
}

impl<A: Copy> Pending<A> {
    fn is_reloc(&self) -> bool {
        matches!(self.origin, Origin::Reloc { .. })
    }

    /// Where the chain maps this tuple until its flush lands: slot `idx` of
    /// packer generation `gen` for a fresh write, the old page for a
    /// relocation.
    fn mapped_at(&self, gen: u64, idx: usize) -> Loc<A> {
        match self.origin {
            Origin::Fresh => Loc::Buffered { gen, idx },
            Origin::Reloc { addr, slot } => Loc::Stored { addr, slot },
        }
    }
}

/// Resolved when a packed tuple is durable, or its flush failed.
type Waiter = oneshot::Sender<Result<(), StoreError>>;
type Ack = oneshot::Receiver<Result<(), StoreError>>;
/// A tuple's durability ack, plus a full page the caller must flush.
type Queued<A> = (Ack, Option<Batch<A>>);

struct Batch<A> {
    gen: u64,
    /// Which packing stream (append channel) this page belongs to.
    stream: usize,
    /// Mount epoch the batch was packed under; a flush completing after a
    /// power failure (stale epoch) must not touch the rebuilt mapping table.
    epoch: u64,
    pendings: Vec<Pending<A>>,
    waiters: Vec<Waiter>,
    page: Page,
}

/// One packing stream: an open page buffer with its own append point.
/// One stream per channel reproduces the paper's put-latency behavior:
/// partial pages usually wait out the packing window, and GC traffic fills
/// them early.
struct Stream<A> {
    open: Vec<Pending<A>>,
    open_bytes: usize,
    gen: u64,
    waiters: Vec<Waiter>,
}

struct Inner<M: Medium> {
    map: FastMap<Key, Chain<Loc<M::Addr>>>,
    streams: Vec<Stream<M::Addr>>,
    next_stream: usize,
    next_gen: u64,
    /// Pages taken from the packer whose program is still in flight,
    /// readable by generation.
    flushing: FastMap<u64, Page>,
    /// Live tuples per GC unit.
    live: Vec<u32>,
    /// Tuples written to each GC unit since it was last reclaimed (live +
    /// garbage); the victim picker maximizes `written - live`.
    written: Vec<u32>,
    watermark: Timestamp,
    stats: StoreStats,
    gc_nudge: mpsc::Sender<()>,
    /// Packer state for zero-time bulk loading.
    load_buf: Vec<TupleRecord>,
    load_bytes: usize,
    /// Mount epoch: bumped by power-fail and mount so surviving background
    /// tasks (GC, in-flight flushes — spawned off-node, they outlive the
    /// server process) cannot corrupt freshly-mounted state.
    epoch: u64,
}

impl<M: Medium> Inner<M> {
    fn take_open(&mut self, s: usize) -> Batch<M::Addr> {
        let gen = self.streams[s].gen;
        self.streams[s].gen = self.next_gen;
        self.next_gen += 1;
        let st = &mut self.streams[s];
        let pendings = std::mem::take(&mut st.open);
        let waiters = std::mem::take(&mut st.waiters);
        st.open_bytes = 0;
        let page: Page = Rc::new(pendings.iter().map(|p| p.rec.clone()).collect());
        self.flushing.insert(gen, page.clone());
        Batch {
            gen,
            stream: s,
            epoch: self.epoch,
            pendings,
            waiters,
            page,
        }
    }

    /// Drops all RAM-resident state (mapping table, packer streams,
    /// in-flight pages, accounting) the way a power failure would.
    /// Generations stay monotone across resets so stale flushes can never
    /// alias fresh ones; dropped waiters resolve their callers to an error.
    fn reset(&mut self) {
        self.map.clear();
        for st in &mut self.streams {
            st.open.clear();
            st.open_bytes = 0;
            st.waiters.clear();
            st.gen = self.next_gen;
            self.next_gen += 1;
        }
        self.next_stream = 0;
        self.flushing.clear();
        self.live.fill(0);
        self.written.fill(0);
        self.watermark = Timestamp::ZERO;
        self.load_buf.clear();
        self.load_bytes = 0;
    }

    /// Accounts `written` tuples to the page at `addr` and maps the tuples
    /// of its payload, skipping versions a chain already holds.
    fn map_page(&mut self, addr: M::Addr, written: u32, page: Option<&[TupleRecord]>) {
        let unit = M::unit(addr);
        self.written[unit] += written;
        for (slot, rec) in page.into_iter().flatten().enumerate() {
            let loc = Loc::Stored {
                addr,
                slot: slot as u16,
            };
            let chain = self.map.entry(rec.key.clone()).or_default();
            if chain.insert_version(rec.version, loc) {
                self.live[unit] += 1;
            }
        }
    }
}

/// Prunes `chain` below `watermark`, releasing the stored copies of the
/// versions it drops.
fn prune_chain<M: Medium>(
    chain: &mut Chain<Loc<M::Addr>>,
    watermark: Timestamp,
    live: &mut [u32],
    stats: &mut StoreStats,
) {
    for (_, loc) in chain.prune(watermark) {
        if let Loc::Stored { addr, .. } = loc {
            live[M::unit(addr)] -= 1;
        }
        stats.versions_pruned += 1;
    }
}

/// A multi-version store over medium `M`; cloning shares the store.
/// [`crate::mftl::UnifiedStore`] and [`crate::vftl::SplitStore`] are its
/// two instances.
#[derive(Clone)]
pub struct MvStore<M: Medium> {
    medium: M,
    cfg: Rc<Tuning>,
    inner: Rc<RefCell<Inner<M>>>,
    gc_lock: Semaphore,
}

impl<M: Medium> std::fmt::Debug for MvStore<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvStore")
            .field("keys", &self.inner.borrow().map.len())
            .field("free_units", &self.medium.free_units())
            .finish()
    }
}

impl<M: Medium> MvStore<M> {
    /// Builds the store over `medium` and spawns its GC task.
    pub(crate) fn with_medium(medium: M, cfg: Tuning) -> MvStore<M> {
        let n_streams = stream_count(medium.device().config());
        let streams = (0..n_streams)
            .map(|i| Stream {
                open: Vec::new(),
                open_bytes: 0,
                gen: i as u64,
                waiters: Vec::new(),
            })
            .collect();
        let units = medium.units();
        let (tx, rx) = mpsc::channel();
        let store = MvStore {
            medium,
            cfg: Rc::new(cfg),
            inner: Rc::new(RefCell::new(Inner {
                map: FastMap::default(),
                streams,
                next_stream: 0,
                next_gen: n_streams as u64,
                flushing: FastMap::default(),
                live: vec![0; units],
                written: vec![0; units],
                watermark: Timestamp::ZERO,
                stats: StoreStats::default(),
                gc_nudge: tx,
                load_buf: Vec::new(),
                load_bytes: 0,
                epoch: 0,
            })),
            gc_lock: Semaphore::new(1),
        };
        let gc = store.clone();
        store.handle().spawn(async move {
            while rx.recv().await.is_some() {
                while gc.medium.free_units() <= gc.cfg.gc_low_water {
                    if !gc.collect_once().await {
                        break;
                    }
                }
            }
        });
        store
    }

    pub(crate) fn medium(&self) -> &M {
        &self.medium
    }

    fn handle(&self) -> &SimHandle {
        self.device().handle()
    }

    /// The NAND device at the bottom of the stack.
    pub fn device(&self) -> &NandDevice<Page> {
        self.medium.device()
    }

    /// Store-level counters; `pages_written` and `pages_read` come from the
    /// device.
    pub fn stats(&self) -> StoreStats {
        let mut s = self.inner.borrow().stats;
        let d = self.device().stats();
        s.pages_written = d.page_writes;
        s.pages_read = d.page_reads;
        s
    }

    /// Attaches a trace sink to the device (flash-op and GC events stamped
    /// with `node`).
    pub fn attach_tracer(&self, tracer: &obskit::Tracer, node: u64) {
        self.device().attach_tracer(tracer, node);
    }

    /// Injects media faults into the device (fault campaigns).
    pub fn inject_media_faults(&self, cfg: crate::nand::MediaFaultConfig) {
        self.device().inject_media_faults(cfg);
    }

    /// Writes a new version of `key`. Completes when the tuple is persisted
    /// (its packed page programmed).
    ///
    /// # Errors
    ///
    /// - [`StoreError::StaleWrite`] if `version` is not newer than the key's
    ///   latest version (at-most-once, §3.3).
    /// - [`StoreError::CapacityExhausted`] if the medium is full of live data.
    pub async fn put(&self, key: Key, value: Value, version: Version) -> Result<(), StoreError> {
        self.handle().sleep(self.cfg.op_overhead).await;
        let head = self
            .inner
            .borrow()
            .map
            .get(&key)
            .and_then(|c| c.latest())
            .map(|&(v, _)| v);
        if let Some(head) = head.filter(|&head| version <= head) {
            return Err(StoreError::StaleWrite(head));
        }
        self.insert_and_wait(key, value, version).await
    }

    /// Applies a replicated write that may arrive out of order (backup path
    /// of SEMEL's inconsistent replication, §3.2). Duplicate versions are
    /// acknowledged without rewriting (idempotence).
    ///
    /// # Errors
    ///
    /// [`StoreError::CapacityExhausted`] if the medium is full of live data.
    pub async fn apply_unordered(
        &self,
        key: Key,
        value: Value,
        version: Version,
    ) -> Result<(), StoreError> {
        if self.has_version(&key, version) {
            return Ok(());
        }
        self.insert_and_wait(key, value, version).await
    }

    /// Applies a batch of unordered writes with **atomic visibility**: every
    /// entry is installed in the mapping table before the method first
    /// yields, so no reader can observe a prefix of a committed
    /// transaction's writes. Completes when all tuples are persisted.
    ///
    /// # Errors
    ///
    /// [`StoreError::CapacityExhausted`] if the medium fills.
    pub async fn apply_batch_unordered(
        &self,
        items: Vec<(Key, Value, Version)>,
    ) -> Result<(), StoreError> {
        let mut waiters = Vec::new();
        let mut batches = Vec::new();
        for (key, value, version) in items {
            if self.has_version(&key, version) {
                continue;
            }
            let (rx, to_flush) = self.insert(key, value, version);
            waiters.push(rx);
            if let Some(b) = to_flush {
                batches.push(b);
            }
        }
        for b in batches {
            self.spawn_flush(b);
        }
        for rx in waiters {
            rx.await.unwrap_or(Err(StoreError::CapacityExhausted))?;
        }
        Ok(())
    }

    fn has_version(&self, key: &Key, version: Version) -> bool {
        let inner = self.inner.borrow();
        let chain = inner.map.get(key);
        chain.is_some_and(|c| c.iter().any(|&(v, _)| v == version))
    }

    async fn insert_and_wait(
        &self,
        key: Key,
        value: Value,
        version: Version,
    ) -> Result<(), StoreError> {
        let (rx, to_flush) = self.insert(key, value, version);
        if let Some(batch) = to_flush {
            self.spawn_flush(batch);
        }
        rx.await.unwrap_or(Err(StoreError::CapacityExhausted))
    }

    /// Packs a fresh tuple and maps it as buffered.
    fn insert(&self, key: Key, value: Value, version: Version) -> Queued<M::Addr> {
        let rec = TupleRecord {
            key: key.clone(),
            version,
            value,
        };
        let (loc, queued) = self.enqueue(rec, Origin::Fresh);
        let mut inner = self.inner.borrow_mut();
        let Inner {
            map,
            live,
            stats,
            watermark,
            ..
        } = &mut *inner;
        let chain = map.entry(key).or_default();
        chain.insert_version(version, loc);
        prune_chain::<M>(chain, *watermark, live, stats);
        stats.puts += 1;
        queued
    }

    fn spawn_flush(&self, batch: Batch<M::Addr>) {
        let me = self.clone();
        self.handle().spawn(async move { me.flush(batch).await });
    }

    /// Adds a tuple to the packer; returns its buffer slot too.
    fn enqueue(
        &self,
        rec: TupleRecord,
        origin: Origin<M::Addr>,
    ) -> (Loc<M::Addr>, Queued<M::Addr>) {
        let page_size = self.device().config().page_size;
        let mut inner = self.inner.borrow_mut();
        let len = rec.accounted_len();
        // Round-robin over the per-channel packing streams.
        let s = inner.next_stream;
        inner.next_stream = (s + 1) % inner.streams.len();
        let mut to_flush = None;
        if !inner.streams[s].open.is_empty() && inner.streams[s].open_bytes + len > page_size {
            to_flush = Some(inner.take_open(s));
        }
        let gen = inner.streams[s].gen;
        let idx = inner.streams[s].open.len();
        let here = Loc::Buffered { gen, idx };
        let (tx, rx) = oneshot::channel();
        let st = &mut inner.streams[s];
        st.open.push(Pending { rec, origin });
        st.open_bytes += len;
        st.waiters.push(tx);
        let full = st.open_bytes + TUPLE_HEADER + 16 > page_size;
        if full && to_flush.is_none() {
            to_flush = Some(inner.take_open(s));
        } else if full {
            // Rare: the tuple that forced the previous flush itself fills the
            // fresh page. Flush both: spawn the second here.
            let second = inner.take_open(s);
            self.spawn_flush(second);
        } else if idx == 0 {
            // First tuple of a fresh page: arm the packing-window timer.
            let me = self.clone();
            let deadline = self.handle().now() + self.cfg.packing_window;
            self.handle().spawn(async move {
                me.handle().sleep_until(deadline).await;
                let batch = {
                    let mut inner = me.inner.borrow_mut();
                    let st = &inner.streams[s];
                    (st.gen == gen && !st.open.is_empty()).then(|| inner.take_open(s))
                };
                if let Some(b) = batch {
                    me.flush(b).await;
                }
            });
        }
        (here, (rx, to_flush))
    }

    async fn flush(&self, batch: Batch<M::Addr>) {
        let for_gc = batch.pendings.iter().any(Pending::is_reloc);
        let addr = loop {
            if let Some(a) = self.medium.alloc(batch.stream, for_gc) {
                break a;
            }
            // A batch carrying GC relocations must NEVER wait on the GC
            // lock: the collector may be blocked awaiting this very batch.
            // Fail fast; the collection aborts safely (old locations stay
            // valid) and retries when space frees up.
            if for_gc || !self.collect_once().await {
                self.fail_batch(batch);
                return;
            }
        };
        let epoch = self.inner.borrow().epoch;
        let programmed = self.medium.program(addr, batch.page.clone(), epoch).await;
        // A power failure while the program was in flight reset the store;
        // the rebuilt mapping table must not see this batch.
        if self.inner.borrow().epoch != batch.epoch {
            for w in batch.waiters {
                let _ = w.send(Err(StoreError::CapacityExhausted));
            }
            return;
        }
        if programmed.is_err() {
            self.medium.unalloc(addr);
            self.fail_batch(batch);
            return;
        }
        {
            let mut inner = self.inner.borrow_mut();
            let Inner {
                map,
                live,
                written,
                stats,
                flushing,
                ..
            } = &mut *inner;
            let unit = M::unit(addr);
            written[unit] += batch.page.len() as u32;
            for (slot, p) in batch.pendings.iter().enumerate() {
                let from = p.mapped_at(batch.gen, slot);
                let entry = map
                    .get_mut(&p.rec.key)
                    .and_then(|c| c.iter_mut().find(|(v, _)| *v == p.rec.version));
                // Skip tuples pruned, deleted or moved while buffered.
                let Some((_, loc)) = entry.filter(|(_, loc)| *loc == from) else {
                    continue;
                };
                *loc = Loc::Stored {
                    addr,
                    slot: slot as u16,
                };
                live[unit] += 1;
                if let Origin::Reloc { addr: old, .. } = p.origin {
                    live[M::unit(old)] -= 1;
                    stats.gc_relocated += 1;
                }
            }
            flushing.remove(&batch.gen);
        }
        for w in batch.waiters {
            let _ = w.send(Ok(()));
        }
        if self.medium.free_units() <= self.cfg.gc_low_water {
            let _ = self.inner.borrow().gc_nudge.send(());
        }
    }

    fn fail_batch(&self, batch: Batch<M::Addr>) {
        {
            let mut inner = self.inner.borrow_mut();
            for (slot, p) in batch.pendings.iter().enumerate() {
                // Relocations keep their old (still valid) location.
                if p.is_reloc() {
                    continue;
                }
                let from = p.mapped_at(batch.gen, slot);
                if let Some(chain) = inner.map.get_mut(&p.rec.key) {
                    chain.retain(|&(v, loc)| !(v == p.rec.version && loc == from));
                }
            }
            inner.flushing.remove(&batch.gen);
        }
        for w in batch.waiters {
            let _ = w.send(Err(StoreError::CapacityExhausted));
        }
    }

    /// Reads the youngest version of `key` with timestamp `<= at` —
    /// MILANA's snapshot read primitive.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the key has no visible version at `at`.
    pub async fn get_at(&self, key: &Key, at: Timestamp) -> Result<VersionedValue, StoreError> {
        self.handle().sleep(self.cfg.op_overhead).await;
        for _ in 0..8 {
            let (version, addr, slot) = {
                let mut inner = self.inner.borrow_mut();
                let Some(&(version, loc)) = inner.map.get(key).and_then(|c| c.visible_at(at))
                else {
                    return Err(StoreError::NotFound);
                };
                match loc {
                    Loc::Buffered { gen, idx } => {
                        // DRAM hit: serve from a packer stream or an
                        // in-flight page.
                        let rec = match inner.streams.iter().find(|st| st.gen == gen) {
                            Some(st) => st.open.get(idx).map(|p| p.rec.clone()),
                            None => inner.flushing.get(&gen).and_then(|pg| pg.get(idx).cloned()),
                        };
                        // None: programmed between checks; retry.
                        let Some(rec) = rec else { continue };
                        debug_assert_eq!(rec.key, *key);
                        inner.stats.gets += 1;
                        return Ok(VersionedValue {
                            version,
                            value: rec.value,
                        });
                    }
                    Loc::Stored { addr, slot } => (version, addr, slot),
                }
            };
            let page = self.medium.read(addr).await;
            let rec = page.as_ref().and_then(|p| p.get(slot as usize));
            if let Some(rec) = rec.filter(|r| r.key == *key && r.version == version) {
                self.inner.borrow_mut().stats.gets += 1;
                return Ok(VersionedValue {
                    version,
                    value: rec.value.clone(),
                });
            }
            // Relocated or erased under us; retry with a fresh mapping.
        }
        unreachable!("key {key} kept moving during read; GC livelock")
    }

    /// Reads the latest version of `key` regardless of timestamp.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the key does not exist.
    pub async fn get_latest(&self, key: &Key) -> Result<VersionedValue, StoreError> {
        self.get_at(key, Timestamp::MAX).await
    }

    /// Removes all versions of `key` (§3 API). Metadata-only in this model.
    pub fn delete(&self, key: &Key) {
        let mut inner = self.inner.borrow_mut();
        if let Some(chain) = inner.map.remove(key) {
            for (_, loc) in chain {
                if let Loc::Stored { addr, .. } = loc {
                    inner.live[M::unit(addr)] -= 1;
                }
            }
        }
    }

    /// Raises the GC watermark: versions superseded at or below `ts` become
    /// collectible (§3.1). Watermarks never move backwards.
    pub fn set_watermark(&self, ts: Timestamp) {
        let mut inner = self.inner.borrow_mut();
        if ts > inner.watermark {
            inner.watermark = ts;
        }
    }

    /// Current watermark.
    pub fn watermark(&self) -> Timestamp {
        self.inner.borrow().watermark
    }

    /// All versions currently mapped for `key`, youngest first (test /
    /// recovery instrumentation).
    pub fn versions(&self, key: &Key) -> Vec<Version> {
        self.inner
            .borrow()
            .map
            .get(key)
            .map(|c| c.iter().map(|&(v, _)| v).collect())
            .unwrap_or_default()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.inner.borrow().map.len()
    }

    /// All distinct keys, sorted by byte order (deterministic iteration
    /// for bulk copy / migration sweeps).
    pub fn keys(&self) -> Vec<Key> {
        let mut ks: Vec<Key> = self.inner.borrow().map.keys().cloned().collect();
        ks.sort();
        ks
    }

    /// Zero-time bulk load for experiment setup. Call
    /// [`MvStore::finish_load`] after the last record.
    ///
    /// # Panics
    ///
    /// Panics if the medium fills during the load.
    pub fn bulk_load(&self, key: Key, value: Value, version: Version) {
        let rec = TupleRecord {
            key,
            version,
            value,
        };
        let page_size = self.device().config().page_size;
        let mut inner = self.inner.borrow_mut();
        if !inner.load_buf.is_empty() && inner.load_bytes + rec.accounted_len() > page_size {
            drop(inner);
            self.install_load_page();
            inner = self.inner.borrow_mut();
        }
        inner.load_bytes += rec.accounted_len();
        inner.load_buf.push(rec);
    }

    /// Flushes the bulk-load packer.
    pub fn finish_load(&self) {
        if !self.inner.borrow().load_buf.is_empty() {
            self.install_load_page();
        }
    }

    fn install_load_page(&self) {
        let (page, epoch) = {
            let mut inner = self.inner.borrow_mut();
            inner.load_bytes = 0;
            let mut recs = std::mem::take(&mut inner.load_buf);
            recs.shrink_to_fit();
            (Rc::new(recs), inner.epoch)
        };
        let addr = self.medium.install(page.clone(), epoch);
        let written = page.len() as u32;
        self.inner.borrow_mut().map_page(addr, written, Some(&page));
    }

    /// Records the replica's durable write floor: every page programmed from
    /// now on carries `ts` in its OOB floor field, so a future
    /// [`MvStore::mount`] recovers at least this floor. Floors never move
    /// backwards.
    pub fn note_floor(&self, ts: Timestamp) {
        self.medium.note_floor(ts);
    }

    /// Injects a power failure: tears in-flight page programs and drops all
    /// RAM state (mapping table, packer queues, accounting) — the store is
    /// unusable until [`MvStore::mount`]. Returns the number of torn pages.
    pub fn power_fail(&self) -> u64 {
        let torn = self.medium.power_fail();
        let mut inner = self.inner.borrow_mut();
        inner.epoch += 1;
        inner.reset();
        torn
    }

    /// Deterministic mount scan (§4.5 recovery): rebuilds the mapping table
    /// and version chains from every intact page, discarding torn pages
    /// (their programs were never acknowledged, so no acked write is lost),
    /// and returns what it found, including the recovered durable floor. A
    /// GC relocation interrupted before its reclaim leaves two identical
    /// copies; the first in scan order wins and the other stays garbage.
    pub async fn mount(&self) -> MountReport {
        let _gc = self.gc_lock.acquire().await;
        {
            let mut inner = self.inner.borrow_mut();
            inner.epoch += 1;
            inner.reset();
        }
        let (mut report, pages) = self.medium.mount().await;
        let mut inner = self.inner.borrow_mut();
        for (addr, written, page) in pages {
            inner.map_page(addr, written, page.as_deref().map(Vec::as_slice));
        }
        report.keys = inner.map.len() as u64;
        report
    }

    /// One unified GC pass: pick the unit with the most garbage, prune dead
    /// versions, relocate live tuples through the packer, reclaim the unit.
    async fn collect_once(&self) -> bool {
        let _gc = self.gc_lock.acquire().await;
        let epoch = self.inner.borrow().epoch;
        let victim = {
            let inner = self.inner.borrow();
            self.medium.pick_victim(&inner.live, &inner.written)
        };
        // No unit holds any garbage tuples: collecting would free nothing.
        let Some(victim) = victim else { return false };
        let Some(pages) = self.medium.read_victim(victim).await else {
            // Gone under us (a racing collection); drop the bookkeeping.
            let mut inner = self.inner.borrow_mut();
            inner.live[victim] = 0;
            inner.written[victim] = 0;
            return false;
        };
        let mut waiters = Vec::new();
        let mut flush_batches = Vec::new();
        for (addr, page) in pages {
            for (slot, rec) in page.iter().enumerate() {
                let here = Loc::Stored {
                    addr,
                    slot: slot as u16,
                };
                let live = {
                    let mut inner = self.inner.borrow_mut();
                    let Inner {
                        map,
                        live,
                        stats,
                        watermark,
                        ..
                    } = &mut *inner;
                    // Prune this chain first so cold garbage dies here.
                    map.get_mut(&rec.key).is_some_and(|chain| {
                        prune_chain::<M>(chain, *watermark, live, stats);
                        chain.contains(&(rec.version, here))
                    })
                };
                if live {
                    let origin = Origin::Reloc {
                        addr,
                        slot: slot as u16,
                    };
                    let (_, (rx, to_flush)) = self.enqueue(rec.clone(), origin);
                    waiters.push(rx);
                    if let Some(b) = to_flush {
                        flush_batches.push(b);
                    }
                }
            }
        }
        // Force out partial pages holding relocation tails so the reclaim
        // below cannot outrun persistence.
        {
            let mut inner = self.inner.borrow_mut();
            for s in 0..inner.streams.len() {
                if inner.streams[s].open.iter().any(Pending::is_reloc) {
                    let b = inner.take_open(s);
                    flush_batches.push(b);
                }
            }
        }
        for b in flush_batches {
            // Boxed to break the flush -> collect_once -> flush async cycle.
            Box::pin(self.flush(b)).await;
        }
        let relocated = waiters.len() as u64;
        for rx in waiters {
            if !matches!(rx.await, Ok(Ok(()))) {
                return false; // relocation failed; keep the victim intact
            }
        }
        // A power failure reset the store while this pass ran: abort without
        // reclaiming. The victim's tuples (and any relocated copies) are both
        // durable; the next mount deduplicates them.
        if self.inner.borrow().epoch != epoch {
            return false;
        }
        self.medium.reclaim(victim).await;
        let reclaimed = {
            let mut inner = self.inner.borrow_mut();
            debug_assert_eq!(inner.live[victim], 0, "live data reclaimed");
            inner.live[victim] = 0;
            let written = std::mem::take(&mut inner.written[victim]) as u64;
            inner.stats.gc_collections += 1;
            written.saturating_sub(relocated)
        };
        self.device().trace_gc(reclaimed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mftl::{MftlConfig, UnifiedStore};
    use crate::types::value;
    use crate::vftl::{SplitStore, VftlConfig};
    use simkit::{Sim, SimTime};
    use timesync::ClientId;

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

    fn mftl(sim: &Sim, blocks: u32) -> UnifiedStore {
        UnifiedStore::new(sim.handle(), nand(blocks), MftlConfig::default())
    }

    fn vftl(sim: &Sim, blocks: u32) -> SplitStore {
        SplitStore::new(sim.handle(), nand(blocks), VftlConfig::default())
    }

    /// Runs `$body` once over MFTL and once over VFTL, each store on its
    /// own device size and in a fresh simulation with its own seed. The
    /// optional third entry per medium is bound to `$arg` for that run.
    macro_rules! on_both_media {
        ([$mseed:expr, $mblocks:expr], [$vseed:expr, $vblocks:expr], |$sim:ident, $s:ident| $body:block) => {
            on_both_media!(
                [$mseed, $mblocks, ()],
                [$vseed, $vblocks, ()],
                |$sim, $s, _none| $body
            )
        };
        ([$mseed:expr, $mblocks:expr, $marg:expr], [$vseed:expr, $vblocks:expr, $varg:expr], |$sim:ident, $s:ident, $arg:ident| $body:block) => {{
            {
                let mut $sim = Sim::new($mseed);
                let $s = mftl(&$sim, $mblocks);
                let $arg = $marg;
                $body
            }
            {
                let mut $sim = Sim::new($vseed);
                let $s = vftl(&$sim, $vblocks);
                let $arg = $varg;
                $body
            }
        }};
    }

    #[test]
    fn chain_orders_equal_timestamps_by_client_id() {
        let mut chain: Chain<&str> = Vec::new();
        assert!(chain.insert_version(vc(10, 1), "a"));
        assert!(chain.insert_version(vc(10, 2), "b"));
        assert!(chain.insert_version(vc(10, 0), "c"));
        assert!(chain.insert_version(vc(9, 5), "d"));
        assert_eq!(
            chain,
            vec![
                (vc(10, 2), "b"),
                (vc(10, 1), "a"),
                (vc(10, 0), "c"),
                (vc(9, 5), "d")
            ]
        );
        assert_eq!(chain.latest(), Some(&(vc(10, 2), "b")));
        // Visibility is by timestamp alone: the youngest stamp at 10 wins.
        assert_eq!(chain.visible_at(Timestamp(10)), Some(&(vc(10, 2), "b")));
        assert_eq!(chain.visible_at(Timestamp(9)), Some(&(vc(9, 5), "d")));
    }

    #[test]
    fn chain_skips_duplicate_versions() {
        let mut chain: Chain<&str> = Vec::new();
        for ts in [30, 10, 20] {
            assert!(chain.insert_version(v(ts), "first"));
        }
        let before = chain.clone();
        for ts in [30, 10, 20] {
            assert!(!chain.insert_version(v(ts), "dup"));
        }
        assert_eq!(chain, before);
    }

    #[test]
    fn chain_prune_returns_exactly_what_it_removed() {
        let mut chain: Chain<u64> = Vec::new();
        for ts in [10, 20, 30, 40, 50] {
            chain.insert_version(v(ts), ts);
        }
        // Nothing is at or below the watermark: nothing to prune.
        assert_eq!(chain.prune(Timestamp(5)).count(), 0);
        assert_eq!(chain.len(), 5);
        // v30 is the youngest at or below 35: it stays, older ones go.
        let dropped: Vec<_> = chain.prune(Timestamp(35)).collect();
        assert_eq!(dropped, vec![(v(20), 20), (v(10), 10)]);
        assert_eq!(chain, vec![(v(50), 50), (v(40), 40), (v(30), 30)]);
        // Pruning again at the same watermark drops nothing more.
        assert_eq!(chain.prune(Timestamp(35)).count(), 0);
        let dropped: Vec<_> = chain.prune(Timestamp(u64::MAX)).collect();
        assert_eq!(dropped, vec![(v(40), 40), (v(30), 30)]);
        assert_eq!(chain, vec![(v(50), 50)]);
    }

    #[test]
    fn put_get_round_trip() {
        on_both_media!([1, 16], [1, 32], |sim, s| {
            sim.block_on(async move {
                s.put(Key::from(1u64), val(100), v(10)).await.unwrap();
                let got = s.get_at(&Key::from(1u64), Timestamp(10)).await.unwrap();
                assert_eq!(got.version, v(10));
                assert_eq!(got.value, val(100));
            });
        });
    }

    #[test]
    fn snapshot_reads_see_old_versions() {
        on_both_media!([1, 16], [1, 32], |sim, s| {
            sim.block_on(async move {
                let k = Key::from(1u64);
                s.put(k.clone(), val(1), v(10)).await.unwrap();
                s.put(k.clone(), val(2), v(20)).await.unwrap();
                s.put(k.clone(), val(3), v(30)).await.unwrap();
                assert_eq!(s.get_at(&k, Timestamp(10)).await.unwrap().version, v(10));
                assert_eq!(s.get_at(&k, Timestamp(25)).await.unwrap().version, v(20));
                assert_eq!(s.get_at(&k, Timestamp(99)).await.unwrap().version, v(30));
                assert_eq!(
                    s.get_at(&k, Timestamp(5)).await.unwrap_err(),
                    StoreError::NotFound
                );
            });
        });
    }

    #[test]
    fn unordered_applies_accept_any_order_and_are_idempotent() {
        on_both_media!([1, 16], [1, 32], |sim, s| {
            sim.block_on(async move {
                let k = Key::from(1u64);
                s.apply_unordered(k.clone(), val(3), v(30)).await.unwrap();
                s.apply_unordered(k.clone(), val(1), v(10)).await.unwrap();
                s.apply_unordered(k.clone(), val(2), v(20)).await.unwrap();
                s.apply_unordered(k.clone(), val(2), v(20)).await.unwrap(); // dup
                assert_eq!(s.versions(&k), vec![v(30), v(20), v(10)]);
                assert_eq!(s.get_at(&k, Timestamp(20)).await.unwrap().version, v(20));
                let k = Key::from(9u64);
                s.apply_unordered(k.clone(), val(1), v(20)).await.unwrap();
                s.apply_unordered(k.clone(), val(2), v(10)).await.unwrap();
                s.apply_unordered(k.clone(), val(1), v(20)).await.unwrap();
                assert_eq!(s.versions(&k), vec![v(20), v(10)]);
            });
        });
    }

    #[test]
    fn capacity_exhausted_when_everything_live() {
        // MFTL: 4*4*8 = 128 tuple slots; VFTL: 24 pages. No watermark.
        on_both_media!([1, 4, 200u64], [1, 6, 400u64], |sim, s, max_puts| {
            sim.block_on(async move {
                let mut err = None;
                for i in 0..max_puts {
                    if let Err(e) = s.put(Key::from(i), val(472), v(i + 1)).await {
                        err = Some(e);
                        break;
                    }
                }
                assert_eq!(err, Some(StoreError::CapacityExhausted));
            });
        });
    }

    #[test]
    fn bulk_load_is_instant_and_readable() {
        on_both_media!([1, 64], [1, 64], |sim, s| {
            let h = sim.handle();
            for i in 0..1000u64 {
                s.bulk_load(Key::from(i), val(472), v(1));
            }
            s.finish_load();
            assert_eq!(h.now(), SimTime::ZERO);
            assert_eq!(s.key_count(), 1000);
            sim.block_on(async move {
                let got = s.get_at(&Key::from(999u64), Timestamp(1)).await.unwrap();
                assert_eq!(got.version, v(1));
                let got = s.get_at(&Key::from(123u64), Timestamp(5)).await.unwrap();
                assert_eq!(got.version, v(1));
            });
        });
    }

    #[test]
    fn mount_recovers_chains_and_floor_after_power_fail() {
        on_both_media!([13, 16], [11, 32], |sim, s| {
            let h = sim.handle();
            sim.block_on(async move {
                let k = Key::from(1u64);
                for ts in [10u64, 20, 30] {
                    s.put(k.clone(), val(100), v(ts)).await.unwrap();
                }
                for i in 2..6u64 {
                    s.put(Key::from(i), val(100), v(i + 50)).await.unwrap();
                }
                // The floor promise rides in the OOB of every later program.
                s.note_floor(Timestamp(25));
                s.put(Key::from(6u64), val(100), v(60)).await.unwrap();
                // Let the packing windows flush everything durably.
                h.sleep(Duration::from_millis(5)).await;
                // A write still buffered (never programmed) at the failure
                // is simply lost — it was never acked.
                let s2 = s.clone();
                h.spawn(async move {
                    let _ = s2.put(Key::from(9u64), val(100), v(900)).await;
                });
                // Past the op overhead, inside the 1 ms packing window.
                h.sleep(s.cfg.op_overhead + Duration::from_micros(4)).await;
                s.power_fail();
                assert!(s.keys().is_empty());
                assert_eq!(s.key_count(), 0);
                let report = s.mount().await;
                assert_eq!(report.floor, Timestamp(25));
                assert_eq!(report.keys, 6);
                // Full version chain survives: snapshot reads still work.
                assert_eq!(s.versions(&k), vec![v(30), v(20), v(10)]);
                assert_eq!(s.get_at(&k, Timestamp(25)).await.unwrap().version, v(20));
                assert!(s.get_latest(&Key::from(9u64)).await.is_err());
                // The store keeps working after recovery.
                s.put(Key::from(7u64), val(100), v(700)).await.unwrap();
                assert_eq!(
                    s.get_latest(&Key::from(7u64)).await.unwrap().version,
                    v(700)
                );
            });
        });
    }
}
