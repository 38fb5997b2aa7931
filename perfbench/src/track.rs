//! The benchmark's own [`TxnSystem`] wrapper around [`TxnClient`].
//!
//! The Retwis driver only sees begin / get / put / commit, so the wrapper
//! rebuilds the Retwis driver's logical transactions from outside: an
//! attempt that fails is retried with the same keys until it
//! commits or exceeds `max_retries` (mirrored here exactly). Every run
//! counts attempts, commits and abandonments and keeps the exact
//! first-begin-to-commit latency of each commit, so percentiles are exact
//! rather than bucketed. A traced run also records spans: a `txn` root,
//! one `attempt` per begin, and `milana.get` / `milana.commit` around the
//! client calls, each with virtual and host start and end.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use flashsim::{Key, Value};
use milana::client::{CommitInfo, Txn, TxnClient};
use milana::msg::TxnError;
use retwis::driver::{TxnHandle, TxnSystem};
use simkit::SimHandle;

/// Span kinds, in nesting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One logical transaction, first begin to commit or abandonment.
    Txn,
    /// One begin-to-outcome attempt.
    Attempt,
    /// One `Txn::get` call.
    Get,
    /// One `Txn::commit` call.
    Commit,
}

impl SpanKind {
    /// The span's name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Txn => "txn",
            SpanKind::Attempt => "attempt",
            SpanKind::Get => "milana.get",
            SpanKind::Commit => "milana.commit",
        }
    }
}

/// One recorded span. `parent` indexes the span vector.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span covers.
    pub kind: SpanKind,
    /// Logical transaction id (per run, in begin order).
    pub txn: u64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Virtual start, ns.
    pub v_start: u64,
    /// Virtual end, ns (`u64::MAX` while open).
    pub v_end: u64,
    /// Host start since the recorder's epoch, ns.
    pub h_start: u64,
    /// Host end, ns.
    pub h_end: u64,
}

/// Per-client logical transaction in progress.
#[derive(Debug, Clone, Copy)]
struct Open {
    txn: u64,
    root: Option<usize>,
    first_begin: u64,
    attempts: u32,
}

/// Window counters kept by every run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Tally {
    /// `begin` calls.
    pub attempts: u64,
    /// Attempts that committed.
    pub commits: u64,
    /// Attempts that failed (abort, error, or a failed read).
    pub failed: u64,
    /// Logical transactions given up after `max_retries`.
    pub abandoned: u64,
}

/// Shared state behind every [`Tracked`] client of one run.
#[derive(Debug)]
pub struct Recorder {
    handle: SimHandle,
    epoch: Instant,
    spans_on: bool,
    max_retries: u32,
    next_txn: Cell<u64>,
    open: RefCell<Vec<Option<Open>>>,
    tally: RefCell<Tally>,
    latencies: RefCell<Vec<u64>>,
    spans: RefCell<Vec<Span>>,
}

impl Recorder {
    /// A recorder for `clients` clients; `spans_on` turns span capture on.
    pub fn new(handle: &SimHandle, clients: usize, max_retries: u32, spans_on: bool) -> Rc<Self> {
        Rc::new(Recorder {
            handle: handle.clone(),
            epoch: Instant::now(),
            spans_on,
            max_retries,
            next_txn: Cell::new(0),
            open: RefCell::new(vec![None; clients]),
            tally: RefCell::new(Tally::default()),
            latencies: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        })
    }

    /// Starts a new phase of the Retwis driver: its instances returned, so any
    /// transaction still open was cut off by the deadline and the next
    /// begin starts a fresh one. Zeroes the window counters and latencies
    /// (spans are kept).
    pub fn reset_window(&self) {
        let cut: Vec<Open> = self
            .open
            .borrow_mut()
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        for t in cut {
            self.close_span(t.root);
        }
        *self.tally.borrow_mut() = Tally::default();
        self.latencies.borrow_mut().clear();
    }

    /// Window counters so far.
    pub fn tally(&self) -> Tally {
        self.tally.borrow().clone()
    }

    /// First-begin-to-commit latencies (virtual ns) of the window's
    /// commits, in commit order.
    pub fn latencies(&self) -> Vec<u64> {
        self.latencies.borrow().clone()
    }

    /// Every span recorded, open ones closed at the current instant.
    pub fn take_spans(&self) -> Vec<Span> {
        let (v, h) = self.now();
        let mut spans = std::mem::take(&mut *self.spans.borrow_mut());
        for s in spans.iter_mut().filter(|s| s.v_end == u64::MAX) {
            s.v_end = v;
            s.h_end = h;
        }
        spans
    }

    fn now(&self) -> (u64, u64) {
        (
            self.handle.now().as_nanos(),
            self.epoch.elapsed().as_nanos() as u64,
        )
    }

    fn open_span(&self, kind: SpanKind, txn: u64, parent: Option<usize>) -> Option<usize> {
        if !self.spans_on {
            return None;
        }
        let (v, h) = self.now();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            kind,
            txn,
            parent,
            v_start: v,
            v_end: u64::MAX,
            h_start: h,
            h_end: 0,
        });
        Some(spans.len() - 1)
    }

    fn close_span(&self, id: Option<usize>) {
        if let Some(id) = id {
            let (v, h) = self.now();
            let mut spans = self.spans.borrow_mut();
            spans[id].v_end = v;
            spans[id].h_end = h;
        }
    }

    /// A begin on `client`: continues its open transaction (a retry) or
    /// opens a new one. Returns the transaction id and attempt span.
    fn begin(&self, client: usize) -> (u64, Option<usize>) {
        self.tally.borrow_mut().attempts += 1;
        let mut open = self.open.borrow_mut();
        let cur = open[client].get_or_insert_with(|| {
            let txn = self.next_txn.get();
            self.next_txn.set(txn + 1);
            Open {
                txn,
                root: self.open_span(SpanKind::Txn, txn, None),
                first_begin: self.handle.now().as_nanos(),
                attempts: 0,
            }
        });
        cur.attempts += 1;
        let (txn, root) = (cur.txn, cur.root);
        drop(open);
        (txn, self.open_span(SpanKind::Attempt, txn, root))
    }

    fn committed(&self, client: usize, attempt: Option<usize>) {
        self.close_span(attempt);
        let t = self.open.borrow_mut()[client]
            .take()
            .expect("commit without an open transaction");
        self.close_span(t.root);
        self.tally.borrow_mut().commits += 1;
        let now = self.handle.now().as_nanos();
        self.latencies.borrow_mut().push(now - t.first_begin);
    }

    fn failed(&self, client: usize, attempt: Option<usize>) {
        self.close_span(attempt);
        self.tally.borrow_mut().failed += 1;
        let mut open = self.open.borrow_mut();
        let give_up = open[client].is_some_and(|t| t.attempts > self.max_retries);
        if give_up {
            let t = open[client].take().expect("checked above");
            drop(open);
            self.close_span(t.root);
            self.tally.borrow_mut().abandoned += 1;
        }
    }
}

/// A [`TxnClient`] seen through the recorder.
#[derive(Debug, Clone)]
pub struct Tracked {
    inner: TxnClient,
    slot: usize,
    rec: Rc<Recorder>,
}

impl Tracked {
    /// Wraps every client of a cluster, one recorder slot each.
    pub fn wrap_all(clients: &[TxnClient], rec: &Rc<Recorder>) -> Vec<Tracked> {
        clients
            .iter()
            .enumerate()
            .map(|(slot, c)| Tracked {
                inner: c.clone(),
                slot,
                rec: rec.clone(),
            })
            .collect()
    }

    fn start(&self, txn: Txn) -> TrackedTxn {
        let (id, attempt) = self.rec.begin(self.slot);
        TrackedTxn {
            inner: Some(txn),
            slot: self.slot,
            txn: id,
            attempt,
            rec: self.rec.clone(),
        }
    }
}

impl TxnSystem for Tracked {
    type Handle = TrackedTxn;

    fn begin(&self) -> TrackedTxn {
        self.start(TxnSystem::begin(&self.inner))
    }

    fn begin_read_only(&self) -> TrackedTxn {
        self.start(TxnSystem::begin_read_only(&self.inner))
    }
}

/// One attempt in flight.
#[derive(Debug)]
pub struct TrackedTxn {
    inner: Option<Txn>,
    slot: usize,
    txn: u64,
    attempt: Option<usize>,
    rec: Rc<Recorder>,
}

impl TxnHandle for TrackedTxn {
    async fn get(&mut self, key: &Key) -> Result<Value, TxnError> {
        let span = self.rec.open_span(SpanKind::Get, self.txn, self.attempt);
        let txn = self.inner.as_mut().expect("attempt still open");
        let got = txn.get(key).await;
        self.rec.close_span(span);
        got
    }

    fn put(&mut self, key: Key, value: Value) {
        self.inner
            .as_mut()
            .expect("attempt still open")
            .put(key, value)
    }

    async fn commit(mut self) -> Result<CommitInfo, TxnError> {
        let span = self.rec.open_span(SpanKind::Commit, self.txn, self.attempt);
        let txn = self.inner.take().expect("attempt still open");
        let out = txn.commit().await;
        self.rec.close_span(span);
        match out {
            Ok(_) => self.rec.committed(self.slot, self.attempt),
            Err(_) => self.rec.failed(self.slot, self.attempt),
        }
        out
    }
}

impl Drop for TrackedTxn {
    fn drop(&mut self) {
        // Dropped without reaching commit: the Retwis driver saw a failed read
        // and counts this attempt as an abort or a timeout.
        if let Some(txn) = self.inner.take() {
            drop(txn);
            self.rec.failed(self.slot, self.attempt);
        }
    }
}

/// Writes spans as JSON lines, one object per span, in record order.
///
/// # Errors
///
/// Any I/O error creating or writing `path`.
pub fn write_spans(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"txn\":{},\"parent\":{parent},\"v_start\":{},\"v_end\":{},\"h_start\":{},\"h_end\":{}}}",
            s.kind.name(),
            s.txn,
            s.v_start,
            s.v_end,
            s.h_start,
            s.h_end
        )?;
    }
    out.flush()
}
