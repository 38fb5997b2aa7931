//! One repetition of a workload: build the cluster (timed as set-up), warm
//! up, then run the measured window (timed as host run time), reading
//! every layer's public counters on both sides of the window.

use std::time::{Duration, Instant};

use bench::common::run_retwis_generic;
use faultkit::{Checker, History};
use flashsim::{Backend, Key, StoreStats};
use milana::client::TxnClientStats;
use milana::cluster::MilanaCluster;
use milana::server::TxnServerStats;
use obskit::{Json, Obs};
use perfkit::alloc::AllocCounts;
use simkit::{Sim, SimHandle};

use crate::track::{Recorder, Span, SpanKind, Tally, Tracked};
use crate::workload::Workload;

/// Trace ring capacity for traced runs. Sized so that a window never
/// wraps; a run that drops events fails instead of reporting.
pub const TRACE_CAPACITY: usize = 1 << 26;

/// How a repetition is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: the run end-to-end metrics come from.
    Plain,
    /// obskit tracer on, spans recorded, history checked.
    Traced,
    /// Traced, with the validation-skip fraud seeded on every primary.
    Fraud,
}

impl Mode {
    /// The `--rep` argument naming this mode.
    pub fn arg(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Fraud => "fraud",
        }
    }
}

/// Every deterministic count one repetition produces: summed over all
/// replicas and clients, as deltas across the measured window.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Counts {
    /// Wrapper-side attempts, commits, failures, abandonments.
    pub tally: Tally,
    /// Driver-side counters (`TxnStats`): commits, aborts, timeouts,
    /// abandoned.
    pub driver: [u64; 4],
    /// Executor polls.
    pub polls: u64,
    /// Messages sent, delivered, dropped.
    pub net: [u64; 3],
    /// `TxnServer::stats` summed: gets, prepares_ok, prepares_aborted,
    /// commits, aborts, replica_reads, too_stale.
    pub server: [u64; 7],
    /// `TxnClient::stats` summed: commits, aborts, local_validations,
    /// unknown, replica_reads, cached_reads.
    pub client: [u64; 6],
    /// `Backend::stats` summed: gets, puts, pages_read, pages_written,
    /// gc_collections, gc_relocated, versions_pruned.
    pub store: [u64; 7],
    /// Registry counters, summed over every name matching a row of
    /// [`REGISTRY`], in its order.
    pub registry: [u64; 10],
}

/// Registry counters read into [`Counts::registry`]: (prefix, suffix) of
/// the per-node / per-client / per-batcher metric names.
const REGISTRY: [(&str, &str); 10] = [
    ("milana.node", ".repl_records"),
    ("milana.node", ".repl_envelopes"),
    ("milana.client", ".coord_items"),
    ("milana.client", ".coord_envelopes"),
    ("batchkit.", ".flush_size"),
    ("batchkit.", ".flush_deadline"),
    ("batchkit.", ".flush_manual"),
    ("loadkit.client", ".retries"),
    ("loadkit.node", ".sheds_overload"),
    ("loadkit.node", ".sheds_deadline"),
];

fn add<const N: usize>(acc: &mut [u64; N], values: [u64; N]) {
    for (a, v) in acc.iter_mut().zip(values) {
        *a += v;
    }
}

impl Counts {
    fn read(cluster: &MilanaCluster, h: &SimHandle, rec: &Recorder, obs: &Obs) -> Counts {
        let net = h.net_stats();
        let mut c = Counts {
            tally: rec.tally(),
            polls: h.polls(),
            net: [net.sent, net.delivered, net.dropped],
            ..Counts::default()
        };
        for slot in cluster.replicas.iter().flatten() {
            let s: TxnServerStats = slot.server.stats();
            add(
                &mut c.server,
                [
                    s.gets,
                    s.prepares_ok,
                    s.prepares_aborted,
                    s.commits,
                    s.aborts,
                    s.replica_reads,
                    s.too_stale,
                ],
            );
            let st: StoreStats = slot.server.backend().stats();
            add(
                &mut c.store,
                [
                    st.gets,
                    st.puts,
                    st.pages_read,
                    st.pages_written,
                    st.gc_collections,
                    st.gc_relocated,
                    st.versions_pruned,
                ],
            );
        }
        for client in &cluster.clients {
            let s: TxnClientStats = client.stats();
            add(
                &mut c.client,
                [
                    s.commits,
                    s.aborts,
                    s.local_validations,
                    s.unknown,
                    s.replica_reads,
                    s.cached_reads,
                ],
            );
        }
        let Json::Obj(fields) = obs.registry.snapshot() else {
            unreachable!("registry snapshots are objects")
        };
        for (name, value) in fields {
            let Json::U64(v) = value else { continue };
            let row = REGISTRY
                .iter()
                .position(|(pre, suf)| name.starts_with(pre) && name.ends_with(suf));
            if let Some(row) = row {
                c.registry[row] += v;
            }
        }
        c
    }

    /// Every count in a fixed order, for [`Summary::to_line`].
    fn numbers(&self) -> Vec<u64> {
        let t = &self.tally;
        let mut v = vec![t.attempts, t.commits, t.failed, t.abandoned];
        v.extend(self.driver);
        v.push(self.polls);
        v.extend(self.net);
        v.extend(self.server);
        v.extend(self.client);
        v.extend(self.store);
        v.extend(self.registry);
        v
    }

    /// Inverse of [`Counts::numbers`].
    fn from_numbers(v: &[u64]) -> Option<Counts> {
        fn take<const N: usize>(v: &mut &[u64]) -> Option<[u64; N]> {
            let (head, rest) = v.split_at_checked(N)?;
            *v = rest;
            head.try_into().ok()
        }
        let mut v = v;
        let [attempts, commits, failed, abandoned] = take(&mut v)?;
        let c = Counts {
            tally: Tally {
                attempts,
                commits,
                failed,
                abandoned,
            },
            driver: take(&mut v)?,
            polls: take::<1>(&mut v)?[0],
            net: take(&mut v)?,
            server: take(&mut v)?,
            client: take(&mut v)?,
            store: take(&mut v)?,
            registry: take(&mut v)?,
        };
        v.is_empty().then_some(c)
    }

    fn since(&self, before: &Counts) -> Counts {
        fn sub<const N: usize>(a: [u64; N], b: [u64; N]) -> [u64; N] {
            std::array::from_fn(|i| a[i] - b[i])
        }
        Counts {
            tally: self.tally.clone(),
            driver: self.driver,
            polls: self.polls - before.polls,
            net: sub(self.net, before.net),
            server: sub(self.server, before.server),
            client: sub(self.client, before.client),
            store: sub(self.store, before.store),
            registry: sub(self.registry, before.registry),
        }
    }
}

/// What one repetition measured.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds for `MilanaCluster::build` plus the preload.
    pub setup_s: f64,
    /// Host seconds of the measured window.
    pub run_s: f64,
    /// Virtual length of the measured window.
    pub window: Duration,
    /// Virtual time the measured window opened, ns.
    pub window_start_ns: u64,
    /// Allocations and bytes requested in the window; zero unless the
    /// binary registers perfkit's counting allocator.
    pub allocs: (u64, u64),
    /// Window counts (deterministic).
    pub counts: Counts,
    /// Exact first-begin-to-commit latencies, virtual ns, sorted.
    pub latencies: Vec<u64>,
    /// Mean live versions per key over the primaries after the window.
    pub versions_per_key: f64,
    /// Checker violations (0 when untraced).
    pub violations: u64,
    /// The first few violations, described (traced modes only).
    pub violation_notes: Vec<String>,
    /// Trace events recorded (traced modes only).
    pub trace_events: u64,
    /// Spans recorded (traced modes only).
    pub spans: Vec<Span>,
}

impl Rep {
    /// A digest of everything that must repeat exactly for a seed.
    pub fn fingerprint(&self) -> String {
        use std::hash::{Hash, Hasher};
        let mut h = perfkit::FxHasher::default();
        self.counts.hash(&mut h);
        self.latencies.hash(&mut h);
        self.versions_per_key.to_bits().hash(&mut h);
        format!("{:016x}", h.finish())
    }
}

/// Mean versions per key over the shard primaries, sampling at most
/// 4096 keys per primary at a fixed stride.
fn versions_per_key(cluster: &MilanaCluster, keyspace: u64) -> f64 {
    let stride = (keyspace / 4096).max(1);
    let (mut total, mut keys) = (0u64, 0u64);
    for shard in &cluster.replicas {
        let backend: &Backend = shard[0].server.backend();
        let mut k = 0;
        while k < keyspace {
            let n = backend.versions(&Key::from(k)).len() as u64;
            if n > 0 {
                total += n;
                keys += 1;
            }
            k += stride;
        }
    }
    total as f64 / keys.max(1) as f64
}

/// Runs one repetition of `w` at `seed`.
///
/// # Panics
///
/// Panics when the benchmark's own accounting breaks: the wrapper and the
/// driver disagree on attempts, or a traced run dropped trace events.
pub fn run(w: &Workload, seed: u64, mode: Mode) -> Rep {
    let traced = mode != Mode::Plain;
    let obs = if traced {
        Obs::with_trace(TRACE_CAPACITY)
    } else {
        Obs::new()
    };
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let t0 = Instant::now();
    let cluster = MilanaCluster::build(&h, w.cluster(obs.clone(), mode == Mode::Fraud));
    let setup_s = t0.elapsed().as_secs_f64();

    let rec = Recorder::new(&h, cluster.clients.len(), w.retwis.max_retries, traced);
    let clients = Tracked::wrap_all(&cluster.clients, &rec);
    run_retwis_generic(
        &mut sim,
        &clients,
        w.retwis.clone(),
        1,
        w.warmup,
        Duration::ZERO,
    );
    rec.reset_window();
    let before = Counts::read(&cluster, &h, &rec, &obs);

    let window_start_ns = h.now().as_nanos();
    let a0 = AllocCounts::now();
    let t1 = Instant::now();
    let (stats, window) = run_retwis_generic(
        &mut sim,
        &clients,
        w.retwis.clone(),
        1,
        Duration::ZERO,
        w.measure,
    );
    let run_s = t1.elapsed().as_secs_f64();
    let a = AllocCounts::now().since(&a0);

    let mut after = Counts::read(&cluster, &h, &rec, &obs);
    after.driver = [
        stats.commits.get(),
        stats.aborts.get(),
        stats.timeouts.get(),
        stats.abandoned.get(),
    ];
    let counts = after.since(&before);
    let t = &counts.tally;
    assert_eq!(
        t.attempts,
        counts.driver[0] + counts.driver[1] + counts.driver[2],
        "wrapper attempts != driver commits + aborts + timeouts"
    );
    assert_eq!(
        t.commits, counts.driver[0],
        "wrapper and driver commits differ"
    );
    assert_eq!(
        t.abandoned, counts.driver[3],
        "wrapper and driver abandonments differ"
    );
    assert_eq!(
        t.attempts,
        t.commits + t.failed,
        "attempt without an outcome"
    );

    let mut latencies = rec.latencies();
    latencies.sort_unstable();
    let versions_per_key = versions_per_key(&cluster, w.retwis.keyspace);

    let (violations, trace_events, violation_notes) = if traced {
        let dropped = obs.tracer.dropped();
        assert_eq!(
            dropped, 0,
            "trace ring dropped {dropped} events; raise TRACE_CAPACITY"
        );
        let events = obs.tracer.events();
        let n = events.len() as u64;
        let history = History::from_events(events, dropped);
        let found = Checker::new(&history).check();
        let notes = found
            .iter()
            .take(3)
            .map(|v| format!("{}: {}", v.class.as_str(), v.description))
            .collect();
        (found.len() as u64, n, notes)
    } else {
        (0, 0, Vec::new())
    };
    let spans = rec.take_spans();
    drop(clients);
    drop(cluster);
    Rep {
        setup_s,
        run_s,
        window,
        window_start_ns,
        allocs: (a.allocations, a.bytes),
        counts,
        latencies,
        versions_per_key,
        violations,
        violation_notes,
        trace_events,
        spans,
    }
}

/// Exact nearest-rank quantile of sorted samples (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Count, median and 99th percentile of sorted samples.
fn spread(sorted: &[u64]) -> [u64; 3] {
    [
        sorted.len() as u64,
        quantile(sorted, 0.5),
        quantile(sorted, 0.99),
    ]
}

/// What one repetition process reports to its parent, as one line of
/// text: everything the metrics need, nothing per transaction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// [`Rep::fingerprint`].
    pub fingerprint: String,
    /// [`Rep::setup_s`].
    pub setup_s: f64,
    /// [`Rep::run_s`].
    pub run_s: f64,
    /// Virtual window length, ns.
    pub window_ns: u64,
    /// [`Rep::counts`].
    pub counts: Counts,
    /// Commit latency (first begin to commit): samples, p50, p99 in ns.
    pub latency_ns: [u64; 3],
    /// `milana.get` span durations in the window: count, p50, p99 in ns.
    pub get_span_ns: [u64; 3],
    /// `milana.commit` span durations in the window: count, p50, p99.
    pub commit_span_ns: [u64; 3],
    /// [`Rep::versions_per_key`].
    pub versions_per_key: f64,
    /// Checker violations (0 when untraced).
    pub violations: u64,
    /// Trace events the checker read.
    pub trace_events: u64,
    /// [`Rep::allocs`].
    pub allocs: [u64; 2],
    /// Peak resident bytes of the repetition's process.
    pub peak_rss: u64,
}

impl Summary {
    /// Summarises `rep`, run in a process that peaked at `peak_rss` bytes.
    pub fn of(rep: &Rep, peak_rss: u64) -> Summary {
        let spans = |kind: SpanKind| {
            let mut d: Vec<u64> = rep
                .spans
                .iter()
                .filter(|s| s.kind == kind && s.v_start >= rep.window_start_ns)
                .map(|s| s.v_end - s.v_start)
                .collect();
            d.sort_unstable();
            spread(&d)
        };
        Summary {
            fingerprint: rep.fingerprint(),
            setup_s: rep.setup_s,
            run_s: rep.run_s,
            window_ns: rep.window.as_nanos() as u64,
            counts: rep.counts.clone(),
            latency_ns: spread(&rep.latencies),
            get_span_ns: spans(SpanKind::Get),
            commit_span_ns: spans(SpanKind::Commit),
            versions_per_key: rep.versions_per_key,
            violations: rep.violations,
            trace_events: rep.trace_events,
            allocs: [rep.allocs.0, rep.allocs.1],
            peak_rss,
        }
    }

    /// Commits in the window.
    pub fn commits(&self) -> u64 {
        self.counts.tally.commits
    }

    /// `rep <fingerprint> <floats> <integers>`: floats in shortest
    /// round-trip form, so parsing gives back the same values.
    pub fn to_line(&self) -> String {
        let mut ints = vec![self.window_ns];
        ints.extend(self.latency_ns);
        ints.extend(self.get_span_ns);
        ints.extend(self.commit_span_ns);
        ints.extend([self.violations, self.trace_events]);
        ints.extend(self.allocs);
        ints.push(self.peak_rss);
        ints.extend(self.counts.numbers());
        let ints: Vec<String> = ints.iter().map(u64::to_string).collect();
        format!(
            "rep {} {:?} {:?} {:?} {}",
            self.fingerprint,
            self.setup_s,
            self.run_s,
            self.versions_per_key,
            ints.join(" ")
        )
    }

    /// Parses [`Summary::to_line`] output.
    pub fn parse(line: &str) -> Option<Summary> {
        let mut f = line.split_whitespace();
        if f.next()? != "rep" {
            return None;
        }
        let fingerprint = f.next()?.to_string();
        let setup_s = f.next()?.parse().ok()?;
        let run_s = f.next()?.parse().ok()?;
        let versions_per_key = f.next()?.parse().ok()?;
        let ints: Vec<u64> = f.map(str::parse).collect::<Result<_, _>>().ok()?;
        let (head, counts) = ints.split_at_checked(15)?;
        let three = |i: usize| [head[i], head[i + 1], head[i + 2]];
        Some(Summary {
            fingerprint,
            setup_s,
            run_s,
            window_ns: head[0],
            counts: Counts::from_numbers(counts)?,
            latency_ns: three(1),
            get_span_ns: three(4),
            commit_span_ns: three(7),
            versions_per_key,
            violations: head[10],
            trace_events: head[11],
            allocs: [head[12], head[13]],
            peak_rss: head[14],
        })
    }
}
