//! Layer probes: host nanoseconds per call into one layer's public
//! functions, measured from outside the program.
//!
//! Each probe is fed by the workload's own generator: keys come from the
//! workload's Zipf over its keyspace, read and write set sizes from its
//! mix, and stores are loaded with one replica's share of its keyspace on
//! its backend and device geometry.

use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use batchkit::{BatchConfig, Batcher};
use flashsim::{value, Backend, Key, NandDevice, PhysLoc};
use milana::msg::{TxnId, TxnRecord, TxnStatus};
use milana::table::TxnTable;
use obskit::{Registry, TraceEvent, Tracer};
use perfkit::FastMap;
use rand::rngs::StdRng;
use rand::SeedableRng;
use semel::shard::ShardId;
use simkit::net::{Addr, NodeId};
use simkit::rng::Zipf;
use simkit::rpc::{recv_request, RpcClient};
use simkit::Sim;
use timesync::{ClientId, Timestamp, Version};

use crate::workload::{Workload, CLIENTS, SHARDS};

/// Host ns per operation of `ops` operations taking `elapsed`.
fn per_op(elapsed: Duration, ops: u64) -> f64 {
    elapsed.as_nanos() as f64 / ops.max(1) as f64
}

/// Resident set size of this process, bytes (0 where unavailable).
fn rss_bytes() -> u64 {
    status_kb("VmRSS:") * 1024
}

/// Peak resident set size of this process, bytes (0 where unavailable).
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM:") * 1024
}

fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// The workload's key generator.
struct Keys {
    zipf: Zipf,
    rng: StdRng,
}

impl Keys {
    fn new(w: &Workload, range: u64, seed: u64) -> Keys {
        Keys {
            zipf: Zipf::new(range as usize, w.retwis.zipf_alpha),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn next(&mut self) -> u64 {
        self.zipf.sample(&mut self.rng) as u64
    }

    /// `n` distinct keys, as the Retwis driver draws a transaction's key set.
    fn set(&mut self, n: u32) -> Vec<Key> {
        let mut ids: Vec<u64> = Vec::with_capacity(n as usize);
        while ids.len() < n as usize {
            let id = self.next();
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids.into_iter().map(Key::from).collect()
    }

    /// A transaction shape drawn from the workload's mix.
    fn shape(&mut self, w: &Workload) -> (u32, u32) {
        let t = w.retwis.mix.sample(&mut self.rng);
        (t.gets.sample(&mut self.rng), t.puts)
    }
}

fn version(ts: u64) -> Version {
    Version::new(Timestamp(ts), ClientId(0))
}

/// Every probe's result, host ns per operation unless noted.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// Spawn a task and await its join handle.
    pub spawn_join_ns: f64,
    /// One timer sleep and wake, 16 sleepers interleaved.
    pub sleep_wake_ns: f64,
    /// One RPC call and reply, 16 callers on their own nodes.
    pub rpc_round_trip_ns: f64,
    /// One `Batcher::submit` through its flush, 16 submitters.
    pub batch_submit_ns: f64,
    /// One `TxnTable::validate` on a mix-shaped read/write set.
    pub validate_ns: f64,
    /// One `TxnTable::prepare` plus `decide`.
    pub prepare_decide_ns: f64,
    /// One `Backend::versions` index lookup.
    pub index_lookup_ns: f64,
    /// One `Backend::get_at` snapshot read, driven through the simulator.
    pub index_get_at_ns: f64,
    /// `bulk_load` plus `finish_load`, per key.
    pub load_ns_per_key: f64,
    /// One NAND page read.
    pub nand_read_ns: f64,
    /// One NAND page program.
    pub nand_program_ns: f64,
    /// One DRAM store operation (alternating put and snapshot read).
    pub dram_op_ns: f64,
    /// One registry `Counter::inc`.
    pub counter_add_ns: f64,
    /// One registry histogram record.
    pub hist_record_ns: f64,
    /// One `Tracer::record`.
    pub trace_record_ns: f64,
}

/// Runs every probe for `w`.
pub fn run_all(w: &Workload, seed: u64) -> Probes {
    let (load_ns_per_key, index_lookup_ns, index_get_at_ns) = index(w, seed);
    let (nand_read_ns, nand_program_ns) = nand(w, seed);
    let (validate_ns, prepare_decide_ns) = table(w, seed);
    let (counter_add_ns, hist_record_ns, trace_record_ns) = obs(w, seed);
    Probes {
        spawn_join_ns: spawn_join(seed),
        sleep_wake_ns: sleep_wake(seed),
        rpc_round_trip_ns: rpc_round_trip(seed),
        batch_submit_ns: batch_submit(seed),
        validate_ns,
        prepare_decide_ns,
        index_lookup_ns,
        index_get_at_ns,
        load_ns_per_key,
        nand_read_ns,
        nand_program_ns,
        dram_op_ns: dram(w, seed),
        counter_add_ns,
        hist_record_ns,
        trace_record_ns,
    }
}

fn spawn_join(seed: u64) -> f64 {
    const N: u64 = 200_000;
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let t = Instant::now();
    let sum = sim.block_on(async move {
        let mut sum = 0u64;
        for i in 0..N {
            sum = sum.wrapping_add(h.spawn(async move { i }).await);
        }
        sum
    });
    black_box(sum);
    per_op(t.elapsed(), N)
}

fn sleep_wake(seed: u64) -> f64 {
    const PER_TASK: u64 = 20_000;
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let t = Instant::now();
    let tasks: Vec<_> = (0..CLIENTS as u64)
        .map(|c| {
            let h2 = h.clone();
            h.spawn(async move {
                for i in 0..PER_TASK {
                    h2.sleep(Duration::from_nanos(1_000 + (c * 37 + i) % 500))
                        .await;
                }
            })
        })
        .collect();
    sim.block_on(async move {
        for j in tasks {
            j.await;
        }
    });
    per_op(t.elapsed(), PER_TASK * CLIENTS as u64)
}

fn rpc_round_trip(seed: u64) -> f64 {
    const PER_TASK: u64 = 5_000;
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let server = Addr::new(NodeId(1), 0);
    let mailbox = h.bind(server);
    let h2 = h.clone();
    h.spawn_on(NodeId(1), async move {
        while let Some((req, _, resp)) = recv_request::<u64>(&h2, &mailbox).await {
            resp.reply(req.wrapping_add(1));
        }
    });
    let t = Instant::now();
    let callers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let client = RpcClient::new(&h, NodeId(10 + c), 40);
            h.spawn(async move {
                let mut sum = 0u64;
                for i in 0..PER_TASK {
                    let r: u64 = client
                        .call(server, i, Duration::from_millis(50))
                        .await
                        .expect("echo server answers");
                    sum = sum.wrapping_add(r);
                }
                sum
            })
        })
        .collect();
    let sum = sim.block_on(async move {
        let mut sum = 0u64;
        for j in callers {
            sum = sum.wrapping_add(j.await);
        }
        sum
    });
    black_box(sum);
    per_op(t.elapsed(), PER_TASK * CLIENTS as u64)
}

fn batch_submit(seed: u64) -> f64 {
    const PER_TASK: u64 = 10_000;
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let batcher: Batcher<u64, u64> = Batcher::new(
        &h,
        NodeId(0),
        "probe",
        BatchConfig::default(),
        obskit::Obs::new(),
        |batch: Vec<u64>| async move { batch.into_iter().map(|x| x ^ 1).collect() },
    );
    let t = Instant::now();
    let tasks: Vec<_> = (0..CLIENTS as u64)
        .map(|c| {
            let b = batcher.clone();
            h.spawn(async move {
                let mut sum = 0u64;
                for i in 0..PER_TASK {
                    sum = sum.wrapping_add(b.submit(c * PER_TASK + i).await.unwrap_or(0));
                }
                sum
            })
        })
        .collect();
    let sum = sim.block_on(async move {
        let mut sum = 0u64;
        for j in tasks {
            sum = sum.wrapping_add(j.await);
        }
        sum
    });
    black_box(sum);
    per_op(t.elapsed(), PER_TASK * CLIENTS as u64)
}

/// A transaction's read set (keys with the versions read) and write set.
type Shape = (Vec<(Key, Version)>, Vec<Key>);

/// Validation and prepare/decide against a table holding one prepared
/// transaction per client and read marks on the workload's hot keys.
fn table(w: &Workload, seed: u64) -> (f64, f64) {
    const SETS: usize = 4096;
    const VALIDATES: u64 = 400_000;
    let keyspace = w.retwis.keyspace;
    let mut keys = Keys::new(w, keyspace, seed);
    let payload = value(vec![0u8; w.retwis.value_size]);
    let record = |seq: u64, ts: u64, writes: Vec<Key>| TxnRecord {
        txid: TxnId {
            client: ClientId(1),
            seq,
        },
        ts_commit: Timestamp(ts),
        writes: writes
            .into_iter()
            .map(|k| (k, payload.clone()))
            .collect::<Vec<_>>()
            .into(),
        participants: vec![ShardId(0)].into(),
        status: TxnStatus::Prepared,
    };
    let committed: FastMap<Key, Version> = (0..keyspace)
        .map(|i| (Key::from(i), version(100 + i % 50)))
        .collect();
    let shapes: Vec<Shape> = (0..SETS)
        .map(|_| {
            let (gets, puts) = keys.shape(w);
            let mut all = keys.set(gets + puts);
            let writes = all.split_off(gets as usize);
            let reads = all
                .into_iter()
                .map(|k| {
                    let v = committed[&k];
                    (k, v)
                })
                .collect();
            (reads, writes)
        })
        .collect();

    let mut table = TxnTable::new();
    let mut held = perfkit::FastSet::default();
    let writers = shapes.iter().filter(|s| !s.1.is_empty());
    for (seq, (_, writes)) in (0u64..).zip(writers.take(CLIENTS as usize)) {
        // A key can be held by one prepared transaction only.
        let free: Vec<Key> = writes
            .iter()
            .filter(|k| held.insert((*k).clone()))
            .cloned()
            .collect();
        table.prepare(record(seq, 10_000 + seq, free));
    }
    for _ in 0..SETS {
        table.note_read(&Key::from(keys.next()), Timestamp(5_000));
    }
    let t = Instant::now();
    let mut ok = 0u64;
    for i in 0..VALIDATES {
        let (reads, writes) = &shapes[i as usize % SETS];
        let v = table.validate(reads, writes, Timestamp(20_000 + i), |k| {
            committed.get(k).copied()
        });
        ok += v.is_success() as u64;
    }
    let validate_ns = per_op(t.elapsed(), VALIDATES);
    black_box(ok);

    let writers: Vec<&Vec<Key>> = shapes
        .iter()
        .map(|s| &s.1)
        .filter(|w| !w.is_empty())
        .collect();
    let n = (VALIDATES / 4).max(1);
    let prepared: Vec<TxnRecord> = (0..n)
        .map(|i| {
            record(
                1_000_000 + i,
                30_000 + i,
                writers[i as usize % writers.len()].clone(),
            )
        })
        .collect();
    let mut fresh = TxnTable::new();
    let t = Instant::now();
    for (i, r) in prepared.into_iter().enumerate() {
        let txid = r.txid;
        fresh.prepare(r);
        black_box(fresh.decide(txid, i % 4 != 0));
    }
    (validate_ns, per_op(t.elapsed(), n))
}

/// A fresh store of the workload's backend holding one replica's share
/// of its keyspace at the preload version.
fn loaded_store(w: &Workload, h: &simkit::SimHandle) -> Backend {
    let payload = value(vec![0u8; w.retwis.value_size]);
    let backend = Backend::new(w.backend, h, w.nand());
    for k in 0..w.retwis.keyspace / SHARDS as u64 {
        backend.bulk_load(Key::from(k), payload.clone(), version(1));
    }
    backend.finish_load();
    backend
}

/// Resident bytes per key of a freshly loaded store. Meaningful only in
/// a process whose heap has not yet grown, so the allocation-counting
/// binary measures it before it runs anything else.
pub fn rss_bytes_per_key(w: &Workload, seed: u64) -> f64 {
    let sim = Sim::new(seed);
    let before = rss_bytes();
    let store = loaded_store(w, &sim.handle());
    let grown = rss_bytes().saturating_sub(before);
    drop(store);
    grown as f64 / (w.retwis.keyspace / SHARDS as u64) as f64
}

/// Loads one replica's share of the keyspace into a fresh store of the
/// workload's backend, then times index lookups and snapshot reads.
fn index(w: &Workload, seed: u64) -> (f64, f64, f64) {
    const LOOKUPS: u64 = 400_000;
    const READS: u64 = 100_000;
    let share = w.retwis.keyspace / SHARDS as u64;
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let t = Instant::now();
    let backend = loaded_store(w, &h);
    let load_ns_per_key = per_op(t.elapsed(), share);

    let mut keys = Keys::new(w, share, seed);
    let probe_keys: Vec<Key> = (0..4096).map(|_| Key::from(keys.next())).collect();
    let t = Instant::now();
    let mut found = 0usize;
    for i in 0..LOOKUPS {
        found += backend
            .versions(&probe_keys[i as usize % probe_keys.len()])
            .len();
    }
    let lookup_ns = per_op(t.elapsed(), LOOKUPS);
    black_box(found);

    let b = backend.clone();
    let t = Instant::now();
    let sum = sim.block_on(async move {
        let mut sum = 0u64;
        for i in 0..READS {
            let k = &probe_keys[i as usize % probe_keys.len()];
            if let Ok(vv) = b.get_at(k, Timestamp(1_000)).await {
                sum = sum.wrapping_add(vv.version.ts.0);
            }
        }
        sum
    });
    assert_eq!(
        sum, READS,
        "every preloaded key reads back at its load version"
    );
    (load_ns_per_key, lookup_ns, per_op(t.elapsed(), READS))
}

/// Raw NAND programs then reads over the workload's device geometry.
fn nand(w: &Workload, seed: u64) -> (f64, f64) {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let cfg = w.nand();
    let pages_per_block = cfg.pages_per_block;
    let dev: Rc<NandDevice<u64>> = Rc::new(NandDevice::new(h.clone(), cfg));
    let blocks: Vec<u32> = std::iter::from_fn(|| dev.alloc_block()).take(64).collect();
    let locs: Vec<PhysLoc> = blocks
        .iter()
        .flat_map(|&block| (0..pages_per_block).map(move |page| PhysLoc { block, page }))
        .collect();
    let n = locs.len() as u64;
    let (d, l) = (dev.clone(), locs.clone());
    let t = Instant::now();
    sim.block_on(async move {
        for (i, loc) in l.into_iter().enumerate() {
            d.program(loc, i as u64).await.expect("fresh page programs");
        }
    });
    let program_ns = per_op(t.elapsed(), n);
    const READS: u64 = 100_000;
    let t = Instant::now();
    let sum = sim.block_on(async move {
        let mut sum = 0u64;
        for i in 0..READS {
            sum = sum.wrapping_add(dev.read(locs[i as usize % locs.len()]).await.unwrap_or(0));
        }
        sum
    });
    black_box(sum);
    (per_op(t.elapsed(), READS), program_ns)
}

/// Alternating versioned puts and snapshot reads on a loaded DRAM store.
fn dram(w: &Workload, seed: u64) -> f64 {
    const OPS: u64 = 200_000;
    let share = w.retwis.keyspace / SHARDS as u64;
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let backend = Backend::new(flashsim::BackendKind::Dram, &h, w.nand());
    let payload = value(vec![0u8; w.retwis.value_size]);
    for k in 0..share {
        backend.bulk_load(Key::from(k), payload.clone(), version(1));
    }
    backend.finish_load();
    let mut keys = Keys::new(w, share, seed);
    let ops: Vec<Key> = (0..OPS).map(|_| Key::from(keys.next())).collect();
    let t = Instant::now();
    let sum = sim.block_on(async move {
        let mut sum = 0u64;
        for (i, k) in ops.into_iter().enumerate() {
            if i % 2 == 0 {
                let _ = backend.put(k, payload.clone(), version(2 + i as u64)).await;
            } else if let Ok(vv) = backend.get_at(&k, Timestamp(u64::MAX >> 1)).await {
                sum = sum.wrapping_add(vv.version.ts.0);
            }
        }
        sum
    });
    black_box(sum);
    per_op(t.elapsed(), OPS)
}

/// Registry counter adds, histogram records of the workload's key ids,
/// and trace records of reads into a ring that wraps.
fn obs(w: &Workload, seed: u64) -> (f64, f64, f64) {
    const N: u64 = 1_000_000;
    let reg = Registry::new();
    let counter = reg.counter("probe.counter");
    let t = Instant::now();
    for _ in 0..N {
        black_box(&counter).inc();
    }
    let counter_ns = per_op(t.elapsed(), N);
    black_box(counter.get());

    let mut keys = Keys::new(w, w.retwis.keyspace, seed);
    let samples: Vec<u64> = (0..4096).map(|_| 1_000 + keys.next() * 977).collect();
    let hist = reg.histogram("probe.hist");
    let t = Instant::now();
    for i in 0..N {
        hist.record(samples[i as usize % samples.len()]);
    }
    let hist_ns = per_op(t.elapsed(), N);
    black_box(hist.count());

    let tracer = Tracer::bounded(1 << 16);
    let t = Instant::now();
    for i in 0..N {
        tracer.record(
            i,
            TraceEvent::TxnRead {
                client: i % CLIENTS as u64,
                key: samples[i as usize % samples.len()],
                prepared: false,
                ver_ts: i,
                ver_client: 0,
            },
        );
    }
    let trace_ns = per_op(t.elapsed(), N);
    black_box(tracer.len());
    (counter_ns, hist_ns, trace_ns)
}
