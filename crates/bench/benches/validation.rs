//! Criterion benches for the pure-CPU transaction machinery: Algorithm-1
//! validation, prepare/decide cycles, and version-chain visibility.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use flashsim::Key;
use milana::msg::{TxnId, TxnRecord, TxnStatus};
use milana::table::TxnTable;
use semel::shard::ShardId;
use timesync::{ClientId, Timestamp, Version};

fn table_with_keys(n: u64) -> TxnTable {
    let mut t = TxnTable::new();
    for i in 0..n {
        t.note_read(&Key::from(i), Timestamp(10));
    }
    t
}

fn bench_validate(c: &mut Criterion) {
    let table = table_with_keys(10_000);
    let reads: Vec<(Key, Version)> = (0..4u64)
        .map(|i| (Key::from(i), Version::new(Timestamp(5), ClientId(0))))
        .collect();
    let writes: Vec<Key> = (4..8u64).map(Key::from).collect();
    c.bench_function("validate_4r4w", |b| {
        b.iter(|| {
            std::hint::black_box(table.validate(&reads, &writes, Timestamp(20), |_| {
                Some(Version::new(Timestamp(5), ClientId(0)))
            }))
        })
    });
}

fn bench_prepare_decide(c: &mut Criterion) {
    c.bench_function("prepare_decide_cycle", |b| {
        let mut seq = 0u64;
        let mut table = TxnTable::new();
        b.iter(|| {
            seq += 1;
            let txid = TxnId {
                client: ClientId(1),
                seq,
            };
            table.prepare(TxnRecord {
                txid,
                ts_commit: Timestamp(seq),
                writes: vec![(Key::from(seq % 64), flashsim::value(&b"v"[..]))].into(),
                participants: vec![ShardId(0)].into(),
                status: TxnStatus::Prepared,
            });
            std::hint::black_box(table.decide(txid, true));
        })
    });
}

fn bench_note_read(c: &mut Criterion) {
    c.bench_function("note_read_hot_key", |b| {
        let mut table = table_with_keys(1);
        let key = Key::from(0u64);
        let mut ts = 100u64;
        b.iter(|| {
            ts += 1;
            std::hint::black_box(table.note_read(&key, Timestamp(ts)))
        })
    });
}

fn bench_shard_map(c: &mut Criterion) {
    let map = semel::shard::ShardMap::new(
        (0..16)
            .map(|i| semel::shard::ReplicaGroup {
                primary: simkit::net::Addr::new(simkit::net::NodeId(i), 0),
                backups: vec![],
            })
            .collect(),
    );
    c.bench_function("shard_for_key", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            std::hint::black_box(map.shard_for(&Key::from(i)))
        })
    });
}

fn bench_clock(c: &mut Criterion) {
    use timesync::{Discipline, SyncedClock};
    c.bench_function("synced_clock_now", |b| {
        let clock = SyncedClock::new(Discipline::Ntp, 7);
        let mut t = 0u64;
        b.iter(|| {
            t += 1000;
            std::hint::black_box(clock.now(simkit::SimTime::from_nanos(t)))
        })
    });
}

fn bench_zipf(c: &mut Criterion) {
    use rand::SeedableRng;
    let zipf = simkit::rng::Zipf::new(2_000_000, 0.8);
    c.bench_function("zipf_sample_2m", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        b.iter(|| std::hint::black_box(zipf.sample(&mut rng)))
    });
}

fn bench_histogram(c: &mut Criterion) {
    use obskit::hist::Histogram;
    c.bench_function("histogram_record", |b| {
        b.iter_batched(
            Histogram::new,
            |mut h| {
                for v in 0..1000u64 {
                    h.record(v * 997);
                }
                h
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_validate, bench_prepare_decide, bench_note_read,
              bench_shard_map, bench_clock, bench_zipf, bench_histogram
}
criterion_main!(benches);
