//! Turning repetitions and probes into named metrics, and printing them.
//!
//! The per-layer catalogue below is the single place that says which
//! end-to-end metric, on which workload, each layer metric should move.

use crate::micro::Probes;
use crate::rep::Summary;
use crate::workload::Workload;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Human-readable context (sample counts, what it should move).
    pub note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64, note: String) -> Metric {
    Metric {
        name,
        unit,
        value,
        note,
    }
}

/// Median of host-time samples.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// The six end-to-end metrics measured with tracing off. Host throughput
/// and set-up are medians over every repetition in `reps` (one process
/// each). Peak RSS, which a seed's memory use sets rather than host noise,
/// and the virtual-time figures, identical across repetitions of one seed,
/// are means over `per_seed`, one repetition per seed.
pub fn end_to_end(reps: &[Summary], per_seed: &[Summary]) -> Vec<Metric> {
    let mean =
        |f: &dyn Fn(&Summary) -> f64| per_seed.iter().map(f).sum::<f64>() / per_seed.len() as f64;
    let samples: u64 = per_seed.iter().map(|r| r.latency_ns[0]).sum();
    let beyond_p99: u64 = per_seed
        .iter()
        .map(|r| r.latency_ns[0] - (0.99 * r.latency_ns[0] as f64).ceil() as u64)
        .sum();
    let seeds = per_seed.len();
    vec![
        metric(
            "host_commits_per_s",
            "1/s",
            median(reps.iter().map(|r| r.commits() as f64 / r.run_s).collect()),
            format!("median of {} repetitions", reps.len()),
        ),
        metric(
            "setup_s",
            "s",
            median(reps.iter().map(|r| r.setup_s).collect()),
            format!("median of {} builds with preload", reps.len()),
        ),
        metric(
            "peak_rss_mb",
            "MB",
            mean(&|r| r.peak_rss as f64 / 1e6),
            format!("mean over {seeds} seeds, one process each"),
        ),
        metric(
            "goodput_tps",
            "1/s",
            mean(&|r| r.commits() as f64 * 1e9 / r.window_ns as f64),
            format!("mean over {seeds} seeds"),
        ),
        metric(
            "commit_p50_us",
            "us",
            mean(&|r| r.latency_ns[1] as f64 / 1e3),
            format!("mean over {seeds} seeds of {samples} samples"),
        ),
        metric(
            "commit_p99_us",
            "us",
            mean(&|r| r.latency_ns[2] as f64 / 1e3),
            format!("mean over {seeds} seeds of {samples} samples, {beyond_p99} beyond"),
        ),
    ]
}

/// Abort rate and checker violations: the two end-to-end figures that can
/// read zero, so they are reported with the per-layer set of a traced run.
fn gate_metrics(plain: &Summary, traced: &Summary, fraud: &Summary) -> Vec<Metric> {
    let t = &plain.counts.tally;
    vec![
        metric(
            "abort_rate",
            "share",
            ratio(t.failed, t.attempts),
            format!("{} of {} attempts failed", t.failed, t.attempts),
        ),
        metric(
            "checker_violations",
            "count",
            traced.violations as f64,
            format!(
                "faultkit::Checker over {} trace events",
                traced.trace_events
            ),
        ),
        metric(
            "checker.fraud_violations",
            "count",
            fraud.violations as f64,
            "same run with ServerTuning::skip_validation set".into(),
        ),
    ]
}

/// Inputs of the per-layer set beyond the repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Extra<'a> {
    /// Layer probe timings.
    pub probes: &'a Probes,
    /// Resident bytes per key of a freshly loaded store.
    pub rss_bytes_per_key: f64,
    /// Allocations and bytes in the window, under the counting allocator.
    pub allocs: [u64; 2],
}

/// Every per-layer metric, with what each should move. `plain` is the
/// untraced repetition of the traced run, `traced` the same seed with
/// tracing on, `fraud` the same with validation skipped; `x.allocs`
/// comes from the counting-allocator repetition.
pub fn per_layer(
    w: &Workload,
    plain: &Summary,
    traced: &Summary,
    fraud: &Summary,
    x: Extra,
) -> Vec<Metric> {
    let c = &plain.counts;
    let p = x.probes;
    let commits = c.tally.commits;
    let per_commit = |v: u64| ratio(v, commits);
    let [gets, prepares_ok, prepares_aborted, _, _, replica_reads, too_stale] = c.server;
    let [st_gets, st_puts, pages_read, pages_written, gc_collections, gc_relocated, pruned] =
        c.store;
    let [repl_records, repl_envelopes, coord_items, coord_envelopes, f_size, f_deadline, f_manual, retries, sheds_overload, sheds_deadline] =
        c.registry;
    let sheds = sheds_overload + sheds_deadline;
    let reads = gets + replica_reads;
    let host_ns_per_commit = plain.run_s * 1e9 / commits.max(1) as f64;

    // Layer budget: each probe's cost times how often the window called
    // that layer, over the host time a commit took.
    let prepares = prepares_ok + prepares_aborted;
    let storage = if w.backend == flashsim::BackendKind::Dram {
        p.dram_op_ns * per_commit(st_gets + st_puts)
    } else {
        p.index_get_at_ns * per_commit(st_gets) + p.nand_program_ns * per_commit(pages_written)
    };
    let net = p.rpc_round_trip_ns * per_commit(c.net[0]) / 2.0;
    let batch = p.batch_submit_ns * per_commit(coord_items + repl_records);
    let table =
        p.validate_ns * per_commit(prepares) + p.prepare_decide_ns * per_commit(prepares_ok);
    let explained = net + batch + table + storage;
    let share = |ns: f64| ns / host_ns_per_commit;

    let [gets_n, get_p50, get_p99] = traced.get_span_ns;
    let [commits_n, commit_p50, commit_p99] = traced.commit_span_ns;
    let us = |ns: u64| ns as f64 / 1e3;
    let moves = |s: &str| s.to_string();
    let mut m = gate_metrics(plain, traced, fraud);
    m.extend([
        // simkit executor and timers.
        metric(
            "simkit.polls_per_commit",
            "1/commit",
            per_commit(c.polls),
            moves("host_commits_per_s on all workloads, most on hotkey_dram"),
        ),
        metric(
            "simkit.host_ns_per_poll",
            "ns",
            plain.run_s * 1e9 / c.polls.max(1) as f64,
            moves("host_commits_per_s on all workloads, most on hotkey_dram"),
        ),
        metric(
            "simkit.spawn_join_ns",
            "ns",
            p.spawn_join_ns,
            moves("host_commits_per_s on all workloads, most on hotkey_dram"),
        ),
        metric(
            "simkit.sleep_wake_ns",
            "ns",
            p.sleep_wake_ns,
            moves("host_commits_per_s on all workloads, most on hotkey_dram"),
        ),
        // simkit net and rpc.
        metric(
            "simkit.net.msgs_per_commit",
            "1/commit",
            per_commit(c.net[0]),
            moves("host_commits_per_s, mainly on hotkey_dram"),
        ),
        metric(
            "simkit.net.dropped",
            "count",
            c.net[2] as f64,
            moves("host_commits_per_s, mainly on hotkey_dram; 0 expected"),
        ),
        metric(
            "simkit.rpc.round_trip_ns",
            "ns",
            p.rpc_round_trip_ns,
            moves("host_commits_per_s, mainly on hotkey_dram"),
        ),
        // batchkit.
        metric(
            "batchkit.repl.records_per_envelope",
            "1/envelope",
            ratio(repl_records, repl_envelopes),
            moves("commit_p99_us and host_commits_per_s on retwis_mftl"),
        ),
        metric(
            "batchkit.coord.items_per_envelope",
            "1/envelope",
            ratio(coord_items, coord_envelopes),
            moves("commit_p99_us and host_commits_per_s on retwis_mftl"),
        ),
        metric(
            "batchkit.flush_deadline_share",
            "share",
            ratio(f_deadline, f_size + f_deadline + f_manual),
            moves("commit_p99_us on retwis_mftl, little on timeline_200k"),
        ),
        metric(
            "batchkit.submit_ns",
            "ns",
            p.batch_submit_ns,
            moves("host_commits_per_s on retwis_mftl, little on timeline_200k"),
        ),
        // milana.table.
        metric(
            "milana.table.validate_ns",
            "ns",
            p.validate_ns,
            moves("host_commits_per_s on hotkey_dram"),
        ),
        metric(
            "milana.table.prepare_decide_ns",
            "ns",
            p.prepare_decide_ns,
            moves("host_commits_per_s on hotkey_dram"),
        ),
        // milana.server.
        metric(
            "milana.server.prepares_per_commit",
            "1/commit",
            per_commit(prepares),
            moves("abort_rate and goodput_tps on hotkey_dram"),
        ),
        metric(
            "milana.server.prepare_ok_share",
            "share",
            ratio(prepares_ok, prepares),
            moves("abort_rate and goodput_tps on hotkey_dram"),
        ),
        metric(
            "milana.server.gets_per_commit",
            "1/commit",
            per_commit(reads),
            moves("abort_rate and goodput_tps on hotkey_dram"),
        ),
        // milana.client (virtual spans from the traced run).
        metric(
            "milana.client.get_us.p50",
            "us",
            us(get_p50),
            format!("{gets_n} spans; commit_p50_us"),
        ),
        metric(
            "milana.client.get_us.p99",
            "us",
            us(get_p99),
            format!("{gets_n} spans; commit_p99_us"),
        ),
        metric(
            "milana.client.commit_us.p50",
            "us",
            us(commit_p50),
            format!("{commits_n} spans; commit_p50_us"),
        ),
        metric(
            "milana.client.commit_us.p99",
            "us",
            us(commit_p99),
            format!("{commits_n} spans; commit_p99_us"),
        ),
        metric(
            "milana.client.attempts_per_commit",
            "1/commit",
            per_commit(c.tally.attempts),
            moves("commit_p50_us and commit_p99_us"),
        ),
        metric(
            "milana.client.local_validation_share",
            "share",
            per_commit(c.client[2]),
            moves("commit_p50_us on timeline_200k"),
        ),
        metric(
            "milana.client.error_share",
            "share",
            ratio(c.driver[2], c.tally.attempts),
            moves("abort_rate: attempts ending in a read or transport error; 0 expected"),
        ),
        // flashsim FTL index.
        metric(
            "flashsim.index.lookup_ns",
            "ns",
            p.index_lookup_ns,
            moves("host_commits_per_s on timeline_200k, no change on hotkey_dram"),
        ),
        metric(
            "flashsim.index.get_at_ns",
            "ns",
            p.index_get_at_ns,
            moves("host_commits_per_s on timeline_200k, no change on hotkey_dram"),
        ),
        metric(
            "flashsim.load_ns_per_key",
            "ns/key",
            p.load_ns_per_key,
            moves("setup_s on timeline_200k, no change on hotkey_dram"),
        ),
        metric(
            "flashsim.rss_bytes_per_key",
            "B/key",
            x.rss_bytes_per_key,
            moves("peak_rss_mb on timeline_200k, no change on hotkey_dram"),
        ),
        metric(
            "flashsim.versions_per_key",
            "1/key",
            plain.versions_per_key,
            moves("peak_rss_mb and host_commits_per_s on timeline_200k"),
        ),
        // flashsim storage and NAND.
        metric(
            "flashsim.gets_per_commit",
            "1/commit",
            per_commit(st_gets),
            moves("commit_p99_us and host_commits_per_s on retwis_mftl"),
        ),
        metric(
            "flashsim.puts_per_commit",
            "1/commit",
            per_commit(st_puts),
            moves("commit_p99_us and host_commits_per_s on retwis_mftl"),
        ),
        metric(
            "flashsim.pages_read_per_commit",
            "1/commit",
            per_commit(pages_read),
            moves("commit_p99_us and host_commits_per_s on retwis_mftl"),
        ),
        metric(
            "flashsim.pages_written_per_commit",
            "1/commit",
            per_commit(pages_written),
            moves("commit_p99_us and host_commits_per_s on retwis_mftl"),
        ),
        metric(
            "flashsim.gc_relocated_per_commit",
            "1/commit",
            per_commit(gc_relocated),
            moves("commit_p99_us and host_commits_per_s on retwis_mftl"),
        ),
        metric(
            "flashsim.versions_pruned_per_commit",
            "1/commit",
            per_commit(pruned),
            moves("commit_p99_us and host_commits_per_s on retwis_mftl"),
        ),
        metric(
            "flashsim.gc_collections",
            "count",
            gc_collections as f64,
            moves("commit_p99_us and host_commits_per_s on retwis_mftl"),
        ),
        metric(
            "flashsim.nand.read_ns",
            "ns",
            p.nand_read_ns,
            moves("host_commits_per_s on retwis_mftl"),
        ),
        metric(
            "flashsim.nand.program_ns",
            "ns",
            p.nand_program_ns,
            moves("host_commits_per_s on retwis_mftl"),
        ),
        // flashsim DRAM backend.
        metric(
            "flashsim.dram.op_ns",
            "ns",
            p.dram_op_ns,
            moves("host_commits_per_s on hotkey_dram"),
        ),
        // readkit.
        metric(
            "readkit.replica_read_share",
            "share",
            ratio(replica_reads, reads),
            moves("goodput_tps and commit_p50_us on timeline_200k"),
        ),
        metric(
            "readkit.too_stale_per_read",
            "1/read",
            ratio(too_stale, reads),
            moves("goodput_tps and commit_p50_us on timeline_200k"),
        ),
        metric(
            "readkit.cached_read_share",
            "share",
            ratio(c.client[5], reads + c.client[5]),
            moves("goodput_tps and commit_p50_us on timeline_200k"),
        ),
        // loadkit.
        metric(
            "loadkit.retries_per_commit",
            "1/commit",
            per_commit(retries),
            moves("guard on abort_rate; 0 expected"),
        ),
        metric(
            "loadkit.sheds",
            "count",
            sheds as f64,
            moves("guard on abort_rate; 0 expected"),
        ),
        // obskit.
        metric(
            "obskit.counter_add_ns",
            "ns",
            p.counter_add_ns,
            moves("host_commits_per_s on all workloads"),
        ),
        metric(
            "obskit.hist_record_ns",
            "ns",
            p.hist_record_ns,
            moves("host_commits_per_s on all workloads"),
        ),
        metric(
            "obskit.trace_record_ns",
            "ns",
            p.trace_record_ns,
            moves("host_commits_per_s on all workloads"),
        ),
        metric(
            "obskit.trace_overhead",
            "share",
            traced.run_s / plain.run_s - 1.0,
            format!(
                "traced {:.3} s vs untraced {:.3} s",
                traced.run_s, plain.run_s
            ),
        ),
        // perfkit counting allocator.
        metric(
            "alloc.allocs_per_commit",
            "1/commit",
            per_commit(x.allocs[0]),
            moves("host_commits_per_s and peak_rss_mb on all workloads"),
        ),
        metric(
            "alloc.bytes_per_commit",
            "B/commit",
            per_commit(x.allocs[1]),
            moves("host_commits_per_s and peak_rss_mb on all workloads"),
        ),
        // Layer budget.
        // Layer budget. The probes overlap (an RPC round trip includes
        // executor polls and timers), so the sum can exceed 1.
        metric(
            "attrib.probe_sum_share",
            "share",
            share(explained),
            format!(
                "{explained:.0} of {host_ns_per_commit:.0} host ns per commit explained by probes"
            ),
        ),
        metric(
            "attrib.net_share",
            "share",
            share(net),
            moves("rpc round trip x messages / 2, over host ns per commit"),
        ),
        metric(
            "attrib.batchkit_share",
            "share",
            share(batch),
            moves("batch submit x coordinator items and replication records"),
        ),
        metric(
            "attrib.table_share",
            "share",
            share(table),
            moves("validate x prepares + prepare/decide x successful prepares"),
        ),
        metric(
            "attrib.storage_share",
            "share",
            share(storage),
            moves("get_at x store gets + program x pages written (DRAM: op x gets and puts)"),
        ),
    ]);
    m
}

/// Prints `metrics` as aligned human-readable lines.
pub fn print_lines(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<40} {:>14.4} {:<10} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
