//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Every repetition runs in a process of its own (this binary with
//! `--rep MODE`), so each one starts from a fresh heap and its peak RSS is
//! its own: the simulator does not free a cluster's tasks when a run ends.
//!
//! A run with seed `N` simulates the workload under the workload's few
//! seeds derived from `N` ([`Workload::sub_seed`]).
//!
//! With `--trace 0`, cycles untraced repetitions through the derived seeds
//! until `S` host seconds are used (every seed once, one at least twice)
//! and reports the end-to-end metrics. With `--trace 1`, runs the first
//! derived seed untraced, traced, traced with the validation-skip fraud,
//! and under the counting allocator, then the layer probes in this
//! process, and reports the per-layer metrics. The traced repetition
//! writes its spans to `.bench_out/`. The last line of standard output is
//! the JSON result; everything above it is for people.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use perfbench::micro;
use perfbench::rep::{self, Mode, Summary};
use perfbench::report::{self, Extra};
use perfbench::track::write_spans;
use perfbench::workload::{Workload, CLIENTS, NAMES, REPLICAS, SHARDS};
use perfbench::Args;

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| fail(&e));
    let Some(w) = Workload::named(&args.workload) else {
        fail(&format!(
            "unknown workload {} (one of {})",
            args.workload,
            NAMES.join(", ")
        ))
    };
    if let Some(mode) = args.rep {
        return repetition(&w, args.seed, mode);
    }
    println!(
        "perfbench {} seed {}: {SHARDS} shards x {REPLICAS} replicas, {CLIENTS} clients, \
         window {:?} after {:?} warm-up",
        w.name, args.seed, w.measure, w.warmup
    );
    if args.trace {
        traced(&w, &args);
    } else {
        untraced(&w, &args);
    }
}

/// Child side: one repetition, its summary line on stdout.
fn repetition(w: &Workload, seed: u64, mode: Mode) {
    let r = rep::run(w, seed, mode);
    if mode == Mode::Traced {
        let path = PathBuf::from(".bench_out").join(format!("spans-{}-{seed}.jsonl", w.name));
        write_spans(&r.spans, &path)
            .unwrap_or_else(|e| fail(&format!("writing {}: {e}", path.display())));
        eprintln!("wrote {} spans to {}", r.spans.len(), path.display());
    }
    for note in &r.violation_notes {
        println!("violation {note}");
    }
    println!("{}", Summary::of(&r, micro::peak_rss_bytes()).to_line());
}

/// Parent side: runs `exe` (this binary, or the counting-allocator one)
/// for one repetition and parses its summary line. Violation notes the
/// repetition printed are passed on.
fn spawn_rep(exe: &str, args: &Args, seed: u64, mode: Mode) -> Summary {
    let path = std::env::current_exe()
        .unwrap_or_else(|e| fail(&format!("locating myself: {e}")))
        .with_file_name(format!("{exe}{}", std::env::consts::EXE_SUFFIX));
    let out = Command::new(&path)
        .args(["--workload", &args.workload])
        .args(["--seed", &seed.to_string()])
        .args(["--rep", mode.arg()])
        .output()
        .unwrap_or_else(|e| fail(&format!("running {}: {e}", path.display())));
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        fail(&format!(
            "{exe} --rep {} failed ({})",
            mode.arg(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    for note in text.lines().filter(|l| l.starts_with("violation ")) {
        println!("  {} {note}", mode.arg());
    }
    text.lines()
        .find_map(Summary::parse)
        .unwrap_or_else(|| fail(&format!("{exe} printed no summary: {text:?}")))
}

/// Logical transactions finished in the window, and those given up.
fn operations(r: &Summary) -> (u64, u64) {
    let t = &r.counts.tally;
    (t.commits + t.abandoned, t.abandoned)
}

fn untraced(w: &Workload, args: &Args) {
    let seeds: Vec<u64> = (0..w.sub_seeds)
        .map(|i| Workload::sub_seed(args.seed, i))
        .collect();
    // Cycle through the seeds until the time is used: every seed at least
    // once, and at least one seed twice so its repetitions can be compared.
    let start = Instant::now();
    let mut reps: Vec<Summary> = Vec::new();
    loop {
        let seed = seeds[reps.len() % seeds.len()];
        reps.push(spawn_rep("perfbench", args, seed, Mode::Plain));
        let used = start.elapsed().as_secs_f64();
        let per_rep = used / reps.len() as f64;
        if reps.len() > seeds.len() && used + per_rep > args.seconds {
            break;
        }
    }
    let first = &reps[..seeds.len()];
    let deterministic = reps
        .iter()
        .zip(first.iter().cycle())
        .all(|(r, f)| r.fingerprint == f.fingerprint);
    println!(
        "{} repetitions over seeds {seeds:?}: repetitions of a seed {}",
        reps.len(),
        if deterministic { "identical" } else { "DIFFER" }
    );
    for (r, s) in reps.iter().zip(seeds.iter().cycle()) {
        println!(
            "  seed {s}: {}  setup {:.4} s  run {:.4} s  {:.1} commits/s  peak {:.1} MB",
            r.fingerprint,
            r.setup_s,
            r.run_s,
            r.commits() as f64 / r.run_s,
            r.peak_rss as f64 / 1e6
        );
    }
    let metrics = report::end_to_end(&reps, first);
    report::print_lines(&metrics);
    println!("abort_rate and checker_violations come from the traced run (--trace 1)");
    let (attempted, failed) = first
        .iter()
        .map(operations)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    println!(
        "{}",
        report::result_json(deterministic, attempted, failed, &metrics)
    );
}

fn traced(w: &Workload, args: &Args) {
    // Measured first, while this process's heap is still small.
    let seed = Workload::sub_seed(args.seed, 0);
    let rss_bytes_per_key = micro::rss_bytes_per_key(w, seed);
    let plain = spawn_rep("perfbench", args, seed, Mode::Plain);
    let traced = spawn_rep("perfbench", args, seed, Mode::Traced);
    let fraud = spawn_rep("perfbench", args, seed, Mode::Fraud);
    let counted = spawn_rep("perfbench-alloc", args, seed, Mode::Plain);
    let probes = micro::run_all(w, seed);

    let fp = &plain.fingerprint;
    let mut correct = true;
    for (what, other) in [("traced", &traced), ("counting-allocator", &counted)] {
        let same = &other.fingerprint == fp;
        println!(
            "determinism: untraced {fp} vs {what} {}: {}",
            other.fingerprint,
            if same { "identical" } else { "DIFFERENT" }
        );
        correct &= same;
    }
    if w.fraud_gate {
        // The gate's self-test: skipping validation must show up.
        let caught = fraud.violations > traced.violations;
        println!(
            "gate self-test: {} violations with validation skipped vs {} clean: {}",
            fraud.violations,
            traced.violations,
            if caught { "caught" } else { "MISSED" }
        );
        correct &= caught;
    }

    println!("end-to-end, one untraced repetition of seed {seed} (--trace 0 reports several):");
    let one = std::slice::from_ref(&plain);
    report::print_lines(&report::end_to_end(one, one));
    let metrics = report::per_layer(
        w,
        &plain,
        &traced,
        &fraud,
        Extra {
            probes: &probes,
            rss_bytes_per_key,
            allocs: counted.allocs,
        },
    );
    println!("per layer:");
    report::print_lines(&metrics);
    let (attempted, failed) = operations(&plain);
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
}
