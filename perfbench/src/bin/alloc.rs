//! One untraced repetition under perfkit's counting global allocator.
//! Prints the repetition's summary line, whose allocation counts are real
//! here; `perfbench --trace 1` runs it and checks its fingerprint against
//! the untraced repetition's. Never used for timing.

use perfbench::micro::peak_rss_bytes;
use perfbench::rep::{self, Mode, Summary};
use perfbench::workload::Workload;
use perfbench::Args;

#[global_allocator]
static ALLOC: perfkit::alloc::CountingAllocator = perfkit::alloc::CountingAllocator;

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench-alloc: {e}");
        std::process::exit(2);
    });
    let Some(w) = Workload::named(&args.workload) else {
        eprintln!("perfbench-alloc: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let r = rep::run(&w, args.seed, Mode::Plain);
    println!("{}", Summary::of(&r, peak_rss_bytes()).to_line());
}
