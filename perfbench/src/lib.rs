//! # perfbench — the repository benchmark
//!
//! Runs one of three Retwis workloads over a MILANA cluster through the
//! paper's closed-loop driver (`retwis::driver::run_instance`, via
//! `bench::common::run_retwis_generic`) and reports:
//!
//! - with `--trace 0`, the end-to-end metrics of untraced repetitions:
//!   host commits per second and set-up seconds (medians over the
//!   repetitions), peak RSS, and the virtual-time goodput and commit
//!   latency percentiles, which repeat exactly for a seed;
//! - with `--trace 1`, the per-layer metrics: counts read from each
//!   layer's public stats accessors, layer probes timed from outside
//!   ([`micro`]), virtual spans recorded by the benchmark's own client
//!   wrapper ([`track`]), allocation counts from a second binary under
//!   perfkit's counting allocator, and the `faultkit::Checker` verdict on
//!   the traced history, with the validation-skip fraud as its self-test.
//!
//! Layers are measured only from outside; the benchmark adds no
//! instrumentation to the program. Every repetition of a seed must
//! produce the same counts, latencies and checker verdict, traced or not.

pub mod micro;
pub mod rep;
pub mod report;
pub mod track;
pub mod workload;

/// Parsed command line of both binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Host seconds the untraced repetitions fill.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Run one repetition in this process and print its summary line
    /// (how the top-level run starts each repetition).
    pub rep: Option<rep::Mode>,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--rep MODE]`.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 42,
            seconds: 10.0,
            trace: false,
            rep: None,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = value()?,
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => a.trace = value()? == "1",
                "--rep" => {
                    a.rep = Some(match value()?.as_str() {
                        "plain" => rep::Mode::Plain,
                        "traced" => rep::Mode::Traced,
                        "fraud" => rep::Mode::Fraud,
                        other => return Err(format!("--rep: unknown mode {other}")),
                    })
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if a.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(a)
    }
}
