//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! One command runs a workload for a fixed host-time window, checks its
//! simulated outputs against pinned values, and prints every metric by
//! name and unit; `--trace 1` re-runs the same inputs with timing
//! wrappers at each layer's public surface ([`probe`]) and reports the
//! per-layer numbers plus the tracing overhead. See `BENCHMARK.json` at
//! the repository root for the workloads and metrics.

pub mod fleet;
pub mod native;
pub mod probe;
pub mod report;
pub mod sim;

use report::{clock_read_ns, peak_rss_mib, Outcome};
use std::time::Instant;

/// Directory, relative to the checkout root, for record logs.
pub const SCRATCH_DIR: &str = ".perfbench_scratch";

/// How one run is driven.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Workload seed (only `fleet` takes one; the others are
    /// deterministic by construction).
    pub seed: u64,
    /// Host seconds of repeated measurement.
    pub seconds: f64,
    /// Per-layer run: alternate untraced and traced reps.
    pub trace: bool,
}

/// A workload body: fills the outcome's metrics, gates and notes.
pub type Workload = fn(&Config, &mut Outcome);

/// Every workload, by name.
pub const WORKLOADS: [(&str, Workload); 6] = [
    ("pipe", sim::pipe),
    ("pipe_record", sim::pipe_record),
    ("pipe_replay", sim::pipe_replay),
    ("schbench80", sim::schbench80),
    ("fleet", fleet::fleet),
    ("native_pipe", native::native_pipe),
];

/// Runs `rep` until `cfg.seconds` of host time have passed, and at least
/// three times untraced. Under `--trace 1` reps alternate untraced and
/// traced (`rep(true)`), at least two of each.
pub fn repeat<T>(cfg: &Config, mut rep: impl FnMut(bool) -> T) -> Vec<T> {
    let min = if cfg.trace { 4 } else { 3 };
    let t0 = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min || t0.elapsed().as_secs_f64() < cfg.seconds {
        reps.push(rep(cfg.trace && reps.len() % 2 == 1));
    }
    reps
}

/// Runs one workload; `None` for an unknown name.
pub fn run(workload: &str, cfg: &Config) -> Option<Outcome> {
    let body = WORKLOADS.iter().find(|(n, _)| *n == workload)?.1;
    let mut out = Outcome::default();
    body(cfg, &mut out);
    if cfg.trace {
        out.set("trace.clock_read_ns", clock_read_ns());
    } else {
        out.set("peak_rss_mb", peak_rss_mib());
    }
    Some(out)
}
