//! The metric catalogue, the result line, and run provenance.

use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics (untraced runs): `(name, unit)`. `setup_s` is the
/// median host time to build the machines, load the policy and spawn
/// tasks; `ops_per_s` the per-rep host-time rate of the workload's unit
/// of work; `peak_rss_mb` the process's peak resident set.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs): `(name, unit)`. A layer a workload
/// does not exercise, or that cannot be reached from outside on it,
/// reports 0 and is listed as not measured.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("machine.self_ns_per_event", "ns"),
    ("machine.pending_events_p50", "count"),
    ("machine.pending_events_max", "count"),
    ("machine.events_per_wakeup", "count"),
    ("dispatch.calls_per_event", "count"),
    ("dispatch.self_ns_per_call_p50", "ns"),
    ("dispatch.self_ns_per_call_p99", "ns"),
    ("dispatch.share", "frac"),
    ("dispatch.pick_none_frac", "frac"),
    ("policy.ns_per_call_p50", "ns"),
    ("policy.ns_per_call_p99", "ns"),
    ("policy.pick_next_task.ns_p50", "ns"),
    ("policy.pick_next_task.ns_p99", "ns"),
    ("policy.task_wakeup.ns_p50", "ns"),
    ("policy.task_wakeup.ns_p99", "ns"),
    ("policy.select_task_rq.ns_p50", "ns"),
    ("policy.select_task_rq.ns_p99", "ns"),
    ("policy.task_tick.ns_p50", "ns"),
    ("policy.task_tick.ns_p99", "ns"),
    ("policy.share", "frac"),
    ("record.marginal_ns_per_wakeup", "ns"),
    ("record.slowdown", "x"),
    ("record.bytes_per_wakeup", "B"),
    ("record.drop_frac", "frac"),
    ("record.flush_s", "s"),
    ("replay.load_s", "s"),
    ("replay.run_s", "s"),
    ("replay.slowdown", "x"),
    ("cluster.run_until_s", "s"),
    ("cluster.collect_s", "s"),
    ("cluster.deliver_s", "s"),
    ("cluster.barrier_wait_frac", "frac"),
    ("cluster.messages_per_epoch", "count"),
    ("cluster.engine_tax", "x"),
    ("cluster.speedup", "x"),
    ("cluster.ns_per_event_first_q", "ns"),
    ("cluster.ns_per_event_last_q", "ns"),
    ("native.policy_share", "frac"),
    ("native.wake_to_pick_us_p50", "us"),
    ("native.wake_to_pick_us_p99", "us"),
    ("native.ticks", "count"),
    ("native.preemptions", "count"),
    ("trace.overhead", "frac"),
    ("trace.clock_read_ns", "ns"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Host threads the measured runs used.
    pub threads: usize,
    /// Operations attempted (unit named by the workload).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Gate violations; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Checks a correctness gate, recording a violation when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Every correctness gate held.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The catalogue this run reports: end-to-end or per-layer.
    pub fn catalogue(trace: bool) -> Vec<(&'static str, &'static str)> {
        if trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.to_vec()
        }
    }

    /// Catalogue names this run did not measure.
    pub fn unmeasured(&self, trace: bool) -> Vec<&'static str> {
        Outcome::catalogue(trace)
            .into_iter()
            .filter(|(n, _)| !self.values.contains_key(n))
            .map(|(n, _)| n)
            .collect()
    }

    /// The one-line JSON result: every catalogue metric, in order.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = Outcome::catalogue(trace)
            .into_iter()
            .map(|(n, u)| {
                let v = self.values.get(n).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Largest value of `v` (0 when empty). Host contention only ever slows
/// a rep down, so the fastest rep of a window is the steadiest estimate
/// of the program's own rate on a shared machine.
pub fn best(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median host ns of one `Instant::now()` read: the unit of tracing cost.
pub fn clock_read_ns() -> f64 {
    let samples: Vec<f64> = (0..101)
        .map(|_| {
            let t0 = std::time::Instant::now();
            for _ in 0..1000 {
                std::hint::black_box(std::time::Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect();
    median(&samples)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over a sequence of words.
pub fn fnv_words(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(FNV_OFFSET, |h, w| fnv(h, &w.to_le_bytes()))
}

/// The commit the checkout was made from, when it carries `.git`.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git in the checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// FNV-1a over every file under `dirs` (paths and contents, sorted): names
/// the exact source measured even where the checkout is not a git tree.
fn source_digest(dirs: &[&str]) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let h = files.iter().fold(FNV_OFFSET, |h, p| {
        let h = fnv(h, p.to_string_lossy().as_bytes());
        fnv(h, &std::fs::read(p).unwrap_or_default())
    });
    format!("{h:016x}")
}

/// Cpus this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The provenance line: host cores, threads used, commit, source digest
/// and compiler. Parallel-speedup numbers from a 1-core host are marked
/// as not evidence.
pub fn provenance(workload: &str, threads: usize) -> String {
    let cores = host_cores();
    format!(
        "{{\"workload\": \"{workload}\", \"host_cores\": {cores}, \"threads\": {threads}, \
         \"speedup_is_evidence\": {}, \"commit\": \"{}\", \"source_fnv\": \"{}\", \
         \"rustc\": \"{}\", \"profile\": \"release\"}}",
        cores >= 2,
        commit(),
        source_digest(&["crates", "perfbench/src"]),
        env!("PERFBENCH_RUSTC"),
    )
}
