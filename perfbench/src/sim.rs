//! The simulator workloads: `pipe` (live, recorded, replayed) and
//! `schbench80`, all WFQ under the Enoki dispatch layer.
//!
//! Both are deterministic by construction: the seed selects nothing, and
//! every rep of a workload must reproduce the same simulated outputs.

use crate::probe::{callback, Probe, TimedClass, TimedPolicy};
use crate::report::{best, fnv_words, median, Outcome};
use crate::{repeat, Config};
use enoki_core::record;
use enoki_core::EnokiClass;
use enoki_replay::{load_log, replay, start_recording, stop_recording};
use enoki_sched::Wfq;
use enoki_sim::{CostModel, Machine, Ns, Topology};
use enoki_workloads::pipe::{run_pipe_on, PipeConfig};
use enoki_workloads::schbench::{run_schbench, SchbenchConfig};
use enoki_workloads::testbed::{build, BedOptions, SchedKind, TestBed};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// Round trips of every `pipe` phase (two messages each).
pub const PIPE_ROUND_TRIPS: u64 = 20_000;
/// Pinned simulated µs per message of the `pipe` input.
pub const PIPE_US_PER_MSG: &str = "3.850";
/// Record ring slots, as the §5.8 harness sizes them.
const RECORD_RING: usize = 1 << 22;
/// Cpus of the `pipe` machine (`Topology::i7_9700`).
const PIPE_CPUS: usize = 8;
/// Virtual-time interval of the pending-event sampler in traced reps.
const SAMPLE_EVERY: Ns = Ns(100_000);

/// Paper Table 3, WFQ, two cores: µs per message on a real kernel.
const PAPER_PIPE_US: f64 = 4.0;
/// Paper §5.2: framework cost per scheduler call on a real kernel.
const PAPER_DISPATCH_NS: f64 = 125.0;
/// Paper §5.8: record and replay time over live time on perf-pipe.
const PAPER_RECORD_SLOWDOWN: f64 = 7.0;
const PAPER_REPLAY_SLOWDOWN: f64 = 45.0;
/// Paper Table 4, WFQ, 2 message threads x 40 workers: p50 / p99 µs.
const PAPER_SCHBENCH_US: (f64, f64) = (170.0, 323.0);

/// The `schbench80` input: 2 message threads x 40 workers on the 80-cpu
/// two-socket machine, 50 ms warmup then a 200 ms window.
pub fn schbench_config() -> SchbenchConfig {
    let mut cfg = SchbenchConfig::table4(2, 40);
    cfg.warmup = Ns::from_ms(50);
    cfg.duration = Ns::from_ms(200);
    cfg
}

/// Pinned simulated `(p50 ns, p99 ns, rounds)` of the `schbench80` input.
pub const SCHBENCH_PINNED: (u64, u64, u64) = (21_504, 57_344, 7_026);

/// A WFQ testbed; with a probe, the class and the policy are wrapped.
pub fn wfq_bed(topo: Topology, probe: Option<&Arc<Probe>>) -> TestBed {
    let Some(probe) = probe else {
        return build(
            topo,
            CostModel::calibrated(),
            SchedKind::Wfq,
            BedOptions::default(),
        );
    };
    let nr = topo.nr_cpus();
    let mut machine = Machine::new(topo, CostModel::calibrated());
    let policy = TimedPolicy::new(Wfq::new(nr), Arc::clone(probe));
    let class = Rc::new(EnokiClass::load("wfq", nr, Box::new(policy)));
    let class_idx = machine.add_class(Rc::new(TimedClass::new(class.clone(), Arc::clone(probe))));
    TestBed {
        machine,
        class_idx,
        cfs_idx: None,
        enoki: Some(class),
        ghost: None,
        watchdog: None,
    }
}

/// Digest of a machine's simulated outcome: clock, events and every
/// aggregate counter.
pub fn machine_digest(m: &Machine) -> u64 {
    let s = m.stats();
    let mut words = vec![
        m.now().as_nanos(),
        m.events_processed(),
        m.nr_tasks() as u64,
        s.nr_context_switches,
        s.nr_migrations,
        s.nr_class_calls,
        s.nr_ipis,
        s.nr_ticks,
        s.nr_idle_picks,
        s.nr_pick_rejects,
        s.nr_externals,
        s.wakeup_latency.count(),
    ];
    for v in [
        &s.cpu_busy,
        &s.cpu_idle,
        &s.cpu_sched_overhead,
        &s.class_busy,
    ] {
        words.extend(v.iter().map(|n| n.as_nanos()));
    }
    words.extend(&s.cpu_context_switches);
    words.extend(&s.cpu_migrations);
    fnv_words(&words)
}

/// One timed run of a simulator workload.
pub struct SimRep {
    /// Host seconds to build the machine and load the policy.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub host_s: f64,
    /// Simulated events processed.
    pub events: u64,
    /// [`machine_digest`] after the run.
    pub digest: u64,
    /// The workload's simulated result, formatted for comparison.
    pub result: String,
    /// Pending-event samples (traced reps only).
    pub pending: Vec<u64>,
}

/// Arms the pending-event sampler (between events, schedule-neutral).
fn sample_pending(m: &mut Machine) -> Rc<RefCell<Vec<u64>>> {
    let samples = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&samples);
    m.set_sampler(
        SAMPLE_EVERY,
        Box::new(move |m| sink.borrow_mut().push(m.nr_pending_events() as u64)),
    );
    samples
}

/// Builds a bed, runs `phase` on it, and times both.
fn sim_rep(
    topo: Topology,
    probe: Option<&Arc<Probe>>,
    phase: impl FnOnce(&mut TestBed) -> String,
) -> SimRep {
    let t0 = Instant::now();
    let mut bed = wfq_bed(topo, probe);
    let setup_s = t0.elapsed().as_secs_f64();
    let pending = probe.map(|_| sample_pending(&mut bed.machine));
    let t1 = Instant::now();
    let result = phase(&mut bed);
    let host_s = t1.elapsed().as_secs_f64();
    SimRep {
        setup_s,
        host_s,
        events: bed.machine.events_processed(),
        digest: machine_digest(&bed.machine),
        result,
        pending: pending.map(|p| p.take()).unwrap_or_default(),
    }
}

fn pipe_config(round_trips: u64) -> PipeConfig {
    PipeConfig {
        round_trips,
        one_core: false,
    }
}

/// One live `pipe` run; the result is simulated µs per message.
pub fn pipe_rep(round_trips: u64, probe: Option<&Arc<Probe>>) -> SimRep {
    sim_rep(Topology::i7_9700(), probe, |bed| {
        format!(
            "{:.3}",
            run_pipe_on(bed, pipe_config(round_trips)).us_per_msg
        )
    })
}

/// One `schbench80` run; the result is `p50 p99 rounds` (ns, ns, count).
pub fn schbench_rep(cfg: SchbenchConfig, probe: Option<&Arc<Probe>>) -> SimRep {
    sim_rep(Topology::xeon_6138_2s(), probe, |bed| {
        let r = run_schbench(bed, cfg);
        format!("{} {} {}", r.p50.as_nanos(), r.p99.as_nanos(), r.rounds)
    })
}

/// What recording added to one `pipe` run.
pub struct RecordRep {
    /// The run itself; `host_s` spans `start_recording` to the end of the
    /// `stop_recording` flush.
    pub sim: SimRep,
    /// Records written to the log.
    pub written: u64,
    /// Records dropped on ring overrun.
    pub dropped: u64,
    /// Log size in bytes.
    pub bytes: u64,
    /// Host seconds in `stop_recording` (drain and close).
    pub flush_s: f64,
}

/// One recorded `pipe` run writing its log to `path`.
pub fn record_rep(round_trips: u64, probe: Option<&Arc<Probe>>, path: &Path) -> RecordRep {
    record::reset_lock_ids();
    let mut stats = (0, 0, 0.0);
    let sim = sim_rep(Topology::i7_9700(), probe, |bed| {
        let session = start_recording(path, RECORD_RING).expect("start recording");
        let r = run_pipe_on(bed, pipe_config(round_trips));
        let dropped = session.dropped();
        let t0 = Instant::now();
        let written = stop_recording(session).expect("flush the record log");
        stats = (written, dropped, t0.elapsed().as_secs_f64());
        format!("{:.3}", r.us_per_msg)
    });
    RecordRep {
        sim,
        written: stats.0,
        dropped: stats.1,
        bytes: std::fs::metadata(path).map_or(0, |m| m.len()),
        flush_s: stats.2,
    }
}

/// One replay of the log at `path`.
pub struct ReplayRep {
    /// Host seconds to load and parse the log.
    pub load_s: f64,
    /// Host seconds replaying it.
    pub run_s: f64,
    /// Scheduler calls replayed.
    pub calls: u64,
    /// Divergences plus sequencing timeouts.
    pub failures: u64,
    /// Real threads the replay ran.
    pub threads: usize,
}

/// Loads and replays the log at `path` against a fresh WFQ.
pub fn replay_rep(path: &Path, probe: Option<&Arc<Probe>>) -> ReplayRep {
    let t0 = Instant::now();
    let log = load_log(path).expect("load the record log");
    let load_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = match probe {
        None => replay(&log, PIPE_CPUS, || Wfq::new(PIPE_CPUS)),
        Some(p) => replay(&log, PIPE_CPUS, || {
            TimedPolicy::new(Wfq::new(PIPE_CPUS), Arc::clone(p))
        }),
    };
    ReplayRep {
        load_s,
        run_s: t1.elapsed().as_secs_f64(),
        calls: report.calls,
        failures: report.divergences.len() as u64 + report.sequencing_timeouts,
        threads: report.threads,
    }
}

/// Checks every rep reproduced `pinned` and one identical digest — the
/// traced reps included.
fn gate_reps(out: &mut Outcome, reps: &[&SimRep], pinned: &str) {
    for (i, r) in reps.iter().enumerate() {
        out.check(r.result == pinned, || {
            format!(
                "rep {i}: simulated result {} differs from pinned {pinned}",
                r.result
            )
        });
        out.check(r.digest == reps[0].digest, || {
            format!(
                "rep {i}: simulated digest {:016x} differs from rep 0's {:016x}",
                r.digest, reps[0].digest
            )
        });
    }
}

/// How a workload folds its per-rep rates into `ops_per_s`.
#[derive(Clone, Copy)]
pub enum RateStat {
    /// The fastest rep: for work on one host cpu at a time, or on
    /// barrier-synchronized workers, where host contention only ever
    /// slows a rep down.
    Best,
    /// The median rep: for threads that hand work to each other across
    /// host cpus, where a rare thread placement makes some reps much
    /// faster than the program's usual speed.
    Median,
}

/// End-to-end metrics of untraced reps: median set-up and the rate.
pub fn end_to_end(out: &mut Outcome, setups: &[f64], rates: &[f64], stat: RateStat) {
    out.set("setup_s", median(setups));
    out.set(
        "ops_per_s",
        match stat {
            RateStat::Best => best(rates),
            RateStat::Median => median(rates),
        },
    );
}

/// Machine and dispatch metrics of the traced reps sharing `probe`.
fn machine_layers(out: &mut Outcome, probe: &Probe, traced: &[&SimRep]) {
    let host_ns: f64 = traced.iter().map(|r| r.host_s).sum::<f64>() * 1e9;
    let events: u64 = traced.iter().map(|r| r.events).sum();
    let class_ns = probe.class_ns.load(Relaxed) as f64;
    let policy_ns = probe.policy_ns() as f64;
    let mut pending: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.pending.iter().map(|&p| p as f64))
        .collect();
    pending.sort_by(f64::total_cmp);
    out.set(
        "machine.self_ns_per_event",
        (host_ns - class_ns) / events as f64,
    );
    out.set("machine.pending_events_p50", median(&pending));
    out.set(
        "machine.pending_events_max",
        pending.last().copied().unwrap_or(0.0),
    );
    out.set(
        "machine.events_per_wakeup",
        events as f64 / probe.wakeups.load(Relaxed).max(1) as f64,
    );
    out.set(
        "dispatch.calls_per_event",
        probe.class_calls.load(Relaxed) as f64 / events as f64,
    );
    let dispatch_p50 = probe.dispatch_self.quantile(0.5);
    out.set("dispatch.self_ns_per_call_p50", dispatch_p50);
    out.set(
        "dispatch.self_ns_per_call_p99",
        probe.dispatch_self.quantile(0.99),
    );
    out.set("dispatch.share", (class_ns - policy_ns) / host_ns);
    out.set(
        "dispatch.pick_none_frac",
        probe.picks_none.load(Relaxed) as f64 / probe.picks.load(Relaxed).max(1) as f64,
    );
    out.note(format!(
        "reference: dispatch self time p50 {dispatch_p50:.0} ns per call host time (one clock read \
         included, see trace.clock_read_ns) vs paper §5.2 ~{PAPER_DISPATCH_NS} ns per call (real kernel)"
    ));
    policy_layers(out, probe, host_ns);
}

/// Policy metrics: per-call latency overall and for the hot callbacks,
/// and the policy's share of `host_ns`.
pub fn policy_layers(out: &mut Outcome, probe: &Probe, host_ns: f64) {
    out.set("policy.ns_per_call_p50", probe.policy_all.quantile(0.5));
    out.set("policy.ns_per_call_p99", probe.policy_all.quantile(0.99));
    for (cb, p50, p99) in [
        (
            "pick_next_task",
            "policy.pick_next_task.ns_p50",
            "policy.pick_next_task.ns_p99",
        ),
        (
            "task_wakeup",
            "policy.task_wakeup.ns_p50",
            "policy.task_wakeup.ns_p99",
        ),
        (
            "select_task_rq",
            "policy.select_task_rq.ns_p50",
            "policy.select_task_rq.ns_p99",
        ),
        (
            "task_tick",
            "policy.task_tick.ns_p50",
            "policy.task_tick.ns_p99",
        ),
    ] {
        let h = &probe.policy[callback(cb)].hist;
        out.set(p50, h.quantile(0.5));
        out.set(p99, h.quantile(0.99));
    }
    out.set("policy.share", probe.policy_ns() as f64 / host_ns);
}

/// Tracing overhead: median traced time over median untraced time, less 1.
pub fn trace_overhead(out: &mut Outcome, untraced_s: &[f64], traced_s: &[f64]) {
    out.set(
        "trace.overhead",
        median(traced_s) / median(untraced_s) - 1.0,
    );
}

/// Splits `(rep, traced)` pairs into untraced and traced reps.
pub fn split<T>(reps: &[(T, bool)]) -> (Vec<&T>, Vec<&T>) {
    let plain = reps.iter().filter(|r| !r.1).map(|r| &r.0).collect();
    let traced = reps.iter().filter(|r| r.1).map(|r| &r.0).collect();
    (plain, traced)
}

/// Runs a deterministic simulator workload: untraced reps for the
/// end-to-end numbers, alternating with traced reps under `--trace 1`.
fn run_sim(
    cfg: &Config,
    out: &mut Outcome,
    pinned: &str,
    mut rep: impl FnMut(Option<&Arc<Probe>>) -> SimRep,
) -> Vec<SimRep> {
    let probe = Probe::shared();
    let reps = repeat(cfg, |traced| (rep(traced.then_some(&probe)), traced));
    let (plain, traced) = split(&reps);
    let all: Vec<&SimRep> = reps.iter().map(|r| &r.0).collect();
    gate_reps(out, &all, pinned);
    let rates: Vec<f64> = plain.iter().map(|r| r.events as f64 / r.host_s).collect();
    let setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    end_to_end(out, &setups, &rates, RateStat::Best);
    if cfg.trace {
        machine_layers(out, &probe, &traced);
        let host = |v: &[&SimRep]| v.iter().map(|r| r.host_s).collect::<Vec<_>>();
        trace_overhead(out, &host(&plain), &host(&traced));
    }
    reps.into_iter().map(|r| r.0).collect()
}

/// `pipe`: perf-pipe ping-pong, live.
pub fn pipe(cfg: &Config, out: &mut Outcome) {
    let reps = run_sim(cfg, out, PIPE_US_PER_MSG, |p| pipe_rep(PIPE_ROUND_TRIPS, p));
    out.threads = 1;
    out.attempted = reps.len() as u64 * PIPE_ROUND_TRIPS * 2;
    out.note("unit of work: one simulated event (live phase); attempted counts messages");
    let us: f64 = reps[0].result.parse().unwrap_or(0.0);
    out.note(format!(
        "reference: {us:.3} us/message simulated vs paper Table 3 WFQ two-core {PAPER_PIPE_US} us \
         (real kernel); error {:+.1}%",
        (us / PAPER_PIPE_US - 1.0) * 100.0
    ));
}

/// `schbench80`: 2 x 40 schbench on 80 cpus.
pub fn schbench80(cfg: &Config, out: &mut Outcome) {
    let (p50, p99, rounds) = SCHBENCH_PINNED;
    let pinned = format!("{p50} {p99} {rounds}");
    let reps = run_sim(cfg, out, &pinned, |p| schbench_rep(schbench_config(), p));
    out.threads = 1;
    out.attempted = reps.len() as u64 * rounds;
    out.note("unit of work: one simulated event; attempted counts schbench rounds");
    let got: Vec<f64> = reps[0]
        .result
        .split(' ')
        .map(|v| v.parse().unwrap_or(0.0))
        .collect();
    out.note(format!(
        "reference: p50 {:.1} us / p99 {:.1} us simulated ({} rounds) vs paper Table 4 WFQ 40w \
         {} / {} us (real kernel, 30 s window); error {:+.1}% / {:+.1}%",
        got[0] / 1e3,
        got[1] / 1e3,
        got[2],
        PAPER_SCHBENCH_US.0,
        PAPER_SCHBENCH_US.1,
        (got[0] / 1e3 / PAPER_SCHBENCH_US.0 - 1.0) * 100.0,
        (got[1] / 1e3 / PAPER_SCHBENCH_US.1 - 1.0) * 100.0,
    ));
}

/// Scratch path for record logs, inside the checkout.
pub fn log_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(crate::SCRATCH_DIR);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir.join(name)
}

/// `pipe_record`: the `pipe` input recorded to a log.
pub fn pipe_record(cfg: &Config, out: &mut Outcome) {
    let path = log_path("pipe_record.log");
    let probe = Probe::shared();
    // Traced runs interleave live reps of the same input as the base of
    // the record slowdown.
    let mut live = Vec::new();
    let reps = repeat(cfg, |traced| {
        if cfg.trace {
            live.push(pipe_rep(PIPE_ROUND_TRIPS, None));
        }
        (
            record_rep(PIPE_ROUND_TRIPS, traced.then_some(&probe), &path),
            traced,
        )
    });
    let (plain, traced) = split(&reps);
    let sims: Vec<&SimRep> = reps.iter().map(|r| &r.0.sim).chain(&live).collect();
    gate_reps(out, &sims, PIPE_US_PER_MSG);
    // The simulation and the log writer thread.
    out.threads = 2;
    let written: u64 = reps.iter().map(|r| r.0.written).sum();
    let dropped: u64 = reps.iter().map(|r| r.0.dropped).sum();
    out.attempted = written + dropped;
    out.failed = dropped;
    out.check(dropped == 0, || format!("{dropped} records dropped"));
    let rates: Vec<f64> = plain
        .iter()
        .map(|r| r.sim.events as f64 / r.sim.host_s)
        .collect();
    let setups: Vec<f64> = plain.iter().map(|r| r.sim.setup_s).collect();
    end_to_end(out, &setups, &rates, RateStat::Median);
    out.note("unit of work: one simulated event while recording, flush included; attempted counts records");
    if cfg.trace {
        let traced_sims: Vec<&SimRep> = traced.iter().map(|r| &r.sim).collect();
        machine_layers(out, &probe, &traced_sims);
        let secs = |v: &[&RecordRep]| v.iter().map(|r| r.sim.host_s).collect::<Vec<f64>>();
        trace_overhead(out, &secs(&plain), &secs(&traced));
        let live_s = median(&live.iter().map(|r| r.host_s).collect::<Vec<_>>());
        let rec_s = median(&secs(&plain));
        let wakeups = probe.wakeups.load(Relaxed) as f64 / traced.len() as f64;
        let slowdown = rec_s / live_s;
        out.set(
            "record.marginal_ns_per_wakeup",
            (rec_s - live_s) * 1e9 / wakeups,
        );
        out.set("record.slowdown", slowdown);
        out.set("record.bytes_per_wakeup", plain[0].bytes as f64 / wakeups);
        out.set(
            "record.drop_frac",
            dropped as f64 / (written + dropped).max(1) as f64,
        );
        out.set(
            "record.flush_s",
            median(&plain.iter().map(|r| r.flush_s).collect::<Vec<_>>()),
        );
        out.note(format!(
            "reference: record slowdown {slowdown:.2}x host time vs paper §5.8 ~{PAPER_RECORD_SLOWDOWN}x \
             (host time); {} records, {:.1} MiB per run",
            plain[0].written,
            plain[0].bytes as f64 / (1 << 20) as f64
        ));
    }
    std::fs::remove_file(&path).ok();
}

/// `pipe_replay`: the recorded `pipe` log replayed in userspace. Set-up
/// is recording the log, done three times.
pub fn pipe_replay(cfg: &Config, out: &mut Outcome) {
    let path = log_path("pipe_replay.log");
    let mut setups = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = record_rep(PIPE_ROUND_TRIPS, None, &path);
        setups.push(t0.elapsed().as_secs_f64());
        gate_reps(out, &[&r.sim], PIPE_US_PER_MSG);
        out.check(r.dropped == 0, || format!("{} records dropped", r.dropped));
    }
    let probe = Probe::shared();
    let mut live = Vec::new();
    let reps = repeat(cfg, |traced| {
        if cfg.trace {
            live.push(pipe_rep(PIPE_ROUND_TRIPS, None));
        }
        (replay_rep(&path, traced.then_some(&probe)), traced)
    });
    let (plain, traced) = split(&reps);
    out.threads = reps[0].0.threads;
    let calls: u64 = reps.iter().map(|r| r.0.calls).sum();
    let failures: u64 = reps.iter().map(|r| r.0.failures).sum();
    out.attempted = calls;
    out.failed = failures;
    out.check(failures == 0, || {
        format!("{failures} replay divergences or sequencing timeouts")
    });
    out.check(reps.iter().all(|r| r.0.calls == reps[0].0.calls), || {
        "replayed call counts differ between reps".into()
    });
    let total = |r: &ReplayRep| r.load_s + r.run_s;
    let rates: Vec<f64> = plain.iter().map(|r| r.calls as f64 / total(r)).collect();
    end_to_end(out, &setups, &rates, RateStat::Median);
    out.note("unit of work: one replayed scheduler call, log load included");
    if cfg.trace {
        let live_s = median(&live.iter().map(|r| r.host_s).collect::<Vec<_>>());
        let load = median(&plain.iter().map(|r| r.load_s).collect::<Vec<_>>());
        let run = median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>());
        let slowdown = (load + run) / live_s;
        out.set("replay.load_s", load);
        out.set("replay.run_s", run);
        out.set("replay.slowdown", slowdown);
        let traced_s: f64 = traced.iter().map(|r| r.run_s).sum();
        policy_layers(out, &probe, traced_s * 1e9);
        out.note(
            "policy time here includes lock-order waits inside the policy's locks, summed over \
             replay threads, so policy.share can exceed 1",
        );
        let run_of = |v: &[&ReplayRep]| v.iter().map(|r| r.run_s).collect::<Vec<f64>>();
        trace_overhead(out, &run_of(&plain), &run_of(&traced));
        out.note(format!(
            "reference: replay slowdown {slowdown:.1}x host time vs paper §5.8 ~{PAPER_REPLAY_SLOWDOWN}x \
             (host time)"
        ));
    }
    std::fs::remove_file(&path).ok();
}
