//! `native_pipe`: futex ping-pong of two real threads on the native
//! backend (WFQ, two cpu lanes) — the real-thread analogue of Table 3.
//!
//! The run's threads (coordinator, workers, timer) share one host cpu.
//! Spread over the cpus of a virtual machine, each handoff instead pays
//! the hypervisor's cross-cpu wakeup, several times the framework's own
//! cost, and whether it does flips with load on the other cpus, which
//! made the rate bimodal from run to run.
//!
//! The run's threads (coordinator, workers, timer) share one host cpu.
//! Spread over two cpus of a virtual machine, each handoff instead pays
//! the hypervisor's cross-cpu wakeup, which is several times the
//! framework's own cost and flips with load on the other cpu, making
//! the measurement bimodal from run to run.

use crate::probe::{Probe, TimedPolicy};
use crate::report::{best, median, Outcome};
use crate::sim::{end_to_end, policy_layers, split, trace_overhead, RateStat};
use crate::{repeat, Config};
use enoki_core::api::EnokiScheduler;
use enoki_core::builder::{Backend, BuiltNative, MachineBuilder};
use enoki_core::native::{NativeOp, NativeTaskSpec};
use enoki_sched::Wfq;
use enoki_sim::{CostModel, HintVal, Topology};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Round trips per run (two wakeups each).
pub const ROUND_TRIPS: u64 = 20_000;
/// Cpu lanes of the native machine.
const LANES: usize = 2;
/// Guard against a livelocked run.
const WALL_LIMIT: Duration = Duration::from_secs(60);
const PING: u64 = 0x5049_4e47;
const PONG: u64 = 0x504f_4e47;
/// Paper Table 3, WFQ, two cores: µs per message on a real kernel.
const PAPER_PIPE_US: f64 = 4.0;

type Module = Box<dyn EnokiScheduler<UserMsg = HintVal, RevMsg = HintVal>>;

/// Ping wakes pong and waits; pong waits and wakes ping. Trailing wakes
/// leave neither side parked.
fn ping_pong(round_trips: u64) -> [NativeTaskSpec; 2] {
    let mut ping = Vec::new();
    let mut pong = Vec::new();
    for _ in 0..round_trips {
        ping.extend([NativeOp::FutexWake(PONG, 1), NativeOp::FutexWait(PING)]);
        pong.extend([NativeOp::FutexWait(PONG), NativeOp::FutexWake(PING, 1)]);
    }
    ping.push(NativeOp::FutexWake(PONG, 1));
    pong.push(NativeOp::FutexWake(PING, 1));
    [
        NativeTaskSpec::new("ping", ping),
        NativeTaskSpec::new("pong", pong),
    ]
}

/// One native run.
pub struct NativeRep {
    /// Host seconds to build the class and machine and queue the tasks.
    pub setup_s: f64,
    /// Wall seconds of `run_to_completion`.
    pub wall_s: f64,
    /// Tasks that ran to completion.
    pub completed: usize,
    /// Stale picks the coordinator absorbed.
    pub bad_picks: u64,
    /// Tokens still live after the run.
    pub live_tokens: u64,
    /// Ticks and preemptions delivered.
    pub ticks: u64,
    /// Involuntary preemptions.
    pub preemptions: u64,
}

/// One `native_pipe` run of `round_trips`, policy wrapped when probed.
pub fn native_rep(round_trips: u64, probe: Option<&Arc<Probe>>) -> NativeRep {
    let t0 = Instant::now();
    let module: Module = match probe {
        None => Box::new(Wfq::new(LANES)),
        Some(p) => Box::new(TimedPolicy::new(Wfq::new(LANES), Arc::clone(p))),
    };
    let BuiltNative {
        mut machine, class, ..
    } = MachineBuilder::new(Topology::new(LANES, 1), CostModel::calibrated())
        .scheduler("wfq", module)
        .backend(Backend::Native)
        .token_ledger()
        .build_native();
    for spec in ping_pong(round_trips) {
        machine.spawn(spec);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let report = machine.run_to_completion(WALL_LIMIT).expect("native run");
    NativeRep {
        setup_s,
        wall_s: report.wall.as_secs_f64(),
        completed: report.completed,
        bad_picks: report.bad_picks,
        live_tokens: class.token_ledger().map_or(u64::MAX, |l| l.live()),
        ticks: report.ticks,
        preemptions: report.preemptions,
    }
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// lowest-numbered cpu it may run on; returns that cpu.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is a writable 128-byte cpu_set_t; pid 0 names the
    // calling thread.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 8).find(|c| mask[c / 8] & (1 << (c % 8)) != 0)?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable 128-byte cpu_set_t.
    (unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// `native_pipe`: repeated ping-pong runs on real threads, all on one
/// host cpu.
pub fn native_pipe(cfg: &Config, out: &mut Outcome) {
    let probe = Probe::shared();
    let (pinned, reps) = std::thread::scope(|s| {
        s.spawn(|| {
            let pinned = pin_to_one_cpu();
            let reps = repeat(cfg, |traced| {
                (native_rep(ROUND_TRIPS, traced.then_some(&probe)), traced)
            });
            (pinned, reps)
        })
        .join()
        .expect("native runs")
    });
    out.note(match pinned {
        Some(cpu) => format!("all run threads pinned to host cpu {cpu}"),
        None => "run threads not pinned (unsupported here): expect bimodal rates".into(),
    });
    for (i, (r, _)) in reps.iter().enumerate() {
        out.check(r.completed == 2, || {
            format!("rep {i}: {} of 2 tasks completed", r.completed)
        });
        out.check(r.bad_picks == 0, || {
            format!("rep {i}: {} bad picks", r.bad_picks)
        });
        out.check(r.live_tokens == 0, || {
            format!("rep {i}: {} tokens live", r.live_tokens)
        });
        out.failed += r.bad_picks + (2 - r.completed.min(2)) as u64;
    }
    // Two workers, the coordinator and the timer thread.
    out.threads = 4;
    let wakeups = 2 * ROUND_TRIPS;
    out.attempted = wakeups * reps.len() as u64;
    let (plain, traced) = split(&reps);
    let rates: Vec<f64> = plain.iter().map(|r| wakeups as f64 / r.wall_s).collect();
    end_to_end(
        out,
        &plain.iter().map(|r| r.setup_s).collect::<Vec<_>>(),
        &rates,
        RateStat::Best,
    );
    let us = 1e6 / best(&rates);
    out.note("unit of work: one real futex wakeup between two threads; attempted counts wakeups");
    out.note(format!(
        "reference: {us:.2} us per wakeup host time vs paper Table 3 WFQ two-core {PAPER_PIPE_US} us \
         (real kernel; this is a userspace analogue with a coordinator thread); error {:+.1}%",
        (us / PAPER_PIPE_US - 1.0) * 100.0
    ));
    if cfg.trace {
        let wall_ns: f64 = traced.iter().map(|r| r.wall_s).sum::<f64>() * 1e9;
        policy_layers(out, &probe, wall_ns);
        out.set("native.policy_share", probe.policy_ns() as f64 / wall_ns);
        out.set(
            "native.wake_to_pick_us_p50",
            probe.wake_to_pick.quantile(0.5) / 1e3,
        );
        out.set(
            "native.wake_to_pick_us_p99",
            probe.wake_to_pick.quantile(0.99) / 1e3,
        );
        let per_rep = |f: fn(&NativeRep) -> u64| {
            median(&traced.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
        };
        out.set("native.ticks", per_rep(|r| r.ticks));
        out.set("native.preemptions", per_rep(|r| r.preemptions));
        let walls = |v: &[&NativeRep]| v.iter().map(|r| r.wall_s).collect::<Vec<f64>>();
        trace_overhead(out, &walls(&plain), &walls(&traced));
    }
}
