//! `fleet`: the `enoki-workloads` fleet on the sharded cluster engine at
//! as many worker threads as the host has cores.

use crate::probe::{timed_factory, ShardTrace};
use crate::report::{host_cores, median, Outcome};
use crate::sim::{end_to_end, trace_overhead, RateStat};
use crate::{repeat, Config};
use enoki_sim::cluster::{run_parallel, run_sequential, ClusterReport, ClusterSpec};
use enoki_sim::Ns;
use enoki_workloads::fleet::{factory, fleet_digest, FleetOutput, FleetShard, FleetSpec};
use std::time::Instant;

/// Logical shards: the determinism unit, independent of thread count.
pub const SHARDS: usize = 8;

/// The `fleet` input for `seed`: 32 machines x 2 cpus, least-loaded-of-3
/// migration every 10 steps, long chains so the run shows how host cost
/// per event grows as machines accumulate dead tasks.
pub fn fleet_spec(seed: u64) -> FleetSpec {
    FleetSpec {
        machines: 32,
        cores_per_machine: 2,
        chains: 256,
        steps_per_chain: 600,
        step_work: Ns::from_us(40),
        migrate_every: 10,
        candidates: 3,
        seed,
        trace_capacity: 1024,
    }
}

/// The simulated outcome every run of one spec must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Shape {
    digest: u64,
    epochs: u64,
    events: u64,
    messages: u64,
    completed: u64,
}

fn shape<O>(r: &ClusterReport<O>, outputs: &[FleetOutput]) -> Shape {
    Shape {
        digest: fleet_digest(outputs),
        epochs: r.epochs,
        events: r.events,
        messages: r.messages,
        completed: outputs.iter().map(|o| o.completed).sum(),
    }
}

/// One timed parallel run.
struct Rep {
    shape: Shape,
    wall_s: f64,
    wakeups: u64,
    traces: Vec<ShardTrace>,
}

/// One `run_parallel` of `spec` on `threads` workers; traced runs wrap
/// every shard in a [`crate::probe::TimedShard`].
fn parallel_rep(spec: FleetSpec, threads: usize, traced: bool) -> Rep {
    let cluster = ClusterSpec::new(SHARDS);
    let build = factory(spec, SHARDS);
    let t0 = Instant::now();
    let (shape, outputs, traces) = if traced {
        let r = run_parallel(cluster, threads, timed_factory(&build)).expect("fleet run");
        let (outputs, traces): (Vec<FleetOutput>, Vec<ShardTrace>) =
            r.outputs.iter().cloned().unzip();
        (shape(&r, &outputs), outputs, traces)
    } else {
        let r = run_parallel(cluster, threads, &build).expect("fleet run");
        (shape(&r, &r.outputs), r.outputs, Vec::new())
    };
    let wall_s = t0.elapsed().as_secs_f64();
    Rep {
        shape,
        wall_s,
        wakeups: outputs.iter().map(|o| o.stats.wakeup_latency.count()).sum(),
        traces,
    }
}

/// Host ns per simulated event over a range of epochs, all shards.
fn ns_per_event(traces: &[ShardTrace], epochs: std::ops::Range<usize>) -> f64 {
    let (ns, ev) = traces
        .iter()
        .flat_map(|t| &t.epochs[epochs.clone()])
        .fold((0, 0), |(ns, ev), &(n, e)| (ns + n, ev + e));
    ns as f64 / ev.max(1) as f64
}

/// `fleet`: the sequential oracle fixes the seed's expected outcome, then
/// repeated parallel runs are timed and checked against it.
pub fn fleet(cfg: &Config, out: &mut Outcome) {
    let spec = fleet_spec(cfg.seed);
    let threads = host_cores().min(SHARDS);
    let t0 = Instant::now();
    let oracle =
        run_sequential(ClusterSpec::new(SHARDS), factory(spec, SHARDS)).expect("oracle run");
    let seq_s = t0.elapsed().as_secs_f64();
    let want = shape(&oracle, &oracle.outputs);
    out.threads = threads;
    out.check(want.completed == spec.chains as u64, || {
        format!(
            "oracle completed {} of {} chains",
            want.completed, spec.chains
        )
    });

    // Set-up: every shard built in turn, five times; the runs below
    // build theirs again on the worker threads.
    let setups: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let shards: Vec<FleetShard> = (0..SHARDS)
                .map(|id| FleetShard::new(spec, SHARDS, id).expect("build shard"))
                .collect();
            let s = t0.elapsed().as_secs_f64();
            drop(shards);
            s
        })
        .collect();
    let reps = repeat(cfg, |traced| parallel_rep(spec, threads, traced));
    let mut failed = spec.chains as u64 - want.completed;
    for (i, r) in reps.iter().enumerate() {
        failed += spec.chains as u64 - r.shape.completed.min(spec.chains as u64);
        out.check(r.shape == want, || {
            format!(
                "rep {i}: {:?} differs from the sequential oracle's {want:?}",
                r.shape
            )
        });
    }
    out.attempted = spec.chains as u64 * (reps.len() as u64 + 1);
    out.failed = failed;

    let (plain, traced): (Vec<&Rep>, Vec<&Rep>) = reps.iter().partition(|r| r.traces.is_empty());
    let rates: Vec<f64> = plain
        .iter()
        .map(|r| r.shape.events as f64 / r.wall_s)
        .collect();
    end_to_end(out, &setups, &rates, RateStat::Best);
    out.note(format!(
        "unit of work: one simulated event; {SHARDS} shards; attempted counts chains; digest {:016x}",
        want.digest
    ));
    out.note("reference: unvalidated (the paper has no fleet experiment)");

    if cfg.trace {
        let walls = |v: &[&Rep]| v.iter().map(|r| r.wall_s).collect::<Vec<f64>>();
        let one = parallel_rep(spec, 1, false);
        out.check(one.shape == want, || {
            "1-thread run differs from the oracle".into()
        });
        let par_s = median(&walls(&plain));
        out.set("cluster.engine_tax", one.wall_s / seq_s);
        out.set("cluster.speedup", seq_s / par_s);
        let per_rep =
            |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
        let sum = |r: &Rep, f: fn(&ShardTrace) -> u64| r.traces.iter().map(f).sum::<u64>() as f64;
        out.set(
            "cluster.run_until_s",
            per_rep(&|r| sum(r, |t| t.run_until_ns) / 1e9),
        );
        out.set(
            "cluster.collect_s",
            per_rep(&|r| sum(r, |t| t.collect_ns) / 1e9),
        );
        out.set(
            "cluster.deliver_s",
            per_rep(&|r| sum(r, |t| t.deliver_ns) / 1e9),
        );
        out.set(
            "cluster.barrier_wait_frac",
            per_rep(&|r| 1.0 - sum(r, ShardTrace::busy_ns) / (threads as f64 * r.wall_s * 1e9)),
        );
        out.set(
            "cluster.messages_per_epoch",
            want.messages as f64 / want.epochs as f64,
        );
        let epochs = want.epochs as usize;
        out.set(
            "cluster.ns_per_event_first_q",
            per_rep(&|r| ns_per_event(&r.traces, 0..epochs / 4)),
        );
        out.set(
            "cluster.ns_per_event_last_q",
            per_rep(&|r| ns_per_event(&r.traces, epochs - epochs / 4..epochs)),
        );
        out.set(
            "machine.events_per_wakeup",
            want.events as f64 / plain[0].wakeups.max(1) as f64,
        );
        trace_overhead(out, &walls(&plain), &walls(&traced));
        out.note(format!(
            "cluster: sequential {seq_s:.3} s, 1 thread {:.3} s, {threads} threads {par_s:.3} s{}",
            one.wall_s,
            if host_cores() < 2 {
                " (1-core host: speedup is not evidence)"
            } else {
                ""
            }
        ));
    }
}
