//! cluster_bench: scaling of the sharded parallel simulation engine.
//!
//! Runs one seeded fleet (the `enoki-workloads` fleet of chained job
//! steps with cross-machine migration) on the `enoki_sim::cluster`
//! engine at 1, 2, 4, and 8 worker threads over a fixed 8-shard layout,
//! plus the sequential oracle, and reports events/second per thread
//! count. The shard count — not the thread count — is the determinism
//! unit, so **every row must report the same fleet digest**, and the
//! digest must equal the oracle's; `bench_gate` pins both
//! unconditionally, and pins the digest itself against the committed
//! `crates/bench/baselines/BENCH_cluster.json` when the fleet config
//! matches.
//!
//! The parallel-speedup floor (4 threads ≥ 2.5x over 1) is only
//! meaningful on a host with cores to scale onto, so the report records
//! `host_cores` and the gate enforces the floor only when it is ≥ 4.
//!
//! Full mode simulates 100 machines / 1,000,000 tasks; `ENOKI_BENCH_FAST`
//! shrinks the fleet (16 machines / 40,000 tasks) without changing the
//! shard count or the shape of the report. The fast fleet is still long
//! enough (each machine spawns about 2,500 tasks, a run takes ≳100 ms) that
//! per-machine costs growing with run length would show up here. Writes
//! `results/BENCH_cluster.json`.

use enoki_bench::harness::fast_mode;
use enoki_bench::report::Report;
use enoki_sim::cluster::{run_parallel, run_sequential, ClusterReport, ClusterSpec};
use enoki_sim::Ns;
use enoki_workloads::fleet::{factory, fleet_digest, FleetOutput, FleetSpec};
use std::time::Instant;

const SHARDS: usize = 8;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn spec() -> FleetSpec {
    if fast_mode() {
        FleetSpec {
            machines: 16,
            cores_per_machine: 2,
            chains: 200,
            steps_per_chain: 200,
            step_work: Ns::from_us(40),
            migrate_every: 10,
            candidates: 3,
            seed: 0xC105_7E12,
            trace_capacity: 1024,
        }
    } else {
        FleetSpec {
            machines: 100,
            cores_per_machine: 2,
            chains: 2000,
            steps_per_chain: 500,
            step_work: Ns::from_us(40),
            migrate_every: 10,
            candidates: 3,
            seed: 0xC105_7E12,
            trace_capacity: 1024,
        }
    }
}

struct Run {
    report: ClusterReport<FleetOutput>,
    wall_s: f64,
}

fn timed<F: FnOnce() -> ClusterReport<FleetOutput>>(f: F) -> Run {
    let t0 = Instant::now();
    let report = f();
    Run {
        report,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

fn main() {
    let s = spec();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "cluster_bench: {} machines / {} tasks on {SHARDS} shards (host has {host_cores} cores{})\n",
        s.machines,
        s.total_tasks(),
        if fast_mode() { ", fast mode" } else { "" },
    );

    let cluster = || ClusterSpec::new(SHARDS);
    let oracle = timed(|| {
        run_sequential(cluster(), factory(s, SHARDS)).expect("sequential oracle run")
    });
    let seq_digest = fleet_digest(&oracle.report.outputs);
    let completed: u64 = oracle.report.outputs.iter().map(|o| o.completed).sum();
    assert_eq!(completed, s.chains as u64, "oracle lost chains");
    println!(
        "  {:<12} {:>12.0} events/s  digest {seq_digest:016x}",
        "sequential",
        oracle.report.events as f64 / oracle.wall_s
    );

    let mut report = Report::new("cluster");
    report
        .param("machines", s.machines)
        .param("cores_per_machine", s.cores_per_machine)
        .param("shards", SHARDS)
        .param("chains", s.chains)
        .param("steps_per_chain", s.steps_per_chain)
        .param("total_tasks", s.total_tasks())
        .param("seed", s.seed)
        .param("fast", fast_mode())
        .param("host_cores", host_cores)
        .param("epochs", oracle.report.epochs)
        .param("messages", oracle.report.messages)
        .param("seq_digest", format!("{seq_digest:016x}"));

    let mut events_per_sec = Vec::new();
    for threads in THREAD_COUNTS {
        let run = timed(|| {
            run_parallel(cluster(), threads, factory(s, SHARDS))
                .unwrap_or_else(|e| panic!("parallel run at {threads} threads: {e}"))
        });
        let digest = fleet_digest(&run.report.outputs);
        assert_eq!(
            digest, seq_digest,
            "{threads}-thread run diverged from the sequential oracle"
        );
        assert_eq!(run.report.epochs, oracle.report.epochs);
        assert_eq!(run.report.events, oracle.report.events);
        assert_eq!(run.report.messages, oracle.report.messages);
        let eps = run.report.events as f64 / run.wall_s;
        println!("  {threads:>2} thread(s) {eps:>12.0} events/s  digest {digest:016x}");
        report.row(&[
            ("threads", threads.into()),
            ("events_per_sec", eps.into()),
            ("wall_ms", (run.wall_s * 1e3).into()),
            ("digest", format!("{digest:016x}").into()),
        ]);
        events_per_sec.push((threads, eps));
    }

    let eps_at = |t: usize| {
        events_per_sec
            .iter()
            .find(|(n, _)| *n == t)
            .map(|(_, e)| *e)
            .expect("thread count measured")
    };
    let speedup = eps_at(4) / eps_at(1);
    report.param("speedup_4v1", speedup);
    println!(
        "\n  4-thread speedup {speedup:.2}x over 1 thread \
         ({}: the gate's 2.5x floor applies on hosts with >= 4 cores)",
        if host_cores >= 4 {
            "enforced"
        } else {
            "informational on this host"
        }
    );
    println!("  all {} thread counts produced digest {seq_digest:016x}", THREAD_COUNTS.len());

    report.emit();
}
