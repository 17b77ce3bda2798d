//! Timing wrappers around each layer's public surface.
//!
//! Nothing here reaches inside the program: every number comes from
//! timing calls as they cross a public trait boundary.
//!
//! - [`TimedClass`] wraps a [`SchedClass`] (the `enoki-core` dispatch
//!   layer, `EnokiClass`) and times every class call the machine makes.
//! - [`TimedPolicy`] wraps an [`EnokiScheduler`] (the `enoki-sched`
//!   policy body) and times every callback the dispatch layer makes.
//! - [`TimedShard`] wraps a cluster [`Shard`] (`FleetShard`) and times the
//!   engine's calls into it.
//!
//! Dispatch self time is a class call's duration minus the policy time
//! inside it. Per-call values are folded into counts and log-linear
//! histograms, never stored one by one. Every wrapper forwards every
//! trait method, defaulted ones included, so a wrapped run simulates
//! exactly the same schedule as an unwrapped one.

use enoki_core::api::{EnokiScheduler, SchedCtx, TaskInfo, TransferIn, TransferOut};
use enoki_core::metrics::SchedulerMetrics;
use enoki_core::queue::RingBuffer;
use enoki_core::schedulable::{SchedError, Schedulable};
use enoki_sim::behavior::HintVal;
use enoki_sim::cluster::{Shard, WireMsg};
use enoki_sim::{CpuId, KernelCtx, Ns, Pid, SchedClass, SimError, TaskView, WakeFlags};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Sub-bucket bits of [`Hist`]: 16 buckets per power of two (~6% width).
const SUB_BITS: u32 = 4;
const BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) << SUB_BITS;

/// A lock-free log-linear histogram of nanosecond values.
pub struct Hist {
    counts: Box<[AtomicU64]>,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < 1 << SUB_BITS {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        (((e - SUB_BITS + 1) as usize) << SUB_BITS) + sub as usize
    }

    /// Midpoint of bucket `i`.
    fn value(i: usize) -> f64 {
        if i < 1 << SUB_BITS {
            return i as f64;
        }
        let e = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
        let sub = (i & ((1 << SUB_BITS) - 1)) as u64;
        let lower = ((1 << SUB_BITS) + sub) << (e - SUB_BITS);
        lower as f64 + ((1u64 << (e - SUB_BITS)) as f64 - 1.0) / 2.0
    }

    /// Counts one value.
    pub fn record(&self, v: u64) {
        self.counts[Hist::index(v)].fetch_add(1, Relaxed);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Relaxed)).sum()
    }

    /// The `q` quantile (bucket midpoint), or 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Relaxed);
            if seen >= rank {
                return Hist::value(i);
            }
        }
        unreachable!("rank never exceeds the total")
    }
}

/// One timed policy callback.
#[derive(Default)]
pub struct CallStats {
    /// Calls made.
    pub calls: AtomicU64,
    /// Per-call host nanoseconds.
    pub hist: Hist,
}

/// The [`EnokiScheduler`] callbacks [`TimedPolicy`] times, by index.
pub const CALLBACKS: [&str; 22] = [
    "task_new",
    "task_wakeup",
    "task_blocked",
    "task_preempt",
    "task_yield",
    "task_dead",
    "task_departed",
    "task_affinity_changed",
    "task_prio_changed",
    "task_tick",
    "select_task_rq",
    "migrate_task_rq",
    "balance",
    "balance_err",
    "pick_next_task",
    "pnt_err",
    "register_queue",
    "register_reverse_queue",
    "enter_queue",
    "unregister_queue",
    "unregister_rev_queue",
    "parse_hint",
];

const TASK_NEW: usize = 0;
const TASK_WAKEUP: usize = 1;
const TASK_BLOCKED: usize = 2;
const TASK_PREEMPT: usize = 3;
const TASK_YIELD: usize = 4;
const TASK_DEAD: usize = 5;
const TASK_DEPARTED: usize = 6;
const TASK_AFFINITY_CHANGED: usize = 7;
const TASK_PRIO_CHANGED: usize = 8;
const TASK_TICK: usize = 9;
const SELECT_TASK_RQ: usize = 10;
const MIGRATE_TASK_RQ: usize = 11;
const BALANCE: usize = 12;
const BALANCE_ERR: usize = 13;
const PICK_NEXT_TASK: usize = 14;
const PNT_ERR: usize = 15;
const REGISTER_QUEUE: usize = 16;
const REGISTER_REVERSE_QUEUE: usize = 17;
const ENTER_QUEUE: usize = 18;
const UNREGISTER_QUEUE: usize = 19;
const UNREGISTER_REV_QUEUE: usize = 20;
const PARSE_HINT: usize = 21;

/// Index of a callback name in [`CALLBACKS`].
pub fn callback(name: &str) -> usize {
    CALLBACKS
        .iter()
        .position(|c| *c == name)
        .unwrap_or_else(|| panic!("unknown callback {name}"))
}

/// Wakeup timestamps are kept for pids below this bound.
const WAKE_SLOTS: usize = 4096;

/// Counters and histograms shared by the class and policy wrappers of one
/// machine (or one replay, or one native run).
pub struct Probe {
    epoch: Instant,
    /// Host ns inside policy callbacks, read around each class call to
    /// split dispatch self time from policy time.
    policy_ns: AtomicU64,
    /// Per-callback policy statistics, indexed like [`CALLBACKS`].
    pub policy: Vec<CallStats>,
    /// Every policy call's host ns.
    pub policy_all: Hist,
    /// Class calls made by the machine.
    pub class_calls: AtomicU64,
    /// Host ns inside class calls (dispatch plus policy).
    pub class_ns: AtomicU64,
    /// Per-call dispatch self ns (class call minus policy time inside).
    pub dispatch_self: Hist,
    /// `pick_next_task` class calls.
    pub picks: AtomicU64,
    /// Picks that returned `None`.
    pub picks_none: AtomicU64,
    /// `task_wakeup` class calls.
    pub wakeups: AtomicU64,
    /// Host ns from a policy `task_wakeup` to the policy pick of that pid.
    pub wake_to_pick: Hist,
    wake_at: Box<[AtomicU64]>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe {
            epoch: Instant::now(),
            policy_ns: AtomicU64::new(0),
            policy: (0..CALLBACKS.len()).map(|_| CallStats::default()).collect(),
            policy_all: Hist::default(),
            class_calls: AtomicU64::new(0),
            class_ns: AtomicU64::new(0),
            dispatch_self: Hist::default(),
            picks: AtomicU64::new(0),
            picks_none: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            wake_to_pick: Hist::default(),
            wake_at: (0..WAKE_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Probe {
    /// A fresh probe behind an `Arc`.
    pub fn shared() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Host ns spent in all policy callbacks.
    pub fn policy_ns(&self) -> u64 {
        self.policy_ns.load(Relaxed)
    }

    /// Policy calls made.
    pub fn policy_calls(&self) -> u64 {
        self.policy.iter().map(|c| c.calls.load(Relaxed)).sum()
    }

    /// Times one policy callback; returns its result and end timestamp.
    fn policy_call<T>(&self, cb: usize, f: impl FnOnce() -> T) -> (T, u64) {
        let t0 = self.now_ns();
        let r = f();
        let t1 = self.now_ns();
        let d = t1 - t0;
        let s = &self.policy[cb];
        s.calls.fetch_add(1, Relaxed);
        s.hist.record(d);
        self.policy_all.record(d);
        self.policy_ns.fetch_add(d, Relaxed);
        (r, t1)
    }

    /// Times one class call, splitting off the policy time inside it.
    fn class_call<T>(&self, f: impl FnOnce() -> T) -> T {
        let p0 = self.policy_ns.load(Relaxed);
        let t0 = Instant::now();
        let r = f();
        let d = t0.elapsed().as_nanos() as u64;
        let inner = self.policy_ns.load(Relaxed) - p0;
        self.class_calls.fetch_add(1, Relaxed);
        self.class_ns.fetch_add(d, Relaxed);
        self.dispatch_self.record(d.saturating_sub(inner));
        r
    }
}

/// A [`SchedClass`] that times every call into the wrapped class.
pub struct TimedClass {
    inner: Rc<dyn SchedClass>,
    probe: Arc<Probe>,
}

impl TimedClass {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: Rc<dyn SchedClass>, probe: Arc<Probe>) -> TimedClass {
        TimedClass { inner, probe }
    }
}

impl SchedClass for TimedClass {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select_task_rq(
        &self,
        k: &KernelCtx,
        t: &TaskView,
        prev_cpu: CpuId,
        flags: WakeFlags,
    ) -> CpuId {
        self.probe
            .class_call(|| self.inner.select_task_rq(k, t, prev_cpu, flags))
    }

    fn task_new(&self, k: &KernelCtx, t: &TaskView) {
        self.probe.class_call(|| self.inner.task_new(k, t))
    }

    fn task_wakeup(&self, k: &KernelCtx, t: &TaskView, flags: WakeFlags) {
        self.probe.wakeups.fetch_add(1, Relaxed);
        self.probe
            .class_call(|| self.inner.task_wakeup(k, t, flags))
    }

    fn task_blocked(&self, k: &KernelCtx, t: &TaskView) {
        self.probe.class_call(|| self.inner.task_blocked(k, t))
    }

    fn task_yield(&self, k: &KernelCtx, t: &TaskView) {
        self.probe.class_call(|| self.inner.task_yield(k, t))
    }

    fn task_preempt(&self, k: &KernelCtx, t: &TaskView) {
        self.probe.class_call(|| self.inner.task_preempt(k, t))
    }

    fn task_dead(&self, k: &KernelCtx, pid: Pid) {
        self.probe.class_call(|| self.inner.task_dead(k, pid))
    }

    fn task_departed(&self, k: &KernelCtx, t: &TaskView) {
        self.probe.class_call(|| self.inner.task_departed(k, t))
    }

    fn task_affinity_changed(&self, k: &KernelCtx, t: &TaskView) {
        self.probe
            .class_call(|| self.inner.task_affinity_changed(k, t))
    }

    fn task_prio_changed(&self, k: &KernelCtx, t: &TaskView) {
        self.probe.class_call(|| self.inner.task_prio_changed(k, t))
    }

    fn task_tick(&self, k: &KernelCtx, cpu: CpuId, t: &TaskView) {
        self.probe.class_call(|| self.inner.task_tick(k, cpu, t))
    }

    fn pick_next_task(&self, k: &KernelCtx, cpu: CpuId, curr: Option<&TaskView>) -> Option<Pid> {
        let r = self
            .probe
            .class_call(|| self.inner.pick_next_task(k, cpu, curr));
        self.probe.picks.fetch_add(1, Relaxed);
        if r.is_none() {
            self.probe.picks_none.fetch_add(1, Relaxed);
        }
        r
    }

    fn pick_rejected(&self, k: &KernelCtx, cpu: CpuId, pid: Pid) {
        self.probe
            .class_call(|| self.inner.pick_rejected(k, cpu, pid))
    }

    fn balance(&self, k: &KernelCtx, cpu: CpuId) -> Option<Pid> {
        self.probe.class_call(|| self.inner.balance(k, cpu))
    }

    fn balance_err(&self, k: &KernelCtx, cpu: CpuId, pid: Pid) {
        self.probe
            .class_call(|| self.inner.balance_err(k, cpu, pid))
    }

    fn migrate_task_rq(&self, k: &KernelCtx, t: &TaskView, from: CpuId, to: CpuId) {
        self.probe
            .class_call(|| self.inner.migrate_task_rq(k, t, from, to))
    }

    fn deliver_hint(&self, k: &KernelCtx, pid: Pid, hint: HintVal) {
        self.probe
            .class_call(|| self.inner.deliver_hint(k, pid, hint))
    }

    fn call_overhead(&self) -> Ns {
        self.inner.call_overhead()
    }

    fn wants_periodic_balance(&self) -> bool {
        self.inner.wants_periodic_balance()
    }
}

/// An [`EnokiScheduler`] that times every callback into the wrapped
/// policy.
pub struct TimedPolicy<S> {
    inner: S,
    probe: Arc<Probe>,
}

impl<S> TimedPolicy<S> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: S, probe: Arc<Probe>) -> TimedPolicy<S> {
        TimedPolicy { inner, probe }
    }

    fn time<T>(&self, cb: usize, f: impl FnOnce(&S) -> T) -> T {
        self.probe.policy_call(cb, || f(&self.inner)).0
    }
}

impl<S: EnokiScheduler> EnokiScheduler for TimedPolicy<S> {
    type UserMsg = S::UserMsg;
    type RevMsg = S::RevMsg;

    fn get_policy(&self) -> i32 {
        self.inner.get_policy()
    }

    fn task_new(&self, ctx: &SchedCtx<'_>, t: &TaskInfo, sched: Schedulable) {
        self.time(TASK_NEW, |p| p.task_new(ctx, t, sched))
    }

    fn task_wakeup(&self, ctx: &SchedCtx<'_>, t: &TaskInfo, flags: WakeFlags, sched: Schedulable) {
        let ((), at) = self
            .probe
            .policy_call(TASK_WAKEUP, || self.inner.task_wakeup(ctx, t, flags, sched));
        if let Some(slot) = self.probe.wake_at.get(t.pid) {
            slot.store(at, Relaxed);
        }
    }

    fn task_blocked(&self, ctx: &SchedCtx<'_>, t: &TaskInfo) {
        self.time(TASK_BLOCKED, |p| p.task_blocked(ctx, t))
    }

    fn task_preempt(&self, ctx: &SchedCtx<'_>, t: &TaskInfo, sched: Schedulable) {
        self.time(TASK_PREEMPT, |p| p.task_preempt(ctx, t, sched))
    }

    fn task_yield(&self, ctx: &SchedCtx<'_>, t: &TaskInfo, sched: Schedulable) {
        self.time(TASK_YIELD, |p| p.task_yield(ctx, t, sched))
    }

    fn task_dead(&self, ctx: &SchedCtx<'_>, pid: Pid) {
        self.time(TASK_DEAD, |p| p.task_dead(ctx, pid))
    }

    fn task_departed(&self, ctx: &SchedCtx<'_>, t: &TaskInfo) -> Option<Schedulable> {
        self.time(TASK_DEPARTED, |p| p.task_departed(ctx, t))
    }

    fn task_affinity_changed(&self, ctx: &SchedCtx<'_>, t: &TaskInfo) {
        self.time(TASK_AFFINITY_CHANGED, |p| p.task_affinity_changed(ctx, t))
    }

    fn task_prio_changed(&self, ctx: &SchedCtx<'_>, t: &TaskInfo) {
        self.time(TASK_PRIO_CHANGED, |p| p.task_prio_changed(ctx, t))
    }

    fn task_tick(&self, ctx: &SchedCtx<'_>, cpu: CpuId, t: &TaskInfo) {
        self.time(TASK_TICK, |p| p.task_tick(ctx, cpu, t))
    }

    fn select_task_rq(
        &self,
        ctx: &SchedCtx<'_>,
        t: &TaskInfo,
        prev_cpu: CpuId,
        flags: WakeFlags,
    ) -> CpuId {
        self.time(SELECT_TASK_RQ, |p| {
            p.select_task_rq(ctx, t, prev_cpu, flags)
        })
    }

    fn migrate_task_rq(
        &self,
        ctx: &SchedCtx<'_>,
        t: &TaskInfo,
        new: Schedulable,
    ) -> Option<Schedulable> {
        self.time(MIGRATE_TASK_RQ, |p| p.migrate_task_rq(ctx, t, new))
    }

    fn balance(&self, ctx: &SchedCtx<'_>, cpu: CpuId) -> Option<u64> {
        self.time(BALANCE, |p| p.balance(ctx, cpu))
    }

    fn balance_err(&self, ctx: &SchedCtx<'_>, cpu: CpuId, pid: Pid, sched: Option<Schedulable>) {
        self.time(BALANCE_ERR, |p| p.balance_err(ctx, cpu, pid, sched))
    }

    fn pick_next_task(
        &self,
        ctx: &SchedCtx<'_>,
        cpu: CpuId,
        curr: Option<Schedulable>,
    ) -> Option<Schedulable> {
        let (r, at) = self
            .probe
            .policy_call(PICK_NEXT_TASK, || self.inner.pick_next_task(ctx, cpu, curr));
        if let Some(slot) = r.as_ref().and_then(|s| self.probe.wake_at.get(s.pid())) {
            let woke = slot.swap(0, Relaxed);
            if woke != 0 {
                self.probe.wake_to_pick.record(at - woke);
            }
        }
        r
    }

    fn pnt_err(&self, ctx: &SchedCtx<'_>, cpu: CpuId, err: SchedError, sched: Option<Schedulable>) {
        self.time(PNT_ERR, |p| p.pnt_err(ctx, cpu, err, sched))
    }

    fn reregister_prepare(&mut self) -> Option<TransferOut> {
        self.inner.reregister_prepare()
    }

    fn reregister_init(&mut self, state: Option<TransferIn>) {
        self.inner.reregister_init(state)
    }

    fn register_queue(&self, q: RingBuffer<Self::UserMsg>) -> i32 {
        self.time(REGISTER_QUEUE, |p| p.register_queue(q))
    }

    fn register_reverse_queue(&self, q: RingBuffer<Self::RevMsg>) -> i32 {
        self.time(REGISTER_REVERSE_QUEUE, |p| p.register_reverse_queue(q))
    }

    fn enter_queue(&self, ctx: &SchedCtx<'_>, id: i32) {
        self.time(ENTER_QUEUE, |p| p.enter_queue(ctx, id))
    }

    fn unregister_queue(&self, id: i32) -> Option<RingBuffer<Self::UserMsg>> {
        self.time(UNREGISTER_QUEUE, |p| p.unregister_queue(id))
    }

    fn unregister_rev_queue(&self, id: i32) -> Option<RingBuffer<Self::RevMsg>> {
        self.time(UNREGISTER_REV_QUEUE, |p| p.unregister_rev_queue(id))
    }

    fn parse_hint(&self, ctx: &SchedCtx<'_>, from: Pid, hint: Self::UserMsg) {
        self.time(PARSE_HINT, |p| p.parse_hint(ctx, from, hint))
    }

    fn attach_metrics(&self, metrics: &Arc<SchedulerMetrics>) {
        self.inner.attach_metrics(metrics)
    }
}

/// Host time one shard spent in each engine call, and per epoch.
#[derive(Clone, Debug, Default)]
pub struct ShardTrace {
    /// Host ns building the shard (the factory call).
    pub build_ns: u64,
    /// Host ns in `run_until`.
    pub run_until_ns: u64,
    /// Host ns in `collect`.
    pub collect_ns: u64,
    /// Host ns in `deliver`.
    pub deliver_ns: u64,
    /// `(host ns, simulated events)` of each epoch's `run_until`.
    pub epochs: Vec<(u64, u64)>,
}

impl ShardTrace {
    /// Host ns in every timed call, the factory included.
    pub fn busy_ns(&self) -> u64 {
        self.build_ns + self.run_until_ns + self.collect_ns + self.deliver_ns
    }
}

/// A cluster [`Shard`] that times every engine call into the wrapped
/// shard. Its output carries the inner output plus the [`ShardTrace`].
pub struct TimedShard<S> {
    inner: S,
    trace: ShardTrace,
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Wraps a shard factory so every shard it builds is a [`TimedShard`].
pub fn timed_factory<S, F>(factory: F) -> impl Fn(usize) -> Result<TimedShard<S>, SimError> + Sync
where
    S: Shard,
    F: Fn(usize) -> Result<S, SimError> + Sync,
{
    move |id| {
        let t0 = Instant::now();
        let inner = factory(id)?;
        let trace = ShardTrace {
            build_ns: elapsed_ns(t0),
            ..ShardTrace::default()
        };
        Ok(TimedShard { inner, trace })
    }
}

impl<S: Shard> Shard for TimedShard<S> {
    type Output = (S::Output, ShardTrace);

    fn run_until(&mut self, until: Ns) -> Result<(), SimError> {
        let e0 = self.inner.events_processed();
        let t0 = Instant::now();
        let r = self.inner.run_until(until);
        let d = elapsed_ns(t0);
        let events = self.inner.events_processed() - e0;
        self.trace.run_until_ns += d;
        self.trace.epochs.push((d, events));
        r
    }

    fn collect(&mut self, now: Ns, out: &mut Vec<(usize, WireMsg)>) {
        let t0 = Instant::now();
        self.inner.collect(now, out);
        self.trace.collect_ns += elapsed_ns(t0);
    }

    fn deliver(&mut self, from: usize, msg: WireMsg, at: Ns) -> Result<(), SimError> {
        let t0 = Instant::now();
        let r = self.inner.deliver(from, msg, at);
        self.trace.deliver_ns += elapsed_ns(t0);
        r
    }

    fn pending(&self) -> bool {
        self.inner.pending()
    }

    fn events_processed(&self) -> u64 {
        self.inner.events_processed()
    }

    fn finish(self) -> Self::Output {
        (self.inner.finish(), self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_are_ordered_and_tight() {
        let mut last = -1.0;
        for i in 0..BUCKETS {
            let v = Hist::value(i);
            assert!(v > last, "bucket {i} midpoint {v} <= {last}");
            last = v;
        }
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, u64::MAX / 3] {
            let mid = Hist::value(Hist::index(v));
            assert!(
                (mid - v as f64).abs() <= v as f64 / 16.0 + 0.5,
                "{v} -> {mid}"
            );
        }
    }

    #[test]
    fn hist_quantiles() {
        let h = Hist::default();
        assert_eq!(h.quantile(0.5), 0.0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        assert!((48.0..=53.0).contains(&p50), "p50 {p50}");
        assert!(h.quantile(0.99) >= p50);
    }
}
