//! The simulated multicore kernel.
//!
//! [`Machine`] owns cores, tasks, IPC state, and the stacked scheduling
//! classes, and advances virtual time by processing discrete events. It
//! reproduces the Linux core-scheduler call sequence the Enoki framework
//! interposes on: placement (`select_task_rq`), enqueue notifications
//! (`task_new` / `task_wakeup`), the balance-then-pick reschedule path,
//! periodic ticks, hrtimer preemption, and migrations.

use crate::behavior::{Behavior, BehaviorCtx, Op, PipeId};
use crate::costs::{CostModel, BALANCE_PERIOD, TICK_PERIOD};
use crate::event::{Event, EventQueue};
use crate::ipc::{FutexTable, Pipe, PipeOpResult};
use crate::sched_class::{Command, KernelCtx, SchedClass};
use crate::stats::MachineStats;
use crate::task::{BlockReason, Pid, Task, TaskState, WakeFlags};
use crate::time::Ns;
use crate::topology::{CpuId, CpuSet, Topology};
use crate::trace::{TraceEvent, Tracer};
use std::rc::Rc;

/// Fatal simulation errors — the events that would crash a real kernel.
#[derive(Debug)]
pub enum SimError {
    /// A scheduling class returned a task that is not runnable on the cpu.
    /// In a real kernel this dereferences invalid run-queue state and
    /// panics; the Enoki dispatch layer intercepts it before the kernel
    /// sees it (paper §3.1).
    BadPick {
        /// The cpu being scheduled.
        cpu: CpuId,
        /// The offending task.
        pid: Pid,
        /// Why the pick was invalid.
        reason: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadPick { cpu, pid, reason } => {
                write!(
                    f,
                    "kernel panic: bad pick of task {pid} on cpu {cpu}: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Specification for spawning a task.
pub struct TaskSpec {
    /// Task name for traces.
    pub name: String,
    /// Index of the scheduling class the task belongs to.
    pub class: usize,
    /// Nice value.
    pub nice: i32,
    /// Allowed cpus (defaults to all).
    pub affinity: Option<CpuSet>,
    /// Virtual time at which the task becomes runnable.
    pub start_at: Ns,
    /// Initial cpu hint passed as `prev_cpu` to the first placement.
    pub initial_cpu: CpuId,
    /// Whether timed sleeps bypass timer slack.
    pub precise_timers: bool,
    /// Whether the task pays cold-shared-data penalties on remote wakes.
    pub cache_sensitive: bool,
    /// Workload-defined tag for grouped statistics.
    pub tag: u32,
    /// The task's program.
    pub behavior: Box<dyn Behavior>,
}

impl TaskSpec {
    /// Creates a spec with defaults: nice 0, all cpus, start at time zero.
    pub fn new(name: impl Into<String>, class: usize, behavior: Box<dyn Behavior>) -> TaskSpec {
        TaskSpec {
            name: name.into(),
            class,
            nice: 0,
            affinity: None,
            start_at: Ns::ZERO,
            initial_cpu: 0,
            precise_timers: false,
            cache_sensitive: false,
            tag: 0,
            behavior,
        }
    }

    /// Sets the nice value.
    pub fn nice(mut self, nice: i32) -> TaskSpec {
        self.nice = nice;
        self
    }

    /// Sets the affinity mask.
    pub fn affinity(mut self, set: CpuSet) -> TaskSpec {
        self.affinity = Some(set);
        self
    }

    /// Sets the start time.
    pub fn at(mut self, t: Ns) -> TaskSpec {
        self.start_at = t;
        self
    }

    /// Sets the initial cpu hint.
    pub fn on_cpu(mut self, cpu: CpuId) -> TaskSpec {
        self.initial_cpu = cpu;
        self
    }

    /// Marks timed sleeps as slack-free.
    pub fn precise(mut self) -> TaskSpec {
        self.precise_timers = true;
        self
    }

    /// Marks the task cache-sensitive.
    pub fn cache_sensitive(mut self) -> TaskSpec {
        self.cache_sensitive = true;
        self
    }

    /// Sets the stats tag.
    pub fn tag(mut self, tag: u32) -> TaskSpec {
        self.tag = tag;
        self
    }
}

/// A periodic virtual-time observation callback (see
/// [`Machine::set_sampler`]). The callback sees the machine between
/// events, so task states, run-queue depths, and statistics are
/// internally consistent at every invocation.
pub type Sampler = Box<dyn FnMut(&Machine)>;

struct SamplerSlot {
    interval: Ns,
    next_due: Ns,
    cb: Sampler,
}

#[derive(Debug)]
struct Core {
    running: Option<Pid>,
    /// Last time the running task's runtime was accumulated.
    curr_accounted: Ns,
    need_resched: bool,
    tick_armed: bool,
    hr_gen: u64,
    /// A resched IPI is already in flight.
    ipi_pending: bool,
    /// Runnable tasks (including the running one) per class.
    nr_runnable: Vec<usize>,
    /// When the core last went idle (`Some` while idle; cores start idle).
    idle_since: Option<Ns>,
}

/// The simulated machine.
pub struct Machine {
    now: Ns,
    topo: Rc<Topology>,
    costs: CostModel,
    events: EventQueue,
    cores: Vec<Core>,
    tasks: Vec<Task>,
    /// Tasks in `TaskState::Dead`; bumped only by `exit_current`, the one
    /// place a task dies, so `live_tasks` needs no scan.
    nr_dead: usize,
    behaviors: Vec<Option<Box<dyn Behavior>>>,
    classes: Vec<Rc<dyn SchedClass>>,
    pipes: Vec<Pipe>,
    futexes: FutexTable,
    stats: MachineStats,
    /// Overhead accumulated by class calls, consumed by the current path.
    pending_overhead: Ns,
    balance_armed: bool,
    tracer: Option<Tracer>,
    sampler: Option<SamplerSlot>,
    /// Events handled since construction (throughput accounting for the
    /// cluster scaling harness).
    nr_events: u64,
}

impl Machine {
    /// Creates a machine with the given topology and cost model.
    pub fn new(topo: Topology, costs: CostModel) -> Machine {
        let nr = topo.nr_cpus();
        Machine {
            now: Ns::ZERO,
            topo: Rc::new(topo),
            costs,
            events: EventQueue::new(),
            cores: (0..nr)
                .map(|_| Core {
                    running: None,
                    curr_accounted: Ns::ZERO,
                    need_resched: false,
                    tick_armed: false,
                    hr_gen: 0,
                    ipi_pending: false,
                    nr_runnable: Vec::new(),
                    idle_since: Some(Ns::ZERO),
                })
                .collect(),
            tasks: Vec::new(),
            nr_dead: 0,
            behaviors: Vec::new(),
            pipes: Vec::new(),
            futexes: FutexTable::new(),
            stats: MachineStats::new(nr),
            classes: Vec::new(),
            pending_overhead: Ns::ZERO,
            balance_armed: false,
            tracer: None,
            sampler: None,
            nr_events: 0,
        }
    }

    /// Swaps the event queue for the reference `BinaryHeap` oracle.
    ///
    /// The differential determinism tests run the same workload on a
    /// wheel-backed and a heap-backed machine and assert identical traces.
    /// Anything already scheduled migrates over: popping in order and
    /// re-pushing re-assigns insertion sequence numbers in that same
    /// order, so the (time, seq) order is preserved exactly.
    pub fn use_reference_event_queue(&mut self) {
        let mut heap = EventQueue::reference_heap();
        while let Some((at, ev)) = self.events.pop() {
            heap.push(at, ev);
        }
        self.events = heap;
    }

    /// Arms scheduling-event tracing with a bounded ring of `capacity`
    /// events (see [`crate::trace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Some(Tracer::new(capacity));
    }

    /// The trace, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    fn trace(&mut self, ev: TraceEvent) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(ev);
        }
    }

    /// Registers a scheduling class. Classes are consulted in registration
    /// order on every pick: earlier classes have strictly higher priority.
    pub fn add_class(&mut self, class: Rc<dyn SchedClass>) -> usize {
        let idx = self.classes.len();
        self.classes.push(class);
        self.stats.class_busy.push(Ns::ZERO);
        for core in &mut self.cores {
            core.nr_runnable.push(0);
        }
        if self.classes[idx].wants_periodic_balance() && !self.balance_armed {
            self.balance_armed = true;
            for cpu in 0..self.cores.len() {
                self.events
                    .push(self.now + BALANCE_PERIOD, Event::BalanceTick { cpu });
            }
        }
        idx
    }

    /// Creates a pipe and returns its id.
    pub fn create_pipe(&mut self) -> PipeId {
        self.pipes.push(Pipe::new());
        self.pipes.len() - 1
    }

    /// Spawns a task; it becomes runnable at `spec.start_at`.
    pub fn spawn(&mut self, spec: TaskSpec) -> Pid {
        assert!(spec.class < self.classes.len(), "unknown sched class");
        let pid = self.tasks.len();
        let affinity = spec.affinity.unwrap_or_else(|| self.topo.all_cpus());
        assert!(
            !affinity.and(&self.topo.all_cpus()).is_empty(),
            "empty affinity"
        );
        let mut t = Task::new(pid, spec.name, spec.class, spec.nice, affinity);
        t.cpu = spec.initial_cpu.min(self.topo.nr_cpus() - 1);
        t.precise_timers = spec.precise_timers;
        t.cache_sensitive = spec.cache_sensitive;
        t.tag = spec.tag;
        self.tasks.push(t);
        self.behaviors.push(Some(spec.behavior));
        self.events.push(spec.start_at, Event::TaskArrival { pid });
        pid
    }

    /// Current virtual time.
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Machine topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Run statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Current run-queue depth on `cpu`: runnable tasks queued there
    /// (including the running one) summed across scheduling classes.
    pub fn runqueue_depth(&self, cpu: CpuId) -> usize {
        self.cores[cpu].nr_runnable.iter().sum()
    }

    /// Total idle time accumulated by `cpu`, including the in-progress
    /// idle period if the core is idle right now.
    pub fn idle_time(&self, cpu: CpuId) -> Ns {
        let live = self.cores[cpu]
            .idle_since
            .map_or(Ns::ZERO, |since| self.now.saturating_sub(since));
        self.stats.cpu_idle[cpu] + live
    }

    /// Read access to a task control block (for post-run reporting).
    pub fn task(&self, pid: Pid) -> &Task {
        &self.tasks[pid]
    }

    /// Number of tasks ever spawned, dead ones included. O(1).
    pub fn nr_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Total simulation events handled since construction. The cluster
    /// scaling harness sums this across machines to compute events/sec.
    pub fn events_processed(&self) -> u64 {
        self.nr_events
    }

    /// Events currently queued (timers, arrivals, pending work). Zero
    /// means the machine is quiescent: `run_until` would only advance the
    /// clock. An introspection helper for harnesses and diagnostics —
    /// cluster termination is decided by `Shard::pending`, which
    /// deliberately ignores pure idle load (e.g. rearmed balance timers)
    /// that this count would include.
    pub fn nr_pending_events(&self) -> usize {
        self.events.len()
    }

    /// Injects an external event — a cross-machine stimulus such as an
    /// IPC wakeup from a peer machine in a cluster — into this machine's
    /// timeline at virtual time `at` (clamped to now).
    ///
    /// When handled, the event counts in
    /// [`MachineStats::nr_externals`](crate::stats::MachineStats) and, if
    /// the low bit of `tag` is set, kicks the cpu in bits `1..8` of the
    /// tag with a reschedule interrupt — modelling the IPI a remote
    /// machine's message would raise. The remaining tag bits are
    /// workload-defined.
    pub fn inject_external(&mut self, at: Ns, tag: u64) {
        self.events.push(at.max(self.now), Event::External { tag });
    }

    /// Number of tasks not yet dead. O(1): a counter, not a scan, so
    /// `run_until` and `run_to_completion` can consult it every call on a
    /// machine that has spawned (and reaped) thousands of tasks.
    ///
    /// `New` tasks (spawned with a future `start_at`), runnable, running
    /// and blocked tasks all count as live.
    pub fn live_tasks(&self) -> usize {
        self.tasks.len() - self.nr_dead
    }

    /// The cost model in use.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Clears latency histograms (call after a warmup window so reported
    /// percentiles cover only the measurement window).
    pub fn reset_latency_stats(&mut self) {
        self.stats.wakeup_latency.reset();
        self.stats.wakeup_by_tag.clear();
    }

    /// Moves a task to a different scheduling class (policy switch).
    ///
    /// The old class receives `task_departed`; the new class will receive
    /// `task_new` when the task is next enqueued.
    pub fn switch_class(&mut self, pid: Pid, new_class: usize) -> Result<(), SimError> {
        assert!(new_class < self.classes.len());
        let old = self.tasks[pid].class;
        if old == new_class {
            return Ok(());
        }
        let state = self.tasks[pid].state;
        assert!(
            state != TaskState::Running,
            "cannot switch class of a running task"
        );
        let view = self.tasks[pid].view();
        if self.tasks[pid].on_rq {
            let cpu = self.tasks[pid].cpu;
            self.cores[cpu].nr_runnable[old] -= 1;
            self.class_call(old, Some(cpu), |c, k| c.task_departed(k, &view))?;
            let t = &mut self.tasks[pid];
            t.class = new_class;
            t.seen_by_class = false;
            t.on_rq = false;
            t.state = TaskState::Blocked;
            t.block_reason = Some(BlockReason::Parked);
            // Re-enter through the normal wake path so the new class gets
            // placement control.
            self.wake_task(
                pid,
                WakeFlags {
                    sync: false,
                    fork: true,
                    waker: None,
                },
                None,
            )?;
        } else {
            if self.tasks[pid].seen_by_class {
                self.class_call(old, None, |c, k| c.task_departed(k, &view))?;
            }
            let t = &mut self.tasks[pid];
            t.class = new_class;
            t.seen_by_class = false;
        }
        Ok(())
    }

    /// Arms a periodic observation callback: `cb` runs with a shared view
    /// of the machine every `interval` of virtual time, starting one
    /// interval from now. Sampling happens between events — never inside
    /// one — so the observed state is always consistent, and firing is
    /// deterministic for a given event sequence. Replaces any previously
    /// armed sampler. Watchdogs and time-series telemetry hook in here.
    pub fn set_sampler(&mut self, interval: Ns, cb: Sampler) {
        assert!(interval > Ns::ZERO, "sampler interval must be non-zero");
        self.sampler = Some(SamplerSlot {
            interval,
            next_due: self.now + interval,
            cb,
        });
    }

    /// Disarms the periodic sampler, returning whether one was armed.
    pub fn clear_sampler(&mut self) -> bool {
        self.sampler.take().is_some()
    }

    /// Schedules a dispatch probe: a reschedule interrupt on `cpu` at
    /// virtual time `at` (clamped to now). The pick it forces guarantees
    /// the scheduler class a dispatch point at a chosen instant even on an
    /// otherwise quiet cpu. Fault plans armed in virtual time are wired
    /// through this (see `MachineBuilder::faults`) so every fault's arm
    /// time is promptly followed by a dispatch point able to detonate it.
    pub fn schedule_probe(&mut self, at: Ns, cpu: CpuId) {
        self.events.push(at.max(self.now), Event::ReschedIpi { cpu });
    }

    /// Fires the sampler for every due point `<= limit`, advancing virtual
    /// time to each due point. The slot is taken out of `self` for the
    /// callback so the closure can borrow the machine shared.
    fn fire_sampler_until(&mut self, limit: Ns) {
        while let Some(due) = self.sampler.as_ref().map(|s| s.next_due) {
            if due > limit {
                break;
            }
            let mut slot = self.sampler.take().expect("sampler checked above");
            self.now = self.now.max(due);
            (slot.cb)(self);
            slot.next_due = due + slot.interval;
            // A re-arm from inside the callback is impossible (it only has
            // `&Machine`), so the slot always goes back.
            self.sampler = Some(slot);
        }
    }

    /// Runs the simulation until virtual time `t` (or until quiescent).
    pub fn run_until(&mut self, t: Ns) -> Result<(), SimError> {
        loop {
            let at = match self.events.peek_time() {
                None => break,
                Some(at) if at > t => break,
                Some(at) => at,
            };
            self.fire_sampler_until(at);
            let (_, ev) = self.events.pop().expect("peeked event");
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.nr_events += 1;
            self.handle(ev)?;
        }
        // Flush sampler points across the trailing idle stretch — but not
        // for a machine with nothing left alive (a run_to_completion chunk
        // can overshoot the last task's exit by tens of ms; sampling a
        // dead machine is pure overhead).
        if self.live_tasks() > 0 {
            self.fire_sampler_until(t);
        }
        self.now = self.now.max(t);
        Ok(())
    }

    /// Runs until all tasks are dead or `limit` is reached. Returns whether
    /// every task exited.
    pub fn run_to_completion(&mut self, limit: Ns) -> Result<bool, SimError> {
        // Chunked so we can stop promptly once every task has exited.
        let chunk = Ns::from_ms(50);
        while self.now < limit {
            if self.live_tasks() == 0 {
                return Ok(true);
            }
            if self.events.is_empty() {
                break;
            }
            let next = (self.now + chunk).min(limit);
            self.run_until(next)?;
        }
        Ok(self.live_tasks() == 0)
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event) -> Result<(), SimError> {
        match ev {
            Event::TaskArrival { pid } => {
                if self.tasks[pid].state == TaskState::New {
                    self.tasks[pid].state = TaskState::Blocked;
                    self.tasks[pid].block_reason = Some(BlockReason::Parked);
                    self.wake_task(
                        pid,
                        WakeFlags {
                            sync: false,
                            fork: true,
                            waker: None,
                        },
                        None,
                    )?;
                }
                Ok(())
            }
            Event::OpDone { cpu, pid, gen } => {
                if self.tasks[pid].gen != gen || self.cores[cpu].running != Some(pid) {
                    return Ok(()); // stale (task was preempted or blocked)
                }
                self.update_curr(cpu);
                let t = &mut self.tasks[pid];
                t.in_burst = false;
                t.pending_compute = Ns::ZERO;
                self.advance_task(cpu, pid, Ns::ZERO)
            }
            Event::RunTask { cpu, pid, gen } => {
                if self.tasks[pid].gen != gen || self.cores[cpu].running != Some(pid) {
                    return Ok(()); // stale
                }
                self.update_curr(cpu);
                self.advance_task(cpu, pid, Ns::ZERO)
            }
            Event::Tick { cpu } => self.handle_tick(cpu),
            Event::SleepTimer { pid, gen } => {
                let ok = self.tasks[pid].gen == gen
                    && self.tasks[pid].state == TaskState::Blocked
                    && matches!(self.tasks[pid].block_reason, Some(BlockReason::Sleep));
                if ok {
                    self.wake_task(pid, WakeFlags::default(), None)?;
                }
                Ok(())
            }
            Event::HrTimer { cpu, gen } => {
                if self.cores[cpu].hr_gen == gen && self.cores[cpu].running.is_some() {
                    self.resched(cpu, self.costs.tick)?;
                }
                Ok(())
            }
            Event::ReschedIpi { cpu } => {
                self.cores[cpu].ipi_pending = false;
                let base = if self.cores[cpu].running.is_none() {
                    self.costs.idle_exit
                } else {
                    Ns::ZERO
                };
                self.resched(cpu, base)
            }
            Event::BalanceTick { cpu } => self.handle_balance_tick(cpu),
            Event::External { tag } => {
                // A cross-machine stimulus (see `inject_external`). Tag
                // bit 0 requests a reschedule kick on the cpu in bits
                // 1..8 — the simulated IPI a remote machine's IPC raises.
                self.stats.nr_externals += 1;
                if tag & 1 != 0 {
                    let cpu = ((tag >> 1) & 0x7f) as usize % self.cores.len();
                    self.events.push(self.now, Event::ReschedIpi { cpu });
                }
                Ok(())
            }
        }
    }

    fn handle_tick(&mut self, cpu: CpuId) -> Result<(), SimError> {
        let Some(pid) = self.cores[cpu].running else {
            self.cores[cpu].tick_armed = false;
            return Ok(());
        };
        self.stats.nr_ticks += 1;
        self.update_curr(cpu);
        let ci = self.tasks[pid].class;
        let view = self.tasks[pid].view();
        self.class_call(ci, Some(cpu), |c, k| c.task_tick(k, cpu, &view))?;
        self.events
            .push(self.now + TICK_PERIOD, Event::Tick { cpu });
        if self.cores[cpu].need_resched {
            self.resched(cpu, self.costs.tick)?;
        }
        Ok(())
    }

    fn handle_balance_tick(&mut self, cpu: CpuId) -> Result<(), SimError> {
        for ci in 0..self.classes.len() {
            if !self.classes[ci].wants_periodic_balance() {
                continue;
            }
            let pulled = self.try_balance(ci, cpu)?;
            if pulled && self.cores[cpu].running.is_none() {
                self.kick_cpu(cpu, None);
            }
        }
        self.events
            .push(self.now + BALANCE_PERIOD, Event::BalanceTick { cpu });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Class-call plumbing
    // ------------------------------------------------------------------

    /// Invokes a scheduling-class callback and applies its commands.
    ///
    /// `origin` is the cpu on whose kernel path the call executes; local
    /// resched requests become flags while remote ones become IPIs.
    fn class_call<R>(
        &mut self,
        ci: usize,
        origin: Option<CpuId>,
        f: impl FnOnce(&dyn SchedClass, &KernelCtx) -> R,
    ) -> Result<R, SimError> {
        let class = self.classes[ci].clone();
        let k = KernelCtx::new(self.now, self.topo.clone());
        let r = f(&*class, &k);
        self.stats.nr_class_calls += 1;
        self.pending_overhead += class.call_overhead();
        let cmds = k.take_commands();
        self.apply_commands(cmds, origin)?;
        Ok(r)
    }

    fn apply_commands(
        &mut self,
        cmds: Vec<Command>,
        origin: Option<CpuId>,
    ) -> Result<(), SimError> {
        for cmd in cmds {
            match cmd {
                Command::Resched(c) => {
                    if Some(c) == origin {
                        self.cores[c].need_resched = true;
                        if self.cores[c].running.is_none() {
                            self.kick_cpu(c, origin);
                        }
                    } else {
                        self.kick_cpu(c, origin);
                    }
                }
                Command::StartPreemptTimer(c, d) => {
                    self.cores[c].hr_gen += 1;
                    let gen = self.cores[c].hr_gen;
                    self.pending_overhead += self.costs.hrtimer_start;
                    self.events
                        .push(self.now + d, Event::HrTimer { cpu: c, gen });
                }
                Command::FutexWake(key, n) => {
                    for pid in self.futexes.wake(key, n) {
                        self.wake_task(pid, WakeFlags::default(), origin)?;
                    }
                }
                Command::WakeTask(pid) => {
                    if self.tasks[pid].state == TaskState::Blocked {
                        if let Some(BlockReason::Futex(key)) = self.tasks[pid].block_reason {
                            self.futexes.remove_waiter(key, pid);
                        }
                        self.wake_task(pid, WakeFlags::default(), origin)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Sends a reschedule kick to `cpu` (IPI if from another cpu).
    fn kick_cpu(&mut self, cpu: CpuId, origin: Option<CpuId>) {
        if self.cores[cpu].ipi_pending {
            return;
        }
        self.cores[cpu].ipi_pending = true;
        let delay = if origin == Some(cpu) {
            Ns::ZERO
        } else {
            self.costs.ipi
        };
        if origin != Some(cpu) {
            self.stats.nr_ipis += 1;
        }
        self.events
            .push(self.now + delay, Event::ReschedIpi { cpu });
    }

    // ------------------------------------------------------------------
    // Wakeup and placement
    // ------------------------------------------------------------------

    fn wake_task(
        &mut self,
        pid: Pid,
        flags: WakeFlags,
        waker_cpu: Option<CpuId>,
    ) -> Result<(), SimError> {
        if self.tasks[pid].state != TaskState::Blocked {
            return Ok(());
        }
        let flags = WakeFlags {
            waker: waker_cpu,
            ..flags
        };
        self.pending_overhead += self.costs.wakeup;
        let ci = self.tasks[pid].class;
        let prev_cpu = self.tasks[pid].cpu;
        let view = self.tasks[pid].view();
        let mut cpu = self.class_call(ci, waker_cpu, |c, k| {
            c.select_task_rq(k, &view, prev_cpu, flags)
        })?;
        if cpu >= self.topo.nr_cpus() || !self.tasks[pid].affinity.contains(cpu) {
            // The kernel clamps bogus placements to the affinity mask.
            cpu = if self.tasks[pid].affinity.contains(prev_cpu) {
                prev_cpu
            } else {
                self.tasks[pid]
                    .affinity
                    .iter()
                    .next()
                    .expect("non-empty affinity")
            };
        }

        // Cache penalties: cold shared data on remote wakes (opt-in) and
        // cache refill when the task changes cpus.
        let mut penalty = Ns::ZERO;
        if self.tasks[pid].cache_sensitive {
            if let Some(w) = waker_cpu {
                if w != cpu {
                    penalty = penalty.max(self.costs.cold_wake_penalty);
                }
            }
        }
        if cpu != prev_cpu {
            let refill = if self.topo.same_node(cpu, prev_cpu) {
                self.costs.cache_refill_local
            } else {
                self.costs.cache_refill_remote
            };
            penalty = penalty.max(refill);
        }

        {
            let t = &mut self.tasks[pid];
            t.cpu = cpu;
            t.state = TaskState::Runnable;
            t.block_reason = None;
            t.on_rq = true;
            t.last_wake = Some(self.now);
            t.runnable_since = Some(self.now);
            t.cache_penalty_pending = t.cache_penalty_pending.max(penalty);
        }
        self.cores[cpu].nr_runnable[ci] += 1;

        self.trace(TraceEvent::Wakeup {
            at: self.now,
            pid,
            cpu,
        });
        let view = self.tasks[pid].view();
        if self.tasks[pid].seen_by_class {
            self.class_call(ci, waker_cpu, |c, k| c.task_wakeup(k, &view, flags))?;
        } else {
            self.tasks[pid].seen_by_class = true;
            self.class_call(ci, waker_cpu, |c, k| c.task_new(k, &view))?;
        }

        // Kick the target cpu if it is idle, or if it is running a task of
        // a strictly lower-priority class (class preemption is kernel
        // policy, not scheduler policy).
        match self.cores[cpu].running {
            None => self.kick_cpu(cpu, waker_cpu),
            Some(curr) => {
                if self.tasks[curr].class > ci {
                    self.kick_cpu(cpu, waker_cpu);
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The reschedule path: balance, pick, switch
    // ------------------------------------------------------------------

    fn resched(&mut self, cpu: CpuId, base: Ns) -> Result<(), SimError> {
        self.cores[cpu].need_resched = false;
        let mut cost = base + self.costs.pick_path;
        let prev = self.cores[cpu].running;
        let mut prev_view = None;

        if let Some(p) = prev {
            self.update_curr(cpu); // also refreshes pending_compute for bursts
            let t = &mut self.tasks[p];
            t.state = TaskState::Runnable;
            t.runnable_since = Some(self.now);
            t.nr_preemptions += 1;
            t.gen += 1; // invalidate any in-flight OpDone
            let view = t.view();
            let ci = t.class;
            prev_view = Some((ci, view));
            self.class_call(ci, Some(cpu), |c, k| c.task_preempt(k, &view))?;
            self.cores[cpu].running = None;
        }

        let picked = self.pick_all_classes(cpu, prev_view.as_ref())?;
        cost += std::mem::take(&mut self.pending_overhead);

        match picked {
            None => {
                self.stats.nr_idle_picks += 1;
                self.stats.cpu_sched_overhead[cpu] += cost;
                self.trace(TraceEvent::Idle { at: self.now, cpu });
                self.cores[cpu].idle_since.get_or_insert(self.now);
                // Core goes idle; ticks lapse on their own.
            }
            Some(pid) => {
                if prev == Some(pid) {
                    // Continue running the same task: no context switch.
                    self.switch_in(cpu, pid, cost, false)?;
                } else {
                    cost += if prev.is_some() {
                        self.costs.ctx_switch
                    } else {
                        self.costs.ctx_switch_from_idle
                    };
                    self.switch_in(cpu, pid, cost, true)?;
                }
            }
        }
        Ok(())
    }

    fn pick_all_classes(
        &mut self,
        cpu: CpuId,
        prev: Option<&(usize, crate::task::TaskView)>,
    ) -> Result<Option<Pid>, SimError> {
        for ci in 0..self.classes.len() {
            // Balance before pick: this is one of the four per-schedule
            // invocations the paper attributes Enoki's overhead to (§5.2).
            self.try_balance(ci, cpu)?;
            let curr = prev.and_then(|(pci, v)| if *pci == ci { Some(*v) } else { None });
            let pid = self.class_call(ci, Some(cpu), |c, k| {
                c.pick_next_task(k, cpu, curr.as_ref())
            })?;
            if let Some(pid) = pid {
                self.validate_pick(ci, cpu, pid)?;
                return Ok(Some(pid));
            }
        }
        Ok(None)
    }

    fn validate_pick(&mut self, ci: usize, cpu: CpuId, pid: Pid) -> Result<(), SimError> {
        let reason = if pid >= self.tasks.len() {
            Some("no such task".to_string())
        } else {
            let t = &self.tasks[pid];
            if !t.on_rq {
                Some("task not on any run queue".to_string())
            } else if t.cpu != cpu {
                Some(format!("task is queued on cpu {}, not cpu {cpu}", t.cpu))
            } else if t.state != TaskState::Runnable {
                Some(format!("task state is {:?}", t.state))
            } else if t.class != ci {
                Some("task belongs to a different class".to_string())
            } else {
                None
            }
        };
        if let Some(reason) = reason {
            self.stats.nr_pick_rejects += 1;
            let _ = self.class_call(ci, Some(cpu), |c, k| c.pick_rejected(k, cpu, pid));
            return Err(SimError::BadPick { cpu, pid, reason });
        }
        Ok(())
    }

    fn try_balance(&mut self, ci: usize, cpu: CpuId) -> Result<bool, SimError> {
        let Some(bpid) = self.class_call(ci, Some(cpu), |c, k| c.balance(k, cpu))? else {
            return Ok(false);
        };
        self.pending_overhead += self.costs.balance;
        let valid = bpid < self.tasks.len() && {
            let t = &self.tasks[bpid];
            t.on_rq
                && t.state == TaskState::Runnable
                && t.class == ci
                && t.cpu != cpu
                && t.affinity.contains(cpu)
        };
        if !valid {
            self.class_call(ci, Some(cpu), |c, k| c.balance_err(k, cpu, bpid))?;
            return Ok(false);
        }
        self.migrate(ci, bpid, cpu)?;
        Ok(true)
    }

    fn migrate(&mut self, ci: usize, pid: Pid, to: CpuId) -> Result<(), SimError> {
        let from = self.tasks[pid].cpu;
        self.cores[from].nr_runnable[ci] -= 1;
        self.cores[to].nr_runnable[ci] += 1;
        {
            let t = &mut self.tasks[pid];
            t.cpu = to;
            t.nr_migrations += 1;
            let refill = if self.topo.same_node(from, to) {
                self.costs.cache_refill_local
            } else {
                self.costs.cache_refill_remote
            };
            t.cache_penalty_pending = t.cache_penalty_pending.max(refill);
        }
        self.stats.nr_migrations += 1;
        self.stats.cpu_migrations[to] += 1;
        self.trace(TraceEvent::Migrate {
            at: self.now,
            pid,
            from,
            to,
        });
        self.pending_overhead += self.costs.migration;
        let view = self.tasks[pid].view();
        self.class_call(ci, Some(to), |c, k| c.migrate_task_rq(k, &view, from, to))?;
        Ok(())
    }

    fn switch_in(
        &mut self,
        cpu: CpuId,
        pid: Pid,
        cost: Ns,
        is_switch: bool,
    ) -> Result<(), SimError> {
        let start = self.now + cost;
        self.stats.cpu_sched_overhead[cpu] += cost;
        if let Some(since) = self.cores[cpu].idle_since.take() {
            self.stats.cpu_idle[cpu] += self.now.saturating_sub(since);
        }
        if is_switch {
            self.stats.nr_context_switches += 1;
            self.stats.cpu_context_switches[cpu] += 1;
            self.trace(TraceEvent::SwitchIn {
                at: start,
                cpu,
                pid,
            });
        }
        self.cores[cpu].running = Some(pid);
        self.cores[cpu].curr_accounted = start;
        if !self.cores[cpu].tick_armed {
            self.cores[cpu].tick_armed = true;
            self.events.push(start + TICK_PERIOD, Event::Tick { cpu });
        }
        {
            let t = &mut self.tasks[pid];
            t.state = TaskState::Running;
            t.runnable_since = None;
            t.delta_runtime = Ns::ZERO;
            t.last_ran_at = start;
            if t.first_ran_at.is_none() {
                t.first_ran_at = Some(start);
            }
        }
        if let Some(w) = self.tasks[pid].last_wake.take() {
            let lat = start.saturating_sub(w);
            self.stats.wakeup_latency.record(lat);
            let tag = self.tasks[pid].tag;
            self.stats.wakeup_by_tag.entry(tag).or_default().record(lat);
        }
        if self.tasks[pid].in_burst {
            // Resume the interrupted burst.
            let t = &mut self.tasks[pid];
            let dur = t.pending_compute;
            t.gen += 1;
            let gen = t.gen;
            self.events
                .push(start + dur, Event::OpDone { cpu, pid, gen });
        } else {
            // Defer program advancement through the event queue so chains
            // of zero-compute syscalls iterate instead of recursing.
            let t = &mut self.tasks[pid];
            t.gen += 1;
            let gen = t.gen;
            self.events.push(start, Event::RunTask { cpu, pid, gen });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Task program execution
    // ------------------------------------------------------------------

    /// Advances a running task's program until it computes, blocks, yields,
    /// or exits. `elapsed` carries kernel-path cost already spent at entry.
    fn advance_task(&mut self, cpu: CpuId, pid: Pid, mut elapsed: Ns) -> Result<(), SimError> {
        debug_assert_eq!(self.cores[cpu].running, Some(pid));
        let ctx = BehaviorCtx {
            now: self.now,
            pid,
            cpu,
        };
        let op = {
            let b = self.behaviors[pid]
                .as_mut()
                .expect("live task has behavior");
            b.next_op(&ctx)
        };
        match op {
            Op::Compute(d) => {
                let t = &mut self.tasks[pid];
                let dur = d + std::mem::take(&mut t.cache_penalty_pending);
                t.in_burst = true;
                t.pending_compute = dur;
                t.gen += 1;
                let gen = t.gen;
                self.events
                    .push(self.now + elapsed + dur, Event::OpDone { cpu, pid, gen });
                return Ok(());
            }
            Op::PipeWrite(id) => {
                elapsed += self.costs.pipe_write;
                if self.pipes[id].touch(cpu) {
                    elapsed += self.costs.cacheline_bounce;
                }
                match self.pipes[id].write() {
                    PipeOpResult::Done(reader) => {
                        if let Some(r) = reader {
                            self.wake_task(
                                r,
                                WakeFlags {
                                    sync: true,
                                    fork: false,
                                    waker: None,
                                },
                                Some(cpu),
                            )?;
                        }
                    }
                    PipeOpResult::WouldBlock => {
                        self.pipes[id].add_writer(pid);
                        return self.block_current(
                            cpu,
                            pid,
                            BlockReason::PipeWrite(id),
                            elapsed,
                        );
                    }
                }
            }
            Op::PipeRead(id) => {
                elapsed += self.costs.pipe_read;
                if self.pipes[id].touch(cpu) {
                    elapsed += self.costs.cacheline_bounce;
                }
                match self.pipes[id].read() {
                    PipeOpResult::Done(writer) => {
                        if let Some(w) = writer {
                            self.wake_task(w, WakeFlags::default(), Some(cpu))?;
                        }
                    }
                    PipeOpResult::WouldBlock => {
                        self.pipes[id].add_reader(pid);
                        return self.block_current(
                            cpu,
                            pid,
                            BlockReason::PipeRead(id),
                            elapsed,
                        );
                    }
                }
            }
            Op::Sleep(d) => {
                elapsed += self.costs.sleep_syscall;
                let slack = if self.tasks[pid].precise_timers {
                    Ns::ZERO
                } else {
                    self.costs.timer_slack
                };
                let wake_at = self.now + elapsed + d + slack;
                return self.block_for_sleep(cpu, pid, wake_at, elapsed);
            }
            Op::FutexWait(key) => {
                elapsed += self.costs.futex_wait;
                if !self.futexes.wait(key, pid) {
                    return self.block_current(cpu, pid, BlockReason::Futex(key), elapsed);
                }
                // A pending wake was consumed; continue without blocking.
            }
            Op::FutexWake(key, n) => {
                elapsed += self.costs.futex_wake;
                for p in self.futexes.wake(key, n) {
                    self.wake_task(p, WakeFlags::default(), Some(cpu))?;
                }
            }
            Op::Hint(h) => {
                elapsed += self.costs.hint_deliver;
                let ci = self.tasks[pid].class;
                self.class_call(ci, Some(cpu), |c, k| c.deliver_hint(k, pid, h))?;
            }
            Op::Yield => {
                return self.yield_current(cpu, pid, elapsed);
            }
            Op::SetNice(n) => {
                self.update_curr(cpu);
                self.tasks[pid].set_nice(n);
                let ci = self.tasks[pid].class;
                let view = self.tasks[pid].view();
                self.class_call(ci, Some(cpu), |c, k| c.task_prio_changed(k, &view))?;
            }
            Op::SetAffinity(mask) => {
                let set = CpuSet::from_mask(mask).and(&self.topo.all_cpus());
                assert!(!set.is_empty(), "empty affinity mask");
                self.tasks[pid].affinity = set;
                let ci = self.tasks[pid].class;
                let view = self.tasks[pid].view();
                self.class_call(ci, Some(cpu), |c, k| c.task_affinity_changed(k, &view))?;
                if !set.contains(cpu) {
                    // Must move off this cpu: park and rewake through
                    // the placement path.
                    self.update_curr(cpu);
                    let ci = self.tasks[pid].class;
                    {
                        let t = &mut self.tasks[pid];
                        t.state = TaskState::Blocked;
                        t.block_reason = Some(BlockReason::Parked);
                        t.on_rq = false;
                        t.in_burst = false;
                        t.gen += 1;
                    }
                    self.cores[cpu].nr_runnable[ci] -= 1;
                    let view = self.tasks[pid].view();
                    self.class_call(ci, Some(cpu), |c, k| c.task_blocked(k, &view))?;
                    self.cores[cpu].running = None;
                    self.wake_task(pid, WakeFlags::default(), Some(cpu))?;
                    return self.resched(cpu, elapsed);
                }
            }
            Op::Exit => {
                return self.exit_current(cpu, pid, elapsed);
            }
        }
        if self.cores[cpu].need_resched {
            // A wakeup we caused preempts us between ops.
            self.tasks[pid].in_burst = false;
            return self.resched(cpu, elapsed);
        }
        // Requeue the rest of the program as a fresh event so events on
        // other cpus interleave at op granularity (otherwise chains of
        // non-blocking syscalls would execute atomically and, e.g.,
        // pipe ping-pong would batch instead of alternating).
        let t = &mut self.tasks[pid];
        t.gen += 1;
        let gen = t.gen;
        self.events
            .push(self.now + elapsed, Event::RunTask { cpu, pid, gen });
        Ok(())
    }

    /// Blocks the current task on a sleep and arms its wake timer with the
    /// post-block generation (so the timer is not treated as stale).
    fn block_for_sleep(
        &mut self,
        cpu: CpuId,
        pid: Pid,
        wake_at: Ns,
        elapsed: Ns,
    ) -> Result<(), SimError> {
        self.update_curr(cpu);
        let ci = self.tasks[pid].class;
        {
            let t = &mut self.tasks[pid];
            t.state = TaskState::Blocked;
            t.block_reason = Some(BlockReason::Sleep);
            t.on_rq = false;
            t.in_burst = false;
            t.nr_voluntary += 1;
            t.gen += 1;
        }
        let gen = self.tasks[pid].gen;
        self.events.push(wake_at, Event::SleepTimer { pid, gen });
        self.cores[cpu].nr_runnable[ci] -= 1;
        let view = self.tasks[pid].view();
        self.class_call(ci, Some(cpu), |c, k| c.task_blocked(k, &view))?;
        self.cores[cpu].running = None;
        self.resched(cpu, elapsed)
    }

    fn block_current(
        &mut self,
        cpu: CpuId,
        pid: Pid,
        reason: BlockReason,
        elapsed: Ns,
    ) -> Result<(), SimError> {
        self.update_curr(cpu);
        let ci = self.tasks[pid].class;
        {
            let t = &mut self.tasks[pid];
            t.state = TaskState::Blocked;
            t.block_reason = Some(reason);
            t.on_rq = false;
            t.in_burst = false;
            t.nr_voluntary += 1;
            t.gen += 1;
        }
        self.cores[cpu].nr_runnable[ci] -= 1;
        let view = self.tasks[pid].view();
        self.class_call(ci, Some(cpu), |c, k| c.task_blocked(k, &view))?;
        self.cores[cpu].running = None;
        self.resched(cpu, elapsed)
    }

    fn yield_current(&mut self, cpu: CpuId, pid: Pid, elapsed: Ns) -> Result<(), SimError> {
        self.update_curr(cpu);
        let ci = self.tasks[pid].class;
        {
            let t = &mut self.tasks[pid];
            t.state = TaskState::Runnable;
            t.runnable_since = Some(self.now);
            t.in_burst = false;
            t.nr_voluntary += 1;
            t.gen += 1;
        }
        let view = self.tasks[pid].view();
        self.class_call(ci, Some(cpu), |c, k| c.task_yield(k, &view))?;
        self.cores[cpu].running = None;
        self.resched(cpu, elapsed)
    }

    fn exit_current(&mut self, cpu: CpuId, pid: Pid, elapsed: Ns) -> Result<(), SimError> {
        self.update_curr(cpu);
        let ci = self.tasks[pid].class;
        {
            let t = &mut self.tasks[pid];
            t.state = TaskState::Dead;
            t.on_rq = false;
            t.in_burst = false;
            t.exited_at = Some(self.now);
            t.gen += 1;
        }
        self.nr_dead += 1;
        self.cores[cpu].nr_runnable[ci] -= 1;
        self.behaviors[pid] = None;
        self.class_call(ci, Some(cpu), |c, k| c.task_dead(k, pid))?;
        self.cores[cpu].running = None;
        self.resched(cpu, elapsed)
    }

    /// Accrues runtime of the task currently running on `cpu` up to `now`.
    fn update_curr(&mut self, cpu: CpuId) {
        let Some(pid) = self.cores[cpu].running else {
            return;
        };
        let last = self.cores[cpu].curr_accounted;
        if self.now <= last {
            return;
        }
        let delta = self.now - last;
        self.cores[cpu].curr_accounted = self.now;
        let ci = self.tasks[pid].class;
        {
            let t = &mut self.tasks[pid];
            t.runtime += delta;
            t.delta_runtime += delta;
            if t.in_burst {
                t.pending_compute = t.pending_compute.saturating_sub(delta);
            }
        }
        self.stats.cpu_busy[cpu] += delta;
        self.stats.class_busy[ci] += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{closure_behavior, Op, ProgramBehavior};
    use crate::fifo_ref::RefFifo;
    use crate::ipc::PIPE_CAPACITY;
    use crate::topology::Topology;

    fn machine() -> Machine {
        let mut m = Machine::new(Topology::i7_9700(), CostModel::calibrated());
        m.add_class(Rc::new(RefFifo::new(8)));
        m
    }

    #[test]
    fn writer_blocks_on_full_pipe_until_reader_drains() {
        let mut m = machine();
        let p = m.create_pipe();
        let writes = (PIPE_CAPACITY + 4) as u64;
        let writer = m.spawn(TaskSpec::new(
            "writer",
            0,
            Box::new(ProgramBehavior::repeat(vec![Op::PipeWrite(p)], writes)),
        ));
        // Reader starts late, so the writer hits the capacity wall first.
        let reader = m.spawn(
            TaskSpec::new(
                "reader",
                0,
                Box::new(ProgramBehavior::repeat(vec![Op::PipeRead(p)], writes)),
            )
            .at(Ns::from_ms(1)),
        );
        assert!(m.run_to_completion(Ns::from_secs(1)).unwrap());
        assert!(m.task(writer).nr_voluntary >= 1, "writer must have blocked");
        assert!(m.task(reader).exited_at.is_some());
    }

    #[test]
    #[should_panic(expected = "empty affinity")]
    fn empty_affinity_is_rejected_at_spawn() {
        let mut m = machine();
        m.spawn(
            TaskSpec::new(
                "bad",
                0,
                Box::new(ProgramBehavior::once(vec![Op::Compute(Ns(1))])),
            )
            .affinity(CpuSet::empty()),
        );
    }

    #[test]
    fn class_busy_accounting_splits_by_class() {
        let mut m = Machine::new(Topology::new(1, 1), CostModel::free());
        m.add_class(Rc::new(RefFifo::new(1)));
        m.add_class(Rc::new(RefFifo::new(1)));
        m.spawn(TaskSpec::new(
            "hi",
            0,
            Box::new(ProgramBehavior::once(vec![Op::Compute(Ns::from_ms(3))])),
        ));
        m.spawn(TaskSpec::new(
            "lo",
            1,
            Box::new(ProgramBehavior::once(vec![Op::Compute(Ns::from_ms(5))])),
        ));
        assert!(m.run_to_completion(Ns::from_secs(1)).unwrap());
        assert_eq!(m.stats().class_busy[0], Ns::from_ms(3));
        assert_eq!(m.stats().class_busy[1], Ns::from_ms(5));
    }

    #[test]
    fn tracer_captures_switches_and_idles() {
        let mut m = machine();
        m.enable_trace(1024);
        m.spawn(TaskSpec::new(
            "t",
            0,
            Box::new(ProgramBehavior::repeat(
                vec![Op::Compute(Ns::from_us(100)), Op::Sleep(Ns::from_us(100))],
                5,
            )),
        ));
        assert!(m.run_to_completion(Ns::from_secs(1)).unwrap());
        let tracer = m.tracer().expect("tracing armed");
        let mut saw_switch = false;
        let mut saw_idle = false;
        let mut saw_wake = false;
        for ev in tracer.events() {
            match ev {
                crate::trace::TraceEvent::SwitchIn { .. } => saw_switch = true,
                crate::trace::TraceEvent::Idle { .. } => saw_idle = true,
                crate::trace::TraceEvent::Wakeup { .. } => saw_wake = true,
                _ => {}
            }
        }
        assert!(saw_switch && saw_idle && saw_wake);
        let timeline = tracer.render_timeline(8, Ns::from_us(50));
        assert!(timeline.lines().count() == 8);
    }

    #[test]
    fn run_until_with_no_events_is_quiescent() {
        let mut m = machine();
        m.run_until(Ns::from_ms(5)).unwrap();
        assert_eq!(m.now(), Ns::from_ms(5));
        assert_eq!(m.live_tasks(), 0);
    }

    #[test]
    fn spurious_futex_wake_is_harmless() {
        let mut m = machine();
        m.spawn(TaskSpec::new(
            "waker",
            0,
            Box::new(ProgramBehavior::once(vec![
                Op::FutexWake(1234, 7), // nobody waits; wakes are remembered
                Op::Compute(Ns::from_us(10)),
            ])),
        ));
        assert!(m.run_to_completion(Ns::from_secs(1)).unwrap());
    }

    #[test]
    fn wakeup_of_runnable_task_is_ignored() {
        let mut m = machine();
        let mut step = 0;
        let a = m.spawn(TaskSpec::new(
            "a",
            0,
            closure_behavior(move |_| {
                step += 1;
                match step {
                    1 => Op::Compute(Ns::from_ms(2)),
                    _ => Op::Exit,
                }
            }),
        ));
        // b wakes a while a is running; the wake must be a no-op.
        m.spawn(TaskSpec::new(
            "b",
            0,
            Box::new(ProgramBehavior::once(vec![
                Op::Compute(Ns::from_us(100)),
                Op::FutexWake(u64::MAX, 1),
            ])),
        ));
        assert!(m.run_to_completion(Ns::from_secs(1)).unwrap());
        assert_eq!(m.task(a).runtime, Ns::from_ms(2));
    }

    #[test]
    fn reset_latency_stats_clears_histograms() {
        let mut m = machine();
        m.spawn(
            TaskSpec::new(
                "s",
                0,
                Box::new(ProgramBehavior::repeat(vec![Op::Sleep(Ns::from_us(50))], 5)),
            )
            .tag(3),
        );
        assert!(m.run_to_completion(Ns::from_secs(1)).unwrap());
        assert!(m.stats().wakeup_latency.count() > 0);
        m.reset_latency_stats();
        assert_eq!(m.stats().wakeup_latency.count(), 0);
        assert!(m.stats().wakeup_by_tag.is_empty());
    }

    #[test]
    fn nr_class_calls_and_ipis_counted() {
        let mut m = machine();
        m.spawn(TaskSpec::new(
            "t",
            0,
            Box::new(ProgramBehavior::once(vec![Op::Compute(Ns::from_us(50))])),
        ));
        assert!(m.run_to_completion(Ns::from_secs(1)).unwrap());
        assert!(m.stats().nr_class_calls >= 3, "select+new+pick at minimum");
    }

    /// `live_tasks` recomputed the slow way, from every task's state.
    fn scan_live(m: &Machine) -> usize {
        (0..m.nr_tasks())
            .filter(|&p| m.task(p).state != TaskState::Dead)
            .count()
    }

    #[test]
    fn live_tasks_counter_matches_a_state_scan() {
        // One cpu and two classes, so tasks queue (Runnable behind the
        // Running one), block, start late, switch class and exit.
        let mut m = Machine::new(Topology::new(1, 1), CostModel::calibrated());
        m.add_class(Rc::new(RefFifo::new(1)));
        m.add_class(Rc::new(RefFifo::new(1)));
        let compute = |ms| Box::new(ProgramBehavior::once(vec![Op::Compute(Ns::from_ms(ms))]));
        // FIFO order: the waiter and the waker block first, then `a` runs
        // while `b` queues behind it.
        let waiter = m.spawn(TaskSpec::new(
            "waiter",
            0,
            Box::new(ProgramBehavior::once(vec![
                Op::FutexWait(42),
                Op::Compute(Ns::from_us(100)),
            ])),
        ));
        m.spawn(TaskSpec::new(
            "waker",
            0,
            Box::new(ProgramBehavior::once(vec![
                Op::Sleep(Ns::from_ms(8)),
                Op::FutexWake(42, 1),
            ])),
        ));
        let a = m.spawn(TaskSpec::new("a", 0, compute(2)));
        let b = m.spawn(TaskSpec::new("b", 0, compute(2)));
        let late = m.spawn(TaskSpec::new("late", 0, compute(1)).at(Ns::from_ms(6)));
        assert_eq!(m.task(late).state, TaskState::New);
        assert_eq!(m.live_tasks(), 5);
        assert_eq!(m.live_tasks(), scan_live(&m));

        m.run_until(Ns::from_us(500)).unwrap();
        assert_eq!(m.live_tasks(), scan_live(&m));
        let states: Vec<TaskState> = (0..m.nr_tasks()).map(|p| m.task(p).state).collect();
        assert!(states.contains(&TaskState::Running), "{states:?}");
        assert!(states.contains(&TaskState::Runnable), "{states:?}");
        assert!(states.contains(&TaskState::Blocked), "{states:?}");
        assert!(states.contains(&TaskState::New), "{states:?}");

        // Switch a queued task and a blocked one; neither changes liveness.
        let queued = if m.task(a).state == TaskState::Runnable {
            a
        } else {
            b
        };
        m.switch_class(queued, 1).unwrap();
        m.switch_class(waiter, 1).unwrap();
        assert_eq!(m.task(waiter).state, TaskState::Blocked);
        assert_eq!(m.live_tasks(), 5);
        assert_eq!(m.live_tasks(), scan_live(&m));

        let mut saw_dead = false;
        let mut t = Ns::from_us(500);
        while t < Ns::from_ms(20) {
            t += Ns::from_us(250);
            m.run_until(t).unwrap();
            assert_eq!(m.live_tasks(), scan_live(&m), "at {t:?}");
            saw_dead |= (1..=4).contains(&(5 - m.live_tasks()));
        }
        assert!(saw_dead, "tasks must exit one by one, not all at once");
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.nr_tasks(), 5);
    }

    #[test]
    fn run_to_completion_reports_whether_the_scan_finds_no_live_task() {
        let mut done = machine();
        done.spawn(TaskSpec::new(
            "t",
            0,
            Box::new(ProgramBehavior::once(vec![Op::Sleep(Ns::from_ms(1))])),
        ));
        assert!(done.run_to_completion(Ns::from_secs(1)).unwrap());
        assert_eq!(scan_live(&done), 0);

        // Nobody ever wakes the futex: the machine quiesces with one
        // blocked task, and another that has not started by the limit.
        let mut stuck = machine();
        stuck.spawn(TaskSpec::new(
            "forever",
            0,
            Box::new(ProgramBehavior::once(vec![Op::FutexWait(7)])),
        ));
        stuck.spawn(
            TaskSpec::new(
                "never",
                0,
                Box::new(ProgramBehavior::once(vec![Op::Compute(Ns(1))])),
            )
            .at(Ns::from_secs(5)),
        );
        assert!(!stuck.run_to_completion(Ns::from_secs(1)).unwrap());
        assert_eq!(stuck.live_tasks(), 2);
        assert_eq!(scan_live(&stuck), 2);
    }

    #[test]
    fn sampler_stops_once_the_last_task_exits() {
        let mut m = machine();
        m.spawn(TaskSpec::new(
            "t",
            0,
            Box::new(ProgramBehavior::once(vec![Op::Sleep(Ns::from_ms(2))])),
        ));
        let fired = Rc::new(std::cell::Cell::new(0u32));
        let f = fired.clone();
        m.set_sampler(Ns::from_us(100), Box::new(move |_| f.set(f.get() + 1)));
        // While the task sleeps the idle stretch is still sampled.
        m.run_until(Ns::from_ms(1)).unwrap();
        assert_eq!(fired.get(), 10);
        assert!(m.run_to_completion(Ns::from_secs(1)).unwrap());
        let at_exit = fired.get();
        assert!(at_exit >= 20, "sampled up to the exit at 2 ms: {at_exit}");
        m.run_until(m.now() + Ns::from_ms(10)).unwrap();
        assert_eq!(fired.get(), at_exit, "a dead machine is not sampled");
    }

    #[test]
    fn chunked_completion_stops_early() {
        let mut m = machine();
        m.spawn(TaskSpec::new(
            "t",
            0,
            Box::new(ProgramBehavior::once(vec![Op::Compute(Ns::from_us(10))])),
        ));
        assert!(m.run_to_completion(Ns::from_secs(100)).unwrap());
        // Chunking is 50ms; completion must not run to the 100s limit.
        assert!(m.now() <= Ns::from_ms(100));
    }
}
