//! Discrete-event simulator of a time-multiplexed inference GPU.
//!
//! Mechanism (matching §II/§III-C of the paper):
//!
//! * the GPU executes **one kernel at a time** and kernels are
//!   **non-preemptive** — once started, a kernel runs to completion;
//! * work is organised into *contexts* (one per client process); the
//!   scheduler round-robins across contexts with a time **slice**
//!   (default 2 ms), switching only at kernel boundaries;
//! * each context holds a FIFO queue of *tasks*, a task being the kernel
//!   sequence of one DNN (partition) inference;
//! * a context may carry a periodic [`Generator`] that submits background
//!   tasks — the paper's "7 processes executing AlexNet periodically".
//!
//! A single short kernel therefore completes almost unaffected by load,
//! while a partition of many kernels gets interleaved with background
//! slices and stretches — exactly the behaviour the load factor `k`
//! captures.
//!
//! A finished task's kernel buffer goes back to its context, and the
//! context's next task refills it: a client's suffix through
//! [`GpuSim::kernel_buffer`], a generator's fire directly. A context keeps
//! at most as many spare buffers as it can have tasks of its own queued
//! (its generator's `max_outstanding`, else one), so a steady stream of
//! submissions stops allocating once its first tasks have finished.

use lp_sim::{lognormal_durations, EventQueue, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Identifier of a submitted task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(u64);

/// A periodic background-load source attached to one context.
#[derive(Debug, Clone)]
pub struct Generator {
    /// Expected kernel durations of one background task.
    pub kernels: Vec<SimDuration>,
    /// Submission period (a new task every `period`, queue permitting).
    pub period: SimDuration,
    /// Maximum tasks queued at once; further submissions wait for a
    /// completion (keeps the event count bounded even at `period = 1 µs`,
    /// the paper's 100%(h) setting).
    pub max_outstanding: usize,
    /// Multiplicative noise applied to each submitted kernel.
    pub noise_sigma: f64,
}

#[derive(Debug)]
struct Task {
    /// The id [`GpuSim::submit`] handed out; `None` for a background
    /// generator's task, whose completion no caller can ask for and so is
    /// never recorded.
    id: Option<u64>,
    arrival: SimTime,
    kernels: Vec<SimDuration>,
    next: usize,
}

#[derive(Debug)]
struct Context {
    queue: VecDeque<Task>,
    /// Kernel buffers of finished tasks, cleared on reuse.
    spare: Vec<Vec<SimDuration>>,
    /// Buffers this context had to create because `spare` was empty.
    #[cfg(test)]
    fresh_buffers: usize,
    generator: Option<Generator>,
    /// The generator's kernel durations in seconds, set with it: the
    /// operand of each fire's noise draw.
    gen_secs: Vec<f64>,
    gen_waiting: bool,
    last_fire: SimTime,
    // Incremented by set_generator/clear_generator so fire events scheduled
    // by a previous generator are recognised as stale and dropped —
    // otherwise every load-level switch would leave a second submission
    // chain running.
    gen_epoch: u64,
}

#[derive(Debug)]
enum Arrival {
    Task(usize, u64, Vec<SimDuration>),
    GeneratorFire(usize, u64),
}

impl Context {
    fn take_buffer(&mut self) -> Vec<SimDuration> {
        match self.spare.pop() {
            Some(mut kernels) => {
                kernels.clear();
                kernels
            }
            None => {
                #[cfg(test)]
                {
                    self.fresh_buffers += 1;
                }
                Vec::new()
            }
        }
    }

    fn recycle(&mut self, kernels: Vec<SimDuration>) {
        let keep = self.generator.as_ref().map_or(1, |g| g.max_outstanding);
        if self.spare.len() < keep {
            self.spare.push(kernels);
        }
    }
}

/// The GPU simulator. See the module docs for the scheduling model.
#[derive(Debug)]
pub struct GpuSim {
    now: SimTime,
    slice: SimDuration,
    contexts: Vec<Context>,
    rr_next: usize,
    arrivals: EventQueue<Arrival>,
    busy_ns: u64,
    /// `(arrival, completion)` of each submitted task, indexed by task id
    /// (ids are dense from 0); `None` until the task finishes.
    completions: Vec<Option<(SimTime, SimTime)>>,
    next_id: u64,
    kernel_tax: SimDuration,
    rng: StdRng,
}

impl GpuSim {
    /// Creates a GPU with the given scheduling slice and RNG seed.
    #[must_use]
    pub fn new(slice: SimDuration, seed: u64) -> Self {
        Self {
            now: SimTime::ZERO,
            slice,
            contexts: Vec::new(),
            rr_next: 0,
            arrivals: EventQueue::new(),
            busy_ns: 0,
            completions: Vec::new(),
            next_id: 0,
            kernel_tax: SimDuration::ZERO,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The paper's configuration: 2 ms slices.
    #[must_use]
    pub fn with_default_slice(seed: u64) -> Self {
        Self::new(SimDuration::from_millis(2), seed)
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cumulative GPU busy time (for utilization = Δbusy / Δwall).
    #[must_use]
    pub fn busy_time(&self) -> SimDuration {
        SimDuration::from_nanos(self.busy_ns)
    }

    /// Sets the per-kernel launch tax: extra time every kernel (foreground
    /// and background alike) spends in the congested launch path.
    ///
    /// Under the paper's 100%(h) load — 7 processes submitting ResNet152
    /// every 1 µs — the driver's launch queues are swamped and *each*
    /// kernel queues noticeably (§II: "the queueing time of each GPU kernel
    /// of the background tasks differs in the two cases"). Multi-kernel
    /// DNN partitions pay this tax per kernel, which is what makes 100%(h)
    /// qualitatively worse than 100%(l) at identical utilization.
    pub fn set_kernel_tax(&mut self, tax: SimDuration) {
        self.kernel_tax = tax;
    }

    /// The current per-kernel launch tax.
    #[must_use]
    pub fn kernel_tax(&self) -> SimDuration {
        self.kernel_tax
    }

    /// Adds an empty context and returns its index.
    pub fn add_context(&mut self) -> usize {
        self.contexts.push(Context {
            queue: VecDeque::new(),
            spare: Vec::new(),
            #[cfg(test)]
            fresh_buffers: 0,
            generator: None,
            gen_secs: Vec::new(),
            gen_waiting: false,
            last_fire: SimTime::ZERO,
            gen_epoch: 0,
        });
        self.contexts.len() - 1
    }

    /// Attaches a background generator to a context, first submission at
    /// `start`.
    ///
    /// # Panics
    ///
    /// Panics if the generator has no kernels or `max_outstanding == 0`.
    pub fn set_generator(&mut self, ctx: usize, generator: Generator, start: SimTime) {
        assert!(!generator.kernels.is_empty(), "generator needs kernels");
        assert!(generator.max_outstanding > 0, "max_outstanding must be > 0");
        assert!(
            generator.period > SimDuration::ZERO,
            "generator period must be positive"
        );
        let context = &mut self.contexts[ctx];
        context.gen_secs.clear();
        context
            .gen_secs
            .extend(generator.kernels.iter().map(|k| k.as_secs_f64()));
        context.generator = Some(generator);
        context.gen_waiting = false;
        context.gen_epoch += 1;
        let epoch = context.gen_epoch;
        self.arrivals
            .push(start, Arrival::GeneratorFire(ctx, epoch));
    }

    /// Removes the background generator from a context (pending tasks still
    /// drain; scheduled fires become no-ops).
    pub fn clear_generator(&mut self, ctx: usize) {
        self.contexts[ctx].generator = None;
        self.contexts[ctx].gen_waiting = false;
        self.contexts[ctx].gen_epoch += 1;
    }

    /// An empty buffer for the next task submitted to `ctx`: the kernel
    /// buffer of a task this context finished, with its capacity, or a new
    /// one if it has none spare. Fill it and pass it to
    /// [`GpuSim::submit`], or hand it back with [`GpuSim::recycle`].
    pub fn kernel_buffer(&mut self, ctx: usize) -> Vec<SimDuration> {
        self.contexts[ctx].take_buffer()
    }

    /// Hands a kernel buffer back to `ctx` for its next task: what the
    /// simulator does with a finished task's kernels, and what a caller
    /// does with a [`GpuSim::kernel_buffer`] it did not submit. Dropped
    /// if the context already keeps as many spares as it can queue tasks.
    pub fn recycle(&mut self, ctx: usize, kernels: Vec<SimDuration>) {
        self.contexts[ctx].recycle(kernels);
    }

    /// Submits a task (sequence of kernel durations) to `ctx` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty or `at` is in the simulated past.
    pub fn submit(&mut self, ctx: usize, at: SimTime, kernels: Vec<SimDuration>) -> TaskId {
        assert!(!kernels.is_empty(), "task needs at least one kernel");
        assert!(at >= self.now, "cannot submit in the past");
        let id = self.next_id;
        self.next_id += 1;
        self.completions.push(None);
        self.arrivals.push(at, Arrival::Task(ctx, id, kernels));
        TaskId(id)
    }

    /// Completion record of a task: `(arrival, completion)` once finished.
    #[must_use]
    pub fn completion(&self, id: TaskId) -> Option<(SimTime, SimTime)> {
        self.completions.get(id.0 as usize).copied().flatten()
    }

    /// Advances the simulation until the task completes and returns its
    /// completion time. The clock may overshoot slightly (completions are
    /// recorded exactly).
    ///
    /// # Panics
    ///
    /// Panics if the task was never submitted or the simulation deadlocks
    /// (no pending work while waiting).
    #[allow(clippy::missing_panics_doc)]
    pub fn run_until_complete(&mut self, id: TaskId) -> SimTime {
        assert!(id.0 < self.next_id, "unknown task");
        loop {
            if let Some((_, done)) = self.completion(id) {
                return done;
            }
            self.step(None);
        }
    }

    /// Advances the simulation just far enough for one of `ids` to
    /// complete, and returns the `(task, completion)` pair with the
    /// earliest completion time. Tasks already complete on entry count;
    /// with non-preemptive kernels and round-robin slicing, submission
    /// order does **not** predict completion order, so drivers waiting on
    /// a set of pending tasks must use this instead of picking one
    /// arbitrarily.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty, any task was never submitted, or the
    /// simulation deadlocks (no pending work while waiting).
    #[allow(clippy::missing_panics_doc)]
    pub fn run_until_earliest_complete(&mut self, ids: &[TaskId]) -> (TaskId, SimTime) {
        assert!(!ids.is_empty(), "need at least one task to wait on");
        for id in ids {
            assert!(id.0 < self.next_id, "unknown task");
        }
        loop {
            let done = ids
                .iter()
                .filter_map(|&id| self.completion(id).map(|(_, c)| (id, c)))
                .min_by_key(|&(_, c)| c);
            if let Some(hit) = done {
                return hit;
            }
            self.step(None);
        }
    }

    /// Advances the simulation clock to at least `target` (the last slice
    /// or kernel may overshoot it).
    pub fn advance_to(&mut self, target: SimTime) {
        while self.now < target {
            self.step(Some(target));
        }
    }

    /// One scheduling step: fire due arrivals, then either serve one slice
    /// or jump to the next arrival / `idle_target`.
    fn step(&mut self, idle_target: Option<SimTime>) {
        self.fire_arrivals();
        if let Some(ci) = self.pick_context() {
            self.serve_slice(ci);
            return;
        }
        // Idle: jump to the next arrival, or to the target.
        match (self.arrivals.peek_time(), idle_target) {
            (Some(t), Some(target)) => self.now = self.now.max(t.min(target)),
            (Some(t), None) => self.now = self.now.max(t),
            (None, Some(target)) => self.now = target,
            (None, None) => panic!("GPU simulation deadlock: waiting with no pending work"),
        }
        self.fire_arrivals();
    }

    fn fire_arrivals(&mut self) {
        while let Some(t) = self.arrivals.peek_time() {
            if t > self.now {
                break;
            }
            let (t, arrival) = self.arrivals.pop().expect("peeked");
            match arrival {
                Arrival::Task(ci, id, kernels) => {
                    self.contexts[ci].queue.push_back(Task {
                        id: Some(id),
                        arrival: t,
                        kernels,
                        next: 0,
                    });
                }
                Arrival::GeneratorFire(ci, epoch) => self.generator_fire(ci, epoch, t),
            }
        }
    }

    fn generator_fire(&mut self, ci: usize, epoch: u64, t: SimTime) {
        let ctx = &mut self.contexts[ci];
        if epoch != ctx.gen_epoch {
            return; // fire scheduled by a replaced/cleared generator
        }
        let Some(generator) = ctx.generator.as_ref() else {
            return; // generator was cleared; stale fire
        };
        ctx.last_fire = t;
        if ctx.queue.len() >= generator.max_outstanding {
            // Queue full: re-arm on the next completion in this context.
            ctx.gen_waiting = true;
            return;
        }
        let (period, sigma) = (generator.period, generator.noise_sigma);
        let mut kernels = ctx.take_buffer();
        kernels.resize(ctx.gen_secs.len(), SimDuration::ZERO);
        lognormal_durations(&mut self.rng, sigma, &ctx.gen_secs, &mut kernels);
        ctx.queue.push_back(Task {
            id: None,
            arrival: t,
            kernels,
            next: 0,
        });
        self.arrivals
            .push(t + period, Arrival::GeneratorFire(ci, epoch));
    }

    /// The first context with queued work in round-robin order from
    /// `rr_next`: `rr_next..n`, then `0..rr_next`.
    fn pick_context(&self) -> Option<usize> {
        let start = self.rr_next;
        let ready = |ctx: &Context| !ctx.queue.is_empty();
        match self.contexts[start..].iter().position(ready) {
            Some(off) => Some(start + off),
            None => self.contexts[..start].iter().position(ready),
        }
    }

    /// Serves context `ci` for one slice: kernels run back to back, each
    /// to completion, until the slice is used up or the queue empties.
    ///
    /// Arrivals land at kernel boundaries. Between two events — the slice
    /// running out, the next arrival falling due, the front task finishing
    /// — a kernel only moves the clock and the busy time, so the arrival
    /// heap is read, and the front task fetched again, only when a kernel
    /// ends at or past `min(slice end, next arrival)` or finishes its task.
    fn serve_slice(&mut self, ci: usize) {
        let slice_end = self.now + self.slice;
        let tax = self.kernel_tax.as_nanos();
        while let Some(task) = self.contexts[ci].queue.front_mut() {
            let stop = self
                .arrivals
                .peek_time()
                .map_or(slice_end, |t| t.min(slice_end))
                .as_nanos();
            let mut now = self.now.as_nanos();
            let mut busy = self.busy_ns;
            // Run kernels to completion (non-preemptive), each paying the
            // launch-congestion tax if one is in force.
            let finished = loop {
                let k = task.kernels[task.next].as_nanos() + tax;
                task.next += 1;
                now += k;
                busy += k;
                if task.next == task.kernels.len() {
                    break true;
                }
                if now >= stop {
                    break false;
                }
            };
            self.now = SimTime::from_nanos(now);
            self.busy_ns = busy;
            if finished {
                let ctx = &mut self.contexts[ci];
                let task = ctx.queue.pop_front().expect("front");
                if let Some(id) = task.id {
                    self.completions[id as usize] = Some((task.arrival, self.now));
                }
                ctx.recycle(task.kernels);
                // Closed-loop generator re-arming.
                if ctx.gen_waiting {
                    if let Some(generator) = ctx.generator.as_ref() {
                        ctx.gen_waiting = false;
                        let next = (ctx.last_fire + generator.period).max(self.now);
                        let epoch = ctx.gen_epoch;
                        self.arrivals.push(next, Arrival::GeneratorFire(ci, epoch));
                    }
                }
            }
            self.fire_arrivals();
            if self.now >= slice_end {
                break;
            }
        }
        let next = ci + 1;
        self.rr_next = if next < self.contexts.len() { next } else { 0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }
    fn at_ms(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    #[test]
    fn unloaded_task_runs_back_to_back() {
        let mut gpu = GpuSim::with_default_slice(0);
        let ctx = gpu.add_context();
        let id = gpu.submit(ctx, SimTime::ZERO, vec![us(500); 10]);
        let done = gpu.run_until_complete(id);
        assert_eq!(done.as_millis_f64(), 5.0);
        assert_eq!(gpu.busy_time().as_millis_f64(), 5.0);
    }

    #[test]
    fn single_short_kernel_unaffected_by_competition() {
        // §III-C: a sub-slice kernel completes within its first slice even
        // when another context is saturated.
        let mut gpu = GpuSim::with_default_slice(0);
        let bg = gpu.add_context();
        let fg = gpu.add_context();
        gpu.set_generator(
            bg,
            Generator {
                kernels: vec![us(400); 5],
                period: SimDuration::from_nanos(1),
                max_outstanding: 2,
                noise_sigma: 0.0,
            },
            SimTime::ZERO,
        );
        gpu.advance_to(at_ms(20));
        let t0 = gpu.now();
        let id = gpu.submit(fg, t0, vec![us(300)]);
        let done = gpu.run_until_complete(id);
        let latency = done.since(t0).as_millis_f64();
        // Waits at most one slice-ish for the in-flight background work.
        assert!(latency < 5.0, "latency {latency}ms");
    }

    #[test]
    fn saturation_stretches_multi_kernel_tasks() {
        let mut gpu = GpuSim::with_default_slice(1);
        // 7 saturated background contexts, as in the paper.
        let mut bgs = Vec::new();
        for _ in 0..7 {
            let c = gpu.add_context();
            gpu.set_generator(
                c,
                Generator {
                    kernels: vec![us(500); 8], // 4 ms of work per task
                    period: SimDuration::from_nanos(1000),
                    max_outstanding: 2,
                    noise_sigma: 0.0,
                },
                SimTime::ZERO,
            );
            bgs.push(c);
        }
        let fg = gpu.add_context();
        gpu.advance_to(at_ms(50));
        let t0 = gpu.now();
        // A 10 ms foreground partition (20 kernels of 0.5 ms).
        let id = gpu.submit(fg, t0, vec![us(500); 20]);
        let done = gpu.run_until_complete(id);
        let latency = done.since(t0).as_millis_f64();
        // Fair RR over 8 contexts: ~8x stretch expected; allow a band.
        assert!(
            (40.0..160.0).contains(&latency),
            "latency {latency}ms, want ~80ms"
        );
    }

    #[test]
    fn light_load_barely_stretches() {
        let mut gpu = GpuSim::with_default_slice(2);
        let bg = gpu.add_context();
        // ~10% utilization: 0.5 ms of work every 5 ms.
        gpu.set_generator(
            bg,
            Generator {
                kernels: vec![us(250); 2],
                period: ms(5),
                max_outstanding: 2,
                noise_sigma: 0.0,
            },
            SimTime::ZERO,
        );
        let fg = gpu.add_context();
        gpu.advance_to(at_ms(17));
        let t0 = gpu.now();
        let id = gpu.submit(fg, t0, vec![us(500); 10]); // 5 ms of work
        let done = gpu.run_until_complete(id);
        let latency = done.since(t0).as_millis_f64();
        assert!(latency < 7.5, "latency {latency}ms");
    }

    #[test]
    fn utilization_accounting() {
        let mut gpu = GpuSim::with_default_slice(3);
        let bg = gpu.add_context();
        // 50% utilization: 2 ms of work every 4 ms.
        gpu.set_generator(
            bg,
            Generator {
                kernels: vec![us(500); 4],
                period: ms(4),
                max_outstanding: 2,
                noise_sigma: 0.0,
            },
            SimTime::ZERO,
        );
        gpu.advance_to(at_ms(400));
        let util = gpu.busy_time().as_secs_f64() / gpu.now().as_secs_f64();
        assert!((0.4..0.6).contains(&util), "util {util}");
    }

    #[test]
    fn oversized_kernel_is_not_preempted() {
        let mut gpu = GpuSim::with_default_slice(4);
        let a = gpu.add_context();
        let b = gpu.add_context();
        // Context a gets a single 10 ms kernel; b a tiny one right after.
        let big = gpu.submit(a, SimTime::ZERO, vec![ms(10)]);
        let small = gpu.submit(b, SimTime::ZERO + us(1), vec![us(100)]);
        let big_done = gpu.run_until_complete(big);
        let small_done = gpu.run_until_complete(small);
        // The big kernel runs to completion despite the 2 ms slice; the
        // small one only starts after it.
        assert_eq!(big_done.as_millis_f64(), 10.0);
        assert!(small_done > big_done);
    }

    #[test]
    fn earliest_complete_is_not_submission_order() {
        let mut gpu = GpuSim::with_default_slice(9);
        let a = gpu.add_context();
        let b = gpu.add_context();
        // Submitted first but much larger: with 2 ms round-robin slices
        // the small task on the other context finishes long before it.
        let big = gpu.submit(a, SimTime::ZERO, vec![ms(1); 20]);
        let small = gpu.submit(b, SimTime::ZERO, vec![us(100)]);
        let (first, done) = gpu.run_until_earliest_complete(&[big, small]);
        assert_eq!(first, small, "vector order must not decide the winner");
        assert_eq!(done, gpu.completion(small).unwrap().1);
        assert!(gpu.completion(big).is_none(), "big task still running");
        // Waiting again on the same set now returns the finished task
        // without advancing further.
        let now = gpu.now();
        let (again, _) = gpu.run_until_earliest_complete(&[big, small]);
        assert_eq!(again, small);
        assert_eq!(gpu.now(), now);
    }

    #[test]
    fn fifo_within_context() {
        let mut gpu = GpuSim::with_default_slice(5);
        let c = gpu.add_context();
        let first = gpu.submit(c, SimTime::ZERO, vec![ms(1)]);
        let second = gpu.submit(c, SimTime::ZERO, vec![ms(1)]);
        let f = gpu.run_until_complete(first);
        let s = gpu.run_until_complete(second);
        assert!(f < s);
    }

    #[test]
    fn clear_generator_stops_new_arrivals() {
        let mut gpu = GpuSim::with_default_slice(6);
        let c = gpu.add_context();
        gpu.set_generator(
            c,
            Generator {
                kernels: vec![us(100)],
                period: ms(1),
                max_outstanding: 1,
                noise_sigma: 0.0,
            },
            SimTime::ZERO,
        );
        gpu.advance_to(at_ms(10));
        gpu.clear_generator(c);
        let busy_before = gpu.busy_time();
        gpu.advance_to(at_ms(100));
        let extra = gpu.busy_time().saturating_sub(busy_before);
        // At most the already-queued task drains.
        assert!(extra.as_millis_f64() < 0.5, "extra {extra}");
    }

    #[test]
    fn advance_without_work_is_idle() {
        let mut gpu = GpuSim::with_default_slice(7);
        gpu.add_context();
        gpu.advance_to(at_ms(123));
        assert_eq!(gpu.now(), at_ms(123));
        assert_eq!(gpu.busy_time(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "cannot submit in the past")]
    fn past_submission_panics() {
        let mut gpu = GpuSim::with_default_slice(8);
        let c = gpu.add_context();
        gpu.advance_to(at_ms(10));
        gpu.submit(c, SimTime::ZERO, vec![ms(1)]);
    }

    #[test]
    fn replacing_a_generator_does_not_double_the_load() {
        // Regression: before the epoch guard, the old generator's pending
        // fire kept a second submission chain alive after set_generator,
        // transiently doubling the background load on every level switch.
        let mut gpu = GpuSim::with_default_slice(10);
        let c = gpu.add_context();
        let gen_30pct = || Generator {
            // 0.6 ms of work every 2 ms = 30% utilization.
            kernels: vec![us(600)],
            period: ms(2),
            max_outstanding: 2,
            noise_sigma: 0.0,
        };
        gpu.set_generator(c, gen_30pct(), SimTime::ZERO);
        gpu.advance_to(at_ms(1000));
        // Re-install the same level several times mid-run, as a load
        // timeline's phase switches do.
        for i in 1..=3 {
            gpu.clear_generator(c);
            gpu.set_generator(c, gen_30pct(), gpu.now());
            gpu.advance_to(at_ms(1000 + 1000 * i));
        }
        let util = gpu.busy_time().as_secs_f64() / gpu.now().as_secs_f64();
        assert!(
            (0.25..0.36).contains(&util),
            "utilization {util:.3} should stay ~0.30 across generator swaps"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut gpu = GpuSim::with_default_slice(42);
            let bg = gpu.add_context();
            gpu.set_generator(
                bg,
                Generator {
                    kernels: vec![us(300); 4],
                    period: ms(2),
                    max_outstanding: 2,
                    noise_sigma: 0.2,
                },
                SimTime::ZERO,
            );
            let fg = gpu.add_context();
            gpu.advance_to(at_ms(9));
            let t0 = gpu.now();
            let id = gpu.submit(fg, t0, vec![us(500); 6]);
            gpu.run_until_complete(id).as_nanos()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn only_submitted_tasks_leave_a_completion_record() {
        // Background generators complete thousands of tasks a minute
        // (7,205 here at 100%(l)); none of them may leave a record, or the
        // completion map grows without bound over a long load timeline.
        let model = crate::GpuModel::default();
        let mut gpu = GpuSim::with_default_slice(12);
        for g in crate::background_generators(crate::LoadLevel::Pct100Low, &model) {
            let ctx = gpu.add_context();
            gpu.set_generator(ctx, g, SimTime::ZERO);
        }
        let fg = gpu.add_context();
        gpu.advance_to(SimTime::ZERO + SimDuration::from_secs(30));
        let t0 = gpu.now();
        let squeezenet = lp_models::squeezenet(1);
        let id = gpu.submit(
            fg,
            t0,
            model.kernel_sequence(&squeezenet, 1, squeezenet.len()),
        );
        gpu.advance_to(SimTime::ZERO + SimDuration::from_secs(60));
        assert_eq!(gpu.completions.len(), 1);
        // What is recorded must not move the schedule: the foreground
        // task's completion instant is pinned.
        assert_eq!(t0, SimTime::from_nanos(30_002_600_176));
        assert_eq!(
            gpu.completion(id),
            Some((t0, SimTime::from_nanos(30_056_801_495)))
        );
    }

    #[test]
    fn finished_tasks_hand_their_kernel_buffers_to_the_next_submission() {
        let mut gpu = GpuSim::with_default_slice(13);
        let fg = gpu.add_context();
        let suffix = vec![us(40); 314];
        for i in 0..1000 {
            let mut task = gpu.kernel_buffer(fg);
            assert!(task.is_empty(), "a recycled buffer comes back cleared");
            task.extend_from_slice(&suffix);
            let id = gpu.submit(fg, gpu.now(), task);
            gpu.run_until_complete(id);
            if i % 100 == 0 {
                // A buffer taken and not submitted (a shed request) goes
                // back too.
                let shed = gpu.kernel_buffer(fg);
                gpu.recycle(fg, shed);
            }
        }
        assert_eq!(gpu.contexts[fg].fresh_buffers, 1, "back-to-back tasks");

        // A saturating generator keeps `max_outstanding` tasks queued, so
        // it creates that many buffers and then only refills them.
        let bg = gpu.add_context();
        gpu.set_generator(
            bg,
            Generator {
                kernels: vec![us(100); 4],
                period: SimDuration::from_nanos(1),
                max_outstanding: 3,
                noise_sigma: 0.2,
            },
            gpu.now(),
        );
        let busy = gpu.busy_time();
        gpu.advance_to(gpu.now() + ms(1000));
        let tasks = gpu.busy_time().saturating_sub(busy).as_micros_f64() / 400.0;
        assert!(tasks > 2000.0, "about {tasks} background tasks ran");
        assert_eq!(gpu.contexts[bg].fresh_buffers, 3, "max_outstanding");
        assert_eq!(gpu.contexts[fg].fresh_buffers, 1);
    }

    #[test]
    fn generator_fires_draw_each_kernel_as_lognormal_factor_scales_it() {
        use lp_sim::lognormal_factor;
        // 100%(h)'s storm at the models' sigma, and a longer task that
        // crosses a draw chunk's boundary.
        let model = crate::GpuModel::default();
        let storm =
            crate::background_generators(crate::LoadLevel::Pct100High, &model).swap_remove(0);
        let long = Generator {
            kernels: (1..=150).map(|i| us(7 * i)).collect(),
            period: us(1),
            max_outstanding: 3,
            noise_sigma: 0.3,
        };
        for (generator, replaced) in [(&storm, &long), (&long, &storm)] {
            let mut gpu = GpuSim::with_default_slice(21);
            let ctx = gpu.add_context();
            // The replaced generator's fire is stale, and its kernel
            // seconds must not be drawn from.
            gpu.set_generator(ctx, replaced.clone(), SimTime::ZERO);
            gpu.set_generator(ctx, generator.clone(), SimTime::ZERO);
            // Fire until the queue is full, before any kernel runs.
            gpu.now = SimTime::ZERO + us(generator.max_outstanding as u64 - 1);
            gpu.fire_arrivals();
            let queue = &gpu.contexts[ctx].queue;
            assert_eq!(queue.len(), generator.max_outstanding);
            let mut reference = StdRng::seed_from_u64(21);
            for task in queue {
                let want: Vec<SimDuration> = generator
                    .kernels
                    .iter()
                    .map(|&k| k.scale(lognormal_factor(&mut reference, generator.noise_sigma)))
                    .collect();
                assert_eq!(task.kernels, want);
            }
            assert_eq!(gpu.rng, reference, "words consumed");
        }
    }

    /// The per-kernel slice loop slice stepping replaces: it reads the
    /// arrival heap after every kernel.
    fn serve_slice_per_kernel(gpu: &mut GpuSim, ci: usize) {
        let slice_end = gpu.now + gpu.slice;
        while let Some(task) = gpu.contexts[ci].queue.front_mut() {
            let k = task.kernels[task.next] + gpu.kernel_tax;
            task.next += 1;
            gpu.now += k;
            gpu.busy_ns += k.as_nanos();
            if task.next == task.kernels.len() {
                let task = gpu.contexts[ci].queue.pop_front().expect("front");
                if let Some(id) = task.id {
                    gpu.completions[id as usize] = Some((task.arrival, gpu.now));
                }
                let ctx = &mut gpu.contexts[ci];
                if ctx.gen_waiting {
                    if let Some(generator) = ctx.generator.as_ref() {
                        ctx.gen_waiting = false;
                        let next = (ctx.last_fire + generator.period).max(gpu.now);
                        let epoch = ctx.gen_epoch;
                        gpu.arrivals.push(next, Arrival::GeneratorFire(ci, epoch));
                    }
                }
            }
            gpu.fire_arrivals();
            if gpu.now >= slice_end {
                break;
            }
        }
        gpu.rr_next = (ci + 1) % gpu.contexts.len().max(1);
    }

    /// [`GpuSim::step`] over the per-kernel loop.
    fn step_per_kernel(gpu: &mut GpuSim, idle_target: Option<SimTime>) {
        gpu.fire_arrivals();
        if let Some(ci) = gpu.pick_context() {
            serve_slice_per_kernel(gpu, ci);
            return;
        }
        match (gpu.arrivals.peek_time(), idle_target) {
            (Some(t), Some(target)) => gpu.now = gpu.now.max(t.min(target)),
            (Some(t), None) => gpu.now = gpu.now.max(t),
            (None, Some(target)) => gpu.now = target,
            (None, None) => panic!("reference deadlock"),
        }
        gpu.fire_arrivals();
    }

    /// One operation on both simulators.
    enum Op {
        Submit(usize, SimTime, Vec<SimDuration>),
        Advance(SimTime),
        RunUntil(TaskId),
        RunUntilEarliest(Vec<TaskId>),
        Generator(usize, Option<Generator>),
    }

    fn apply(gpu: &mut GpuSim, op: &Op, per_kernel: bool) {
        match op {
            Op::Submit(ctx, at, kernels) => {
                let mut task = gpu.kernel_buffer(*ctx);
                task.extend_from_slice(kernels);
                gpu.submit(*ctx, *at, task);
            }
            Op::Advance(target) if per_kernel => {
                while gpu.now < *target {
                    step_per_kernel(gpu, Some(*target));
                }
            }
            Op::Advance(target) => gpu.advance_to(*target),
            Op::RunUntil(id) if per_kernel => {
                while gpu.completion(*id).is_none() {
                    step_per_kernel(gpu, None);
                }
            }
            Op::RunUntil(id) => {
                gpu.run_until_complete(*id);
            }
            Op::RunUntilEarliest(ids) if per_kernel => {
                while ids.iter().all(|&id| gpu.completion(id).is_none()) {
                    step_per_kernel(gpu, None);
                }
            }
            Op::RunUntilEarliest(ids) => {
                gpu.run_until_earliest_complete(ids);
            }
            Op::Generator(ctx, Some(generator)) => {
                let now = gpu.now;
                gpu.set_generator(*ctx, generator.clone(), now);
            }
            Op::Generator(ctx, None) => gpu.clear_generator(*ctx),
        }
    }

    #[test]
    fn slice_stepping_equals_the_per_kernel_loop() {
        use rand::Rng;
        // Durations are whole multiples of 10 µs, so arrivals, kernel ends
        // and slice ends often coincide to the nanosecond.
        const QUANTUM: u64 = 10_000;
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for scenario in 0..150u64 {
            let quanta = |rng: &mut StdRng, lo: u64, hi: u64| {
                SimDuration::from_nanos(QUANTUM * rng.gen_range(lo..=hi))
            };
            let kernels = |rng: &mut StdRng, max: usize| -> Vec<SimDuration> {
                (0..rng.gen_range(1..=max))
                    .map(|_| quanta(rng, 0, 40))
                    .collect()
            };
            let contexts = rng.gen_range(1..=9usize);
            let noise_sigma = if scenario % 3 == 0 { 0.2 } else { 0.0 };
            let mut fast = GpuSim::new(quanta(&mut rng, 1, 300), scenario);
            let mut reference = GpuSim::new(fast.slice, scenario);
            let tax = if scenario % 2 == 0 {
                SimDuration::ZERO
            } else {
                quanta(&mut rng, 0, 3)
            };
            for gpu in [&mut fast, &mut reference] {
                gpu.set_kernel_tax(tax);
                for _ in 0..contexts {
                    gpu.add_context();
                }
            }
            let mut ops = Vec::new();
            for ctx in 0..contexts {
                if rng.gen_range(0..3u32) == 0 {
                    ops.push(Op::Generator(
                        ctx,
                        Some(Generator {
                            kernels: kernels(&mut rng, 6),
                            period: quanta(&mut rng, 1, 500),
                            max_outstanding: rng.gen_range(1..=3),
                            noise_sigma,
                        }),
                    ));
                }
            }
            let mut submitted = Vec::new();
            for _ in 0..60 {
                // Operations are drawn against the fast simulator's state;
                // both see the same sequence.
                let now = fast.now();
                let op = match rng.gen_range(0..10u32) {
                    0..=3 => {
                        // Land on the served context's next kernel boundary
                        // half the time, else anywhere in the next slices.
                        let ctx = rng.gen_range(0..contexts);
                        let at = match fast.contexts[fast.rr_next % contexts].queue.front() {
                            Some(task) if rng.gen_range(0..2u32) == 0 => {
                                let ahead = rng.gen_range(1..=task.kernels.len() - task.next);
                                now + task.kernels[task.next..task.next + ahead]
                                    .iter()
                                    .map(|&k| k + tax)
                                    .sum()
                            }
                            _ => now + quanta(&mut rng, 0, 400),
                        };
                        Op::Submit(ctx, at, kernels(&mut rng, 30))
                    }
                    4..=5 => Op::Advance(now + quanta(&mut rng, 0, 800)),
                    6 if !submitted.is_empty() => {
                        Op::RunUntil(submitted[rng.gen_range(0..submitted.len())])
                    }
                    7 if !submitted.is_empty() => {
                        let n = rng.gen_range(1..=submitted.len().min(4));
                        Op::RunUntilEarliest(
                            (0..n)
                                .map(|_| submitted[rng.gen_range(0..submitted.len())])
                                .collect(),
                        )
                    }
                    8 => {
                        let ctx = rng.gen_range(0..contexts);
                        let generator = (rng.gen_range(0..2u32) == 0).then(|| Generator {
                            kernels: kernels(&mut rng, 6),
                            period: quanta(&mut rng, 1, 500),
                            max_outstanding: rng.gen_range(1..=3),
                            noise_sigma,
                        });
                        Op::Generator(ctx, generator)
                    }
                    _ => Op::Advance(now),
                };
                ops.push(op);
                let op = ops.last().expect("pushed");
                if let Op::Submit(..) = op {
                    submitted.push(TaskId(fast.next_id));
                }
                apply(&mut fast, op, false);
                apply(&mut reference, op, true);
                assert_eq!(fast.now(), reference.now(), "scenario {scenario}");
                assert_eq!(
                    fast.busy_time(),
                    reference.busy_time(),
                    "scenario {scenario}"
                );
                assert_eq!(
                    fast.completions, reference.completions,
                    "scenario {scenario}"
                );
            }
            // Drain every submitted task on both.
            for &id in &submitted {
                apply(&mut fast, &Op::RunUntil(id), false);
                apply(&mut reference, &Op::RunUntil(id), true);
            }
            assert_eq!(fast.now(), reference.now(), "scenario {scenario}");
            assert_eq!(
                fast.busy_time(),
                reference.busy_time(),
                "scenario {scenario}"
            );
            assert_eq!(
                fast.completions, reference.completions,
                "scenario {scenario}"
            );
            assert!(fast.completions.iter().all(Option::is_some));
        }
    }
}
