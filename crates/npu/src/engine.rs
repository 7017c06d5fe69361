//! The data-plane engine's building blocks: the persistent worker pool,
//! owner plans (which worker runs which core's queue), bounded ingress
//! admission, and the flow-dispatch table that
//! [`crate::np::NetworkProcessor`]'s one executor runs on.
//!
//! PR 1 measured `batch_speedup: 0.874` — parallel batches *lost* to
//! serial dispatch — because every `process_batch` call paid
//! `std::thread::scope` to spawn one OS thread per core and tear all of
//! them down again before returning. This module fixes the structural
//! half of that regression: workers are spawned **once** (lazily, at the
//! first batch that needs them), fed over bounded SPSC channels, and torn
//! down on drop. A batch costs two channel hops per shard instead of a
//! clone+spawn+join per core.
//!
//! Determinism is by construction, not by luck:
//!
//! - Packets are partitioned to cores by the same flow-affinity mapping
//!   the serial dispatcher uses, **before** any worker runs; each core's
//!   queue preserves input order, so per-flow order is preserved (a flow
//!   sticks to one core).
//! - An owner plan gives every core to exactly one worker: the static
//!   [`shard_of`] plan (disjoint, contiguous [`shard_spans`]) for batches,
//!   the [`steal_plan`] for stream rounds. No slot is ever touched by two
//!   workers.
//! - Workers return outcomes tagged with their input index and events
//!   stamped with their packet's clock; the caller merges both and folds
//!   [`crate::np::NpStats`] after the batch barrier, so the aggregate is
//!   byte-identical to the serial fold for any seed and any shard count.
//!
//! The streaming front end (PR 9) adds two pieces on the same contract:
//! [`IngressQueues`], bounded per-shard admission with backpressure
//! accounting, and [`steal_plan`], deterministic work stealing of *whole
//! core queues* — a queue (and therefore a flow) is never split, only
//! re-homed to an early-draining shard, so outcomes stay byte-identical to
//! the serial oracle while skewed traces still balance.

use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::OnceLock;
use std::thread::JoinHandle;

/// The host's available hardware threads (at least 1), read once per
/// process. `std::thread::available_parallelism` reads the thread's
/// affinity mask and cgroup limits on every call (22–33 µs a call on a
/// 2-core Xeon VM under Linux), and every
/// [`crate::np::NetworkProcessor::new`] sizes its shards by it.
pub fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A batch job shipped to a persistent worker. The `'static` bound is the
/// public face; [`WorkerPool::run_batch_with`] transmutes scoped closures
/// in and guarantees (by draining every completion channel before
/// returning) that no job outlives the borrow it captured.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Completion message: `Ok` or the worker's panic payload.
type Done = Result<(), Box<dyn std::any::Any + Send>>;

struct Worker {
    /// Bounded to 1: the pool is used strictly SPSC per worker — one
    /// in-flight job, one completion.
    tx: SyncSender<Job>,
    done: Receiver<Done>,
    handle: Option<JoinHandle<()>>,
}

/// A fixed-size pool of persistent OS threads for the data-plane shards
/// the caller does not run itself.
///
/// The executor runs shard 0 on the calling thread and shards 1 and up on
/// a pool of `shards - 1` workers ([`WorkerPool::run_batch_with`]), so a
/// round wakes `shards - 1` threads and the caller works on a shard instead
/// of only waiting for the others. Spawned once, reused for every batch,
/// joined on drop. Compare the pre-PR-4 `process_batch`, which paid thread
/// spawn/teardown per call.
pub struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// Spawns `n` persistent workers. Each worker parks on its job channel
    /// and signals completion (or its panic payload) on its own channel.
    pub fn new(n: usize) -> WorkerPool {
        let workers = (0..n)
            .map(|i| {
                let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(1);
                let (done_tx, done) = std::sync::mpsc::sync_channel::<Done>(1);
                let handle = std::thread::Builder::new()
                    .name(format!("sdmmon-shard-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            if done_tx.send(result).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn shard worker");
                Worker {
                    tx,
                    done,
                    handle: Some(handle),
                }
            })
            .collect();
        WorkerPool { workers }
    }

    /// Number of persistent workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the pool has no workers.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Runs one job per worker and blocks until **all** of them complete:
    /// [`WorkerPool::run_batch_with`] with nothing to run inline.
    ///
    /// # Panics
    ///
    /// Resumes the first worker panic; panics if `jobs` does not match the
    /// pool size.
    pub fn run_batch<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        self.run_batch_with(jobs, || {});
    }

    /// Hands one job to each worker, runs `inline` on the calling thread
    /// meanwhile, and returns once `inline` and **all** jobs have finished.
    ///
    /// The jobs may borrow from the caller's stack frame (they are
    /// lifetime-erased internally); soundness rests on this function never
    /// returning — or unwinding — before every worker has signalled done,
    /// so a panic in `inline` is caught and held until the drain completes.
    /// The first panic is then resumed on the caller, in a fixed order for
    /// determinism: `inline`'s, then the jobs' by worker index.
    ///
    /// # Panics
    ///
    /// Resumes the first panic of `inline` or a job; panics if `jobs` does
    /// not match the pool size.
    pub fn run_batch_with<'scope>(
        &self,
        jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>,
        inline: impl FnOnce(),
    ) {
        assert_eq!(jobs.len(), self.workers.len(), "one job per worker");
        let mut sent = 0;
        let mut hung_up = false;
        for (worker, job) in self.workers.iter().zip(jobs) {
            // SAFETY: the job is only erased to 'static so it can cross the
            // channel; the drain loop below blocks until the worker has
            // finished running it, so no borrow it captured is ever used
            // after this stack frame resumes. The drain also runs on the
            // panic path (`inline`'s panic is caught, and completion is
            // collected from every worker that got a job before any payload
            // is resumed). A job whose send fails comes back inside the
            // error and is dropped unrun, as are the jobs after it.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
            if worker.tx.send(job).is_err() {
                hung_up = true;
                break;
            }
            sent += 1;
        }
        let mut first_panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(inline)).err();
        for worker in &self.workers[..sent] {
            // A dead worker cannot be holding the borrow any more; treat it
            // like a panic so the caller hears about it.
            let done = worker
                .done
                .recv()
                .unwrap_or_else(|_| Err(Box::new("shard worker died")));
            if let Err(payload) = done {
                first_panic.get_or_insert(payload);
            }
        }
        if hung_up {
            first_panic.get_or_insert(Box::new("shard worker hung up"));
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            // Dropping the sender ends the worker's recv loop.
            let (dead_tx, _) = std::sync::mpsc::sync_channel::<Job>(1);
            let tx = std::mem::replace(&mut worker.tx, dead_tx);
            drop(tx);
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// The contiguous block of cores one shard owns: `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpan {
    /// First core index owned by the shard.
    pub start: usize,
    /// One past the last core index owned by the shard.
    pub end: usize,
}

/// Splits `cores` cores into `shards` disjoint contiguous spans, remainder
/// distributed to the lowest-indexed shards (so spans differ by at most
/// one core). The mapping is a pure function of `(cores, shards)` — every
/// replay partitions identically.
pub fn shard_spans(cores: usize, shards: usize) -> Vec<ShardSpan> {
    assert!(shards > 0 && shards <= cores, "1 <= shards <= cores");
    let base = cores / shards;
    let extra = cores % shards;
    let mut spans = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        spans.push(ShardSpan {
            start,
            end: start + len,
        });
        start += len;
    }
    spans
}

/// Expands `(core, weight)` pairs into a flow-dispatch slot table: a flow
/// hashes to `table[hash % table.len()]`, so a core's share of new flows
/// is proportional to its weight (the graded supervisor throttles a core
/// by halving its weight).
///
/// When every weight is equal the table collapses to one slot per core,
/// which keeps the mapping bit-identical to the historical
/// `active[hash % active.len()]` dispatch — an un-throttled NP dispatches
/// exactly as it did before weights existed.
pub fn dispatch_slots(weighted: &[(usize, u32)]) -> Vec<usize> {
    assert!(
        !weighted.is_empty(),
        "dispatch table needs at least one core"
    );
    if weighted.iter().all(|&(_, w)| w == weighted[0].1) {
        return weighted.iter().map(|&(core, _)| core).collect();
    }
    let total: usize = weighted.iter().map(|&(_, w)| w as usize).sum();
    let mut slots = Vec::with_capacity(total);
    for &(core, weight) in weighted {
        slots.extend(std::iter::repeat_n(core, weight as usize));
    }
    slots
}

/// Shard of a given core under [`shard_spans`].
pub fn shard_of(core: usize, cores: usize, shards: usize) -> usize {
    let base = cores / shards;
    let extra = cores % shards;
    // Cores [0, extra*(base+1)) belong to the fattened shards.
    let fat = extra * (base + 1);
    if core < fat {
        core / (base + 1)
    } else {
        extra + (core - fat) / base
    }
}

/// Bounded per-shard ingress queues with admission control — the streaming
/// engine's front door.
///
/// An open-loop source keeps offering packets whether or not the cores keep
/// up, so admission is where backpressure becomes visible: each packet is
/// routed to its flow's core, and it is admitted only while the owning
/// *shard* still has room in the current round. Overflow is dropped and
/// counted, never silently deferred — `offered == admitted + dropped`
/// holds at every instant, and all of it is a pure function of the packet
/// sequence (no timing, no randomness).
#[derive(Debug)]
pub struct IngressQueues {
    /// Per-core queues of admitted input indices, in arrival order.
    queues: Vec<Vec<usize>>,
    /// Per-shard admitted count this round (the bounded resource).
    fill: Vec<usize>,
    capacity: usize,
    cores: usize,
    shards: usize,
    offered: u64,
    admitted: u64,
    dropped: u64,
}

impl IngressQueues {
    /// Creates empty queues for `cores` cores in `shards` shards, each
    /// shard admitting at most `capacity` packets per round.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= shards <= cores` and `capacity > 0`.
    pub fn new(cores: usize, shards: usize, capacity: usize) -> IngressQueues {
        assert!(shards > 0 && shards <= cores, "1 <= shards <= cores");
        assert!(capacity > 0, "zero-capacity ingress admits nothing");
        IngressQueues {
            queues: vec![Vec::new(); cores],
            fill: vec![0; shards],
            capacity,
            cores,
            shards,
            offered: 0,
            admitted: 0,
            dropped: 0,
        }
    }

    /// Offers the packet at input `index` for `core`. On admission returns
    /// its queue delay — how many admitted packets sit ahead of it in the
    /// core's queue; `None` means the shard's round budget is exhausted and
    /// the packet was dropped.
    pub fn offer(&mut self, core: usize, index: usize) -> Option<u64> {
        self.offered += 1;
        let shard = shard_of(core, self.cores, self.shards);
        if self.fill[shard] >= self.capacity {
            self.dropped += 1;
            return None;
        }
        self.fill[shard] += 1;
        self.admitted += 1;
        let delay = self.queues[core].len() as u64;
        self.queues[core].push(index);
        Some(delay)
    }

    /// Drops `packets` offered while no core can take them (every core
    /// quarantined), counting each as offered and dropped.
    pub(crate) fn refuse(&mut self, packets: usize) {
        self.offered += packets as u64;
        self.dropped += packets as u64;
    }

    /// The per-core queues of admitted input indices.
    pub fn queues(&self) -> &[Vec<usize>] {
        &self.queues
    }

    /// The per-shard round budget. The `sdmmon trace` scenario sizes this
    /// above its worst-case round so admission never drops — the
    /// precondition for the trace artifact being shard-count-invariant.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Per-core queue lengths — the input [`steal_plan`] balances on.
    pub fn loads(&self) -> Vec<usize> {
        self.queues.iter().map(Vec::len).collect()
    }

    /// Empties the queues and the per-shard fill for the next round. The
    /// backpressure counters are cumulative and survive.
    pub fn clear_round(&mut self) {
        for queue in &mut self.queues {
            queue.clear();
        }
        self.fill.fill(0);
    }

    /// Packets offered so far (admitted + dropped).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Packets admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Packets dropped by admission control so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Deterministic work stealing of whole core queues.
///
/// Starting from the static [`shard_of`] ownership, repeatedly moves one
/// entire core queue from the most-loaded shard to the least-loaded one —
/// the queue whose size brings the pair closest to balance, ties broken by
/// lowest core index — until no single move strictly reduces the gap. Each
/// move is one *steal*: it models the least-loaded shard's worker draining
/// early and taking a whole queue from the straggler.
///
/// Because the plan is a pure function of the queue loads (not of thread
/// timing), the steal count replays exactly, and because a queue moves
/// whole, a flow is never split across workers: every core's queue still
/// runs contiguously, in input order, on exactly one worker — the
/// precondition for byte-identical outcomes at every shard count.
///
/// Returns `(owner shard per core, steal count)`.
///
/// # Panics
///
/// Panics unless `1 <= shards <= loads.len()`.
pub fn steal_plan(loads: &[usize], shards: usize) -> (Vec<usize>, u64) {
    let cores = loads.len();
    assert!(shards > 0 && shards <= cores, "1 <= shards <= cores");
    let mut owner: Vec<usize> = (0..cores).map(|c| shard_of(c, cores, shards)).collect();
    if shards == 1 {
        return (owner, 0);
    }
    let mut shard_load = vec![0u64; shards];
    for (core, &len) in loads.iter().enumerate() {
        shard_load[owner[core]] += len as u64;
    }
    let mut steals = 0u64;
    // Each move strictly decreases the sum of squared shard loads, so the
    // loop terminates; the cap is a safety net, not a tuning knob.
    for _ in 0..4 * cores {
        let donor = (0..shards)
            .max_by_key(|&s| (shard_load[s], shards - s))
            .expect("shards > 0");
        let thief = (0..shards)
            .min_by_key(|&s| (shard_load[s], s))
            .expect("shards > 0");
        let gap = shard_load[donor] - shard_load[thief];
        // The best movable queue leaves the pair with gap |gap - 2q|,
        // which improves on `gap` exactly when 0 < q < gap.
        let mut best: Option<(u64, usize)> = None;
        for core in 0..cores {
            if owner[core] != donor {
                continue;
            }
            let q = loads[core] as u64;
            if q == 0 || q >= gap {
                continue;
            }
            let post = gap.abs_diff(2 * q);
            if best.is_none_or(|(b, _)| post < b) {
                best = Some((post, core));
            }
        }
        let Some((_, core)) = best else {
            break;
        };
        owner[core] = thief;
        shard_load[donor] -= loads[core] as u64;
        shard_load[thief] += loads[core] as u64;
        steals += 1;
    }
    (owner, steals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn spans_cover_cores_exactly_once() {
        for cores in 1..=12 {
            for shards in 1..=cores {
                let spans = shard_spans(cores, shards);
                assert_eq!(spans.len(), shards);
                assert_eq!(spans[0].start, 0);
                assert_eq!(spans[shards - 1].end, cores);
                for w in spans.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "gap between spans");
                    assert!(w[0].end > w[0].start || w[0].start == w[0].end);
                }
                let sizes: Vec<usize> = spans.iter().map(|s| s.end - s.start).collect();
                let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                assert!(max - min <= 1, "spans unbalanced: {sizes:?}");
                // shard_of agrees with the spans.
                for core in 0..cores {
                    let s = shard_of(core, cores, shards);
                    assert!(
                        (spans[s].start..spans[s].end).contains(&core),
                        "core {core} mapped to shard {s} outside its span"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1 <= shards <= cores")]
    fn more_shards_than_cores_rejected() {
        shard_spans(2, 3);
    }

    #[test]
    fn uniform_weights_collapse_to_one_slot_per_core() {
        assert_eq!(dispatch_slots(&[(0, 2), (1, 2), (2, 2)]), vec![0, 1, 2]);
        assert_eq!(dispatch_slots(&[(0, 1), (3, 1)]), vec![0, 3]);
        assert_eq!(dispatch_slots(&[(5, 7)]), vec![5]);
    }

    #[test]
    fn throttled_weights_expand_proportionally_in_core_order() {
        assert_eq!(
            dispatch_slots(&[(0, 2), (1, 1), (2, 2)]),
            vec![0, 0, 1, 2, 2]
        );
        assert_eq!(dispatch_slots(&[(1, 1), (2, 2)]), vec![1, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_dispatch_table_rejected() {
        dispatch_slots(&[]);
    }

    #[test]
    fn pool_runs_scoped_jobs_to_completion() {
        let pool = WorkerPool::new(4);
        let mut outs = vec![0u64; 4];
        {
            let jobs: Vec<Box<dyn FnOnce() + Send>> = outs
                .iter_mut()
                .enumerate()
                .map(|(i, out)| {
                    Box::new(move || {
                        *out = (i as u64 + 1) * 10;
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run_batch(jobs);
        }
        assert_eq!(outs, vec![10, 20, 30, 40]);
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..2)
                .map(|_| {
                    let c = &counter;
                    Box::new(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run_batch(jobs);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    /// Three jobs that each add one to `finished`, except job `panic_at`,
    /// which panics instead.
    fn counting_jobs(
        finished: &AtomicUsize,
        panic_at: Option<usize>,
    ) -> Vec<Box<dyn FnOnce() + Send + '_>> {
        (0..3)
            .map(|i| {
                Box::new(move || {
                    if Some(i) == panic_at {
                        panic!("shard job failed");
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect()
    }

    #[test]
    fn pool_propagates_worker_panics_after_draining() {
        let pool = WorkerPool::new(3);
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_batch(counting_jobs(&finished, Some(1)));
        }));
        assert!(result.is_err(), "panic must propagate to the dispatcher");
        assert_eq!(
            finished.load(Ordering::Relaxed),
            2,
            "non-panicking jobs still ran to completion before the resume"
        );
        // The pool survives a panicked batch.
        pool.run_batch(counting_jobs(&finished, None));

        // A panicking inline group still waits for every worker job, which
        // borrow `finished` and must not outlive it. The barriers force the
        // interleaving: the inline group panics only once every job has
        // started, and no job finishes before that panic starts unwinding.
        struct ReleaseOnDrop<'a>(&'a Barrier);
        impl Drop for ReleaseOnDrop<'_> {
            fn drop(&mut self) {
                self.0.wait();
            }
        }
        let (started, release) = (Barrier::new(4), Barrier::new(4));
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..3)
            .map(|_| {
                let (finished, started, release) = (&finished, &started, &release);
                Box::new(move || {
                    started.wait();
                    release.wait();
                    finished.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        finished.store(0, Ordering::Relaxed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_batch_with(jobs, || {
                let _release = ReleaseOnDrop(&release);
                started.wait();
                panic!("inline group failed");
            });
        }));
        let payload = result.expect_err("the inline panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"inline group failed"));
        assert_eq!(
            finished.load(Ordering::Relaxed),
            3,
            "every worker job finished before the inline panic resumed"
        );

        // A worker panic still propagates when the inline group succeeds.
        let inline_ran = AtomicUsize::new(0);
        finished.store(0, Ordering::Relaxed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_batch_with(counting_jobs(&finished, Some(2)), || {
                inline_ran.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = result.expect_err("the worker panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"shard job failed"));
        assert_eq!(inline_ran.load(Ordering::Relaxed), 1);
        assert_eq!(finished.load(Ordering::Relaxed), 2);

        // And the pool runs a clean batch afterwards, inline group included.
        finished.store(0, Ordering::Relaxed);
        pool.run_batch_with(counting_jobs(&finished, None), || {
            inline_ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(finished.load(Ordering::Relaxed), 3);
        assert_eq!(inline_ran.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn ingress_admission_is_bounded_per_shard_and_accounted() {
        // 4 cores in 2 shards, 3 packets per shard per round.
        let mut ingress = IngressQueues::new(4, 2, 3);
        // Shard 0 owns cores {0, 1}: admit 3, drop the rest.
        assert_eq!(ingress.offer(0, 0), Some(0));
        assert_eq!(ingress.offer(1, 1), Some(0));
        assert_eq!(ingress.offer(0, 2), Some(1), "second in core 0's queue");
        assert_eq!(ingress.offer(1, 3), None, "shard 0 budget exhausted");
        // Shard 1 (cores {2, 3}) has its own budget.
        assert_eq!(ingress.offer(3, 4), Some(0));
        assert_eq!(ingress.offered(), 5);
        assert_eq!(ingress.admitted(), 4);
        assert_eq!(ingress.dropped(), 1);
        assert_eq!(ingress.admitted() + ingress.dropped(), ingress.offered());
        assert_eq!(ingress.queues()[0], vec![0, 2]);
        assert_eq!(ingress.queues()[1], vec![1]);
        assert_eq!(ingress.loads(), vec![2, 1, 0, 1]);
        // A new round restores the budget but keeps the accounting.
        ingress.clear_round();
        assert_eq!(ingress.offer(1, 5), Some(0));
        assert_eq!(ingress.offered(), 6);
        assert_eq!(ingress.admitted(), 5);
        assert_eq!(ingress.dropped(), 1);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn ingress_rejects_zero_capacity() {
        IngressQueues::new(4, 2, 0);
    }

    #[test]
    fn steal_plan_rebalances_whole_queues_deterministically() {
        // Cores 0/1 hold everything; shard 1 (cores 2/3) is empty and
        // steals one whole queue.
        let loads = [50usize, 50, 0, 0];
        let (owner, steals) = steal_plan(&loads, 2);
        assert_eq!(steals, 1);
        assert_eq!(owner, vec![1, 0, 1, 1], "core 0's queue re-homed whole");
        let mut shard_load = [0u64; 2];
        for (core, &s) in owner.iter().enumerate() {
            shard_load[s] += loads[core] as u64;
        }
        assert_eq!(shard_load, [50, 50]);
        // Pure function of the loads: replays bit-identically.
        assert_eq!(steal_plan(&loads, 2), steal_plan(&loads, 2));
    }

    #[test]
    fn steal_plan_never_splits_a_queue() {
        // One elephant queue dominating a 4-shard NP cannot be split, so
        // no steal can improve anything even though the shards are wildly
        // unbalanced.
        let loads = [100usize, 0, 0, 0, 0, 0, 0, 0];
        let (owner, steals) = steal_plan(&loads, 4);
        assert_eq!(steals, 0, "an unsplittable elephant stays home");
        assert_eq!(owner[0], shard_of(0, 8, 4));
    }

    #[test]
    fn steal_plan_reduces_imbalance_on_skewed_loads() {
        let loads = [40usize, 13, 7, 2, 1, 1, 0, 0];
        for shards in [2usize, 4] {
            let (owner, _) = steal_plan(&loads, shards);
            // Every core is owned by exactly one in-range shard.
            assert!(owner.iter().all(|&s| s < shards));
            let imbalance = |owners: &[usize]| {
                let mut load = vec![0u64; shards];
                for (core, &s) in owners.iter().enumerate() {
                    load[s] += loads[core] as u64;
                }
                *load.iter().max().unwrap() - *load.iter().min().unwrap()
            };
            let home: Vec<usize> = (0..loads.len())
                .map(|c| shard_of(c, loads.len(), shards))
                .collect();
            assert!(
                imbalance(&owner) <= imbalance(&home),
                "stealing made shards={shards} worse"
            );
        }
    }
}
