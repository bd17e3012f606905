//! The engine core: a virtual-time run queue of rank continuations
//! executed by a small set of worker threads.
//!
//! A rank is a schedulable continuation (`cont.rs`), not an OS thread.
//! The scheduler here keeps one slot per rank and a ready queue ordered
//! by `(virtual-time key, rank)`; a blocked receive suspends the
//! continuation (the slot moves to `Parked`), and a wake from the
//! sender moves it back to `Ready` (see "The wake protocol" below).
//! Workers pop the earliest-keyed ready rank, resume it until it parks
//! or finishes, and publish the transition under the scheduler lock. A
//! *fresh* rank is cheaper still: its body runs inline on the claiming
//! worker's hot fiber and only pays for a full [`Continuation`] (core
//! box, dedicated stack) if it actually parks — so a rank that never
//! blocks costs two stack switches and zero allocations.
//!
//! # Why this preserves determinism
//!
//! The determinism argument (DESIGN.md §2) never relies on host
//! scheduling: arrival times are fixed at send time from the sender's
//! seeded RNG streams, and a receiver only proceeds once the specific
//! `(src, tag)` message it waits for is in hand. This executor decides
//! *when on the host* a rank body runs, which is exactly the freedom
//! the argument grants — so timelines, CSV rows and traces are
//! byte-identical across worker counts and continuation backends, and
//! identical to the corpus recorded from the retired thread-per-rank
//! engine (`tests/engine_equivalence.rs`). The virtual-time ordering of
//! the ready queue is a host-side *policy* (it keeps memory low by
//! letting non-blocked ranks drain before long-running conversations
//! continue), not a correctness input.
//!
//! # The wake protocol (no lost wakeups, no per-message lock)
//!
//! Every wake on this engine is issued by a rank body while its slot is
//! `Running`: a delivery (`RunNet::send`/`send_batch`), a finishing
//! rank (`rank_done`, `poison_from` in the body wrapper) or a fired
//! deadline cycle (the parking rank's deadlock probe). The body does
//! not touch the scheduler: [`EventSched::wake_from`] appends the
//! target to the waker's own *outbox*, a per-rank list with exactly one
//! writer (the running body) and one reader (the worker that resumed
//! it, after `resume` returns). That worker applies the outbox in the
//! scheduler-lock acquisition that already publishes the waker's
//! outcome and claims the next batch:
//!
//! - `Parked` → `Ready` and a heap push;
//! - `Running` → `wake_pending`, which the worker that claimed the
//!   target converts into a requeue when its resume comes back parked;
//! - `Ready` or `Finished` → no-op.
//!
//! A message hand-off therefore costs a mailbox lock and a `Vec` push:
//! no condvar notify, no scheduler lock. A woken rank is requeued only
//! once its waker yields, which moves *when on the host* it runs, never
//! its virtual time (arrivals are fixed at send time).
//!
//! No wakeup is lost. A receiver checks every resolution under its
//! mailbox lock while its slot is `Running`, then suspends. The waker
//! changed the state (pushed the envelope, set its `done` flag, fired
//! the cycle) before the wake entered its outbox, and the outbox is
//! applied under the scheduler lock after that. If the receiver's park
//! is already published, the wake requeues it; if not, its slot is
//! still `Running` and the wake latches `wake_pending`; if it is
//! `Ready`, its claim comes after the wake under the same lock. In every
//! case the receiver's next mailbox check happens-after the change.

use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, OnceLock};

#[cfg(target_arch = "x86_64")]
use crate::cont::InlineRun;
use crate::cont::{Backend, Continuation, InlineFiber, Resume};
use crate::lockutil::OrderedMutex;

/// The shared per-rank body: the scheduler calls it once per rank, on
/// whatever worker claims that rank. One closure for the whole run (the
/// engine's body is identical across ranks up to the rank index), so
/// seeding a run allocates nothing per rank.
pub(crate) type RankBody = Box<dyn Fn(usize) + Send + Sync + 'static>;

/// Orders `SimTime` seconds as a totally ordered unsigned key
/// (sign-magnitude floats → monotone integers), so the ready heap can
/// sort `(time, rank)` without a float `Ord` wrapper. Handles the
/// negative times a skewed local clock can produce.
// A heap sort key, deliberately not a time: never added, subtracted or
// compared against any clock domain, so the bare u64 return is correct.
#[rustfmt::skip]
pub(crate) fn time_key(seconds: f64) -> u64 { // xtask-allow: clockdomain — sort key, not a time
    let bits = seconds.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Per-rank scheduler state (see module docs for the transitions).
#[derive(Clone, Copy)]
enum Slot {
    /// In the ready queue.
    Ready,
    /// Claimed by a worker; `wake_pending` records a wake that arrived
    /// mid-resume.
    Running { wake_pending: bool },
    /// Suspended; `key` is the virtual-time key it parked with.
    Parked { key: u64 },
    /// Body returned; never scheduled again.
    Finished,
}

struct SchedState {
    slots: Vec<Slot>,
    /// The *parked* continuation of each rank, present exactly when the
    /// rank has parked at least once and is not currently claimed by a
    /// worker. Ranks that never park never materialize one: their body
    /// runs inline on the claiming worker's hot fiber (see
    /// [`crate::cont::InlineFiber`]).
    conts: Vec<Option<Continuation>>,
    /// Next initially-seeded rank not yet claimed. Every rank starts
    /// ready at virtual time zero, so this cursor *is* the
    /// `(key₀, rank)` run of the merged ready sequence — seeding n
    /// heap entries (and paying n log n pops) would buy nothing.
    seed_cursor: usize,
    /// Min-heap on `(virtual-time key, rank)` of *re-woken* ranks only;
    /// the rank tiebreak makes pop order fully deterministic for equal
    /// keys.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Workers blocked in `wait`; a publish that requeued ranks skips
    /// the condvar notify when nobody is listening.
    idle: usize,
    finished: usize,
    /// First panic that escaped a rank body (engine bodies catch rank
    /// panics themselves, so this is a bug trap, not a normal path).
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl SchedState {
    /// Pops the earliest ready rank: the true minimum of the re-woken
    /// heap merged with the `(key₀, seed_cursor)` virgin run. A woken
    /// key *can* sort before key₀ (skewed clocks produce negative
    /// virtual times), so this is a real two-way merge, not an
    /// exhaust-the-cursor-first shortcut.
    fn next_ready(&mut self, n: usize) -> Option<usize> {
        let seeded = self.seed_cursor < n;
        match self.ready.peek() {
            Some(&Reverse(top)) if !seeded || top < (time_key(0.0), self.seed_cursor) => {
                self.ready.pop();
                Some(top.1)
            }
            _ if seeded => {
                let rank = self.seed_cursor;
                self.seed_cursor += 1;
                Some(rank)
            }
            _ => None,
        }
    }

    /// Applies one wake to `rank`'s slot (see module docs) and returns
    /// whether it requeued the rank.
    fn wake(&mut self, rank: usize) -> bool {
        match self.slots[rank] {
            Slot::Parked { key } => {
                self.slots[rank] = Slot::Ready;
                self.ready.push(Reverse((key, rank)));
                true
            }
            Slot::Running { .. } => {
                self.slots[rank] = Slot::Running { wake_pending: true };
                false
            }
            Slot::Ready | Slot::Finished => false,
        }
    }

    /// Whether no rank is ready (counting the unclaimed virgin run).
    fn queue_empty(&self, n: usize) -> bool {
        self.ready.is_empty() && self.seed_cursor >= n
    }
}

/// Upper bound on how many ready ranks one worker claims per scheduler
/// lock acquisition (the share is also divided by the worker count so
/// siblings are never starved).
const CLAIM_BATCH: usize = 16;

/// Result of one claimed rank's execution slice, carried from the run
/// phase to the batched publish.
enum Outcome {
    /// The body returned (inline dispatch carries any panic payload
    /// directly — there may never have been a `Continuation` to ask).
    Finished {
        panic: Option<Box<dyn std::any::Any + Send>>,
    },
    /// The body parked with `key`; `cont` resumes it later.
    Parked { cont: Continuation, key: u64 },
}

/// The wakes one rank's body issued during its current resume (see
/// module docs).
struct WakeOutbox {
    wakes: UnsafeCell<Vec<usize>>,
}

// SAFETY: the same single-writer argument as the engine's `OutSlot`.
// Rank r's outbox is written only by rank r's body, which runs on one
// thread at a time and only while slot r is `Running`, and read only by
// the worker that resumed it, after `resume` returned (same thread for
// fibers; the continuation handshake orders the body's writes before
// `resume` returns for thread-backed ones). That worker empties it
// before publishing r's outcome under the scheduler lock, and the next
// claim of r — the only way r's body runs again — happens after that
// publish under the same lock. So no two accesses are ever concurrent.
unsafe impl Sync for WakeOutbox {}

/// The identity of the rank whose body runs the code holding it: the
/// proof [`EventSched::wake_from`] needs that it writes its caller's
/// own outbox. Only a rank's own body may hold one (see
/// [`BodyRank::new`]).
#[derive(Clone, Copy)]
pub(crate) struct BodyRank {
    rank: usize,
}

impl BodyRank {
    /// # Safety
    /// The result must stay in rank `rank`'s body: only code that runs
    /// as that body (on the events engine, while its slot is `Running`)
    /// may use it.
    // SAFETY: the contract above is what `WakeOutbox`'s single-writer
    // argument rests on.
    pub(crate) unsafe fn new(rank: usize) -> Self {
        BodyRank { rank }
    }

    pub(crate) fn rank(self) -> usize {
        self.rank
    }
}

/// The per-run event scheduler shared by the workers and the rank
/// bodies' `RunNet` wake paths.
pub(crate) struct EventSched {
    // lock-order: events.sched level=15
    runq: OrderedMutex<SchedState>,
    cv: Condvar, // lock-order: events.sched
    n: usize,
    /// Target worker count of this run (batch-share divisor).
    workers: usize,
    /// The shared rank body (see [`RankBody`]).
    body: RankBody,
    /// Continuation backend for ranks that park.
    backend: Backend,
    /// Per-rank wake outboxes (see [`WakeOutbox`]).
    outbox: Vec<WakeOutbox>,
}

impl EventSched {
    /// Seeds `n` ranks, all ready at virtual time zero (claimed in rank
    /// order via the seed cursor); each runs `body(rank)` once.
    pub(crate) fn new(n: usize, body: RankBody, backend: Backend) -> Self {
        // Without the fiber backend every continuation is thread-backed.
        #[cfg(not(target_arch = "x86_64"))]
        let backend = Backend::Thread;
        EventSched {
            runq: OrderedMutex::new(
                "events.sched",
                15,
                SchedState {
                    slots: vec![Slot::Ready; n],
                    conts: (0..n).map(|_| None).collect(),
                    seed_cursor: 0,
                    ready: BinaryHeap::new(),
                    idle: 0,
                    finished: 0,
                    panic: None,
                },
            ),
            cv: Condvar::new(),
            n,
            workers: worker_count(),
            body,
            backend,
            outbox: (0..n)
                .map(|_| WakeOutbox {
                    wakes: UnsafeCell::new(Vec::new()),
                })
                .collect(),
        }
    }

    /// Wakes `target` on behalf of the running body `from`: called after
    /// any state change a parked receiver might be waiting on (message
    /// delivery, rank completion, deadline-cycle firing). Deferred — the
    /// target is requeued once `from` yields (see module docs). Always
    /// safe to over-call: waking a ready or finished rank is a no-op,
    /// and a woken receiver simply re-checks its mailbox.
    pub(crate) fn wake_from(&self, from: BodyRank, target: usize) {
        // SAFETY: `from` proves the caller is that rank's running body,
        // the outbox's only writer (see `WakeOutbox`).
        unsafe { (*self.outbox[from.rank].wakes.get()).push(target) };
    }

    /// Runs one *fresh* rank: inline on the worker's hot fiber when the
    /// run uses the fiber backend, through a thread continuation
    /// otherwise.
    fn start_rank(&self, rank: usize, hot: &mut InlineFiber) -> Outcome {
        #[cfg(target_arch = "x86_64")]
        if self.backend == Backend::Fiber {
            return match hot.run(|| (self.body)(rank)) {
                InlineRun::Finished { panic } => Outcome::Finished { panic },
                InlineRun::Parked { cont, key } => Outcome::Parked { cont, key },
            };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = hot;
        let body: &RankBody = &self.body;
        let entry: Box<dyn FnOnce() + Send + '_> = Box::new(move || body(rank));
        // SAFETY: the entry borrows `self.body`, which lives until the
        // `EventSched` drops — strictly after `drive` returned, and
        // `drive` returns only once this rank's continuation finished
        // (or will never run again: a parked continuation abandoned by
        // the panic wind-down stays suspended forever, so the borrow is
        // never touched after the scheduler drops). The transmute only
        // widens the trait object's lifetime parameter.
        let entry: crate::cont::Entry = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, crate::cont::Entry>(entry)
        };
        let mut cont = Continuation::new(entry, Backend::Thread);
        match cont.resume() {
            Resume::Finished => Outcome::Finished {
                panic: cont.take_panic(),
            },
            Resume::Parked(key) => Outcome::Parked { cont, key },
        }
    }

    fn worker_loop(&self) {
        let mut hot = InlineFiber::new();
        // Claimed ranks (with their parked continuation, if any) and
        // their post-run outcomes, both batched: publishing the previous
        // batch and claiming the next share the same scheduler lock
        // acquisition — one lock round per batch, not one per rank per
        // direction.
        let mut batch: Vec<(usize, Option<Continuation>)> = Vec::with_capacity(CLAIM_BATCH);
        let mut outcomes: Vec<(usize, Outcome)> = Vec::with_capacity(CLAIM_BATCH);
        loop {
            let mut st = self.runq.acquire();
            let mut requeued = 0usize;
            let mut winding_down = false;
            for (rank, outcome) in outcomes.drain(..) {
                // SAFETY: `rank`'s body has returned from `resume` and
                // its slot is still `Running` under this worker's claim,
                // so nothing else touches its outbox until the outcome
                // below is published (see `WakeOutbox`).
                let wakes = unsafe { &mut *self.outbox[rank].wakes.get() };
                for &target in wakes.iter() {
                    requeued += usize::from(st.wake(target));
                }
                if matches!(outcome, Outcome::Finished { .. }) {
                    // Never written again: release a completion burst.
                    *wakes = Vec::new();
                } else {
                    wakes.clear();
                }
                match outcome {
                    Outcome::Finished { panic } => {
                        st.slots[rank] = Slot::Finished;
                        st.finished += 1;
                        if let Some(p) = panic {
                            // Keep the first payload; the executor winds
                            // down (workers bail once the queue drains)
                            // and `drive` re-throws it on the caller.
                            st.panic.get_or_insert(p);
                        }
                        if st.finished == self.n || st.panic.is_some() {
                            winding_down = true;
                        }
                    }
                    Outcome::Parked { cont, key } => {
                        // A wake that arrived while the rank ran left
                        // `wake_pending` set; it applies to the park.
                        let woken = matches!(st.slots[rank], Slot::Running { wake_pending: true });
                        st.conts[rank] = Some(cont);
                        st.slots[rank] = Slot::Parked { key };
                        if woken {
                            requeued += usize::from(st.wake(rank));
                        }
                    }
                }
            }
            loop {
                if st.finished == self.n || (st.panic.is_some() && st.queue_empty(self.n)) {
                    drop(st);
                    // Release any sibling parked on an empty queue.
                    self.cv.notify_all();
                    return;
                }
                // Claim an equal share of what is currently ready so
                // sibling workers are never starved by the batching.
                let avail = st.ready.len() + (self.n - st.seed_cursor);
                let share = avail.div_ceil(self.workers).clamp(1, CLAIM_BATCH);
                while batch.len() < share {
                    match st.next_ready(self.n) {
                        Some(rank) => {
                            st.slots[rank] = Slot::Running {
                                wake_pending: false,
                            };
                            // `None` exactly for ranks claimed off the
                            // virgin seed cursor; woken ranks always
                            // re-published a continuation when parking.
                            let cont = st.conts[rank].take();
                            batch.push((rank, cont));
                        }
                        None => break,
                    }
                }
                if !batch.is_empty() {
                    break;
                }
                // NOTE: if every rank is parked and none can be woken
                // (a receive cycle with deadlock detection disabled),
                // this waits forever: the documented behavior of
                // `ClusterBuilder::deadlock_detection(false)`.
                st.idle += 1;
                st = st.wait(&self.cv);
                st.idle -= 1;
            }
            let idle = st.idle;
            let pending = !st.queue_empty(self.n);
            drop(st);
            if winding_down {
                self.cv.notify_all();
            } else if requeued > 0 && idle > 0 && pending {
                for _ in 0..requeued.min(idle) {
                    self.cv.notify_one();
                }
            }

            for (rank, cont) in batch.drain(..) {
                let outcome = match cont {
                    Some(mut c) => match c.resume() {
                        Resume::Finished => Outcome::Finished {
                            panic: c.take_panic(),
                        },
                        Resume::Parked(key) => Outcome::Parked { cont: c, key },
                    },
                    None => self.start_rank(rank, &mut hot),
                };
                outcomes.push((rank, outcome));
            }
        }
    }
}

/// Runs the scheduler to completion on the calling thread plus
/// `worker_count() - 1` helpers, then re-throws the first escaped body
/// panic, if any.
pub(crate) fn drive(sched: &Arc<EventSched>) {
    let extra = worker_count().saturating_sub(1);
    if extra == 0 {
        sched.worker_loop();
    } else {
        std::thread::scope(|scope| {
            for i in 0..extra {
                let sched = Arc::clone(sched);
                std::thread::Builder::new()
                    .name(format!("hcs-events-{i}"))
                    .spawn_scoped(scope, move || sched.worker_loop())
                    .expect("failed to spawn event worker");
            }
            sched.worker_loop();
        });
    }
    let payload = sched.runq.acquire().panic.take();
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
}

/// How many workers drive the continuation queue. `HCS_EVENT_WORKERS`
/// overrides; otherwise the host's parallelism, capped low — workers
/// share one scheduler lock, and most simulated workloads serialize on
/// message order anyway, so a handful of workers captures the available
/// overlap. Worker count is pure host policy: it cannot affect virtual
/// time (see module docs), only wall-clock speed.
///
/// Resolved once per process: `available_parallelism` re-reads cgroup
/// quota files on every call, which is far too expensive to pay per
/// run (so `HCS_EVENT_WORKERS` is also only consulted on first use).
fn worker_count() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Ok(v) = std::env::var("HCS_EVENT_WORKERS") {
            if let Ok(n) = v.parse::<usize>() {
                return n.clamp(1, 64);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    })
}

/// Which continuation backend this run uses: fibers unless the
/// portable/TSan-safe thread handshake was requested (or required by
/// the target; see `cont.rs`).
pub(crate) fn backend_from_env() -> Backend {
    match std::env::var("HCS_EVENT_THREAD_CONT") {
        Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Backend::Thread,
        _ => Backend::Fiber,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cont::Entry;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Adapts a per-rank job list to the shared-body interface: each
    /// rank takes and runs its own job exactly once.
    fn sched_from_jobs(jobs: Vec<Entry>) -> Arc<EventSched> {
        Arc::new(new_sched(jobs))
    }

    /// Like [`sched_from_jobs`], but sized for one worker, so a claim
    /// takes every ready rank and [`EventSched::worker_loop`] on the
    /// test thread runs them in a fixed order.
    fn one_worker_sched(jobs: Vec<Entry>) -> Arc<EventSched> {
        let mut sched = new_sched(jobs);
        sched.workers = 1;
        Arc::new(sched)
    }

    fn new_sched(jobs: Vec<Entry>) -> EventSched {
        let n = jobs.len();
        let cells: Vec<OrderedMutex<Option<Entry>>> = jobs
            .into_iter()
            .map(|j| OrderedMutex::new("events.test-jobs", 92, Some(j)))
            .collect();
        let body = move |rank: usize| {
            let job = cells[rank]
                .acquire()
                .take()
                .expect("each rank runs exactly once");
            job();
        };
        EventSched::new(n, Box::new(body), backend_from_env())
    }

    /// The wake token of the job body it is called in.
    fn body(rank: usize) -> BodyRank {
        // SAFETY: every call site is the body of job `rank`.
        unsafe { BodyRank::new(rank) }
    }

    /// A late-bound handle to the run's scheduler, for bodies that wake.
    type SchedSlot = Arc<OrderedMutex<Option<Arc<EventSched>>>>;

    fn sched_slot() -> SchedSlot {
        Arc::new(OrderedMutex::new("events.test-slot", 90, None))
    }

    fn installed(slot: &SchedSlot) -> Arc<EventSched> {
        slot.acquire().clone().expect("installed before the run")
    }

    fn slot_of(sched: &EventSched, rank: usize) -> Slot {
        sched.runq.acquire().slots[rank]
    }

    /// A shared event log, in the order the bodies ran.
    type Log = Arc<OrderedMutex<Vec<&'static str>>>;

    fn new_log() -> Log {
        Arc::new(OrderedMutex::new("events.test-order", 91, Vec::new()))
    }

    fn run_jobs(jobs: Vec<Entry>) {
        drive(&sched_from_jobs(jobs));
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let hits = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Entry> = (0..100)
            .map(|_| {
                let hits = Arc::clone(&hits);
                let job: Entry = Box::new(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
                job
            })
            .collect();
        run_jobs(jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn empty_job_list_returns_immediately() {
        run_jobs(Vec::new());
    }

    #[test]
    fn wake_restores_a_parked_continuation() {
        // Job 0 parks once; job 1 wakes it through the scheduler. The
        // executor must deliver the wake even though job 1 runs (and
        // wakes) while job 0 may still be publishing its park.
        let sched0 = sched_slot();
        let hits = Arc::new(AtomicUsize::new(0));
        let s0 = Arc::clone(&sched0);
        let h0 = Arc::clone(&hits);
        let h1 = Arc::clone(&hits);
        let jobs: Vec<Entry> = vec![
            Box::new(move || {
                crate::cont::suspend_current(time_key(1.0));
                h0.fetch_add(1, Ordering::SeqCst);
            }),
            Box::new(move || {
                installed(&s0).wake_from(body(1), 0);
                h1.fetch_add(1, Ordering::SeqCst);
            }),
        ];
        let sched = sched_from_jobs(jobs);
        *sched0.acquire() = Some(Arc::clone(&sched));
        drive(&sched);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn ready_queue_pops_in_virtual_time_then_rank_order() {
        // Single worker (worker_loop on this thread) so pop order is
        // observable. Ranks 0..4 seed at key 0 and run in rank order;
        // each parks at a key that *reverses* the rank order. Rank 4
        // then wakes everyone — the drain must follow the keys.
        let order = Arc::new(OrderedMutex::new("events.test-order", 91, Vec::new()));
        let slot = sched_slot();
        let n = 4usize;
        let mut jobs: Vec<Entry> = (0..n)
            .map(|r| {
                let order = Arc::clone(&order);
                let job: Entry = Box::new(move || {
                    order.acquire().push(("start", r));
                    crate::cont::suspend_current(time_key((n - r) as f64));
                    order.acquire().push(("end", r));
                });
                job
            })
            .collect();
        let waker = Arc::clone(&slot);
        jobs.push(Box::new(move || {
            let sched = installed(&waker);
            for rank in 0..n {
                sched.wake_from(body(n), rank);
            }
        }));
        let sched = sched_from_jobs(jobs);
        *slot.acquire() = Some(Arc::clone(&sched));
        sched.worker_loop();
        let got = order.acquire().clone();
        let starts: Vec<usize> = got
            .iter()
            .filter(|(w, _)| *w == "start")
            .map(|&(_, r)| r)
            .collect();
        assert_eq!(starts, vec![0, 1, 2, 3], "seeded order is rank order");
        let ends: Vec<usize> = got
            .iter()
            .filter(|(w, _)| *w == "end")
            .map(|&(_, r)| r)
            .collect();
        assert_eq!(ends, vec![3, 2, 1, 0], "wakeups drain in key order");
    }

    #[test]
    fn deferred_wake_runs_the_peer_only_after_the_waker_yields() {
        // Rank 2 wakes rank 1 so that rank 1 resumes alone, with rank 0
        // already published as parked. Rank 1 then wakes rank 0, keeps
        // sending (more wakes) and computing, and parks. Rank 0 stays
        // parked until then, and wakes rank 1 in turn.
        let slot = sched_slot();
        let log = new_log();
        let (s0, s1, s2) = (slot.clone(), slot.clone(), slot.clone());
        let (l0, l1, l2) = (log.clone(), log.clone(), log.clone());
        let jobs: Vec<Entry> = vec![
            Box::new(move || {
                l0.acquire().push("0 parks");
                crate::cont::suspend_current(time_key(1.0));
                l0.acquire().push("0 resumed");
                installed(&s0).wake_from(body(0), 1);
            }),
            Box::new(move || {
                l1.acquire().push("1 parks");
                crate::cont::suspend_current(time_key(0.5));
                let sched = installed(&s1);
                l1.acquire().push("1 wakes 0");
                sched.wake_from(body(1), 0);
                assert!(matches!(slot_of(&sched, 0), Slot::Parked { .. }));
                // A repeated wake, then one of a finished rank.
                sched.wake_from(body(1), 0);
                sched.wake_from(body(1), 2);
                let spin: u64 = (0..10_000u64).map(std::hint::black_box).sum();
                assert_eq!(spin, 49_995_000);
                assert!(
                    matches!(slot_of(&sched, 0), Slot::Parked { .. }),
                    "a wake is applied only once its waker yields"
                );
                l1.acquire().push("1 computed");
                crate::cont::suspend_current(time_key(2.0));
                l1.acquire().push("1 resumed");
            }),
            Box::new(move || {
                l2.acquire().push("2 wakes 1");
                installed(&s2).wake_from(body(2), 1);
            }),
        ];
        let sched = one_worker_sched(jobs);
        *slot.acquire() = Some(Arc::clone(&sched));
        sched.worker_loop();
        assert_eq!(
            *log.acquire(),
            [
                "0 parks",
                "1 parks",
                "2 wakes 1",
                "1 wakes 0",
                "1 computed",
                "0 resumed",
                "1 resumed"
            ]
        );
    }

    #[test]
    fn wake_of_a_running_rank_latches_and_requeues_on_park() {
        // The transition itself.
        let sched = new_sched(vec![Box::new(|| {}), Box::new(|| {})]);
        {
            let mut st = sched.runq.acquire();
            st.slots[1] = Slot::Running {
                wake_pending: false,
            };
            assert!(!st.wake(1), "a running rank is not requeued");
            assert!(matches!(st.slots[1], Slot::Running { wake_pending: true }));
            st.slots[1] = Slot::Finished;
            assert!(!st.wake(1));
            assert!(matches!(st.slots[1], Slot::Finished));
        }
        // Driven: one batch claims both ranks. Rank 0 wakes rank 1 (still
        // `Running`, not yet resumed) and finishes; rank 1 then parks and
        // nobody else wakes it. The run completes only if the latched
        // wake requeues that park.
        let slot = sched_slot();
        let log = new_log();
        let (s0, s1) = (slot.clone(), slot.clone());
        let (l0, l1) = (log.clone(), log.clone());
        let jobs: Vec<Entry> = vec![
            Box::new(move || {
                l0.acquire().push("0 wakes 1");
                installed(&s0).wake_from(body(0), 1);
            }),
            Box::new(move || {
                let sched = installed(&s1);
                assert!(matches!(
                    slot_of(&sched, 1),
                    Slot::Running {
                        wake_pending: false
                    }
                ));
                l1.acquire().push("1 parks");
                crate::cont::suspend_current(time_key(1.0));
                l1.acquire().push("1 resumed");
            }),
        ];
        let sched = one_worker_sched(jobs);
        *slot.acquire() = Some(Arc::clone(&sched));
        sched.worker_loop();
        assert_eq!(*log.acquire(), ["0 wakes 1", "1 parks", "1 resumed"]);
    }

    #[test]
    fn wake_from_a_finishing_body_reaches_a_parked_deadline_waiter() {
        // The shape of `rank_done`: rank 1 sets its `done` flag and wakes
        // the waiter as the last thing its body does. Rank 0 waits for
        // that flag the way a deadline receive does: check, park, re-check.
        let slot = sched_slot();
        let done = Arc::new(AtomicUsize::new(0));
        let parks = Arc::new(AtomicUsize::new(0));
        let (d0, d1, p0, s1) = (done.clone(), done.clone(), parks.clone(), slot.clone());
        let jobs: Vec<Entry> = vec![
            Box::new(move || {
                while d0.load(Ordering::SeqCst) == 0 {
                    p0.fetch_add(1, Ordering::SeqCst);
                    crate::cont::suspend_current(time_key(5.0));
                }
            }),
            Box::new(move || {
                let sched = installed(&s1);
                d1.store(1, Ordering::SeqCst);
                sched.wake_from(body(1), 0);
            }),
        ];
        let sched = one_worker_sched(jobs);
        *slot.acquire() = Some(Arc::clone(&sched));
        sched.worker_loop();
        assert_eq!(parks.load(Ordering::SeqCst), 1);
        assert!(matches!(slot_of(&sched, 0), Slot::Finished));
        // SAFETY: the run is over; no body or worker touches the outbox.
        let left = unsafe { (*sched.outbox[1].wakes.get()).capacity() };
        assert_eq!(left, 0, "a finished rank's outbox is released");
    }

    #[test]
    fn body_panic_is_rethrown_by_drive() {
        let jobs: Vec<Entry> = vec![Box::new(|| panic!("executor bug trap"))];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_jobs(jobs)))
            .expect_err("must rethrow");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("executor bug trap"), "{msg}");
    }

    #[test]
    fn time_key_is_monotone() {
        let xs = [-2.0, -1.0, -0.5, 0.0, 1e-12, 0.5, 1.0, 2.0, 1e9];
        for w in xs.windows(2) {
            assert!(time_key(w[0]) < time_key(w[1]), "{} vs {}", w[0], w[1]);
        }
    }
}
