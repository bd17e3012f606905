//! Host-time spans recorded around the calls the benchmark makes into
//! each layer, and the attribution of a run's wall time to layers.
//!
//! Spans live in memory for the whole traced run and are written out
//! once at the end. Every span carries its name (`<layer>.<call>`),
//! host start and end, rank, parent span and mpirun id.
//!
//! On the events engine a rank's span around a blocking call also
//! covers the time its continuation sat parked while other ranks ran,
//! so summing spans over ranks overcounts by up to p×. Blocking layers
//! are therefore given their *frontier* time: the last rank's exit from
//! the layer minus the last rank's exit from the stage before it.
//! Frontier times of consecutive stages partition the run. Clock reads
//! never park, so their busy time is a plain sum.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use hcs_clock::{BoxClock, Clock, GlobalTime, LinearModel};
use hcs_core::{ClockOffset, ClockSync, OffsetAlgorithm};
use hcs_mpi::Comm;
use hcs_sim::{lock_ignore_poison, RankCtx, SimTime};

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).expect("benchmark runs for less than 584 years")
}

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// `<layer>.<call>`, e.g. `core.sync`.
    pub name: &'static str,
    /// Host start, ns since the process epoch.
    pub start_ns: u64,
    /// Host end, ns since the process epoch.
    pub end_ns: u64,
    /// Simulated rank that made the call.
    pub rank: u32,
    /// Index of the enclosing span in the same rank's list, or
    /// [`NO_PARENT`].
    pub parent: u32,
    /// Which mpirun (one `Cluster::run`) of the traced run.
    pub mpirun: u32,
}

/// Per-rank counts taken at layer boundaries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RankCounts {
    /// Messages this rank sent inside `run_sync`.
    pub sync_msgs: u64,
    /// Messages this rank sent inside `check_clock_accuracy`.
    pub check_msgs: u64,
    /// Calls of the wrapped offset probe.
    pub offset_calls: u64,
    /// `Comm::allreduce` calls made by the Round-Time operation.
    pub allreduce_calls: u64,
    /// Messages this rank sent inside those allreduces.
    pub allreduce_msgs: u64,
}

#[derive(Default)]
struct RankState {
    spans: Vec<SpanRec>,
    open: Vec<u32>,
    counts: RankCounts,
}

/// The trace of one rank in one mpirun. Shared (via `Arc`) between the
/// rank body and the wrappers it hands to the layers; a rank runs on
/// one worker at a time, so its lock is uncontended.
pub struct RankLog {
    rank: u32,
    mpirun: u32,
    state: Mutex<RankState>,
    clock_reads: AtomicU64,
    clock_busy_ns: AtomicU64,
}

impl RankLog {
    fn new(rank: u32, mpirun: u32) -> Self {
        Self {
            rank,
            mpirun,
            state: Mutex::new(RankState::default()),
            clock_reads: AtomicU64::new(0),
            clock_busy_ns: AtomicU64::new(0),
        }
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        let mut st = lock_ignore_poison(&self.state);
        let parent = st.open.last().copied().unwrap_or(NO_PARENT);
        let idx = u32::try_from(st.spans.len()).expect("fewer than 2^32 spans per rank");
        st.spans.push(SpanRec {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            rank: self.rank,
            parent,
            mpirun: self.mpirun,
        });
        st.open.push(idx);
        SpanGuard {
            log: Arc::clone(self),
            idx,
        }
    }

    /// Adds to this rank's boundary counts.
    pub fn count(&self, f: impl FnOnce(&mut RankCounts)) {
        f(&mut lock_ignore_poison(&self.state).counts);
    }

    fn close(&self, idx: u32) {
        let end = now_ns();
        let mut st = lock_ignore_poison(&self.state);
        st.spans[idx as usize].end_ns = end;
        let top = st.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }
}

/// Closes its span on drop.
pub struct SpanGuard {
    log: Arc<RankLog>,
    idx: u32,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.log.close(self.idx);
    }
}

/// Opens `name` on `log` when tracing is on.
pub fn span(log: &Option<Arc<RankLog>>, name: &'static str) -> Option<SpanGuard> {
    log.as_ref().map(|l| l.span(name))
}

/// What the rank logs of one mpirun add up to.
#[derive(Debug, Default, Clone)]
pub struct MpirunTrace {
    /// Spans per rank, in recording order.
    pub spans: Vec<Vec<SpanRec>>,
    /// Boundary counts summed over ranks.
    pub counts: RankCounts,
    /// Clock reads summed over ranks.
    pub clock_reads: u64,
    /// Host ns spent inside clock reads, summed over ranks.
    pub clock_busy_ns: u64,
}

/// The logs of all ranks of one mpirun.
pub struct MpirunLogs {
    logs: Vec<Arc<RankLog>>,
}

impl MpirunLogs {
    /// One fresh log per rank.
    pub fn new(p: usize, mpirun: u32) -> Self {
        let logs = (0..p)
            .map(|r| {
                Arc::new(RankLog::new(
                    u32::try_from(r).expect("rank fits u32"),
                    mpirun,
                ))
            })
            .collect();
        Self { logs }
    }

    /// The log of `rank`.
    pub fn rank(&self, rank: usize) -> Arc<RankLog> {
        Arc::clone(&self.logs[rank])
    }

    /// Collects every rank's spans and counts.
    pub fn finish(self) -> MpirunTrace {
        let mut out = MpirunTrace::default();
        for log in self.logs {
            out.clock_reads += log.clock_reads.load(Ordering::Relaxed);
            out.clock_busy_ns += log.clock_busy_ns.load(Ordering::Relaxed);
            let mut st = lock_ignore_poison(&log.state);
            let c = st.counts;
            out.counts.sync_msgs += c.sync_msgs;
            out.counts.check_msgs += c.check_msgs;
            out.counts.offset_calls += c.offset_calls;
            out.counts.allreduce_calls += c.allreduce_calls;
            out.counts.allreduce_msgs += c.allreduce_msgs;
            out.spans.push(std::mem::take(&mut st.spans));
        }
        out
    }
}

/// Times and counts every read of the base clock. Global-clock
/// decorators stack on top of it, so their reads pass through here.
pub struct TimedClock {
    inner: BoxClock,
    log: Arc<RankLog>,
}

impl TimedClock {
    /// Wraps the base clock of one rank.
    pub fn new(inner: BoxClock, log: Arc<RankLog>) -> Self {
        Self { inner, log }
    }
}

impl Clock for TimedClock {
    fn get_time(&mut self, ctx: &mut RankCtx) -> GlobalTime {
        let t0 = now_ns();
        let r = self.inner.get_time(ctx);
        let dt = now_ns() - t0;
        self.log.clock_reads.fetch_add(1, Ordering::Relaxed);
        self.log.clock_busy_ns.fetch_add(dt, Ordering::Relaxed);
        r
    }
    fn true_eval(&self, t: SimTime) -> GlobalTime {
        self.inner.true_eval(t)
    }
    fn drift_rate(&self, t: SimTime) -> f64 {
        self.inner.drift_rate(t)
    }
    fn collect_models(&self, out: &mut Vec<LinearModel>) {
        self.inner.collect_models(out)
    }
}

/// Records a span around each `sync_clocks` call of the wrapped
/// algorithm (used for the levels handed to `Hierarchical::h2`).
pub struct TimedSync {
    inner: Box<dyn ClockSync>,
    name: &'static str,
    log: Arc<RankLog>,
}

impl TimedSync {
    /// Wraps `inner`, recording its calls as spans named `name`.
    pub fn new(inner: Box<dyn ClockSync>, name: &'static str, log: Arc<RankLog>) -> Self {
        Self { inner, name, log }
    }
}

impl ClockSync for TimedSync {
    fn sync_clocks(&mut self, ctx: &mut RankCtx, comm: &mut Comm, clk: BoxClock) -> BoxClock {
        let _s = self.log.span(self.name);
        self.inner.sync_clocks(ctx, comm, clk)
    }
    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Counts and records each offset measurement of the wrapped probe.
pub struct TimedProbe<O> {
    inner: O,
    log: Arc<RankLog>,
}

impl<O: OffsetAlgorithm> TimedProbe<O> {
    /// Wraps the probe handed to `check_clock_accuracy`.
    pub fn new(inner: O, log: Arc<RankLog>) -> Self {
        Self { inner, log }
    }
}

impl<O: OffsetAlgorithm> OffsetAlgorithm for TimedProbe<O> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn measure_offset(
        &mut self,
        ctx: &mut RankCtx,
        comm: &Comm,
        clk: &mut dyn Clock,
        p_ref: usize,
        client: usize,
    ) -> Option<ClockOffset> {
        self.log.count(|c| c.offset_calls += 1);
        let _s = self.log.span("core.offset");
        self.inner.measure_offset(ctx, comm, clk, p_ref, client)
    }
    fn nexchanges(&self) -> usize {
        self.inner.nexchanges()
    }
}

/// Where on a rank a checkpoint falls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum At {
    /// End of the `k`-th span with this name.
    End(&'static str, usize),
    /// Start of the `k`-th span with this name.
    Start(&'static str, usize),
    /// Start of the first child of the first span with this name, or
    /// that span's end when it has no child.
    FirstChild(&'static str),
}

/// A checkpoint closes the stage it names: the stage runs from the
/// previous checkpoint to this one. A rank that lacks the span passes
/// the checkpoint together with the previous one (it skipped the stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Stage the interval ending here is attributed to.
    pub stage: &'static str,
    /// Where the interval ends.
    pub at: At,
}

/// The checkpoint times of one rank, each at least the previous one.
pub fn rank_checkpoints(spans: &[SpanRec], plan: &[Checkpoint], entry_ns: u64) -> Vec<u64> {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_name.entry(s.name).or_default().push(i);
    }
    let nth = |name: &str, k: usize| by_name.get(name).and_then(|v| v.get(k)).map(|&i| &spans[i]);
    let mut prev = entry_ns;
    plan.iter()
        .map(|cp| {
            let t = match cp.at {
                At::End(name, k) => nth(name, k).map(|s| s.end_ns),
                At::Start(name, k) => nth(name, k).map(|s| s.start_ns),
                At::FirstChild(name) => by_name.get(name).map(|v| {
                    let parent = v[0];
                    spans
                        .iter()
                        .find(|c| c.parent as usize == parent)
                        .map_or(spans[parent].end_ns, |c| c.start_ns)
                }),
            };
            prev = t.unwrap_or(prev).max(prev);
            prev
        })
        .collect()
}

/// Frontier attribution of one mpirun: stage `k` gets the last rank's
/// checkpoint `k` minus the last rank's checkpoint `k-1`; the first
/// stage starts at the first rank-body entry. Stages of the same name
/// accumulate. The totals partition `[first entry, last checkpoint]`.
pub fn frontier(
    per_rank: &[Vec<u64>],
    plan: &[Checkpoint],
    first_entry_ns: u64,
) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    let mut prev = first_entry_ns;
    for (k, cp) in plan.iter().enumerate() {
        let f = per_rank
            .iter()
            .map(|cps| cps[k])
            .max()
            .unwrap_or(prev)
            .max(prev);
        match out.iter_mut().find(|(n, _)| *n == cp.stage) {
            Some((_, t)) => *t += f - prev,
            None => out.push((cp.stage, f - prev)),
        }
        prev = f;
    }
    out
}

/// Self time of every span of one rank: its duration minus the part
/// its direct children cover. Summed per span name.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - covered;
    }
    out
}

/// Writes every span as one tab-separated line, with ids unique over
/// the whole run (parents refer to ids).
pub fn write_spans<'a>(
    path: &std::path::Path,
    runs: impl IntoIterator<Item = &'a MpirunTrace>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tmpirun\trank\tname\tstart_ns\tend_ns")?;
    let mut base = 0u64;
    for run in runs {
        for rank in &run.spans {
            for (i, s) in rank.iter().enumerate() {
                let parent = if s.parent == NO_PARENT {
                    "-".to_string()
                } else {
                    (base + u64::from(s.parent)).to_string()
                };
                writeln!(
                    w,
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    base + i as u64,
                    parent,
                    s.mpirun,
                    s.rank,
                    s.name,
                    s.start_ns,
                    s.end_ns
                )?;
            }
            base += rank.len() as u64;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, rank: u32, parent: u32, start: u64, end: u64) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            rank,
            parent,
            mpirun: 0,
        }
    }

    /// Two ranks on one worker: rank 1 parks inside `core.sync` while
    /// rank 0 runs, so both sync spans cover almost the whole run.
    fn parked_ranks() -> Vec<Vec<SpanRec>> {
        vec![
            vec![
                sp("sim.body", 0, NO_PARENT, 0, 100),
                sp("core.sync", 0, 0, 5, 60),
                sp("core.check", 0, 0, 60, 95),
            ],
            vec![
                sp("sim.body", 1, NO_PARENT, 10, 98),
                sp("core.sync", 1, 0, 12, 70),
                sp("core.check", 1, 0, 70, 90),
            ],
        ]
    }

    const FLAT: &[Checkpoint] = &[
        Checkpoint {
            stage: "core.sync",
            at: At::End("core.sync", 0),
        },
        Checkpoint {
            stage: "core.check",
            at: At::End("core.check", 0),
        },
        Checkpoint {
            stage: "sim.body",
            at: At::End("sim.body", 0),
        },
    ];

    #[test]
    fn frontier_partitions_overlapping_parked_spans() {
        let ranks = parked_ranks();
        let cps: Vec<Vec<u64>> = ranks
            .iter()
            .map(|s| rank_checkpoints(s, FLAT, s[0].start_ns))
            .collect();
        let f = frontier(&cps, FLAT, 0);
        assert_eq!(
            f,
            vec![("core.sync", 70), ("core.check", 25), ("sim.body", 5)]
        );
        // The stages partition [first entry, last exit] exactly ...
        assert_eq!(f.iter().map(|x| x.1).sum::<u64>(), 100);
        // ... while summed spans overcount the same 100 ns.
        let summed: u64 = ranks
            .iter()
            .flatten()
            .filter(|s| s.parent != NO_PARENT)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert!(summed > 100, "{summed}");
    }

    #[test]
    fn skipped_stage_takes_no_time_on_that_rank() {
        // Rank 1 is no node leader: it never enters the top level.
        const H2: &[Checkpoint] = &[
            Checkpoint {
                stage: "mpi.split",
                at: At::FirstChild("core.sync"),
            },
            Checkpoint {
                stage: "core.top",
                at: At::End("core.top", 0),
            },
            Checkpoint {
                stage: "core.bottom",
                at: At::End("core.bottom", 0),
            },
            Checkpoint {
                stage: "core.sync",
                at: At::End("core.sync", 0),
            },
        ];
        let r0 = vec![
            sp("core.sync", 0, NO_PARENT, 0, 100),
            sp("core.top", 0, 0, 40, 70),
            sp("core.bottom", 0, 0, 70, 99),
        ];
        let r1 = vec![
            sp("core.sync", 1, NO_PARENT, 0, 100),
            sp("core.bottom", 1, 0, 45, 98),
        ];
        let c0 = rank_checkpoints(&r0, H2, 0);
        let c1 = rank_checkpoints(&r1, H2, 0);
        assert_eq!(c0, vec![40, 70, 99, 100]);
        assert_eq!(c1, vec![45, 45, 98, 100]);
        let f = frontier(&[c0, c1], H2, 0);
        assert_eq!(
            f,
            vec![
                ("mpi.split", 45),
                ("core.top", 25),
                ("core.bottom", 29),
                ("core.sync", 1)
            ]
        );
    }

    #[test]
    fn repeated_stages_accumulate_by_occurrence() {
        let plan = [
            Checkpoint {
                stage: "benchlib.rt",
                at: At::Start("mpi.allreduce", 0),
            },
            Checkpoint {
                stage: "mpi.allreduce",
                at: At::End("mpi.allreduce", 0),
            },
            Checkpoint {
                stage: "benchlib.rt",
                at: At::Start("mpi.allreduce", 1),
            },
            Checkpoint {
                stage: "mpi.allreduce",
                at: At::End("mpi.allreduce", 1),
            },
        ];
        let r0 = vec![
            sp("mpi.allreduce", 0, NO_PARENT, 2, 6),
            sp("mpi.allreduce", 0, NO_PARENT, 8, 12),
        ];
        let r1 = vec![
            sp("mpi.allreduce", 1, NO_PARENT, 3, 5),
            sp("mpi.allreduce", 1, NO_PARENT, 9, 10),
        ];
        let cps = [
            rank_checkpoints(&r0, &plan, 0),
            rank_checkpoints(&r1, &plan, 0),
        ];
        let f = frontier(&cps, &plan, 0);
        assert_eq!(f, vec![("benchlib.rt", 3 + 3), ("mpi.allreduce", 3 + 3)]);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            sp("benchlib.rt", 0, NO_PARENT, 0, 100),
            sp("mpi.allreduce", 0, 0, 10, 30),
            sp("core.offset", 0, 1, 12, 20),
            sp("mpi.allreduce", 0, 0, 50, 120), // clipped at the parent's end
        ];
        let st = self_times(&spans);
        assert_eq!(st["benchlib.rt"], 100 - 20 - 50);
        assert_eq!(st["mpi.allreduce"], (20 - 8) + 70);
        assert_eq!(st["core.offset"], 8);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        let logs = MpirunLogs::new(1, 3);
        let log = Some(logs.rank(0));
        {
            let _a = span(&log, "sim.body");
            let _b = span(&log, "core.sync");
        }
        log.as_ref().unwrap().count(|c| c.sync_msgs += 4);
        drop(log);
        let t = logs.finish();
        let s = &t.spans[0];
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (NO_PARENT, 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!((s[1].mpirun, s[1].name), (3, "core.sync"));
        assert_eq!(t.counts.sync_msgs, 4);
    }
}
