//! The four workloads: what one iteration runs, at which shape, and
//! the rank bodies that optionally hand traced wrappers to each layer.
//!
//! All of them are closed-loop batch jobs: an iteration runs its
//! mpiruns one after the other (sweep jobs = 1) and the next iteration
//! starts when the previous one has returned.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use hcs_bench::schemes::{run_round_time, RepSample, RoundTimeConfig};
use hcs_bench::sweep::run_seed;
use hcs_clock::{BoxClock, LocalClock, TimeSource};
use hcs_core::{
    check_clock_accuracy, run_sync, AccuracyReport, ClockPropSync, ClockSync, Hca3, Hierarchical,
    SkampiOffset,
};
use hcs_experiments::hier_experiment::fig4_configs;
use hcs_mpi::{Comm, ReduceOp};
use hcs_sim::obs::{chrome_trace, flame_report, summary_json};
use hcs_sim::{machines, secs, Cluster, MachineSpec, ObsSpec, RankCtx, Span, TraceLog};

use crate::json::Json;
use crate::stats::median;
use crate::trace::{
    now_ns, span, At, Checkpoint, MpirunLogs, MpirunTrace, RankLog, TimedClock, TimedProbe,
    TimedSync,
};

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 5 inputs on Hydra.
    Fig5Sweep,
    /// Fig. 6 at 4096 Titan ranks.
    Fig6Scale,
    /// Round-Time over an allreduce on Jupiter.
    RoundTime,
    /// A smaller Round-Time body with obs recording and sinks.
    ObservedRoundTime,
}

/// Waiting period of the accuracy check (the paper's 10 s).
const WAIT_S: f64 = 10.0;
/// Ping-pongs per offset measurement of the accuracy check, as in
/// `run_hier_experiment`.
const CHECK_PINGPONGS: usize = 10;

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "fig5_sweep" => Kind::Fig5Sweep,
            "fig6_scale" => Kind::Fig6Scale,
            "roundtime_allreduce" => Kind::RoundTime,
            "observed_roundtime" => Kind::ObservedRoundTime,
            _ => return None,
        })
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig5Sweep => "fig5_sweep",
            Kind::Fig6Scale => "fig6_scale",
            Kind::RoundTime => "roundtime_allreduce",
            Kind::ObservedRoundTime => "observed_roundtime",
        }
    }

    /// The simulated machine and its shape.
    pub fn machine(self) -> MachineSpec {
        match self {
            Kind::Fig5Sweep => machines::hydra().with_shape(18, 2, 8),
            Kind::Fig6Scale => machines::titan().with_shape(256, 1, 16),
            Kind::RoundTime => machines::jupiter().with_shape(16, 2, 8),
            Kind::ObservedRoundTime => machines::jupiter().with_shape(8, 2, 8),
        }
    }

    /// Whether obs recording is on.
    pub fn observed(self) -> bool {
        self == Kind::ObservedRoundTime
    }

    /// Whether the workload runs the fig binaries' sync-and-check body.
    pub fn is_hier(self) -> bool {
        matches!(self, Kind::Fig5Sweep | Kind::Fig6Scale)
    }

    /// The cluster of mpirun seed `seed`.
    pub fn cluster(self, seed: u64) -> Cluster {
        let cluster = self.machine().cluster(seed);
        if self.observed() {
            cluster.to_builder().observability(ObsSpec::full()).build()
        } else {
            cluster
        }
    }

    /// Iterations a run of about `seconds` measures. The count depends
    /// only on `seconds`, not on how fast this build runs, so every run
    /// does the same work and peak memory (which grows with the mpiruns
    /// a process has made) stays comparable between runs and commits.
    pub fn iterations(self, seconds: u64) -> usize {
        // Host seconds of one iteration on a 2-core x86-64 VM.
        let nominal = match self {
            Kind::Fig5Sweep => 6.8,
            Kind::Fig6Scale => 3.7,
            Kind::RoundTime => 5.0,
            Kind::ObservedRoundTime => 1.7,
        };
        ((seconds as f64 / nominal).round() as usize).max(1)
    }

    /// Valid Round-Time repetitions asked for (`max_nrep`).
    fn max_nrep(self) -> usize {
        match self {
            Kind::ObservedRoundTime => 100,
            _ => 1000,
        }
    }
}

/// A synchronization configuration of Figs. 4-6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alg {
    /// Flat HCA3 with `fit` points of `pp` ping-pongs.
    Flat { fit: usize, pp: usize },
    /// H2HCA: HCA3 between node leaders, ClockPropSync within nodes.
    H2 { fit: usize, pp: usize },
}

impl Alg {
    /// Builds the algorithm; with a log, the two H2HCA levels are
    /// wrapped so their calls are recorded as `core.top`/`core.bottom`.
    fn build(self, log: &Option<Arc<RankLog>>) -> Box<dyn ClockSync> {
        match self {
            Alg::Flat { fit, pp } => Box::new(Hca3::skampi(fit, pp)),
            Alg::H2 { fit, pp } => {
                let top: Box<dyn ClockSync> = Box::new(Hca3::skampi(fit, pp));
                let bottom: Box<dyn ClockSync> = Box::new(ClockPropSync::verified());
                let (top, bottom) = match log {
                    Some(l) => (
                        Box::new(TimedSync::new(top, "core.top", Arc::clone(l)))
                            as Box<dyn ClockSync>,
                        Box::new(TimedSync::new(bottom, "core.bottom", Arc::clone(l)))
                            as Box<dyn ClockSync>,
                    ),
                    None => (top, bottom),
                };
                Box::new(Hierarchical::h2(top, bottom))
            }
        }
    }

    /// Where one rank's stages end, for frontier attribution.
    pub fn plan(self) -> Vec<Checkpoint> {
        let mut plan = Vec::new();
        if let Alg::H2 { .. } = self {
            plan.extend([
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
            ]);
        }
        plan.extend([
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
        ]);
        plan
    }
}

/// The fig binaries' sweep: configurations × mpiruns.
pub struct HierSweep {
    /// `(label, configuration)` in the order `run_hier_experiment` runs them.
    pub configs: Vec<(String, Alg)>,
    /// Mpiruns per configuration.
    pub runs: usize,
    /// Share of clients the accuracy check visits.
    pub sample_frac: f64,
    /// The `fig4_configs` arguments the labels come from.
    pub fig4_args: (usize, usize, usize),
}

impl HierSweep {
    /// The sweep of a fig workload.
    pub fn of(kind: Kind) -> HierSweep {
        let (args, picks, runs, sample_frac) = match kind {
            // fig5 defaults: 4 configurations, 5 mpiruns, all clients checked.
            Kind::Fig5Sweep => ((100, 50, 10), vec![0, 1, 2, 3], 5, 1.0),
            // One mpirun each of flat HCA3 and H2HCA, 10 % of clients.
            Kind::Fig6Scale => ((20, 10, 5), vec![0, 2], 1, 0.1),
            _ => unreachable!("{} is no fig workload", kind.name()),
        };
        let (hi, lo, pp) = args;
        let algs = [
            Alg::Flat { fit: hi, pp },
            Alg::Flat { fit: lo, pp },
            Alg::H2 { fit: hi, pp },
            Alg::H2 { fit: lo, pp },
        ];
        let labels = fig4_configs(hi, lo, pp);
        HierSweep {
            configs: picks
                .into_iter()
                .map(|i| (labels[i].0.clone(), algs[i]))
                .collect(),
            runs,
            sample_frac,
            fig4_args: args,
        }
    }
}

/// Round-Time figures of one mpirun.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtStats {
    /// Rounds attempted: calls of the operation on rank 0.
    pub rounds: u64,
    /// Valid repetitions returned on every rank.
    pub valid: usize,
    /// Median over valid repetitions of the slowest rank's end minus
    /// the common start, in µs of virtual time.
    pub latency_us: f64,
}

/// Obs figures of one mpirun.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsStats {
    /// Events recorded over all ranks.
    pub events: u64,
    /// Events dropped at the per-rank capacity.
    pub dropped: u64,
    /// Host ns spent building the chrome trace, summary and flame report.
    pub sink_ns: u64,
    /// Size of the chrome trace.
    pub trace_bytes: u64,
}

/// One mpirun's outcome.
#[derive(Debug, Default)]
pub struct RunOut {
    /// Configuration label.
    pub label: String,
    /// Why the mpirun failed, if it did.
    pub failed: Option<String>,
    /// Synchronization duration, max over ranks (virtual s).
    pub sync_virt_s: f64,
    /// Max |offset| right after sync (µs; fig workloads).
    pub at0_us: f64,
    /// Max |offset| after the wait (µs; fig workloads).
    pub wait_us: f64,
    /// Round-Time figures (Round-Time workloads).
    pub rt: Option<RtStats>,
    /// Obs figures (the observed workload).
    pub obs: Option<ObsStats>,
    /// Messages sent, over all ranks.
    pub msgs: u64,
    /// Inter-node messages sent, over all ranks.
    pub inter_node_msgs: u64,
    /// Hash of every virtual-time result of the mpirun.
    pub digest: u64,
    /// Host ns building the cluster.
    pub build_ns: u64,
    /// Host time `Cluster::run` was entered.
    pub run_start_ns: u64,
    /// Host time `Cluster::run` returned.
    pub run_end_ns: u64,
    /// Spans and counts, when traced.
    pub trace: Option<MpirunTrace>,
    /// Stage checkpoints for frontier attribution, when traced.
    pub plan: Vec<Checkpoint>,
}

/// One iteration of a workload.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Host ns the iteration took.
    pub wall_ns: u64,
    /// Its mpiruns in order.
    pub runs: Vec<RunOut>,
}

impl Iteration {
    /// Wall seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 * 1e-9
    }

    /// The untraced results, as the line an iteration process reports.
    pub fn to_json(&self) -> Json {
        let num = |x: u64| Json::Num(x as f64);
        let runs = self
            .runs
            .iter()
            .map(|r| {
                Json::obj([
                    ("label", Json::str(&r.label)),
                    ("failed", r.failed.as_ref().map_or(Json::Null, Json::str)),
                    ("sync_virt_s", Json::Num(r.sync_virt_s)),
                    ("at0_us", Json::Num(r.at0_us)),
                    ("wait_us", Json::Num(r.wait_us)),
                    (
                        "rt",
                        r.rt.map_or(Json::Null, |x| {
                            Json::Arr(vec![
                                num(x.rounds),
                                num(x.valid as u64),
                                Json::Num(x.latency_us),
                            ])
                        }),
                    ),
                    (
                        "obs",
                        r.obs.map_or(Json::Null, |o| {
                            Json::Arr(vec![
                                num(o.events),
                                num(o.dropped),
                                num(o.sink_ns),
                                num(o.trace_bytes),
                            ])
                        }),
                    ),
                    ("msgs", num(r.msgs)),
                    ("inter_node_msgs", num(r.inter_node_msgs)),
                    // Hex: a JSON number cannot hold every u64.
                    ("digest", Json::str(format!("{:016x}", r.digest))),
                ])
            })
            .collect();
        Json::obj([("wall_ns", num(self.wall_ns)), ("runs", Json::Arr(runs))])
    }

    /// Reads what [`Iteration::to_json`] wrote.
    pub fn from_json(j: &Json) -> Option<Iteration> {
        let u = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).map(|x| x as u64);
        let f = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64);
        let runs = match j.get("runs")? {
            Json::Arr(v) => v,
            _ => return None,
        };
        let runs = runs
            .iter()
            .map(|r| {
                let arr = |k: &str| match r.get(k) {
                    Some(Json::Arr(v)) => v.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>(),
                    _ => None,
                };
                Some(RunOut {
                    label: r.get("label")?.as_str()?.to_string(),
                    failed: r.get("failed")?.as_str().map(str::to_string),
                    sync_virt_s: f(r, "sync_virt_s")?,
                    at0_us: f(r, "at0_us")?,
                    wait_us: f(r, "wait_us")?,
                    rt: arr("rt").filter(|v| v.len() == 3).map(|v| RtStats {
                        rounds: v[0] as u64,
                        valid: v[1] as usize,
                        latency_us: v[2],
                    }),
                    obs: arr("obs").filter(|v| v.len() == 4).map(|v| ObsStats {
                        events: v[0] as u64,
                        dropped: v[1] as u64,
                        sink_ns: v[2] as u64,
                        trace_bytes: v[3] as u64,
                    }),
                    msgs: u(r, "msgs")?,
                    inter_node_msgs: u(r, "inter_node_msgs")?,
                    digest: u64::from_str_radix(r.get("digest")?.as_str()?, 16).ok()?,
                    ..RunOut::default()
                })
            })
            .collect::<Option<Vec<RunOut>>>()?;
        Some(Iteration {
            wall_ns: u(j, "wall_ns")?,
            runs,
        })
    }
}

/// FNV-1a over 64-bit words: a digest of virtual-time results.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// Digest of one fig row, comparable with a `HierRow`.
pub fn row_digest(label: &str, duration: Span, at0: Span, wait: Span) -> u64 {
    let mut h = Fnv::new();
    for b in label.bytes() {
        h.word(u64::from(b));
    }
    for x in [duration, at0, wait] {
        h.f64(x.seconds());
    }
    h.0
}

fn base_clock(ctx: &mut RankCtx, log: &Option<Arc<RankLog>>) -> BoxClock {
    let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
    match log {
        Some(l) => Box::new(TimedClock::new(Box::new(clk), Arc::clone(l))),
        None => Box::new(clk),
    }
}

fn sent(ctx: &RankCtx) -> u64 {
    ctx.counters().sent_msgs
}

struct HierRank {
    duration: Span,
    report: Option<AccuracyReport>,
    sent: u64,
    inter: u64,
}

/// The body of `run_hier_experiment`, in the same order, with every
/// layer call optionally traced.
fn hier_rank(ctx: &mut RankCtx, alg: Alg, sample_frac: f64, log: Option<Arc<RankLog>>) -> HierRank {
    let _body = span(&log, "sim.body");
    let clk = base_clock(ctx, &log);
    let mut comm = Comm::world(ctx);
    let mut sync = alg.build(&log);
    let c0 = sent(ctx);
    let outcome = {
        let _s = span(&log, "core.sync");
        run_sync(sync.as_mut(), ctx, &mut comm, clk)
    };
    let c1 = sent(ctx);
    let mut g = outcome.clock;
    let report = {
        let _s = span(&log, "core.check");
        let wait = secs(WAIT_S);
        match &log {
            Some(l) => {
                let mut probe = TimedProbe::new(SkampiOffset::new(CHECK_PINGPONGS), Arc::clone(l));
                check_clock_accuracy(ctx, &mut comm, g.as_mut(), &mut probe, wait, sample_frac)
            }
            None => {
                let mut probe = SkampiOffset::new(CHECK_PINGPONGS);
                check_clock_accuracy(ctx, &mut comm, g.as_mut(), &mut probe, wait, sample_frac)
            }
        }
    };
    let c2 = ctx.counters();
    if let Some(l) = &log {
        l.count(|c| {
            c.sync_msgs += c1 - c0;
            c.check_msgs += c2.sent_msgs - c1;
        });
    }
    HierRank {
        duration: outcome.duration,
        report,
        sent: c2.sent_msgs,
        inter: c2.sent_inter_node,
    }
}

struct RtRank {
    duration: Span,
    samples: Vec<RepSample>,
    rounds: u64,
    sent: u64,
    inter: u64,
}

/// HCA3(20, 5) sync, then Round-Time over an 8-byte allreduce.
fn rt_rank(ctx: &mut RankCtx, max_nrep: usize, log: Option<Arc<RankLog>>) -> RtRank {
    let _body = span(&log, "sim.body");
    let clk = base_clock(ctx, &log);
    let mut comm = Comm::world(ctx);
    let mut sync = Hca3::skampi(20, 5);
    let c0 = sent(ctx);
    let outcome = {
        let _s = span(&log, "core.sync");
        run_sync(&mut sync, ctx, &mut comm, clk)
    };
    let c1 = sent(ctx);
    let mut g = outcome.clock;
    let cfg = RoundTimeConfig {
        max_nrep,
        ..Default::default()
    };
    let mut rounds = 0u64;
    let mut allreduce_msgs = 0u64;
    let mut op = |ctx: &mut RankCtx, comm: &mut Comm| {
        rounds += 1;
        let _s = span(&log, "mpi.allreduce");
        let before = sent(ctx);
        let out = comm.allreduce(ctx, &[0u8; 8], ReduceOp::ByteMax);
        std::hint::black_box(out);
        allreduce_msgs += sent(ctx) - before;
    };
    let samples = {
        let _s = span(&log, "benchlib.rt");
        run_round_time(ctx, &mut comm, g.as_mut(), cfg, &mut op)
    };
    let c2 = ctx.counters();
    if let Some(l) = &log {
        l.count(|c| {
            c.sync_msgs += c1 - c0;
            c.allreduce_calls += rounds;
            c.allreduce_msgs += allreduce_msgs;
        });
    }
    RtRank {
        duration: outcome.duration,
        samples,
        rounds,
        sent: c2.sent_msgs,
        inter: c2.sent_inter_node,
    }
}

/// Digest of a Round-Time mpirun: sync duration and every sample.
fn rt_digest(ranks: &[RtRank]) -> u64 {
    let mut h = Fnv::new();
    h.f64(
        ranks
            .iter()
            .map(|r| r.duration)
            .fold(Span::ZERO, Span::max)
            .seconds(),
    );
    for r in ranks {
        h.word(r.samples.len() as u64);
        for s in &r.samples {
            h.f64(s.start.raw_seconds());
            h.f64(s.end.raw_seconds());
        }
    }
    h.0
}

/// Stage checkpoints of a Round-Time rank with `rounds` operations.
pub fn rt_plan(rounds: usize) -> Vec<Checkpoint> {
    let mut plan = vec![Checkpoint {
        stage: "core.sync",
        at: At::End("core.sync", 0),
    }];
    for i in 0..rounds {
        plan.push(Checkpoint {
            stage: "benchlib.rt",
            at: At::Start("mpi.allreduce", i),
        });
        plan.push(Checkpoint {
            stage: "mpi.allreduce",
            at: At::End("mpi.allreduce", i),
        });
    }
    plan.push(Checkpoint {
        stage: "benchlib.rt",
        at: At::End("benchlib.rt", 0),
    });
    plan.push(Checkpoint {
        stage: "sim.body",
        at: At::End("sim.body", 0),
    });
    plan
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Per-rank results of a completed mpirun, and its obs log when
/// recording was on.
type Completed<R> = (Vec<R>, Option<TraceLog>);

/// Builds the cluster and runs one mpirun, catching a panic as a
/// failed mpirun.
fn exec<R, F>(
    kind: Kind,
    seed: u64,
    traced: bool,
    observed: bool,
    id: u32,
    body: F,
) -> (RunOut, Option<Completed<R>>)
where
    R: Send,
    F: Fn(&mut RankCtx, Option<Arc<RankLog>>) -> R + Sync,
{
    let logs = traced.then(|| MpirunLogs::new(kind.machine().topology.total_cores(), id));
    let b0 = now_ns();
    let cluster = if observed {
        kind.cluster(seed)
    } else {
        kind.machine().cluster(seed)
    };
    let run_start_ns = now_ns();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let f = |ctx: &mut RankCtx| {
            let log = logs.as_ref().map(|l| l.rank(ctx.rank()));
            body(ctx, log)
        };
        if observed {
            let (r, log) = cluster.run_observed(f);
            (r, Some(log))
        } else {
            (cluster.run(f), None)
        }
    }));
    let run_end_ns = now_ns();
    let mut out = RunOut {
        build_ns: run_start_ns - b0,
        run_start_ns,
        run_end_ns,
        trace: logs.map(MpirunLogs::finish),
        ..RunOut::default()
    };
    match result {
        Ok(r) => (out, Some(r)),
        Err(e) => {
            out.failed = Some(format!("mpirun panicked: {}", panic_text(e.as_ref())));
            (out, None)
        }
    }
}

/// Runs one iteration of `kind` for base seed `seed0`; its traced
/// mpiruns are numbered from `first_id`.
pub fn iteration(kind: Kind, seed0: u64, traced: bool, first_id: u32) -> Iteration {
    let t0 = now_ns();
    let runs = if kind.is_hier() {
        hier_iteration(kind, seed0, traced, first_id)
    } else {
        vec![rt_mpirun(kind, seed0, traced, kind.observed(), first_id)]
    };
    Iteration {
        wall_ns: now_ns() - t0,
        runs,
    }
}

fn hier_iteration(kind: Kind, seed0: u64, traced: bool, first_id: u32) -> Vec<RunOut> {
    let sweep = HierSweep::of(kind);
    let mut outs = Vec::new();
    for (label, alg) in &sweep.configs {
        for run in 0..sweep.runs {
            let id = first_id + outs.len() as u32;
            let alg = *alg;
            let (mut out, res) = exec(
                kind,
                run_seed(seed0, run as u64),
                traced,
                false,
                id,
                |ctx, log| hier_rank(ctx, alg, sweep.sample_frac, log),
            );
            out.label = label.clone();
            out.plan = if traced { alg.plan() } else { Vec::new() };
            if let Some((ranks, _)) = res {
                out.sync_virt_s = ranks
                    .iter()
                    .map(|r| r.duration)
                    .fold(Span::ZERO, Span::max)
                    .seconds();
                out.msgs = ranks.iter().map(|r| r.sent).sum();
                out.inter_node_msgs = ranks.iter().map(|r| r.inter).sum();
                match ranks[0].report.as_ref() {
                    Some(rep) => {
                        let duration = ranks.iter().map(|r| r.duration).fold(Span::ZERO, Span::max);
                        out.at0_us = rep.max_abs_at_sync().seconds() * 1e6;
                        out.wait_us = rep.max_abs_after_wait().seconds() * 1e6;
                        out.digest = row_digest(
                            label,
                            duration,
                            rep.max_abs_at_sync(),
                            rep.max_abs_after_wait(),
                        );
                    }
                    None => out.failed = Some("root returned no accuracy report".into()),
                }
            }
            outs.push(out);
        }
    }
    outs
}

fn rt_mpirun(kind: Kind, seed0: u64, traced: bool, observed: bool, id: u32) -> RunOut {
    let max_nrep = kind.max_nrep();
    let (mut out, res) = exec(
        kind,
        run_seed(seed0, 0),
        traced,
        observed,
        id,
        |ctx, log| rt_rank(ctx, max_nrep, log),
    );
    out.label = format!("hca3/20/5 + roundtime/allreduce/8B/{max_nrep}");
    let Some((ranks, obs_log)) = res else {
        return out;
    };
    out.sync_virt_s = ranks
        .iter()
        .map(|r| r.duration)
        .fold(Span::ZERO, Span::max)
        .seconds();
    out.msgs = ranks.iter().map(|r| r.sent).sum();
    out.inter_node_msgs = ranks.iter().map(|r| r.inter).sum();
    let valid = ranks[0].samples.len();
    if ranks.iter().any(|r| r.samples.len() != valid) {
        out.failed = Some("ranks returned different numbers of Round-Time samples".into());
    }
    let lat: Vec<f64> = (0..valid)
        .map(|i| {
            let end = ranks
                .iter()
                .filter_map(|r| r.samples.get(i))
                .map(|s| s.end.raw_seconds())
                .fold(f64::MIN, f64::max);
            (end - ranks[0].samples[i].start.raw_seconds()) * 1e6
        })
        .collect();
    out.rt = Some(RtStats {
        rounds: ranks[0].rounds,
        valid,
        latency_us: median(&lat),
    });
    out.digest = rt_digest(&ranks);
    if traced {
        let rounds = usize::try_from(ranks[0].rounds).expect("round count fits usize");
        out.plan = rt_plan(rounds);
    }
    if let Some(log) = obs_log {
        let t = now_ns();
        let trace = chrome_trace(&log);
        let summary = summary_json(&log);
        let flame = flame_report(&log);
        let sink_ns = now_ns() - t;
        std::hint::black_box((&summary, &flame));
        out.obs = Some(ObsStats {
            events: log.total_events() as u64,
            dropped: log.total_dropped(),
            sink_ns,
            trace_bytes: trace.len() as u64,
        });
        if log.total_dropped() > 0 {
            out.failed = Some(format!("obs dropped {} events", log.total_dropped()));
        }
    }
    out
}

/// Host seconds to build the workload's cluster and complete one empty
/// `Cluster::run` on it: per-rank state, continuations and workers.
pub fn setup_probe(kind: Kind, seed: u64) -> f64 {
    let t = now_ns();
    let cluster = kind.cluster(seed);
    let ranks = cluster.run(|ctx| ctx.rank());
    let dt = (now_ns() - t) as f64 * 1e-9;
    assert_eq!(
        ranks.len(),
        kind.machine().topology.total_cores(),
        "every rank ran"
    );
    dt
}

/// `run_hier_experiment` on the fig workload's inputs, as row digests
/// in run order: the reference the benchmark's own body must match.
pub fn reference_rows(kind: Kind, seed0: u64) -> Result<Vec<u64>, String> {
    let sweep = HierSweep::of(kind);
    let (hi, lo, pp) = sweep.fig4_args;
    let all = fig4_configs(hi, lo, pp);
    let labels: Vec<&String> = sweep.configs.iter().map(|c| &c.0).collect();
    let configs: Vec<_> = all
        .into_iter()
        .filter(|(l, _)| labels.contains(&l))
        .collect();
    let exec = hcs_bench::sweep::SweepExecutor::new(1);
    catch_unwind(AssertUnwindSafe(|| {
        hcs_experiments::hier_experiment::run_hier_experiment(
            &kind.machine(),
            &configs,
            sweep.runs,
            secs(WAIT_S),
            sweep.sample_frac,
            seed0,
            &exec,
        )
    }))
    .map(|rows| {
        rows.iter()
            .map(|r| row_digest(&r.label, r.duration, r.max_at0, r.max_at_wait))
            .collect()
    })
    .map_err(|e| format!("run_hier_experiment panicked: {}", panic_text(e.as_ref())))
}

/// The observed workload's body with obs recording off: its virtual
/// results must equal the recorded run's.
pub fn unobserved_reference(seed0: u64) -> RunOut {
    rt_mpirun(Kind::ObservedRoundTime, seed0, false, false, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_line_round_trips() {
        let it = Iteration {
            wall_ns: 6_123_456_789,
            runs: vec![
                RunOut {
                    label: "hca3/x".into(),
                    sync_virt_s: 1.575_587_792_228_212,
                    at0_us: 0.130_662,
                    wait_us: 1.608_823,
                    msgs: 2_817_000,
                    inter_node_msgs: 1_000,
                    digest: u64::MAX - 7,
                    ..RunOut::default()
                },
                RunOut {
                    label: "rt".into(),
                    failed: Some("ranks returned different numbers of Round-Time samples".into()),
                    rt: Some(RtStats {
                        rounds: 1004,
                        valid: 1000,
                        latency_us: 70.863_215,
                    }),
                    obs: Some(ObsStats {
                        events: 664_852,
                        dropped: 0,
                        sink_ns: 1_303_226_125,
                        trace_bytes: 110_551_441,
                    }),
                    digest: 0x0123_4567_89ab_cdef,
                    ..RunOut::default()
                },
            ],
        };
        let line = it.to_json().to_string();
        let back = Iteration::from_json(&crate::json::parse(&line).unwrap()).expect("decodes");
        assert_eq!(back.wall_ns, it.wall_ns);
        for (a, b) in back.runs.iter().zip(&it.runs) {
            assert_eq!(
                (&a.label, &a.failed, a.rt, a.obs),
                (&b.label, &b.failed, b.rt, b.obs)
            );
            assert_eq!(
                (a.msgs, a.inter_node_msgs, a.digest),
                (b.msgs, b.inter_node_msgs, b.digest)
            );
            assert_eq!(
                [a.sync_virt_s, a.at0_us, a.wait_us].map(f64::to_bits),
                [b.sync_virt_s, b.at0_us, b.wait_us].map(f64::to_bits)
            );
        }
        assert!(Iteration::from_json(&crate::json::parse(r#"{"wall_ns": 1}"#).unwrap()).is_none());
    }

    #[test]
    fn iteration_counts_follow_seconds_only() {
        assert_eq!(Kind::Fig5Sweep.iterations(20), 3);
        assert_eq!(Kind::Fig6Scale.iterations(1), 1);
        assert_eq!(Kind::ObservedRoundTime.iterations(20), 12);
    }

    #[test]
    fn fig_sweeps_match_fig4_configs() {
        let s = HierSweep::of(Kind::Fig5Sweep);
        let labels: Vec<String> = fig4_configs(100, 50, 10).into_iter().map(|c| c.0).collect();
        assert_eq!(
            s.configs.iter().map(|c| c.0.clone()).collect::<Vec<_>>(),
            labels
        );
        let s = HierSweep::of(Kind::Fig6Scale);
        assert_eq!(
            s.configs.iter().map(|c| c.1).collect::<Vec<_>>(),
            vec![Alg::Flat { fit: 20, pp: 5 }, Alg::H2 { fit: 20, pp: 5 }]
        );
    }
}
