//! Correctness checks over a run's iterations, and the end-to-end and
//! per-layer metrics they yield.

use std::collections::BTreeMap;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::{frontier, rank_checkpoints, self_times};
use crate::workloads::{Iteration, Kind, RunOut};

/// Mpiruns attempted and failed over the whole run, with reasons.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Mpiruns attempted.
    pub attempted: u64,
    /// Mpiruns that panicked or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Ledger {
    /// Books the mpiruns of `runs` (`phase` names them in the notes).
    pub fn book(&mut self, phase: &str, runs: &[RunOut]) {
        for (i, r) in runs.iter().enumerate() {
            self.attempted += 1;
            if let Some(why) = &r.failed {
                self.failed += 1;
                self.notes
                    .push(format!("{phase} mpirun {i} ({}): {why}", r.label));
            }
        }
    }

    /// `failed / attempted`.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Marks mpirun `r` failed unless it already is.
fn fail(r: &mut RunOut, why: impl FnOnce() -> String) {
    if r.failed.is_none() {
        r.failed = Some(why());
    }
}

/// Checks an iteration against the reference digests (`run_hier_experiment`
/// rows, or the obs-off run) and against the canonical iteration of this
/// process (deterministic results and counts must repeat exactly, traced
/// or not), plus the workload's own checks.
pub fn check(
    kind: Kind,
    it: &mut Iteration,
    reference: Option<&[u64]>,
    canon: Option<&Iteration>,
    what: &str,
) {
    if let Some(reference) = reference {
        let n = it.runs.len();
        if reference.len() != n {
            for r in &mut it.runs {
                fail(r, || {
                    format!("{n} mpiruns, but {what} has {}", reference.len())
                });
            }
        }
        for (r, &want) in it.runs.iter_mut().zip(reference) {
            fail_if(r, r.digest != want, || {
                format!("virtual results differ from {what}")
            });
        }
    }
    if let Some(canon) = canon {
        for (r, c) in it.runs.iter_mut().zip(&canon.runs) {
            let differs = r.digest != c.digest
                || r.msgs != c.msgs
                || r.inter_node_msgs != c.inter_node_msgs
                || r.rt.map(|x| x.rounds) != c.rt.map(|x| x.rounds);
            fail_if(r, differs, || {
                "virtual results or message counts differ from the first untraced iteration".into()
            });
        }
    }
    if kind == Kind::Fig5Sweep {
        let at0 = mean(it.runs.iter().map(|r| r.at0_us));
        if at0.is_nan() || at0 >= 1.0 {
            for r in &mut it.runs {
                fail(r, || {
                    format!("Hydra err_at0_us {at0:.3} us is not below 1 us")
                });
            }
        }
    }
}

fn fail_if(r: &mut RunOut, cond: bool, why: impl FnOnce() -> String) {
    if cond {
        fail(r, why);
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (s, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    s / n as f64
}

/// The workload-level figures every mode prints for people: the
/// end-to-end metrics plus the accuracy and Round-Time results (which
/// depend on the seed, not the host).
pub fn e2e_figures(
    kind: Kind,
    setup: &[f64],
    iters: &[Iteration],
    ledger: &Ledger,
    rss_mb: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let walls: Vec<f64> = iters.iter().map(Iteration::wall_s).collect();
    let first = iters.first().map(|it| it.runs.as_slice()).unwrap_or(&[]);
    let ok = first.iter().filter(|r| r.failed.is_none());
    let mut out = vec![
        ("setup_s", median(setup), "s"),
        ("wall_s", median(&walls), "s"),
        ("peak_rss_mb", rss_mb, "MB"),
        ("sync_virt_s", mean(ok.clone().map(|r| r.sync_virt_s)), "s"),
        ("ok_frac", 1.0 - ledger.fail_frac(), "ratio"),
        ("fail_frac", ledger.fail_frac(), "ratio"),
    ];
    if kind.is_hier() {
        out.push(("err_at0_us", mean(ok.clone().map(|r| r.at0_us)), "us"));
        out.push(("err_wait_us", mean(ok.clone().map(|r| r.wait_us)), "us"));
    }
    if let Some(rt) = first.first().and_then(|r| r.rt) {
        out.push(("rt_latency_us", rt.latency_us, "us"));
        out.push((
            "rt_valid_frac",
            rt.valid as f64 / rt.rounds.max(1) as f64,
            "ratio",
        ));
    }
    debug_assert!(END_TO_END.iter().all(|m| out.iter().any(|o| o.0 == m.name)));
    out
}

/// Per-layer figures of one traced iteration.
pub fn layer_figures(it: &Iteration) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|x| (x.name, 0.0)).collect();
    let mut add = |k: &'static str, v: f64| {
        *m.get_mut(k)
            .unwrap_or_else(|| panic!("{k} is a per-layer metric")) += v
    };
    let s = |ns: u64| ns as f64 * 1e-9;
    let mut run_ns = 0u64;
    let mut msgs = 0u64;
    let mut attributed_ns = 0u64;
    let (mut at0, mut wait, mut hier_runs) = (0.0, 0.0, 0.0);
    for r in &it.runs {
        add("sim.runs", 1.0);
        add("sim.msgs", r.msgs as f64);
        msgs += r.msgs;
        add("sim.inter_node_msgs", r.inter_node_msgs as f64);
        run_ns += r.run_end_ns - r.run_start_ns;
        if r.rt.is_none() {
            at0 += r.at0_us;
            wait += r.wait_us;
            hier_runs += 1.0;
        }
        if let Some(rt) = r.rt {
            add("benchlib.rt_rounds", rt.rounds as f64);
            add("benchlib.rt_valid", rt.valid as f64);
            add("benchlib.rt_latency_us", rt.latency_us);
            add(
                "benchlib.rt_valid_frac",
                rt.valid as f64 / rt.rounds.max(1) as f64,
            );
        }
        if let Some(o) = r.obs {
            add("obs.events", o.events as f64);
            add("obs.dropped", o.dropped as f64);
            add("obs.sink_s", s(o.sink_ns));
            add("obs.trace_bytes", o.trace_bytes as f64);
            attributed_ns += o.sink_ns;
        }
        let Some(tr) = &r.trace else { continue };
        add("clock.reads", tr.clock_reads as f64);
        add("clock.read_busy_s", s(tr.clock_busy_ns));
        add("core.sync_msgs", tr.counts.sync_msgs as f64);
        add("core.check_msgs", tr.counts.check_msgs as f64);
        add("core.offset_calls", tr.counts.offset_calls as f64);
        add("mpi.allreduce_calls", tr.counts.allreduce_calls as f64);
        add("mpi.allreduce_msgs", tr.counts.allreduce_msgs as f64);
        add(
            "trace.spans",
            tr.spans.iter().map(Vec::len).sum::<usize>() as f64,
        );
        // Every rank's first span is its body.
        let entries: Vec<u64> = tr
            .spans
            .iter()
            .map(|sp| sp.first().map_or(r.run_start_ns, |b| b.start_ns))
            .collect();
        let exits = tr
            .spans
            .iter()
            .map(|sp| sp.first().map_or(r.run_end_ns, |b| b.end_ns));
        let first_entry = entries.iter().copied().min().unwrap_or(r.run_start_ns);
        let last_exit = exits.max().unwrap_or(r.run_end_ns);
        let overhead = (first_entry - r.run_start_ns) + (r.run_end_ns - last_exit);
        add("sim.run_overhead_s", s(overhead));
        add("sim.build_s", s(r.build_ns));
        attributed_ns += overhead + r.build_ns;
        let cps: Vec<Vec<u64>> = tr
            .spans
            .iter()
            .zip(&entries)
            .map(|(sp, &e)| rank_checkpoints(sp, &r.plan, e))
            .collect();
        for (stage, ns) in frontier(&cps, &r.plan, first_entry) {
            attributed_ns += ns;
            let t = s(ns);
            match stage {
                "mpi.split" => {
                    add("mpi.split_s", t);
                    add("core.sync_s", t);
                }
                "core.top" | "core.bottom" => {
                    add(
                        if stage == "core.top" {
                            "core.top_s"
                        } else {
                            "core.bottom_s"
                        },
                        t,
                    );
                    add("core.sync_s", t);
                }
                "core.sync" => add("core.sync_s", t),
                "core.check" => add("core.check_s", t),
                "benchlib.rt" => {
                    add("benchlib.rt_self_s", t);
                    add("benchlib.rt_s", t);
                }
                "mpi.allreduce" => {
                    add("mpi.allreduce_s", t);
                    add("benchlib.rt_s", t);
                }
                "sim.body" => add("sim.body_tail_s", t),
                other => panic!("no metric for stage {other}"),
            }
        }
        for sp in &tr.spans {
            for (name, ns) in self_times(sp) {
                match name.split('.').next() {
                    Some("core") => add("core.span_self_s", s(ns)),
                    Some("mpi") => add("mpi.span_self_s", s(ns)),
                    Some("benchlib") => add("benchlib.span_self_s", s(ns)),
                    _ => {}
                }
            }
        }
    }
    if hier_runs > 0.0 {
        add("core.err_at0_us", at0 / hier_runs);
        add("core.err_wait_us", wait / hier_runs);
    }
    add("sim.msgs_per_s", msgs as f64 / s(run_ns).max(1e-9));
    add("trace.wall_s", it.wall_s());
    add(
        "trace.attributed_frac",
        attributed_ns as f64 / it.wall_ns.max(1) as f64,
    );
    m
}

/// Per-layer figures of a traced run: the median of each metric over
/// the traced iterations, plus the tracing overhead against the
/// untraced baseline iteration.
pub fn traced_figures(iters: &[Iteration], baseline: &Iteration) -> BTreeMap<&'static str, f64> {
    let per: Vec<BTreeMap<&'static str, f64>> = iters.iter().map(layer_figures).collect();
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .map(|x| {
            (
                x.name,
                median(&per.iter().map(|p| p[x.name]).collect::<Vec<_>>()),
            )
        })
        .collect();
    let traced_wall = out["trace.wall_s"];
    out.insert("trace.overhead_s", traced_wall - baseline.wall_s());
    out
}
