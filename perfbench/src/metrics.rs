//! The benchmark's definition: workloads, metrics, units, directions
//! and bounds. `BENCHMARK.json` at the repository root is rendered from
//! these tables (`--manifest`); a test keeps the two identical.

use crate::json::Json;

/// How long one run measures, in seconds, when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 20;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit in the result line.
    pub unit: &'static str,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, lower_is_better: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, lower_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
        bound: None,
    }
}

/// Workload names, in run order, with why each is in the benchmark.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "fig5_sweep",
        "Fig. 5 inputs, Hydra 288 ranks, 20 mpiruns: point-to-point ping-pongs of HCA3 learn/offset dominate",
    ),
    (
        "fig6_scale",
        "Fig. 6 at 4096 Titan ranks: per-rank state, parked ranks and the O(p^2) Comm::split of H2HCA dominate",
    ),
    (
        "roundtime_allreduce",
        "Round-Time over an 8-byte allreduce at 256 ranks: collectives and global-clock polling dominate",
    ),
    (
        "observed_roundtime",
        "a smaller Round-Time body at 128 ranks with full obs recording and all three sinks: the only obs-on load",
    ),
];

/// Metrics of the untraced run (`--trace 0`), as a user sees them.
///
/// Host-time bounds are wide because the host is: on a shared 2-core
/// VM, ten runs of one workload have spread by up to 20 % in wall time
/// (IQR / median) depending on the neighbours' load, and the peak
/// memory of `fig5_sweep` (288 ranks, more than the 256 fiber stacks
/// the engine pools) by up to 14 %.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", true, 0.25),
    e2e("wall_s", "s", true, 0.25),
    e2e("peak_rss_mb", "MB", true, 0.25),
    e2e("sync_virt_s", "s", true, 0.02),
    e2e("ok_frac", "ratio", false, 0.05),
];

/// Metrics of the traced run (`--trace 1`), per layer. Times ending in
/// `_s` are frontier times of one workload iteration unless the name
/// says `span_self`; counts are per iteration.
pub const PER_LAYER: &[Metric] = &[
    layer("sim.msgs", "count", true),
    layer("sim.inter_node_msgs", "count", true),
    layer("sim.msgs_per_s", "1/s", false),
    layer("sim.runs", "count", true),
    layer("sim.build_s", "s", true),
    layer("sim.run_overhead_s", "s", true),
    layer("sim.body_tail_s", "s", true),
    layer("clock.reads", "count", true),
    layer("clock.read_busy_s", "s", true),
    layer("core.sync_s", "s", true),
    layer("core.sync_msgs", "count", true),
    layer("core.top_s", "s", true),
    layer("core.bottom_s", "s", true),
    layer("core.check_s", "s", true),
    layer("core.check_msgs", "count", true),
    layer("core.offset_calls", "count", true),
    layer("core.err_at0_us", "us", true),
    layer("core.err_wait_us", "us", true),
    layer("core.span_self_s", "rank-s", true),
    layer("mpi.split_s", "s", true),
    layer("mpi.allreduce_calls", "count", true),
    layer("mpi.allreduce_s", "s", true),
    layer("mpi.allreduce_msgs", "count", true),
    layer("mpi.span_self_s", "rank-s", true),
    layer("benchlib.rt_s", "s", true),
    layer("benchlib.rt_self_s", "s", true),
    layer("benchlib.rt_rounds", "count", true),
    layer("benchlib.rt_valid", "count", false),
    layer("benchlib.rt_valid_frac", "ratio", false),
    layer("benchlib.rt_latency_us", "us", true),
    layer("benchlib.span_self_s", "rank-s", true),
    layer("obs.events", "count", true),
    layer("obs.dropped", "count", true),
    layer("obs.sink_s", "s", true),
    layer("obs.trace_bytes", "B", true),
    layer("trace.wall_s", "s", true),
    layer("trace.overhead_s", "s", true),
    layer("trace.attributed_frac", "ratio", false),
    layer("trace.spans", "count", true),
];

fn better(m: &Metric) -> Json {
    Json::str(if m.lower_is_better { "lower" } else { "higher" })
}

/// The `BENCHMARK.json` manifest.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--offline",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "perfbench/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("perfbench")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(n, why)| Json::obj([("name", Json::str(*n)), ("why", Json::str(*why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m)),
                            (
                                "bound",
                                Json::Num(m.bound.expect("end-to-end metrics have a bound")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn manifest_matches_committed_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest().pretty(),
            "regenerate with `--manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn tables_respect_the_manifest_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names are used once");
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(manifest().to_string().len() <= 64 * 1024);
    }
}
