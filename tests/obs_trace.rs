//! End-to-end observability: a fully-instrumented HCA3 + Round-Time run
//! must produce the same Chrome trace bytes on every re-run and from a
//! rebuilt cluster (the recorder is part of the deterministic surface),
//! and the `trace_event` JSON schema is pinned by a golden file.

use hierarchical_clock_sync::bench::prelude::*;
use hierarchical_clock_sync::mpi::ReduceOp;
use hierarchical_clock_sync::prelude::*;
use hierarchical_clock_sync::sim::obs::{
    chrome_trace, flame_report, summary_json, ClockReadings, RankRecorder,
};
use hierarchical_clock_sync::sim::TraceLog;

fn observed_cluster() -> Cluster {
    machines::testbed(2, 2)
        .cluster(7)
        .to_builder()
        .observability(ObsSpec::full())
        .build()
}

fn workload(ctx: &mut RankCtx) {
    let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
    let mut comm = Comm::world(ctx);
    let mut sync = Hca3::skampi(20, 5);
    let out = run_sync(&mut sync, ctx, &mut comm, Box::new(clk));
    let mut g = out.clock;
    let cfg = RoundTimeConfig {
        max_time_slice_s: secs(0.01),
        max_nrep: 10,
        ..Default::default()
    };
    let mut op = |ctx: &mut RankCtx, comm: &mut Comm| {
        let _ = comm.allreduce(ctx, &[0u8; 8], ReduceOp::ByteMax);
    };
    let _ = run_round_time(ctx, &mut comm, g.as_mut(), cfg, &mut op);
}

#[test]
fn chrome_trace_is_byte_identical_pooled_rerun_and_fresh() {
    // The name predates the removal of the rank-thread pool: "pooled"
    // is now the first run and a re-run of one cluster, "fresh" a run
    // of a rebuilt cluster.
    let cluster = observed_cluster();
    let (_, first) = cluster.run_observed(workload);
    let (_, again) = cluster.run_observed(workload);
    let (_, rebuilt) = observed_cluster().run_observed(workload);

    let reference = chrome_trace(&first);
    assert!(!first.is_empty(), "observed run recorded nothing");
    assert_eq!(
        reference,
        chrome_trace(&again),
        "re-run produced different trace bytes"
    );
    assert_eq!(
        reference,
        chrome_trace(&rebuilt),
        "rebuilt cluster produced different trace bytes"
    );
    assert_eq!(summary_json(&first), summary_json(&rebuilt));
}

#[test]
fn observed_run_contains_sync_and_repetition_spans() {
    let (_, log) = observed_cluster().run_observed(workload);
    for rec in log.ranks() {
        let names = rec.names();
        assert!(
            names.iter().any(|n| n.starts_with("sync/hca3")),
            "rank {} lacks a sync span: {names:?}",
            rec.rank()
        );
        assert!(
            names.iter().any(|n| n == "scheme/roundtime/rep"),
            "rank {} lacks repetition spans: {names:?}",
            rec.rank()
        );
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.unbalanced_exits(), 0);
    }
}

/// A hand-built log covering every event kind; the golden files below
/// pin the exact bytes each sink emits for it. Regenerate them with
/// `OBS_GOLDEN_REGEN=1 cargo test --test obs_trace`.
fn golden_log() -> TraceLog {
    let mut r0 = RankRecorder::new(0, 64);
    r0.enter(1.0, "sync/demo", 0, ClockReadings::NONE);
    r0.enter(1.25, "round \"zero\"", 0, ClockReadings::global(0.125));
    r0.send(1.5, 1, 7, 8);
    r0.exit(2.0, ClockReadings::global(0.875));
    r0.note(2.125, "demo/invalid");
    r0.counter(2.25, "drift_ppm", 3.5);
    r0.compute(2.5, 0.25);
    r0.exit(3.0, ClockReadings::NONE);
    let mut r1 = RankRecorder::new(1, 64);
    r1.recv(1.75, 0, 7, 8);
    TraceLog::new(vec![r0, r1])
}

fn assert_golden(file: &str, got: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("OBS_GOLDEN_REGEN").is_some() {
        std::fs::write(&path, got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file exists");
    assert_eq!(
        got, want,
        "sink output drifted from {file}; regenerate with OBS_GOLDEN_REGEN=1 if intentional"
    );
}

#[test]
fn chrome_trace_matches_golden_file() {
    assert_golden("obs_chrome_trace.json", &chrome_trace(&golden_log()));
}

#[test]
fn summary_json_matches_golden_file() {
    assert_golden("obs_summary.json", &summary_json(&golden_log()));
}

#[test]
fn flame_report_matches_golden_file() {
    assert_golden("obs_flame.txt", &flame_report(&golden_log()));
}

/// 64-bit FNV-1a: a dependency-free digest for pinning large outputs.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins the length and digest of every sink on the realistic workload:
/// many channels, several flows per channel, nested spans and clock
/// readings. Any change to row order, flow ids or number formatting
/// shows up here even where the small golden log has no such case.
#[test]
fn sink_outputs_on_observed_run_are_pinned() {
    let (_, log) = observed_cluster().run_observed(workload);
    let got = [
        ("chrome_trace", chrome_trace(&log)),
        ("summary_json", summary_json(&log)),
        ("flame_report", flame_report(&log)),
    ]
    .map(|(sink, out)| (sink, out.len(), fnv1a(out.as_bytes())));
    let want = [
        ("chrome_trace", 482_111, 0x9653_a3c4_57ff_76a5),
        ("summary_json", 1_737, 0xedb8_26fd_10e1_47ae),
        ("flame_report", 1_018, 0x3388_a373_46b6_207b),
    ];
    assert_eq!(got, want, "sink bytes on the observed run changed");
}
