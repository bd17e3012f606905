//! Bit-reproducibility of the full stack: the simulation's timeline is
//! a pure function of (machine spec, seed), independent of host thread
//! scheduling. This is what makes every figure in EXPERIMENTS.md
//! regenerable exactly. A panicking rank must fail the run with its
//! root cause and leave the engine serviceable.

use hierarchical_clock_sync::bench::suites::{measure_allreduce, Suite, SuiteConfig};
use hierarchical_clock_sync::mpi::ReduceOp;
use hierarchical_clock_sync::prelude::*;

fn full_pipeline(seed: u64) -> (Vec<f64>, f64, usize) {
    let cluster = machines::jupiter().with_shape(4, 2, 2).cluster(seed);
    let out = cluster.run(|ctx| {
        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let mut sync = Hierarchical::h2(
            Box::new(Hca3::skampi(30, 6)),
            Box::new(ClockPropSync::verified()),
        );
        let mut g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
        let cfg = SuiteConfig {
            nreps: 30,
            barrier: BarrierAlgorithm::Bruck,
            time_slice_s: secs(0.05),
        };
        let res = measure_allreduce(ctx, &mut comm, g.as_mut(), Suite::ReproMpi, 8, cfg);
        (g.true_eval(SimTime::from_secs(1.0)).raw_seconds(), res)
    });
    let evals: Vec<f64> = out.iter().map(|o| o.0).collect();
    let root = out[0].1.unwrap();
    (evals, root.latency_s, root.nreps)
}

#[test]
fn identical_seeds_identical_timelines() {
    let a = full_pipeline(123);
    let b = full_pipeline(123);
    assert_eq!(a.0, b.0, "global clock models must be bit-identical");
    assert_eq!(a.1, b.1, "measured latency must be bit-identical");
    assert_eq!(a.2, b.2);
}

#[test]
fn different_seeds_differ() {
    let a = full_pipeline(1);
    let b = full_pipeline(2);
    assert_ne!(a.0, b.0);
}

#[test]
fn repeated_runs_with_many_host_threads_stay_deterministic() {
    // Stress the claim under contention: 16 ranks on however many host
    // cores, five times in a row.
    let baseline = full_pipeline(77);
    for _ in 0..4 {
        let again = full_pipeline(77);
        assert_eq!(baseline.0, again.0);
        assert_eq!(baseline.1, again.1);
    }
}

/// A communication-heavy workload touching collectives, point-to-point
/// traffic, jittered latencies and drifting clocks.
fn collective_workload(ctx: &mut RankCtx) -> (u64, u64) {
    let mut clk = LocalClock::new(ctx, TimeSource::MpiWtime);
    let mut comm = Comm::world(ctx);
    let mut acc = 0.0f64;
    for i in 0..10u32 {
        acc += comm.allreduce_f64(ctx, ctx.rank() as f64 + i as f64, ReduceOp::F64Sum);
        comm.barrier(ctx, BarrierAlgorithm::Tree);
    }
    let reading = clk.get_time(ctx);
    let mix = ctx.now().seconds() + reading.raw_seconds();
    (acc.to_bits(), mix.to_bits())
}

#[test]
fn rerun_is_bit_identical() {
    let cluster = machines::testbed(4, 2).cluster(20_240_806);
    let first = cluster.run(collective_workload);
    let again = cluster.run(collective_workload);
    let rebuilt = machines::testbed(4, 2)
        .cluster(20_240_806)
        .run(collective_workload);
    assert_eq!(first, again, "re-run is not reproducible");
    assert_eq!(first, rebuilt, "rebuilt cluster differs");
}

#[test]
fn panicking_rank_poisons_peers_and_next_run_is_serviceable() {
    let cluster = machines::testbed(2, 2).cluster(6);
    let caught = std::panic::catch_unwind(|| {
        cluster.run(|ctx| {
            if ctx.rank() == 1 {
                ctx.compute(secs(1e-6));
                panic!("deliberate failure at rank 1");
            }
            // Everyone else blocks on a message rank 1 will never send;
            // the poison broadcast must wake them instead of deadlocking.
            let _ = ctx.recv(1, 99);
        })
    });
    let payload = caught.expect_err("run must propagate the panic");
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("");
    assert!(
        msg.contains("deliberate failure at rank 1"),
        "expected the root-cause panic, got {msg:?}"
    );

    // The engine must still be fully serviceable after the poisoned run.
    let ok = cluster.run(|ctx| ctx.rank());
    assert_eq!(ok, vec![0, 1, 2, 3]);
}
