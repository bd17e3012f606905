//! Scale smoke tests. The default-run sizes are kept moderate; the
//! `#[ignore]`d test runs H2HCA at 8192 Titan ranks (continuations
//! multiplexed on a few worker threads). Run it explicitly in release
//! mode:
//!
//! ```text
//! cargo test --release --test scale_smoke -- --ignored
//! ```
//!
//! The paper's full 16 384 ranks run the same way, through
//! `fig6 --full`.

use hierarchical_clock_sync::mpi::ReduceOp;
use hierarchical_clock_sync::prelude::*;

#[test]
fn two_thousand_ranks_sync_and_reduce() {
    // 128 nodes x 16 cores = 2048 ranks, H2HCA + one allreduce.
    let machine = machines::titan().with_shape(128, 1, 16);
    let evals = machine.cluster(1).run(|ctx| {
        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let mut sync = Hierarchical::h2(
            Box::new(Hca3::skampi(15, 4)),
            Box::new(ClockPropSync::verified()),
        );
        let g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
        let s = comm.allreduce_f64(ctx, 1.0, ReduceOp::F64Sum);
        assert_eq!(s, 2048.0);
        g.true_eval(SimTime::from_secs(2.0)).raw_seconds()
    });
    assert_eq!(evals.len(), 2048);
    let max_err = evals
        .iter()
        .map(|v| (v - evals[0]).abs())
        .fold(0.0f64, f64::max);
    assert!(max_err < 60e-6, "max err {max_err:.3e}");
}

#[test]
#[ignore = "8192 ranks; run explicitly in release mode with --ignored"]
fn titan_large_scale_8192_ranks() {
    let machine = machines::titan().with_shape(512, 1, 16);
    let evals = machine.cluster(1).run(|ctx| {
        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let mut sync = Hierarchical::h2(
            Box::new(Hca3::skampi(10, 4)),
            Box::new(ClockPropSync::verified()),
        );
        let g = sync.sync_clocks(ctx, &mut comm, Box::new(clk));
        g.true_eval(SimTime::from_secs(2.0)).raw_seconds()
    });
    assert_eq!(evals.len(), 8192);
    let max_err = evals
        .iter()
        .map(|v| (v - evals[0]).abs())
        .fold(0.0f64, f64::max);
    assert!(max_err < 150e-6, "max err {max_err:.3e}");
}
