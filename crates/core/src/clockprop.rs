//! **ClockPropSync** (paper Algorithm 3): clone the reference process's
//! clock model to all processes of a shared-time-source domain.
//!
//! Valid only when every process in the communicator reads the *same
//! underlying time source* (e.g. all cores of a node whose
//! `clock_getcpuclockid(0)` agree). The reference (communicator rank 0)
//! flattens its — possibly nested — clock model, broadcasts first the
//! size and then the buffer (exactly as in the pseudo-code), and each
//! recipient re-instantiates the decorator chain on top of its own base
//! clock.

use hcs_clock::{flatten_clock, unflatten_clock, BoxClock};
use hcs_mpi::Comm;
use hcs_sim::RankCtx;

use crate::sync::ClockSync;

/// The ClockPropSync algorithm.
#[derive(Debug, Clone, Default)]
pub struct ClockPropSync {
    /// If set, panic when the communicator spans multiple nodes — the
    /// stand-in for the paper's `clock_getcpuclockid(0)` validity check.
    pub verify_shared_source: bool,
}

impl ClockPropSync {
    /// With the shared-time-source validity check enabled.
    pub fn verified() -> Self {
        Self {
            verify_shared_source: true,
        }
    }
}

impl ClockSync for ClockPropSync {
    fn sync_clocks(&mut self, ctx: &mut RankCtx, comm: &mut Comm, clk: BoxClock) -> BoxClock {
        if self.verify_shared_source {
            let my_node = ctx.topology().node_of(ctx.rank());
            for g in comm.members() {
                assert_eq!(
                    ctx.topology().node_of(g),
                    my_node,
                    "ClockPropSync applied across time-source domains (rank {g} is off-node)"
                );
            }
        }
        if comm.size() <= 1 {
            return clk;
        }
        if ctx.obs_on() {
            ctx.obs_enter("clockprop/bcast");
        }
        let out = if comm.rank() == 0 {
            let buffer = flatten_clock(clk.as_ref());
            comm.bcast_f64(ctx, 0, buffer.len() as f64);
            comm.bcast(ctx, 0, &buffer);
            clk
        } else {
            let size = comm.bcast_f64(ctx, 0, 0.0) as usize;
            let buffer = comm.bcast(ctx, 0, &[]);
            assert_eq!(buffer.len(), size, "clock buffer size mismatch");
            unflatten_clock(clk, &buffer)
        };
        ctx.obs_exit();
        out
    }

    fn label(&self) -> String {
        "ClockPropagation".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_clock::{Clock, GlobalClockLM, LinearModel, LocalClock, TimeSource};
    use hcs_sim::machines::{jupiter, testbed};

    #[test]
    fn propagates_the_leader_model_within_a_node() {
        // One node, 4 cores: all share the oscillator, so cloning the
        // leader's model yields identical global clocks.
        let cluster = testbed(1, 4).cluster(1);
        let evals = cluster.run(|ctx| {
            let base = LocalClock::new(ctx, TimeSource::WallCoarse);
            let mut comm = Comm::world(ctx);
            // The leader pretends it was synchronized earlier.
            let clk: BoxClock = if comm.rank() == 0 {
                GlobalClockLM::new(Box::new(base), LinearModel::new(2e-6, -0.5)).boxed()
            } else {
                Box::new(base)
            };
            let mut alg = ClockPropSync::verified();
            let g = alg.sync_clocks(ctx, &mut comm, clk);
            g.true_eval(hcs_sim::SimTime::from_secs(3.0)).raw_seconds()
        });
        for v in &evals {
            assert!((v - evals[0]).abs() < 1e-12, "{evals:?}");
        }
    }

    #[test]
    fn propagates_nested_chains() {
        let cluster = testbed(1, 3).cluster(2);
        let evals = cluster.run(|ctx| {
            let base = LocalClock::new(ctx, TimeSource::WallCoarse);
            let mut comm = Comm::world(ctx);
            let clk: BoxClock = if comm.rank() == 0 {
                let inner =
                    GlobalClockLM::new(Box::new(base), LinearModel::new(1e-6, 0.25)).boxed();
                GlobalClockLM::new(inner, LinearModel::new(-3e-6, 4.0)).boxed()
            } else {
                Box::new(base)
            };
            let mut alg = ClockPropSync::default();
            let g = alg.sync_clocks(ctx, &mut comm, clk);
            g.true_eval(hcs_sim::SimTime::from_secs(10.0)).raw_seconds()
        });
        for v in &evals {
            assert!((v - evals[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn single_member_is_identity() {
        let cluster = testbed(1, 1).cluster(3);
        cluster.run(|ctx| {
            let t = hcs_sim::SimTime::from_secs(1.0);
            let base = LocalClock::new(ctx, TimeSource::WallCoarse);
            let want = base.true_eval(t);
            let mut comm = Comm::world(ctx);
            let mut alg = ClockPropSync::verified();
            let g = alg.sync_clocks(ctx, &mut comm, Box::new(base));
            assert_eq!(g.true_eval(t), want);
        });
    }

    #[test]
    #[should_panic(expected = "across time-source domains")]
    fn verification_rejects_cross_node_use() {
        let cluster = jupiter().with_shape(2, 1, 1).cluster(4);
        cluster.run(|ctx| {
            let base = LocalClock::new(ctx, TimeSource::WallCoarse);
            let mut comm = Comm::world(ctx);
            let mut alg = ClockPropSync::verified();
            let _ = alg.sync_clocks(ctx, &mut comm, Box::new(base));
        });
    }

    #[test]
    fn label() {
        assert_eq!(ClockPropSync::default().label(), "ClockPropagation");
    }
}
