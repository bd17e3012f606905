//! **HlHCA** — hierarchical clock synchronization (paper §IV).
//!
//! A different clock synchronization algorithm can run at each
//! architectural level of the machine. The generic [`Hierarchical`]
//! scheme takes an ordered list of [`LevelPlan`]s (top/widest level
//! first); each level builds its communicator (a real, paid-for
//! `MPI_Comm_split`, as in the paper, which includes communicator
//! creation in the measured synchronization time) and — if this rank is
//! a member and the communicator is non-trivial — runs its algorithm,
//! threading the resulting clock into the next level.
//!
//! Ready-made realizations:
//! - [`Hierarchical::h2`] — **H2HCA** (Algorithm 4): inter-node level +
//!   intra-node level,
//! - [`Hierarchical::h3`] — **H3HCA** (§IV-D): inter-node +
//!   socket-leaders-per-node + intra-socket.
//!
//! Semantics requirement (paper §IV-C): `ClockPropSync` may only be the
//! algorithm of a level whose communicators live inside one
//! time-source domain; all other algorithms compose freely.

use hcs_clock::BoxClock;
use hcs_mpi::Comm;
use hcs_sim::RankCtx;

use crate::sync::ClockSync;

/// Which ranks form the communicators of a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelScope {
    /// One communicator of all node leaders (lowest member per node).
    NodeLeaders,
    /// Per node: a communicator of that node's socket leaders.
    SocketLeadersPerNode,
    /// Per node: all members on that node (`MPI_COMM_TYPE_SHARED`).
    Node,
    /// Per socket: all members on that socket.
    Socket,
}

/// One level of the hierarchy: scope + algorithm.
pub struct LevelPlan {
    /// Which communicator this level builds.
    pub scope: LevelScope,
    /// The synchronization algorithm applied on it.
    pub alg: Box<dyn ClockSync>,
}

impl LevelPlan {
    /// Creates a level plan.
    pub fn new(scope: LevelScope, alg: Box<dyn ClockSync>) -> Self {
        Self { scope, alg }
    }
}

/// The generic HlHCA scheme.
pub struct Hierarchical {
    /// Levels from top (widest) to bottom (narrowest).
    pub levels: Vec<LevelPlan>,
}

impl Hierarchical {
    /// **H2HCA**: `top` between node leaders, `bottom` within each node.
    pub fn h2(top: Box<dyn ClockSync>, bottom: Box<dyn ClockSync>) -> Self {
        Self {
            levels: vec![
                LevelPlan::new(LevelScope::NodeLeaders, top),
                LevelPlan::new(LevelScope::Node, bottom),
            ],
        }
    }

    /// **H3HCA**: `top` between node leaders, `mid` among each node's
    /// socket leaders, `bottom` within each socket.
    pub fn h3(
        top: Box<dyn ClockSync>,
        mid: Box<dyn ClockSync>,
        bottom: Box<dyn ClockSync>,
    ) -> Self {
        Self {
            levels: vec![
                LevelPlan::new(LevelScope::NodeLeaders, top),
                LevelPlan::new(LevelScope::SocketLeadersPerNode, mid),
                LevelPlan::new(LevelScope::Socket, bottom),
            ],
        }
    }

    fn build_level(&self, ctx: &mut RankCtx, comm: &mut Comm, scope: LevelScope) -> Option<Comm> {
        match scope {
            LevelScope::NodeLeaders => comm.split_node_leaders(ctx),
            LevelScope::Node => Some(comm.split_shared_node(ctx)),
            LevelScope::Socket => Some(comm.split_socket(ctx)),
            LevelScope::SocketLeadersPerNode => {
                // Socket leaders join, colored by node.
                let topo = comm
                    .members()
                    .position(|g| {
                        ctx.topology().socket_of(g) == ctx.topology().socket_of(ctx.rank())
                    })
                    .expect("this rank's socket appears among members");
                let i_am_socket_leader = comm.global_rank(topo) == ctx.rank();
                let color = if i_am_socket_leader {
                    Some(ctx.topology().node_of(ctx.rank()) as u64)
                } else {
                    None
                };
                comm.split(ctx, color, comm.rank() as u64)
            }
        }
    }
}

impl ClockSync for Hierarchical {
    fn sync_clocks(&mut self, ctx: &mut RankCtx, comm: &mut Comm, clk: BoxClock) -> BoxClock {
        // Build all level communicators first (collective calls —
        // everyone participates), then run the per-level algorithms.
        let scopes: Vec<LevelScope> = self.levels.iter().map(|l| l.scope).collect();
        let mut level_comms: Vec<Option<Comm>> = scopes
            .iter()
            .map(|&s| self.build_level(ctx, comm, s))
            .collect();

        let mut clk = clk;
        for (lvl, (plan, level_comm)) in self
            .levels
            .iter_mut()
            .zip(level_comms.iter_mut())
            .enumerate()
        {
            if let Some(lc) = level_comm {
                if lc.size() > 1 {
                    if ctx.obs_on() {
                        ctx.obs_enter_seq(&format!("hier/level/{}", plan.alg.label()), lvl as u32);
                    }
                    clk = plan.alg.sync_clocks(ctx, lc, clk);
                    ctx.obs_exit();
                }
            }
        }
        clk
    }

    fn label(&self) -> String {
        let mut parts = Vec::new();
        let names = ["Top", "Mid", "Bottom"];
        for (i, plan) in self.levels.iter().enumerate() {
            let tier = if self.levels.len() == 2 && i == 1 {
                "Bottom"
            } else {
                names.get(i).copied().unwrap_or("Level")
            };
            parts.push(format!("{tier}/{}", plan.alg.label()));
        }
        parts.join("/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clockprop::ClockPropSync;
    use crate::hca3::Hca3;
    use crate::sync::run_sync;
    use hcs_clock::{Clock, LocalClock, TimeSource};
    use hcs_sim::machines::{jupiter, testbed};

    fn h2_errors(nodes: usize, cores: usize, seed: u64) -> (Vec<f64>, f64) {
        let cluster = testbed(nodes, cores).cluster(seed);
        let evals = cluster.run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut alg = Hierarchical::h2(
                Box::new(Hca3::skampi(40, 10)),
                Box::new(ClockPropSync::verified()),
            );
            let out = run_sync(&mut alg, ctx, &mut comm, Box::new(clk));
            (
                out.clock
                    .true_eval(hcs_sim::SimTime::from_secs(5.0))
                    .raw_seconds(),
                out.duration.seconds(),
            )
        });
        let reference = evals[0].0;
        let dur = evals.iter().map(|&(_, d)| d).fold(0.0f64, f64::max);
        (evals.iter().map(|(v, _)| v - reference).collect(), dur)
    }

    #[test]
    fn h2hca_synchronizes_whole_cluster() {
        let (errs, _) = h2_errors(6, 4, 1);
        for (r, e) in errs.iter().enumerate() {
            assert!(e.abs() < 5e-6, "rank {r} err {e:.3e}");
        }
    }

    #[test]
    fn h2hca_is_faster_than_flat_hca3() {
        let cluster = testbed(8, 4).cluster(2);
        let flat = cluster.run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut alg = Hca3::skampi(30, 8);
            run_sync(&mut alg, ctx, &mut comm, Box::new(clk))
                .duration
                .seconds()
        });
        let hier = cluster.run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut alg = Hierarchical::h2(
                Box::new(Hca3::skampi(30, 8)),
                Box::new(ClockPropSync::verified()),
            );
            run_sync(&mut alg, ctx, &mut comm, Box::new(clk))
                .duration
                .seconds()
        });
        let flat_d = flat.into_iter().fold(0.0f64, f64::max);
        let hier_d = hier.into_iter().fold(0.0f64, f64::max);
        // log2(32)=5 rounds vs log2(8)=3 rounds + cheap propagation.
        assert!(hier_d < flat_d, "hier {hier_d:.4} vs flat {flat_d:.4}");
    }

    #[test]
    fn h3hca_on_dual_socket_machine() {
        let cluster = jupiter().with_shape(3, 2, 4).cluster(3);
        let evals = cluster.run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut alg = Hierarchical::h3(
                Box::new(Hca3::skampi(30, 8)),
                Box::new(ClockPropSync::verified()),
                Box::new(ClockPropSync::verified()),
            );
            let out = run_sync(&mut alg, ctx, &mut comm, Box::new(clk));
            out.clock
                .true_eval(hcs_sim::SimTime::from_secs(5.0))
                .raw_seconds()
        });
        for (r, v) in evals.iter().enumerate() {
            let e = v - evals[0];
            assert!(e.abs() < 5e-6, "rank {r} err {e:.3e}");
        }
    }

    #[test]
    fn single_node_skips_top_level() {
        let (errs, _) = h2_errors(1, 4, 4);
        for e in errs {
            assert!(e.abs() < 1e-9, "single node should be exact, err {e:.3e}");
        }
    }

    #[test]
    fn label_mentions_levels() {
        let alg = Hierarchical::h2(
            Box::new(Hca3::skampi(1000, 100)),
            Box::new(ClockPropSync::default()),
        );
        assert_eq!(
            alg.label(),
            "Top/hca3/recompute_intercept/1000/SKaMPI-Offset/100/Bottom/ClockPropagation"
        );
    }
}
