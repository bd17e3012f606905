//! Hierarchical composition (HlHCA) behavior across crates.

use hierarchical_clock_sync::prelude::*;

#[test]
fn h2_and_h3_agree_on_shared_node_time_sources() {
    // With a node-wide time source, the extra socket level of H3HCA is
    // redundant (the paper found H3HCA "almost identical" to H2HCA).
    let machine = machines::jupiter().with_shape(4, 2, 2);
    let run = |levels: usize| {
        machine.cluster(21).run(move |ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut alg: Box<dyn ClockSync> = if levels == 2 {
                Box::new(Hierarchical::h2(
                    Box::new(Hca3::skampi(40, 8)),
                    Box::new(ClockPropSync::verified()),
                ))
            } else {
                Box::new(Hierarchical::h3(
                    Box::new(Hca3::skampi(40, 8)),
                    Box::new(ClockPropSync::verified()),
                    Box::new(ClockPropSync::verified()),
                ))
            };
            let g = alg.sync_clocks(ctx, &mut comm, Box::new(clk));
            g.true_eval(SimTime::from_secs(2.0)).raw_seconds()
        })
    };
    let h2 = run(2);
    let h3 = run(3);
    let err_h2 = h2.iter().map(|v| (v - h2[0]).abs()).fold(0.0f64, f64::max);
    let err_h3 = h3.iter().map(|v| (v - h3[0]).abs()).fold(0.0f64, f64::max);
    assert!(err_h2 < 5e-6, "h2 err {err_h2:.3e}");
    assert!(err_h3 < 5e-6, "h3 err {err_h3:.3e}");
}

#[test]
fn node_locals_share_the_leaders_clock_exactly() {
    // After H2HCA with ClockPropSync at the bottom, all ranks of a node
    // carry the same effective model over the same oscillator: their
    // global clocks must agree to fractions of the read-out noise.
    let machine = machines::hydra().with_shape(3, 2, 2);
    let evals = machine.cluster(5).run(|ctx| {
        let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let mut alg = Hierarchical::h2(
            Box::new(Hca3::skampi(40, 8)),
            Box::new(ClockPropSync::verified()),
        );
        let g = alg.sync_clocks(ctx, &mut comm, Box::new(clk));
        (
            ctx.topology().node_of(ctx.rank()),
            g.true_eval(SimTime::from_secs(1.0)).raw_seconds(),
        )
    });
    for (node, eval) in &evals {
        let leader_eval = evals.iter().find(|(n, _)| n == node).unwrap().1;
        assert!(
            (eval - leader_eval).abs() < 1e-12,
            "node {node}: {eval} vs leader {leader_eval}"
        );
    }
}

#[test]
fn mixed_algorithms_per_level_compose() {
    // The paper: "all other clock synchronization algorithms (HCA2,
    // HCA3, JK) can be mixed arbitrarily without restrictions".
    let machine = machines::jupiter().with_shape(4, 2, 2);
    let combos: Vec<(&str, SyncFactory)> = vec![
        (
            "hca2-top/jk-bottom",
            Box::new(|| {
                Box::new(Hierarchical::h2(
                    Box::new(Hca2::skampi(30, 6)),
                    Box::new(Jk::skampi(30, 6)),
                )) as Box<dyn ClockSync>
            }),
        ),
        (
            "jk-top/hca3-bottom",
            Box::new(|| {
                Box::new(Hierarchical::h2(
                    Box::new(Jk::skampi(30, 6)),
                    Box::new(Hca3::skampi(30, 6)),
                )) as Box<dyn ClockSync>
            }),
        ),
    ];
    for (name, make) in &combos {
        let evals = machine.cluster(31).run(|ctx| {
            let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
            let mut comm = Comm::world(ctx);
            let mut alg = make();
            let g = alg.sync_clocks(ctx, &mut comm, Box::new(clk));
            g.true_eval(SimTime::from_secs(2.0)).raw_seconds()
        });
        let err = evals
            .iter()
            .map(|v| (v - evals[0]).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 10e-6, "{name}: err {err:.3e}");
    }
}

#[test]
fn hierarchy_slashes_inter_node_traffic() {
    // The whole point of HlHCA: only node leaders talk across the
    // interconnect; everyone else is served by a node-local broadcast.
    let machine = machines::jupiter().with_shape(6, 2, 2);
    let traffic = |hier: bool| -> u64 {
        machine
            .cluster(13)
            .run(move |ctx| {
                let clk = LocalClock::new(ctx, TimeSource::MpiWtime);
                let mut comm = Comm::world(ctx);
                let mut alg: Box<dyn ClockSync> = if hier {
                    Box::new(Hierarchical::h2(
                        Box::new(Hca3::skampi(40, 8)),
                        Box::new(ClockPropSync::verified()),
                    ))
                } else {
                    Box::new(Hca3::skampi(40, 8))
                };
                let _ = alg.sync_clocks(ctx, &mut comm, Box::new(clk));
                ctx.counters().sent_inter_node
            })
            .iter()
            .sum()
    };
    let flat = traffic(false);
    let hier = traffic(true);
    // 24 ranks on 6 nodes: the flat tree syncs 23 pairs, most of them
    // across nodes; the hierarchy needs only 5 inter-node pair syncs.
    assert!(
        hier * 2 < flat,
        "hierarchical inter-node msgs {hier} should be well below flat {flat}"
    );
}

#[test]
fn flattened_models_survive_the_wire() {
    // ClockPropSync must transport arbitrarily deep chains unchanged.
    let machine = machines::jupiter().with_shape(1, 2, 4);
    let evals = machine.cluster(9).run(|ctx| {
        let base = LocalClock::new(ctx, TimeSource::MpiWtime);
        let mut comm = Comm::world(ctx);
        let clk: BoxClock = if comm.rank() == 0 {
            // Three nested levels with non-trivial parameters.
            let mut c: BoxClock = Box::new(base);
            for (s, i) in [(1e-6, 0.5), (-2e-6, -0.25), (0.5e-6, 1.75)] {
                c = GlobalClockLM::new(c, LinearModel::new(s, i)).boxed();
            }
            c
        } else {
            Box::new(base)
        };
        let mut alg = ClockPropSync::verified();
        let g = alg.sync_clocks(ctx, &mut comm, clk);
        g.true_eval(SimTime::from_secs(4.0)).raw_seconds()
    });
    for v in &evals {
        assert!((v - evals[0]).abs() < 1e-12);
    }
}

#[test]
fn h2hca_communicator_creation_traffic_is_pinned() {
    // Golden pin for the split's wire traffic: H2HCA's two world splits
    // (node leaders, then shared node) must send the same messages and
    // bytes and leave every rank at the same virtual time, bit for bit,
    // however the host side of `Comm::split` is implemented.
    let machine = machines::titan().with_shape(8, 1, 4);
    let res = machine.cluster(11).run(|ctx| {
        let mut world = Comm::world(ctx);
        let leaders = world.split_node_leaders(ctx).map(|c| c.size());
        let node = world.split_shared_node(ctx).size();
        let c = ctx.counters();
        (
            leaders,
            node,
            c.sent_msgs,
            c.sent_bytes,
            ctx.now().seconds().to_bits(),
        )
    });
    let p = res.len();
    assert_eq!(p, 32);
    for (rank, (leaders, node, ..)) in res.iter().enumerate() {
        assert_eq!(*leaders, (rank % 4 == 0).then_some(8));
        assert_eq!(*node, 4);
    }
    let msgs: u64 = res.iter().map(|r| r.2).sum();
    let bytes: u64 = res.iter().map(|r| r.3).sum();
    // Two splits, each a linear gather (p - 1 messages of 17 B) plus a
    // binomial bcast (p - 1 messages of 21 * p B).
    assert_eq!(msgs, 124);
    assert_eq!(bytes, 42718);
    assert_eq!(res[0].4, 0x3f07_62b6_adeb_311c);
    assert_eq!(res[p - 1].4, 0x3f10_9473_d445_a7ea);
}
