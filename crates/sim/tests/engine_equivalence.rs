//! Golden corpus of the engine: results, `RunOutcome`s, chrome traces
//! and summary JSON for fixed clusters and seeds, pinned as length +
//! 64-bit FNV-1a digest. The tables were recorded from the retired
//! one-OS-thread-per-rank engine, and the event engine reproduced every
//! entry byte for byte before that engine was deleted; any divergence
//! here means host scheduling leaked into virtual time.
//!
//! The differential leg is the continuation backend: the x86_64 fiber
//! backend and the thread-backed one (`HCS_EVENT_THREAD_CONT=1`) must
//! both match the same tables.
//!
//! Matrix: p ∈ {2, 8, 32, 256} × seeds, with observability on and off,
//! plus a chaotic fault-plan run and a timeout run (the two paths where
//! the wait-graph/deadline machinery interacts with parking).

use hcs_obs::{chrome_trace, summary_json, ObsSpec};
use hcs_sim::{
    machines, secs, Cluster, FaultPlan, LinkSel, RankCtx, RankOutcome, RecvTimeout, TimeoutReason,
    Window,
};

/// (nodes, cores_per_node) shapes giving p ∈ {2, 8, 32, 256}.
const SHAPES: [(usize, usize); 4] = [(1, 2), (2, 4), (4, 8), (16, 16)];
const SEEDS: [u64; 2] = [7, 20_260_807];

/// Length and 64-bit FNV-1a digest of an artifact's bytes.
type Pin = (usize, u64);

/// `(p, seed, ring results)`.
const RING: [(usize, u64, Pin); 8] = [
    (2, 7, (32, 0x3c8a_6735_3185_d945)),
    (2, 20_260_807, (32, 0xa139_7b99_7916_941d)),
    (8, 7, (128, 0xf80e_b3c2_4488_7558)),
    (8, 20_260_807, (128, 0x9ae3_60b0_bad1_bb11)),
    (32, 7, (512, 0xf855_08bb_08f2_565e)),
    (32, 20_260_807, (512, 0x355f_9688_fa8f_eaf3)),
    (256, 7, (4096, 0x8fb8_f35a_4e22_13dd)),
    (256, 20_260_807, (4096, 0x8b7d_cfd5_105b_8236)),
];

/// `(p, chrome trace, summary JSON)` of the observed ring at `SEEDS[0]`.
const TRACES: [(usize, Pin, Pin); 4] = [
    (
        2,
        (2824, 0x0030_dad5_c8d4_a061),
        (309, 0x8dd2_a195_cf82_98b2),
    ),
    (
        8,
        (11_030, 0x9824_27ec_355c_a645),
        (1164, 0x37f1_c66c_7ca4_4607),
    ),
    (
        32,
        (44_270, 0x14d8_2fcb_3048_2093),
        (4563, 0x0135_7d57_cd0a_2083),
    ),
    (
        256,
        (358_297, 0xb716_74cc_ccc6_aeab),
        (36_318, 0x1d92_97bb_e481_2634),
    ),
];

/// `(p, seed, chaotic-plan RunOutcome)`.
const CHAOS: [(usize, u64, Pin); 4] = [
    (8, 7, (104, 0xfc0b_1e31_3873_a6be)),
    (8, 20_260_807, (104, 0x48c3_0ec9_09d0_58cd)),
    (32, 7, (416, 0x8d48_e75d_83e8_d906)),
    (32, 20_260_807, (416, 0x832f_d887_25b7_c990)),
];

/// `(p, timeout RunOutcome)` at `SEEDS[0]`.
const TIMEOUT: [(usize, Pin); 2] = [
    (2, (20, 0xc2d8_3e92_3b9c_21cf)),
    (8, (80, 0x91be_efea_d070_475f)),
];

/// 64-bit FNV-1a: a dependency-free digest for pinning large outputs.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pin(bytes: &[u8]) -> Pin {
    (bytes.len(), fnv1a(bytes))
}

fn check(got: Pin, want: Pin, what: &str) {
    assert_eq!(got, want, "{what} differs from the corpus");
}

/// A fixed little-endian byte form of a run's result, for [`pin`].
trait Encode {
    fn encode(&self, out: &mut Vec<u8>);

    fn pin(&self) -> Pin {
        let mut out = Vec::new();
        self.encode(&mut out);
        pin(&out)
    }
}

impl Encode for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Encode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        for x in self {
            x.encode(out);
        }
    }
}

impl Encode for Result<u64, String> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ok(x) => {
                out.push(0);
                x.encode(out);
            }
            Err(e) => {
                out.push(1);
                out.extend_from_slice(e.as_bytes());
            }
        }
    }
}

impl Encode for RecvTimeout {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.rank as u64, self.src as u64).encode(out);
        (self.tag, self.at.seconds().to_bits()).encode(out);
        out.push(match self.reason {
            TimeoutReason::DeadlinePassed => 0,
            TimeoutReason::MessageLost => 1,
            TimeoutReason::SenderFinished => 2,
            TimeoutReason::WaitCycle => 3,
        });
    }
}

impl<R: Encode> Encode for RankOutcome<R> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RankOutcome::Completed(r) => {
                out.push(0);
                r.encode(out);
            }
            RankOutcome::TimedOut(t) => {
                out.push(1);
                t.encode(out);
            }
        }
    }
}

fn cluster(nodes: usize, cores: usize, seed: u64) -> Cluster {
    machines::testbed(nodes, cores).cluster(seed)
}

/// A ring exchange with rank-dependent compute: every rank both sends
/// and blocks, so the event executor's park/wake path is exercised on
/// every round at every p.
fn ring(ctx: &mut RankCtx) -> (u64, u64) {
    let p = ctx.size();
    let (me, next, prev) = (ctx.rank(), (ctx.rank() + 1) % p, (ctx.rank() + p - 1) % p);
    let mut acc = me as u64;
    for round in 0..3u32 {
        ctx.compute(secs(1e-6 * ((me % 7) as f64 + 1.0)));
        ctx.send_t::<u64>(next, round, acc);
        let got = ctx.recv_t::<u64>(prev, round);
        acc = acc.wrapping_mul(31).wrapping_add(got);
    }
    (acc, ctx.now().seconds().to_bits())
}

fn ring_pin(p: usize, seed: u64) -> Pin {
    RING.iter()
        .find(|&&(rp, rs, _)| (rp, rs) == (p, seed))
        .map(|&(_, _, want)| want)
        .expect("every shape and seed has a ring pin")
}

#[test]
fn ring_results_match_the_corpus() {
    for (nodes, cores) in SHAPES {
        for seed in SEEDS {
            let p = nodes * cores;
            let got = cluster(nodes, cores, seed).run(ring).pin();
            check(got, ring_pin(p, seed), &format!("ring p={p} seed={seed}"));
        }
    }
}

#[test]
fn traces_match_the_corpus_and_obs_does_not_perturb() {
    for ((nodes, cores), (p, want_trace, want_summary)) in SHAPES.into_iter().zip(TRACES) {
        assert_eq!(nodes * cores, p);
        let seed = SEEDS[0];
        let plain = cluster(nodes, cores, seed);
        let observed = plain.to_builder().observability(ObsSpec::full()).build();
        let (results, log) = observed.run_observed(ring);
        let trace = pin(chrome_trace(&log).as_bytes());
        check(trace, want_trace, &format!("chrome trace, p={p}"));
        let summary = pin(summary_json(&log).as_bytes());
        check(summary, want_summary, &format!("summary json, p={p}"));
        // Observability must not perturb the timeline: the observed and
        // the plain (obs-off) run both return the corpus results.
        check(results.pin(), ring_pin(p, seed), &format!("obs on, p={p}"));
        check(
            plain.run(ring).pin(),
            ring_pin(p, seed),
            &format!("obs off, p={p}"),
        );
    }
}

/// Lossy-link workload: deadline receives degrade losses into per-rank
/// ring breaks instead of hangs. Chaotic enough that drops, duplicates,
/// reordering and latency scaling all trigger at these seeds.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .drop_messages(LinkSel::any(), 0.25, Window::all())
        .duplicate_messages(LinkSel::any(), 0.2, secs(2e-5), Window::all())
        .reorder_messages(LinkSel::any(), 0.3, secs(1.5e-5), Window::all())
        .scale_latency(LinkSel::any(), 2.5, Window::all())
}

fn lossy_ring(ctx: &mut RankCtx) -> (u64, u32) {
    let p = ctx.size();
    let (next, prev) = ((ctx.rank() + 1) % p, (ctx.rank() + p - 1) % p);
    let mut acc = ctx.rank() as u64;
    let mut completed_rounds = 0u32;
    for round in 0..4u32 {
        ctx.send_t::<u64>(next, round, acc);
        match ctx.recv_within(prev, round, secs(5e-3)) {
            Ok(payload) => {
                acc = acc
                    .wrapping_mul(33)
                    .wrapping_add(payload.as_slice().len() as u64);
                completed_rounds += 1;
            }
            Err(_) => break,
        }
    }
    (acc, completed_rounds)
}

#[test]
fn chaotic_fault_plan_outcomes_match_the_corpus() {
    let shapes = [(2, 4), (2, 4), (4, 8), (4, 8)];
    for ((nodes, cores), (p, seed, want)) in shapes.into_iter().zip(CHAOS) {
        assert_eq!(nodes * cores, p);
        let chaotic = cluster(nodes, cores, seed)
            .to_builder()
            .faults(chaos_plan())
            .build();
        let got = chaotic.run_outcome(lossy_ring);
        check(got.ranks.pin(), want, &format!("chaos p={p} seed={seed}"));
    }
}

#[test]
fn timeout_outcomes_match_the_corpus() {
    // Rank 0 waits for a message rank 1 never sends: the deadline
    // resolution (SenderDone vs DeadlinePassed, the timeout's virtual
    // time) is pinned.
    let workload = |ctx: &mut RankCtx| -> Result<u64, String> {
        if ctx.rank() == 0 {
            match ctx.recv_within(1, 999, secs(1e-3)) {
                Ok(_) => Err("unexpected message".into()),
                Err(t) => Ok(t.at.seconds().to_bits()),
            }
        } else {
            ctx.compute(secs(5e-6));
            Ok(0)
        }
    };
    for ((nodes, cores), (p, want)) in [(1, 2), (2, 4)].into_iter().zip(TIMEOUT) {
        assert_eq!(nodes * cores, p);
        let got = cluster(nodes, cores, SEEDS[0]).run_outcome(workload);
        check(got.ranks.pin(), want, &format!("timeout p={p}"));
        assert!(
            got.ranks
                .iter()
                .all(|r| matches!(r, RankOutcome::Completed(Ok(_)))),
            "workload completes via Result, not unwind"
        );
    }
}
