//! `MPI_Gather`, `MPI_Scatter` and `allgather`.
//!
//! Linear (rooted) implementations: the paper's algorithms use scatter
//! exactly once per synchronization (HCA2's model distribution) and
//! gather/allgather only for communicator creation; linear variants keep
//! the code obviously correct.
//!
//! The allgather behind `Comm::split` is not cheap at scale: its bcast
//! carries `21 * p` bytes (p length-prefixed 17-byte records) to every
//! member, so the job handles O(p²) bytes. Host-cost contract: each rank
//! scans its O(p) received bytes in place through [`Allgathered`], with
//! no allocation per record. The wire format is the simulated cost and
//! does not depend on this: a linear gather of `p - 1` messages, then a
//! binomial bcast of the length-prefixed concatenation.

use hcs_sim::RankCtx;

use crate::Comm;

impl Comm {
    /// Gathers every member's `data` at `root`; returns `Some(vec)` (in
    /// communicator rank order) at the root and `None` elsewhere.
    pub fn gather(&mut self, ctx: &mut RankCtx, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        assert!(root < self.size(), "gather root {root} out of range");
        let tag = self.next_coll_tag();
        let comm = self.clone();
        // Linear gather: every rank posts its message at once — full
        // per-node NIC concurrency.
        self.with_contention(ctx, |ctx| {
            if comm.rank() == root {
                let mut out = vec![Vec::new(); comm.size()];
                out[root] = data.to_vec();
                for (r, slot) in out.iter_mut().enumerate() {
                    if r != root {
                        *slot = ctx.recv(comm.global_rank(r), tag).into_vec();
                    }
                }
                Some(out)
            } else {
                ctx.send(comm.global_rank(root), tag, data);
                None
            }
        })
    }

    /// Scatters one buffer per member from `root` (which must pass
    /// `Some(chunks)` with exactly `size` entries); returns this member's
    /// chunk. This is the `MPI_Scatter` HCA2 uses to distribute the
    /// per-rank clock models.
    pub fn scatter(
        &mut self,
        ctx: &mut RankCtx,
        root: usize,
        chunks: Option<&[Vec<u8>]>,
    ) -> Vec<u8> {
        assert!(root < self.size(), "scatter root {root} out of range");
        let tag = self.next_coll_tag();
        let comm = self.clone();
        // Linear scatter: only the root sends (sequentially) — no
        // concurrent senders per node.
        {
            let ctx = &mut *ctx;
            if comm.rank() == root {
                let chunks = chunks.expect("scatter root must supply chunks");
                assert_eq!(
                    chunks.len(),
                    comm.size(),
                    "scatter needs one chunk per member"
                );
                for (r, chunk) in chunks.iter().enumerate() {
                    if r != root {
                        ctx.send(comm.global_rank(r), tag, chunk);
                    }
                }
                chunks[root].clone()
            } else {
                ctx.recv(comm.global_rank(root), tag).into_vec()
            }
        }
    }

    /// Every member contributes `data`; every member receives all
    /// contributions in communicator rank order (gather at 0 + bcast of
    /// the length-prefixed concatenation), as views into the received
    /// buffer.
    pub fn allgather(&mut self, ctx: &mut RankCtx, data: &[u8]) -> Allgathered {
        let gathered = self.gather(ctx, 0, data);
        let packed = match gathered {
            Some(parts) => {
                let mut buf = Vec::with_capacity(parts.iter().map(|p| 4 + p.len()).sum());
                for p in &parts {
                    buf.extend_from_slice(&(p.len() as u32).to_le_bytes());
                    buf.extend_from_slice(p);
                }
                buf
            }
            None => Vec::new(),
        };
        Allgathered {
            buf: self.bcast(ctx, 0, &packed),
            n: self.size(),
        }
    }
}

/// The result of [`Comm::allgather`]: every member's contribution, in
/// communicator rank order, read in place from the received buffer of
/// `u32` little-endian lengths each followed by that many bytes.
#[derive(Debug, Clone)]
pub struct Allgathered {
    buf: Vec<u8>,
    n: usize,
}

impl Allgathered {
    /// Number of contributions (the communicator size).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether there are no contributions.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The contribution of communicator rank `i` (a scan over the
    /// records before it).
    pub fn get(&self, i: usize) -> &[u8] {
        assert!(i < self.n, "allgather index {i} out of range");
        self.iter().nth(i).expect("allgather record")
    }

    /// The contributions in communicator rank order. Panics if the
    /// buffer is truncated or has trailing bytes.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        let mut rest = self.buf.as_slice();
        (0..self.n).map(move |i| {
            let (len, tail) = rest.split_first_chunk::<4>().expect("truncated allgather");
            let (rec, tail) = tail
                .split_at_checked(u32::from_le_bytes(*len) as usize)
                .expect("truncated allgather");
            assert!(
                i + 1 < self.n || tail.is_empty(),
                "trailing bytes in allgather payload"
            );
            rest = tail;
            rec
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_sim::machines::testbed;

    #[test]
    fn gather_collects_in_rank_order() {
        let cluster = testbed(2, 2).cluster(1);
        let res = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            comm.gather(ctx, 1, &[comm.rank() as u8 * 10])
        });
        assert!(res[0].is_none() && res[2].is_none() && res[3].is_none());
        let at_root = res[1].as_ref().unwrap();
        assert_eq!(at_root, &vec![vec![0], vec![10], vec![20], vec![30]]);
    }

    #[test]
    fn scatter_distributes_chunks() {
        let cluster = testbed(2, 2).cluster(2);
        let res = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let chunks: Option<Vec<Vec<u8>>> = if comm.rank() == 0 {
                Some(
                    (0..comm.size())
                        .map(|r| vec![r as u8, r as u8 + 1])
                        .collect(),
                )
            } else {
                None
            };
            comm.scatter(ctx, 0, chunks.as_deref())
        });
        for (r, chunk) in res.iter().enumerate() {
            assert_eq!(chunk, &vec![r as u8, r as u8 + 1]);
        }
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        let cluster = testbed(3, 1).cluster(3);
        let res = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            // Variable-length contributions.
            let mine = vec![comm.rank() as u8; comm.rank() + 1];
            let all = comm.allgather(ctx, &mine);
            assert_eq!(all.get(2), &[2u8; 3]);
            all.iter().map(<[u8]>::to_vec).collect::<Vec<_>>()
        });
        for per_rank in &res {
            assert_eq!(per_rank, &vec![vec![0u8; 1], vec![1u8; 2], vec![2u8; 3]]);
        }
    }

    #[test]
    fn allgather_with_empty_contributions() {
        let cluster = testbed(1, 3).cluster(4);
        let res = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let mine: Vec<u8> = if comm.rank() == 1 { vec![9] } else { vec![] };
            let all = comm.allgather(ctx, &mine);
            assert_eq!(all.len(), 3);
            all.iter().map(<[u8]>::to_vec).collect::<Vec<_>>()
        });
        assert_eq!(res[0], vec![vec![], vec![9], vec![]]);
    }

    #[test]
    #[should_panic(expected = "one chunk per member")]
    fn scatter_wrong_chunk_count_panics() {
        let cluster = testbed(1, 2).cluster(5);
        cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let chunks = if comm.rank() == 0 {
                Some(vec![vec![1u8]])
            } else {
                None
            };
            comm.scatter(ctx, 0, chunks.as_deref());
        });
    }
}
