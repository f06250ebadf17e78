//! Seeded inputs for the three Table-1 mixes.
//!
//! Everything the engine receives is generated here from the `--seed`
//! argument: the preload edges and the op stream. Generation happens
//! outside the timed region.
//!
//! The op mixes are the repository's Table-1 generators
//! (`bg3_workloads::{DouyinFollow, DouyinRecommendation,
//! FinancialRiskControl}`) and their `Op` vocabulary. This module adds
//! only the preload and the community layer: each generator draws over
//! one community's users, and every op is placed into a community.

use bg3_graph::{Edge, EdgeType, VertexId};
use bg3_workloads::{
    DouyinFollow, DouyinRecommendation, FinancialRiskControl, Op, WorkloadGen, Zipf,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Users in the graph; vertex ids are `0..USERS`.
pub const USERS: u64 = 20_000;
/// Users fall into this many equal communities. Edges join users of one
/// community, and every draw picks a community uniformly, then a user by
/// Zipf rank within it. In a single Zipf population one hottest vertex
/// sets Follow's throughput and read p99: reads of its dirty pages cost up
/// to 100 µs and take half the run, and whether a seed gives it a slow
/// page layout is a lottery. Many communities average many such vertices.
pub const COMMUNITIES: u64 = 32;
/// Users per community.
pub const COMMUNITY_SIZE: u64 = USERS / COMMUNITIES;
/// Edges inserted before measuring.
pub const PRELOAD_EDGES: usize = 50_000;
/// Zipf exponent of edge endpoints and of read sources.
pub const ZIPF_EXPONENT: f64 = 1.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Douyin Follow: 99% one-hop `neighbors`, 1% edge inserts.
    Follow,
    /// Douyin Recommendation: 70/20/10% 1/2/3-hop counts via the executor.
    Recommend,
    /// Financial Risk Control: writes and reads alternate; a read checks
    /// the edge written just before it (70%) or looks for a 5–10-hop
    /// cycle through a Zipf-drawn account (30%).
    Risk,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Follow, Workload::Recommend, Workload::Risk];

    /// Parses a `--workload` argument.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Follow => "follow",
            Workload::Recommend => "recommend",
            Workload::Risk => "risk",
        }
    }

    /// The edge type the workload stores and reads.
    pub fn etype(self) -> EdgeType {
        match self {
            Workload::Follow | Workload::Recommend => EdgeType::FOLLOW,
            Workload::Risk => EdgeType::TRANSFER,
        }
    }

    /// Whether the measured phase issues writes.
    pub fn writes(self) -> bool {
        self != Workload::Recommend
    }

    /// The workload's Table-1 generator over one community's users.
    fn generator(self, seed: u64) -> Box<dyn WorkloadGen> {
        match self {
            Workload::Follow => Box::new(DouyinFollow::new(COMMUNITY_SIZE, ZIPF_EXPONENT, seed)),
            Workload::Recommend => Box::new(DouyinRecommendation::new(
                COMMUNITY_SIZE,
                ZIPF_EXPONENT,
                seed,
            )),
            Workload::Risk => Box::new(FinancialRiskControl::new(
                COMMUNITY_SIZE,
                ZIPF_EXPONENT,
                seed,
            )),
        }
    }
}

/// The edge an `InsertEdge` op writes; `None` for other ops.
pub fn edge_of(op: &Op) -> Option<Edge> {
    match op {
        Op::InsertEdge {
            src,
            etype,
            dst,
            props,
        } => Some(Edge {
            src: *src,
            etype: *etype,
            dst: *dst,
            props: props.clone(),
        }),
        _ => None,
    }
}

/// Bytes of user data in an edge with `props`: src, etype, dst and props
/// as the client sent them.
pub fn user_bytes(props: &[u8]) -> u64 {
    (8 + 2 + 8 + props.len()) as u64
}

/// splitmix64: derives independent streams from one seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The vertex of Zipf rank `rank` (1-based, as `Zipf::sample` draws it) in
/// `community`. Ranks are spread over the community with the permutation
/// of `Zipf::sample_scrambled`, so hot vertices do not share pages.
fn place(community: u64, rank: u64) -> VertexId {
    let slot = (rank - 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) % COMMUNITY_SIZE;
    VertexId(community * COMMUNITY_SIZE + slot)
}

/// Draws edges of one type between Zipf-distributed endpoints of one
/// community, with per-edge properties (a timestamp; transfers also carry
/// an amount). Used for the preload and the pre-crash write tail.
struct EdgeSource {
    rng: StdRng,
    zipf: Zipf,
    etype: EdgeType,
    clock: u64,
}

impl EdgeSource {
    fn new(seed: u64, etype: EdgeType) -> Self {
        EdgeSource {
            rng: StdRng::seed_from_u64(seed),
            zipf: Zipf::new(COMMUNITY_SIZE, ZIPF_EXPONENT),
            etype,
            clock: 1_700_000_000,
        }
    }

    fn edge(&mut self) -> Edge {
        let c = self.rng.gen_range(0..COMMUNITIES);
        let src = place(c, self.zipf.sample(&mut self.rng));
        let mut dst = place(c, self.zipf.sample(&mut self.rng));
        if dst == src {
            dst = VertexId(c * COMMUNITY_SIZE + (src.0 + 1) % COMMUNITY_SIZE);
        }
        self.clock += 1;
        let mut props = self.clock.to_le_bytes().to_vec();
        if self.etype == EdgeType::TRANSFER {
            let amount: u64 = self.rng.gen_range(1..1_000_000);
            props.extend_from_slice(&amount.to_le_bytes());
        }
        Edge {
            src,
            etype: self.etype,
            dst,
            props,
        }
    }
}

/// The preload edges of `workload` under `seed`.
pub fn preload(workload: Workload, seed: u64) -> Vec<Edge> {
    let mut source = EdgeSource::new(mix(seed, 1), workload.etype());
    (0..PRELOAD_EDGES).map(|_| source.edge()).collect()
}

/// The op stream of `workload` under `seed`: the Table-1 generator's ops,
/// each placed into a community. Deterministic: two streams built from
/// the same arguments yield the same ops.
pub struct OpGen {
    mix: Box<dyn WorkloadGen>,
    rng: StdRng,
    /// Communities of the writes `FinancialRiskControl` has not yet read
    /// back, in its order: it queues each write and takes the oldest off
    /// the queue on every read, checking it 70% of the time.
    /// Kept only for Risk Control, the one mix with checks.
    pending: Option<VecDeque<(VertexId, VertexId, u64)>>,
    tail: EdgeSource,
}

impl OpGen {
    /// The op stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        OpGen {
            mix: workload.generator(mix(seed, 2)),
            rng: StdRng::seed_from_u64(mix(seed, 3)),
            pending: (workload == Workload::Risk).then(VecDeque::new),
            tail: EdgeSource::new(mix(seed, 4), workload.etype()),
        }
    }

    /// The next op of the mix.
    pub fn next_op(&mut self) -> Op {
        let c = self.rng.gen_range(0..COMMUNITIES);
        match self.mix.next_op() {
            Op::InsertEdge {
                src,
                etype,
                dst,
                props,
            } => {
                if let Some(pending) = self.pending.as_mut() {
                    pending.push_back((src, dst, c));
                }
                Op::InsertEdge {
                    src: place(c, src.0),
                    etype,
                    dst: place(c, dst.0),
                    props,
                }
            }
            Op::OneHop { src, etype, limit } => Op::OneHop {
                src: place(c, src.0),
                etype,
                limit,
            },
            Op::KHop {
                src,
                etype,
                hops,
                fanout,
            } => Op::KHop {
                src: place(c, src.0),
                etype,
                hops,
                fanout,
            },
            Op::CheckEdge { src, etype, dst } => {
                let (s, d, c) = self
                    .pending
                    .as_mut()
                    .and_then(VecDeque::pop_front)
                    .expect("a checked edge was written first");
                assert_eq!((s, d), (src, dst), "checks follow write order");
                Op::CheckEdge {
                    src: place(c, src.0),
                    etype,
                    dst: place(c, dst.0),
                }
            }
            Op::PatternCycle {
                anchor,
                etype,
                length,
            } => {
                if let Some(pending) = self.pending.as_mut() {
                    pending.pop_front();
                }
                Op::PatternCycle {
                    anchor: place(c, anchor.0),
                    etype,
                    length,
                }
            }
            other => panic!("no Table-1 mix emits {other:?}"),
        }
    }

    /// The next write of the pre-crash tail: an edge of the workload's
    /// type, drawn like the preload (Recommendation's mix has no writes).
    pub fn next_write(&mut self) -> Op {
        let edge = self.tail.edge();
        Op::InsertEdge {
            src: edge.src,
            etype: edge.etype,
            dst: edge.dst,
            props: edge.props,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for w in Workload::ALL {
            let a = preload(w, 7);
            assert_eq!(a, preload(w, 7));
            assert_ne!(a, preload(w, 8));
            let (mut g1, mut g2) = (OpGen::new(w, 7), OpGen::new(w, 7));
            for _ in 0..1_000 {
                assert_eq!(g1.next_op(), g2.next_op());
                assert_eq!(g1.next_write(), g2.next_write());
            }
        }
    }

    #[test]
    fn edges_stay_inside_one_community() {
        for e in preload(Workload::Risk, 3) {
            assert!(e.src.0 < USERS && e.dst.0 < USERS);
            assert_eq!(e.src.0 / COMMUNITY_SIZE, e.dst.0 / COMMUNITY_SIZE);
            assert_ne!(e.src, e.dst);
        }
        for w in Workload::ALL {
            let mut gen = OpGen::new(w, 3);
            for _ in 0..5_000 {
                let op = match gen.next_op() {
                    op @ Op::InsertEdge { .. } => op,
                    _ => gen.next_write(),
                };
                let e = edge_of(&op).unwrap();
                assert!(e.src.0 < USERS && e.dst.0 < USERS);
                assert_eq!(e.src.0 / COMMUNITY_SIZE, e.dst.0 / COMMUNITY_SIZE);
                assert_eq!(e.etype, w.etype());
            }
        }
    }

    #[test]
    fn risk_checks_read_back_the_write_before_them() {
        let mut gen = OpGen::new(Workload::Risk, 5);
        let mut last_write = None;
        let (mut checks, mut cycles) = (0, 0);
        for _ in 0..20_000 {
            match gen.next_op() {
                Op::InsertEdge { src, dst, .. } => last_write = Some((src, dst)),
                Op::CheckEdge { src, dst, .. } => {
                    assert_eq!(last_write.take(), Some((src, dst)));
                    checks += 1;
                }
                Op::PatternCycle { length, .. } => {
                    assert!((5..=10).contains(&length));
                    last_write = None;
                    cycles += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(checks + cycles, 10_000, "strict 50/50");
        let share = checks as f64 / 10_000.0;
        assert!((share - 0.7).abs() < 0.02, "check share {share}");
    }

    #[test]
    fn mixes_have_their_table1_shares() {
        let n = 20_000;
        for w in Workload::ALL {
            let mut gen = OpGen::new(w, 1);
            let ops: Vec<Op> = (0..n).map(|_| gen.next_op()).collect();
            let writes = ops.iter().filter(|o| o.is_write()).count() as f64 / n as f64;
            let want = match w {
                Workload::Follow => 0.01,
                Workload::Recommend => 0.0,
                Workload::Risk => 0.5,
            };
            assert!((writes - want).abs() < 0.005, "{w:?}: {writes}");
            assert!(ops.iter().all(|o| match o {
                Op::InsertEdge { etype, .. }
                | Op::OneHop { etype, .. }
                | Op::KHop { etype, .. }
                | Op::CheckEdge { etype, .. }
                | Op::PatternCycle { etype, .. } => *etype == w.etype(),
                Op::DeleteEdge { .. } => false,
            }));
        }
    }
}
