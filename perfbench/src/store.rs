//! Benchmark-side `GraphStore` decorator: times every call into the
//! engine's graph API and counts what it returns.

use crate::trace::{self, Name};
use bg3_graph::{Edge, EdgeType, GraphStore, NeighborSink, Vertex, VertexId};
use bg3_obs::Counter;
use bg3_storage::StorageResult;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Call counters kept by [`TracedStore`].
#[derive(Debug, Default)]
pub struct StoreCounters {
    /// `neighbors` calls.
    pub neighbors: AtomicU64,
    /// `neighbors_batch` calls.
    pub neighbors_batch: AtomicU64,
    /// Edges handed back by `neighbors` and `neighbors_batch`.
    pub edges_returned: AtomicU64,
    /// Inserts during which `mapping_publishes_total` rose: the ones that
    /// ran a group commit.
    pub group_commits: AtomicU64,
    /// Wall ns of those inserts.
    pub group_commit_ns: AtomicU64,
}

impl StoreCounters {
    /// Relaxed load of one counter.
    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }
}

/// Wraps the engine so that the query executor and the pattern matcher,
/// which take `&dyn GraphStore`, reach it through timed calls.
pub struct TracedStore<'a> {
    inner: &'a dyn GraphStore,
    /// The engine's `mapping_publishes_total` counter: an insert during
    /// which it rises ran a group commit.
    publishes: Counter,
    /// Counters of calls made through this decorator.
    pub counters: StoreCounters,
}

impl<'a> TracedStore<'a> {
    /// Decorates `inner`; `publishes` is its mapping-publish counter.
    pub fn new(inner: &'a dyn GraphStore, publishes: Counter) -> Self {
        TracedStore {
            inner,
            publishes,
            counters: StoreCounters::default(),
        }
    }
}

fn bump(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

struct CountingSink<'s> {
    inner: &'s mut dyn NeighborSink,
    edges: u64,
}

impl NeighborSink for CountingSink<'_> {
    fn visit(&mut self, src_idx: usize, dst: VertexId, props: &[u8]) -> bool {
        self.edges += 1;
        self.inner.visit(src_idx, dst, props)
    }
}

impl GraphStore for TracedStore<'_> {
    fn insert_edge(&self, edge: &Edge) -> StorageResult<()> {
        let before = self.publishes.get();
        let started = Instant::now();
        let _span = trace::enter(Name::InsertEdge);
        let result = self.inner.insert_edge(edge);
        if self.publishes.get() > before {
            bump(&self.counters.group_commits, 1);
            bump(
                &self.counters.group_commit_ns,
                started.elapsed().as_nanos() as u64,
            );
        }
        result
    }

    fn get_edge(
        &self,
        src: VertexId,
        etype: EdgeType,
        dst: VertexId,
    ) -> StorageResult<Option<Vec<u8>>> {
        let _span = trace::enter(Name::GetEdge);
        self.inner.get_edge(src, etype, dst)
    }

    fn delete_edge(&self, src: VertexId, etype: EdgeType, dst: VertexId) -> StorageResult<()> {
        self.inner.delete_edge(src, etype, dst)
    }

    fn neighbors(
        &self,
        src: VertexId,
        etype: EdgeType,
        limit: usize,
    ) -> StorageResult<Vec<(VertexId, Vec<u8>)>> {
        bump(&self.counters.neighbors, 1);
        let _span = trace::enter(Name::Neighbors);
        let out = self.inner.neighbors(src, etype, limit)?;
        bump(&self.counters.edges_returned, out.len() as u64);
        Ok(out)
    }

    fn neighbors_batch(
        &self,
        srcs: &[VertexId],
        etype: EdgeType,
        per_src_limit: usize,
        sink: &mut dyn NeighborSink,
    ) -> StorageResult<()> {
        bump(&self.counters.neighbors_batch, 1);
        let _span = trace::enter(Name::NeighborsBatch);
        let mut counting = CountingSink {
            inner: sink,
            edges: 0,
        };
        let result = self
            .inner
            .neighbors_batch(srcs, etype, per_src_limit, &mut counting);
        bump(&self.counters.edges_returned, counting.edges);
        result
    }

    fn insert_vertex(&self, vertex: &Vertex) -> StorageResult<()> {
        self.inner.insert_vertex(vertex)
    }

    fn get_vertex(&self, id: VertexId) -> StorageResult<Option<Vec<u8>>> {
        self.inner.get_vertex(id)
    }
}
