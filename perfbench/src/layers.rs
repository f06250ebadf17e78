//! Per-layer metrics of the traced run, named after the crates.
//!
//! Times come from the spans the benchmark recorded around each layer's
//! public calls; counts come from the engine's own counters and the
//! decorators, read before and after the measured phase.

use crate::backend::DeviceSnapshot;
use crate::run::{Engine, Phase, Restart};
use crate::store::{StoreCounters, TracedStore};
use crate::trace::{self, Name, Span, NO_PARENT};
use crate::Metric;
use bg3_obs::names;
use std::collections::BTreeMap;

/// Counters read at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    appends: u64,
    bytes_appended: u64,
    scan_bytes: u64,
    csr_segments: u64,
    publishes: u64,
    device: DeviceSnapshot,
    base_flushes: u64,
    delta_flushes: u64,
    delta_merges: u64,
    consolidations: u64,
    splits: u64,
    split_outs: u64,
    dedicated_trees: u64,
    forest_memory: u64,
    neighbors: u64,
    neighbors_batch: u64,
    edges_returned: u64,
    group_commits: u64,
    group_commit_ns: u64,
}

impl Counters {
    /// Reads every counter of `engine` and of its decorator `store`.
    pub fn capture(engine: &Engine, store: &TracedStore<'_>) -> Counters {
        let snap = engine.db.store().metrics_snapshot();
        let counter = |name| snap.counter(name).unwrap_or(0);
        let forest = engine.db.forest();
        let mut c = Counters {
            appends: counter(names::STORAGE_APPENDS_TOTAL),
            bytes_appended: counter(names::STORAGE_BYTES_APPENDED_TOTAL),
            scan_bytes: counter(names::QUERY_SCAN_BYTES_TOTAL),
            csr_segments: counter(names::QUERY_CSR_SEGMENTS_SCANNED_TOTAL),
            publishes: engine.publishes().get(),
            device: engine.backend.counters(),
            split_outs: forest.stats().threshold_split_outs,
            dedicated_trees: forest.stats().dedicated_trees,
            forest_memory: forest.memory_footprint() as u64,
            neighbors: StoreCounters::get(&store.counters.neighbors),
            neighbors_batch: StoreCounters::get(&store.counters.neighbors_batch),
            edges_returned: StoreCounters::get(&store.counters.edges_returned),
            group_commits: StoreCounters::get(&store.counters.group_commits),
            group_commit_ns: StoreCounters::get(&store.counters.group_commit_ns),
            ..Counters::default()
        };
        for tree in forest.all_trees() {
            let s = tree.stats().snapshot();
            c.base_flushes += s.base_flushes;
            c.delta_flushes += s.delta_flushes;
            c.delta_merges += s.delta_merges;
            c.consolidations += s.consolidations;
            c.splits += s.splits;
        }
        c
    }
}

/// Per-name span totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of their durations, ns.
    pub busy_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
    /// Spans of the `bg3-core` API opened directly under these.
    pub store_calls: u64,
}

/// Folds spans into per-name totals as they are taken from the log, and
/// keeps the first spans as a sample to write out.
#[derive(Debug, Default)]
pub struct SpanFold {
    /// Totals per span name.
    pub by_name: BTreeMap<Name, Totals>,
    /// Self time per layer; the root ops' self time is `unattributed`.
    pub by_layer: BTreeMap<&'static str, u64>,
    /// Summed duration of the root spans: the ops' wall time.
    pub op_wall_ns: u64,
    /// Root spans whose tree's self times do not add up to the root's
    /// duration. Zero unless spans were mis-nested.
    pub unbalanced_ops: u64,
    /// The first spans seen, parent indices rebased onto this vector.
    pub sample: Vec<Span>,
    sample_limit: usize,
}

impl SpanFold {
    /// A fold that keeps up to `sample_limit` spans.
    pub fn new(sample_limit: usize) -> Self {
        SpanFold {
            sample_limit,
            ..SpanFold::default()
        }
    }

    /// Absorbs a batch of whole span trees (no span open across batches).
    pub fn absorb(&mut self, spans: &[Span]) {
        let selfs = trace::self_times(spans);
        let mut tree_self = vec![0u64; spans.len()];
        for (i, (span, &own)) in spans.iter().zip(&selfs).enumerate().rev() {
            // Children follow their parent, so walking backwards finishes
            // each subtree before its root is read.
            tree_self[i] += own;
            if span.parent == NO_PARENT {
                self.op_wall_ns += span.duration();
                if tree_self[i] != span.duration() {
                    self.unbalanced_ops += 1;
                }
            } else {
                let p = span.parent as usize;
                tree_self[p] += tree_self[i];
                if span.name.layer() == "bg3-core" {
                    self.by_name.entry(spans[p].name).or_default().store_calls += 1;
                }
            }
            let t = self.by_name.entry(span.name).or_default();
            t.calls += 1;
            t.busy_ns += span.duration();
            t.self_ns += own;
            *self.by_layer.entry(span.name.layer()).or_insert(0) += own;
        }
        let room = self.sample_limit.saturating_sub(self.sample.len());
        let base = self.sample.len() as u32;
        self.sample.extend(spans.iter().take(room).map(|s| Span {
            parent: if s.parent == NO_PARENT {
                NO_PARENT
            } else {
                s.parent + base
            },
            ..*s
        }));
    }

    /// Totals of one span name.
    pub fn get(&self, name: Name) -> Totals {
        self.by_name.get(&name).copied().unwrap_or_default()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Everything [`derive`] reads.
pub struct Inputs<'a> {
    /// Counters before the measured phase.
    pub before: Counters,
    /// Counters after it.
    pub after: Counters,
    /// The traced measured phase.
    pub phase: &'a Phase,
    /// Its spans, folded.
    pub spans: &'a SpanFold,
    /// Throughput of the untraced run of the same ops.
    pub untraced_throughput: f64,
    /// Store used bytes at the end of the phase.
    pub used_bytes: u64,
    /// Store valid bytes at the end of the phase.
    pub valid_bytes: u64,
}

/// The per-layer metrics of the measured phase, in report order.
pub fn derive(i: &Inputs<'_>) -> Vec<Metric> {
    let get = |n: Name| i.spans.get(n);
    let (b, a) = (&i.before, &i.after);
    let d = a.device.since(&b.device);
    let (query, pattern) = (get(Name::Query), get(Name::Pattern));
    let (nb, nbb) = (get(Name::Neighbors), get(Name::NeighborsBatch));
    let (get_edge, insert) = (get(Name::GetEdge), get(Name::InsertEdge));
    let gc = get(Name::Gc);
    let backend_ns: u64 = [
        Name::StoreWrite,
        Name::StoreRead,
        Name::StoreSync,
        Name::StoreMeta,
    ]
    .iter()
    .map(|&n| get(n).busy_ns)
    .sum();
    let edges = a.edges_returned - b.edges_returned;
    let scans = (a.neighbors - b.neighbors) + (a.neighbors_batch - b.neighbors_batch);
    let traced_throughput = i.phase.throughput();
    let g = &i.phase.gc;

    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("query.calls", query.calls as f64, "count"),
        m("query.busy_us", us(query.busy_ns), "us"),
        m("query.self_us", us(query.self_ns), "us"),
        m(
            "query.store_calls_per_query",
            ratio(query.store_calls, query.calls),
            "ratio",
        ),
        m(
            "query.edges_per_result",
            ratio(i.phase.query_edges, i.phase.query_results),
            "ratio",
        ),
        m("graph.pattern_calls", pattern.calls as f64, "count"),
        m("graph.pattern_busy_us", us(pattern.busy_ns), "us"),
        m("graph.pattern_self_us", us(pattern.self_ns), "us"),
        m(
            "graph.store_calls_per_pattern",
            ratio(pattern.store_calls, pattern.calls),
            "ratio",
        ),
        m("core.neighbors_calls", nb.calls as f64, "count"),
        m("core.neighbors_us", us(nb.busy_ns), "us"),
        m("core.neighbors_batch_calls", nbb.calls as f64, "count"),
        m("core.neighbors_batch_us", us(nbb.busy_ns), "us"),
        m("core.get_edge_us", us(get_edge.busy_ns), "us"),
        m("core.insert_edge_us", us(insert.busy_ns), "us"),
        m("core.insert_edge_self_us", us(insert.self_ns), "us"),
        m(
            "core.group_commits",
            (a.group_commits - b.group_commits) as f64,
            "count",
        ),
        m(
            "core.group_commit_us",
            us(a.group_commit_ns - b.group_commit_ns),
            "us",
        ),
        m("core.edges_returned", edges as f64, "count"),
        m(
            "forest.split_outs",
            (a.split_outs - b.split_outs) as f64,
            "count",
        ),
        m("forest.dedicated_trees", a.dedicated_trees as f64, "count"),
        m("forest.memory_bytes", a.forest_memory as f64, "bytes"),
        m(
            "bwtree.scan_bytes_per_edge",
            ratio(a.scan_bytes - b.scan_bytes, edges),
            "bytes/edge",
        ),
        m(
            "bwtree.csr_segments_per_scan",
            ratio(a.csr_segments - b.csr_segments, scans),
            "ratio",
        ),
        m(
            "bwtree.base_flushes",
            (a.base_flushes - b.base_flushes) as f64,
            "count",
        ),
        m(
            "bwtree.delta_flushes",
            (a.delta_flushes - b.delta_flushes) as f64,
            "count",
        ),
        m(
            "bwtree.delta_merges",
            (a.delta_merges - b.delta_merges) as f64,
            "count",
        ),
        m(
            "bwtree.consolidations",
            (a.consolidations - b.consolidations) as f64,
            "count",
        ),
        m("bwtree.splits", (a.splits - b.splits) as f64, "count"),
        m("wal.writes", d.wal_writes as f64, "count"),
        m("wal.bytes", d.wal_bytes as f64, "bytes"),
        m("wal.syncs", d.wal_syncs as f64, "count"),
        m("wal.sync_us", us(get(Name::WalSync).busy_ns), "us"),
        m(
            "wal.syncs_per_write",
            ratio(d.wal_syncs, d.wal_writes),
            "ratio",
        ),
        m("storage.appends", (a.appends - b.appends) as f64, "count"),
        m(
            "storage.bytes_appended",
            (a.bytes_appended - b.bytes_appended) as f64,
            "bytes",
        ),
        m(
            "storage.mapping_publishes",
            (a.publishes - b.publishes) as f64,
            "count",
        ),
        m("storage.backend_us", us(backend_ns), "us"),
        m(
            "storage.backend_write_bytes.base",
            d.base_bytes as f64,
            "bytes",
        ),
        m(
            "storage.backend_write_bytes.delta",
            d.delta_bytes as f64,
            "bytes",
        ),
        m("storage.backend_reads", d.reads as f64, "count"),
        m(
            "storage.backend_read_us",
            us(get(Name::StoreRead).busy_ns),
            "us",
        ),
        m("storage.used_bytes", i.used_bytes as f64, "bytes"),
        m("storage.valid_bytes", i.valid_bytes as f64, "bytes"),
        m("gc.calls", gc.calls as f64, "count"),
        m("gc.busy_us", us(gc.busy_ns), "us"),
        m("gc.moved_bytes", g.moved_bytes as f64, "bytes"),
        m("gc.reclaimed_extents", g.reclaimed_extents as f64, "count"),
        m(
            "gc.moved_per_freed_byte",
            ratio(g.moved_bytes, g.freed_bytes),
            "ratio",
        ),
        m(
            "trace.overhead_pct",
            (i.untraced_throughput / traced_throughput - 1.0) * 100.0,
            "%",
        ),
        m(
            "trace.unattributed_pct",
            ratio(get(Name::Op).self_ns, i.spans.op_wall_ns) * 100.0,
            "%",
        ),
    ]
}

/// The metrics of the restarts. `bg3-sync`: mean wall time of each entry
/// call per restart, device bytes one restart read, and the unsynced bytes
/// the crash discarded. `bg3-cache`: page-cache counts per restart during
/// `Bg3Db::recover`, which reads the mapped page images and the WAL
/// records it replays through the cache. The measured phase does not reach the cache: every
/// page image stays in memory (`read_cache`) and GC relocation reads
/// bypass it.
pub fn restart(restart: &Restart, spans: &SpanFold) -> Vec<Metric> {
    let mean_us = |n: Name| {
        let t = spans.get(n);
        us(t.busy_ns) / t.calls.max(1) as f64
    };
    let reps = restart.recover_ns.len().max(1) as f64;
    let (hits, misses) = (restart.cache_hits, restart.cache_misses);
    vec![
        Metric {
            name: "cache.hits",
            value: hits as f64 / reps,
            unit: "count",
        },
        Metric {
            name: "cache.misses",
            value: misses as f64 / reps,
            unit: "count",
        },
        Metric {
            name: "cache.evictions",
            value: restart.cache_evictions as f64 / reps,
            unit: "count",
        },
        Metric {
            name: "cache.hit_ratio",
            value: ratio(hits, hits + misses),
            unit: "ratio",
        },
        Metric {
            name: "sync.store_open_us",
            value: mean_us(Name::StoreOpen),
            unit: "us",
        },
        Metric {
            name: "sync.recover_us",
            value: mean_us(Name::Recover),
            unit: "us",
        },
        Metric {
            name: "sync.read_bytes",
            value: restart.read_bytes as f64,
            unit: "bytes",
        },
        Metric {
            name: "sync.discarded_bytes",
            value: restart.discarded_bytes as f64,
            unit: "bytes",
        },
    ]
}
