//! The pieces of one run: engine set-up, the closed-loop client, answer
//! checking against `MemGraph`, and the restart from synced bytes.

use crate::affinity::CpuRotation;
use crate::backend::RecordingBackend;
use crate::layers::SpanFold;
use crate::store::TracedStore;
use crate::trace::{self, Name};
use crate::workload::{self, OpGen, Workload, USERS};
use bg3_core::{Bg3Config, Bg3Db};
use bg3_graph::{CycleQuery, Edge, EdgeType, GraphStore, MemGraph, PatternMatcher, VertexId};
use bg3_obs::{names, Counter};
use bg3_query::{Executor, ExecutorConfig, QueryResult};
use bg3_storage::{StorageError, StoreBuilder};
use bg3_workloads::Op;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Restarts per run; `recover_s` is their median.
pub const RECOVER_REPS: usize = 5;
/// Ops run before measuring, so lazy state is built and caches are warm.
pub const WARMUP_OPS: u64 = 10_000;
/// Ops generated, run and then checked at a time. Generation and checks
/// happen outside the timed region.
pub const CHUNK_OPS: usize = 256;
/// Acknowledged writes between two scheduled GC calls.
pub const GC_EVERY_WRITES: u64 = 500;
/// Page-stream utilization each GC call reclaims up to.
pub const GC_TARGET_UTILIZATION: f64 = 0.75;
/// Extents per stream per GC cycle.
pub const GC_EXTENTS_PER_CYCLE: usize = 4;
/// Writes issued after the measured phase and before the crash.
pub const TAIL_WRITES: u64 = 2_000;

/// The flush policy every run uses: durable mode with the defaults — WAL
/// synced on every append, group commit at 16 dirty pages, split-out at
/// 64 edges, every page image kept in memory (`read_cache`).
pub fn engine_config() -> Bg3Config {
    Bg3Config::default().with_durability()
}

/// Risk Control's cycle check: the same caps the repository's Table-1
/// experiments use, so a check is bounded work.
pub fn cycle_matcher() -> PatternMatcher {
    PatternMatcher {
        candidate_cap: 8,
        max_matches: 1,
        max_expansions: 2_000,
    }
}

/// The Recommendation executor for one op: batched mode, with the op's
/// per-vertex fan-out (`limit` of a one-hop op, `fanout` of a k-hop op).
/// The executor is a plain value, so building one per op costs nothing
/// measurable.
pub fn executor(fanout: usize) -> Executor {
    Executor::new(ExecutorConfig {
        default_fanout: fanout,
        ..ExecutorConfig::default()
    })
}

/// A durable engine over the recording backend.
pub struct Engine {
    /// The engine.
    pub db: Bg3Db,
    /// Its device.
    pub backend: Arc<RecordingBackend>,
}

impl Engine {
    /// Opens an empty engine.
    pub fn open() -> Result<Engine, StorageError> {
        let backend = Arc::new(RecordingBackend::new());
        let config = engine_config();
        let store = StoreBuilder::from_config(config.store.clone())
            .backend(backend.clone())
            .open()?;
        Ok(Engine {
            db: Bg3Db::with_store(store, config),
            backend,
        })
    }

    /// Opens an engine, preloads it, checkpoints, and runs one GC pass.
    pub fn setup(preload: &[Edge]) -> Result<(Engine, Setup), StorageError> {
        let mut cpus = CpuRotation::new();
        let started = Instant::now();
        let engine = Engine::open()?;
        let mut insert_ns = Vec::with_capacity(preload.len());
        for (i, edge) in preload.iter().enumerate() {
            if i % CHUNK_OPS == 0 {
                cpus.step();
            }
            let t0 = Instant::now();
            engine.db.insert_edge(edge)?;
            insert_ns.push(t0.elapsed().as_nanos() as u64);
        }
        engine.db.checkpoint()?;
        engine
            .db
            .reclaim_to_utilization(GC_TARGET_UTILIZATION, GC_EXTENTS_PER_CYCLE)?;
        let seconds = started.elapsed().as_secs_f64();
        Ok((engine, Setup { seconds, insert_ns }))
    }

    /// A data-plane counter of the engine's store.
    pub fn counter(&self, name: &str) -> u64 {
        self.db
            .store()
            .metrics_snapshot()
            .counter(name)
            .unwrap_or(0)
    }

    /// The engine's `mapping_publishes_total` counter handle.
    pub fn publishes(&self) -> Counter {
        self.db
            .mapping()
            .expect("durable engines own a mapping table")
            .stats()
            .registry()
            .counter(names::MAPPING_PUBLISHES_TOTAL)
    }
}

/// What one set-up measured.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Wall seconds from opening the engine to the end of the GC pass.
    pub seconds: f64,
    /// Wall ns of each preload insert.
    pub insert_ns: Vec<u64>,
}

/// A read's answer, or a write's acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// The write was acknowledged.
    Ack,
    /// One-hop neighbors with their properties.
    Neighbors(Vec<(VertexId, Vec<u8>)>),
    /// k-hop `dedup().count()`.
    Count(u64),
    /// `get_edge` result.
    Edge(Option<Vec<u8>>),
    /// Cycle verdict.
    Cycle(bool),
}

/// A `dedup().count()` of the vertices `hops` hops out of `src`, through
/// the executor.
fn count_hops(
    store: &dyn GraphStore,
    src: VertexId,
    etype: EdgeType,
    hops: usize,
    fanout: usize,
) -> Result<Answer, String> {
    if etype != EdgeType::FOLLOW {
        return Err(format!("k-hop counts follow FOLLOW edges, not {etype:?}"));
    }
    let text = format!("g.V({}).repeat(out(follow), {hops}).dedup().count()", src.0);
    let exec = executor(fanout);
    let _span = trace::enter(Name::Query);
    match exec.run_text(store, &text) {
        Ok(QueryResult::Count(n)) => Ok(Answer::Count(n)),
        Ok(other) => Err(format!("k-hop count returned {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Runs `op` of workload `w` against `store`. Follow's one-hop reads call
/// `neighbors` directly; Recommendation sends its one-hop and k-hop reads
/// through the executor. The query and pattern calls open their own spans
/// (the benchmark calls those layers directly); the store calls are
/// spanned by [`TracedStore`] when it is the store.
pub fn execute(store: &dyn GraphStore, w: Workload, op: &Op) -> Result<Answer, String> {
    let err = |e: StorageError| e.to_string();
    match op {
        Op::InsertEdge { .. } => {
            let edge = workload::edge_of(op).expect("an insert carries an edge");
            store.insert_edge(&edge).map(|()| Answer::Ack).map_err(err)
        }
        Op::OneHop { src, etype, limit } if w == Workload::Recommend => {
            count_hops(store, *src, *etype, 1, *limit)
        }
        Op::OneHop { src, etype, limit } => store
            .neighbors(*src, *etype, *limit)
            .map(Answer::Neighbors)
            .map_err(err),
        Op::KHop {
            src,
            etype,
            hops,
            fanout,
        } => count_hops(store, *src, *etype, *hops, *fanout),
        Op::CheckEdge { src, etype, dst } => store
            .get_edge(*src, *etype, *dst)
            .map(Answer::Edge)
            .map_err(err),
        Op::PatternCycle {
            anchor,
            etype,
            length,
        } => {
            let _span = trace::enter(Name::Pattern);
            let query = CycleQuery {
                etype: *etype,
                length: *length,
            };
            cycle_matcher()
                .has_cycle(store, query, *anchor)
                .map(Answer::Cycle)
                .map_err(err)
        }
        Op::DeleteEdge { .. } => Err("no Table-1 mix deletes edges".to_string()),
    }
}

/// The reference: `MemGraph` fed the same acknowledged writes, queried
/// through the same executor and matcher.
pub struct Oracle {
    graph: MemGraph,
    workload: Workload,
    live_bytes: Cell<u64>,
    /// Reference answers since the last write. Recommendation never
    /// writes, so its repeated queries are answered once.
    answers: RefCell<HashMap<(u8, u64, u64), Answer>>,
}

/// Identity of a read op within one workload; `None` for writes.
fn read_key(op: &Op) -> Option<(u8, u64, u64)> {
    match *op {
        Op::OneHop { src, limit, .. } => Some((0, src.0, limit as u64)),
        Op::KHop {
            src, hops, fanout, ..
        } => Some((1, src.0, (hops as u64) << 32 | fanout as u64)),
        Op::CheckEdge { src, dst, .. } => Some((2, src.0, dst.0)),
        Op::PatternCycle { anchor, length, .. } => Some((3, anchor.0, length as u64)),
        Op::InsertEdge { .. } | Op::DeleteEdge { .. } => None,
    }
}

impl Oracle {
    /// A reference holding `preload`.
    pub fn new(workload: Workload, preload: &[Edge]) -> Self {
        let oracle = Oracle {
            graph: MemGraph::new(),
            workload,
            live_bytes: Cell::new(0),
            answers: RefCell::new(HashMap::new()),
        };
        for edge in preload {
            oracle.apply(edge);
        }
        oracle
    }

    fn apply(&self, edge: &Edge) {
        let old = self
            .graph
            .get_edge(edge.src, edge.etype, edge.dst)
            .expect("MemGraph reads cannot fail");
        let live = self.live_bytes.get() + workload::user_bytes(&edge.props)
            - old.map_or(0, |props| workload::user_bytes(&props));
        self.live_bytes.set(live);
        self.answers.borrow_mut().clear();
        self.graph
            .insert_edge(edge)
            .expect("MemGraph inserts cannot fail");
    }

    /// User bytes of every edge live now: src, etype, dst and props as the
    /// client last sent them.
    pub fn live_user_bytes(&self) -> u64 {
        self.live_bytes.get()
    }

    /// Applies an acknowledged write, or checks a read's answer. Returns
    /// whether the engine's answer is the reference's.
    pub fn check(&self, op: &Op, answer: &Answer) -> bool {
        let Some(key) = read_key(op) else {
            if let Some(edge) = workload::edge_of(op) {
                self.apply(&edge);
            }
            return *answer == Answer::Ack;
        };
        if let Some(want) = self.answers.borrow().get(&key) {
            return want == answer;
        }
        match execute(&self.graph, self.workload, op) {
            Ok(want) => {
                let same = want == *answer;
                self.answers.borrow_mut().insert(key, want);
                same
            }
            Err(_) => false,
        }
    }

    /// Every acknowledged edge, in key order.
    pub fn for_each_edge(&self, mut f: impl FnMut(VertexId, VertexId, &[u8])) {
        for src in 0..USERS {
            let src = VertexId(src);
            for (dst, props) in self
                .graph
                .neighbors(src, self.workload.etype(), usize::MAX)
                .expect("MemGraph reads cannot fail")
            {
                f(src, dst, &props);
            }
        }
    }
}

/// When a phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much timed wall time.
    Seconds(f64),
    /// After this many ops.
    Ops(u64),
}

/// Totals of the scheduled GC calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcTotals {
    /// Calls made.
    pub calls: u64,
    /// Wall ns inside the calls.
    pub ns: u64,
    /// Bytes relocated.
    pub moved_bytes: u64,
    /// Extents relocated or expired.
    pub reclaimed_extents: u64,
    /// Net drop in store used bytes across the calls.
    pub freed_bytes: u64,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Ops attempted.
    pub ops: u64,
    /// Ops that returned an error.
    pub errors: u64,
    /// Answers that differ from the reference.
    pub wrong: u64,
    /// Per-read wall ns.
    pub read_ns: Vec<u64>,
    /// Per-acknowledged-write wall ns.
    pub write_ns: Vec<u64>,
    /// Timed wall ns: every op and scheduled GC call, without generation
    /// or checks.
    pub wall_ns: u64,
    /// User bytes of acknowledged writes.
    pub user_bytes: u64,
    /// Scheduled GC calls.
    pub gc: GcTotals,
    /// Sum of k-hop counts returned (traced runs).
    pub query_results: u64,
    /// Edges the store returned inside k-hop queries (traced runs).
    pub query_edges: u64,
    /// Store used bytes over live user bytes, summed over chunk ends.
    space_amp_sum: f64,
    /// Chunk ends sampled into `space_amp_sum`.
    space_amp_samples: u64,
}

impl Phase {
    /// Completed ops per timed second.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Store used bytes over live user bytes, averaged over the phase's
    /// chunk ends. Garbage grows between GC calls and drops at each, so a
    /// single reading at the end would mostly measure where the run
    /// stopped in that cycle.
    pub fn space_amp(&self) -> f64 {
        self.space_amp_sum / self.space_amp_samples as f64
    }
}

/// One closed-loop client: it sends the next op only after the previous
/// one returned.
pub struct Client<'a> {
    engine: &'a Engine,
    traced: Option<&'a TracedStore<'a>>,
    oracle: &'a Oracle,
    workload: Workload,
    writes_since_gc: u64,
    next_op: u64,
    cpus: CpuRotation,
    /// Where spans go at each chunk boundary while a log is installed.
    pub fold: Option<SpanFold>,
}

impl<'a> Client<'a> {
    /// A client of `engine`, calling through `traced` when given.
    pub fn new(
        engine: &'a Engine,
        traced: Option<&'a TracedStore<'a>>,
        oracle: &'a Oracle,
    ) -> Self {
        Client {
            engine,
            traced,
            oracle,
            workload: oracle.workload,
            writes_since_gc: 0,
            next_op: 0,
            cpus: CpuRotation::new(),
            fold: None,
        }
    }

    /// Runs ops drawn by `next` until `stop`.
    pub fn run(&mut self, gen: &mut OpGen, next: fn(&mut OpGen) -> Op, stop: Stop) -> Phase {
        let store: &dyn GraphStore = match self.traced {
            Some(traced) => traced,
            None => &self.engine.db,
        };
        let mut phase = Phase::default();
        let mut chunk = Vec::with_capacity(CHUNK_OPS);
        let mut answers = Vec::with_capacity(CHUNK_OPS);
        loop {
            let n = match stop {
                Stop::Seconds(s) if phase.wall_ns as f64 >= s * 1e9 => break,
                Stop::Seconds(_) => CHUNK_OPS,
                Stop::Ops(n) if phase.ops >= n => break,
                Stop::Ops(n) => CHUNK_OPS.min((n - phase.ops) as usize),
            };
            self.cpus.step();
            chunk.clear();
            chunk.extend((0..n).map(|_| next(gen)));
            let started = Instant::now();
            for op in &chunk {
                trace::set_op(self.next_op);
                self.next_op += 1;
                let edges_before = self.query_edges();
                let t0 = Instant::now();
                let answer = {
                    let _root = trace::enter(Name::Op);
                    execute(store, self.workload, op)
                };
                let ns = t0.elapsed().as_nanos() as u64;
                if let Ok(Answer::Count(n)) = &answer {
                    phase.query_results += n;
                    phase.query_edges += self.query_edges() - edges_before;
                }
                if op.is_write() && answer.is_ok() {
                    phase.write_ns.push(ns);
                    self.writes_since_gc += 1;
                    if self.writes_since_gc >= GC_EVERY_WRITES {
                        self.writes_since_gc = 0;
                        if self.gc(&mut phase.gc).is_err() {
                            phase.errors += 1;
                        }
                    }
                } else if !op.is_write() {
                    phase.read_ns.push(ns);
                }
                answers.push(answer);
            }
            phase.wall_ns += started.elapsed().as_nanos() as u64;
            let mut paused = trace::suspend();
            if let Some(fold) = self.fold.as_mut() {
                fold.absorb(&paused.take_spans());
            }
            for (op, answer) in chunk.iter().zip(answers.drain(..)) {
                match answer {
                    Ok(answer) => {
                        if !self.oracle.check(op, &answer) {
                            phase.wrong += 1;
                        } else if let Op::InsertEdge { props, .. } = op {
                            phase.user_bytes += workload::user_bytes(props);
                        }
                    }
                    Err(_) => phase.errors += 1,
                }
            }
            trace::resume(paused);
            phase.ops += n as u64;
            phase.space_amp_sum += self.engine.db.store().total_used_bytes() as f64
                / self.oracle.live_user_bytes() as f64;
            phase.space_amp_samples += 1;
        }
        self.cpus.release();
        phase
    }

    fn query_edges(&self) -> u64 {
        self.traced.map_or(0, |t| {
            crate::store::StoreCounters::get(&t.counters.edges_returned)
        })
    }

    /// One scheduled GC call, timed as its own op.
    fn gc(&mut self, totals: &mut GcTotals) -> Result<(), StorageError> {
        let store = self.engine.db.store();
        let used_before = store.total_used_bytes();
        trace::set_op(self.next_op);
        self.next_op += 1;
        let t0 = Instant::now();
        let report = {
            let _root = trace::enter(Name::Op);
            let _gc = trace::enter(Name::Gc);
            self.engine
                .db
                .reclaim_to_utilization(GC_TARGET_UTILIZATION, GC_EXTENTS_PER_CYCLE)
        };
        totals.ns += t0.elapsed().as_nanos() as u64;
        let report = report?;
        totals.calls += 1;
        totals.moved_bytes += report.moved_bytes;
        totals.reclaimed_extents += report.relocated_extents + report.expired_extents;
        totals.freed_bytes += used_before.saturating_sub(store.total_used_bytes());
        Ok(())
    }

    /// The op id the next op will carry.
    pub fn next_op_id(&self) -> u64 {
        self.next_op
    }
}

/// What the restart measured.
#[derive(Debug, Default)]
pub struct Restart {
    /// Wall ns of each `StoreBuilder::open`.
    pub open_ns: Vec<u64>,
    /// Wall ns of each `Bg3Db::recover`.
    pub recover_ns: Vec<u64>,
    /// Device bytes one restart read.
    pub read_bytes: u64,
    /// Unsynced bytes the crash discarded.
    pub discarded_bytes: u64,
    /// Acknowledged edges checked after the restart.
    pub checked: u64,
    /// Acknowledged edges missing or stale after the restart.
    pub lost: u64,
    /// Page-cache lookups served from memory during `Bg3Db::recover`,
    /// summed over the restarts.
    pub cache_hits: u64,
    /// Page-cache lookups that fell through to the device, summed.
    pub cache_misses: u64,
    /// Pages the page cache displaced, summed.
    pub cache_evictions: u64,
}

/// Crashes `engine` — everything in memory is gone and the device keeps
/// only what was synced — then restarts [`RECOVER_REPS`] times from the
/// surviving bytes and the surviving mapping table, and checks that every
/// acknowledged write reads back with its last acknowledged value.
/// `first_op` numbers the restart spans.
pub fn crash_and_restart(
    engine: Engine,
    oracle: &Oracle,
    first_op: u64,
) -> Result<Restart, StorageError> {
    let mapping = engine
        .db
        .mapping()
        .expect("durable engines own a mapping table")
        .clone();
    let mut restart = Restart {
        discarded_bytes: engine.backend.unsynced_bytes(),
        ..Restart::default()
    };
    let disk = engine.backend.surviving_copy()?;
    drop(engine);
    let config = engine_config();
    let mut recovered = None;
    let mut cpus = CpuRotation::new();
    for rep in 0..RECOVER_REPS as u64 {
        drop(recovered.take());
        let device = Arc::new(disk.surviving_copy()?);
        cpus.step();
        trace::set_op(first_op + rep);
        let _root = trace::enter(Name::Op);
        let t0 = Instant::now();
        let store = {
            let _span = trace::enter(Name::StoreOpen);
            StoreBuilder::from_config(config.store.clone())
                .backend(device.clone())
                .open()?
        };
        let cache_before = store.cache_stats();
        let t1 = Instant::now();
        let db = {
            let _span = trace::enter(Name::Recover);
            Bg3Db::recover(store, mapping.clone(), config.clone())?
        };
        restart.recover_ns.push(t1.elapsed().as_nanos() as u64);
        restart.open_ns.push((t1 - t0).as_nanos() as u64);
        let cache = db.store().cache_stats();
        restart.cache_hits += cache.hits - cache_before.hits;
        restart.cache_misses += cache.misses - cache_before.misses;
        restart.cache_evictions += cache.evictions - cache_before.evictions;
        restart.read_bytes = device.counters().read_bytes;
        recovered = Some(db);
    }
    drop(cpus);
    let db = recovered.expect("at least one restart");
    let paused = trace::suspend();
    oracle.for_each_edge(|src, dst, props| {
        restart.checked += 1;
        // A read error counts as a lost write, like a wrong value.
        if !matches!(db.get_edge(src, oracle.workload.etype(), dst), Ok(Some(got)) if got == props)
        {
            restart.lost += 1;
        }
    });
    trace::resume(paused);
    Ok(restart)
}
