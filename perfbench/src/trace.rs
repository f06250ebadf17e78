//! Benchmark-side span recorder.
//!
//! Spans are recorded around the public calls into each layer (see
//! `store.rs` and `backend.rs`), never inside the engine. The engine runs
//! every call on the client thread, so a thread-local log with a parent
//! stack is enough: each span knows the span that caused it and the client
//! op it belongs to. When no log is installed, [`enter`] costs one
//! thread-local check and records nothing — that is the untraced run.

use std::cell::RefCell;
use std::io::{self, Write};
use std::time::Instant;

/// Span names, one per timed boundary. [`Name::layer`] maps each onto the
/// crate that owns the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Name {
    /// One client op (or one scheduled GC call): the root of a span tree.
    Op,
    /// `Executor::run_text`.
    Query,
    /// `PatternMatcher::has_cycle`.
    Pattern,
    /// `GraphStore::neighbors` on the engine.
    Neighbors,
    /// `GraphStore::neighbors_batch` on the engine.
    NeighborsBatch,
    /// `GraphStore::get_edge` on the engine.
    GetEdge,
    /// `GraphStore::insert_edge` on the engine.
    InsertEdge,
    /// `Bg3Db::reclaim_to_utilization`.
    Gc,
    /// `StoreBuilder::open` during restart.
    StoreOpen,
    /// `Bg3Db::recover` during restart.
    Recover,
    /// Backend write on the WAL stream.
    WalWrite,
    /// Backend sync or seal on the WAL stream.
    WalSync,
    /// Backend write on a page stream (BASE/DELTA/SST).
    StoreWrite,
    /// Backend read on any stream.
    StoreRead,
    /// Backend sync or seal on a page stream.
    StoreSync,
    /// Backend allocate/delete/length/list calls.
    StoreMeta,
}

impl Name {
    /// The layer (crate) a span's self time is charged to. Root op spans
    /// belong to no layer: their self time is the unattributed share.
    pub fn layer(self) -> &'static str {
        match self {
            Name::Op => "unattributed",
            Name::Query => "bg3-query",
            Name::Pattern => "bg3-graph",
            Name::Neighbors | Name::NeighborsBatch | Name::GetEdge | Name::InsertEdge => "bg3-core",
            Name::Gc => "bg3-gc",
            Name::StoreOpen | Name::Recover => "bg3-sync",
            Name::WalWrite | Name::WalSync => "bg3-wal",
            Name::StoreWrite | Name::StoreRead | Name::StoreSync | Name::StoreMeta => "bg3-storage",
        }
    }

    fn label(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::Query => "query.run_text",
            Name::Pattern => "graph.has_cycle",
            Name::Neighbors => "core.neighbors",
            Name::NeighborsBatch => "core.neighbors_batch",
            Name::GetEdge => "core.get_edge",
            Name::InsertEdge => "core.insert_edge",
            Name::Gc => "gc.reclaim_to_utilization",
            Name::StoreOpen => "sync.store_open",
            Name::Recover => "sync.recover",
            Name::WalWrite => "wal.write",
            Name::WalSync => "wal.sync",
            Name::StoreWrite => "storage.write",
            Name::StoreRead => "storage.read",
            Name::StoreSync => "storage.sync",
            Name::StoreMeta => "storage.meta",
        }
    }
}

/// Marks a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the log was installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed.
    pub name: Name,
    /// Index of the enclosing span in the log, or [`NO_PARENT`].
    pub parent: u32,
    /// Client op the span belongs to.
    pub op: u64,
    /// Start, ns since the log origin.
    pub start: u64,
    /// End, ns since the log origin.
    pub end: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

struct Log {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

thread_local! {
    static LOG: RefCell<Option<Log>> = const { RefCell::new(None) };
}

/// Installs an empty span log on this thread; spans are recorded from now
/// until [`finish`].
pub fn install() {
    LOG.with(|l| {
        *l.borrow_mut() = Some(Log {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            op: 0,
        })
    });
}

/// Removes this thread's log and returns every span it recorded.
pub fn finish() -> Vec<Span> {
    LOG.with(|l| {
        l.borrow_mut()
            .take()
            .map(|log| log.spans)
            .unwrap_or_default()
    })
}

/// A log taken off the thread by [`suspend`].
pub struct Suspended(Option<Log>);

/// Stops recording without losing the log, for untimed work such as
/// answer checks.
pub fn suspend() -> Suspended {
    Suspended(LOG.with(|l| l.borrow_mut().take()))
}

impl Suspended {
    /// Takes every span recorded so far out of the suspended log. Span
    /// indices restart at 0 afterwards, so call this only when no span is
    /// open; the taken spans' parent indices refer to the returned vector.
    pub fn take_spans(&mut self) -> Vec<Span> {
        match self.0.as_mut() {
            Some(log) => {
                assert!(log.stack.is_empty(), "spans taken while one is open");
                std::mem::take(&mut log.spans)
            }
            None => Vec::new(),
        }
    }
}

/// Puts a suspended log back.
pub fn resume(log: Suspended) {
    LOG.with(|l| *l.borrow_mut() = log.0);
}

/// Sets the op id stamped on spans opened from now on.
pub fn set_op(op: u64) {
    LOG.with(|l| {
        if let Some(log) = l.borrow_mut().as_mut() {
            log.op = op;
        }
    });
}

/// An open span; closing happens on drop.
#[must_use = "a span closes when its guard drops"]
pub struct Guard(Option<u32>);

/// Opens a span named `name` under the innermost open span.
pub fn enter(name: Name) -> Guard {
    LOG.with(|l| {
        let mut slot = l.borrow_mut();
        let Some(log) = slot.as_mut() else {
            return Guard(None);
        };
        let idx = log.spans.len() as u32;
        let start = log.origin.elapsed().as_nanos() as u64;
        log.spans.push(Span {
            name,
            parent: log.stack.last().copied().unwrap_or(NO_PARENT),
            op: log.op,
            start,
            end: start,
        });
        log.stack.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        LOG.with(|l| {
            if let Some(log) = l.borrow_mut().as_mut() {
                log.spans[idx as usize].end = log.origin.elapsed().as_nanos() as u64;
                log.stack.pop();
            }
        });
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children nest strictly inside their parent on one
/// thread, so the covered time is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            child[span.parent as usize] += span.duration();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.duration().saturating_sub(c))
        .collect()
}

/// Writes the spans as tab-separated text: index, name, parent (-1 for a
/// root), op, start ns, end ns, self ns.
pub fn write_spans(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    let selfs = self_times(spans);
    writeln!(out, "idx\tname\tparent\top\tstart_ns\tend_ns\tself_ns")?;
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{i}\t{}\t{parent}\t{}\t{}\t{}\t{own}",
            s.name.label(),
            s.op,
            s.start,
            s.end
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_times_telescope() {
        install();
        set_op(7);
        {
            let _op = enter(Name::Op);
            {
                let _q = enter(Name::Query);
                let _n = enter(Name::NeighborsBatch);
            }
            let _g = enter(Name::GetEdge);
        }
        let spans = finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].parent, 0);
        assert!(spans.iter().all(|s| s.op == 7));
        let selfs = self_times(&spans);
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].duration());
        // Without a log nothing is recorded.
        drop(enter(Name::Op));
        assert!(finish().is_empty());
    }
}
