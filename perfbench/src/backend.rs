//! Benchmark-side `ExtentBackend` decorator over `SimBackend`.
//!
//! It does two jobs, both from outside the engine:
//!
//! * **Crash model.** It records each extent's length at its last `sync`
//!   or `seal` — the bytes a real device is guaranteed to hold after power
//!   loss. [`RecordingBackend::surviving_copy`] builds a fresh backend
//!   holding only those prefixes, which is what a restart sees.
//! * **Device accounting.** It counts writes, bytes and barriers per
//!   stream and, when a span log is installed, times each call.

use crate::trace::{self, Name};
use bg3_storage::{
    BackendStats, ExtentBackend, ExtentId, PersistedExtent, SimBackend, StorageResult, StreamId,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Device-level counters. Read them with [`DeviceCounters::snapshot`].
#[derive(Debug, Default)]
pub struct DeviceCounters {
    wal_writes: AtomicU64,
    wal_bytes: AtomicU64,
    wal_syncs: AtomicU64,
    base_bytes: AtomicU64,
    delta_bytes: AtomicU64,
    reads: AtomicU64,
    read_bytes: AtomicU64,
}

/// Point-in-time copy of [`DeviceCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceSnapshot {
    /// Writes on the WAL stream.
    pub wal_writes: u64,
    /// Bytes written on the WAL stream.
    pub wal_bytes: u64,
    /// Syncs and seals on the WAL stream.
    pub wal_syncs: u64,
    /// Bytes written on the BASE stream.
    pub base_bytes: u64,
    /// Bytes written on the DELTA stream.
    pub delta_bytes: u64,
    /// Reads on any stream.
    pub reads: u64,
    /// Bytes read on any stream.
    pub read_bytes: u64,
}

impl DeviceSnapshot {
    /// Counter-wise `self - earlier`.
    pub fn since(&self, earlier: &DeviceSnapshot) -> DeviceSnapshot {
        DeviceSnapshot {
            wal_writes: self.wal_writes - earlier.wal_writes,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            wal_syncs: self.wal_syncs - earlier.wal_syncs,
            base_bytes: self.base_bytes - earlier.base_bytes,
            delta_bytes: self.delta_bytes - earlier.delta_bytes,
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
        }
    }
}

impl DeviceCounters {
    /// Current values.
    pub fn snapshot(&self) -> DeviceSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        DeviceSnapshot {
            wal_writes: get(&self.wal_writes),
            wal_bytes: get(&self.wal_bytes),
            wal_syncs: get(&self.wal_syncs),
            base_bytes: get(&self.base_bytes),
            delta_bytes: get(&self.delta_bytes),
            reads: get(&self.reads),
            read_bytes: get(&self.read_bytes),
        }
    }
}

fn bump(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

#[derive(Debug, Clone, Copy, Default)]
struct Durable {
    len: u64,
    sealed: bool,
}

/// The decorator. Hand it to `StoreBuilder::backend` as an
/// `Arc<dyn ExtentBackend>`.
#[derive(Debug, Default)]
pub struct RecordingBackend {
    inner: SimBackend,
    /// Every live extent with its durable prefix.
    durable: Mutex<BTreeMap<(u8, u64), Durable>>,
    counters: DeviceCounters,
}

impl RecordingBackend {
    /// An empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Device counters since creation.
    pub fn counters(&self) -> DeviceSnapshot {
        self.counters.snapshot()
    }

    /// Bytes held past the last barrier of each extent: what a crash now
    /// would discard.
    pub fn unsynced_bytes(&self) -> u64 {
        let durable = self.durable.lock().expect("durable map poisoned");
        durable
            .iter()
            .map(|(&(s, e), d)| {
                self.inner
                    .extent_len(StreamId(s), ExtentId(e))
                    .unwrap_or(0)
                    .saturating_sub(d.len)
            })
            .sum()
    }

    /// A new device holding only the durable prefix of every extent, with
    /// each extent's seal state — the disk after a power loss now. Extents
    /// never synced survive empty, so fresh extent ids cannot collide with
    /// addresses the mapping table may still name.
    pub fn surviving_copy(&self) -> StorageResult<RecordingBackend> {
        let copy = RecordingBackend::new();
        let durable = self.durable.lock().expect("durable map poisoned");
        for (&(s, e), d) in durable.iter() {
            let (stream, extent) = (StreamId(s), ExtentId(e));
            copy.inner.allocate(stream, extent, d.len as usize)?;
            if d.len > 0 {
                let bytes = self.inner.read_at(stream, extent, 0, d.len as usize)?;
                copy.inner.write_at(stream, extent, 0, &bytes)?;
            }
            if d.sealed {
                copy.inner.seal(stream, extent)?;
            }
        }
        *copy.durable.lock().expect("fresh map") = durable.clone();
        Ok(copy)
    }

    fn mark_durable(&self, stream: StreamId, extent: ExtentId, sealed: bool) {
        let len = self.inner.extent_len(stream, extent).unwrap_or(0);
        let mut durable = self.durable.lock().expect("durable map poisoned");
        let slot = durable.entry((stream.0, extent.0)).or_default();
        slot.len = len;
        slot.sealed |= sealed;
    }
}

impl ExtentBackend for RecordingBackend {
    fn name(&self) -> &'static str {
        "recording-sim"
    }

    fn attach_stats(&self, stats: BackendStats) {
        self.inner.attach_stats(stats);
    }

    fn allocate(&self, stream: StreamId, extent: ExtentId, capacity: usize) -> StorageResult<()> {
        let _span = trace::enter(Name::StoreMeta);
        self.inner.allocate(stream, extent, capacity)?;
        self.durable
            .lock()
            .expect("durable map poisoned")
            .insert((stream.0, extent.0), Durable::default());
        Ok(())
    }

    fn write_at(
        &self,
        stream: StreamId,
        extent: ExtentId,
        at: u64,
        bytes: &[u8],
    ) -> StorageResult<()> {
        let n = bytes.len() as u64;
        let c = &self.counters;
        let _span = if stream == StreamId::WAL {
            bump(&c.wal_writes, 1);
            bump(&c.wal_bytes, n);
            trace::enter(Name::WalWrite)
        } else {
            if stream == StreamId::BASE {
                bump(&c.base_bytes, n);
            } else if stream == StreamId::DELTA {
                bump(&c.delta_bytes, n);
            }
            trace::enter(Name::StoreWrite)
        };
        self.inner.write_at(stream, extent, at, bytes)
    }

    fn read_at(
        &self,
        stream: StreamId,
        extent: ExtentId,
        at: u64,
        len: usize,
    ) -> StorageResult<Vec<u8>> {
        let _span = trace::enter(Name::StoreRead);
        bump(&self.counters.reads, 1);
        bump(&self.counters.read_bytes, len as u64);
        self.inner.read_at(stream, extent, at, len)
    }

    fn extent_len(&self, stream: StreamId, extent: ExtentId) -> StorageResult<u64> {
        self.inner.extent_len(stream, extent)
    }

    fn sync(&self, stream: StreamId, extent: ExtentId) -> StorageResult<()> {
        let _span = self.barrier_span(stream);
        self.inner.sync(stream, extent)?;
        self.mark_durable(stream, extent, false);
        Ok(())
    }

    fn seal(&self, stream: StreamId, extent: ExtentId) -> StorageResult<()> {
        let _span = self.barrier_span(stream);
        self.inner.seal(stream, extent)?;
        self.mark_durable(stream, extent, true);
        Ok(())
    }

    fn delete(&self, stream: StreamId, extent: ExtentId) -> StorageResult<()> {
        let _span = trace::enter(Name::StoreMeta);
        self.inner.delete(stream, extent)?;
        self.durable
            .lock()
            .expect("durable map poisoned")
            .remove(&(stream.0, extent.0));
        Ok(())
    }

    fn corrupt_bit(&self, stream: StreamId, extent: ExtentId, bit: u64) -> StorageResult<()> {
        self.inner.corrupt_bit(stream, extent, bit)
    }

    fn list_extents(&self) -> StorageResult<Vec<PersistedExtent>> {
        let _span = trace::enter(Name::StoreMeta);
        self.inner.list_extents()
    }
}

impl RecordingBackend {
    fn barrier_span(&self, stream: StreamId) -> trace::Guard {
        if stream == StreamId::WAL {
            bump(&self.counters.wal_syncs, 1);
            trace::enter(Name::WalSync)
        } else {
            trace::enter(Name::StoreSync)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surviving_copy_keeps_only_synced_prefixes() {
        let b = RecordingBackend::new();
        let (wal, base) = (StreamId::WAL, StreamId::BASE);
        b.allocate(wal, ExtentId(1), 64).unwrap();
        b.write_at(wal, ExtentId(1), 0, b"acked").unwrap();
        b.sync(wal, ExtentId(1)).unwrap();
        b.write_at(wal, ExtentId(1), 5, b"lost").unwrap();
        b.allocate(base, ExtentId(2), 64).unwrap();
        b.write_at(base, ExtentId(2), 0, b"page").unwrap();
        b.seal(base, ExtentId(2)).unwrap();
        b.allocate(base, ExtentId(3), 64).unwrap();
        b.write_at(base, ExtentId(3), 0, b"never synced").unwrap();
        assert_eq!(b.unsynced_bytes(), 4 + 12);

        let copy = b.surviving_copy().unwrap();
        assert_eq!(copy.read_at(wal, ExtentId(1), 0, 5).unwrap(), b"acked");
        assert_eq!(copy.extent_len(wal, ExtentId(1)).unwrap(), 5);
        assert_eq!(copy.extent_len(base, ExtentId(3)).unwrap(), 0);
        let listed = copy.list_extents().unwrap();
        assert_eq!(listed.len(), 3);
        assert!(listed.iter().any(|p| p.extent == ExtentId(2) && p.sealed));
        assert_eq!(copy.unsynced_bytes(), 0);

        b.delete(base, ExtentId(2)).unwrap();
        assert_eq!(b.surviving_copy().unwrap().list_extents().unwrap().len(), 2);
        let c = b.counters();
        assert_eq!((c.wal_writes, c.wal_bytes, c.wal_syncs), (2, 9, 1));
        assert_eq!(c.base_bytes, 16);
    }
}
