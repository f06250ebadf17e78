//! The leader protocol (§3.4, Fig. 7), shared by every write path.
//!
//! A [`Leader`] owns the fenced WAL, the shared mapping table and its
//! epoch, and the pending-publish stash. Callers own the trees: an
//! [`crate::RwNode`] hands it one tree, the forest engine hands it the
//! forest's trees plus its vertex table. Group commit, recovery, and GC
//! fix-ups therefore follow one protocol whatever the tree layout.

use crate::recovery::recover_tree;
use crate::wal_listener::WalListener;
use bg3_bwtree::tree::FlushMode;
use bg3_bwtree::{BwTree, BwTreeConfig, PageTag, TreeEventListener};
use bg3_storage::{
    AppendOnlyStore, CrashPoint, CrashSwitch, PageAddr, RetryPolicy, SharedMappingTable,
    StorageResult,
};
use bg3_wal::{Lsn, WalPayload, WalRecord, WalWriter};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The write-ahead / group-commit / recovery core of a leader.
pub struct Leader {
    store: AppendOnlyStore,
    wal: Arc<WalWriter>,
    listener: Arc<dyn TreeEventListener>,
    mapping: SharedMappingTable,
    /// Leadership epoch. Every WAL record and mapping publish carries it;
    /// once a successor seals a higher epoch, both planes reject this
    /// leader.
    epoch: u64,
    /// Flushed-but-unpublished mapping updates. Pages leave the dirty set
    /// on flush, so their addresses wait here across every interruption
    /// (flush error, crash, fenced or dropped publish) until a publish
    /// lands; no `CheckpointComplete` covers them before that. Also held
    /// for the whole checkpoint, which serializes checkpoints and GC
    /// fix-ups against each other.
    pending_publish: Mutex<Vec<(u64, Option<PageAddr>)>>,
}

impl Leader {
    /// A leader over `store` with a fresh WAL and mapping table, on the
    /// initial epoch. `retry` governs WAL appends.
    pub fn new(store: AppendOnlyStore, retry: RetryPolicy) -> Self {
        let mapping = SharedMappingTable::for_store(&store);
        let epoch = mapping.epoch();
        Self::fenced(WalWriter::new(store.clone()), store, mapping, epoch, retry)
    }

    /// Reopens the leader over what survives it — the shared store and
    /// mapping table — after a crash (restart, on the mapping's current
    /// epoch) or a seal (promotion, on the epoch just sealed). The WAL is
    /// rescanned and fenced at `epoch`. Returns every surviving record in
    /// LSN order, the input to [`Leader::recover_tree`].
    pub fn recover(
        store: AppendOnlyStore,
        mapping: SharedMappingTable,
        epoch: u64,
        retry: RetryPolicy,
    ) -> StorageResult<(Self, Vec<WalRecord>)> {
        let (wal, records) = WalWriter::recover(store.clone())?;
        Ok((Self::fenced(wal, store, mapping, epoch, retry), records))
    }

    fn fenced(
        wal: WalWriter,
        store: AppendOnlyStore,
        mapping: SharedMappingTable,
        epoch: u64,
        retry: RetryPolicy,
    ) -> Self {
        let wal = Arc::new(
            wal.with_retry(retry)
                .with_fence(mapping.fence().clone(), epoch),
        );
        Leader {
            store,
            listener: WalListener::new(Arc::clone(&wal)),
            wal,
            mapping,
            epoch,
            pending_publish: Mutex::new(Vec::new()),
        }
    }

    /// A fresh tree that logs through this leader's WAL and flushes only
    /// at group commit.
    pub fn tree(&self, id: u32, config: BwTreeConfig) -> BwTree {
        let config = config.with_flush_mode(FlushMode::Deferred);
        BwTree::with_listener(id, self.store.clone(), config, self.listener())
    }

    /// Rebuilds tree `id` from the mapped page images plus `records` (see
    /// [`recover_tree`]), logging through this leader's WAL from then on.
    pub fn recover_tree(
        &self,
        id: u32,
        records: &[WalRecord],
        config: BwTreeConfig,
    ) -> StorageResult<BwTree> {
        let config = config.with_flush_mode(FlushMode::Deferred);
        recover_tree(
            id,
            self.store.clone(),
            &self.mapping,
            records,
            config,
            self.listener(),
        )
    }

    /// The WAL listener to install on every tree this leader commits.
    pub fn listener(&self) -> Arc<dyn TreeEventListener> {
        Arc::clone(&self.listener)
    }

    /// The leadership epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared mapping table.
    pub fn mapping(&self) -> &SharedMappingTable {
        &self.mapping
    }

    /// The fenced WAL writer.
    pub fn wal(&self) -> &Arc<WalWriter> {
        &self.wal
    }

    /// The shared store.
    pub(crate) fn store(&self) -> &AppendOnlyStore {
        &self.store
    }

    /// Rejects a zombie mutation *before* it touches a tree, so a fenced
    /// leader's memory never diverges from the log it can no longer write.
    pub fn check_fence(&self) -> StorageResult<()> {
        self.wal.check_fence()
    }

    /// Group commit (Fig. 7 steps (7)–(8)): flushes every dirty page of
    /// `trees`, publishes the new addresses plus any stashed ones, and logs
    /// one `CheckpointComplete` per tree the publish covered. A clean
    /// checkpoint — nothing flushed, nothing stashed — logs one for every
    /// tree in `trees`. Returns the LSN the checkpoint covers.
    pub fn checkpoint(&self, trees: &[Arc<BwTree>], crash: &CrashSwitch) -> StorageResult<Lsn> {
        // A sealed-out leader must not flush page images (they would
        // litter the base stream) and observes its demotion as a fenced
        // publish attempt.
        self.mapping.check_epoch(self.epoch)?;
        let mut stash = self.pending_publish.lock();
        // Everything logged up to here is covered once the flush lands.
        let upto = self.wal.last_lsn();
        for tree in trees {
            let flushed = tree.flush_dirty()?;
            stash.extend(flushed.iter().map(|f| {
                let tag = PageTag {
                    tree: tree.id(),
                    page: f.page,
                };
                (tag.encode(), Some(f.addr))
            }));
        }
        // Chaos hook: die after the flush but before the publish — new page
        // images are durable yet unreachable, and no horizon advanced, so
        // recovery replays the WAL past the previous checkpoint.
        crash.fire(CrashPoint::MidGroupCommit)?;
        let mut version = self.mapping.snapshot().version();
        let covered: BTreeSet<u32> = if stash.is_empty() {
            trees.iter().map(|t| t.id()).collect()
        } else {
            let after = self
                .mapping
                .publish_fenced(self.epoch, stash.iter().cloned())?;
            if after == version {
                // The publish RPC was dropped (injected fault). Keep the
                // batch stashed and log no horizon: a follower or a restart
                // must not skip records the mapping does not reflect.
                return Ok(upto);
            }
            version = after;
            stash
                .drain(..)
                .map(|(tag, _)| PageTag::decode(tag).tree)
                .collect()
        };
        // The record names the exact mapping version covering `upto`, so a
        // follower adopts that version — not the live table — on replay.
        for tree in covered {
            self.wal.append(
                tree as u64,
                0,
                WalPayload::CheckpointComplete {
                    upto: upto.0,
                    mapping_version: version,
                },
            )?;
        }
        Ok(upto)
    }

    /// GC relocation fix-up for the metadata plane: a mapped or stashed
    /// address in `old`'s physical slot moves to `new`. Relocation reports
    /// `old` with a placeholder record id, so entries match by slot. The
    /// mapping fix-up publishes before the old extent is reclaimed, so a
    /// crash anywhere around it leaves the mapping readable.
    pub fn relocate(&self, tag: u64, old: PageAddr, new: PageAddr) {
        let same_slot = |a: PageAddr| {
            a.stream == old.stream && a.extent == old.extent && a.offset == old.offset
        };
        let mut stash = self.pending_publish.lock();
        if self.mapping.snapshot().get(tag).is_some_and(same_slot) {
            self.mapping.publish([(tag, Some(new))]);
        }
        for slot in stash.iter_mut() {
            if slot.0 == tag && slot.1.is_some_and(same_slot) {
                slot.1 = Some(new);
            }
        }
    }
}
