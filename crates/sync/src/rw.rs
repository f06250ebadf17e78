//! The read-write (leader) node.

use crate::leader::Leader;
use bg3_bwtree::{BwTree, BwTreeConfig};
use bg3_storage::{AppendOnlyStore, CrashSwitch, SharedMappingTable, StorageResult};
use bg3_wal::{Lsn, WalReader, WalRecord};
use std::sync::Arc;

/// RW-node configuration.
#[derive(Debug, Clone)]
pub struct RwNodeConfig {
    /// Tree id carried in WAL records and relocation tags.
    pub tree_id: u32,
    /// Bw-tree knobs. The flush mode is forced to deferred: the WAL is the
    /// durability mechanism; dirty pages flush via group commit.
    pub tree_config: BwTreeConfig,
    /// Group commit: flush once this many pages are dirty (the paper's
    /// "accumulated dirty pages reach a specific threshold").
    pub group_commit_pages: usize,
}

impl Default for RwNodeConfig {
    fn default() -> Self {
        RwNodeConfig {
            tree_id: 1,
            tree_config: BwTreeConfig::default(),
            group_commit_pages: 16,
        }
    }
}

/// The leader: applies writes in memory, logs them to the WAL on the shared
/// store, and group-commits dirty pages in the background (Fig. 7, left).
/// A [`Leader`] over one flat tree.
pub struct RwNode {
    leader: Leader,
    tree: Arc<BwTree>,
    config: RwNodeConfig,
    /// Crash points observed by this node: `MidGroupCommit` fires between
    /// the flush and the mapping publish inside [`RwNode::checkpoint`];
    /// `MidFlush` is forwarded to the tree's flush loop. Disarmed (and
    /// free) by default.
    crash: CrashSwitch,
}

impl RwNode {
    /// Creates a leader over `store` with a fresh WAL and mapping table,
    /// on [`bg3_storage::INITIAL_EPOCH`]. The tree's retry policy also
    /// governs WAL appends. The WAL shares the mapping table's fence, so
    /// sealing a new epoch (failover) cuts this node off from both planes
    /// at once.
    pub fn new(store: AppendOnlyStore, config: RwNodeConfig) -> Self {
        let leader = Leader::new(store, config.tree_config.retry);
        let tree = leader.tree(config.tree_id, config.tree_config.clone());
        Self::assemble(leader, tree, config)
    }

    /// Rebuilds the node's tree from a reopened leader and its surviving
    /// WAL records (promotion / recovery path).
    pub(crate) fn recover(
        leader: Leader,
        records: &[WalRecord],
        config: RwNodeConfig,
    ) -> StorageResult<Self> {
        let tree = leader.recover_tree(config.tree_id, records, config.tree_config.clone())?;
        Ok(Self::assemble(leader, tree, config))
    }

    fn assemble(leader: Leader, mut tree: BwTree, config: RwNodeConfig) -> Self {
        let crash = CrashSwitch::new();
        tree.set_crash_switch(crash.clone());
        RwNode {
            leader,
            tree: Arc::new(tree),
            config,
            crash,
        }
    }

    /// The leadership epoch this node writes under.
    pub fn epoch(&self) -> u64 {
        self.leader.epoch()
    }

    /// The crash switch shared by this node and its tree — arm it to kill
    /// the node at a named crash point.
    pub fn crash_switch(&self) -> &CrashSwitch {
        &self.crash
    }

    /// The shared mapping table (hand this to RO nodes).
    pub fn mapping(&self) -> &SharedMappingTable {
        self.leader.mapping()
    }

    /// Opens a WAL reader positioned at the log's start (hand to RO nodes).
    pub fn open_wal_reader(&self) -> WalReader {
        self.leader.wal().open_reader()
    }

    /// The underlying tree (diagnostics and direct reads on the leader).
    pub fn tree(&self) -> &Arc<BwTree> {
        &self.tree
    }

    /// The shared store.
    pub fn store(&self) -> &AppendOnlyStore {
        self.leader.store()
    }

    /// Last WAL LSN written.
    pub fn last_lsn(&self) -> Lsn {
        self.leader.wal().last_lsn()
    }

    /// Writes a key/value pair. The WAL record is durable when this
    /// returns; the page flush happens later via group commit.
    ///
    /// The fence is checked *before* touching the tree: a zombie leader
    /// gets a structured [`bg3_storage::ErrorKind::EpochFenced`] error with
    /// its in-memory state unchanged, instead of diverging from the log it
    /// can no longer write.
    pub fn put(&self, key: &[u8], value: &[u8]) -> StorageResult<()> {
        self.leader.check_fence()?;
        self.tree.put(key, value)?;
        self.maybe_group_commit()
    }

    /// Deletes a key.
    pub fn delete(&self, key: &[u8]) -> StorageResult<()> {
        self.leader.check_fence()?;
        self.tree.delete(key)?;
        self.maybe_group_commit()
    }

    /// Reads from the leader's own memory (always current).
    pub fn get(&self, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        self.tree.get(key)
    }

    fn maybe_group_commit(&self) -> StorageResult<()> {
        if self.tree.dirty_count() >= self.config.group_commit_pages {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Flushes all dirty pages, publishes the new mapping version, and logs
    /// `CheckpointComplete` (Fig. 7 steps (7)–(8)); see
    /// [`Leader::checkpoint`]. Returns the LSN the checkpoint covers.
    pub fn checkpoint(&self) -> StorageResult<Lsn> {
        self.leader
            .checkpoint(std::slice::from_ref(&self.tree), &self.crash)
    }
}

impl std::fmt::Debug for RwNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwNode")
            .field("tree", &self.tree)
            .field("last_lsn", &self.last_lsn())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bg3_storage::{CrashPoint, StoreBuilder, StoreConfig, StreamId};
    use bg3_wal::WalPayload;

    fn node(group_commit_pages: usize) -> RwNode {
        RwNode::new(
            StoreBuilder::from_config(StoreConfig::counting()).build(),
            RwNodeConfig {
                group_commit_pages,
                ..RwNodeConfig::default()
            },
        )
    }

    #[test]
    fn writes_log_before_data_flush() {
        let n = node(usize::MAX); // never auto-commit
        n.put(b"k", b"v").unwrap();
        assert_eq!(n.last_lsn(), Lsn(1));
        let wal_bytes = n.store().stream_stats(StreamId::WAL).unwrap().valid_bytes;
        let base_bytes = n.store().stream_stats(StreamId::BASE).unwrap().valid_bytes;
        assert!(wal_bytes > 0, "WAL written synchronously");
        assert_eq!(base_bytes, 0, "page flush deferred");
        assert_eq!(n.get(b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn checkpoint_flushes_publishes_and_logs() {
        let n = node(usize::MAX);
        n.put(b"a", b"1").unwrap();
        n.put(b"b", b"2").unwrap();
        let covered = n.checkpoint().unwrap();
        assert_eq!(covered, Lsn(2));
        assert!(!n.mapping().snapshot().is_empty(), "mapping published");
        // The checkpoint record follows the covered LSNs.
        let mut reader = n.open_wal_reader();
        let records = reader.fetch_new().unwrap();
        let last = records.last().unwrap();
        assert!(matches!(
            last.payload,
            WalPayload::CheckpointComplete {
                upto: 2,
                mapping_version: 1
            }
        ));
    }

    #[test]
    fn group_commit_triggers_on_dirty_threshold() {
        // Tiny pages: every key lands on its own page quickly via splits.
        let mut config = RwNodeConfig {
            group_commit_pages: 2,
            ..RwNodeConfig::default()
        };
        config.tree_config = config
            .tree_config
            .with_max_page_entries(4)
            .with_consolidate_threshold(2);
        let n = RwNode::new(
            StoreBuilder::from_config(StoreConfig::counting()).build(),
            config,
        );
        for i in 0..64u32 {
            n.put(format!("key{i:03}").as_bytes(), b"v").unwrap();
        }
        assert!(
            n.mapping().snapshot().version() > 0,
            "auto group commit published at least once"
        );
        assert!(n.tree().dirty_count() < 64, "dirty set drained");
    }

    #[test]
    fn mid_group_commit_crash_flushes_but_never_publishes() {
        let n = node(usize::MAX);
        n.put(b"a", b"1").unwrap();
        n.crash_switch().arm(CrashPoint::MidGroupCommit);
        let err = n.checkpoint().unwrap_err();
        assert!(err.is_crash());
        // The page image landed on the base stream...
        let base_bytes = n.store().stream_stats(StreamId::BASE).unwrap().valid_bytes;
        assert!(base_bytes > 0, "flush happened before the crash");
        // ...but nothing was published and no checkpoint record was logged,
        // so recovery would replay the WAL from the start.
        assert!(n.mapping().snapshot().is_empty(), "publish never ran");
        let mut reader = n.open_wal_reader();
        let records = reader.fetch_new().unwrap();
        assert!(
            records
                .iter()
                .all(|r| !matches!(r.payload, WalPayload::CheckpointComplete { .. })),
            "no checkpoint horizon advanced"
        );
    }

    #[test]
    fn wal_appends_retry_through_transient_faults() {
        use bg3_storage::{FaultKind, FaultOp, FaultPlan, FaultRule};
        // Every WAL append fails twice before succeeding; the writer's
        // retry policy absorbs it so puts never observe an error.
        let plan = FaultPlan::seeded(7).with_rule(
            FaultRule::new(FaultOp::Append, FaultKind::AppendFail, 1.0)
                .on_stream(StreamId::WAL)
                .at_most(2),
        );
        let store = StoreBuilder::from_config(StoreConfig::counting().with_faults(plan)).build();
        let n = RwNode::new(store.clone(), RwNodeConfig::default());
        n.put(b"k", b"v").unwrap();
        assert_eq!(n.last_lsn(), Lsn(1));
        assert_eq!(store.fault_injector().total_fired(), 2);
        assert_eq!(n.get(b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn sealed_epoch_turns_the_leader_into_a_fenced_zombie() {
        let n = node(usize::MAX);
        n.put(b"before", b"v").unwrap();
        assert_eq!(n.epoch(), bg3_storage::INITIAL_EPOCH);
        // A successor seals the next epoch (what promotion does).
        n.mapping().seal_epoch(n.epoch() + 1).unwrap();
        // Writes are rejected before touching the tree...
        let entries_before = n.tree().entry_count();
        assert!(n.put(b"zombie", b"w").unwrap_err().is_fenced());
        assert!(n.delete(b"before").unwrap_err().is_fenced());
        assert_eq!(n.tree().entry_count(), entries_before, "tree untouched");
        // ...and so are checkpoints (counted as fenced publish attempts).
        assert!(n.checkpoint().unwrap_err().is_fenced());
        let fence = n.mapping().fence().snapshot();
        assert!(fence.rejected_appends >= 2);
        assert!(fence.rejected_publishes >= 1);
        // Reads on the zombie still work (stale but local).
        assert_eq!(n.get(b"before").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn dropped_publish_is_restaged_and_checkpoint_withholds_the_horizon() {
        use bg3_storage::{FaultKind, FaultOp, FaultPlan, FaultRule};
        let plan = FaultPlan::seeded(11).with_rule(
            FaultRule::new(FaultOp::MappingPublish, FaultKind::PublishDrop, 1.0).at_most(1),
        );
        let store = StoreBuilder::from_config(StoreConfig::counting().with_faults(plan)).build();
        let n = RwNode::new(
            store,
            RwNodeConfig {
                group_commit_pages: usize::MAX,
                ..RwNodeConfig::default()
            },
        );
        n.put(b"k", b"v").unwrap();
        // First checkpoint: flush lands, publish RPC is dropped — no
        // CheckpointComplete may be logged.
        n.checkpoint().unwrap();
        assert!(n.mapping().snapshot().is_empty(), "publish was dropped");
        let mut reader = n.open_wal_reader();
        assert!(
            reader
                .fetch_new()
                .unwrap()
                .iter()
                .all(|r| !matches!(r.payload, WalPayload::CheckpointComplete { .. })),
            "horizon withheld while storage lags"
        );
        // Second checkpoint: the staged batch is re-published and the
        // horizon advances.
        n.checkpoint().unwrap();
        assert!(
            !n.mapping().snapshot().is_empty(),
            "restaged publish landed"
        );
        assert!(reader
            .fetch_new()
            .unwrap()
            .iter()
            .any(|r| matches!(r.payload, WalPayload::CheckpointComplete { .. })));
    }

    #[test]
    fn wal_failure_is_a_typed_error_not_a_panic() {
        use bg3_storage::{
            ErrorKind, FaultBackend, FaultKind, FaultOp, FaultPlan, FaultRule, IoErrorClass,
            SimBackend,
        };
        // The first WAL fsync succeeds; every later one fails.
        let plan = FaultPlan::seeded(1)
            .with_rule(FaultRule::new(FaultOp::Sync, FaultKind::SyncFail, 1.0).after(1));
        let backend = Arc::new(FaultBackend::new(Arc::new(SimBackend::new()), plan));
        let store = StoreBuilder::from_config(StoreConfig::counting())
            .backend(backend)
            .build();
        let n = RwNode::new(store, RwNodeConfig::default());
        n.put(b"before", b"v").unwrap();
        let err = n.put(b"failed", b"w").unwrap_err();
        assert!(
            matches!(
                err.kind,
                ErrorKind::Io {
                    class: IoErrorClass::SyncFailed,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(n.put(b"after", b"w").unwrap_err().is_sync_poisoned());
        assert_eq!(n.get(b"before").unwrap(), Some(b"v".to_vec()));
        assert_eq!(
            n.get(b"failed").unwrap(),
            None,
            "unlogged write not applied"
        );
    }

    #[test]
    fn checkpoint_of_clean_node_still_logs_progress() {
        let n = node(usize::MAX);
        n.put(b"x", b"y").unwrap();
        n.checkpoint().unwrap();
        let v1 = n.mapping().snapshot().version();
        n.checkpoint().unwrap(); // nothing dirty
        assert_eq!(n.mapping().snapshot().version(), v1, "no spurious publish");
    }
}
