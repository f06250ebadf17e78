//! # bg3-sync
//!
//! BG3's I/O-efficient leader-follower synchronization (§3.4 of the paper),
//! plus the previous-generation baseline it replaces.
//!
//! ## The BG3 mechanism
//!
//! * The **leader** ([`Leader`]) is the one write-ahead / group-commit /
//!   recovery core every write path runs on: [`RwNode`] is a `Leader` plus
//!   one Bw-tree, and `bg3_core::Bg3Db`'s durable mode is a `Leader` plus
//!   the forest and the vertex table. Every mutation is fence-checked, then
//!   applied in memory and appended to the WAL on the shared store *before*
//!   it is acknowledged (write-ahead; Fig. 7 steps (1)–(2)); a failed
//!   append fails the write, unapplied. Dirty pages are *not* flushed
//!   inline: a group commit flushes them in batch (step (7)), publishes the
//!   shared mapping table under the leader's epoch, and logs one
//!   `CheckpointComplete` per tree the publish covered — or, when nothing
//!   was flushed or stashed, per tree it was given (step (8)). Addresses
//!   whose publish was interrupted wait in the leader's one stash and no
//!   horizon covers them until they land. Sealing a newer epoch fences the
//!   leader's WAL and publishes at once, whichever engine it drives.
//! * Each **RO node** ([`RoNode`]) tails the WAL (step (3)). Structural
//!   records (splits) are applied to its routing table eagerly; page
//!   content records are parked in a **page-indexed log area** and applied
//!   lazily, only when a read actually brings the page into memory (steps
//!   (4)/(6)). Cache misses resolve through the *published* mapping version,
//!   which still points at pre-flush data — consistency comes from replaying
//!   the parked records on top (the paper's correctness argument).
//! * On `CheckpointComplete(upto)`, parked records with `lsn <= upto` are
//!   applied to any cached pages and discarded: the shared store now
//!   reflects them.
//!
//! ## The baseline
//!
//! [`ForwardingReplicator`] reproduces ByteGraph's legacy scheme: write
//! commands are forwarded asynchronously to each RO node over a lossy
//! channel and replayed, which only achieves eventual consistency — under
//! packet loss, RO nodes silently miss writes (Fig. 12).

pub mod forwarding;
pub mod latency;
pub mod leader;
pub mod recovery;
pub mod ro;
pub mod rw;
pub mod wal_listener;

pub use forwarding::{ForwardingConfig, ForwardingReplicator};
pub use latency::LatencyRecorder;
pub use leader::Leader;
pub use ro::{RoNode, RoNodeConfig, RoStatsSnapshot};
pub use rw::{RwNode, RwNodeConfig};
