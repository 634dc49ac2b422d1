//! Heap-table storage substrate for the EPFIS reproduction.
//!
//! The paper's estimation problem is about *data page fetches*: an index scan
//! produces a sequence of record identifiers (RIDs), each RID names a slot on
//! a data page, and fetching the record faults the page into a finite LRU
//! buffer pool unless it is already resident. This crate provides the pieces
//! of a real storage engine needed to *execute* such scans and measure the
//! true fetch counts:
//!
//! * [`page`] — byte-level slotted pages with a slot directory,
//! * [`record`] — a small typed row codec (schema + values),
//! * [`disk`] — the backing "disk" ([`disk::DiskManager`]) with physical I/O
//!   accounting; an in-memory implementation is provided,
//! * [`replacement`] — the LRU replacement policy the paper assumes,
//! * [`bufferpool`] — the buffer-pool manager that mediates all page access
//!   and counts hits, misses, and physical reads,
//! * [`heap`] — heap files (unordered collections of records) built on top of
//!   the above.
//!
//! The core types are deterministic and single-threaded by design — the
//! point is faithful accounting — and the buffer pool's LRU miss counts are
//! cross-validated elsewhere against the `epfis-lrusim` stack simulator,
//! the analytical core of the paper.

pub mod bufferpool;
pub mod disk;
pub mod heap;
pub mod page;
pub mod record;
pub mod replacement;

pub use bufferpool::{BufferPool, PoolConfig, PoolStats};
pub use disk::{DiskManager, DiskStats, InMemoryDisk};
pub use heap::{HeapFile, HeapScan};
pub use page::{PageBuf, PageId, RecordId, SlotId, PAGE_SIZE};
pub use record::{ColumnType, Record, Schema, Value};
pub use replacement::LruPolicy;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The requested page does not exist on the backing disk.
    PageNotFound(PageId),
    /// The requested slot does not exist or has been deleted.
    SlotNotFound(RecordId),
    /// The record is too large to ever fit in a page.
    RecordTooLarge { bytes: usize },
    /// Every frame in the buffer pool is pinned; nothing can be evicted.
    PoolExhausted,
    /// A record failed to decode against the supplied schema.
    CorruptRecord(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::PageNotFound(p) => write!(f, "page {p} not found"),
            StorageError::SlotNotFound(rid) => write!(f, "record {rid} not found"),
            StorageError::RecordTooLarge { bytes } => {
                write!(f, "record of {bytes} bytes exceeds page capacity")
            }
            StorageError::PoolExhausted => write!(f, "all buffer frames are pinned"),
            StorageError::CorruptRecord(msg) => write!(f, "corrupt record: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenient result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
