//! Heap files: unordered record storage over the buffer pool.
//!
//! A heap file owns a contiguous range of page ids `[first, first+count)` on
//! the shared disk. Inserts append to the current last page until it is full
//! (the classic fill order the paper's synthetic generator perturbs with its
//! clustering window); the loader used by the experiments instead places each
//! record on an *explicit* page via [`HeapFile::insert_at`], because the
//! placement — and therefore the clustering — is exactly what is under study.

use crate::bufferpool::BufferPool;
use crate::disk::DiskManager;
use crate::page::{self, PageId, RecordId, SlotId};
use crate::record::{Record, Schema};
use crate::{Result, StorageError};

/// An unordered collection of records occupying a dense page range.
pub struct HeapFile {
    schema: Schema,
    first_page: PageId,
    page_count: u32,
}

impl HeapFile {
    /// Creates an empty heap file with one allocated page.
    pub fn create<D: DiskManager>(pool: &mut BufferPool<D>, schema: Schema) -> Self {
        let first_page = pool.allocate_page();
        HeapFile {
            schema,
            first_page,
            page_count: 1,
        }
    }

    /// Creates a heap file pre-allocating exactly `pages` pages.
    ///
    /// Used by the experiment loaders, which decide record placement
    /// themselves and need the full page range up front.
    pub fn create_with_pages<D: DiskManager>(
        pool: &mut BufferPool<D>,
        schema: Schema,
        pages: u32,
    ) -> Self {
        assert!(pages > 0, "a heap file needs at least one page");
        let first_page = pool.allocate_page();
        for _ in 1..pages {
            pool.allocate_page();
        }
        HeapFile {
            schema,
            first_page,
            page_count: pages,
        }
    }

    /// The file's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of pages (the paper's `T` once loading is done).
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// First page id of the file's range.
    pub fn first_page(&self) -> PageId {
        self.first_page
    }

    /// Converts a file-relative page ordinal (0-based) to a disk page id.
    pub fn page_id(&self, ordinal: u32) -> PageId {
        assert!(ordinal < self.page_count, "page ordinal out of range");
        self.first_page + ordinal
    }

    /// Converts a disk page id back to a file-relative ordinal.
    pub fn page_ordinal(&self, id: PageId) -> Option<u32> {
        if id >= self.first_page && id < self.first_page + self.page_count {
            Some(id - self.first_page)
        } else {
            None
        }
    }

    /// Appends a record, extending the file with a new page if the last page
    /// is full. Returns the record's RID.
    pub fn insert<D: DiskManager>(
        &mut self,
        pool: &mut BufferPool<D>,
        record: &Record,
    ) -> Result<RecordId> {
        let payload = record.encode(&self.schema)?;
        let last = self.first_page + self.page_count - 1;
        let fits = pool.with_page(last, |b| page::fits(b, payload.len()))?;
        let target = if fits {
            last
        } else {
            let p = pool.allocate_page();
            // Heap files own dense ranges; interleaved allocation by another
            // file would violate that.
            assert_eq!(p, last + 1, "heap file page range must stay dense");
            self.page_count += 1;
            p
        };
        let slot = pool.with_page_mut(target, |b| page::insert(b, &payload))??;
        Ok(RecordId::new(target, slot))
    }

    /// Inserts a record on the page with file-relative ordinal
    /// `page_ordinal`, failing if it does not fit. Used by placement-aware
    /// loaders.
    pub fn insert_at<D: DiskManager>(
        &mut self,
        pool: &mut BufferPool<D>,
        page_ordinal: u32,
        record: &Record,
    ) -> Result<RecordId> {
        let payload = record.encode(&self.schema)?;
        let pid = self.page_id(page_ordinal);
        let slot = pool.with_page_mut(pid, |b| page::insert(b, &payload))??;
        Ok(RecordId::new(pid, slot))
    }

    /// Fetches the record at `rid` through the pool.
    pub fn get<D: DiskManager>(&self, pool: &mut BufferPool<D>, rid: RecordId) -> Result<Record> {
        if self.page_ordinal(rid.page).is_none() {
            return Err(StorageError::SlotNotFound(rid));
        }
        let schema = self.schema.clone();
        pool.with_page(rid.page, |b| match page::get(b, rid.slot) {
            Some(payload) => Record::decode(&schema, payload),
            None => Err(StorageError::SlotNotFound(rid)),
        })?
    }

    /// Deletes the record at `rid`.
    pub fn delete<D: DiskManager>(&self, pool: &mut BufferPool<D>, rid: RecordId) -> Result<()> {
        if self.page_ordinal(rid.page).is_none() {
            return Err(StorageError::SlotNotFound(rid));
        }
        pool.with_page_mut(rid.page, |b| page::delete(b, rid.slot))?
    }

    /// Full scan in physical order. This is the paper's "table scan" access
    /// plan: exactly `page_count` fetches, independent of buffer size.
    pub fn scan(&self) -> HeapScan<'_> {
        HeapScan {
            heap: self,
            next_page: 0,
            pending: Vec::new(),
        }
    }

    /// Counts live records (scans every page).
    pub fn record_count<D: DiskManager>(&self, pool: &mut BufferPool<D>) -> Result<u64> {
        let mut n = 0u64;
        for ord in 0..self.page_count {
            let pid = self.page_id(ord);
            n += pool.with_page(pid, |b| {
                (0..page::slot_count(b))
                    .filter(|&s| page::slot(b, s).is_some())
                    .count() as u64
            })?;
        }
        Ok(n)
    }
}

/// Cursor over a heap file in physical page order.
///
/// The cursor buffers one page's worth of `(RecordId, Record)` at a time, so
/// each data page is requested from the pool exactly once per scan.
pub struct HeapScan<'h> {
    heap: &'h HeapFile,
    next_page: u32,
    pending: Vec<(RecordId, Record)>,
}

impl HeapScan<'_> {
    /// Returns the next `(rid, record)`, or `None` at end of file.
    pub fn next<D: DiskManager>(
        &mut self,
        pool: &mut BufferPool<D>,
    ) -> Result<Option<(RecordId, Record)>> {
        loop {
            if let Some(item) = self.pending.pop() {
                return Ok(Some(item));
            }
            if self.next_page >= self.heap.page_count {
                return Ok(None);
            }
            let pid = self.heap.page_id(self.next_page);
            self.next_page += 1;
            let schema = self.heap.schema.clone();
            let mut batch = pool.with_page(pid, |b| {
                let mut out = Vec::new();
                for s in 0..page::slot_count(b) {
                    if let Some(payload) = page::get(b, s) {
                        out.push((
                            RecordId::new(pid, s as SlotId),
                            Record::decode(&schema, payload),
                        ));
                    }
                }
                out
            })?;
            // Push in reverse so pop() yields slot order.
            batch.reverse();
            for (rid, rec) in batch {
                self.pending.push((rid, rec?));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufferpool::PoolConfig;
    use crate::disk::InMemoryDisk;
    use crate::record::{ColumnType, Value};

    fn setup(frames: usize) -> (BufferPool<InMemoryDisk>, HeapFile) {
        let mut pool = BufferPool::new(InMemoryDisk::new(), PoolConfig::lru(frames));
        let schema = Schema::new(vec![("k", ColumnType::Int), ("payload", ColumnType::Str)]);
        let heap = HeapFile::create(&mut pool, schema);
        (pool, heap)
    }

    fn rec(k: i64) -> Record {
        Record::new(vec![Value::Int(k), Value::Str(format!("row-{k}"))])
    }

    #[test]
    fn insert_get_round_trips() {
        let (mut pool, mut heap) = setup(4);
        let rid = heap.insert(&mut pool, &rec(7)).unwrap();
        let got = heap.get(&mut pool, rid).unwrap();
        assert_eq!(got.values[0], Value::Int(7));
    }

    #[test]
    fn file_grows_across_pages() {
        let (mut pool, mut heap) = setup(4);
        let mut rids = Vec::new();
        for k in 0..2000 {
            rids.push(heap.insert(&mut pool, &rec(k)).unwrap());
        }
        assert!(heap.page_count() > 1, "2000 records should span pages");
        // Every record is retrievable.
        for (k, rid) in rids.iter().enumerate() {
            let got = heap.get(&mut pool, *rid).unwrap();
            assert_eq!(got.values[0], Value::Int(k as i64));
        }
    }

    #[test]
    fn scan_returns_all_records_in_physical_order() {
        let (mut pool, mut heap) = setup(4);
        for k in 0..500 {
            heap.insert(&mut pool, &rec(k)).unwrap();
        }
        let mut scan = heap.scan();
        let mut seen = Vec::new();
        let mut last_rid = None;
        while let Some((rid, r)) = scan.next(&mut pool).unwrap() {
            if let Some(prev) = last_rid {
                assert!(rid > prev, "physical order must be monotone");
            }
            last_rid = Some(rid);
            seen.push(r.values[0].as_int().unwrap());
        }
        // Append-only fill means physical order == insertion order here.
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn table_scan_fetches_each_page_once() {
        let (mut pool, mut heap) = setup(2);
        for k in 0..2000 {
            heap.insert(&mut pool, &rec(k)).unwrap();
        }
        pool.reset_stats();
        let mut scan = heap.scan();
        while scan.next(&mut pool).unwrap().is_some() {}
        assert_eq!(pool.stats().misses as u32, heap.page_count());
    }

    #[test]
    fn delete_then_get_fails_and_scan_skips() {
        let (mut pool, mut heap) = setup(4);
        let a = heap.insert(&mut pool, &rec(1)).unwrap();
        let b = heap.insert(&mut pool, &rec(2)).unwrap();
        heap.delete(&mut pool, a).unwrap();
        assert!(heap.get(&mut pool, a).is_err());
        assert!(heap.get(&mut pool, b).is_ok());
        let mut scan = heap.scan();
        let mut ks = Vec::new();
        while let Some((_, r)) = scan.next(&mut pool).unwrap() {
            ks.push(r.values[0].as_int().unwrap());
        }
        assert_eq!(ks, vec![2]);
        assert_eq!(heap.record_count(&mut pool).unwrap(), 1);
    }

    #[test]
    fn insert_at_places_on_requested_page() {
        let mut pool = BufferPool::new(InMemoryDisk::new(), PoolConfig::lru(4));
        let schema = Schema::new(vec![("k", ColumnType::Int)]);
        let mut heap = HeapFile::create_with_pages(&mut pool, schema, 5);
        let rid = heap
            .insert_at(&mut pool, 3, &Record::new(vec![Value::Int(9)]))
            .unwrap();
        assert_eq!(heap.page_ordinal(rid.page), Some(3));
        let got = heap.get(&mut pool, rid).unwrap();
        assert_eq!(got.values[0], Value::Int(9));
    }

    #[test]
    fn rid_outside_file_range_is_rejected() {
        let (mut pool, heap) = setup(4);
        assert!(heap.get(&mut pool, RecordId::new(999, 0)).is_err());
        assert!(heap.delete(&mut pool, RecordId::new(999, 0)).is_err());
    }

    #[test]
    fn record_count_on_empty_file_is_zero() {
        let (mut pool, heap) = setup(4);
        assert_eq!(heap.record_count(&mut pool).unwrap(), 0);
    }
}
