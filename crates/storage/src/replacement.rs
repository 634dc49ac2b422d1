//! The buffer replacement policy.
//!
//! The paper assumes the buffer pool is managed with LRU ("as in most
//! relational database systems"), so [`LruPolicy`] is the pool's only
//! policy: its miss counts must agree exactly with the `epfis-lrusim`
//! stack simulation, and an integration test holds it to that. FIFO and
//! Clock ablations run on the simulator (`epfis_lrusim::policies`), which
//! needs no pages or frames to replay a trace.
//!
//! The policy operates on frame indices (`usize` slots in the pool's frame
//! table), not page ids; the pool owns the page table.

const NIL: usize = usize::MAX;

/// Least-recently-used via an intrusive doubly-linked list over frame slots.
///
/// All operations are O(1); `evict` is O(pinned prefix), which is O(1) when
/// nothing is pinned (the common case in this single-threaded engine).
pub struct LruPolicy {
    prev: Vec<usize>,
    next: Vec<usize>,
    /// Least recently used end (eviction side).
    head: usize,
    /// Most recently used end.
    tail: usize,
    tracked: Vec<bool>,
}

impl LruPolicy {
    /// Creates a policy for a pool with `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        LruPolicy {
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            head: NIL,
            tail: NIL,
            tracked: vec![false; capacity],
        }
    }

    fn unlink(&mut self, frame: usize) {
        let (p, n) = (self.prev[frame], self.next[frame]);
        if p != NIL {
            self.next[p] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n] = p;
        } else {
            self.tail = p;
        }
        self.prev[frame] = NIL;
        self.next[frame] = NIL;
    }

    fn push_mru(&mut self, frame: usize) {
        self.prev[frame] = self.tail;
        self.next[frame] = NIL;
        if self.tail != NIL {
            self.next[self.tail] = frame;
        } else {
            self.head = frame;
        }
        self.tail = frame;
    }

    /// Called when a page is installed into frame `frame`.
    pub fn on_insert(&mut self, frame: usize) {
        debug_assert!(!self.tracked[frame], "frame inserted twice");
        self.tracked[frame] = true;
        self.push_mru(frame);
    }

    /// Called on every access (hit) to frame `frame`.
    pub fn on_access(&mut self, frame: usize) {
        debug_assert!(self.tracked[frame], "access to untracked frame");
        self.unlink(frame);
        self.push_mru(frame);
    }

    /// Picks the least recently used frame for which `evictable` returns
    /// true, stops tracking it, and returns it.
    pub fn evict(&mut self, mut evictable: impl FnMut(usize) -> bool) -> Option<usize> {
        let mut cur = self.head;
        while cur != NIL {
            if evictable(cur) {
                self.tracked[cur] = false;
                self.unlink(cur);
                return Some(cur);
            }
            cur = self.next[cur];
        }
        None
    }

    /// Frames from LRU to MRU (test/diagnostic helper).
    pub fn order(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.head;
        while cur != NIL {
            out.push(cur);
            cur = self.next[cur];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evict_any(p: &mut LruPolicy) -> Option<usize> {
        p.evict(|_| true)
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = LruPolicy::new(4);
        p.on_insert(0);
        p.on_insert(1);
        p.on_insert(2);
        p.on_access(0); // order now 1,2,0
        assert_eq!(evict_any(&mut p), Some(1));
        assert_eq!(evict_any(&mut p), Some(2));
        assert_eq!(evict_any(&mut p), Some(0));
        assert_eq!(evict_any(&mut p), None);
    }

    #[test]
    fn lru_skips_unevictable_frames() {
        let mut p = LruPolicy::new(3);
        p.on_insert(0);
        p.on_insert(1);
        let v = p.evict(|f| f != 0);
        assert_eq!(v, Some(1));
        // Frame 0 is still tracked.
        assert_eq!(evict_any(&mut p), Some(0));
    }

    #[test]
    fn lru_access_moves_to_mru() {
        let mut p = LruPolicy::new(3);
        p.on_insert(0);
        p.on_insert(1);
        p.on_insert(2);
        p.on_access(1);
        p.on_access(0);
        assert_eq!(p.order(), vec![2, 1, 0]);
    }

    #[test]
    fn empty_policy_returns_none() {
        assert_eq!(evict_any(&mut LruPolicy::new(4)), None);
    }
}
