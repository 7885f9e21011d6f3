//! A small intrusive-list LRU cache for the query engine.
//!
//! The serving layer caches assembled contingency tables, keyed by
//! itemset + epoch. The cache needs a strict capacity bound — a
//! long-running server must not grow with the query stream — and O(1)
//! get/insert. A miss is not cached at any finer grain: the table is
//! counted afresh from the segments' bitmap indexes. The cache
//! is a plain slab (`Vec`) of nodes linked into a recency list by index;
//! no unsafe code, no external crates.

use std::collections::HashMap;
use std::hash::Hash;

/// Index sentinel for "no node".
const NIL: usize = usize::MAX;

/// One slab entry: a key/value pair linked into the recency list.
#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used cache.
///
/// # Examples
///
/// ```
/// use bmb_core::lru::LruCache;
///
/// let mut cache = LruCache::with_capacity(2);
/// cache.insert("a", 1);
/// cache.insert("b", 2);
/// assert_eq!(cache.get(&"a"), Some(&1)); // "a" is now most recent
/// assert!(cache.insert("c", 3)); // evicts "b", the least recent
/// assert_eq!(cache.get(&"b"), None);
/// assert_eq!(cache.len(), 2);
/// ```
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    /// Most recently used node, or [`NIL`].
    head: usize,
    /// Least recently used node, or [`NIL`].
    tail: usize,
    /// Recycled slab slots.
    free: Vec<usize>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache evicting beyond `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The eviction bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &idx = self.map.get(key)?;
        self.move_to_front(idx);
        Some(&self.nodes[idx].value)
    }

    /// Inserts (or replaces) `key`, evicting the least recently used
    /// entry if the cache is full. The new entry is most recently used.
    /// Returns `true` when an existing entry was evicted to make room —
    /// the engine feeds this into its per-cache eviction counters.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            self.move_to_front(idx);
            return false;
        }
        let evicted = if self.map.len() >= self.capacity {
            self.evict_tail()
        } else {
            false
        };
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: self.head,
        };
        let idx = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
        self.map.insert(key, idx);
        evicted
    }

    /// Drops every entry, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Unlinks `idx` from the recency list and relinks it at the head.
    fn move_to_front(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        }
        if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
    }

    /// Removes the least recently used entry; `true` if one existed.
    fn evict_tail(&mut self) -> bool {
        let idx = self.tail;
        if idx == NIL {
            return false;
        }
        let prev = self.nodes[idx].prev;
        if prev != NIL {
            self.nodes[prev].next = NIL;
        } else {
            self.head = NIL;
        }
        self.tail = prev;
        self.map.remove(&self.nodes[idx].key);
        self.free.push(idx);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_refreshes_recency() {
        let mut cache = LruCache::with_capacity(2);
        cache.insert(1, "one");
        cache.insert(2, "two");
        assert_eq!(cache.get(&1), Some(&"one"));
        cache.insert(3, "three"); // 2 is LRU now
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some(&"one"));
        assert_eq!(cache.get(&3), Some(&"three"));
    }

    #[test]
    fn replace_updates_value_in_place() {
        let mut cache = LruCache::with_capacity(2);
        cache.insert("k", 1);
        cache.insert("k", 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&"k"), Some(&2));
    }

    #[test]
    fn eviction_order_is_least_recent_first() {
        let mut cache = LruCache::with_capacity(3);
        for i in 0..3 {
            cache.insert(i, i);
        }
        // Touch 0 and 1; 2 becomes LRU.
        cache.get(&0);
        cache.get(&1);
        cache.insert(9, 9);
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn slots_are_recycled() {
        let mut cache = LruCache::with_capacity(2);
        for i in 0..100 {
            cache.insert(i, i);
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.nodes.len() <= 3, "slab must not grow unboundedly");
        assert_eq!(cache.get(&99), Some(&99));
        assert_eq!(cache.get(&98), Some(&98));
    }

    #[test]
    fn insert_reports_evictions() {
        let mut cache = LruCache::with_capacity(2);
        assert!(!cache.insert(1, 1), "room left: no eviction");
        assert!(!cache.insert(2, 2), "room left: no eviction");
        assert!(!cache.insert(1, 10), "replacement is not an eviction");
        assert!(cache.insert(3, 3), "full cache must evict");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_one_works() {
        let mut cache = LruCache::with_capacity(1);
        cache.insert(1, 1);
        cache.insert(2, 2);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.get(&2), Some(&2));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LruCache::<u32, u32>::with_capacity(0);
    }
}
