//! Set-associative, LRU, tag-only cache model.

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Full access latency in cycles when this level hits.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (not a power-of-two set count).
    #[must_use]
    pub fn num_sets(&self) -> u64 {
        let sets = self.size_bytes / (self.line_bytes * u64::from(self.assoc));
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Tag of an empty way. Real tags are `addr >> (line_shift + index bits)`
/// with `line_shift >= 1`, so they never reach `u64::MAX`.
const INVALID: u64 = u64::MAX;

/// Per-way state bit: brought in by a prefetch and not yet touched by a
/// demand access (drives the Figure 6 breakdown).
const PREFETCHED: u8 = 1;

/// Per-way state bit: written by a store; a dirty victim costs a
/// write-back bus transfer.
const DIRTY: u8 = 2;

/// Result of a demand lookup that hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HitInfo {
    /// True when this was the first demand touch of a prefetched line.
    pub first_touch_of_prefetch: bool,
}

/// Result of inserting a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line address (full address of the first byte).
    pub line_addr: u64,
    /// Whether the victim was itself an untouched prefetched line.
    pub was_untouched_prefetch: bool,
    /// Whether the victim was dirty (requires a write-back).
    pub was_dirty: bool,
}

/// A tag-only set-associative cache with true-LRU replacement.
///
/// Ways are stored as three parallel arrays — tags, LRU stamps, state
/// bits — so a walk scans only the `assoc` tags of one set, and victim
/// choice scans only their stamps. An empty way has tag [`INVALID`] and
/// stamp 0; every fill or touch stamps a way with a fresh clock value of
/// at least 1, so the first minimum-stamp way of a set is its first empty
/// way when one exists and its least recently used way otherwise.
///
/// All geometry derived from the configuration — set mask, tag shift, way
/// count — is precomputed at construction, so the per-access walk is one
/// shift/mask/multiply plus a short tag scan with no recomputation.
pub struct Cache {
    cfg: CacheConfig,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    bits: Vec<u8>,
    set_mask: u64,
    line_shift: u32,
    /// `tag = line >> tag_shift` (index bits removed); equals
    /// `set_mask.count_ones()`.
    tag_shift: u32,
    /// Associativity, as the walk loops' native index type.
    ways: usize,
    stamp: u64,
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two or lines are smaller
    /// than two bytes.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.num_sets();
        assert!(cfg.line_bytes >= 2, "line size must be at least two bytes");
        let n = (sets * u64::from(cfg.assoc)) as usize;
        Cache {
            cfg,
            tags: vec![INVALID; n],
            stamps: vec![0; n],
            bits: vec![0; n],
            set_mask: sets - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tag_shift: (sets - 1).count_ones(),
            ways: cfg.assoc as usize,
            stamp: 0,
        }
    }

    /// This cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The set index and tag of `addr`.
    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.tag_shift)
    }

    /// The read-only half of every walk: locates the way holding `addr`,
    /// returning its index. Shared by the hit paths of [`Cache::lookup`],
    /// [`Cache::probe`], [`Cache::mark_dirty`] and [`Cache::invalidate`],
    /// which differ only in what they mutate after finding it.
    #[inline]
    fn find(&self, addr: u64) -> Option<usize> {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.ways;
        self.tags[base..base + self.ways].iter().position(|&t| t == tag).map(|i| base + i)
    }

    /// Demand lookup: returns hit info and clears the line's prefetch bit.
    ///
    /// Takes `&mut self` by necessity, not convenience: a demand hit is not
    /// a read-only operation in this model. True-LRU replacement must stamp
    /// the line's recency on every touch, and the Figure 6 accounting
    /// consumes the line's prefetched bit on the first demand touch. The
    /// genuinely read-only probe is [`Cache::probe`] (backed by the shared
    /// [`Cache::find`] walk); callers that only need presence use that.
    pub fn lookup(&mut self, addr: u64) -> Option<HitInfo> {
        let i = self.find(addr)?;
        self.stamp += 1;
        self.stamps[i] = self.stamp;
        let first = self.bits[i] & PREFETCHED != 0;
        self.bits[i] &= !PREFETCHED;
        Some(HitInfo { first_touch_of_prefetch: first })
    }

    /// Probe without updating LRU or prefetch state.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Inserts the line containing `addr`, evicting the LRU way if needed.
    ///
    /// `prefetched` marks the line as prefetch-fetched (first demand touch
    /// will report [`HitInfo::first_touch_of_prefetch`]).
    pub fn insert(&mut self, addr: u64, prefetched: bool) -> Option<Eviction> {
        self.stamp += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.ways;
        // Already present: refresh.
        if let Some(i) = self.tags[base..base + self.ways].iter().position(|&t| t == tag) {
            self.stamps[base + i] = self.stamp;
            return None;
        }
        // First empty way, else the least recently used one.
        let (i, _) = self.stamps[base..base + self.ways]
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .expect("assoc > 0");
        let v = base + i;
        let evicted = (self.tags[v] != INVALID).then(|| {
            let line = (self.tags[v] << self.tag_shift) | set as u64;
            Eviction {
                line_addr: line << self.line_shift,
                was_untouched_prefetch: self.bits[v] & PREFETCHED != 0,
                was_dirty: self.bits[v] & DIRTY != 0,
            }
        });
        self.tags[v] = tag;
        self.stamps[v] = self.stamp;
        self.bits[v] = if prefetched { PREFETCHED } else { 0 };
        evicted
    }

    /// Marks the line containing `addr` dirty, if present. Returns whether
    /// the line was found.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        match self.find(addr) {
            Some(i) => {
                self.bits[i] |= DIRTY;
                true
            }
            None => false,
        }
    }

    /// Invalidates the line containing `addr`, if present.
    pub fn invalidate(&mut self, addr: u64) {
        if let Some(i) = self.find(addr) {
            self.tags[i] = INVALID;
            self.stamps[i] = 0;
        }
    }

    /// Address of the first byte of the line containing `addr`.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        Cache::new(CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 64, latency: 3 })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().num_sets(), 2);
        assert_eq!(c.line_addr(0x7f), 0x40);
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = tiny();
        assert!(c.lookup(0x0).is_none());
        c.insert(0x0, false);
        assert!(c.lookup(0x0).is_some());
        assert!(c.lookup(0x40).is_none(), "different set");
        assert!(c.lookup(0x100).is_none(), "same set, different tag");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines 0x000, 0x080, 0x100... (stride 128 with 2 sets).
        c.insert(0x000, false);
        c.insert(0x080, false);
        c.lookup(0x000); // touch 0x000, making 0x080 the LRU
        let ev = c.insert(0x100, false).expect("eviction");
        assert_eq!(ev.line_addr, 0x080);
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
    }

    #[test]
    fn prefetch_bit_reports_first_touch_only() {
        let mut c = tiny();
        c.insert(0x0, true);
        assert_eq!(c.lookup(0x0), Some(HitInfo { first_touch_of_prefetch: true }));
        assert_eq!(c.lookup(0x0), Some(HitInfo { first_touch_of_prefetch: false }));
    }

    #[test]
    fn eviction_reports_untouched_prefetch_victims() {
        let mut c = tiny();
        c.insert(0x000, true);
        c.insert(0x080, false);
        c.lookup(0x080);
        // 0x000 (still untouched prefetch) is LRU.
        let ev = c.insert(0x100, false).unwrap();
        assert_eq!(ev.line_addr, 0x000);
        assert!(ev.was_untouched_prefetch);
    }

    #[test]
    fn reinserting_present_line_does_not_evict() {
        let mut c = tiny();
        c.insert(0x000, false);
        c.insert(0x080, false);
        assert!(c.insert(0x000, false).is_none());
        assert!(c.probe(0x080));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(0x0, false);
        c.invalidate(0x0);
        assert!(!c.probe(0x0));
    }

    #[test]
    fn eviction_reconstructs_full_line_address() {
        // 4 sets x 1 way: line addr must reconstruct the set bits too.
        let mut c =
            Cache::new(CacheConfig { size_bytes: 256, assoc: 1, line_bytes: 64, latency: 1 });
        c.insert(0x1c0, false); // set 3
        let ev = c.insert(0x3c0, false).unwrap();
        assert_eq!(ev.line_addr, 0x1c0);
    }
}
