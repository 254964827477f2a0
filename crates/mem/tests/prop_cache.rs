//! Randomized tests: the set-associative cache agrees with a naive reference
//! LRU model, and the hierarchy maintains its latency/class invariants on
//! arbitrary access streams. (Seeded `tdo_rand` sweeps; `--features
//! exhaustive` widens them.)

use std::collections::VecDeque;

use tdo_mem::{Cache, CacheConfig, Hierarchy, LoadClass, MemConfig, ServiceLevel};
use tdo_rand::{cases, Rng};

/// Reference model: per-set LRU lists of line addresses.
struct RefLru {
    sets: Vec<VecDeque<u64>>,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
}

impl RefLru {
    fn new(cfg: &CacheConfig) -> RefLru {
        RefLru {
            sets: (0..cfg.num_sets()).map(|_| VecDeque::new()).collect(),
            assoc: cfg.assoc as usize,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: cfg.num_sets() - 1,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = &mut self.sets[(line & self.set_mask) as usize];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            set.push_back(line);
            true
        } else {
            set.push_back(line);
            if set.len() > self.assoc {
                set.pop_front();
            }
            false
        }
    }
}

#[test]
fn cache_matches_reference_lru() {
    let mut rng = Rng::new(0x3e3_0001);
    for case in 0..cases(256) {
        let cfg = CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 64, latency: 3 };
        let mut cache = Cache::new(cfg);
        let mut reference = RefLru::new(&cfg);
        let n = rng.gen_range(1..300);
        for _ in 0..n {
            let a = rng.gen_range(0..4096);
            let model_hit = reference.access(a);
            let real_hit = match cache.lookup(a) {
                Some(_) => true,
                None => {
                    cache.insert(a, false);
                    false
                }
            };
            assert_eq!(real_hit, model_hit, "case {case}: divergence at addr {a:#x}");
        }
    }
}

#[test]
fn hierarchy_latency_and_class_invariants() {
    let mut rng = Rng::new(0x3e3_0002);
    for case in 0..cases(256) {
        let mut h = Hierarchy::new(MemConfig::tiny_for_tests());
        let mut now = 0u64;
        let n = rng.gen_range(1..400);
        for _ in 0..n {
            let kind = rng.gen_range(0..3);
            let addr = rng.gen_range(0..1 << 16);
            match kind {
                0 => {
                    let r = h.load(now, 0x1000 + (addr & 0xff), addr);
                    let l1_lat = h.config().l1.latency;
                    assert!(r.latency >= l1_lat, "case {case}");
                    if (r.class == LoadClass::Hit || r.class == LoadClass::HitPrefetched)
                        && r.level == ServiceLevel::L1
                    {
                        assert_eq!(r.latency, l1_lat, "case {case}");
                        assert!(!r.l1_miss, "case {case}");
                    }
                    if r.class == LoadClass::Miss || r.class == LoadClass::MissDueToPrefetch {
                        assert!(r.l1_miss, "case {case}");
                    }
                    now += r.latency / 2; // overlap accesses a little
                }
                1 => {
                    h.store(now, 0x2000, addr);
                    now += 1;
                }
                _ => {
                    h.sw_prefetch(now, 0x3000, addr);
                    now += 1;
                }
            }
        }
        let s = &h.stats;
        assert_eq!(
            s.loads(),
            s.hits + s.hits_prefetched + s.partial_hits + s.misses + s.misses_due_to_prefetch,
            "case {case}"
        );
        assert!(s.total_miss_latency <= s.total_load_latency, "case {case}");
    }
}

#[test]
fn hierarchy_with_streams_never_misclassifies_hits() {
    let mut rng = Rng::new(0x3e3_0003);
    for case in 0..cases(128) {
        let stride = *rng.choose(&[8u64, 64, 128, 256]);
        let n = rng.gen_range(16..128);
        let mut cfg = MemConfig::tiny_for_tests();
        cfg.arm = tdo_mem::ArmConfig::Stream(tdo_mem::StreamBufferConfig::four_by_four());
        let mut h = Hierarchy::new(cfg);
        let mut now = 0u64;
        for i in 0..n {
            let r = h.load(now, 0x4242, 0x10_0000 + i * stride);
            now += r.latency + 50;
        }
        // Every load is accounted for exactly once.
        assert_eq!(h.stats.loads(), n, "case {case}: stride {stride}");
    }
}

/// Reference model for the full cache interface: the way records before
/// the tag-array layout — one `Line` per way, victim = first invalid way
/// else the least recently stamped.
#[derive(Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u64,
    prefetched: bool,
    dirty: bool,
    last_use: u64,
}

struct LineScanCache {
    lines: Vec<Line>,
    ways: usize,
    set_mask: u64,
    line_shift: u32,
    tag_shift: u32,
    stamp: u64,
}

/// `(first_touch_of_prefetch)` of a hit, and `(line, untouched, dirty)` of
/// an eviction — the observable outputs both models are compared on.
type Evicted = (u64, bool, bool);

impl LineScanCache {
    fn new(cfg: &CacheConfig) -> LineScanCache {
        let sets = cfg.num_sets();
        LineScanCache {
            lines: vec![Line::default(); (sets * u64::from(cfg.assoc)) as usize],
            ways: cfg.assoc as usize,
            set_mask: sets - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tag_shift: (sets - 1).count_ones(),
            stamp: 0,
        }
    }

    fn find(&self, addr: u64) -> Option<usize> {
        let line = addr >> self.line_shift;
        let base = (line & self.set_mask) as usize * self.ways;
        let tag = line >> self.tag_shift;
        let set = &self.lines[base..base + self.ways];
        set.iter().position(|l| l.valid && l.tag == tag).map(|i| base + i)
    }

    fn lookup(&mut self, addr: u64) -> Option<bool> {
        let i = self.find(addr)?;
        self.stamp += 1;
        let l = &mut self.lines[i];
        l.last_use = self.stamp;
        Some(std::mem::take(&mut l.prefetched))
    }

    fn insert(&mut self, addr: u64, prefetched: bool) -> Option<Evicted> {
        self.stamp += 1;
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways;
        let tag = line >> self.tag_shift;
        if let Some(i) = self.find(addr) {
            self.lines[i].last_use = self.stamp;
            return None;
        }
        let ways = &self.lines[base..base + self.ways];
        let v = base
            + ways.iter().position(|l| !l.valid).unwrap_or_else(|| {
                ways.iter().enumerate().min_by_key(|(_, l)| l.last_use).expect("assoc > 0").0
            });
        let old = self.lines[v];
        self.lines[v] = Line { valid: true, tag, prefetched, dirty: false, last_use: self.stamp };
        old.valid.then(|| {
            let line = (old.tag << self.tag_shift) | set as u64;
            (line << self.line_shift, old.prefetched, old.dirty)
        })
    }

    fn mark_dirty(&mut self, addr: u64) -> bool {
        self.find(addr).map(|i| self.lines[i].dirty = true).is_some()
    }

    fn invalidate(&mut self, addr: u64) {
        if let Some(i) = self.find(addr) {
            self.lines[i].valid = false;
        }
    }
}

#[test]
fn tag_array_cache_matches_line_scan_model_on_every_operation() {
    let mut rng = Rng::new(0x3e3_0004);
    let (mut evictions, mut dirty_evictions, mut invalidations) = (0, 0, 0);
    for case in 0..cases(256) {
        let assoc = *rng.choose(&[1u32, 2, 4, 8]);
        let sets = 1u64 << rng.gen_range(0..5);
        let line_bytes = *rng.choose(&[32u64, 64]);
        let cfg = CacheConfig {
            size_bytes: sets * u64::from(assoc) * line_bytes,
            assoc,
            line_bytes,
            latency: 3,
        };
        let mut cache = Cache::new(cfg);
        let mut model = LineScanCache::new(&cfg);
        // Twice as many distinct lines as the cache holds: hits, misses
        // and evictions all occur.
        let span = 2 * sets * u64::from(assoc) * line_bytes;
        for step in 0..rng.gen_range(1..400) {
            let addr = rng.gen_range(0..span);
            let at = format!("case {case} step {step} addr {addr:#x}");
            match rng.gen_range(0..10) {
                0..=3 => {
                    let hit = cache.lookup(addr).map(|h| h.first_touch_of_prefetch);
                    assert_eq!(hit, model.lookup(addr), "lookup, {at}");
                }
                4 => assert_eq!(cache.probe(addr), model.find(addr).is_some(), "probe, {at}"),
                5..=7 => {
                    let pf = rng.gen_bool(0.3);
                    let ev = cache
                        .insert(addr, pf)
                        .map(|e| (e.line_addr, e.was_untouched_prefetch, e.was_dirty));
                    let want = model.insert(addr, pf);
                    assert_eq!(ev, want, "insert victim, {at}");
                    evictions += usize::from(ev.is_some());
                    dirty_evictions += usize::from(ev.is_some_and(|e| e.2));
                }
                8 => assert_eq!(cache.mark_dirty(addr), model.mark_dirty(addr), "mark_dirty, {at}"),
                _ => {
                    invalidations += usize::from(cache.probe(addr));
                    cache.invalidate(addr);
                    model.invalidate(addr);
                    assert!(!cache.probe(addr), "invalidated line is gone, {at}");
                }
            }
        }
    }
    assert!(evictions > 0 && dirty_evictions > 0, "sweep reaches victim choice");
    assert!(invalidations > 0, "sweep empties ways that later fills reuse");
}
