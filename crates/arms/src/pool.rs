//! The stream-buffer pool shared by the stream-buffer and next-line arms:
//! a fixed set of slots, each one FIFO of prefetched lines that runs ahead
//! of a demand stream.
//!
//! Every demand L1 miss probes every slot, and every software prefetch
//! asks whether any slot holds its line, so a slot stores its entries in
//! one inline array of at most [`MAX_STREAM_ENTRIES`] `(line, ready)`
//! pairs and keeps the band of lines they span. A probe outside the band
//! costs two compares; one inside is a short contiguous scan with no heap
//! indirection.

use crate::{ArmHit, ArmStats, RefillList, MAX_STREAM_ENTRIES};

/// One prefetched line sitting in a buffer.
#[derive(Clone, Copy)]
pub(crate) struct StreamEntry {
    /// Line-aligned address.
    pub(crate) line_addr: u64,
    /// Cycle at which the fill completes.
    pub(crate) ready_at: u64,
}

/// One stream: its queued lines (oldest first) and where it goes next.
///
/// A slot is live once allocated; a never-allocated slot has `stride == 0`
/// (a live stream always moves) and `last_use == 0` (the pool clock is
/// bumped before every stamp), so it holds nothing, matches no stream, and
/// is the first pick of the LRU victim scan.
#[derive(Clone, Copy)]
struct Slot {
    entries: [StreamEntry; MAX_STREAM_ENTRIES],
    len: usize,
    /// Lowest and highest queued line (`lo > hi` when empty): most probes
    /// miss every slot, and the band rejects them without a scan.
    lo: u64,
    hi: u64,
    stride: i64,
    next_addr: u64,
    last_use: u64,
}

impl Slot {
    const EMPTY: Slot = Slot {
        entries: [StreamEntry { line_addr: 0, ready_at: 0 }; MAX_STREAM_ENTRIES],
        len: 0,
        lo: u64::MAX,
        hi: 0,
        stride: 0,
        next_addr: 0,
        last_use: 0,
    };

    #[inline]
    fn queued(&self) -> &[StreamEntry] {
        &self.entries[..self.len]
    }

    #[inline]
    fn position(&self, line: u64) -> Option<usize> {
        if line < self.lo || line > self.hi {
            return None;
        }
        self.queued().iter().position(|e| e.line_addr == line)
    }

    fn push(&mut self, e: StreamEntry) {
        self.entries[self.len] = e;
        self.len += 1;
        self.lo = self.lo.min(e.line_addr);
        self.hi = self.hi.max(e.line_addr);
    }

    /// Drops the entries up to and including `pos`.
    fn consume_through(&mut self, pos: usize) {
        self.entries.copy_within(pos + 1..self.len, 0);
        self.len -= pos + 1;
        let lines = self.entries[..self.len].iter().map(|e| e.line_addr);
        self.lo = lines.clone().min().unwrap_or(u64::MAX);
        self.hi = lines.max().unwrap_or(0);
    }
}

/// The slots of one arm plus its effectiveness counters.
pub(crate) struct StreamPool {
    slots: Vec<Slot>,
    line_bytes: u64,
    clock: u64,
    stats: ArmStats,
}

impl StreamPool {
    pub(crate) fn new(slots: usize, line_bytes: u64) -> StreamPool {
        StreamPool {
            slots: vec![Slot::EMPTY; slots],
            line_bytes,
            clock: 0,
            stats: ArmStats::default(),
        }
    }

    pub(crate) fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    pub(crate) fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    pub(crate) fn stats(&self) -> ArmStats {
        self.stats
    }

    /// Whether any slot holds the line containing `addr`.
    pub(crate) fn contains(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        self.slots.iter().any(|s| s.position(line).is_some())
    }

    /// Finds the first slot holding the line containing `addr` and consumes
    /// its entries up to and including that line.
    pub(crate) fn probe_and_consume(&mut self, addr: u64) -> Option<ArmHit> {
        let line = self.line_of(addr);
        self.clock += 1;
        for (i, s) in self.slots.iter_mut().enumerate() {
            if let Some(pos) = s.position(line) {
                let ready_at = s.entries[pos].ready_at;
                s.consume_through(pos);
                s.last_use = self.clock;
                self.stats.useful += 1;
                return Some(ArmHit { ready_at, slot: i });
            }
        }
        None
    }

    /// The addresses that bring slot `slot` back to `depth` queued lines,
    /// advancing its stream past them. A slot already at or above `depth`
    /// (a shrunk depth) asks for nothing and drains through demand hits.
    pub(crate) fn refill_addresses(&mut self, slot: usize, depth: usize) -> RefillList {
        let mut out = RefillList::EMPTY;
        let s = &mut self.slots[slot];
        if s.stride == 0 {
            return out;
        }
        for _ in s.len..depth {
            out.push(s.next_addr);
            s.next_addr = s.next_addr.wrapping_add(s.stride as u64);
        }
        out
    }

    /// Queues a fetched line at the tail of slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot already holds [`MAX_STREAM_ENTRIES`] lines (only
    /// possible if the caller pushes more lines than a refill asked for).
    pub(crate) fn push_fill(&mut self, slot: usize, line_addr: u64, ready_at: u64) {
        let line = self.line_of(line_addr);
        self.stats.issued += 1;
        self.slots[slot].push(StreamEntry { line_addr: line, ready_at });
    }

    /// Allocates a stream of `stride` starting at `next_addr` in the least
    /// recently used slot, unless a live stream of the same stride already
    /// holds, or is about to fetch, the line it would start with. Returns
    /// the slot and its first `depth` addresses.
    pub(crate) fn allocate(
        &mut self,
        next_addr: u64,
        stride: i64,
        depth: usize,
    ) -> Option<(usize, RefillList)> {
        self.clock += 1;
        let first = self.line_of(next_addr);
        if self.slots.iter().any(|s| {
            s.stride == stride
                && (self.line_of(s.next_addr) == first || s.position(first).is_some())
        }) {
            return None;
        }
        let (victim, _) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.last_use)
            .expect("at least one buffer");
        self.slots[victim] = Slot { stride, next_addr, last_use: self.clock, ..Slot::EMPTY };
        self.stats.allocations += 1;
        Some((victim, self.refill_addresses(victim, depth)))
    }
}
