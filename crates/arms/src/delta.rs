//! A PC-stride/GHB-style delta prefetcher: when a miss's PC has a
//! confident stride, burst `degree` strided lines into a shared FIFO
//! prefetch queue (Nesbit & Smith's GHB stride prefetching, reduced to the
//! per-PC delta case the repo's [`StridePredictor`] captures).
//!
//! Unlike stream buffers there is no per-stream storage and no streaming
//! refill: every confident miss re-bursts from the miss address, and hits
//! consume single queue entries. That makes the arm cheap and quick to
//! re-aim after a phase change, at the cost of stream depth.

use std::collections::VecDeque;

use crate::pool::StreamEntry;
use crate::stride::StridePredictor;
use crate::{ArmHit, ArmKind, ArmStats, Prefetcher, RefillList, MAX_STREAM_ENTRIES};

/// Configuration of the delta arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaConfig {
    /// Entries in the PC-indexed stride history table.
    pub history_entries: usize,
    /// Confidence (0–3) the stride predictor must reach before a miss
    /// bursts prefetches.
    pub allocation_confidence: u8,
    /// Strided lines fetched per confident miss.
    pub degree: usize,
    /// Capacity of the shared FIFO prefetch queue (oldest entries are
    /// evicted when a burst overflows it).
    pub queue_entries: usize,
}

impl Default for DeltaConfig {
    /// The stream-buffer baseline's table and confidence with a degree-4
    /// burst into a 32-entry queue.
    fn default() -> DeltaConfig {
        DeltaConfig {
            history_entries: 1024,
            allocation_confidence: 2,
            degree: 4,
            queue_entries: 32,
        }
    }
}

/// The delta arm.
pub struct DeltaPrefetcher {
    cfg: DeltaConfig,
    predictor: StridePredictor,
    queue: VecDeque<StreamEntry>,
    line_bytes: u64,
    issued: u64,
    useful: u64,
    allocations: u64,
}

impl DeltaPrefetcher {
    /// Builds the arm for lines of `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.degree` exceeds [`MAX_STREAM_ENTRIES`].
    #[must_use]
    pub fn new(cfg: DeltaConfig, line_bytes: u64) -> DeltaPrefetcher {
        assert!(
            cfg.degree <= MAX_STREAM_ENTRIES,
            "delta degree {} exceeds the inline refill-list bound {MAX_STREAM_ENTRIES}",
            cfg.degree
        );
        DeltaPrefetcher {
            predictor: StridePredictor::new(cfg.history_entries),
            queue: VecDeque::with_capacity(cfg.queue_entries),
            cfg,
            line_bytes,
            issued: 0,
            useful: 0,
            allocations: 0,
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }
}

impl Prefetcher for DeltaPrefetcher {
    fn kind(&self) -> ArmKind {
        ArmKind::Delta
    }

    fn train(&mut self, pc: u64, addr: u64, _l1_miss: bool) {
        self.predictor.train(pc, addr);
    }

    fn contains(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        self.queue.iter().any(|e| e.line_addr == line)
    }

    fn probe_and_consume(&mut self, addr: u64) -> Option<ArmHit> {
        let line = self.line_of(addr);
        let pos = self.queue.iter().position(|e| e.line_addr == line)?;
        let hit = self.queue.remove(pos).expect("position just found");
        self.useful += 1;
        Some(ArmHit { ready_at: hit.ready_at, slot: 0 })
    }

    /// Delta bursts never stream forward: hits consume single entries.
    fn refill_addresses(&mut self, _slot: usize) -> RefillList {
        RefillList::EMPTY
    }

    fn push_fill(&mut self, _slot: usize, line_addr: u64, ready_at: u64) {
        let line = self.line_of(line_addr);
        if self.queue.len() >= self.cfg.queue_entries {
            self.queue.pop_front();
        }
        self.issued += 1;
        self.queue.push_back(StreamEntry { line_addr: line, ready_at });
    }

    /// A confident miss bursts `degree` strided lines (sub-line strides are
    /// widened to one line, as in the stream-buffer arm), skipping lines the
    /// queue already holds.
    fn consider_allocation(&mut self, pc: u64, addr: u64) -> Option<(usize, RefillList)> {
        let stride = self.predictor.predict(pc, self.cfg.allocation_confidence)?;
        let line_stride = if stride.unsigned_abs() < self.line_bytes {
            if stride > 0 {
                self.line_bytes as i64
            } else {
                -(self.line_bytes as i64)
            }
        } else {
            stride
        };
        let mut out = RefillList::EMPTY;
        let mut next = addr;
        for _ in 0..self.cfg.degree {
            next = next.wrapping_add(line_stride as u64);
            let line = self.line_of(next);
            if !self.queue.iter().any(|e| e.line_addr == line) {
                out.push(line);
            }
        }
        if out.is_empty() {
            return None;
        }
        self.allocations += 1;
        Some((0, out))
    }

    fn stats(&self) -> ArmStats {
        ArmStats { issued: self.issued, useful: self.useful, allocations: self.allocations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta() -> DeltaPrefetcher {
        DeltaPrefetcher::new(DeltaConfig { queue_entries: 8, ..DeltaConfig::default() }, 64)
    }

    #[test]
    fn confident_miss_bursts_strided_lines() {
        let mut p = delta();
        for i in 0..4u64 {
            p.train(0x10, 0x1000 + i * 128, true);
        }
        let (slot, addrs) = p.consider_allocation(0x10, 0x1180).expect("confident burst");
        assert_eq!(&*addrs, &[0x1200, 0x1280, 0x1300, 0x1380]);
        for (i, a) in addrs.iter().enumerate() {
            p.push_fill(slot, *a, 10 * i as u64);
        }
        let hit = p.probe_and_consume(0x1280).expect("queued line hits");
        assert_eq!(hit.ready_at, 10);
        // Hits consume only their own entry.
        assert!(p.contains(0x1200));
        assert!(!p.contains(0x1280));
        assert!(p.refill_addresses(hit.slot).is_empty(), "no streaming refill");
    }

    #[test]
    fn unconfident_pcs_burst_nothing() {
        let mut p = delta();
        p.train(0x20, 0x2000, true);
        p.train(0x20, 0x2400, true);
        assert!(p.consider_allocation(0x20, 0x2400).is_none());
    }

    #[test]
    fn queued_lines_are_not_rebursted() {
        let mut p = delta();
        for i in 0..4u64 {
            p.train(0x30, 0x3000 + i * 64, true);
        }
        let (slot, addrs) = p.consider_allocation(0x30, 0x30c0).unwrap();
        for a in addrs.iter() {
            p.push_fill(slot, *a, 0);
        }
        // The same miss again: every target line is queued, so no burst.
        assert!(p.consider_allocation(0x30, 0x30c0).is_none());
        assert_eq!(p.stats().allocations, 1);
    }

    #[test]
    fn queue_is_a_bounded_fifo() {
        let mut p = delta();
        for i in 0..12u64 {
            p.push_fill(0, 0x9000 + i * 64, 0);
        }
        assert_eq!(p.stats().issued, 12);
        assert!(!p.contains(0x9000), "oldest entries evicted");
        assert!(p.contains(0x9000 + 11 * 64));
    }

    #[test]
    fn sub_line_strides_widen_to_a_line() {
        let mut p = delta();
        for i in 0..5u64 {
            p.train(0x40, 0x4000 + i * 8, true);
        }
        let (_, addrs) = p.consider_allocation(0x40, 0x4020).unwrap();
        assert_eq!(addrs[0], 0x4040);
        assert_eq!(addrs[1] - addrs[0], 64);
    }
}
