//! Stride-predictor-directed stream buffers — the paper's *hardware*
//! prefetching baseline (Table 1: "8 stream buffers; each buffer 8 entries;
//! history table 1024 entries; prefetching is guided by a stride predictor"),
//! after Sherwood et al., "Predictor-Directed Stream Buffers" (MICRO 2000)
//! and Farkas et al.'s per-PC stride predictor.
//!
//! On a demand L1 miss the buffers are probed in parallel with the lower
//! hierarchy; a buffer hit promotes the line to L1 and streams the buffer
//! forward. A miss in all buffers trains the per-PC stride predictor and,
//! once the predictor is confident, allocates a buffer (LRU) that runs ahead
//! of the load.
//!
//! Ported from `tdo-mem` behind the [`Prefetcher`] trait, with the buffers
//! kept in the slot pool the next-line arms share; the call sequence and
//! every decision are bit-identical to the pre-arsenal implementation.

use crate::pool::StreamPool;
use crate::stride::StridePredictor;
use crate::{ArmHit, ArmKind, ArmStats, Prefetcher, RefillList, MAX_STREAM_ENTRIES};

/// Configuration of the hardware stream-buffer prefetcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamBufferConfig {
    /// Number of independent stream buffers.
    pub buffers: usize,
    /// Entries (prefetched lines) per buffer.
    pub entries_per_buffer: usize,
    /// Entries in the PC-indexed stride history table.
    pub history_entries: usize,
    /// Confidence (0–3) the stride predictor must reach before a buffer is
    /// allocated for a missing load.
    pub allocation_confidence: u8,
}

impl StreamBufferConfig {
    /// The paper's 4-buffer × 4-entry configuration (Figure 2).
    #[must_use]
    pub fn four_by_four() -> StreamBufferConfig {
        StreamBufferConfig {
            buffers: 4,
            entries_per_buffer: 4,
            history_entries: 1024,
            allocation_confidence: 2,
        }
    }

    /// The paper's 8-buffer × 8-entry baseline configuration.
    #[must_use]
    pub fn eight_by_eight() -> StreamBufferConfig {
        StreamBufferConfig {
            buffers: 8,
            entries_per_buffer: 8,
            history_entries: 1024,
            allocation_confidence: 2,
        }
    }
}

/// The set of stream buffers.
pub struct StreamBuffers {
    cfg: StreamBufferConfig,
    predictor: StridePredictor,
    pool: StreamPool,
}

impl StreamBuffers {
    /// Builds the buffer set for lines of `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.entries_per_buffer` exceeds [`MAX_STREAM_ENTRIES`].
    #[must_use]
    pub fn new(cfg: StreamBufferConfig, line_bytes: u64) -> StreamBuffers {
        assert!(
            cfg.entries_per_buffer <= MAX_STREAM_ENTRIES,
            "buffer depth {} exceeds the inline refill-list bound {MAX_STREAM_ENTRIES}",
            cfg.entries_per_buffer
        );
        StreamBuffers {
            predictor: StridePredictor::new(cfg.history_entries),
            cfg,
            pool: StreamPool::new(cfg.buffers, line_bytes),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &StreamBufferConfig {
        &self.cfg
    }
}

impl Prefetcher for StreamBuffers {
    fn kind(&self) -> ArmKind {
        ArmKind::Stream
    }

    /// Trains the stride predictor with a committed load (the predictor
    /// trains on every access, hit or miss, exactly as before).
    fn train(&mut self, pc: u64, addr: u64, _l1_miss: bool) {
        self.predictor.train(pc, addr);
    }

    fn contains(&self, addr: u64) -> bool {
        self.pool.contains(addr)
    }

    /// Probes all buffers for the line containing `addr` and, on a hit,
    /// consumes entries up to and including it.
    fn probe_and_consume(&mut self, addr: u64) -> Option<ArmHit> {
        self.pool.probe_and_consume(addr)
    }

    fn refill_addresses(&mut self, slot: usize) -> RefillList {
        self.pool.refill_addresses(slot, self.cfg.entries_per_buffer)
    }

    fn push_fill(&mut self, slot: usize, line_addr: u64, ready_at: u64) {
        self.pool.push_fill(slot, line_addr, ready_at);
    }

    /// Considers allocating a buffer for a demand miss at `(pc, addr)`:
    /// allocates (LRU victim) when the stride predictor is confident and
    /// the miss does not already stream.
    fn consider_allocation(&mut self, pc: u64, addr: u64) -> Option<(usize, RefillList)> {
        let stride = self.predictor.predict(pc, self.cfg.allocation_confidence)?;
        // Skip tiny strides inside one line: next-line behaviour is already
        // covered by stride-1-line streams; a zero line-delta stream is useless.
        let line_bytes = self.pool.line_bytes();
        let line_stride = if stride.unsigned_abs() < line_bytes {
            if stride > 0 {
                line_bytes as i64
            } else {
                -(line_bytes as i64)
            }
        } else {
            stride
        };
        self.pool.allocate(
            addr.wrapping_add(line_stride as u64),
            line_stride,
            self.cfg.entries_per_buffer,
        )
    }

    fn stats(&self) -> ArmStats {
        self.pool.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb() -> StreamBuffers {
        StreamBuffers::new(StreamBufferConfig::four_by_four(), 64)
    }

    #[test]
    fn allocation_requires_confidence() {
        let mut s = sb();
        s.train(0x10, 0x1000, true);
        assert!(s.consider_allocation(0x10, 0x1000).is_none());
        for i in 1..4u64 {
            s.train(0x10, 0x1000 + i * 64, true);
        }
        let (buf, addrs) = s.consider_allocation(0x10, 0x10c0).expect("allocates");
        assert_eq!(addrs.len(), 4);
        assert_eq!(addrs[0], 0x1100);
        assert_eq!(addrs[1], 0x1140);
        for (i, a) in addrs.iter().enumerate() {
            s.push_fill(buf, *a, 100 + i as u64);
        }
        // Now the streamed line hits.
        let hit = s.probe_and_consume(0x1100).expect("buffer hit");
        assert_eq!(hit.ready_at, 100);
        assert_eq!(s.stats().useful, 1);
    }

    #[test]
    fn hit_consumes_preceding_entries_and_reports_refills() {
        let mut s = sb();
        for i in 0..5u64 {
            s.train(0x20, 0x2000 + i * 64, true);
        }
        let (buf, addrs) = s.consider_allocation(0x20, 0x2100).unwrap();
        for a in addrs.iter() {
            s.push_fill(buf, *a, 0);
        }
        // Hit the third entry: two earlier entries are skipped.
        let third = addrs[2];
        let hit = s.probe_and_consume(third).unwrap();
        assert_eq!(hit.slot, buf);
        let refills = s.refill_addresses(buf);
        assert_eq!(refills.len(), 3, "three entries consumed, three refills");
        assert_eq!(refills[0], addrs[3] + 64);
    }

    #[test]
    fn sub_line_strides_stream_whole_lines() {
        let mut s = sb();
        for i in 0..6u64 {
            s.train(0x30, 0x3000 + i * 8, true);
        }
        let (_, addrs) = s.consider_allocation(0x30, 0x3028).unwrap();
        assert_eq!(addrs[1] - addrs[0], 64, "line-granular streaming");
    }

    #[test]
    fn duplicate_streams_are_not_allocated() {
        let mut s = sb();
        for i in 0..5u64 {
            s.train(0x40, 0x4000 + i * 64, true);
        }
        let (buf, addrs) = s.consider_allocation(0x40, 0x4100).unwrap();
        for a in addrs.iter() {
            s.push_fill(buf, *a, 0);
        }
        assert!(s.consider_allocation(0x40, 0x4100).is_none());
        assert_eq!(s.stats().allocations, 1);
    }

    #[test]
    fn probe_miss_returns_none() {
        let mut s = sb();
        assert!(s.probe_and_consume(0x9999).is_none());
        assert_eq!(s.stats().useful, 0);
    }
}
