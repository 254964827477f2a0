//! # tdo-arms — the pluggable prefetcher arsenal
//!
//! The paper evaluates exactly one hardware prefetcher: stride-predictor-
//! directed stream buffers. This crate generalizes that machinery into an
//! *arsenal*: a [`Prefetcher`] trait capturing the interactions the memory
//! hierarchy has with a hardware prefetch engine — train on every demand
//! load, probe-and-consume on misses, advance once per access, allocate on
//! misses, snapshot statistics — plus four concrete arms:
//!
//! * [`StreamBuffers`] — the paper's Table 1 baseline, ported verbatim
//!   from `tdo-mem` (Sherwood et al., "Predictor-Directed Stream Buffers",
//!   MICRO 2000);
//! * [`NextLinePrefetcher`] — miss-triggered next-line streaming at a
//!   fixed degree (Smith & Hsu's sequential prefetching);
//! * [`AdaptiveNextLinePrefetcher`] — next-line whose degree is set by the
//!   STATISTICS→BEST_DEGREE hill-climbing state machine of ChampSim's
//!   `next_line_linear_mpki` (sweep every degree, measure the miss rate of
//!   each, commit to the argmin for a long window, repeat);
//! * [`DeltaPrefetcher`] — a PC-stride/GHB-style delta prefetcher that
//!   bursts `degree` strided lines into a shared FIFO queue whenever a
//!   miss's PC has a confident stride.
//!
//! Arms are described by the plain-data [`ArmConfig`] (whose `Debug` form
//! feeds the experiment store's fingerprint in `tdo-sim`) and built with
//! [`ArmConfig::build`]. The hierarchy in `tdo-mem` drives whichever arm is
//! installed through the trait; the policy controller in `tdo-sim` swaps
//! arms at run time using the same call.
//!
//! ## Example
//!
//! ```
//! use tdo_arms::{ArmConfig, NextLineConfig, Prefetcher};
//!
//! let mut arm = ArmConfig::NextLine(NextLineConfig::default()).build(64).unwrap();
//! // A miss at 0x1000 allocates a stream of the next `degree` lines...
//! let (slot, addrs) = arm.consider_allocation(0x400, 0x1000).unwrap();
//! for (i, a) in addrs.iter().enumerate() {
//!     arm.push_fill(slot, *a, 10 + i as u64);
//! }
//! // ...so the next line is now a buffer hit.
//! assert!(arm.probe_and_consume(0x1040).is_some());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adaptive;
pub mod delta;
pub mod nextline;
mod pool;
pub mod stream;
pub mod stride;

pub use adaptive::{AdaptiveNextLineConfig, AdaptiveNextLinePrefetcher};
pub use delta::{DeltaConfig, DeltaPrefetcher};
pub use nextline::{NextLineConfig, NextLinePrefetcher};
pub use stream::{StreamBufferConfig, StreamBuffers};
pub use stride::StridePredictor;

/// Which arm of the arsenal a prefetcher is — the key for per-arm
/// statistics folding and metric labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArmKind {
    /// Stride-predictor-directed stream buffers (the paper baseline).
    Stream,
    /// Fixed-degree next-line streaming.
    NextLine,
    /// Next-line with the hill-climbing degree controller.
    AdaptiveNextLine,
    /// PC-stride/GHB-style delta bursts.
    Delta,
}

impl ArmKind {
    /// Number of arm kinds (sizes the per-arm stat arrays in `tdo-mem`).
    pub const COUNT: usize = 4;

    /// Every kind, in stat-array index order.
    pub const ALL: [ArmKind; ArmKind::COUNT] =
        [ArmKind::Stream, ArmKind::NextLine, ArmKind::AdaptiveNextLine, ArmKind::Delta];

    /// Stable index into per-arm stat arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ArmKind::Stream => 0,
            ArmKind::NextLine => 1,
            ArmKind::AdaptiveNextLine => 2,
            ArmKind::Delta => 3,
        }
    }

    /// Stable short name, used as the `arm` metric label value.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ArmKind::Stream => "stream",
            ArmKind::NextLine => "nextline",
            ArmKind::AdaptiveNextLine => "adanl",
            ArmKind::Delta => "delta",
        }
    }
}

/// A snapshot of one arm's effectiveness counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArmStats {
    /// Lines fetched into the arm's buffers.
    pub issued: u64,
    /// Demand accesses served out of the arm's buffers.
    pub useful: u64,
    /// Streams (or bursts) allocated.
    pub allocations: u64,
}

/// A hit found while probing an arm's buffers.
#[derive(Clone, Copy, Debug)]
pub struct ArmHit {
    /// Cycle at which the hit line's fill completes (may be in the past).
    pub ready_at: u64,
    /// Buffer slot that hit (passed back to
    /// [`Prefetcher::refill_addresses`] to stream it forward).
    pub slot: usize,
}

/// Hard upper bound on entries per buffer slot and per allocation burst
/// (the paper's deepest configuration is 8; the adaptive arm climbs to 16);
/// sizes the inline storage of [`RefillList`] and of every buffer slot.
pub const MAX_STREAM_ENTRIES: usize = 16;

/// Up to one buffer depth of refill addresses, stored inline.
///
/// [`Prefetcher::refill_addresses`] runs after every buffer hit — the
/// hierarchy's hottest prefetcher path — so returning a heap `Vec` there
/// would be a per-access allocation. Dereferences as a `&[u64]`.
#[derive(Clone, Copy, Debug)]
pub struct RefillList {
    addrs: [u64; MAX_STREAM_ENTRIES],
    len: usize,
}

impl RefillList {
    /// The empty list.
    pub const EMPTY: RefillList = RefillList { addrs: [0; MAX_STREAM_ENTRIES], len: 0 };

    #[inline]
    pub(crate) fn push(&mut self, a: u64) {
        self.addrs[self.len] = a;
        self.len += 1;
    }
}

impl std::ops::Deref for RefillList {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.addrs[..self.len]
    }
}

/// One hardware prefetch engine, as seen by the memory hierarchy.
///
/// The hierarchy drives an arm with a fixed call discipline (the one the
/// original stream buffers defined):
///
/// 1. [`Prefetcher::advance`] then [`Prefetcher::train`] once per demand
///    load, in program order;
/// 2. [`Prefetcher::probe_and_consume`] when the L1 misses (or a fill is
///    still in flight); on a hit, [`Prefetcher::refill_addresses`] for the
///    hit slot, then one [`Prefetcher::push_fill`] per returned address
///    carrying the fill's completion time;
/// 3. [`Prefetcher::consider_allocation`] on misses that hit no buffer,
///    followed by the same refill/push discipline for the returned burst;
/// 4. [`Prefetcher::contains`] as a side-effect-free probe (software
///    prefetches skip lines an arm already holds).
///
/// Arms must be deterministic: the same call sequence must produce the same
/// decisions on every run and every platform (no clocks, no randomness).
pub trait Prefetcher {
    /// Which arm this is (keys per-arm statistics and metric labels).
    fn kind(&self) -> ArmKind;

    /// Called once per demand load, before [`Prefetcher::train`], with the
    /// current cycle. Arms with internal state machines (the adaptive
    /// degree controller) step them here; the default is a no-op.
    fn advance(&mut self, _now: u64) {}

    /// Observes a committed demand load. `l1_miss` is true when the load
    /// missed in the L1 tag array (the miss-rate signal adaptive arms feed
    /// on).
    fn train(&mut self, pc: u64, addr: u64, l1_miss: bool);

    /// Whether any buffer currently holds the line containing `addr`
    /// (non-consuming probe).
    fn contains(&self, addr: u64) -> bool;

    /// Probes the arm's buffers for the line containing `addr` and, on a
    /// hit, consumes it (and anything the arm skips past).
    fn probe_and_consume(&mut self, addr: u64) -> Option<ArmHit>;

    /// Addresses slot `slot` wants fetched to return to full depth. Call
    /// after a [`Prefetcher::probe_and_consume`] hit; pair each returned
    /// address with a [`Prefetcher::push_fill`] carrying its fill time.
    fn refill_addresses(&mut self, slot: usize) -> RefillList;

    /// Records a completed fetch request for slot `slot`.
    fn push_fill(&mut self, slot: usize, line_addr: u64, ready_at: u64);

    /// Considers allocating buffer space for a demand miss at `(pc, addr)`.
    /// Returns the slot and the addresses to fetch when the arm decides to
    /// prefetch.
    fn consider_allocation(&mut self, pc: u64, addr: u64) -> Option<(usize, RefillList)>;

    /// Snapshot of the arm's effectiveness counters.
    fn stats(&self) -> ArmStats;
}

/// Plain-data description of one arm (or of no prefetching at all).
///
/// The `Debug` form of this enum is part of every experiment cell's store
/// fingerprint, so variants and fields must stay stable-in-meaning: any
/// semantic change wants a persist schema bump in `tdo-sim`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArmConfig {
    /// No hardware prefetching.
    None,
    /// Stride-predictor-directed stream buffers.
    Stream(StreamBufferConfig),
    /// Fixed-degree next-line streaming.
    NextLine(NextLineConfig),
    /// Next-line with the hill-climbing degree controller.
    AdaptiveNextLine(AdaptiveNextLineConfig),
    /// PC-stride delta bursts.
    Delta(DeltaConfig),
}

impl ArmConfig {
    /// The kind this configuration builds, if any.
    #[must_use]
    pub fn kind(&self) -> Option<ArmKind> {
        match self {
            ArmConfig::None => None,
            ArmConfig::Stream(_) => Some(ArmKind::Stream),
            ArmConfig::NextLine(_) => Some(ArmKind::NextLine),
            ArmConfig::AdaptiveNextLine(_) => Some(ArmKind::AdaptiveNextLine),
            ArmConfig::Delta(_) => Some(ArmKind::Delta),
        }
    }

    /// The stream-buffer configuration, when this arm is one (back-compat
    /// accessor for Table 1 assertions).
    #[must_use]
    pub fn stream(&self) -> Option<StreamBufferConfig> {
        match self {
            ArmConfig::Stream(c) => Some(*c),
            _ => None,
        }
    }

    /// Builds the configured arm for lines of `line_bytes` bytes.
    #[must_use]
    pub fn build(&self, line_bytes: u64) -> Option<Box<dyn Prefetcher>> {
        match self {
            ArmConfig::None => None,
            ArmConfig::Stream(c) => Some(Box::new(StreamBuffers::new(*c, line_bytes))),
            ArmConfig::NextLine(c) => Some(Box::new(NextLinePrefetcher::new(*c, line_bytes))),
            ArmConfig::AdaptiveNextLine(c) => {
                Some(Box::new(AdaptiveNextLinePrefetcher::new(*c, line_bytes)))
            }
            ArmConfig::Delta(c) => Some(Box::new(DeltaPrefetcher::new(*c, line_bytes))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_index_their_stat_slots() {
        for (i, k) in ArmKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        let names: Vec<&str> = ArmKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["stream", "nextline", "adanl", "delta"]);
    }

    #[test]
    fn configs_build_their_kinds() {
        let cfgs = [
            ArmConfig::Stream(StreamBufferConfig::eight_by_eight()),
            ArmConfig::NextLine(NextLineConfig::default()),
            ArmConfig::AdaptiveNextLine(AdaptiveNextLineConfig::default()),
            ArmConfig::Delta(DeltaConfig::default()),
        ];
        for cfg in cfgs {
            let arm = cfg.build(64).expect("builds");
            assert_eq!(Some(arm.kind()), cfg.kind());
            assert_eq!(arm.stats(), ArmStats::default(), "fresh arms have zero stats");
        }
        assert!(ArmConfig::None.build(64).is_none());
        assert_eq!(ArmConfig::None.kind(), None);
    }

    #[test]
    fn refill_list_derefs_to_pushed_prefix() {
        let mut l = RefillList::EMPTY;
        assert!(l.is_empty());
        l.push(10);
        l.push(20);
        assert_eq!(&*l, &[10, 20]);
    }
}
