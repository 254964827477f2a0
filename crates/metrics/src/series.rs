//! Time-series retention for a [`Registry`]: a fixed-capacity, seqlock
//! snapshot ring of periodic samples — the continuous-health plane behind
//! `GET /metrics/history` and `tdo top`.
//!
//! A [`Series`] holds the last `capacity` *rows*; each row is one integer
//! timestamp (a logical tick supplied by the sampler, never wall clock)
//! plus one value per *column*. Columns come from
//! [`Registry::sample_columns`]: every registered counter and gauge is one
//! column, every histogram expands into its cumulative buckets plus
//! `sum`/`count` — so windowed quantiles can be recovered from row deltas
//! with [`crate::quantile_from_buckets`].
//!
//! Concurrency model: exactly one writer (the sampler tick) and any number
//! of readers. The ring is a seqlock — the writer bumps a sequence word to
//! odd, stores the row, bumps it to even; readers retry until they observe
//! a stable even sequence. Readers never block the writer and the writer
//! never blocks readers; all state is `AtomicU64`, no allocation after
//! construction.
//!
//! Memory bound: `capacity * (1 + width)` words, fixed at construction.
//! A 64-row ring over a 120-column registry is ~62 KiB, forever.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Instrument, Registry, TOTAL_BUCKETS};

/// Version stamped into every encoded snapshot; bump on any layout change.
pub const SERIES_SCHEMA_VERSION: u64 = 1;

/// How a column combines across snapshots: counters add, gauges take the
/// maximum (both commutative, so merge order cannot matter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColKind {
    /// Monotone cumulative count (includes histogram buckets/sum/count).
    Counter,
    /// Point-in-time level.
    Gauge,
}

/// One sampling column: its stable name and combine kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// `family{labels}` series name, suffixed `#bN`/`#sum`/`#count` for
    /// histogram expansions.
    pub name: String,
    /// Combine kind under [`SeriesSnapshot::merge`].
    pub kind: ColKind,
}

impl Registry {
    /// Samples every registered instrument whose series name passes `keep`
    /// into `(column, value)` pairs, in the registry's deterministic
    /// render order (sorted by family, then label set).
    ///
    /// Counters and gauges yield one column each; a histogram yields its
    /// `TOTAL_BUCKETS` *cumulative* bucket counts (`#b0`..`#b32`, the same
    /// `le`-cumulative form the exposition renders) then `#sum` and
    /// `#count`. Call once at startup for the schema and once per tick for
    /// values: registration is append-only, so as long as `keep` is pure
    /// the column list for a fixed registry population never changes.
    #[must_use]
    pub fn sample_columns(&self, keep: &dyn Fn(&str) -> bool) -> Vec<(Column, u64)> {
        let entries = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            (&entries[a].family, &entries[a].labels).cmp(&(&entries[b].family, &entries[b].labels))
        });
        let mut out = Vec::new();
        for &i in &order {
            let e = &entries[i];
            let name = format!("{}{}", e.family, crate::label_block(&e.labels, None));
            if !keep(&name) {
                continue;
            }
            let col = |suffix: &str, kind| Column { name: format!("{name}{suffix}"), kind };
            match &e.inst {
                Instrument::Counter(c) => out.push((col("", ColKind::Counter), c.get())),
                Instrument::Gauge(g) => out.push((col("", ColKind::Gauge), g.get())),
                Instrument::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cum = 0u64;
                    for (b, n) in snap.buckets.iter().enumerate() {
                        cum += n;
                        out.push((col(&format!("#b{b}"), ColKind::Counter), cum));
                    }
                    out.push((col("#sum", ColKind::Counter), snap.sum));
                    out.push((col("#count", ColKind::Counter), snap.count));
                }
            }
        }
        out
    }
}

/// Reassembles a histogram's per-bucket counts from `width` consecutive
/// cumulative-bucket columns (the `#b0..#b32` block a histogram expands
/// into), e.g. to feed [`crate::quantile_from_buckets`].
#[must_use]
pub fn buckets_from_cumulative(cum: &[u64]) -> [u64; TOTAL_BUCKETS] {
    let mut out = [0u64; TOTAL_BUCKETS];
    let mut prev = 0u64;
    for (i, slot) in out.iter_mut().enumerate() {
        let c = cum.get(i).copied().unwrap_or(prev);
        *slot = c.saturating_sub(prev);
        prev = c;
    }
    out
}

/// Columns a run-latency histogram occupies (`#b0..#b32`, `#sum`,
/// `#count`).
pub const HISTOGRAM_COLUMNS: usize = TOTAL_BUCKETS + 2;

/// One retained sample row: a logical tick plus one value per column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesRow {
    /// The sampler's logical tick when the row was appended.
    pub tick: u64,
    /// Column values, in schema order.
    pub values: Vec<u64>,
}

/// An owned, consistent copy of a [`Series`]' contents.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SeriesSnapshot {
    /// Retained rows, oldest first.
    pub rows: Vec<SeriesRow>,
}

/// The fixed-capacity seqlock ring described in the module docs.
pub struct Series {
    width: usize,
    capacity: usize,
    /// Rows ever appended (head = appended % capacity).
    appended: AtomicU64,
    /// Seqlock word: odd while the writer is mid-row.
    seq: AtomicU64,
    /// `capacity` slots of `1 + width` words: tick then values.
    slots: Vec<AtomicU64>,
}

impl Series {
    /// A ring retaining the last `capacity` rows of `width` columns.
    #[must_use]
    pub fn new(capacity: usize, width: usize) -> Series {
        let capacity = capacity.max(1);
        Series {
            width,
            capacity,
            appended: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            slots: (0..capacity * (1 + width)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Columns per row.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Maximum retained rows.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows ever appended (≥ retained rows once the ring wraps).
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Acquire)
    }

    /// Appends one row, overwriting the oldest when full. Single-writer:
    /// concurrent `push` calls must be externally serialized (the sampler
    /// tick is the only writer by construction).
    ///
    /// # Panics
    ///
    /// Panics when `values.len()` differs from the ring's width.
    pub fn push(&self, tick: u64, values: &[u64]) {
        assert_eq!(values.len(), self.width, "row width must match the ring");
        let n = self.appended.load(Ordering::Relaxed);
        let base = usize::try_from(n % self.capacity as u64).expect("capacity fits usize")
            * (1 + self.width);
        self.seq.fetch_add(1, Ordering::AcqRel); // odd: row is torn
        self.slots[base].store(tick, Ordering::Relaxed);
        for (i, v) in values.iter().enumerate() {
            self.slots[base + 1 + i].store(*v, Ordering::Relaxed);
        }
        self.appended.store(n + 1, Ordering::Release);
        self.seq.fetch_add(1, Ordering::AcqRel); // even: row is whole
    }

    /// A consistent copy of the retained rows, oldest first. Lock-free:
    /// retries while a writer is mid-append.
    #[must_use]
    pub fn snapshot(&self) -> SeriesSnapshot {
        loop {
            let s0 = self.seq.load(Ordering::Acquire);
            if s0 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let appended = self.appended.load(Ordering::Acquire);
            let retained = usize::try_from(appended.min(self.capacity as u64)).expect("capped");
            let first = appended - retained as u64;
            let mut rows = Vec::with_capacity(retained);
            for r in first..appended {
                let base =
                    usize::try_from(r % self.capacity as u64).expect("fits") * (1 + self.width);
                let tick = self.slots[base].load(Ordering::Relaxed);
                let values =
                    (0..self.width).map(|i| self.slots[base + 1 + i].load(Ordering::Relaxed));
                rows.push(SeriesRow { tick, values: values.collect() });
            }
            if self.seq.load(Ordering::Acquire) == s0 {
                return SeriesSnapshot { rows };
            }
        }
    }
}

impl SeriesSnapshot {
    /// The last `window` rows (all rows when `window` is 0 or larger than
    /// the retained set).
    #[must_use]
    pub fn window(&self, window: usize) -> SeriesSnapshot {
        let n = self.rows.len();
        let keep = if window == 0 { n } else { window.min(n) };
        SeriesSnapshot { rows: self.rows[n - keep..].to_vec() }
    }

    /// Windowed deltas between consecutive rows: counter columns become
    /// per-window increments (saturating at 0 so a restarted counter reads
    /// as quiet, not as underflow), gauge columns keep their raw level.
    /// Returns one row per input row after the first, stamped with the
    /// later row's tick.
    #[must_use]
    pub fn deltas(&self, kinds: &[ColKind]) -> Vec<SeriesRow> {
        self.rows
            .windows(2)
            .map(|w| SeriesRow {
                tick: w[1].tick,
                values: w[1]
                    .values
                    .iter()
                    .zip(&w[0].values)
                    .zip(kinds)
                    .map(|((cur, prev), kind)| match kind {
                        ColKind::Counter => cur.saturating_sub(*prev),
                        ColKind::Gauge => *cur,
                    })
                    .collect(),
            })
            .collect()
    }

    /// Merges two snapshots of the *same schema* deterministically: rows
    /// are keyed by tick; where both sides have a tick, counter columns
    /// add and gauge columns take the maximum. Both combines are
    /// commutative and associative, so `merge(a, b) == merge(b, a)` and
    /// shard merge order cannot change the result.
    #[must_use]
    pub fn merge(&self, other: &SeriesSnapshot, kinds: &[ColKind]) -> SeriesSnapshot {
        let mut rows: Vec<SeriesRow> = Vec::with_capacity(self.rows.len() + other.rows.len());
        let (mut a, mut b) = (self.rows.iter().peekable(), other.rows.iter().peekable());
        loop {
            let row = match (a.peek(), b.peek()) {
                (None, None) => break,
                (Some(_), None) => a.next().expect("peeked").clone(),
                (None, Some(_)) => b.next().expect("peeked").clone(),
                (Some(ra), Some(rb)) if ra.tick < rb.tick => a.next().expect("peeked").clone(),
                (Some(ra), Some(rb)) if rb.tick < ra.tick => b.next().expect("peeked").clone(),
                (Some(_), Some(_)) => {
                    let (ra, rb) = (a.next().expect("peeked"), b.next().expect("peeked"));
                    SeriesRow {
                        tick: ra.tick,
                        values: ra
                            .values
                            .iter()
                            .zip(&rb.values)
                            .zip(kinds)
                            .map(|((va, vb), kind)| match kind {
                                ColKind::Counter => va.wrapping_add(*vb),
                                ColKind::Gauge => (*va).max(*vb),
                            })
                            .collect(),
                    }
                }
            };
            rows.push(row);
        }
        SeriesSnapshot { rows }
    }

    /// Encodes the snapshot as a versioned, integer-only word stream:
    /// `[version, width, rows, (tick, values...)*]`.
    #[must_use]
    pub fn encode(&self) -> Vec<u64> {
        let width = self.rows.first().map_or(0, |r| r.values.len());
        let mut out = Vec::with_capacity(3 + self.rows.len() * (1 + width));
        out.push(SERIES_SCHEMA_VERSION);
        out.push(width as u64);
        out.push(self.rows.len() as u64);
        for row in &self.rows {
            out.push(row.tick);
            out.extend_from_slice(&row.values);
        }
        out
    }

    /// Decodes [`SeriesSnapshot::encode`] output. Returns `None` on a
    /// version mismatch or any structural damage — a stale or truncated
    /// history is dropped, never misread.
    #[must_use]
    pub fn decode(words: &[u64]) -> Option<SeriesSnapshot> {
        let (&version, rest) = words.split_first()?;
        if version != SERIES_SCHEMA_VERSION {
            return None;
        }
        let (&width, rest) = rest.split_first()?;
        let (&rows, rest) = rest.split_first()?;
        let width = usize::try_from(width).ok()?;
        let rows = usize::try_from(rows).ok()?;
        let per = width.checked_add(1)?;
        if rest.len() != rows.checked_mul(per)? {
            return None;
        }
        Some(SeriesSnapshot {
            rows: rest
                .chunks_exact(per)
                .map(|c| SeriesRow { tick: c[0], values: c[1..].to_vec() })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds2() -> Vec<ColKind> {
        vec![ColKind::Counter, ColKind::Gauge]
    }

    #[test]
    fn ring_retains_the_last_capacity_rows_in_order() {
        let s = Series::new(4, 2);
        for t in 1..=6u64 {
            s.push(t, &[t * 10, t * 100]);
        }
        let snap = s.snapshot();
        assert_eq!(s.appended(), 6);
        assert_eq!(snap.rows.len(), 4);
        assert_eq!(snap.rows[0], SeriesRow { tick: 3, values: vec![30, 300] });
        assert_eq!(snap.rows[3], SeriesRow { tick: 6, values: vec![60, 600] });
        assert_eq!(snap.window(2).rows[0].tick, 5);
        assert_eq!(snap.window(0).rows.len(), 4, "window 0 keeps everything");
    }

    #[test]
    fn snapshots_are_never_torn_under_a_concurrent_writer() {
        // Every row is written as [tick, tick+1]; any snapshot mixing words
        // from two pushes breaks that invariant.
        let s = Series::new(8, 1);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for t in 1..=20_000u64 {
                    s.push(t, &[t + 1]);
                }
            });
            for _ in 0..2_000 {
                for row in s.snapshot().rows {
                    assert_eq!(row.values[0], row.tick + 1, "torn row");
                }
            }
            writer.join().expect("writer");
        });
    }

    #[test]
    fn deltas_subtract_counters_and_keep_gauges() {
        let snap = SeriesSnapshot {
            rows: vec![
                SeriesRow { tick: 1, values: vec![10, 7] },
                SeriesRow { tick: 2, values: vec![25, 3] },
                SeriesRow { tick: 3, values: vec![5, 9] }, // counter reset
            ],
        };
        let d = snap.deltas(&kinds2());
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], SeriesRow { tick: 2, values: vec![15, 3] });
        assert_eq!(d[1], SeriesRow { tick: 3, values: vec![0, 9] }, "reset clamps to 0");
    }

    #[test]
    fn merge_is_commutative_and_tick_keyed() {
        let a = SeriesSnapshot {
            rows: vec![
                SeriesRow { tick: 1, values: vec![5, 2] },
                SeriesRow { tick: 3, values: vec![8, 9] },
            ],
        };
        let b = SeriesSnapshot {
            rows: vec![
                SeriesRow { tick: 2, values: vec![1, 1] },
                SeriesRow { tick: 3, values: vec![4, 3] },
            ],
        };
        let ab = a.merge(&b, &kinds2());
        assert_eq!(ab, b.merge(&a, &kinds2()), "merge order cannot matter");
        assert_eq!(ab.rows.iter().map(|r| r.tick).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(ab.rows[2], SeriesRow { tick: 3, values: vec![12, 9] });
    }

    #[test]
    fn codec_round_trips_and_rejects_damage() {
        let snap = SeriesSnapshot {
            rows: vec![
                SeriesRow { tick: 7, values: vec![1, 2, 3] },
                SeriesRow { tick: 8, values: vec![4, 5, 6] },
            ],
        };
        let words = snap.encode();
        assert_eq!(words[0], SERIES_SCHEMA_VERSION);
        assert_eq!(SeriesSnapshot::decode(&words), Some(snap.clone()));
        assert_eq!(SeriesSnapshot::decode(&words[..words.len() - 1]), None, "truncated");
        let mut stale = words.clone();
        stale[0] = SERIES_SCHEMA_VERSION + 1;
        assert_eq!(SeriesSnapshot::decode(&stale), None, "future version");
        assert_eq!(SeriesSnapshot::decode(&[]), None);
        // A width whose row size overflows is damage, not a panic.
        for rest in [&[][..], &[0], &[0, 1]] {
            let words = [&[SERIES_SCHEMA_VERSION, u64::MAX, 1][..], rest].concat();
            assert_eq!(SeriesSnapshot::decode(&words), None, "width overflow");
        }
        assert_eq!(
            SeriesSnapshot::decode(&SeriesSnapshot::default().encode()),
            Some(SeriesSnapshot::default()),
            "empty snapshot round-trips"
        );
    }

    #[test]
    fn registry_columns_expand_histograms_cumulatively() {
        let reg = Registry::new();
        let c = reg.counter("tdo_test_reqs_total", &[("endpoint", "run")], "Requests.");
        let g = reg.gauge("tdo_test_depth", &[], "Depth.");
        let h = reg.histogram("tdo_test_lat_us", &[], "Latency.");
        c.add(3);
        g.set(9);
        h.observe(3);
        h.observe(5);
        let cols = reg.sample_columns(&|_| true);
        assert_eq!(cols.len(), 2 + HISTOGRAM_COLUMNS);
        assert_eq!(cols[0].0.name, "tdo_test_depth");
        assert_eq!(cols[0].1, 9);
        let by_name = |n: &str| cols.iter().find(|(c, _)| c.name == n).expect(n).1;
        assert_eq!(by_name("tdo_test_lat_us#b2"), 1, "cumulative through le=4");
        assert_eq!(by_name("tdo_test_lat_us#b3"), 2);
        assert_eq!(by_name("tdo_test_lat_us#b32"), 2, "+Inf bucket is the total");
        assert_eq!(by_name("tdo_test_lat_us#count"), 2);
        assert_eq!(by_name("tdo_test_reqs_total{endpoint=\"run\"}"), 3);
        let filtered = reg.sample_columns(&|n| !n.contains("lat_us"));
        assert_eq!(filtered.len(), 2, "filter drops whole instruments");
        let cum: Vec<u64> =
            (0..TOTAL_BUCKETS).map(|b| by_name(&format!("tdo_test_lat_us#b{b}"))).collect();
        let per = buckets_from_cumulative(&cum);
        assert_eq!(per[2], 1);
        assert_eq!(per[3], 1);
        assert_eq!(per.iter().sum::<u64>(), 2);
    }
}
