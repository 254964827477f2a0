//! Differential tests: the stream-buffer and next-line arms, whose slots
//! store their lines in fixed inline arrays, against a reference model of
//! the same arms built on `VecDeque` slots (the storage they replaced).
//! Both are driven through the hierarchy's call discipline by seeded
//! `tdo_rand` streams and must agree on every returned value.

use std::collections::VecDeque;

use tdo_arms::{
    ArmHit, NextLineConfig, NextLinePrefetcher, Prefetcher, StreamBufferConfig, StreamBuffers,
    StridePredictor, MAX_STREAM_ENTRIES,
};
use tdo_rand::{cases, Rng};

const LINE: u64 = 64;

#[derive(Default)]
struct RefSlot {
    valid: bool,
    entries: VecDeque<(u64, u64)>,
    stride: i64,
    next_addr: u64,
    last_use: u64,
}

/// The reference arm: a stream-buffer arm when `predictor` is set, else a
/// fixed-degree next-line arm (whose duplicate check ignores stride).
struct RefArm {
    predictor: Option<(StridePredictor, u8)>,
    slots: Vec<RefSlot>,
    depth: usize,
    clock: u64,
    stats: [u64; 3],
    /// Coverage: hits past the head of a slot, slots filled to the inline
    /// capacity, and allocations that evict a live stream.
    middle_hits: u64,
    full_slots: u64,
    reallocations: u64,
}

impl RefArm {
    fn new(buffers: usize, depth: usize, predictor: Option<(StridePredictor, u8)>) -> RefArm {
        RefArm {
            predictor,
            slots: (0..buffers).map(|_| RefSlot::default()).collect(),
            depth,
            clock: 0,
            stats: [0; 3],
            middle_hits: 0,
            full_slots: 0,
            reallocations: 0,
        }
    }

    fn line_of(addr: u64) -> u64 {
        addr & !(LINE - 1)
    }

    fn train(&mut self, pc: u64, addr: u64) {
        if let Some((p, _)) = self.predictor.as_mut() {
            p.train(pc, addr);
        }
    }

    fn contains(&self, addr: u64) -> bool {
        let line = Self::line_of(addr);
        self.slots.iter().any(|b| b.valid && b.entries.iter().any(|e| e.0 == line))
    }

    fn probe_and_consume(&mut self, addr: u64) -> Option<(u64, usize)> {
        let line = Self::line_of(addr);
        self.clock += 1;
        for (i, b) in self.slots.iter_mut().enumerate() {
            if !b.valid {
                continue;
            }
            if let Some(pos) = b.entries.iter().position(|e| e.0 == line) {
                let ready = b.entries[pos].1;
                b.entries.drain(..=pos);
                b.last_use = self.clock;
                self.stats[1] += 1;
                self.middle_hits += u64::from(pos > 0);
                return Some((ready, i));
            }
        }
        None
    }

    fn refill_addresses(&mut self, slot: usize) -> Vec<u64> {
        let b = &mut self.slots[slot];
        if !b.valid {
            return Vec::new();
        }
        let need = self.depth.saturating_sub(b.entries.len());
        (0..need)
            .map(|_| {
                let a = b.next_addr;
                b.next_addr = b.next_addr.wrapping_add(b.stride as u64);
                a
            })
            .collect()
    }

    fn push_fill(&mut self, slot: usize, line_addr: u64, ready_at: u64) {
        self.stats[0] += 1;
        let entries = &mut self.slots[slot].entries;
        entries.push_back((Self::line_of(line_addr), ready_at));
        self.full_slots += u64::from(entries.len() == MAX_STREAM_ENTRIES);
    }

    fn consider_allocation(&mut self, pc: u64, addr: u64) -> Option<(usize, Vec<u64>)> {
        let (stride, next_addr, match_stride) = match self.predictor.as_ref() {
            Some((p, confidence)) => {
                let s = p.predict(pc, *confidence)?;
                let s = match s {
                    s if s.unsigned_abs() >= LINE => s,
                    s if s > 0 => LINE as i64,
                    _ => -(LINE as i64),
                };
                (s, addr.wrapping_add(s as u64), true)
            }
            None => (LINE as i64, Self::line_of(addr) + LINE, false),
        };
        self.clock += 1;
        let first = Self::line_of(next_addr);
        if self.slots.iter().any(|b| {
            b.valid
                && (!match_stride || b.stride == stride)
                && (Self::line_of(b.next_addr) == first || b.entries.iter().any(|e| e.0 == first))
        }) {
            return None;
        }
        let victim = self.slots.iter().position(|b| !b.valid).unwrap_or_else(|| {
            self.reallocations += 1;
            self.slots.iter().enumerate().min_by_key(|(_, b)| b.last_use).expect("slots").0
        });
        let b = &mut self.slots[victim];
        b.valid = true;
        b.entries.clear();
        b.stride = stride;
        b.next_addr = next_addr;
        b.last_use = self.clock;
        self.stats[2] += 1;
        Some((victim, self.refill_addresses(victim)))
    }
}

/// Drives `arm` and `model` with one seeded access stream, following the
/// hierarchy's call order, and compares every answer.
fn drive(arm: &mut dyn Prefetcher, model: &mut RefArm, rng: &mut Rng, case: u32) {
    // A few load PCs, each walking its own stride; occasional jumps start
    // new streams and skips land on lines deep inside a buffer.
    let strides = [64i64, 128, -64, 8, 192];
    let mut cursors: Vec<(u64, i64, u64)> = (0..4u64)
        .map(|i| (0x400 + i * 4, *rng.choose(&strides), 0x10_0000 + i * 0x1_0000))
        .collect();
    let mut now = 0u64;
    for step in 0..rng.gen_range(50..600) {
        let k = rng.gen_index(cursors.len());
        let (pc, stride, at) = &mut cursors[k];
        match rng.gen_range(0..20) {
            0 => *at = 0x10_0000 + rng.gen_range(0..64) * 0x1000, // a new stream
            1..=3 => *at = at.wrapping_add((*stride * 2) as u64), // skip ahead
            _ => {}
        }
        *at = at.wrapping_add(*stride as u64);
        let (pc, addr) = (*pc, *at);
        let ctx = format!("case {case} step {step} pc {pc:#x} addr {addr:#x}");
        now += rng.gen_range(1..40);

        arm.advance(now);
        arm.train(pc, addr, true);
        model.train(pc, addr);
        if rng.gen_range(0..8) == 0 {
            let probe = addr.wrapping_add(rng.gen_range(0..8) * LINE);
            assert_eq!(arm.contains(probe), model.contains(probe), "contains, {ctx}");
        }
        let hit = arm.probe_and_consume(addr).map(|ArmHit { ready_at, slot }| (ready_at, slot));
        assert_eq!(hit, model.probe_and_consume(addr), "probe_and_consume, {ctx}");
        let burst = match hit {
            Some((_, slot)) => {
                let got = arm.refill_addresses(slot);
                assert_eq!(&*got, &model.refill_addresses(slot)[..], "refill, {ctx}");
                Some((slot, got))
            }
            None => {
                let got = arm.consider_allocation(pc, addr);
                let want = model.consider_allocation(pc, addr);
                assert_eq!(
                    got.as_ref().map(|(s, a)| (*s, a.to_vec())),
                    want,
                    "consider_allocation, {ctx}"
                );
                got
            }
        };
        if let Some((slot, addrs)) = burst {
            for &a in addrs.iter() {
                let ready = now + rng.gen_range(0..400);
                arm.push_fill(slot, a, ready);
                model.push_fill(slot, a, ready);
            }
        }
        let s = arm.stats();
        assert_eq!([s.issued, s.useful, s.allocations], model.stats, "stats, {ctx}");
    }
}

fn assert_covered(model: &RefArm, what: &str) {
    assert!(model.middle_hits > 0, "{what}: no hit drained through a middle entry");
    assert!(model.full_slots > 0, "{what}: no slot filled to capacity");
    assert!(model.reallocations > 0, "{what}: no live stream was re-allocated");
}

#[test]
fn stream_buffers_match_the_vecdeque_model() {
    let mut rng = Rng::new(0xa4a5_0001);
    let mut total = RefArm::new(0, 0, None);
    for case in 0..cases(128) {
        let cfg = StreamBufferConfig {
            buffers: *rng.choose(&[1usize, 2, 4, 8]),
            entries_per_buffer: *rng.choose(&[1usize, 4, 8, 16]),
            history_entries: 64,
            allocation_confidence: *rng.choose(&[1u8, 2]),
        };
        let mut arm = StreamBuffers::new(cfg, LINE);
        let predictor = StridePredictor::new(cfg.history_entries);
        let mut model = RefArm::new(
            cfg.buffers,
            cfg.entries_per_buffer,
            Some((predictor, cfg.allocation_confidence)),
        );
        drive(&mut arm, &mut model, &mut rng, case);
        total.middle_hits += model.middle_hits;
        total.full_slots += model.full_slots;
        total.reallocations += model.reallocations;
    }
    assert_covered(&total, "stream");
}

#[test]
fn next_line_pool_matches_the_vecdeque_model() {
    let mut rng = Rng::new(0xa4a5_0002);
    let mut total = RefArm::new(0, 0, None);
    for case in 0..cases(128) {
        let cfg = NextLineConfig {
            buffers: *rng.choose(&[1usize, 2, 4, 8]),
            degree: *rng.choose(&[1usize, 3, 8, 16]),
        };
        let mut arm = NextLinePrefetcher::new(cfg, LINE);
        let mut model = RefArm::new(cfg.buffers, cfg.degree, None);
        drive(&mut arm, &mut model, &mut rng, case);
        total.middle_hits += model.middle_hits;
        total.full_slots += model.full_slots;
        total.reallocations += model.reallocations;
    }
    assert_covered(&total, "next-line");
}
