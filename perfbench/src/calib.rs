//! The host-speed reference: a fixed unit of simulator-like work, timed
//! between the simulator's own runs.
//!
//! On a shared host the simulator's speed drifts with other tenants' load
//! by 10–15% between 20 s windows, and whole runs can land in a slow
//! phase. An ALU-only loop drifts by a third as much, so it cannot stand
//! in for the simulator. This kernel can: a three-level set-associative
//! LRU cache model fed by a seeded mix of strided and random loads, with a
//! backing array read on misses. On a 2-vCPU VM its speed correlated with
//! the simulator's at 0.96 over 10-sample windows, and the ratio of the
//! two varied by 4% where the simulator alone varied by 12%.
//!
//! Simulator rates are reported at the speed of a reference host on which
//! one unit of this kernel runs at [`NOMINAL_RATE`] accesses per second.
//! The kernel is the benchmark's own code, so a change to the program
//! moves the normalized rates exactly as it moves the raw ones.

use std::time::Instant;

/// Accesses in one reference sample (about 70 ms on the reference host).
const OPS: u64 = 1_000_000;

/// Reference accesses per second of the reference host (a 2-vCPU Xeon VM).
pub const NOMINAL_RATE: f64 = 16.0e6;

/// Words of backing memory read on a last-level miss (8 MB).
const MEMORY_WORDS: usize = 1 << 20;

struct Level {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    age: Vec<u32>,
    clock: u32,
}

impl Level {
    fn new(bytes: usize, ways: usize) -> Level {
        let sets = bytes / 64 / ways;
        Level { sets, ways, tags: vec![u64::MAX; sets * ways], age: vec![0; sets * ways], clock: 0 }
    }

    /// Looks `line` up, filling it over the least recently used way on a
    /// miss; true on a hit.
    fn access(&mut self, line: u64) -> bool {
        self.clock = self.clock.wrapping_add(1);
        let set = (line as usize % self.sets) * self.ways;
        let ways = set..set + self.ways;
        if let Some(w) = ways.clone().find(|&w| self.tags[w] == line) {
            self.age[w] = self.clock;
            return true;
        }
        let victim = ways.min_by_key(|&w| self.age[w]).expect("at least one way");
        self.tags[victim] = line;
        self.age[victim] = self.clock;
        false
    }
}

pub struct HostRef {
    memory: Vec<u64>,
    rates: Vec<f64>,
}

impl HostRef {
    pub fn new() -> HostRef {
        HostRef { memory: (0..MEMORY_WORDS as u64).collect(), rates: Vec::new() }
    }

    /// Runs one reference sample; returns the host's speed relative to the
    /// reference host (above 1 = faster).
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.kernel());
        let rate = OPS as f64 / t0.elapsed().as_secs_f64();
        self.rates.push(rate);
        rate / NOMINAL_RATE
    }

    /// Scales `wall` host seconds, timed just after the sample `before`, to
    /// the reference host's speed by the mean of `before` and a sample
    /// taken now; the new sample becomes `before` for the next call.
    pub fn scale(&mut self, wall: f64, before: &mut f64) -> f64 {
        let after = self.sample();
        let norm = wall * (*before + after) / 2.0;
        *before = after;
        norm
    }

    /// Median speed over every sample taken so far (1 before any).
    pub fn speed(&self) -> f64 {
        if self.rates.is_empty() {
            1.0
        } else {
            crate::stats::median(&self.rates) / NOMINAL_RATE
        }
    }

    fn kernel(&self) -> u64 {
        let mut l1 = Level::new(32 << 10, 4);
        let mut l2 = Level::new(1 << 20, 8);
        let mut l3 = Level::new(8 << 20, 16);
        let words = self.memory.len() as u64;
        let (mut x, mut stride, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64, 0u64);
        for i in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = if i % 4 == 0 {
                x % words
            } else {
                stride = (stride + 1) % words;
                stride
            };
            let line = addr / 8;
            if !l1.access(line) && !l2.access(line) && !l3.access(line) {
                acc = acc.wrapping_add(self.memory[addr as usize]);
            }
            acc = acc.wrapping_add(addr);
        }
        acc
    }
}
