//! Micro-benchmarks of the substrates: how fast the simulator's building
//! blocks run on the host (useful when sizing longer experiments).
//!
//! Formerly criterion-based; now a self-contained `std::time` harness so the
//! workspace builds with no external dependencies. Run with
//! `cargo bench -p tdo-bench`. Each benchmark is timed over enough
//! iterations to exceed a minimum measurement window and reports the median
//! of several samples.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tdo_core::{Dlt, DltConfig};
use tdo_isa::{decode, encode, AluOp, Cond, Inst, Reg};
use tdo_mem::{Cache, CacheConfig, Hierarchy, MemConfig};
use tdo_sim::{PrefetchSetup, SimConfig};
use tdo_trident::{form_trace, opt, CodeSource, TraceId};
use tdo_workloads::{build, Scale};

const SAMPLES: usize = 7;
const MIN_WINDOW: Duration = Duration::from_millis(20);

/// Times `f` (a whole pass over `elems` elements) and prints ns/element
/// throughput: median over [`SAMPLES`] windows of at least [`MIN_WINDOW`].
fn bench(name: &str, elems: u64, mut f: impl FnMut()) {
    // Calibrate: how many passes fill the window?
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t0.elapsed() >= MIN_WINDOW || iters > 1 << 30 {
            break;
        }
        iters *= 2;
    }
    let mut per_elem: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() / (iters * elems) as f64 * 1e9
        })
        .collect();
    per_elem.sort_by(f64::total_cmp);
    let median = per_elem[SAMPLES / 2];
    let rate = 1e9 / median;
    println!("{name:<28} {median:>10.1} ns/elem   {rate:>12.0} elem/s");
}

fn bench_encode_decode() {
    let insts = [
        Inst::Op { op: AluOp::Add, ra: Reg::int(1), rb: Reg::int(2), rc: Reg::int(3) },
        Inst::Load { ra: Reg::int(4), rb: Reg::int(5), off: 128, kind: tdo_isa::LoadKind::Int },
        Inst::Prefetch { base: Reg::int(6), off: 8, stride: 64, dist: 17 },
        Inst::Bcond { cond: Cond::Ne, ra: Reg::int(7), disp: -12 },
    ];
    let words: Vec<u64> = insts.iter().map(|i| encode(i).unwrap()).collect();
    bench("isa/encode", insts.len() as u64, || {
        for i in &insts {
            black_box(encode(black_box(i)).unwrap());
        }
    });
    bench("isa/decode", insts.len() as u64, || {
        for w in &words {
            black_box(decode(black_box(*w)).unwrap());
        }
    });
}

fn bench_cache() {
    let cfg = CacheConfig { size_bytes: 64 << 10, assoc: 2, line_bytes: 64, latency: 3 };
    let mut cache = Cache::new(cfg);
    for i in 0..1024u64 {
        cache.insert(i * 64, false);
    }
    bench("mem/l1_lookup_hit", 1024, || {
        for i in 0..1024u64 {
            black_box(cache.lookup(black_box(i * 64)));
        }
    });
    // Built once: `Hierarchy::new` costs far more than a pass of loads.
    // The walk continues across passes, so every pass streams fresh lines.
    let mut h = Hierarchy::new(MemConfig::paper_baseline());
    let (mut now, mut addr) = (0u64, 0x10_0000u64);
    bench("mem/hierarchy_load_stream", 1024, || {
        for _ in 0..1024 {
            let r = h.load(now, 0x400, addr);
            now += r.latency / 4;
            addr += 8;
        }
        black_box(h.stats.loads());
    });
}

fn bench_dlt() {
    let mut dlt = Dlt::new(DltConfig::paper_baseline());
    bench("dlt/observe", 4096, || {
        for i in 0..4096u64 {
            black_box(dlt.observe(0x1000 + (i % 64) * 8, i * 64, i % 8 == 0, 350));
        }
    });
}

fn bench_trace() {
    // A 32-instruction loop body to form and optimize.
    let mut a = tdo_isa::Asm::new(0x1000);
    a.label("head");
    for i in 0..28u8 {
        a.op_imm(AluOp::Add, Reg::int(1 + i % 8), 1, Reg::int(1 + i % 8));
    }
    a.ldq(Reg::int(9), Reg::int(10), 0);
    a.lda(Reg::int(10), Reg::int(10), 8);
    a.op_imm(AluOp::Sub, Reg::int(11), 1, Reg::int(11));
    a.bcond_to(Cond::Ne, Reg::int(11), "head");
    let words = a.assemble().unwrap();
    let map: std::collections::HashMap<u64, Inst> = words
        .iter()
        .enumerate()
        .map(|(i, w)| (0x1000 + i as u64 * 8, decode(*w).unwrap()))
        .collect();
    let src = move |pc: u64| map.get(&pc).copied();
    let _: &dyn CodeSource = &src;

    bench("trident/form_trace_32", 1, || {
        black_box(form_trace(&src, TraceId(0), 0x1000, 0b1, 1).unwrap());
    });
    let (trace, _) = form_trace(&src, TraceId(0), 0x1000, 0b1, 1).unwrap();
    bench("trident/optimize_trace_32", 1, || {
        let mut insts = trace.insts.clone();
        opt::optimize(&mut insts);
        black_box(&insts);
    });
}

fn bench_full_sim() {
    let w = build("mcf", Scale::Test).unwrap();
    let mut cfg = SimConfig::test(PrefetchSetup::SwSelfRepair);
    cfg.warmup_insts = 10_000;
    cfg.measure_insts = 90_000;
    bench("sim/mcf_100k_insts_selfrepair", 100_000, || {
        black_box(tdo_sim::run(&w, &cfg));
    });
}

fn main() {
    println!("{:<28} {:>18} {:>15}", "benchmark", "time", "throughput");
    println!("{}", "-".repeat(64));
    bench_encode_decode();
    bench_cache();
    bench_dlt();
    bench_trace();
    bench_full_sim();
}
