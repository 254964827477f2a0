//! Layer unit-cost probes: one kernel per layer, timed from the
//! benchmark's own code.
//!
//! The simulator kernels are those `crates/bench/benches/micro.rs` prints
//! (ISA decode, L1 hit, streaming hierarchy load, DLT observe, trace
//! formation and optimization); the serving kernels cover the `/run` body
//! parser, the hot-result LRU, HTTP request framing, the persist codec,
//! the result store, one short cell, and the engine's cold and recall
//! paths through a store. Each windowed probe reports the median of
//! several windows, per element.

use std::hint::black_box;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdo_core::{Dlt, DltConfig};
use tdo_isa::{decode, encode, AluOp, Cond, Inst, Reg};
use tdo_mem::{Cache, CacheConfig, Hierarchy, MemConfig};
use tdo_server::lru::Lru;
use tdo_sim::{decode_result, encode_result, Cell, PrefetchSetup, Runner, SimConfig, SimResult};
use tdo_trident::{form_trace, opt, TraceId};
use tdo_workloads::Scale;

use crate::stats::median;
use crate::Metrics;

const SAMPLES: usize = 7;
const WINDOW: Duration = Duration::from_millis(20);

/// Median seconds per element of `f`, one call of which handles `elems`
/// elements: calibrated to fill [`WINDOW`], then timed over [`SAMPLES`]
/// windows.
fn per_elem(elems: u64, mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t0.elapsed() >= WINDOW || iters >= 1 << 30 {
            break;
        }
        iters *= 2;
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() / (iters * elems) as f64
        })
        .collect();
    median(&samples)
}

/// The measured instruction count of the short cells the serving probes
/// use (loadgen's cold cells draw from 3000 upward).
const SHORT_INSTS: u64 = 3_000;

fn short_cell(workload: &str, insts: u64) -> Cell {
    let mut cfg = SimConfig::test(PrefetchSetup::SwSelfRepair);
    cfg.measure_insts = insts;
    Cell::new(workload, Scale::Test, cfg)
}

pub fn run_all(m: &mut Metrics, work: &std::path::Path) -> std::io::Result<()> {
    sim_kernels(m);
    serving_kernels(m, work)
}

fn sim_kernels(m: &mut Metrics) {
    let insts = [
        Inst::Op { op: AluOp::Add, ra: Reg::int(1), rb: Reg::int(2), rc: Reg::int(3) },
        Inst::Load { ra: Reg::int(4), rb: Reg::int(5), off: 128, kind: tdo_isa::LoadKind::Int },
        Inst::Prefetch { base: Reg::int(6), off: 8, stride: 64, dist: 17 },
        Inst::Bcond { cond: Cond::Ne, ra: Reg::int(7), disp: -12 },
    ];
    let words: Vec<u64> = insts.iter().map(|i| encode(i).expect("encodable")).collect();
    let s = per_elem(words.len() as u64, || {
        for w in &words {
            black_box(decode(black_box(*w)).expect("decodable"));
        }
    });
    m.set("isa.decode_ns", s * 1e9);

    let mut cache =
        Cache::new(CacheConfig { size_bytes: 64 << 10, assoc: 2, line_bytes: 64, latency: 3 });
    for i in 0..1024u64 {
        cache.insert(i * 64, false);
    }
    let s = per_elem(1024, || {
        for i in 0..1024u64 {
            black_box(cache.lookup(black_box(i * 64)));
        }
    });
    m.set("mem.l1_hit_ns", s * 1e9);

    let s = per_elem(1024, || {
        let mut h = Hierarchy::new(MemConfig::paper_baseline());
        let mut now = 0;
        for i in 0..1024u64 {
            let r = h.load(now, 0x400, 0x10_0000 + i * 8);
            now += r.latency / 4;
        }
        black_box(h.stats.loads());
    });
    m.set("mem.stream_load_ns", s * 1e9);

    let mut dlt = Dlt::new(DltConfig::paper_baseline());
    let s = per_elem(4096, || {
        for i in 0..4096u64 {
            black_box(dlt.observe(0x1000 + (i % 64) * 8, i * 64, i % 8 == 0, 350));
        }
    });
    m.set("core.dlt_observe_ns", s * 1e9);

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
    let words = a.assemble().expect("loop assembles");
    let code: std::collections::HashMap<u64, Inst> = words
        .iter()
        .enumerate()
        .map(|(i, w)| (0x1000 + i as u64 * 8, decode(*w).expect("decodable")))
        .collect();
    let src = move |pc: u64| code.get(&pc).copied();
    let s = per_elem(1, || {
        black_box(form_trace(&src, TraceId(0), 0x1000, 0b1, 1).expect("trace forms"));
    });
    m.set("trident.form_trace_ns", s * 1e9);
    let (trace, _) = form_trace(&src, TraceId(0), 0x1000, 0b1, 1).expect("trace forms");
    let s = per_elem(1, || {
        let mut insts = trace.insts.clone();
        opt::optimize(&mut insts);
        black_box(&insts);
    });
    m.set("trident.optimize_trace_ns", s * 1e9);
}

fn serving_kernels(m: &mut Metrics, work: &std::path::Path) -> std::io::Result<()> {
    let body = "{\"workload\":\"mcf\",\"arm\":\"sr\",\"scale\":\"test\",\"insts\":2000}";
    let s = per_elem(1, || {
        black_box(tdo_server::json::parse_run_body(black_box(body)).expect("valid body"));
    });
    m.set("server.parse_run_body_ns", s * 1e9);

    let cell = short_cell("mcf", SHORT_INSTS);
    let t0 = Instant::now();
    let result: Arc<SimResult> = Arc::new(cell.simulate());
    let first = t0.elapsed().as_secs_f64();
    let s = per_elem(1, || {
        black_box(cell.simulate());
    });
    m.set("sim.short_cell_ms", s.min(first) * 1e3);

    // The LRU at the daemon's default capacity, keyed by real fingerprints.
    let keys: Vec<String> =
        (0..256u64).map(|i| short_cell("mcf", SHORT_INSTS + i).fingerprint()).collect();
    let mut lru: Lru<String, Arc<SimResult>> = Lru::new(256);
    for k in &keys {
        lru.put(k.clone(), Arc::clone(&result));
    }
    let s = per_elem(keys.len() as u64, || {
        for k in &keys {
            black_box(lru.get(k));
        }
    });
    m.set("server.lru_get_ns", s * 1e9);
    let mut small: Lru<String, Arc<SimResult>> = Lru::new(64);
    let s = per_elem(keys.len() as u64, || {
        for k in &keys {
            black_box(small.put(k.clone(), Arc::clone(&result)));
        }
    });
    m.set("server.lru_put_ns", s * 1e9);

    let words = encode_result(&result);
    let s = per_elem(1, || {
        black_box(encode_result(black_box(&result)));
    });
    m.set("sim.persist_encode_us", s * 1e6);
    let s = per_elem(1, || {
        black_box(decode_result(black_box(&words)).expect("round-trips"));
    });
    m.set("sim.persist_decode_us", s * 1e6);

    // The engine's cold path (simulate, encode, fsync'd put) and a fresh
    // engine's recall of the same cells (store get, decode), as a
    // restarted daemon meets them.
    let dir = work.join("probe-engine");
    let cells: Vec<Cell> = (0..16).map(|i| short_cell("mcf", SHORT_INSTS + i)).collect();
    let runner = Runner::with_default_store(1, Some(&dir.display().to_string()));
    let t0 = Instant::now();
    for c in &cells {
        black_box(runner.run_cell(c));
    }
    m.set("sim.engine_cold_cell_us", t0.elapsed().as_secs_f64() / cells.len() as f64 * 1e6);
    drop(runner);
    let recall = Runner::with_default_store(1, Some(&dir.display().to_string()));
    let t0 = Instant::now();
    for c in &cells {
        black_box(recall.run_cell(c));
    }
    m.set("sim.engine_recall_us", t0.elapsed().as_secs_f64() / cells.len() as f64 * 1e6);
    if recall.sims_run() != 0 {
        return Err(std::io::Error::other("engine re-simulated cells its store holds"));
    }
    drop(recall);
    std::fs::remove_dir_all(&dir)?;

    let dir = work.join("probe-store");
    let store = tdo_store::Store::open(&dir)?;
    let mut key = 0u64;
    let s = per_elem(1, || {
        key += 1;
        store.put(key, tdo_sim::SCHEMA_VERSION, &words).expect("store put");
    });
    m.set("store.put_us", s * 1e6);
    let s = per_elem(key, || {
        for k in 1..=key {
            black_box(store.get(k, tdo_sim::SCHEMA_VERSION).expect("stored"));
        }
    });
    m.set("store.get_us", s * 1e6);
    drop(store);
    std::fs::remove_dir_all(&dir)?;

    m.set("server.http_read_request_us", http_read_request_s()? * 1e6);
    Ok(())
}

/// Median seconds for `tdo_server::http::read_request` to frame one
/// single-cell `/run` request that is already buffered on a loopback
/// connection.
fn http_read_request_s() -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let body = "{\"workload\":\"mcf\",\"arm\":\"sr\",\"scale\":\"test\",\"insts\":2000}";
    let request = format!(
        "POST /run HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut samples = Vec::with_capacity(200);
    for _ in 0..200 {
        let mut client = TcpStream::connect(addr)?;
        client.write_all(request.as_bytes())?;
        let (mut server, _) = listener.accept()?;
        let t0 = Instant::now();
        let req = tdo_server::http::read_request(&mut server)?;
        samples.push(t0.elapsed().as_secs_f64());
        black_box(req);
    }
    Ok(median(&samples))
}
