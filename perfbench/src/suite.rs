//! `sim_suite`: all 14 suite workloads at paper scale under self-repair,
//! one cell after another on one thread, with no store — the inner loop of
//! `run_all` and fig5.
//!
//! A *cell* is this workload's request and one pass over the suite its
//! batch. Each cell's wall time is scaled to the reference host's speed
//! (see [`crate::calib`]) by host-speed samples taken around it, and the
//! suite runs several passes. Every cell's result is checked against a
//! pinned persist-codec digest.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tdo_sim::{
    encode_result, run, run_profiled, MachineProfile, PrefetchSetup, SimConfig, SimResult,
};
use tdo_workloads::{build, names, Scale, Workload};

use crate::calib::HostRef;
use crate::stats::{median, ratio, sum, tail};
use crate::trace::Tracer;
use crate::{Metrics, Run};

/// `name digest` per suite cell: FNV-1a 64 over the little-endian bytes of
/// `encode_result`. Regenerate with `--pin-digests` only when the
/// simulator's results are meant to change.
const PINNED: &str = include_str!("../suite_digests.txt");

/// Seconds of `--seconds` budgeted per suite pass; fixes the pass count
/// (and so the sample count) independently of how fast the program is.
const PASS_BUDGET_S: f64 = 6.0;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Largest share, in percent, of the traced `sim_suite` wall that may lie
/// outside the program's own run timer (`MachineProfile::run_wall_ns`).
const RUN_WALL_GAP_PCT: f64 = 5.0;

pub fn digest(r: &SimResult) -> u64 {
    let bytes: Vec<u8> = encode_result(r).iter().flat_map(|w| w.to_le_bytes()).collect();
    tdo_store::fnv1a64(&bytes)
}

fn pinned(name: &str) -> Option<u64> {
    PINNED.lines().find_map(|l| {
        let (n, d) = l.split_once(' ')?;
        (n == name).then(|| u64::from_str_radix(d.trim(), 16).ok()).flatten()
    })
}

fn config() -> SimConfig {
    SimConfig::paper(PrefetchSetup::SwSelfRepair)
}

/// Builds every suite image `SETUP_REPS` times; returns the last set and
/// the median build time at the reference host's speed.
fn setup(tr: &Tracer, host: &mut HostRef, before: &mut f64) -> (Vec<Workload>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut images = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        images = names()
            .iter()
            .map(|n| tr.time("workload.build", 0, 0, || build(n, Scale::Full).expect("suite name")))
            .collect();
        times.push(host.scale(t0.elapsed().as_secs_f64(), before));
    }
    (images, median(&times))
}

/// Prints the digest table `suite_digests.txt` pins.
pub fn pin_digests() {
    let cfg = config();
    for n in names() {
        let w = build(n, Scale::Full).expect("suite name");
        println!("{n} {:016x}", digest(&run(&w, &cfg)));
    }
}

/// One timed cell.
struct Timed {
    result: SimResult,
    profile: Option<MachineProfile>,
    /// Host seconds.
    wall: f64,
    /// Seconds at the reference host's speed: the wall time scaled by the
    /// host speed sampled just before and just after the cell.
    norm: f64,
}

/// Simulates `w` (profiled or not) between two host-speed samples and
/// checks its digest. `before` carries the last sample across cells.
fn cell(
    run_: &mut Run,
    tr: &Tracer,
    host: &mut HostRef,
    before: &mut f64,
    w: &Workload,
    profiled: bool,
) -> Option<Timed> {
    let cfg = config();
    run_.attempted += 1;
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        if profiled {
            let (r, p) = run_profiled(w, &cfg);
            (r, Some(p))
        } else {
            (run(w, &cfg), None)
        }
    }));
    let end = Instant::now();
    tr.record(if profiled { "cell.simulate_profiled" } else { "cell.simulate" }, 0, 0, t0, end);
    let wall = (end - t0).as_secs_f64();
    let norm = host.scale(wall, before);
    match out {
        Ok((result, profile)) => {
            let want = pinned(&w.program.name);
            let got = digest(&result);
            if want != Some(got) {
                run_.check(
                    false,
                    format!("{}: digest {got:016x}, pinned {want:016x?}", result.name),
                );
            }
            Some(Timed { result, profile, wall, norm })
        }
        Err(_) => {
            run_.failed += 1;
            None
        }
    }
}

pub fn run_suite(run_: &mut Run, tr: &Tracer, m: &mut Metrics) {
    let mut host = HostRef::new();
    let mut before = host.sample();
    let (images, setup_s) = setup(tr, &mut host, &mut before);
    m.set("setup_s", setup_s);
    m.set("workloads.build_s", setup_s);
    if tr.on() {
        traced(run_, tr, m, &mut host, &mut before, &images);
        m.set("host.speed", host.speed());
        return;
    }
    let passes = ((run_.seconds / PASS_BUDGET_S).round() as usize).max(2);
    // norm[c][p]: cell c's reference-speed seconds on pass p.
    let mut norm: Vec<Vec<f64>> = vec![Vec::with_capacity(passes); images.len()];
    let mut pass_s = Vec::with_capacity(passes);
    let mut insts = vec![0u64; images.len()];
    for _ in 0..passes {
        let mut pass = 0.0;
        for (c, w) in images.iter().enumerate() {
            if let Some(t) = cell(run_, tr, &mut host, &mut before, w, false) {
                insts[c] = t.result.orig_insts;
                norm[c].push(t.norm);
                pass += t.norm;
            }
        }
        pass_s.push(pass);
    }
    let cell_s: Vec<f64> = norm.iter().map(|v| median(v)).collect();
    let suite_s = sum(&cell_s);
    m.set("sim_insts_per_s", insts.iter().sum::<u64>() as f64 / suite_s);
    m.set("p50_us", median(&cell_s) * 1e6);
    m.set("p99_us", cell_s.iter().copied().fold(0.0, f64::max) * 1e6);
    m.set("batch_p50_us", median(&pass_s) * 1e6);
    m.set("batch_p99_us", tail(&pass_s) * 1e6);
    m.set("max_rate_rps", cell_s.len() as f64 / suite_s);
    m.set("host.speed", host.speed());
    run_.samples.push(("cells", cell_s.len()));
    run_.samples.push(("passes", passes));
}

/// The traced run: one plain pass (per-cell rates, counts, host cost per
/// event), then one `run_profiled` pass (phase self times, and the tracing
/// overhead against the plain pass at reference speed).
fn traced(
    run_: &mut Run,
    tr: &Tracer,
    m: &mut Metrics,
    host: &mut HostRef,
    before: &mut f64,
    images: &[Workload],
) {
    let (mut plain_wall, mut plain_norm) = (0.0, 0.0);
    let mut results = Vec::new();
    for w in images {
        if let Some(t) = cell(run_, tr, host, before, w, false) {
            m.set(
                &format!("sim.{}.insts_per_s", t.result.name),
                t.result.orig_insts as f64 / t.wall,
            );
            plain_wall += t.wall;
            plain_norm += t.norm;
            results.push(t.result);
        }
    }
    let (mut traced_wall, mut traced_norm, mut run_wall) = (0.0, 0.0, 0.0);
    let mut phases = [0.0f64; tdo_sim::profile::NPHASES];
    for w in images {
        if let Some(Timed { profile: Some(p), wall, norm, .. }) =
            cell(run_, tr, host, before, w, true)
        {
            traced_wall += wall;
            traced_norm += norm;
            run_wall += p.run_wall_ns as f64 * 1e-9;
            for (acc, ns) in phases.iter_mut().zip(p.phase_wall_ns) {
                *acc += ns as f64 * 1e-9;
            }
        }
    }
    for (name, s) in tdo_sim::profile::PHASE_NAMES.iter().zip(phases) {
        m.set(&format!("sim.phase.{name}_s"), s);
    }
    // The phases plus the untimed remainder make up the program's own run
    // wall; that must match the wall timed here around each call, apart
    // from machine construction and the call itself.
    m.set("sim.phase.untimed_s", run_wall - sum(&phases));
    m.set("sim.traced_wall_s", traced_wall);
    let gap_pct = (traced_wall - run_wall) / traced_wall * 100.0;
    m.set("sim.run_wall_gap_pct", gap_pct);
    run_.check(
        (0.0..=RUN_WALL_GAP_PCT).contains(&gap_pct),
        format!(
            "profiled run wall {run_wall:.3} s differs from the traced wall {traced_wall:.3} s \
             by {gap_pct:.2}% (allowed 0..{RUN_WALL_GAP_PCT}%)"
        ),
    );
    m.set("sim.trace_overhead_pct", (traced_norm / plain_norm - 1.0) * 100.0);

    let total = |f: &dyn Fn(&SimResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
    let insts = total(&|r| r.cpu.main_committed);
    let cycles = total(&|r| r.cpu.cycles);
    m.set("sim.host_ns_per_inst", ratio(plain_wall * 1e9, insts));
    m.set("sim.host_ns_per_cycle", ratio(plain_wall * 1e9, cycles));
    m.set("cpu.insts", insts);
    m.set("cpu.cycles", cycles);
    m.set("cpu.helper_active_cycles", total(&|r| r.cpu.helper_active_cycles));
    m.set("mem.loads", total(&|r| r.mem.loads()));
    m.set("mem.misses", total(&|r| r.mem.misses));
    m.set("mem.partial_hits", total(&|r| r.mem.partial_hits));
    m.set("mem.misses_due_to_prefetch", total(&|r| r.mem.misses_due_to_prefetch));
    m.set("mem.sw_prefetch_issued", total(&|r| r.mem.sw_prefetch_issued));
    m.set("mem.sw_prefetch_redundant", total(&|r| r.mem.sw_prefetch_redundant));
    m.set("mem.sw_prefetch_dropped", total(&|r| r.mem.sw_prefetch_dropped));
    let issued = total(&|r| r.mem.arm_issued.iter().sum());
    let useful = total(&|r| r.mem.arm_useful.iter().sum());
    m.set("arms.issued", issued);
    m.set("arms.useful", useful);
    m.set("arms.useful_ratio", ratio(useful, issued));
    m.set("trident.events_queued", total(&|r| r.trident.events_queued));
    m.set(
        "trident.events_dropped",
        total(&|r| r.trident.events_dropped_saturated + r.trident.events_dropped_duplicate),
    );
    m.set("trident.traces_installed", total(&|r| r.trident.traces_installed));
    m.set("trident.backouts", total(&|r| r.trident.backouts));
    m.set("core.prefetches_inserted", total(&|r| r.optimizer.prefetches_inserted));
    m.set("core.repairs", total(&|r| r.optimizer.repairs));
    m.set("core.matured", total(&|r| r.optimizer.matured));
    run_.samples.push(("cells", results.len()));
}
