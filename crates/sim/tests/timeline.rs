//! Determinism and fidelity tests for the cycle-stamped event trace and the
//! `tdo timeline` digest built on it.
//!
//! The golden file regenerates with `TDO_BLESS=1 cargo test -p tdo-sim
//! --test timeline`.

use tdo_obs::{validate_chrome_trace, validate_jsonl};
use tdo_sim::{run, run_profiled, run_traced, PrefetchSetup, SimConfig, Timeline};
use tdo_workloads::{build, Scale};

fn small_cfg() -> SimConfig {
    let mut cfg = SimConfig::test(PrefetchSetup::SwSelfRepair);
    cfg.warmup_insts = 10_000;
    cfg.measure_insts = 60_000;
    cfg
}

#[test]
fn traced_run_is_byte_deterministic() {
    let w = build("art", Scale::Test).unwrap();
    let cfg = small_cfg();
    let (r1, rec1) = run_traced(&w, &cfg);
    let (r2, rec2) = run_traced(&w, &cfg);
    assert!(!rec1.events().is_empty(), "a self-repair run must record events");
    assert_eq!(r1.cycles, r2.cycles);
    assert_eq!(rec1.to_jsonl(), rec2.to_jsonl(), "same cell twice must serialize identically");
    assert_eq!(rec1.to_chrome_trace(), rec2.to_chrome_trace());
}

#[test]
fn traced_run_is_identical_across_threads() {
    // The timeline records simulated cycles only; running the same cell on
    // worker threads (as `--jobs N` would) must not change a byte.
    let serial = {
        let w = build("art", Scale::Test).unwrap();
        run_traced(&w, &small_cfg()).1.to_jsonl()
    };
    let handles: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(|| {
                let w = build("art", Scale::Test).unwrap();
                run_traced(&w, &small_cfg()).1.to_jsonl()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), serial, "thread context leaked into the trace");
    }
}

#[test]
fn recording_does_not_perturb_the_simulation() {
    // The probe and the self-profiler are observation only. A plain run
    // (profiler compiled in but off — the zero-cost disabled path), a
    // traced run, and a profiled run of the same cell must produce
    // identical `SimResult`s in every field.
    let w = build("swim", Scale::Test).unwrap();
    let cfg = small_cfg();
    let plain = run(&w, &cfg);
    let (traced, _) = run_traced(&w, &cfg);
    let (profiled, profile) = run_profiled(&w, &cfg);
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"), "tracing perturbed the simulation");
    assert_eq!(format!("{plain:?}"), format!("{profiled:?}"), "profiling perturbed the simulation");
    // The parity above is only meaningful if the optimizer did run...
    assert!(profiled.cpu.helper_jobs > 0, "a self-repair run finishes helper jobs");
    // ...and the profile is live: the wall clock advanced somewhere.
    assert!(profile.run_wall_ns > 0);
    assert!(profile.phase_wall_ns.iter().sum::<u64>() > 0);
    assert!(profile.phase_wall_ns.iter().sum::<u64>() <= profile.run_wall_ns);
}

#[test]
fn serialized_traces_validate() {
    let w = build("mcf", Scale::Test).unwrap();
    let (_, rec) = run_traced(&w, &small_cfg());
    validate_jsonl(&rec.to_jsonl()).expect("JSONL must satisfy the schema");
    validate_chrome_trace(&rec.to_chrome_trace()).expect("Chrome trace must be well-formed");
}

#[test]
fn pointer_workload_repairs_its_distance() {
    // The acceptance bar for the whole observability layer: on a
    // pointer-chasing workload the digest must show the prefetch distance
    // actually moving.
    let w = build("mcf", Scale::Test).unwrap();
    let (_, rec) = run_traced(&w, &small_cfg());
    let t = Timeline::from_events(rec.events());
    assert!(!t.groups.is_empty(), "mcf must insert at least one prefetch group");
    assert!(
        t.any_distance_change(),
        "self-repair must move a distance:\n{}",
        t.render_convergence()
    );
}

#[test]
fn golden_timeline_for_tiny_stride_workload() {
    let w = build("art", Scale::Test).unwrap();
    let (_, rec) = run_traced(&w, &small_cfg());
    let t = Timeline::from_events(rec.events());
    let rendered = format!("{}\n{}", t.render_convergence(), t.render_samples());
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/timeline_art.txt");
    if std::env::var_os("TDO_BLESS").is_some() {
        std::fs::write(golden, &rendered).unwrap();
        return;
    }
    let expected =
        std::fs::read_to_string(golden).expect("golden file missing; regenerate with TDO_BLESS=1");
    assert_eq!(
        rendered, expected,
        "timeline drifted from the golden file; if intended, regenerate with TDO_BLESS=1"
    );
}
