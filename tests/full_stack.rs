//! Cross-crate integration tests: the whole pipeline — profiler → trace →
//! linking → DLT → insertion → repair — through the public APIs of the
//! umbrella crate.

use tdo::cpu::{CodeImage, Core, CpuConfig};
use tdo::isa::{decode, AluOp, Asm, Cond, Inst, Program, Reg};
use tdo::mem::{Hierarchy, MemConfig, Memory};
use tdo::sim::{run, Machine, PrefetchSetup, SimConfig};
use tdo::workloads::{build, Scale};

/// The full stack turns a pointer-chasing loop from memory-bound to
/// prefetch-covered, and the optimizer statistics prove every stage ran.
#[test]
fn pipeline_stages_all_fire_on_mcf() {
    let w = build("mcf", Scale::Test).unwrap();
    let r = run(&w, &SimConfig::test(PrefetchSetup::SwSelfRepair));
    assert!(r.trident.traces_installed >= 1, "trace formation: {:?}", r.trident);
    assert!(r.window.hot_trace_events >= 1, "profiler events: {:?}", r.window);
    assert!(r.window.dlt_events_queued >= 1, "DLT events: {:?}", r.window);
    assert!(r.optimizer.insertions >= 1, "prefetch insertion: {:?}", r.optimizer);
    assert!(r.optimizer.repairs >= 1, "self-repair: {:?}", r.optimizer);
    assert!(r.optimizer.distance_up >= 1, "distance adaptation: {:?}", r.optimizer);
    assert!(r.mem.sw_prefetch_issued > 0, "prefetches executed: {:?}", r.mem);
}

/// Self-repair must beat the hardware baseline on the distance-sensitive
/// workloads, at test scale, through the public API.
#[test]
fn self_repair_beats_hw_baseline_on_distance_sensitive_workloads() {
    for name in ["art", "mcf", "vis"] {
        let w = build(name, Scale::Test).unwrap();
        let base = run(&w, &SimConfig::test(PrefetchSetup::Hw8x8));
        let sr = run(&w, &SimConfig::test(PrefetchSetup::SwSelfRepair));
        let speedup = sr.speedup_over(&base);
        assert!(speedup > 1.05, "{name}: self-repair speedup {speedup:.3}");
    }
}

/// The paper's applu observation: a >1000-instruction loop body makes
/// distance 1 optimal — self-repairing adds nothing over the whole-object
/// insertion (both still beat the baseline).
#[test]
fn applu_gains_nothing_from_repair() {
    let w = build("applu", Scale::Test).unwrap();
    let whole = run(&w, &SimConfig::test(PrefetchSetup::SwWholeObject));
    let sr = run(&w, &SimConfig::test(PrefetchSetup::SwSelfRepair));
    let ratio = sr.ipc() / whole.ipc();
    assert!(
        (0.97..=1.03).contains(&ratio),
        "applu self-repair must match whole-object: {ratio:.3}"
    );
}

/// Original-equivalent instruction accounting: a run that executes traces
/// (with extra glue and synthetic prefetch instructions) reports the same
/// original instruction total the untouched binary reports for the same
/// architectural work. We check by running the finite workload to
/// completion under both arms: the total original-equivalent count must
/// match exactly.
#[test]
fn original_instruction_accounting_is_exact() {
    let w = build("wupwise", Scale::Test).unwrap();
    let mut totals = Vec::new();
    for setup in [PrefetchSetup::NoPrefetch, PrefetchSetup::SwSelfRepair] {
        let mut cfg = SimConfig::test(setup);
        cfg.warmup_insts = 0;
        cfg.measure_insts = u64::MAX;
        cfg.max_cycles = 500_000_000;
        let r = run(&w, &cfg);
        assert!(r.halted, "{setup:?} must run to completion");
        totals.push(r.orig_insts);
    }
    assert_eq!(
        totals[0], totals[1],
        "trace execution must account for exactly the original instructions"
    );
}

/// A worst-case trace: one that almost always exits early. The watch table
/// backs it out and the original code is restored, bit for bit.
#[test]
fn underperforming_traces_are_backed_out() {
    // A loop whose body branch alternates direction with period 2 but whose
    // profiler-visible path is briefly stable: once the trace is formed with
    // one direction, half the iterations exit early. To force a back-out we
    // make the off-trace direction dominant after formation: the branch is
    // taken during a "training" phase, then never again.
    let (i, phase, x) = (Reg::int(1), Reg::int(2), Reg::int(3));
    let mut a = Asm::new(0x1000);
    a.li(i, 60_000);
    a.li(phase, 600); // taken for the first 600 iterations
    a.label("loop");
    a.bcond_to(Cond::Gt, phase, "hot"); // during training: taken
    a.op_imm(AluOp::Add, x, 3, x); // afterwards: this path forever
    a.br_to("join");
    a.label("hot");
    a.op_imm(AluOp::Add, x, 1, x);
    a.label("join");
    a.op_imm(AluOp::Sub, phase, 1, phase);
    a.op_imm(AluOp::Sub, i, 1, i);
    a.bcond_to(Cond::Ne, i, "loop");
    a.halt();
    let program = Program {
        name: "backout".into(),
        entry: 0x1000,
        code_base: 0x1000,
        code: a.assemble().unwrap(),
        data: vec![],
    };
    let workload =
        tdo::workloads::Workload { program, description: "trace back-out provocation".into() };
    let mut cfg = SimConfig::test(PrefetchSetup::SwSelfRepair);
    cfg.warmup_insts = 100;
    cfg.measure_insts = u64::MAX;
    cfg.max_cycles = 50_000_000;
    let r = Machine::new(&workload, cfg).run();
    assert!(r.halted);
    assert!(
        r.window.trace_backouts >= 1 || r.trident.traces_installed == 0,
        "a trace trained on a dead path must be backed out: {:?} {:?}",
        r.trident,
        r.window,
    );
}

/// The CPU substrate executes a patched binary: rewriting a word mid-run
/// changes behaviour from that fetch onward.
#[test]
fn runtime_code_patching_is_visible_to_the_core() {
    let r1 = Reg::int(1);
    let mut a = Asm::new(0x1000);
    a.label("spin");
    a.op_imm(AluOp::Add, r1, 1, r1);
    a.br_to("spin");
    let program = Program {
        name: "patch".into(),
        entry: 0x1000,
        code_base: 0x1000,
        code: a.assemble().unwrap(),
        data: vec![],
    };
    let mut code = CodeImage::new(&program, 0x10_0000);
    let mut data = Memory::new();
    let mut hier = Hierarchy::new(MemConfig::tiny_for_tests());
    let mut core = Core::new(CpuConfig::paper_baseline(), 0x1000);
    for _ in 0..100 {
        core.cycle(&code, &mut data, &mut hier, &mut Vec::new());
    }
    assert!(!core.halted(), "spinning");
    // Patch the add into a halt.
    code.write_word(0x1000, tdo::isa::encode(&Inst::Halt).unwrap()).unwrap();
    for _ in 0..100 {
        core.cycle(&code, &mut data, &mut hier, &mut Vec::new());
        if core.halted() {
            break;
        }
    }
    assert!(core.halted(), "patched halt must take effect");
    assert_eq!(decode(code.word_at(0x1000).unwrap()).unwrap(), Inst::Halt);
}
