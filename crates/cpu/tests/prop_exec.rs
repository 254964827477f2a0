//! Randomized test: the timed SMT core computes exactly the same
//! architectural results as a trivial reference interpreter, for random
//! straight-line programs over ALU, move, load/store and lda instructions.
//! (Seeded `tdo_rand` sweeps; `--features exhaustive` widens them.)

use tdo_cpu::{CodeImage, Core, CpuConfig};
use tdo_isa::{encode, AluOp, Inst, LoadKind, Program, Reg};
use tdo_mem::{Hierarchy, MemConfig, Memory};
use tdo_rand::{cases, Rng};

const DATA_BASE: u64 = 0x20_0000;

fn arb_reg(rng: &mut Rng) -> Reg {
    // Integer registers 0..8 keep programs dense; avoid r31 (zero).
    Reg::int(rng.gen_range(0..8) as u8)
}

fn arb_inst(rng: &mut Rng) -> Inst {
    match rng.gen_range(0..6) {
        0 => Inst::Op {
            op: *rng.choose(&AluOp::ALL),
            ra: arb_reg(rng),
            rb: arb_reg(rng),
            rc: arb_reg(rng),
        },
        1 => Inst::OpImm {
            op: *rng.choose(&AluOp::ALL),
            ra: arb_reg(rng),
            imm: rng.gen_range_i64(-1000..1000),
            rc: arb_reg(rng),
        },
        2 => Inst::Lda { ra: arb_reg(rng), rb: arb_reg(rng), imm: rng.gen_range_i64(-64..64) },
        3 => Inst::Move { ra: arb_reg(rng), rc: arb_reg(rng) },
        // Loads/stores at bounded offsets from the data base register (r9).
        4 => Inst::Load {
            ra: arb_reg(rng),
            rb: Reg::int(9),
            off: rng.gen_range_i64(0..512) * 8,
            kind: LoadKind::Int,
        },
        _ => Inst::Store { ra: arb_reg(rng), rb: Reg::int(9), off: rng.gen_range_i64(0..512) * 8 },
    }
}

/// The reference interpreter: pure architectural semantics, no timing.
fn reference_run(insts: &[Inst]) -> ([u64; 64], Vec<(u64, u64)>) {
    let mut regs = [0u64; 64];
    regs[9] = DATA_BASE;
    let mut mem: std::collections::BTreeMap<u64, u64> = Default::default();
    for inst in insts {
        match *inst {
            Inst::Op { op, ra, rb, rc } => {
                let v = op.apply(regs[ra.index()], regs[rb.index()]);
                if !rc.is_zero() {
                    regs[rc.index()] = v;
                }
            }
            Inst::OpImm { op, ra, imm, rc } => {
                let v = op.apply(regs[ra.index()], imm as u64);
                if !rc.is_zero() {
                    regs[rc.index()] = v;
                }
            }
            Inst::Lda { ra, rb, imm } => {
                if !ra.is_zero() {
                    regs[ra.index()] = regs[rb.index()].wrapping_add(imm as u64);
                }
            }
            Inst::Move { ra, rc } => {
                if !rc.is_zero() {
                    regs[rc.index()] = regs[ra.index()];
                }
            }
            Inst::Load { ra, rb, off, .. } => {
                let addr = regs[rb.index()].wrapping_add(off as u64);
                if !ra.is_zero() {
                    regs[ra.index()] = mem.get(&addr).copied().unwrap_or(0);
                }
            }
            Inst::Store { ra, rb, off } => {
                let addr = regs[rb.index()].wrapping_add(off as u64);
                mem.insert(addr, regs[ra.index()]);
            }
            _ => unreachable!("generator emits only straight-line instructions"),
        }
    }
    (regs, mem.into_iter().collect())
}

#[test]
fn core_matches_reference_interpreter() {
    let mut rng = Rng::new(0xc0de_0001);
    for case in 0..cases(64) {
        let n = rng.gen_range(1..120);
        let insts: Vec<Inst> = (0..n).map(|_| arb_inst(&mut rng)).collect();

        // Build the program: initialize r9 = data base, then the body, halt.
        let mut code = Vec::new();
        code.push(
            encode(&Inst::Lda { ra: Reg::int(9), rb: Reg::ZERO, imm: DATA_BASE as i64 }).unwrap(),
        );
        for i in &insts {
            code.push(encode(i).unwrap());
        }
        code.push(encode(&Inst::Halt).unwrap());
        let prog =
            Program { name: "prop".into(), entry: 0x1000, code_base: 0x1000, code, data: vec![] };
        let img = CodeImage::new(&prog, 0x100_0000);
        let mut data = Memory::new();
        let mut hier = Hierarchy::new(MemConfig::tiny_for_tests());
        let mut core = Core::new(CpuConfig::paper_baseline(), prog.entry);
        let mut cycles = 0u64;
        while !core.halted() {
            core.cycle(&img, &mut data, &mut hier, &mut Vec::new());
            cycles += 1;
            assert!(cycles < 2_000_000, "case {case}: program must terminate");
        }

        let (ref_regs, ref_mem) = reference_run(&insts);
        for i in 0..31u8 {
            let r = Reg::int(i);
            assert_eq!(core.reg(r), ref_regs[r.index()], "case {case}: register r{i} diverged");
        }
        for (addr, val) in ref_mem {
            assert_eq!(data.read_u64(addr), val, "case {case}: memory {addr:#x} diverged");
        }

        // Timing sanity: in-order 4-wide issue can never beat 1 instruction
        // per issue slot, and committed counts match the program.
        let committed = core.stats.main_committed;
        assert_eq!(committed, insts.len() as u64 + 2, "case {case}");
        assert!(core.stats.cycles >= committed.div_ceil(4), "case {case}");
    }
}
