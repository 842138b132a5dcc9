//! Oracle battery for CALL and RETURN on the threaded runner.
//!
//! The generator never emits a CALL, so this battery hand-builds seeded
//! call-heavy cases and runs them through the oracle's own entry points:
//! each case on the deterministic reference, then on the threaded
//! runner across {1, 4, 16} shards × {1, 4} threads with the cache and
//! fusion arms on and off, plus one arm under the concurrent collector.
//! Every arm must reach the reference's end state bit for bit.
//!
//! A case's subprograms share the oracle's one domain, so every callee
//! is also spawned as a process of its own. That is deliberate: run as a
//! root, a callee ends in a root RETURN, which exits the process.
//!
//! * `L1 → L2 → L3`: interpreted calls nested three deep below each
//!   main, passing an argument AD down and handing `ret_ad` and
//!   `ret_val` back up.
//! * The oracle's native subprogram: a native callee from every main.
//! * Faulting processes: a CALL with a bad subprogram index, a CALL
//!   through an empty domain slot, and a RETURN that breaks the level
//!   rule by handing back an AD for an object shorter-lived than the
//!   caller's context.
//!
//! Seeded work amounts move the time-slice boundaries across the call
//! chain, so preemption lands on CALLs and RETURNs at varying depths.

use i432_arch::sysobj::{CTX_SLOT_ARG, CTX_SLOT_DOMAIN, CTX_SLOT_SRO};
use i432_arch::ProcessStatus;
use i432_conform::gen::{S_DEEP, S_NULL, S_OUT};
use i432_conform::{
    run_deterministic, run_threaded_sys, run_threaded_sys_pargc, Arms, CaseOutcome, GenCase,
    GenProcess, Modes, RunConfig,
};
use i432_gdp::isa::{AluOp, DataDst, DataRef};
use i432_gdp::ProgramBuilder;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// The matrix: {1, 4, 16} shards × {1, 4} host threads.
const MATRIX: &[(u32, u32)] = &[(1, 1), (1, 4), (4, 1), (4, 4), (16, 1), (16, 4)];

/// Subprogram indices of the callee chain.
const L1: u32 = 0;
const L2: u32 = 1;
const L3: u32 = 2;
/// A callee that hands its argument AD straight back.
const ECHO_ARG: u32 = 3;
/// The first main.
const MAIN0: u32 = 4;

/// Callee slot receiving the deeper level's returned AD.
const C_RET: u16 = 8;
/// Main slots: the object passed down the chain, and the ADs returned
/// by the chain and by the native callee.
const M_OBJ: u16 = 9;
const M_RET: u16 = 10;
const M_NRET: u16 = 11;
/// Locals: checksum, call result, round counter, native result.
const L_CHK: u32 = 0;
const L_RES: u32 = 8;
const L_ROUND: u32 = 16;
const L_NAT: u32 = 24;

fn process(program: ProgramBuilder, fault_name: Option<&'static str>) -> GenProcess {
    GenProcess {
        program: program.finish(),
        faulty: fault_name.is_some(),
        fault_name,
        delta: 0,
    }
}

/// One level of the chain: work, call the next level with the same
/// argument, fold the returned value, and return the returned AD.
fn chain_level(rng: &mut StdRng, next: u32, op: AluOp) -> ProgramBuilder {
    let mut p = ProgramBuilder::new();
    p.work(rng.random_range(1u32..300));
    p.call(
        CTX_SLOT_DOMAIN as u16,
        next,
        Some(CTX_SLOT_ARG as u16),
        Some(C_RET),
        Some(L_RES),
    );
    p.alu(
        op,
        DataRef::Local(L_RES),
        DataRef::Imm(rng.random_range(1u64..9)),
        DataDst::Local(L_RES),
    );
    p.ret(Some(C_RET), Some(DataRef::Local(L_RES)));
    p
}

/// A main: allocate an object, then per round call the chain and the
/// native callee with it, folding both results into a checksum; finally
/// publish the checksum and the AD the chain handed back.
fn main_program(rng: &mut StdRng, native: u32) -> ProgramBuilder {
    let mut p = ProgramBuilder::new();
    p.create_object(
        CTX_SLOT_SRO as u16,
        DataRef::Imm(16),
        DataRef::Imm(0),
        M_OBJ,
    );
    p.mov(
        DataRef::Imm(rng.random_range(8u64..40)),
        DataDst::Local(L_ROUND),
    );
    let top = p.new_label();
    p.bind(top);
    p.work(rng.random_range(1u32..2_000));
    p.call(
        CTX_SLOT_DOMAIN as u16,
        L1,
        Some(M_OBJ),
        Some(M_RET),
        Some(L_RES),
    );
    p.alu(
        AluOp::Add,
        DataRef::Local(L_CHK),
        DataRef::Local(L_RES),
        DataDst::Local(L_CHK),
    );
    p.call(
        CTX_SLOT_DOMAIN as u16,
        native,
        Some(M_RET),
        Some(M_NRET),
        Some(L_NAT),
    );
    p.alu(
        AluOp::Xor,
        DataRef::Local(L_CHK),
        DataRef::Local(L_NAT),
        DataDst::Local(L_CHK),
    );
    p.alu(
        AluOp::Sub,
        DataRef::Local(L_ROUND),
        DataRef::Imm(1),
        DataDst::Local(L_ROUND),
    );
    p.jump_if_nonzero(DataRef::Local(L_ROUND), top);
    p.mov(DataRef::Local(L_CHK), DataDst::Field(M_NRET, 0));
    p.store_ad(M_NRET, S_OUT, DataRef::Imm(0));
    p.mov(DataRef::Local(L_CHK), DataDst::Field(S_OUT, 0));
    p.halt();
    p
}

/// A process that records a marker and then faults in a CALL or RETURN.
fn faulting(rng: &mut StdRng, name: &'static str) -> GenProcess {
    let mut p = ProgramBuilder::new();
    p.work(rng.random_range(1u32..500));
    p.mov(
        DataRef::Imm(rng.random_range(1u64..1_000)),
        DataDst::Field(S_OUT, 0),
    );
    match name {
        "bad subprogram" => p.call(CTX_SLOT_DOMAIN as u16, 99, None, None, None),
        "empty domain slot" => p.call(S_NULL, L1, None, None, None),
        // The callee hands back the deep object it was given: the
        // RETURN's store into this (level 1) context breaks the level
        // rule.
        "level on return" => p.call(
            CTX_SLOT_DOMAIN as u16,
            ECHO_ARG,
            Some(S_DEEP),
            Some(M_RET),
            None,
        ),
        other => unreachable!("unknown fault {other}"),
    };
    p.mov(DataRef::Imm(0), DataDst::Field(S_OUT, 8));
    p.halt();
    process(p, Some(name))
}

/// The seeded call case: the chain, the argument echo, one to three
/// mains, and a seeded subset of the faulting processes (at least one).
fn call_case(seed: u64) -> GenCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let mains = rng.random_range(1u32..4);
    let mut faults: Vec<&'static str> = ["bad subprogram", "empty domain slot", "level on return"]
        .into_iter()
        .filter(|_| rng.random_bool(0.5))
        .collect();
    if faults.is_empty() {
        faults.push("level on return");
    }
    // The native body sits right after the case's own subprograms.
    let native = MAIN0 + mains + faults.len() as u32;

    let mut leaf = ProgramBuilder::new();
    leaf.work(rng.random_range(1u32..300));
    leaf.mov(
        DataRef::Imm(rng.random_range(1u64..100)),
        DataDst::Local(L_RES),
    );
    leaf.ret(Some(CTX_SLOT_ARG as u16), Some(DataRef::Local(L_RES)));
    let mut echo = ProgramBuilder::new();
    echo.ret(Some(CTX_SLOT_ARG as u16), None);

    let mut processes = vec![
        process(chain_level(&mut rng, L2, AluOp::Add), None),
        process(chain_level(&mut rng, L3, AluOp::Mul), None),
        process(leaf, None),
        process(echo, None),
    ];
    for _ in 0..mains {
        processes.push(process(main_program(&mut rng, native), None));
    }
    for name in faults {
        processes.push(faulting(&mut rng, name));
    }
    assert_eq!(processes.len() as u32, native);
    GenCase {
        seed,
        processes,
        rounds: 0,
    }
}

/// Seeds the battery runs: `0..SEEDS`.
const SEEDS: u64 = 16;

/// The reference end state, checked for what the case was built to do:
/// every non-faulty process terminates cleanly (the callees by a root
/// RETURN), every faulty one faults, and the mains published.
fn reference(case: &GenCase) -> CaseOutcome {
    let r = run_deterministic(case);
    for (i, (p, &(status, code))) in case.processes.iter().zip(&r.proc_states).enumerate() {
        if p.faulty {
            assert_ne!(
                code, 0,
                "seed {}: process {i} ({:?}) must fault",
                case.seed, p.fault_name
            );
        } else {
            assert_eq!(
                (status, code),
                (ProcessStatus::Terminated, 0),
                "seed {}: process {i} must exit cleanly",
                case.seed
            );
        }
    }
    r
}

#[test]
fn call_cases_exercise_what_they_claim() {
    for seed in 0..SEEDS {
        let case = call_case(seed);
        let r = reference(&case);
        assert_ne!(r.digest, 0);
    }
    // Across the seeds, every fault kind occurs.
    for name in ["bad subprogram", "empty domain slot", "level on return"] {
        assert!(
            (0..SEEDS).any(|s| call_case(s)
                .processes
                .iter()
                .any(|p| p.fault_name == Some(name))),
            "no seed covers {name}"
        );
    }
}

#[test]
fn threaded_calls_match_the_reference_on_every_arm() {
    let arms = Arms {
        cache: Modes::Both,
        queue: Modes::On,
        fusion: Modes::Both,
    };
    for seed in 0..SEEDS {
        let case = call_case(seed);
        let want = reference(&case);
        for &(shards, threads) in MATRIX {
            for cfg in arms.configs() {
                let (_, got) = run_threaded_sys(&case, shards, threads, cfg);
                assert_eq!(
                    got, want,
                    "seed {seed}: {shards} shards x {threads} threads ({cfg}) diverged"
                );
            }
        }
    }
}

#[test]
fn threaded_calls_match_the_reference_under_the_concurrent_collector() {
    for seed in 0..SEEDS {
        let case = call_case(seed);
        let want = reference(&case);
        let (_, got, _) = run_threaded_sys_pargc(&case, 4, 4, RunConfig::default());
        assert_eq!(got, want, "seed {seed}: parallel-GC arm diverged");
    }
}
