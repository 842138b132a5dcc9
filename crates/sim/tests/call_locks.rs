//! Domain switches on the threaded runner's fast path: exact trace
//! counters and a shard-lock budget.
//!
//! A `compute`-shaped loop (work, an interpreted CALL/RETURN, a counter
//! field load/add/store, the loop test) runs on one GDP thread with every
//! fast-path arm on, and once on the deterministic runner. Each job ends
//! with a CALL to a native body and a root RETURN — the two switches the
//! fast path hands to the locked path — so deferral is counted too.
//!
//! With the flight recorder compiled in (`--features trace`) the test
//! asserts that the threaded run counts every instruction, CALL and
//! RETURN exactly as the deterministic run does, that every CALL probes
//! the call-site inline cache exactly once, and that a loop iteration
//! takes at most [`MAX_LOCKS_PER_ITERATION`] shard locks. A CALL or
//! RETURN that unbinds the processor costs about 30 locks more per
//! iteration and fails the budget. It is its own test binary because
//! the recorder's counters are process-global.

use i432_arch::sysobj::{CTX_SLOT_ARG, CTX_SLOT_FIRST_FREE, PROC_SLOT_CONTEXT};
use i432_arch::{AccessDescriptor, CodeBody, ObjectSpec, ProcessStatus, Rights, Subprogram};
use i432_gdp::isa::{AluOp, DataDst, DataRef};
use i432_gdp::{NativeReturn, ProgramBuilder};
use i432_sim::{run_threaded, RunConfig, RunOutcome, System, SystemConfig};
use i432_trace::Counter;

const JOBS: u32 = 4;
const SHARDS: u32 = 16;
const ITERS: u64 = 200;
/// Context slot of a job's counter cell.
const CELL: u16 = CTX_SLOT_FIRST_FREE as u16 + 1;
/// Shard locks (single and paired) one loop iteration may take. The
/// loop retires 8 instructions per iteration; with the domain switch on
/// the fast path it takes about 21, and about 54 when CALL and RETURN
/// flush the binding registers.
const MAX_LOCKS_PER_ITERATION: f64 = 30.0;

/// Builds the jobs on one simulated processor; returns the system and
/// each job's counter cell.
fn build() -> (System, Vec<AccessDescriptor>) {
    let mut cfg = SystemConfig::small().with_processors(1).with_shards(SHARDS);
    cfg.data_bytes *= SHARDS;
    cfg.access_slots *= SHARDS;
    cfg.table_limit *= SHARDS;
    let mut sys = System::new(&cfg);

    let mut leaf = ProgramBuilder::new();
    leaf.ret(None, None);
    let leaf = sys.subprogram("leaf", leaf.finish(), 32, 8);
    let nid = sys.natives.register("nop", |cx| {
        cx.charge(10);
        Ok(NativeReturn::void())
    });
    let native = Subprogram {
        name: "nop".into(),
        body: CodeBody::Native(nid),
        ctx_data_len: 32,
        ctx_access_len: 8,
    };
    let svc = sys.install_domain("svc", vec![leaf, native], 0);

    let mut p = ProgramBuilder::new();
    let top = p.new_label();
    p.mov(DataRef::Imm(ITERS), DataDst::Local(0));
    p.bind(top);
    p.work(400);
    p.call(CTX_SLOT_ARG as u16, 0, None, None, None);
    p.mov(DataRef::Field(CELL, 0), DataDst::Local(8));
    p.alu(
        AluOp::Add,
        DataRef::Local(8),
        DataRef::Imm(1),
        DataDst::Local(8),
    );
    p.mov(DataRef::Local(8), DataDst::Field(CELL, 0));
    p.alu(
        AluOp::Sub,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    p.jump_if_nonzero(DataRef::Local(0), top);
    // Both defer to the locked path on a bound processor.
    p.call(CTX_SLOT_ARG as u16, 1, None, None, None);
    p.ret(None, None);
    let job = sys.subprogram("job", p.finish(), 64, 8);
    let dom = sys.install_domain("batch", vec![job], 0);

    let mut cells = Vec::new();
    for i in 0..JOBS {
        let root = sys.space.root_sro_of(i % SHARDS);
        let cell = sys
            .space
            .create_object(root, ObjectSpec::generic(8, 0))
            .unwrap();
        let cell = sys.space.mint(cell, Rights::READ | Rights::WRITE);
        sys.anchor(cell);
        let p = sys.spawn(dom, 0, Some(svc));
        let ctx = sys
            .space
            .load_ad_hw(p, PROC_SLOT_CONTEXT)
            .unwrap()
            .unwrap()
            .obj;
        sys.space
            .store_ad_hw(ctx, u32::from(CELL), Some(cell))
            .unwrap();
        cells.push(cell);
    }
    (sys, cells)
}

/// Every job terminated cleanly and counted all its iterations.
fn check_results(sys: &mut System, cells: &[AccessDescriptor]) {
    for p in sys.processes().to_vec() {
        let ps = sys.space.process(p).unwrap();
        assert_eq!((ps.status, ps.fault_code), (ProcessStatus::Terminated, 0));
    }
    for &cell in cells {
        assert_eq!(sys.space.read_u64(cell, 0).unwrap(), ITERS);
    }
}

const COUNTED: [Counter; 3] = [
    Counter::InstrExecuted,
    Counter::DomainCalls,
    Counter::DomainReturns,
];

#[test]
fn fast_path_switches_count_exactly_and_stay_within_the_lock_budget() {
    let _guard = i432_trace::test_guard();

    i432_trace::reset();
    let (mut det, cells) = build();
    assert_eq!(det.run_to_quiescence(100_000_000), RunOutcome::Quiescent);
    check_results(&mut det, &cells);
    let det_counts = i432_trace::snapshot();

    i432_trace::reset();
    let (thr, cells) = build();
    let (mut thr, outcome) = run_threaded(thr, 100_000_000, RunConfig::default(), Vec::new());
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "{outcome:?}"
    );
    check_results(&mut thr, &cells);
    let thr_counts = i432_trace::snapshot();

    if !i432_trace::ENABLED {
        return;
    }
    for c in COUNTED {
        assert_eq!(
            thr_counts.get(c),
            det_counts.get(c),
            "{c:?}: threaded run differs from the deterministic one"
        );
    }
    // Per job: ITERS interpreted CALLs and the native one; ITERS leaf
    // RETURNs and the root one (a native body returns inside its CALL).
    let calls = JOBS as u64 * (ITERS + 1);
    assert_eq!(det_counts.get(Counter::DomainCalls), calls);
    assert_eq!(det_counts.get(Counter::DomainReturns), calls);
    assert_eq!(
        thr_counts.get(Counter::IcHits) + thr_counts.get(Counter::IcMisses),
        calls,
        "every CALL probes its inline cache exactly once"
    );
    let locks = thr_counts.get(Counter::ShardLocks) + thr_counts.get(Counter::ShardLockPairs);
    let per_iteration = locks as f64 / (JOBS as u64 * ITERS) as f64;
    assert!(
        per_iteration <= MAX_LOCKS_PER_ITERATION,
        "{per_iteration:.1} shard locks per CALL/RETURN iteration (budget {MAX_LOCKS_PER_ITERATION})"
    );
}
