//! `compute`: independent jobs on the threaded runner.
//!
//! 16 jobs over 16 shards, each running the `c3_threaded` batch loop
//! (mov/work/alu/jump_if) plus one cross-domain CALL/RETURN and one
//! object-field load/store per iteration. No ports after start, no
//! devices, no GC. One operation is one executed 432 instruction, as
//! counted by the deterministic reference run.

use crate::common::{ns_since, Ctx, Measured, Rng, Spans};
use i432_arch::sysobj::{CTX_SLOT_ARG, CTX_SLOT_FIRST_FREE, PROC_SLOT_CONTEXT};
use i432_arch::{AccessDescriptor, ObjectRef, ObjectSpec, ProcessStatus, Rights};
use i432_gdp::isa::{AluOp, DataDst, DataRef};
use i432_gdp::{ProgramBuilder, StepEvent};
use i432_sim::{System, SystemConfig};
use std::time::Instant;

/// Jobs (processes).
pub const JOBS: u32 = 16;
/// Space shards.
pub const SHARDS: u32 = 16;
/// Base iterations per job; each job adds a seeded jitter below
/// [`ITER_JITTER`].
pub const BASE_ITERS: u64 = 800;
/// Exclusive bound of the per-job iteration jitter.
pub const ITER_JITTER: u64 = 4;
/// Context slot of the job's counter object.
const CELL_SLOT: u16 = CTX_SLOT_FIRST_FREE as u16 + 1;
/// Simulated processors of the deterministic reference.
const REF_PROCESSORS: u32 = 2;
const DET_BUDGET: u64 = 1_000_000_000;

/// The generated inputs: per job, its iteration count and the counter's
/// starting value.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// `(iterations, counter start)` per job.
    pub jobs: Vec<(u64, u64)>,
}

/// Draws the inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    Inputs {
        jobs: (0..JOBS)
            .map(|_| (BASE_ITERS + rng.below(ITER_JITTER), rng.next_u64()))
            .collect(),
    }
}

/// Handles into a built compute system.
pub struct Handles {
    jobs: Vec<ObjectRef>,
    cells: Vec<AccessDescriptor>,
}

/// Builds the batch on `processors` simulated GDPs.
pub fn build(inp: &Inputs, processors: u32, spans: &mut Spans) -> (System, Handles) {
    build_with(inp, processors, spans, false)
}

/// [`build`], optionally making the last job fault on its first
/// iteration (its counter slot is left empty).
fn build_with(
    inp: &Inputs,
    processors: u32,
    spans: &mut Spans,
    fault_last: bool,
) -> (System, Handles) {
    let mut cfg = SystemConfig::small()
        .with_processors(processors)
        .with_shards(SHARDS);
    cfg.data_bytes *= SHARDS;
    cfg.access_slots *= SHARDS;
    cfg.table_limit *= SHARDS;
    let mut sys = spans.time("boot", || System::new(&cfg));

    let (job_dom, svc) = spans.time("install", || {
        let mut callee = ProgramBuilder::new();
        callee.ret(None, None);
        let callee_sub = sys.subprogram("leaf", callee.finish(), 32, 8);
        let svc = sys.install_domain("svc", vec![callee_sub], 0);

        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        // Local(0) = remaining iterations, read from the cell's second
        // word so every job runs its own generated count.
        p.mov(DataRef::Field(CELL_SLOT, 8), DataDst::Local(0));
        p.bind(top);
        p.work(400);
        p.call(CTX_SLOT_ARG as u16, 0, None, None, None);
        p.mov(DataRef::Field(CELL_SLOT, 0), DataDst::Local(8));
        p.alu(
            AluOp::Add,
            DataRef::Local(8),
            DataRef::Imm(1),
            DataDst::Local(8),
        );
        p.mov(DataRef::Local(8), DataDst::Field(CELL_SLOT, 0));
        p.alu(
            AluOp::Sub,
            DataRef::Local(0),
            DataRef::Imm(1),
            DataDst::Local(0),
        );
        p.jump_if_nonzero(DataRef::Local(0), top);
        p.halt();
        let sub = sys.subprogram("job", p.finish(), 64, 8);
        (sys.install_domain("batch", vec![sub], 0), svc)
    });

    let (jobs, cells) = spans.time("spawn", || {
        let mut jobs = Vec::new();
        let mut cells = Vec::new();
        for (i, &(iters, start)) in inp.jobs.iter().enumerate() {
            // The counter lives in the job's own stripe.
            let root = sys.space.root_sro_of(i as u32 % SHARDS);
            let cell = sys
                .space
                .create_object(root, ObjectSpec::generic(16, 0))
                .expect("job cell");
            let cell_ad = sys.space.mint(cell, Rights::READ | Rights::WRITE);
            sys.anchor(cell_ad);
            sys.space.write_u64(cell_ad, 0, start).expect("cell start");
            sys.space.write_u64(cell_ad, 8, iters).expect("cell iters");
            let job = sys.spawn(job_dom, 0, Some(svc));
            let ctx = sys
                .space
                .load_ad_hw(job, PROC_SLOT_CONTEXT)
                .expect("process context slot")
                .expect("process has a context")
                .obj;
            if !(fault_last && i + 1 == inp.jobs.len()) {
                sys.space
                    .store_ad_hw(ctx, u32::from(CELL_SLOT), Some(cell_ad))
                    .expect("job cell slot");
            }
            jobs.push(job);
            cells.push(cell_ad);
        }
        (jobs, cells)
    });
    (sys, Handles { jobs, cells })
}

/// Failed instructions of one round: all of a job's instructions when
/// it did not terminate normally or its counter is wrong.
pub fn failed_ops(sys: &mut System, h: &Handles, inp: &Inputs, per_job: &[u64]) -> u64 {
    let mut failed = 0;
    for (k, (&job, &cell)) in h.jobs.iter().zip(&h.cells).enumerate() {
        let (iters, start) = inp.jobs[k];
        let exited = sys.status_of(job) == Some(ProcessStatus::Terminated);
        let value = sys.space.read_u64(cell, 0).ok();
        if !exited || value != Some(start.wrapping_add(iters)) {
            failed += per_job[k];
        }
    }
    failed
}

/// Instructions the job with `iters` iterations executes (the loop
/// body plus the entry `mov`, the callee's RETURN and the `halt`).
pub fn instructions_per_job(iters: u64) -> u64 {
    // mov; iters x (work, call, ret, mov, alu, mov, alu, jump_if); halt
    2 + 8 * iters
}

/// One deterministic reference run: `(instructions, sim cycles, det
/// steps, failed ops)` and the host ns of the run.
fn reference(inp: &Inputs) -> ((u64, u64, u64, u64), f64) {
    let (mut sys, h) = build(inp, REF_PROCESSORS, &mut Spans::default());
    let t0 = Instant::now();
    let mut instrs = 0u64;
    let mut left = h.jobs.len();
    sys.run_until(DET_BUDGET, |_, e| {
        // An instruction that ends a time slice or exits the process
        // reports that instead of `Executed`.
        match e {
            StepEvent::Executed { .. } | StepEvent::TimesliceEnd(_) => instrs += 1,
            StepEvent::ProcessExited(_) => {
                instrs += 1;
                left -= 1;
            }
            StepEvent::ProcessFaulted { .. } => left -= 1,
            _ => {}
        }
        left == 0
    });
    let ns = ns_since(t0);
    let per_job: Vec<u64> = inp.jobs.iter().map(|j| instructions_per_job(j.0)).collect();
    let failed = failed_ops(&mut sys, &h, inp, &per_job);
    ((instrs, sys.now(), sys.steps(), failed), ns)
}

/// Runs the workload for the context's budget.
pub fn run(ctx: &Ctx, m: &mut Measured) {
    let inp = inputs(ctx.seed);
    let per_job: Vec<u64> = inp.jobs.iter().map(|j| instructions_per_job(j.0)).collect();
    let ops: u64 = per_job.iter().sum();

    let (r, det_run_ns) = reference(&inp);
    if reference(&inp).0 != r {
        m.check_errors
            .push("compute reference run did not repeat".into());
    }
    let (instrs, cycles, det_steps, ref_failed) = r;
    if instrs != ops || ref_failed != 0 {
        m.check_errors.push(format!(
            "compute reference executed {instrs} instructions (expected {ops}), {ref_failed} failed"
        ));
    }
    m.ops_per_round = ops;
    m.sim_cycles_per_op = cycles as f64 / ops as f64;
    m.det_steps = det_steps;
    m.det_run_ns = det_run_ns;

    crate::common::threaded_rounds(
        ctx,
        m,
        |spans| build(&inp, ctx.gdp_threads, spans),
        |sys, h, _| failed_ops(sys, h, &inp, &per_job),
    );
    m.info.push((
        "shape",
        format!("{JOBS} jobs x ~{BASE_ITERS} iterations, {SHARDS} shards, fused threaded runner"),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_counts_every_instruction() {
        let mut inp = inputs(5);
        for j in &mut inp.jobs {
            j.0 = 10 + j.0 % 7;
        }
        let ((instrs, _, _, failed), _) = reference(&inp);
        let ops: u64 = inp.jobs.iter().map(|j| instructions_per_job(j.0)).sum();
        assert_eq!(instrs, ops);
        assert_eq!(failed, 0);
    }

    #[test]
    fn a_faulted_job_is_counted_as_failed() {
        let mut inp = inputs(6);
        for j in &mut inp.jobs {
            j.0 = 20;
        }
        let per_job: Vec<u64> = inp.jobs.iter().map(|j| instructions_per_job(j.0)).collect();
        let (sys, h) = build_with(&inp, 2, &mut Spans::default(), true);
        let (mut sys, out) = i432_sim::run_threaded_full(sys, u64::MAX, true, true, true);
        assert!(out.completed, "a faulted job still ends the run: {out:?}");
        // With no fault port the faulted job ends, but its counter never
        // moves, so exactly its instructions count as failed.
        let last = h.jobs.len() - 1;
        assert_eq!(failed_ops(&mut sys, &h, &inp, &per_job), per_job[last]);
    }
}
