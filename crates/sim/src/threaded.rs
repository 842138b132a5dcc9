//! A threaded runner: real OS threads drive the processors.
//!
//! The deterministic discrete-event runner ([`crate::System`]) is the
//! measurement vehicle — every number in EXPERIMENTS.md comes from it.
//! This module exists to *demonstrate* paper §3's design rule under real
//! concurrency: "all synchronization within the system must be explicit,
//! never assuming that process priority or other scheduling artifact is
//! sufficient to guarantee exclusion."
//!
//! Two runners are provided:
//!
//! * [`run_threaded`] — each host thread embodies one GDP and steps it
//!   against the shared *lock-striped* object space
//!   ([`i432_arch::SharedSpace`]): every operation locks only the shard
//!   (or, for a cross-shard AD store, the two shards in canonical order)
//!   it touches, so threads whose processes live in different stripes
//!   genuinely run in parallel. This is the moral equivalent of the
//!   432's interleaved memory buses: disjoint addresses never contend.
//!   One [`RunConfig`] value selects its fast-path arms (caches, port
//!   rings, fusion; all on by default), and optional [`AuxWorker`]s
//!   (the parallel collector's markers) run beside the GDP threads.
//! * [`run_threaded_global_lock`] — the original design, one mutex
//!   around the whole system. Kept as the contention baseline that the
//!   `c3_threaded` benchmark measures speedup against.
//!
//! Interleaving is whatever the host scheduler produces —
//! nondeterministic — yet every logical result must match the
//! deterministic runner, because the *system's* synchronization is all
//! in ports, never in scheduling accidents. `tests/threaded_runner.rs`
//! checks exactly that across thread-count × shard-count combinations.

use crate::system::System;
use i432_arch::{
    ArchResult, CachePadded, ProcessStatus, ShardedSpace, SharedSpace, SpaceAccessExt,
};
use i432_gdp::{Env, Gdp, NullInterconnect, StepEvent};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Outcome of a threaded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadedOutcome {
    /// Every registered (non-service) process reached a terminal state
    /// (exited, or faulted with no service to revive it).
    pub completed: bool,
    /// Steps executed across all threads; never more than the run's
    /// `max_steps`.
    pub steps: u64,
    /// System errors observed (should be zero for correct software).
    pub system_errors: u64,
}

/// The threaded runner's three fast-path arms. Every arm must be
/// digest-identical to the others and to the deterministic runner — the
/// conformance oracle diffs them bit-for-bit on every seed — so turning
/// one off never changes a result, only which path computes it.
///
/// `Default` is all on: the production runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// The qualification/binding caches: every thread gets a caching
    /// [`i432_arch::SpaceAgent`] and a GDP with its binding-register
    /// cache on, so runs of local instructions take no shard lock at
    /// all. Off keeps every operation on the locked path.
    pub cache: bool,
    /// The port-ring fast path: non-blocking sends and receives on FIFO
    /// ports go through a lock-free per-port ring consulted before any
    /// shard lock, falling back to the locked rendezvous path when the
    /// ring is full, empty, frozen, or the operation might block. Off
    /// keeps every port operation on the locked path.
    pub queue: bool,
    /// Dispatch specialization: the pre-decoded block cache,
    /// superinstruction fusion on the unlocked fast path, and the
    /// monomorphic inline caches at call/port sites. It rides on the
    /// binding-register cache's fast path, so it is inert when `cache`
    /// is off.
    pub fusion: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cache: true,
            queue: true,
            fusion: true,
        }
    }
}

impl std::fmt::Display for RunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let on = |b: bool| if b { "on" } else { "off" };
        write!(
            f,
            "cache {}, queue {}, fusion {}",
            on(self.cache),
            on(self.queue),
            on(self.fusion)
        )
    }
}

/// An auxiliary worker thread run alongside the GDP threads: it gets the
/// shared space handle, the runner's `done` flag (set when the workload
/// completes or the step budget runs out) and the GDP threads'
/// [`Handshake`], and is expected to return promptly once the flag is
/// set. The collector's parallel markers (`imax-gc`) ride on this hook;
/// the runner itself knows nothing about what the workers do.
pub type AuxWorker = Box<dyn for<'s> FnOnce(&'s SharedSpace, &'s AtomicBool, &'s Handshake) + Send>;

/// Instruction-step handshakes between aux workers and the GDP threads
/// of one threaded run.
///
/// An instruction takes one shard-lock hold per space operation, so
/// between two holds a processor may hold an access descriptor only in
/// host state: CREATE between creating the object and storing its AD,
/// RECEIVE between dequeuing a message and storing it. No table scan
/// sees such a reference. [`Handshake::wait`] returns only once every
/// GDP thread has been between two instruction steps since the call
/// began, so every reference that was held that way is back in the
/// table, written there through the gray-bit barrier.
pub struct Handshake {
    /// The latest handshake epoch any waiter asked for.
    requested: AtomicU64,
    /// Per GDP thread, each on its own cache line so acknowledging
    /// never contends: the latest epoch it acknowledged at a step
    /// boundary, or `u64::MAX` once it stopped stepping.
    acks: Box<[CachePadded<AtomicU64>]>,
}

impl Handshake {
    fn new(threads: usize) -> Handshake {
        Handshake {
            requested: AtomicU64::new(0),
            acks: (0..threads)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// GDP thread `k` is between two steps: acknowledge any pending
    /// request. One load of a line that only changes per handshake.
    #[inline]
    fn poll(&self, k: usize) {
        let want = self.requested.load(Ordering::SeqCst);
        let ack = &self.acks[k];
        // Relaxed: only this thread writes its own ack.
        if ack.load(Ordering::Relaxed) != want {
            ack.store(want, Ordering::SeqCst);
        }
    }

    /// GDP thread `k` steps no more; it never holds up a handshake again.
    fn leave(&self, k: usize) {
        self.acks[k].store(u64::MAX, Ordering::SeqCst);
    }

    /// Blocks until every GDP thread has reached a step boundary after
    /// this call began, or stopped stepping. Hold no shard lock while
    /// waiting: the step being finished may need it.
    pub fn wait(&self) {
        let epoch = self.requested.fetch_add(1, Ordering::SeqCst) + 1;
        for ack in self.acks.iter() {
            while ack.load(Ordering::SeqCst) < epoch {
                std::thread::yield_now();
            }
        }
    }
}

/// Steps a [`run_threaded`] GDP thread claims from the run-wide budget
/// at a time, so the shared counter is written once per this many
/// steps instead of on every step of every thread.
const STEP_QUOTA: u64 = 64;

/// Claims up to `quota` steps of what is left of the `max_steps`
/// budget, `claimed` counting the steps granted so far. Returns the
/// steps granted: `quota`, fewer when less than that is left, 0 once
/// the budget is spent. `claimed` never exceeds `max_steps`.
fn claim_steps(claimed: &AtomicU64, max_steps: u64, quota: u64) -> u64 {
    claimed
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
            (c < max_steps).then(|| c + quota.min(max_steps - c))
        })
        .map_or(0, |c| quota.min(max_steps - c))
}

/// A registered process is done once it exited or faulted (nothing in
/// either runner revives it), or is gone from the space altogether.
fn terminal(status: ArchResult<ProcessStatus>) -> bool {
    matches!(
        status,
        Ok(ProcessStatus::Terminated) | Ok(ProcessStatus::Faulted) | Err(_)
    )
}

/// Runs the system's processors on real threads against the lock-striped
/// shared space until every registered process terminates or `max_steps`
/// total steps elapse, with the fast-path arms `cfg` selects.
///
/// The system is taken by value (the space moves into the shared handle)
/// and handed back with the final state. Interconnect modeling is
/// disabled (contention here is *real*); simulated clocks still advance,
/// but their values are interleaving-dependent — use the deterministic
/// runner for measurements.
///
/// `aux` workers (e.g. collector workers) share the space with the
/// mutator GDPs. They do not count toward `max_steps` or completion and
/// are joined before the space is reassembled.
///
/// # Step budget
///
/// Each GDP thread claims steps from the run-wide `max_steps` budget
/// 64 at a time, each claim clamped to what is left, and counts its
/// claim down locally. The run never executes more than `max_steps`
/// steps. The first thread whose claim is refused ends the
/// run, and the other threads stop with whatever is left of their
/// current claims unexecuted, so a run that exhausts its budget stops
/// fewer than `threads × 64` steps short of `max_steps`.
/// [`ThreadedOutcome::steps`] counts the steps actually executed.
pub fn run_threaded(
    mut sys: System,
    max_steps: u64,
    cfg: RunConfig,
    aux: Vec<AuxWorker>,
) -> (System, ThreadedOutcome) {
    let RunConfig {
        cache,
        queue,
        fusion,
    } = cfg;
    // Fusion runs on the unlocked fast path, so it is inert without
    // the binding-register cache.
    let fusion = fusion && cache;
    let processes: Vec<_> = sys.processes().to_vec();
    let gdps: Vec<_> = sys
        .processors()
        .into_iter()
        .map(|cpu| {
            if fusion {
                Gdp::new_fused(cpu)
            } else if cache {
                Gdp::new_cached(cpu)
            } else {
                Gdp::new(cpu)
            }
        })
        .collect();
    // Move the space into the striped handle; park a minimal placeholder
    // in the System until the threads are done.
    let space = std::mem::replace(&mut sys.space, ShardedSpace::new(4096, 64, 16, 1));
    if queue {
        // Arm the port-ring registry for the duration of the threaded
        // run. Rings are created lazily by the locked path on first use
        // of each port; the deterministic runner never enables the
        // registry, so its cycle accounting is untouched.
        space.port_ring_registry().set_enabled(true);
    }
    let shared = SharedSpace::new(space);
    let code = &sys.code;
    let natives = &sys.natives;
    let cost = sys.cost;

    let remaining0 = {
        let mut agent = shared.agent();
        processes
            .iter()
            .filter(|p| !terminal(agent.with_process(**p, |s| s.status)))
            .count()
    };
    let remaining = AtomicUsize::new(remaining0);
    let claimed = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let done = AtomicBool::new(remaining0 == 0);
    let handshake = Handshake::new(gdps.len());

    let steps = std::thread::scope(|scope| {
        for worker in aux {
            let shared = &shared;
            let done = &done;
            let handshake = &handshake;
            scope.spawn(move || worker(shared, done, handshake));
        }
        let mut threads = Vec::new();
        for (k, mut gdp) in gdps.into_iter().enumerate() {
            let shared = &shared;
            let handshake = &handshake;
            let processes = &processes;
            let remaining = &remaining;
            let claimed = &claimed;
            let errors = &errors;
            let done = &done;
            threads.push(scope.spawn(move || {
                let mut agent = if cache {
                    shared.agent()
                } else {
                    shared.agent_uncached()
                };
                let mut bus = NullInterconnect;
                let (mut quota, mut executed) = (0u64, 0u64);
                loop {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    if quota == 0 {
                        quota = claim_steps(claimed, max_steps, STEP_QUOTA);
                        if quota == 0 {
                            done.store(true, Ordering::Release);
                            break;
                        }
                    }
                    quota -= 1;
                    executed += 1;
                    handshake.poll(k);
                    let event = {
                        let mut env = Env {
                            space: &mut agent,
                            code,
                            natives,
                            bus: &mut bus,
                            cost,
                        };
                        gdp.step(&mut env)
                    };
                    match event {
                        StepEvent::SystemError { .. } => {
                            errors.fetch_add(1, Ordering::AcqRel);
                            done.store(true, Ordering::Release);
                            break;
                        }
                        // A fault is terminal here just like an exit: the
                        // process sits at its fault port and nothing in
                        // this runner revives it.
                        StepEvent::ProcessExited(p)
                        | StepEvent::ProcessFaulted { process: p, .. }
                            if processes.contains(&p)
                                && remaining.fetch_sub(1, Ordering::AcqRel) <= 1 =>
                        {
                            done.store(true, Ordering::Release);
                            break;
                        }
                        _ => {}
                    }
                }
                // Write the GDP's cached binding registers (ip, slice,
                // pending cycles) back before the space is reassembled;
                // the agent's own stat deltas flush on drop.
                gdp.flush_bound(&mut agent);
                handshake.leave(k);
                executed
            }));
        }
        threads
            .into_iter()
            .map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .sum::<u64>()
    });

    sys.space = shared.into_inner();
    if queue {
        // Drain every ring back into the locked message areas so the
        // reassembled space is observably identical to a rendezvous
        // run (an open ring's port has an empty message area by the
        // FAST-mode invariant, so the drain always fits). A fault here
        // would mean that invariant broke — surface it as a system
        // error rather than silently dropping messages.
        if i432_gdp::port::flush_rings(&mut sys.space).is_err() {
            errors.fetch_add(1, Ordering::AcqRel);
        }
        sys.space.port_ring_registry().set_enabled(false);
    }
    let completed = processes
        .iter()
        .all(|p| terminal(sys.space.process(*p).map(|s| s.status)));
    let outcome = ThreadedOutcome {
        completed,
        steps,
        system_errors: errors.load(Ordering::Acquire),
    };
    (sys, outcome)
}

/// [`run_threaded`] with the arms as positional flags and no aux
/// workers. Kept only because `perfbench/`, the frozen benchmark crate,
/// calls it and must not be edited; new code calls [`run_threaded`].
pub fn run_threaded_full(
    sys: System,
    max_steps: u64,
    cache: bool,
    queue: bool,
    fusion: bool,
) -> (System, ThreadedOutcome) {
    run_threaded(
        sys,
        max_steps,
        RunConfig {
            cache,
            queue,
            fusion,
        },
        Vec::new(),
    )
}

/// The original threaded runner: one mutex around the whole system, every
/// step serialized. Logically equivalent to [`run_threaded`]; kept as the
/// baseline the striped runner's speedup is measured against, so it
/// still claims its step budget one step at a time and runs exactly
/// `max_steps` steps when the budget runs out.
pub fn run_threaded_global_lock(sys: System, max_steps: u64) -> (System, ThreadedOutcome) {
    let processes: Vec<_> = sys.processes().to_vec();
    let mut gdps = Vec::new();
    for cpu in sys.processors() {
        gdps.push(Gdp::new(cpu));
    }
    let shared = Arc::new(Mutex::new(sys));
    let claimed = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    for mut gdp in gdps {
        let shared = Arc::clone(&shared);
        let claimed = Arc::clone(&claimed);
        let errors = Arc::clone(&errors);
        let done = Arc::clone(&done);
        let processes = processes.clone();
        handles.push(std::thread::spawn(move || {
            let mut bus = NullInterconnect;
            loop {
                if done.load(Ordering::Acquire) {
                    return;
                }
                if claim_steps(&claimed, max_steps, 1) == 0 {
                    done.store(true, Ordering::Release);
                    return;
                }
                let event = {
                    let mut sys = shared.lock();
                    // Split borrows: System fields are accessed through
                    // the same public surface the deterministic runner
                    // uses.
                    let sys = &mut *sys;
                    let mut env = Env {
                        space: &mut sys.space,
                        code: &sys.code,
                        natives: &sys.natives,
                        bus: &mut bus,
                        cost: sys.cost,
                    };
                    gdp.step(&mut env)
                };
                match event {
                    StepEvent::SystemError { .. } => {
                        errors.fetch_add(1, Ordering::AcqRel);
                        done.store(true, Ordering::Release);
                        return;
                    }
                    StepEvent::ProcessExited(_) | StepEvent::ProcessFaulted { .. } => {
                        // Check for global completion.
                        let sys = shared.lock();
                        let all_done = processes
                            .iter()
                            .all(|p| terminal(sys.space.process(*p).map(|s| s.status)));
                        if all_done {
                            done.store(true, Ordering::Release);
                            return;
                        }
                    }
                    _ => {}
                }
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }

    let sys = Arc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("all threads joined; lock cannot be shared"))
        .into_inner();
    let completed = processes
        .iter()
        .all(|p| terminal(sys.space.process(*p).map(|s| s.status)));
    // Every granted claim is a step executed.
    let outcome = ThreadedOutcome {
        completed,
        steps: claimed.load(Ordering::Acquire),
        system_errors: errors.load(Ordering::Acquire),
    };
    (sys, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use i432_gdp::isa::{AluOp, DataDst, DataRef};
    use i432_gdp::ProgramBuilder;

    /// A handshake waits for each stepping thread's next step boundary
    /// and never for a thread that left.
    #[test]
    fn handshake_waits_for_a_step_boundary() {
        let h = Handshake::new(2);
        h.leave(1);
        let stepping = AtomicBool::new(true);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while stepping.load(Ordering::Acquire) {
                    h.poll(0);
                    std::thread::yield_now();
                }
                h.leave(0);
            });
            for epoch in 1..=3 {
                h.wait();
                // Thread 0 acknowledged this epoch at a step boundary.
                assert!(h.acks[0].load(Ordering::SeqCst) >= epoch);
            }
            stepping.store(false, Ordering::Release);
        });
        // Every thread has left: waiting returns at once.
        h.wait();
    }

    fn batch_system(shards: u32, cpus: u32, jobs: usize) -> System {
        let mut sys = System::new(
            &SystemConfig::small()
                .with_processors(cpus)
                .with_shards(shards),
        );
        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        p.mov(DataRef::Imm(20), DataDst::Local(0));
        p.bind(top);
        p.work(100);
        p.alu(
            AluOp::Sub,
            DataRef::Local(0),
            DataRef::Imm(1),
            DataDst::Local(0),
        );
        p.jump_if_nonzero(DataRef::Local(0), top);
        p.halt();
        let sub = sys.subprogram("job", p.finish(), 64, 8);
        let dom = sys.install_domain("batch", vec![sub], 0);
        for _ in 0..jobs {
            sys.spawn(dom, 0, None);
        }
        sys
    }

    /// Jobs that never halt, so only the step budget ends the run.
    fn spinning_system(cpus: u32, jobs: usize) -> System {
        let mut sys = System::new(&SystemConfig::small().with_processors(cpus).with_shards(2));
        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        p.bind(top);
        p.work(10);
        p.jump(top);
        let sub = sys.subprogram("spin", p.finish(), 64, 8);
        let dom = sys.install_domain("spin", vec![sub], 0);
        for _ in 0..jobs {
            sys.spawn(dom, 0, None);
        }
        sys
    }

    /// The budget contract: a run that exhausts `max_steps` reports the
    /// steps it executed, never more than the budget, and one thread
    /// runs the budget out exactly; each other thread may leave at most
    /// one claim unexecuted.
    #[test]
    fn step_budget_bounds_the_steps_executed() {
        let max_steps = 1_000;
        let (_, one) = run_threaded(
            spinning_system(1, 2),
            max_steps,
            RunConfig::default(),
            Vec::new(),
        );
        assert!(!one.completed, "{one:?}");
        assert_eq!(one.steps, max_steps, "{one:?}");
        let (_, two) = run_threaded(
            spinning_system(2, 4),
            max_steps,
            RunConfig::default(),
            Vec::new(),
        );
        assert!(!two.completed, "{two:?}");
        assert!(
            max_steps - 2 * STEP_QUOTA < two.steps && two.steps <= max_steps,
            "{two:?}"
        );
        assert_eq!(two.system_errors, 0, "{two:?}");
        // The global-lock baseline claims one step at a time and counts
        // only granted claims.
        let (_, global) = run_threaded_global_lock(spinning_system(2, 4), max_steps);
        assert!(!global.completed, "{global:?}");
        assert_eq!(global.steps, max_steps, "{global:?}");
    }

    #[test]
    fn threaded_run_completes_under_every_config() {
        for bits in 0..8u8 {
            let cfg = RunConfig {
                cache: bits & 1 != 0,
                queue: bits & 2 != 0,
                fusion: bits & 4 != 0,
            };
            let sys = batch_system(4, 4, 8);
            let (sys, outcome) = run_threaded(sys, 10_000_000, cfg, Vec::new());
            assert!(outcome.completed, "{cfg}: {outcome:?}");
            assert_eq!(outcome.system_errors, 0, "{cfg}");
            for p in sys.processes() {
                assert_eq!(sys.space.process(*p).unwrap().fault_code, 0, "{cfg}");
            }
        }
    }

    #[test]
    fn global_lock_run_completes_simple_batch() {
        let sys = batch_system(1, 4, 8);
        let (sys, outcome) = run_threaded_global_lock(sys, 10_000_000);
        assert!(outcome.completed, "{outcome:?}");
        assert_eq!(outcome.system_errors, 0);
        for p in sys.processes() {
            assert_eq!(sys.space.process(*p).unwrap().fault_code, 0);
        }
    }
}
