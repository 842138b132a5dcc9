//! The differential oracle: one generated case, two execution engines,
//! one logical answer.
//!
//! The *reference arm* runs the case on the deterministic discrete-event
//! runner with a single processor and a single shard. The *subject arm*
//! runs the identical construction on [`i432_sim::run_threaded`] — real
//! host threads over the lock-striped space — across a shards × threads
//! matrix. Conformance means the workload-visible end state is
//! bit-identical everywhere:
//!
//! * a placement-independent digest of the graph reachable from the
//!   per-process output objects, the shared counter cell, and the mutex
//!   port ([`i432_arch::digest_from_roots`]);
//! * the shared counter's value (the generator predicts it exactly);
//! * each process's final status and fault code, in spawn order.
//!
//! Any mismatch is reported with a one-line `cargo` command that replays
//! the exact seed locally.

use crate::gen::{
    GenCase, CTX_ACCESS, CTX_DATA, OUT_ACCESS, S_DEEP, S_OUT, S_SHARED, S_TIGHT, TIGHT_QUOTA,
};
use i432_arch::{
    digest_from_roots,
    sysobj::{SroState, PROC_SLOT_CONTEXT},
    AccessDescriptor, CodeBody, Level, ObjectRef, ObjectSpec, ObjectType, PortDiscipline,
    ProcessStatus, Rights, Subprogram, SysState, SystemType,
};
use i432_gdp::{native::NativeReturn, process::ProcessSpec};
use i432_sim::{RunConfig, RunOutcome, System, SystemConfig};
use imax_ipc::create_port;

/// The full conformance matrix from the acceptance criteria:
/// {1, 4, 16} shards × {1, 4, 8} host threads.
pub const FULL_MATRIX: &[(u32, u32)] = &[
    (1, 1),
    (1, 4),
    (1, 8),
    (4, 1),
    (4, 4),
    (4, 8),
    (16, 1),
    (16, 4),
    (16, 8),
];

/// A reduced matrix for tier-1 test time on small hosts.
pub const QUICK_MATRIX: &[(u32, u32)] = &[(1, 1), (4, 4)];

/// The value the oracle's native subprogram returns.
pub const NATIVE_ECHO_VALUE: u64 = 0x432;
/// Cycles the oracle's native subprogram charges.
const NATIVE_ECHO_CYCLES: u64 = 40;

/// Step budget for the reference arm.
const DET_BUDGET: u64 = 50_000_000;
/// Step budget for the threaded arm (polls are steps too).
const THR_BUDGET: u64 = 50_000_000;

/// The workload-visible end state of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseOutcome {
    /// Digest of the graph reachable from the oracle's roots.
    pub digest: u64,
    /// Final shared-counter value.
    pub counter: u64,
    /// `(status, fault_code)` per process, in spawn order.
    pub proc_states: Vec<(ProcessStatus, u16)>,
}

/// Everything [`build`] wires up besides the [`System`] itself.
struct Harness {
    processes: Vec<ObjectRef>,
    roots: Vec<AccessDescriptor>,
    shared_ad: AccessDescriptor,
}

/// The one-line command that reproduces a failing seed locally.
pub fn replay_command(seed: u64) -> String {
    format!("cargo run --release -p i432-conform --bin conform_fuzz -- --seed {seed}")
}

/// Builds a system running `case` on the given stripe/processor counts.
/// The construction is identical for both arms — only the engine and the
/// matrix point differ.
fn build(case: &GenCase, shards: u32, cpus: u32) -> (System, Harness) {
    let mut cfg = SystemConfig::small()
        .with_processors(cpus)
        .with_shards(shards);
    // Keep per-shard capacity constant as the stripe count grows.
    cfg.data_bytes *= shards;
    cfg.access_slots *= shards;
    cfg.table_limit *= shards;
    let mut sys = System::new(&cfg);
    let root = sys.space.root_sro();

    // The token mutex: capacity-1 FIFO port primed with one token.
    let mutex = create_port(&mut sys.space, root, 1, PortDiscipline::Fifo)
        .expect("mutex port fits a fresh arena");
    sys.anchor(mutex.ad());
    let token = sys
        .space
        .create_object(root, ObjectSpec::generic(8, 0))
        .expect("token fits");
    let token_ad = sys.space.mint(token, Rights::READ | Rights::WRITE);
    imax_ipc::untyped::send(&mut sys.space, mutex, token_ad).expect("token primes the mutex");

    // Shared counter cell.
    let shared = sys
        .space
        .create_object(root, ObjectSpec::generic(8, 0))
        .expect("counter fits");
    let shared_ad = sys.space.mint(shared, Rights::READ | Rights::WRITE);
    sys.anchor(shared_ad);

    // Faulted processes park here instead of terminating silently.
    let fault_port = create_port(
        &mut sys.space,
        root,
        case.processes.len() as u32 + 1,
        PortDiscipline::Fifo,
    )
    .expect("fault port fits");
    sys.anchor(fault_port.ad());

    // A short-lived-level object: storing it into any global container
    // must level-fault (the generator's "level" fault variant).
    let deep = sys
        .space
        .create_object(
            root,
            ObjectSpec {
                data_len: 8,
                access_len: 0,
                otype: ObjectType::GENERIC,
                level: Some(Level(5)),
                sys: SysState::Generic,
            },
        )
        .expect("deep object fits");
    // Deliberately NOT anchored: the root directory is a program-visible
    // generic container at GLOBAL level, so holding a Level(5) AD there
    // would itself violate the level rule `check_invariants` audits. The
    // object stays live through the context slots (system objects, which
    // the hardware-store path legitimately exempts), and no collector
    // runs inside the oracle.
    let deep_ad = sys.space.mint(deep, Rights::READ | Rights::WRITE);

    let mut subs: Vec<_> = case
        .processes
        .iter()
        .enumerate()
        .map(|(i, p)| sys.subprogram(&format!("fuzz{i}"), p.program.clone(), CTX_DATA, CTX_ACCESS))
        .collect();
    // One native body after the programs, at index `processes.len()`:
    // generated programs never call it; hand-built call cases use it to
    // cross into native code. It hands the argument AD back with a fixed
    // value, so its result is schedule-independent.
    let echo = sys.natives.register("conform.echo", |cx| {
        cx.charge(NATIVE_ECHO_CYCLES);
        Ok(NativeReturn {
            ad: cx.arg(),
            value: Some(NATIVE_ECHO_VALUE),
        })
    });
    subs.push(Subprogram {
        name: "echo".into(),
        body: CodeBody::Native(echo),
        ctx_data_len: CTX_DATA,
        ctx_access_len: CTX_ACCESS,
    });
    let dom = sys.install_domain("conform", subs, 0);

    let mut processes = Vec::new();
    let mut roots = Vec::new();
    for i in 0..case.processes.len() {
        let out = sys
            .space
            .create_object(root, ObjectSpec::generic(16, OUT_ACCESS))
            .expect("output object fits");
        let out_ad = sys.space.mint(out, Rights::READ | Rights::WRITE);
        sys.anchor(out_ad);
        // A per-process "tight" SRO: no storage of its own (zero-size
        // creates need none) and a table quota of TIGHT_QUOTA, so the
        // table-ceiling fault family trips at a fixed instruction
        // regardless of shard count or schedule.
        let tight = {
            let mut st = SroState::new(Level(0));
            st.parent = Some(root);
            st.table_quota = TIGHT_QUOTA;
            sys.space
                .create_object(
                    root,
                    ObjectSpec {
                        data_len: 0,
                        access_len: 0,
                        otype: ObjectType::System(SystemType::StorageResource),
                        level: None,
                        sys: SysState::Sro(st),
                    },
                )
                .expect("tight SRO fits")
        };
        let tight_ad = sys.space.mint(tight, Rights::ALLOCATE);
        let mut spec = ProcessSpec::new(sys.dispatch_ad());
        spec.fault_port = Some(fault_port.ad());
        let p = sys.spawn_with(dom, i as u32, Some(mutex.ad()), spec);
        // Poke the well-known context slots the generated programs use.
        let ctx = sys
            .space
            .load_ad_hw(p, PROC_SLOT_CONTEXT)
            .expect("fresh process")
            .expect("fresh process has a context")
            .obj;
        for (slot, ad) in [
            (S_OUT, out_ad),
            (S_SHARED, shared_ad),
            (S_DEEP, deep_ad),
            (S_TIGHT, tight_ad),
        ] {
            sys.space
                .store_ad_hw(ctx, u32::from(slot), Some(ad))
                .expect("context slot poke");
        }
        processes.push(p);
        roots.push(out_ad);
    }
    roots.push(shared_ad);
    roots.push(mutex.ad());
    let harness = Harness {
        processes,
        roots,
        shared_ad,
    };
    (sys, harness)
}

fn outcome_of(sys: &mut System, h: &Harness) -> CaseOutcome {
    let counter = sys
        .space
        .read_u64(h.shared_ad, 0)
        .expect("counter cell is live");
    let digest = digest_from_roots(&sys.space, &h.roots);
    let proc_states = h
        .processes
        .iter()
        .map(|p| {
            let s = sys.space.process(*p).expect("registered process is live");
            (s.status, s.fault_code)
        })
        .collect();
    CaseOutcome {
        digest,
        counter,
        proc_states,
    }
}

/// Runs the reference arm: deterministic runner, 1 shard, 1 processor.
/// Returns the system too so callers can audit the final space.
pub fn run_deterministic_sys(case: &GenCase) -> (System, CaseOutcome) {
    let (mut sys, h) = build(case, 1, 1);
    let outcome = sys.run_to_quiescence(DET_BUDGET);
    assert_eq!(
        outcome,
        RunOutcome::Quiescent,
        "seed {}: reference arm did not quiesce; replay: {}",
        case.seed,
        replay_command(case.seed)
    );
    let o = outcome_of(&mut sys, &h);
    (sys, o)
}

/// Runs the reference arm and returns its end state.
pub fn run_deterministic(case: &GenCase) -> CaseOutcome {
    run_deterministic_sys(case).1
}

/// Runs the subject arm at one matrix point with the fast-path arms
/// `cfg` selects. Every arm must be digest-identical to the reference —
/// the port rings are drained back into the message areas before the
/// space is handed back, and fused dispatch charges the per-instruction
/// cycle model unchanged by construction. Returns the system too.
pub fn run_threaded_sys(
    case: &GenCase,
    shards: u32,
    cpus: u32,
    cfg: RunConfig,
) -> (System, CaseOutcome) {
    let (sys, h) = build(case, shards, cpus);
    let (mut sys, outcome) = i432_sim::run_threaded(sys, THR_BUDGET, cfg, Vec::new());
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "seed {}: threaded arm ({shards} shards x {cpus} threads, {cfg}) failed: {outcome:?}; replay: {}",
        case.seed,
        replay_command(case.seed)
    );
    let o = outcome_of(&mut sys, &h);
    (sys, o)
}

/// Runs the subject arm at one matrix point with an on-the-fly GC
/// daemon time-slicing against the workload (increments per daemon
/// call as given). Returns the collector so callers can audit its
/// statistics and the trace timeline against them.
///
/// The daemon is a system service: completion tracking ignores it, so
/// the run ends when the workload processes do.
pub fn run_threaded_sys_gc(
    case: &GenCase,
    shards: u32,
    cpus: u32,
    cfg: RunConfig,
    increments_per_call: u32,
) -> (
    System,
    CaseOutcome,
    std::sync::Arc<parking_lot::Mutex<imax_gc::Collector>>,
) {
    let (mut sys, h) = build(case, shards, cpus);
    let collector = std::sync::Arc::new(parking_lot::Mutex::new(imax_gc::Collector::new()));
    let daemon = imax_gc::install_gc_daemon(
        &mut sys,
        std::sync::Arc::clone(&collector),
        increments_per_call,
        128,
    );
    // Equal footing with the workload: the daemon time-slices rather
    // than monopolising a processor.
    if let Ok(ps) = sys.space.process_mut(daemon) {
        ps.timeslice = 5_000;
        ps.slice_remaining = 5_000;
    }
    // Short workload slices force preemption even on one processor;
    // otherwise small cases run sequentially to completion and the
    // daemon (queued behind them at equal priority) never executes a
    // single increment before the run ends.
    for p in sys.processes().to_vec() {
        if let Ok(ps) = sys.space.process_mut(p) {
            ps.timeslice = 500;
            ps.slice_remaining = 500;
        }
    }
    // Unbounded, unlike the plain arm: the cap counts idle dispatch
    // spins and here the daemon also steps continuously, so no finite
    // total-step budget is schedule-independent. The run still ends —
    // the workload halts and completion tracking ignores the daemon.
    let (mut sys, outcome) = i432_sim::run_threaded(sys, u64::MAX, cfg, Vec::new());
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "seed {}: threaded+GC arm ({shards} shards x {cpus} threads, {cfg}) failed: {outcome:?}; replay: {}",
        case.seed,
        replay_command(case.seed)
    );
    let o = outcome_of(&mut sys, &h);
    (sys, o, collector)
}

/// Runs the subject arm at one matrix point with the **parallel
/// per-shard collector** ([`imax_gc::ParallelGc`]) marking and sweeping
/// on real host threads concurrently with the mutator GDPs — the
/// strongest concurrency the system offers. Returns the collector's
/// statistics so callers can audit how much collection really ran.
///
/// The workers always finish the cycle in progress when the workload
/// completes, so the space is handed back at a cycle boundary and the
/// end-state digest must still be bit-identical to the reference arm:
/// an on-the-fly collector only ever removes unreachable objects, and
/// the digest walks the reachable graph.
pub fn run_threaded_sys_pargc(
    case: &GenCase,
    shards: u32,
    cpus: u32,
    cfg: RunConfig,
) -> (System, CaseOutcome, imax_gc::ParGcStats) {
    let (mut sys, h) = build(case, shards, cpus);
    // Short workload slices, as in the daemon arm: collector cycles
    // should interleave with allocation and barrier traffic, not run
    // against an already-quiescent space.
    for p in sys.processes().to_vec() {
        if let Ok(ps) = sys.space.process_mut(p) {
            ps.timeslice = 500;
            ps.slice_remaining = 500;
        }
    }
    let gc = imax_gc::ParallelGc::new(shards, imax_gc::GcConfig::default());
    // Unbounded for the same reason as the daemon arm: epoch bumps from
    // concurrent sweeps perturb idle-spin counts, so no finite
    // total-step budget is schedule-independent.
    let (mut sys, outcome) = imax_gc::run_threaded_parallel_gc(sys, u64::MAX, cfg, &gc);
    assert!(
        outcome.completed && outcome.system_errors == 0,
        "seed {}: threaded+parallel-GC arm ({shards} shards x {cpus} threads, {cfg}) failed: {outcome:?}; replay: {}",
        case.seed,
        replay_command(case.seed)
    );
    let stats = gc.snapshot();
    assert!(
        stats.errors.is_empty(),
        "seed {}: parallel collector faulted: {:?}; replay: {}",
        case.seed,
        stats.errors,
        replay_command(case.seed)
    );
    let o = outcome_of(&mut sys, &h);
    (sys, o, stats)
}

/// Differential check of the parallel-collector arm: the reference
/// deterministic run (no GC at all) and every matrix point running
/// under concurrent per-shard collection must agree bit-for-bit on the
/// workload-visible end state, at every configuration `arms` selects.
pub fn check_seed_pargc(seed: u64, matrix: &[(u32, u32)], arms: Arms) -> SeedReport {
    let case = crate::gen::generate(seed);
    let reference = run_deterministic(&case);
    let mut mismatches = Vec::new();
    for &(shards, cpus) in matrix {
        for cfg in arms.configs() {
            let (_sys, got, stats) = run_threaded_sys_pargc(&case, shards, cpus, cfg);
            if got != reference {
                mismatches.push(format!(
                    "seed {seed}: {shards} shards x {cpus} threads ({cfg}, parallel GC: \
                     {} cycles, {} reclaimed, {} steals) diverged \
                     (digest {:#018x} vs {:#018x}, counter {} vs {}, states {:?} vs {:?}); replay: {}",
                    stats.cycles,
                    stats.reclaimed,
                    stats.steals,
                    got.digest,
                    reference.digest,
                    got.counter,
                    reference.counter,
                    got.proc_states,
                    reference.proc_states,
                    replay_command(seed)
                ));
            }
        }
    }
    SeedReport {
        seed,
        reference,
        mismatches,
    }
}

/// Which settings of one fast-path arm the oracle exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Modes {
    /// On only (the runner default).
    On,
    /// Forced off only.
    Off,
    /// Both — every point runs twice, and the two runs must be
    /// digest-identical to each other and to the reference.
    Both,
}

impl Modes {
    /// The settings this mode expands to.
    pub fn arms(self) -> &'static [bool] {
        match self {
            Modes::On => &[true],
            Modes::Off => &[false],
            Modes::Both => &[true, false],
        }
    }

    /// Parses an `on|off|both` flag value.
    pub fn parse(s: &str) -> Option<Modes> {
        match s {
            "on" => Some(Modes::On),
            "off" => Some(Modes::Off),
            "both" => Some(Modes::Both),
            _ => None,
        }
    }
}

/// The fast-path arm product [`check_seed`] sweeps at every matrix
/// point: one [`Modes`] per [`RunConfig`] field. `Default` runs both
/// cache arms with port rings and fusion on — the qualification and
/// binding-register caches must be semantically invisible, so every
/// point is diffed cache-on *and* cache-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arms {
    /// Qualification/binding-register cache arms.
    pub cache: Modes,
    /// Port-ring arms.
    pub queue: Modes,
    /// Dispatch-specialization arms. Fusion rides on the cache's fast
    /// path, so a fusion-on arm is only distinct from the plain cached
    /// arm where the cache arm is on.
    pub fusion: Modes,
}

impl Default for Arms {
    fn default() -> Self {
        Arms {
            cache: Modes::Both,
            queue: Modes::On,
            fusion: Modes::On,
        }
    }
}

impl Arms {
    /// Every runner configuration in the product, cache outermost.
    pub fn configs(self) -> impl Iterator<Item = RunConfig> {
        self.cache.arms().iter().flat_map(move |&cache| {
            self.queue.arms().iter().flat_map(move |&queue| {
                self.fusion.arms().iter().map(move |&fusion| RunConfig {
                    cache,
                    queue,
                    fusion,
                })
            })
        })
    }
}

/// The oracle's verdict for one seed across a matrix.
#[derive(Debug, Clone)]
pub struct SeedReport {
    /// The seed checked.
    pub seed: u64,
    /// The reference arm's end state.
    pub reference: CaseOutcome,
    /// One line per divergence (empty = conformant).
    pub mismatches: Vec<String>,
}

impl SeedReport {
    /// True when every matrix point matched the reference arm.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Checks one seed: generates the case, runs the reference arm, then the
/// subject arm at every `matrix` point under every configuration in
/// `arms`, comparing end states bit-for-bit. Also round-trips every
/// generated program through the wire codec — a failing seed must be
/// storable as a replayable artifact.
///
/// With every arm at [`Modes::Both`] this is the differential battery
/// that proves the caches, the port rings, superinstruction fusion and
/// the inline caches semantically invisible.
pub fn check_seed(seed: u64, matrix: &[(u32, u32)], arms: Arms) -> SeedReport {
    let case = crate::gen::generate(seed);
    let mut mismatches = Vec::new();

    for (i, p) in case.processes.iter().enumerate() {
        let bytes = i432_gdp::encode_program(&p.program);
        match i432_gdp::decode_program(&bytes) {
            Ok(back) if back == p.program => {}
            Ok(_) => mismatches.push(format!(
                "seed {seed} program {i}: codec round-trip altered the program; replay: {}",
                replay_command(seed)
            )),
            Err(e) => mismatches.push(format!(
                "seed {seed} program {i}: codec rejected its own encoding ({e}); replay: {}",
                replay_command(seed)
            )),
        }
    }

    let reference = run_deterministic(&case);
    let expected = case.expected_counter();
    if reference.counter != expected {
        mismatches.push(format!(
            "seed {seed}: reference counter {} != predicted {expected}; replay: {}",
            reference.counter,
            replay_command(seed)
        ));
    }

    for &(shards, cpus) in matrix {
        for cfg in arms.configs() {
            let got = run_threaded_sys(&case, shards, cpus, cfg).1;
            if got != reference {
                mismatches.push(format!(
                    "seed {seed}: {shards} shards x {cpus} threads ({cfg}) diverged \
                     (digest {:#018x} vs {:#018x}, counter {} vs {}, states {:?} vs {:?}); replay: {}",
                    got.digest,
                    reference.digest,
                    got.counter,
                    reference.counter,
                    got.proc_states,
                    reference.proc_states,
                    replay_command(seed)
                ));
            }
        }
    }
    SeedReport {
        seed,
        reference,
        mismatches,
    }
}
