//! Differential conformance fuzzer CLI.
//!
//! ```text
//! conform_fuzz [--seed N | --start N --count N] [--matrix full|quick]
//!              [--workload gen|filing]
//!              [--cache on|off|both] [--port-queue on|off|both]
//!              [--fusion on|off|both]
//!              [--explore N] [--out PATH] [--trace] [--gc]
//! ```
//!
//! Default: seeds 0..256 on the full {1,4,16} shards × {1,4,8} threads
//! matrix, with every point run cache-on *and* cache-off (`--cache
//! both`). `--seed N` replays exactly one seed (the form every failure
//! report prints). `--port-queue` selects the port-ring arms: `on`
//! (runner default, lock-free rings ahead of the shard locks), `off`
//! (every port operation on the locked rendezvous path), or `both`
//! (each matrix × cache point diffed queued *and* locked against the
//! reference). `--fusion` selects the dispatch-specialization arms the
//! same way: `on` (runner default where the cache is on — pre-decoded
//! blocks, superinstruction fusion and call/port-site inline caches),
//! `off` (plain cached dispatch), or `both` (each matrix × cache ×
//! queue point diffed fused *and* unfused against the reference).
//! `--explore N` additionally runs N seeded schedule
//! explorations. `--gc` switches every matrix point to the
//! parallel-collector arm: the per-shard collector workers mark and
//! sweep on real threads *while* the workload runs, under every
//! cache × port-queue × fusion arm selected, and the end state must
//! still match the (GC-free) deterministic reference bit-for-bit.
//! Failing seeds are written to `--out` (default
//! `CONFORM_FAILURES.json`) and the process exits nonzero.
//!
//! `--workload filing` switches from the generated ISA cases to the
//! object-filing differential workload: the full filing stack (typed
//! ports, swapping storage, the async virtio block device, worker
//! natives) runs deterministically and threaded at every matrix point,
//! each point diffed with the device descriptor ring on *and* off; the
//! matrix's thread column sets the filing worker count. `--cache`,
//! `--port-queue`, `--fusion` and `--gc` apply only to the generated
//! workload.
//!
//! `--trace` (needs a `--features trace` build; warns otherwise)
//! replays every failing differential seed once on the threaded runner
//! with the flight recorder on and writes its merged timeline to
//! `TRACE_seed_<n>.json` — schedule-level evidence to read next to the
//! digest mismatch.

use i432_conform::{
    check_filing_seed, check_seed, check_seed_pargc, explore, generate, run_filing_threaded,
    run_threaded_sys, Arms, ExploreConfig, Modes, RunConfig, FULL_MATRIX, QUICK_MATRIX,
};
use std::fmt::Write as _;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Gen,
    Filing,
}

struct Args {
    workload: Workload,
    start: u64,
    count: u64,
    matrix: &'static [(u32, u32)],
    arms: Arms,
    explore_seeds: u64,
    out: String,
    trace: bool,
    gc: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Gen,
        start: 0,
        count: 256,
        matrix: FULL_MATRIX,
        arms: Arms::default(),
        explore_seeds: 0,
        out: "CONFORM_FAILURES.json".into(),
        trace: false,
        gc: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need_value = |i: usize| -> Result<&str, String> {
            argv.get(i + 1)
                .map(|s| s.as_str())
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--seed" => {
                args.start = need_value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                args.count = 1;
                i += 2;
            }
            "--start" => {
                args.start = need_value(i)?
                    .parse()
                    .map_err(|e| format!("--start: {e}"))?;
                i += 2;
            }
            "--count" => {
                args.count = need_value(i)?
                    .parse()
                    .map_err(|e| format!("--count: {e}"))?;
                i += 2;
            }
            "--workload" => {
                args.workload = match need_value(i)? {
                    "gen" => Workload::Gen,
                    "filing" => Workload::Filing,
                    other => return Err(format!("--workload: expected gen|filing, got {other:?}")),
                };
                i += 2;
            }
            "--matrix" => {
                args.matrix = match need_value(i)? {
                    "full" => FULL_MATRIX,
                    "quick" => QUICK_MATRIX,
                    other => return Err(format!("--matrix: unknown matrix {other:?}")),
                };
                i += 2;
            }
            flag @ ("--cache" | "--port-queue" | "--fusion") => {
                let v = need_value(i)?;
                let modes = Modes::parse(v)
                    .ok_or_else(|| format!("{flag}: expected on|off|both, got {v:?}"))?;
                match flag {
                    "--cache" => args.arms.cache = modes,
                    "--port-queue" => args.arms.queue = modes,
                    _ => args.arms.fusion = modes,
                }
                i += 2;
            }
            "--explore" => {
                args.explore_seeds = need_value(i)?
                    .parse()
                    .map_err(|e| format!("--explore: {e}"))?;
                i += 2;
            }
            "--out" => {
                args.out = need_value(i)?.to_string();
                i += 2;
            }
            "--trace" => {
                args.trace = true;
                i += 1;
            }
            "--gc" => {
                args.gc = true;
                i += 1;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("conform_fuzz: {e}");
            return ExitCode::from(2);
        }
    };

    if args.workload == Workload::Filing && args.gc {
        eprintln!("conform_fuzz: --gc applies only to --workload gen");
        return ExitCode::from(2);
    }
    println!(
        "i432 differential conformance fuzz ({} workload): seeds {}..{}, {} matrix points/seed, \
         {} cache arm(s), {} port-queue arm(s), {} fusion arm(s){}",
        match args.workload {
            Workload::Gen => "generated",
            Workload::Filing => "filing",
        },
        args.start,
        args.start + args.count,
        args.matrix.len(),
        args.arms.cache.arms().len(),
        args.arms.queue.arms().len(),
        args.arms.fusion.arms().len(),
        if args.gc {
            ", concurrent parallel-GC arm"
        } else {
            ""
        }
    );
    let mut failures = Vec::new();
    for seed in args.start..args.start + args.count {
        let report = match args.workload {
            Workload::Filing => check_filing_seed(seed, args.matrix),
            Workload::Gen if args.gc => check_seed_pargc(seed, args.matrix, args.arms),
            Workload::Gen => check_seed(seed, args.matrix, args.arms),
        };
        if report.passed() {
            if (seed - args.start + 1) % 32 == 0 {
                println!(
                    "  {}/{} seeds conformant (latest digest {:#018x})",
                    seed - args.start + 1,
                    args.count,
                    report.reference.digest
                );
            }
        } else {
            for m in &report.mismatches {
                eprintln!("FAIL: {m}");
            }
            failures.push(report);
        }
    }

    let mut explore_failures = Vec::new();
    for seed in args.start..args.start + args.explore_seeds {
        match explore(&ExploreConfig::smoke(seed)) {
            Ok(r) => println!(
                "  explore seed {seed}: {} ops, {} cross-shard pairs, {} atomic sections",
                r.ops, r.cross_shard_pairs, r.atomic_sections
            ),
            Err(e) => {
                eprintln!("FAIL: {e}");
                explore_failures.push(e);
            }
        }
    }

    if failures.is_empty() && explore_failures.is_empty() {
        println!(
            "pass: {} seeds conformant, {} explorations deadlock-free",
            args.count, args.explore_seeds
        );
        return ExitCode::SUCCESS;
    }

    // `--trace`: replay each failing differential seed once on the
    // threaded runner with the recorder on, and keep its timeline as a
    // debugging artifact next to the failure list.
    let mut trace_files: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    if args.trace {
        if i432_trace::ENABLED {
            for f in &failures {
                i432_trace::reset();
                i432_trace::set_context(0, 0);
                // A failing seed's replay may itself assert (hang,
                // system error); the partial timeline is exactly what
                // we want then, so keep going either way.
                let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match args
                    .workload
                {
                    Workload::Filing => {
                        run_filing_threaded(f.seed, 4, 4, true);
                    }
                    Workload::Gen => {
                        let case = generate(f.seed);
                        run_threaded_sys(&case, 4, 4, RunConfig::default());
                    }
                }));
                if replay.is_err() {
                    eprintln!("seed {}: traced replay panicked (timeline kept)", f.seed);
                }
                let t = i432_trace::drain_timeline();
                let path = format!("TRACE_seed_{}.json", f.seed);
                match std::fs::write(&path, t.to_json()) {
                    Ok(()) => {
                        eprintln!(
                            "wrote {path} ({} events, {} dropped)",
                            t.events.len(),
                            t.dropped
                        );
                        trace_files.insert(f.seed, path);
                    }
                    Err(e) => eprintln!("conform_fuzz: could not write {path}: {e}"),
                }
            }
        } else {
            eprintln!(
                "conform_fuzz: --trace ignored — this binary was built without the \
                 flight recorder; rebuild with --features trace"
            );
        }
    }

    // Persist the failing seeds as a replayable artifact.
    let mut json = String::from("{\n  \"failures\": [\n");
    let total = failures.len() + explore_failures.len();
    let mut emitted = 0;
    for f in &failures {
        emitted += 1;
        let trace = trace_files
            .get(&f.seed)
            .map_or("null".to_string(), |p| format!("\"{p}\""));
        let _ = writeln!(
            json,
            "    {{\"seed\": {}, \"kind\": \"{}\", \"mismatches\": {}, \"trace\": {}}}{}",
            f.seed,
            match args.workload {
                Workload::Gen => "differential",
                Workload::Filing => "filing",
            },
            f.mismatches.len(),
            trace,
            if emitted < total { "," } else { "" }
        );
    }
    for e in &explore_failures {
        emitted += 1;
        let _ = writeln!(
            json,
            "    {{\"kind\": \"explore\", \"detail\": \"{}\"}}{}",
            e.replace('"', "'"),
            if emitted < total { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("conform_fuzz: could not write {}: {e}", args.out);
    } else {
        eprintln!("wrote failing seeds to {}", args.out);
    }
    eprintln!(
        "FAILED: {} differential seed(s), {} exploration(s)",
        failures.len(),
        explore_failures.len()
    );
    ExitCode::FAILURE
}
