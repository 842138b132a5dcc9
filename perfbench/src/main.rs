//! iMAX-432 host-time benchmark: end-to-end and per-layer costs of three
//! workloads (`filing`, `compute`, `tenants`).
//!
//! ```text
//! perfbench --workload <filing|compute|tenants> --seed <n> --seconds <s>
//!           --trace <0|1> [--untraced-round-ns <ns>]
//! ```
//!
//! `--trace 0` (a build without the `trace` feature) measures the
//! end-to-end metrics; `--trace 1` (a `--features trace` build) runs the
//! layer probes and the workload with spans and flight-recorder counters
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`, `info`.
//! `perfbench/run.py` builds both variants and drives them.

mod common;
mod compute;
mod filing;
mod probes;
mod tenants;

use common::{median, ratio, Ctx, Measured, PHASES};
use i432_trace::Counter;
use std::fmt::Write as _;

/// The paper's C1 domain switch and C2 allocation times (µs at 8 MHz).
const PAPER_C1_US: f64 = 65.0;
const PAPER_C2_US: f64 = 80.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    untraced_round_ns: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload")
        .ok_or("--workload is required")?
        .to_string();
    if !matches!(workload.as_str(), "filing" | "compute" | "tenants") {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace takes 0 or 1, not {t:?}")),
    };
    let untraced_round_ns = match get("--untraced-round-ns") {
        Some(v) => Some(v.parse().map_err(|e| format!("--untraced-round-ns: {e}"))?),
        None => None,
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        untraced_round_ns,
    })
}

/// The report: metrics by name with their unit, plus free-form facts.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    info: Vec<(String, String)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    fn info(&mut self, key: impl Into<String>, value: impl std::fmt::Display) {
        self.info.push((key.into(), value.to_string()));
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Simulated C1 and C2 next to the paper's figures; out-of-range model
/// numbers are check failures.
fn model_accuracy(report: &mut Report, errors: &mut Vec<String>) {
    let c1 = imax_bench::c1_domain_switch(50).call_us;
    let c2 = imax_bench::c2_allocation()[0].us;
    report.info(
        "model",
        format!(
            "simulated C1 domain switch {c1:.2} us (paper {PAPER_C1_US} us, {:+.1}%); \
             C2 allocation {c2:.2} us (paper {PAPER_C2_US} us, {:+.1}%)",
            100.0 * (c1 / PAPER_C1_US - 1.0),
            100.0 * (c2 / PAPER_C2_US - 1.0)
        ),
    );
    if !(60.0..=70.0).contains(&c1) || !(74.0..=86.0).contains(&c2) {
        errors.push(format!(
            "model accuracy out of range: C1 {c1} us, C2 {c2} us"
        ));
    }
}

fn end_to_end(m: &Measured, report: &mut Report, errors: &mut Vec<String>) {
    let round_s = m.round_median_ns() / 1e9;
    report.metric("ops_per_s", m.ops_per_round as f64 / round_s, "1/s");
    report.metric("setup_s", median(&m.setup_ns) / 1e9, "s");
    report.metric("sim_cycles_per_op", m.sim_cycles_per_op, "cycles/op");
    match common::peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
        None => errors.push("VmHWM unavailable".into()),
    }
}

/// Looks a probe's median up by name.
fn probe_ns(probes: &[probes::Probe], name: &str) -> f64 {
    probes
        .iter()
        .find(|p| p.name == name)
        .map_or(0.0, probes::Probe::median)
}

fn per_layer(
    workload: &str,
    m: &Measured,
    probes: &[probes::Probe],
    untraced_round_ns: Option<f64>,
    report: &mut Report,
) {
    for p in probes {
        let unit = if p.name == "gc.reclaimed_per_wave" {
            "count"
        } else {
            "ns"
        };
        report.metric(p.name, p.median(), unit);
        if unit == "ns" {
            let (q1, q3) = probes::quartiles(p);
            report.metric(format!("{}.q1", p.name), q1, "ns");
            report.metric(format!("{}.q3", p.name), q3, "ns");
        }
    }

    let rounds = m.round_ns.len() as f64;
    let ops = m.ops_per_round as f64 * rounds;
    let c = |k: Counter| m.counts.get(k) as f64;
    let total_round_ns: f64 = m.round_ns.iter().sum();
    let thr_steps = m.thr_steps as f64;
    report.metric(
        "sim.thr_ns_per_step",
        ratio(total_round_ns, thr_steps),
        "ns",
    );
    report.metric("sim.thr_steps_per_op", ratio(thr_steps, ops), "steps/op");
    report.metric(
        "sim.useful_step_ratio",
        ratio(m.det_steps as f64 * rounds, thr_steps),
        "ratio",
    );
    report.metric(
        "sim.det_ns_per_step",
        ratio(m.det_run_ns, m.det_steps as f64),
        "ns",
    );
    report.metric(
        "gdp.instr_per_op",
        ratio(c(Counter::InstrExecuted), ops),
        "instr/op",
    );
    report.metric(
        "gdp.fusion_hit_ratio",
        ratio(c(Counter::FusionHits), c(Counter::InstrExecuted)),
        "ratio",
    );
    report.metric(
        "gdp.ic_hit_ratio",
        ratio(
            c(Counter::IcHits),
            c(Counter::IcHits) + c(Counter::IcMisses),
        ),
        "ratio",
    );
    report.metric(
        "gdp.ring_fallback_ratio",
        ratio(
            c(Counter::PortRingFallbacks),
            c(Counter::PortFastSends) + c(Counter::PortRingFallbacks),
        ),
        "ratio",
    );
    let locks = c(Counter::ShardLocks) + c(Counter::ShardLockPairs) + c(Counter::ShardLockAll);
    report.metric("arch.shard_locks_per_op", ratio(locks, ops), "locks/op");
    report.metric(
        "arch.qual_hit_ratio",
        ratio(
            c(Counter::QualHits),
            c(Counter::QualHits) + c(Counter::QualMisses),
        ),
        "ratio",
    );
    report.metric(
        "io.blk_ops_per_req",
        ratio(c(Counter::BlkSubmits), ops),
        "ops/req",
    );
    for phase in PHASES {
        report.metric(format!("span.{phase}_ns"), m.spans.median(phase), "ns");
    }

    // Counts times probe costs, per round, against the untraced round.
    let per_round = |x: f64| ratio(x, rounds);
    let p = |name: &str| probe_ns(probes, name);
    let deterministic = workload == "tenants";
    let instr_ns = if deterministic {
        p("gdp.instr_ns_det")
    } else {
        p("gdp.instr_ns_thr")
    };
    let locked_sends = (c(Counter::PortSends) - c(Counter::PortFastSends)).max(0.0);
    let mut explained = per_round(c(Counter::InstrExecuted)) * instr_ns
        + per_round(locked_sends) * p("gdp.port_pair_ns")
        + per_round(c(Counter::PortFastSends)) * p("gdp.ring_pair_ns")
        + per_round(c(Counter::SroAllocs)) * p("arch.create_destroy_ns")
        + per_round(c(Counter::BlkSubmits)) * p("io.blk_roundtrip_ns")
        + m.swaps.0 as f64 * p("storage.swap_out_ns")
        + m.swaps.1 as f64 * p("storage.swap_in_ns")
        + per_round(c(Counter::GcSweepReclaims)) * p("gc.ns_per_reclaim");
    if deterministic {
        // Spawn and retire sit inside a tenants round.
        explained += m.ops_per_round as f64 * (p("sim.spawn_ns") + p("sim.retire_ns_per_proc"));
    }
    let traced = m.round_median_ns();
    let untraced = untraced_round_ns.unwrap_or(0.0);
    report.metric("trace.explained_ns_per_round", explained, "ns");
    report.metric("trace.untraced_round_ns", untraced, "ns");
    report.metric("trace.traced_round_ns", traced, "ns");
    report.metric(
        "trace.residual_ratio",
        if untraced > 0.0 {
            1.0 - explained / untraced
        } else {
            0.0
        },
        "ratio",
    );
    report.metric(
        "trace.overhead_ratio",
        if untraced > 0.0 {
            traced / untraced - 1.0
        } else {
            0.0
        },
        "ratio",
    );
    report.metric("trace.rounds", rounds, "count");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace != i432_trace::ENABLED {
        eprintln!(
            "perfbench: --trace {} needs a build {} the `trace` feature",
            u8::from(args.trace),
            if args.trace { "with" } else { "without" }
        );
        std::process::exit(2);
    }
    let nproc = common::nproc();
    let gdp_threads = common::gdp_threads_for(nproc);
    if let Err(e) = common::check_oversubscription(gdp_threads, nproc) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        gdp_threads,
    };

    let probes = if args.trace {
        probes::run_all()
    } else {
        Vec::new()
    };
    if args.trace {
        i432_trace::reset();
    }

    let mut m = Measured::default();
    match args.workload.as_str() {
        "filing" => filing::run(&ctx, &mut m),
        "compute" => compute::run(&ctx, &mut m),
        _ => tenants::run(&ctx, &mut m),
    }

    let mut report = Report::default();
    let mut errors = std::mem::take(&mut m.check_errors);
    if args.trace {
        per_layer(
            &args.workload,
            &m,
            &probes,
            args.untraced_round_ns,
            &mut report,
        );
    } else {
        end_to_end(&m, &mut report, &mut errors);
    }
    model_accuracy(&mut report, &mut errors);

    report.info("workload", &args.workload);
    report.info("seed", args.seed);
    report.info("nproc", nproc);
    report.info(
        "gdp_threads",
        if args.workload == "tenants" {
            "1 (deterministic runner)".to_string()
        } else {
            gdp_threads.to_string()
        },
    );
    report.info("rounds", m.round_ns.len());
    report.info("round_ns_median", m.round_median_ns());
    // Raw samples, so that runs of several processes can be pooled.
    let join = |v: &[f64]| {
        v.iter()
            .map(|ns| format!("{ns:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.info("ops_per_round", m.ops_per_round);
    report.info("round_ns_all", join(&m.round_ns));
    report.info("setup_ns_all", join(&m.setup_ns));
    // Exact, for the traced/untraced comparison.
    report.info("sim_cycles_per_op_bits", m.sim_cycles_per_op.to_bits());
    for (k, v) in &m.info {
        report.info(*k, v);
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    report.info("check_errors", errors.len());

    let correct = errors.is_empty() && m.failed == 0 && m.attempted > 0;
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.attempted.max(1),
        m.failed
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    line.push_str("}, \"info\": {");
    for (i, (k, v)) in report.info.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}{}: {}", json_str(k), json_str(v));
    }
    line.push_str("}}");
    println!("{line}");
}
