//! Shared plumbing: the run context, sample statistics, the seeded input
//! generator, span recording, counter snapshots and host facts.

use i432_sim::{System, ThreadedOutcome};
use std::collections::BTreeMap;
use std::time::Instant;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Wall-clock budget of the timed rounds.
    pub seconds: f64,
    /// GDP host threads of the threaded runner: `min(2, nproc)`.
    pub gdp_threads: u32,
}

/// Host threads the threaded workloads use: never more than the host
/// has cores, and at most two (processes outnumber processors and wait
/// at the dispatching port, as on the 432).
pub fn gdp_threads_for(nproc: u32) -> u32 {
    nproc.clamp(1, 2)
}

/// Refuses a point that would run more GDP threads than host cores.
pub fn check_oversubscription(gdp_threads: u32, nproc: u32) -> Result<(), String> {
    if gdp_threads > nproc {
        Err(format!(
            "refused: {gdp_threads} GDP threads on a {nproc}-core host is oversubscribed"
        ))
    } else {
        Ok(())
    }
}

/// Host cores the process may run on.
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// The process's peak resident set (VmHWM) in MB, or `None` when the
/// kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Splitmix64: a small, seedable, host-independent input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from the raw seed value.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x1432_0000_5EED_0001)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The `p`-quantile (0..=1) of `v` by linear interpolation between
/// order statistics. `v` need not be sorted; empty input gives 0.
pub fn quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// Spans recorded by the benchmark around its calls into each layer:
/// per phase name, one host-time sample (ns) per round.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

/// The phases the benchmark brackets. A phase a workload does not have
/// reads 0 in the report.
pub const PHASES: &[&str] = &["boot", "install", "spawn", "run", "retire", "collect"];

impl Spans {
    /// Times `f` as one sample of `phase`.
    pub fn time<R>(&mut self, phase: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(phase, ns_since(t0));
        r
    }

    /// Records one sample of `phase`.
    pub fn record(&mut self, phase: &'static str, ns: f64) {
        self.samples.entry(phase).or_default().push(ns);
    }

    /// Median sample of `phase`, 0 when the phase never ran.
    pub fn median(&self, phase: &str) -> f64 {
        self.samples.get(phase).map_or(0.0, |v| median(v))
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: Spans) {
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }
}

/// Flight-recorder counter deltas summed over the timed rounds (all
/// zero in a build without the `trace` feature).
#[derive(Debug, Clone, Copy)]
pub struct Counts(pub [u64; i432_trace::counters::COUNTER_COUNT]);

impl Default for Counts {
    fn default() -> Self {
        Counts([0; i432_trace::counters::COUNTER_COUNT])
    }
}

impl Counts {
    /// Runs `f`, adding the counter movement it causes.
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !i432_trace::ENABLED {
            return f();
        }
        let before = i432_trace::snapshot().counters;
        let r = f();
        let after = i432_trace::snapshot().counters;
        for (acc, (a, b)) in self.0.iter_mut().zip(after.iter().zip(before.iter())) {
            *acc += a.saturating_sub(*b);
        }
        r
    }

    /// One counter's total.
    pub fn get(&self, c: i432_trace::Counter) -> u64 {
        self.0[c as usize]
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything one workload measured in one invocation.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted in timed rounds.
    pub attempted: u64,
    /// Operations whose checks failed.
    pub failed: u64,
    /// Failed checks outside the operation count (reference runs that
    /// disagree, model lines out of range).
    pub check_errors: Vec<String>,
    /// Operations per timed round (fixed by the inputs).
    pub ops_per_round: u64,
    /// Host ns of each timed round.
    pub round_ns: Vec<f64>,
    /// Host ns of each set-up (building the workload's `System`).
    pub setup_ns: Vec<f64>,
    /// Simulated cycles per operation, from the deterministic reference.
    pub sim_cycles_per_op: f64,
    /// Deterministic-runner steps: of the reference run (one round) on
    /// the threaded workloads, of all timed rounds on `tenants`.
    pub det_steps: u64,
    /// Host ns of those deterministic runs, set-up excluded.
    pub det_run_ns: f64,
    /// Threaded-runner steps summed over timed rounds (0 on the
    /// deterministic workload).
    pub thr_steps: u64,
    /// Spans around each layer call.
    pub spans: Spans,
    /// Counter deltas over the timed rounds' runs.
    pub counts: Counts,
    /// Swap-outs and swap-ins of one round (deterministic reference).
    pub swaps: (u64, u64),
    /// Workload-specific facts for the report.
    pub info: Vec<(&'static str, String)>,
}

impl Measured {
    /// Median round time (ns).
    pub fn round_median_ns(&self) -> f64 {
        median(&self.round_ns)
    }

    /// Counts one round's outcome: `failed` of `ops` operations failed.
    pub fn account(&mut self, ops: u64, failed: u64) {
        self.attempted += ops;
        self.failed += failed.min(ops);
    }
}

/// The threaded workloads' rounds: two warm-up rounds, then timed rounds
/// for the context's budget. Each round builds a fresh system (timed as
/// set-up), runs it on the fused threaded runner and counts its failed
/// operations with `failed_ops`.
pub fn threaded_rounds<H>(
    ctx: &Ctx,
    m: &mut Measured,
    build: impl Fn(&mut Spans) -> (System, H),
    failed_ops: impl Fn(&mut System, &H, &ThreadedOutcome) -> u64,
) {
    let ops = m.ops_per_round;
    let round = |m: &mut Measured, timed: bool| {
        let mut spans = Spans::default();
        let t0 = Instant::now();
        let (sys, h) = build(&mut spans);
        let setup = ns_since(t0);
        let mut counts = m.counts;
        let t1 = Instant::now();
        let (mut sys, out) =
            counts.around(|| i432_sim::run_threaded_full(sys, u64::MAX, true, true, true));
        let run_ns = ns_since(t1);
        let failed = if out.completed && out.system_errors == 0 {
            failed_ops(&mut sys, &h, &out)
        } else {
            ops
        };
        if timed {
            m.counts = counts;
            spans.record("run", run_ns);
            m.spans.extend(spans);
            m.setup_ns.push(setup);
            m.round_ns.push(run_ns);
            m.thr_steps += out.steps;
            m.account(ops, failed);
        } else if failed != 0 {
            m.check_errors.push("warm-up round failed".into());
        }
    };
    for _ in 0..2 {
        round(m, false);
    }
    timed_loop(ctx.seconds, 5, || round(m, true));
}

/// Calls `round` until `seconds` of wall time have passed, and at least
/// `min_rounds` times.
pub fn timed_loop(seconds: f64, min_rounds: usize, mut round: impl FnMut()) {
    let t0 = Instant::now();
    let mut n = 0;
    while n < min_rounds || t0.elapsed().as_secs_f64() < seconds {
        round();
        n += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn oversubscribed_points_are_refused() {
        assert!(check_oversubscription(2, 1).is_err());
        assert!(check_oversubscription(2, 2).is_ok());
        assert_eq!(gdp_threads_for(1), 1);
        assert_eq!(gdp_threads_for(2), 2);
        assert_eq!(gdp_threads_for(64), 2);
    }

    #[test]
    fn seeds_reproduce_inputs() {
        let (mut a, mut b, mut c) = (Rng::new(7), Rng::new(7), Rng::new(8));
        let xa: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let xc: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }
}
