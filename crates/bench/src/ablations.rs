//! Ablations: quantify the design choices DESIGN.md calls out.
//!
//! * A1 — the CALL fast path for context allocation. The paper's numbers
//!   (65 µs switch vs 80 µs allocation) *force* a specialized context
//!   allocator; this ablation replaces it with the general CREATE OBJECT
//!   path and reports the damage.
//! * A2 — collector increment granularity: sweep-chunk size vs the
//!   largest single increment (the daemon's "pause" proxy) and total
//!   collection cost.
//! * A3 — SRO free-list fit policy: first-fit (the default) vs best-fit
//!   under random churn, by external fragmentation.
//! * A4 — write-barrier traffic: how many AD stores actually shade
//!   (the hardware gray-bit duty cycle) across workload shapes.

use i432_arch::memory::FitPolicy;
use i432_arch::{FreeList, ObjectSpec, Rights, ShardedSpace};
use i432_gdp::cost::cycles_to_us;
use i432_gdp::CostModel;
use imax_gc::{Collector, GcPhase};
use rand::{rngs::StdRng, RngExt, SeedableRng};

// ---------------------------------------------------------------------------
// A1 — context-allocation fast path.
// ---------------------------------------------------------------------------

/// A1 results.
#[derive(Debug, Clone, Copy)]
pub struct FastPathAblation {
    /// Domain switch with the fast path (the shipped model).
    pub with_fast_path_us: f64,
    /// Domain switch if CALL paid the general allocation price for its
    /// context (64-byte data part, 16 slots).
    pub without_fast_path_us: f64,
}

/// Computes both variants from the cost model.
pub fn a1_context_fast_path() -> FastPathAblation {
    let m = CostModel::default();
    let with_fast_path = m.call_total();
    // Replace ctx_alloc by the general creation charge for a typical
    // context segment.
    let without = m.call_total() - m.ctx_alloc + m.create_total(64, 16);
    FastPathAblation {
        with_fast_path_us: cycles_to_us(with_fast_path),
        without_fast_path_us: cycles_to_us(without),
    }
}

// ---------------------------------------------------------------------------
// A2 — collector increment granularity.
// ---------------------------------------------------------------------------

/// One sweep-chunk configuration.
#[derive(Debug, Clone, Copy)]
pub struct GcGranularity {
    /// Table entries per sweep increment.
    pub sweep_chunk: u32,
    /// Total simulated cycles for one full collection.
    pub total_cycles: u64,
    /// Largest single increment in cycles (pause proxy).
    pub max_increment: u64,
    /// Number of increments the cycle took.
    pub increments: u64,
}

/// Sweeps a populated space at several chunk sizes.
pub fn a2_gc_granularity(chunks: &[u32]) -> Vec<GcGranularity> {
    chunks
        .iter()
        .map(|&sweep_chunk| {
            let mut s = ShardedSpace::new(512 * 1024, 32 * 1024, 8192, 1);
            let root = s.root_sro();
            // A mixed population: half live (anchored), half garbage.
            let anchor = s.create_object(root, ObjectSpec::generic(0, 512)).unwrap();
            let anchor_ad = s.mint(anchor, Rights::READ | Rights::WRITE);
            // Make the anchor a root by giving it to a processor object.
            let cpu = s
                .create_object(
                    root,
                    ObjectSpec {
                        data_len: 0,
                        access_len: i432_arch::sysobj::CPU_ACCESS_SLOTS,
                        otype: i432_arch::ObjectType::System(i432_arch::SystemType::Processor),
                        level: None,
                        sys: i432_arch::SysState::Processor(i432_arch::ProcessorState::new(0)),
                    },
                )
                .unwrap();
            s.store_ad_hw(cpu, i432_arch::sysobj::CPU_SLOT_ROOT, Some(anchor_ad))
                .unwrap();
            for k in 0..512u32 {
                let o = s.create_object(root, ObjectSpec::generic(32, 1)).unwrap();
                if k % 2 == 0 {
                    let ad = s.mint(o, Rights::READ);
                    s.store_ad(anchor_ad, k, Some(ad)).unwrap();
                }
            }
            let mut gc = Collector::new();
            gc.config.sweep_chunk = sweep_chunk;
            let mut increments = 0u64;
            let mut max_increment = 0u64;
            let mut last = gc.stats.sim_cycles;
            gc.start_cycle(&mut s).unwrap();
            while gc.phase() != GcPhase::Idle {
                gc.step(&mut s).unwrap();
                increments += 1;
                let spent = gc.stats.sim_cycles - last;
                last = gc.stats.sim_cycles;
                max_increment = max_increment.max(spent);
            }
            GcGranularity {
                sweep_chunk,
                total_cycles: gc.stats.sim_cycles,
                max_increment,
                increments,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// A3 — free-list fit policy.
// ---------------------------------------------------------------------------

/// One fit-policy run.
#[derive(Debug, Clone, Copy)]
pub struct FitAblation {
    /// The policy measured.
    pub policy: FitPolicy,
    /// Allocation failures despite sufficient total free space
    /// (external-fragmentation events).
    pub frag_failures: u32,
    /// Free runs at the end (fragmentation count).
    pub final_runs: usize,
    /// Largest allocatable block at the end.
    pub final_largest: u32,
}

/// Random churn of mixed sizes against both policies (same seed).
pub fn a3_fit_policy(seed: u64, ops: u32) -> Vec<FitAblation> {
    [FitPolicy::FirstFit, FitPolicy::BestFit]
        .into_iter()
        .map(|policy| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fl = FreeList::new(0, 64 * 1024).with_policy(policy);
            let mut live: Vec<(u32, u32)> = Vec::new();
            let mut frag_failures = 0;
            for _ in 0..ops {
                if !live.is_empty() && rng.random_bool(0.45) {
                    let i = rng.random_range(0..live.len());
                    let (base, len) = live.swap_remove(i);
                    fl.release(base, len).unwrap();
                } else {
                    // Mixed small/large requests.
                    let len = if rng.random_bool(0.8) {
                        rng.random_range(16..256)
                    } else {
                        rng.random_range(1024..4096)
                    };
                    match fl.allocate(len) {
                        Ok(base) => live.push((base, len)),
                        Err(_) => {
                            if fl.total_free() >= len {
                                frag_failures += 1;
                            }
                        }
                    }
                }
            }
            FitAblation {
                policy,
                frag_failures,
                final_runs: fl.run_count(),
                final_largest: fl.largest_free(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// A4 — write-barrier duty cycle.
// ---------------------------------------------------------------------------

/// Barrier traffic for one workload shape.
#[derive(Debug, Clone, Copy)]
pub struct BarrierDuty {
    /// Fraction of AD stores that shaded their target (percent).
    pub shade_percent: f64,
    /// Total AD stores performed.
    pub stores: u64,
}

/// Measures the gray-bit duty cycle for a pointer-churn workload with
/// the given fan-out (stores per freshly created object).
pub fn a4_barrier_duty(fanout: u32) -> BarrierDuty {
    let mut s = ShardedSpace::new(512 * 1024, 32 * 1024, 8192, 1);
    let root = s.root_sro();
    let holder = s.create_object(root, ObjectSpec::generic(0, 64)).unwrap();
    let holder_ad = s.mint(holder, Rights::READ | Rights::WRITE);
    let before_stores = s.stats().ad_stores;
    let before_shades = s.stats().barrier_shades;
    for i in 0..256u32 {
        let o = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let ad = s.mint(o, Rights::READ);
        for k in 0..fanout {
            s.store_ad(holder_ad, (i + k) % 64, Some(ad)).unwrap();
        }
    }
    let stores = s.stats().ad_stores - before_stores;
    let shades = s.stats().barrier_shades - before_shades;
    BarrierDuty {
        shade_percent: 100.0 * shades as f64 / stores as f64,
        stores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_fast_path_is_load_bearing() {
        let r = a1_context_fast_path();
        assert!((60.0..=70.0).contains(&r.with_fast_path_us));
        assert!(
            r.without_fast_path_us > r.with_fast_path_us + 30.0,
            "without the fast path a CALL would cost {:.1}us",
            r.without_fast_path_us
        );
    }

    #[test]
    fn a2_smaller_chunks_smaller_increments() {
        let rows = a2_gc_granularity(&[4, 64, 4096]);
        assert!(rows[0].max_increment < rows[2].max_increment);
        assert!(rows[0].increments > rows[2].increments);
    }

    #[test]
    fn a3_policies_diverge_deterministically() {
        let a = a3_fit_policy(42, 4000);
        let b = a3_fit_policy(42, 4000);
        assert_eq!(a[0].final_runs, b[0].final_runs, "deterministic");
        // Both complete; the comparison itself is the data (printed by
        // the ablations binary).
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn a4_first_store_shades_rest_do_not() {
        let once = a4_barrier_duty(1);
        let thrice = a4_barrier_duty(3);
        assert!(once.shade_percent > 95.0, "{once:?}");
        assert!(
            thrice.shade_percent < once.shade_percent,
            "{thrice:?} vs {once:?}"
        );
    }
}
