//! Tier-1 smoke for the dispatch-specialization arms: seed replays
//! through the fused threaded runner (pre-decoded blocks,
//! superinstruction fusion, call/port-site inline caches) must be
//! invisible to the differential oracle — same digests, same counter,
//! same per-process verdicts as the deterministic reference and the
//! unfused arm. CI's `conform` job runs the full 256-seed sweep with
//! `--fusion both`; this is the slice sized for a 1-core test host.

use i432_conform::{check_seed, generate, run_threaded_sys, Arms, Modes, RunConfig, QUICK_MATRIX};

/// Seed replay, full quadruple product on the quick matrix: every
/// (matrix point × cache × queue × fusion) arm against the reference.
#[test]
fn fusion_arms_match_the_oracle() {
    for seed in 0..8 {
        let arms = Arms {
            cache: Modes::Both,
            queue: Modes::Both,
            fusion: Modes::Both,
        };
        let report = check_seed(seed, QUICK_MATRIX, arms);
        assert!(
            report.passed(),
            "seed {seed} diverged:\n{}",
            report.mismatches.join("\n")
        );
    }
}

/// The fused arm is deterministic in the workload-visible sense: two
/// fused replays of one seed at one matrix point agree with each other.
#[test]
fn fused_replays_are_self_consistent() {
    for seed in [0, 5, 19] {
        let case = generate(seed);
        let (_, a) = run_threaded_sys(&case, 4, 2, RunConfig::default());
        let (_, b) = run_threaded_sys(&case, 4, 2, RunConfig::default());
        assert_eq!(a, b, "seed {seed}: fused replays diverged");
    }
}
