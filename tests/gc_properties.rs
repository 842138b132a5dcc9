//! I6 — on-the-fly garbage collection safety and liveness, paper §8.1.
//!
//! Property-based: random mutator operation sequences interleaved with
//! collector increments never reclaim a reachable object, and everything
//! unreachable is reclaimed within two full cycles.

use imax::arch::{
    AccessDescriptor, ObjectSpec, ObjectType, ProcessorState, Rights, ShardedSpace, SysState,
    SystemType,
};
use imax::gc::Collector;
use proptest::prelude::*;
use std::collections::HashSet;

/// A space with one processor anchoring a root-directory object with
/// `slots` slots.
fn space_with_root(slots: u32) -> (ShardedSpace, imax::arch::ObjectRef) {
    let mut s = ShardedSpace::new(512 * 1024, 32 * 1024, 8192, 1);
    let root = s.root_sro();
    let cpu = s
        .create_object(
            root,
            ObjectSpec {
                data_len: 0,
                access_len: imax::arch::sysobj::CPU_ACCESS_SLOTS,
                otype: ObjectType::System(SystemType::Processor),
                level: None,
                sys: SysState::Processor(ProcessorState::new(0)),
            },
        )
        .unwrap();
    let dir = s
        .create_object(root, ObjectSpec::generic(0, slots))
        .unwrap();
    let dir_ad = s.mint(dir, Rights::READ | Rights::WRITE);
    s.store_ad_hw(cpu, imax::arch::sysobj::CPU_SLOT_ROOT, Some(dir_ad))
        .unwrap();
    (s, dir)
}

/// One mutator action in the random schedule.
#[derive(Debug, Clone)]
enum Action {
    /// Allocate a new object and store it at root-directory slot `k`.
    AllocAt(u32),
    /// Copy the AD at slot `a` to slot `b`.
    Copy(u32, u32),
    /// Null slot `k`.
    Drop(u32),
    /// Store slot `a`'s AD into slot 0 of the object at slot `b`.
    Link(u32, u32),
    /// Run `n` collector increments.
    GcSteps(u8),
}

fn action_strategy(slots: u32) -> impl Strategy<Value = Action> {
    prop_oneof![
        (0..slots).prop_map(Action::AllocAt),
        ((0..slots), (0..slots)).prop_map(|(a, b)| Action::Copy(a, b)),
        (0..slots).prop_map(Action::Drop),
        ((0..slots), (0..slots)).prop_map(|(a, b)| Action::Link(a, b)),
        (1u8..12).prop_map(Action::GcSteps),
    ]
}

/// Everything reachable from the root directory (full references, so
/// recycled table slots are never confused with their predecessors).
fn reachable(s: &ShardedSpace, dir: imax::arch::ObjectRef) -> HashSet<imax::arch::ObjectRef> {
    let mut seen = HashSet::new();
    let mut stack = vec![dir];
    seen.insert(dir);
    while let Some(o) = stack.pop() {
        for ad in s.scan_access_part(o).unwrap_or_default() {
            if s.entry(ad.obj).is_ok() && seen.insert(ad.obj) {
                stack.push(ad.obj);
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn safety_and_liveness(actions in proptest::collection::vec(action_strategy(8), 1..120)) {
        const SLOTS: u32 = 8;
        let (mut s, dir) = space_with_root(SLOTS);
        let dir_ad = s.mint(dir, Rights::READ | Rights::WRITE);
        let mut gc = Collector::new();

        // Track every object the mutator ever allocated.
        let mut allocated: Vec<AccessDescriptor> = Vec::new();
        let root_sro = s.root_sro();

        for a in &actions {
            match a {
                Action::AllocAt(k) => {
                    let o = s
                        .create_object(root_sro, ObjectSpec::generic(16, 2))
                        .unwrap();
                    let ad = s.mint(o, Rights::READ | Rights::WRITE);
                    allocated.push(ad);
                    s.store_ad(dir_ad, *k, Some(ad)).unwrap();
                }
                Action::Copy(a, b) => {
                    let ad = s.load_ad(dir_ad, *a).unwrap();
                    s.store_ad(dir_ad, *b, ad).unwrap();
                }
                Action::Drop(k) => {
                    s.store_ad(dir_ad, *k, None).unwrap();
                }
                Action::Link(a, b) => {
                    if let (Ok(Some(src)), Ok(Some(dst))) =
                        (s.load_ad(dir_ad, *a), s.load_ad(dir_ad, *b))
                    {
                        // May legitimately fail on a 0-access-slot object;
                        // our allocations all have 2 slots.
                        let _ = s.store_ad(dst, 0, Some(src));
                    }
                }
                Action::GcSteps(n) => {
                    for _ in 0..*n {
                        gc.step(&mut s).unwrap();
                    }
                }
            }
            // SAFETY: every object reachable from the root directory is
            // still alive right now.
            let live = reachable(&s, dir);
            for r in &live {
                prop_assert!(
                    s.entry(*r).is_ok(),
                    "reachable object {r:?} was reclaimed"
                );
            }
        }

        // LIVENESS: two full cycles from any intermediate state reclaim
        // every unreachable allocation.
        gc.collect_full(&mut s).unwrap();
        gc.collect_full(&mut s).unwrap();
        let live = reachable(&s, dir);
        for ad in &allocated {
            let alive = s.entry(ad.obj).is_ok();
            let is_reachable = live.contains(&ad.obj);
            prop_assert_eq!(
                alive, is_reachable,
                "object {:?}: alive={} reachable={}",
                ad.obj, alive, is_reachable
            );
        }
    }
}

/// The collector's sim-cycle accounting is monotone and cycles complete.
#[test]
fn accounting_sane_over_many_cycles() {
    let (mut s, dir) = space_with_root(4);
    let dir_ad = s.mint(dir, Rights::READ | Rights::WRITE);
    let root_sro = s.root_sro();
    let mut gc = Collector::new();
    let mut last = 0;
    for round in 0..10 {
        // Churn.
        for k in 0..4 {
            let o = s
                .create_object(root_sro, ObjectSpec::generic(8, 0))
                .unwrap();
            let ad = s.mint(o, Rights::READ);
            s.store_ad(dir_ad, k, Some(ad)).unwrap();
        }
        gc.collect_full(&mut s).unwrap();
        assert!(gc.stats.sim_cycles > last, "round {round}");
        last = gc.stats.sim_cycles;
        assert_eq!(gc.stats.cycles, round + 1);
    }
}
