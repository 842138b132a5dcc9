//! I1 — the level (lifetime) rule, paper §5.
//!
//! "The hardware ensures that an access for an object may never be stored
//! into an object with a lower (more global) level number."

use imax::arch::{ArchError, Level, ObjectSpec, Rights, ShardedSpace};
use proptest::prelude::*;

fn space() -> ShardedSpace {
    ShardedSpace::new(256 * 1024, 16 * 1024, 4096, 1)
}

fn object_at(space: &mut ShardedSpace, level: u16) -> imax::arch::AccessDescriptor {
    let root = space.root_sro();
    let o = space
        .create_object(
            root,
            ObjectSpec {
                level: Some(Level(level)),
                ..ObjectSpec::generic(8, 4)
            },
        )
        .unwrap();
    space.mint(o, Rights::ALL)
}

#[test]
fn exhaustive_small_levels() {
    // Every (container, target) pair in a small grid: storing succeeds
    // exactly when target.level <= container.level.
    for container_level in 0..6u16 {
        for target_level in 0..6u16 {
            let mut s = space();
            let container = object_at(&mut s, container_level);
            let target = object_at(&mut s, target_level);
            let result = s.store_ad(container, 0, Some(target));
            if target_level <= container_level {
                assert!(
                    result.is_ok(),
                    "store level-{target_level} into level-{container_level} must succeed"
                );
            } else {
                assert!(
                    matches!(result, Err(ArchError::LevelViolation { .. })),
                    "store level-{target_level} into level-{container_level} must fault"
                );
            }
        }
    }
}

#[test]
fn null_stores_are_always_legal() {
    let mut s = space();
    let container = object_at(&mut s, 0);
    assert!(s.store_ad(container, 0, None).is_ok());
}

#[test]
fn violation_leaves_slot_unchanged() {
    let mut s = space();
    let container = object_at(&mut s, 1);
    let ok_target = object_at(&mut s, 0);
    let bad_target = object_at(&mut s, 5);
    s.store_ad(container, 0, Some(ok_target)).unwrap();
    assert!(s.store_ad(container, 0, Some(bad_target)).is_err());
    assert_eq!(s.load_ad(container, 0).unwrap(), Some(ok_target));
}

#[test]
fn level_faults_are_counted() {
    let mut s = space();
    let container = object_at(&mut s, 0);
    let target = object_at(&mut s, 3);
    let before = s.stats().level_faults;
    let _ = s.store_ad(container, 0, Some(target));
    let _ = s.store_ad(container, 1, Some(target));
    assert_eq!(s.stats().level_faults, before + 2);
}

proptest! {
    /// Random graphs obey the rule: after arbitrary permitted stores, no
    /// object's access part ever references a shorter-lived object.
    #[test]
    fn no_reachable_dangling_potential(
        levels in proptest::collection::vec(0u16..8, 2..12),
        stores in proptest::collection::vec((0usize..12, 0usize..12, 0u32..4), 0..60),
    ) {
        let mut s = space();
        let objs: Vec<_> = levels.iter().map(|l| object_at(&mut s, *l)).collect();
        for (from, to, slot) in stores {
            if from >= objs.len() || to >= objs.len() {
                continue;
            }
            // Attempt the store; the space may refuse it.
            let _ = s.store_ad(objs[from], slot, Some(objs[to]));
        }
        // Invariant: every stored edge points to an object that lives at
        // least as long as its container.
        for ad in &objs {
            let container_level = s.entry(ad.obj).unwrap().desc.level;
            for edge in s.scan_access_part(ad.obj).unwrap() {
                let target_level = s.entry(edge.obj).unwrap().desc.level;
                prop_assert!(
                    target_level <= container_level,
                    "container level {container_level:?} holds target level {target_level:?}"
                );
            }
        }
    }
}

/// The rule holds through the *full machine path* too: a simulated
/// program that tries to publish a local object through a global one
/// takes a level fault.
#[test]
fn machine_path_enforcement() {
    use imax::arch::sysobj::CTX_SLOT_FIRST_FREE;
    use imax::gdp::isa::DataRef;
    use imax::gdp::{FaultKind, ProgramBuilder, StepEvent};
    use imax::sim::{System, SystemConfig};

    let mut sys = System::new(&SystemConfig::small());
    let root = sys.space.root_sro();
    // A global container and a local object, planted in the program's
    // context slots.
    let global = sys
        .space
        .create_object(root, ObjectSpec::generic(0, 4))
        .unwrap();
    let global_ad = sys.space.mint(global, Rights::ALL);
    let local = sys
        .space
        .create_object(
            root,
            ObjectSpec {
                level: Some(Level(9)),
                ..ObjectSpec::generic(8, 0)
            },
        )
        .unwrap();
    let local_ad = sys.space.mint(local, Rights::ALL);

    let mut p = ProgramBuilder::new();
    p.store_ad(
        (CTX_SLOT_FIRST_FREE + 1) as u16,
        CTX_SLOT_FIRST_FREE as u16,
        DataRef::Imm(0),
    );
    p.halt();
    let sub = sys.subprogram("leaker", p.finish(), 32, 8);
    let dom = sys.install_domain("app", vec![sub], 0);
    let proc_ref = sys.spawn(dom, 0, None);
    let ctx = sys
        .space
        .load_ad_hw(proc_ref, imax::arch::sysobj::PROC_SLOT_CONTEXT)
        .unwrap()
        .unwrap()
        .obj;
    sys.space
        .store_ad_hw(ctx, CTX_SLOT_FIRST_FREE, Some(global_ad))
        .unwrap();
    sys.space
        .store_ad_hw(ctx, CTX_SLOT_FIRST_FREE + 1, Some(local_ad))
        .unwrap();

    let mut faulted = None;
    sys.run_until(10_000, |_, e| {
        if let StepEvent::ProcessFaulted { kind, .. } = e {
            faulted = Some(*kind);
            true
        } else {
            matches!(e, StepEvent::ProcessExited(_))
        }
    });
    assert_eq!(faulted, Some(FaultKind::Level));
}
