//! Property-based tests on storage management: accounting conservation
//! and content preservation under random create/destroy/swap schedules.

use imax::arch::{AccessDescriptor, ObjectRef, ObjectSpec, Rights, ShardedSpace};
use imax::storage::{create_sro, SroQuota, StorageManager, SwappingManager};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Create an object of `1 << size_class` bytes, stamped with `stamp`.
    Create(u8, u64),
    /// Destroy the k-th live object (modulo population).
    Destroy(usize),
    /// Swap out the k-th live object.
    SwapOut(usize),
    /// Swap in the k-th live object.
    SwapIn(usize),
    /// Verify the k-th live object's stamp (swapping in if needed).
    Touch(usize),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            ((4u8..10), any::<u64>()).prop_map(|(s, v)| Op::Create(s, v)),
            (0usize..64).prop_map(Op::Destroy),
            (0usize..64).prop_map(Op::SwapOut),
            (0usize..64).prop_map(Op::SwapIn),
            (0usize..64).prop_map(Op::Touch),
        ],
        1..150,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn swapping_manager_never_loses_data_or_space(ops in ops_strategy()) {
        let mut space = ShardedSpace::new(512 * 1024, 32 * 1024, 8192, 1);
        let root = space.root_sro();
        let quota = SroQuota {
            data_bytes: 64 * 1024,
            access_slots: 1024,
        };
        let sro = create_sro(&mut space, root, imax::arch::Level(0), quota).unwrap();
        let initial_free = space.sro(sro).unwrap().data_free.total_free();
        let mut mgr = SwappingManager::new();
        let mut live: Vec<(ObjectRef, AccessDescriptor, u64, u32)> = Vec::new();

        for op in ops {
            match op {
                Op::Create(size_class, stamp) => {
                    let bytes = 1u32 << size_class;
                    if let Ok(o) =
                        mgr.create_object(&mut space, sro, ObjectSpec::generic(bytes, 0))
                    {
                        let ad = space.mint(o, Rights::READ | Rights::WRITE);
                        // The new object may be instantly evicted under
                        // pressure; make sure it is resident to stamp it.
                        mgr.ensure_resident(&mut space, o).unwrap();
                        space.write_u64(ad, 0, stamp).unwrap();
                        live.push((o, ad, stamp, bytes));
                    }
                }
                Op::Destroy(k) if !live.is_empty() => {
                    let (o, _, _, _) = live.swap_remove(k % live.len());
                    mgr.destroy_object(&mut space, o).unwrap();
                }
                Op::SwapOut(k) if !live.is_empty() => {
                    let (o, _, _, _) = live[k % live.len()];
                    // May refuse (already absent); both outcomes fine.
                    let _ = mgr.swap_out(&mut space, o);
                }
                Op::SwapIn(k) if !live.is_empty() => {
                    let (o, _, _, _) = live[k % live.len()];
                    mgr.ensure_resident(&mut space, o).unwrap();
                }
                Op::Touch(k) if !live.is_empty() => {
                    let (o, ad, stamp, _) = live[k % live.len()];
                    mgr.ensure_resident(&mut space, o).unwrap();
                    prop_assert_eq!(space.read_u64(ad, 0).unwrap(), stamp);
                }
                _ => {}
            }

            // Accounting invariant: free + resident live = initial.
            let resident: u64 = live
                .iter()
                .filter(|(o, _, _, _)| {
                    !space.entry(*o).unwrap().desc.absent
                })
                .map(|(_, _, _, b)| *b as u64)
                .sum();
            let free = space.sro(sro).unwrap().data_free.total_free() as u64;
            prop_assert_eq!(
                free + resident,
                initial_free as u64,
                "space conservation"
            );
            // Census invariant: SRO object_count matches the model.
            prop_assert_eq!(
                space.sro(sro).unwrap().object_count as usize,
                live.len()
            );
        }

        // Final verification: every survivor still holds its stamp.
        for (o, ad, stamp, _) in &live {
            mgr.ensure_resident(&mut space, *o).unwrap();
            prop_assert_eq!(space.read_u64(*ad, 0).unwrap(), *stamp);
        }
        // Backing store holds pages only for absent survivors.
        let absent = live
            .iter()
            .filter(|(o, _, _, _)| space.entry(*o).unwrap().desc.absent)
            .count();
        mgr.scrub(&space);
        prop_assert!(mgr.backing.resident_pages() <= absent + live.len());
    }

    /// Bulk destruction is exact: after creating a random population in
    /// a child SRO and bulk-destroying it, the parent's free space is
    /// bit-for-bit restored.
    #[test]
    fn bulk_destroy_restores_parent_exactly(
        sizes in proptest::collection::vec(8u32..512, 0..40),
    ) {
        let mut space = ShardedSpace::new(512 * 1024, 32 * 1024, 8192, 1);
        let root = space.root_sro();
        let before_data = space.sro(root).unwrap().data_free.total_free();
        let before_slots = space.sro(root).unwrap().access_free.total_free();
        let sro = create_sro(
            &mut space,
            root,
            imax::arch::Level(2),
            SroQuota {
                data_bytes: 64 * 1024,
                access_slots: 512,
            },
        )
        .unwrap();
        for s in &sizes {
            // Some of these may exhaust the quota; that is fine.
            let _ = space.create_object(sro, ObjectSpec::generic(*s, 2));
        }
        space.bulk_destroy_sro(sro).unwrap();
        prop_assert_eq!(space.sro(root).unwrap().data_free.total_free(), before_data);
        prop_assert_eq!(
            space.sro(root).unwrap().access_free.total_free(),
            before_slots
        );
    }
}
