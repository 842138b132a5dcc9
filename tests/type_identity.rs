//! I3 — hardware type identity survives every channel, paper §7.2.
//!
//! "No matter what path a system object follows within the 432, its
//! hardware-recognized type identity is guaranteed to be preserved and
//! checked, either by the hardware or by object filing."

use imax::arch::{ObjectSpec, PortDiscipline, Rights, ShardedSpace};
use imax::ipc::{create_port, CheckedPort};
use imax::typemgr::TypeManager;
use imax::{activate, passivate};

fn space() -> ShardedSpace {
    ShardedSpace::new(256 * 1024, 16 * 1024, 4096, 1)
}

#[test]
fn identity_survives_a_port_hop() {
    let mut s = space();
    let root = s.root_sro();
    let mgr = TypeManager::new(&mut s, root, "voucher").unwrap();
    let inst = mgr.create_instance(&mut s, root, 16, 0).unwrap();

    // Through an untyped port (the identity-erasing channel of
    // conventional systems).
    let port = create_port(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
    imax::ipc::untyped::send(&mut s, port, inst).unwrap();
    let back = imax::ipc::untyped::receive(&mut s, port).unwrap().unwrap();

    // The manager still amplifies it; a stranger still cannot.
    assert!(mgr.amplify(&mut s, back).is_ok());
    let stranger = TypeManager::new(&mut s, root, "stranger").unwrap();
    assert!(stranger.amplify(&mut s, back).is_err());
}

#[test]
fn identity_survives_many_hands() {
    let mut s = space();
    let root = s.root_sro();
    let mgr = TypeManager::new(&mut s, root, "deed").unwrap();
    let inst = mgr.create_instance(&mut s, root, 8, 0).unwrap();

    // Pass through a chain of generic containers (a "data structure" the
    // type system knows nothing about).
    let mut holder = inst;
    for _ in 0..5 {
        let box_obj = s.create_object(root, ObjectSpec::generic(0, 1)).unwrap();
        let box_ad = s.mint(box_obj, Rights::READ | Rights::WRITE);
        s.store_ad(box_ad, 0, Some(holder)).unwrap();
        holder = s.load_ad(box_ad, 0).unwrap().unwrap();
    }
    assert!(mgr.amplify(&mut s, holder).is_ok());
}

#[test]
fn identity_survives_the_filing_system() {
    // The storage channel specifically called out by §7.2: "An example of
    // such a channel is any storage system."
    let mut s = space();
    let root = s.root_sro();
    let mgr = TypeManager::new(&mut s, root, "contract").unwrap();
    let sealed = mgr.create_instance(&mut s, root, 32, 0).unwrap();
    let full = mgr.amplify(&mut s, sealed).unwrap();
    s.write_u64(full, 0, 0xC0DE).unwrap();

    // File it, shut "the machine" down, bring up a new one.
    let image = passivate(&mut s, full).unwrap().to_bytes();
    drop(s);

    let mut s2 = space();
    let root2 = s2.root_sro();
    let mgr2 = TypeManager::new(&mut s2, root2, "contract").unwrap();
    let store = imax::PassiveStore::from_bytes(&image).unwrap();
    let revived = activate(&mut s2, root2, &store, |name| {
        (name == "contract").then_some(mgr2.tdo())
    })
    .unwrap();

    // Contents and identity both intact.
    let full2 = mgr2
        .amplify(&mut s2, revived.restricted(Rights::NONE))
        .unwrap();
    assert_eq!(s2.read_u64(full2, 0).unwrap(), 0xC0DE);

    // And the checked-port machinery recognizes the revived instance.
    let port = create_port(&mut s2, root2, 2, PortDiscipline::Fifo).unwrap();
    let checked = CheckedPort::bind(port, mgr2.tdo());
    assert!(checked.send(&mut s2, revived).is_ok());
}

/// A booted system's space is sharded; the checked port must run on it
/// with the type, the message and the port each in a different shard.
#[test]
fn checked_port_across_shards() {
    let mut s = ShardedSpace::new(256 * 1024, 16 * 1024, 4096, 3);
    let roots = [s.root_sro_of(0), s.root_sro_of(1), s.root_sro_of(2)];
    let mgr = TypeManager::new(&mut s, roots[0], "parcel").unwrap();
    let msg = mgr.create_instance(&mut s, roots[1], 16, 0).unwrap();
    let port = create_port(&mut s, roots[2], 4, PortDiscipline::Fifo).unwrap();
    let shard_of = |r: imax::arch::ObjectRef| r.index.0 % 3;
    assert_eq!(
        [
            shard_of(mgr.tdo()),
            shard_of(msg.obj),
            shard_of(port.ad().obj)
        ],
        [0, 1, 2]
    );

    let checked = CheckedPort::bind(port, mgr.tdo());
    checked.send(&mut s, msg).unwrap();
    assert_eq!(checked.receive(&mut s).unwrap(), Some(msg));

    // A generic object from the message's shard is still refused.
    let generic = s
        .create_object(roots[1], ObjectSpec::generic(16, 0))
        .unwrap();
    let generic = s.mint(generic, Rights::READ);
    assert!(checked.send(&mut s, generic).is_err());
}

#[test]
fn filing_composite_graph_with_mixed_types() {
    let mut s = space();
    let root = s.root_sro();
    let mgr_a = TypeManager::new(&mut s, root, "alpha").unwrap();
    let mgr_b = TypeManager::new(&mut s, root, "beta").unwrap();

    // A generic record referencing one instance of each type.
    let rec = s.create_object(root, ObjectSpec::generic(8, 2)).unwrap();
    let rec_ad = s.mint(rec, Rights::READ | Rights::WRITE);
    let a = mgr_a.create_instance(&mut s, root, 8, 0).unwrap();
    let b = mgr_b.create_instance(&mut s, root, 8, 0).unwrap();
    s.store_ad(rec_ad, 0, Some(a)).unwrap();
    s.store_ad(rec_ad, 1, Some(b)).unwrap();

    let image = passivate(&mut s, rec_ad).unwrap().to_bytes();
    let store = imax::PassiveStore::from_bytes(&image).unwrap();

    let mut s2 = space();
    let root2 = s2.root_sro();
    let mgr_a2 = TypeManager::new(&mut s2, root2, "alpha").unwrap();
    let mgr_b2 = TypeManager::new(&mut s2, root2, "beta").unwrap();
    let rec2 = activate(&mut s2, root2, &store, |name| match name {
        "alpha" => Some(mgr_a2.tdo()),
        "beta" => Some(mgr_b2.tdo()),
        _ => None,
    })
    .unwrap();
    let a2 = s2.load_ad(rec2, 0).unwrap().unwrap();
    let b2 = s2.load_ad(rec2, 1).unwrap().unwrap();
    assert!(mgr_a2.amplify(&mut s2, a2).is_ok());
    assert!(
        mgr_a2.amplify(&mut s2, b2).is_err(),
        "alpha cannot claim beta"
    );
    assert!(mgr_b2.amplify(&mut s2, b2).is_ok());
}

#[test]
fn sealed_rights_survive_filing() {
    // Rights on edges are part of the protection state; filing must not
    // amplify anything.
    let mut s = space();
    let root = s.root_sro();
    let holder = s.create_object(root, ObjectSpec::generic(0, 1)).unwrap();
    let holder_ad = s.mint(holder, Rights::READ | Rights::WRITE);
    let secret = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
    let secret_ro = s.mint(secret, Rights::READ);
    s.store_ad(holder_ad, 0, Some(secret_ro)).unwrap();

    let image = passivate(&mut s, holder_ad.restricted(Rights::READ))
        .unwrap()
        .to_bytes();
    let store = imax::PassiveStore::from_bytes(&image).unwrap();
    let mut s2 = space();
    let root2 = s2.root_sro();
    let revived = activate(&mut s2, root2, &store, |_| None).unwrap();
    assert!(!revived.allows(Rights::WRITE), "root rights not amplified");
    let inner = s2.load_ad(revived, 0).unwrap().unwrap();
    assert!(!inner.allows(Rights::WRITE), "edge rights not amplified");
    assert!(s2.write_u64(inner, 0, 1).is_err());
}
