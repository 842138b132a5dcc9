//! Typed ports: Figure 2 in action, plus the runtime-checked variant.
//!
//! Demonstrates the paper's three views of the port mechanism:
//!
//! 1. `Untyped_Ports` (Figure 1) — `any_access` messages; maximal
//!    flexibility, no typing.
//! 2. `Typed_Ports` (Figure 2) — a generic instance per message type;
//!    compile-time checking at **zero cost** ("the code generated for any
//!    instance of this package [is] identical to that generated for the
//!    untyped port package").
//! 3. Runtime-checked ports — "a few more generated instructions making
//!    use of user-defined types": hardware type identity verified on
//!    every send/receive.
//!
//! Run with: `cargo run --example typed_pipeline`

use imax::arch::{ObjectSpec, ObjectType, PortDiscipline, Rights, ShardedSpace, SysState};
use imax::ipc::{create_port, CheckedPort, PortMessage, TypedPort};
use imax::typemgr::TypeManager;

/// An application message type: a fixed-point temperature sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sample {
    sensor: u32,
    millikelvin: u32,
}

impl PortMessage for Sample {
    const DATA_LEN: u32 = 8;

    fn store<S: imax::arch::SpaceAccess + ?Sized>(
        &self,
        space: &mut S,
        ad: imax::arch::AccessDescriptor,
    ) -> Result<(), imax::gdp::Fault> {
        let packed = ((self.sensor as u64) << 32) | self.millikelvin as u64;
        space.write_u64(ad, 0, packed).map_err(Into::into)
    }

    fn load<S: imax::arch::SpaceAccess + ?Sized>(
        space: &mut S,
        ad: imax::arch::AccessDescriptor,
    ) -> Result<Sample, imax::gdp::Fault> {
        let packed = space.read_u64(ad, 0)?;
        Ok(Sample {
            sensor: (packed >> 32) as u32,
            millikelvin: packed as u32,
        })
    }
}

fn main() {
    let mut space = ShardedSpace::new(256 * 1024, 16 * 1024, 4096, 1);
    let root = space.root_sro();

    // --- View 1: untyped (Figure 1). -------------------------------------
    let raw = create_port(&mut space, root, 8, PortDiscipline::Fifo).expect("port");
    let obj = space
        .create_object(root, ObjectSpec::generic(16, 0))
        .expect("msg");
    let msg = space.mint(obj, Rights::READ | Rights::WRITE);
    space.write_u64(msg, 0, 0xfeed).unwrap();
    imax::ipc::untyped::send(&mut space, raw, msg).expect("send");
    let got = imax::ipc::untyped::receive(&mut space, raw)
        .expect("receive")
        .expect("message");
    println!(
        "untyped: sent any_access, received any_access, payload {:#x}",
        space.read_u64(got, 0).unwrap()
    );

    // --- View 2: typed (Figure 2) — compile-time. ------------------------
    let samples: TypedPort<Sample> =
        TypedPort::create(&mut space, root, 8, PortDiscipline::Fifo).expect("typed port");
    for (sensor, mk) in [(1u32, 295_150u32), (2, 273_150), (3, 310_000)] {
        samples
            .send(
                &mut space,
                root,
                &Sample {
                    sensor,
                    millikelvin: mk,
                },
            )
            .expect("typed send");
    }
    let mut readings = Vec::new();
    while let Some(s) = samples.receive(&mut space).expect("typed receive") {
        readings.push(s);
    }
    println!(
        "typed:   {} samples through TypedPort<Sample>:",
        readings.len()
    );
    for s in &readings {
        println!(
            "         sensor {} reads {:.2} K",
            s.sensor,
            s.millikelvin as f64 / 1000.0
        );
    }
    // The wrapper is zero-sized over the raw port — Figure 2's zero-cost
    // claim, visible in the type system itself.
    assert_eq!(
        std::mem::size_of::<TypedPort<Sample>>(),
        std::mem::size_of::<imax::ipc::Port>()
    );

    // --- View 3: runtime-checked — hardware type identity. ---------------
    let mgr = TypeManager::new(&mut space, root, "sample_record").expect("type");
    let port = create_port(&mut space, root, 8, PortDiscipline::Fifo).expect("port");
    let checked = CheckedPort::bind(port, mgr.tdo());

    // A genuine instance passes.
    let inst = mgr
        .create_instance(&mut space, root, 8, 0)
        .expect("instance");
    checked.send(&mut space, inst).expect("checked send");
    println!("checked: instance of 'sample_record' accepted");

    // A forged generic object is rejected *before* it enters the queue.
    let fake_obj = space
        .create_object(root, ObjectSpec::generic(8, 0))
        .expect("obj");
    let fake = space.mint(fake_obj, Rights::READ);
    let err = checked.send(&mut space, fake).unwrap_err();
    println!("checked: forged message rejected ({err})");

    // Even a same-shaped instance of a *different* type is rejected —
    // identity is the TDO, not the layout.
    let other_mgr = TypeManager::new(&mut space, root, "impostor").expect("type");
    let impostor = other_mgr
        .create_instance(&mut space, root, 8, 0)
        .expect("instance");
    assert!(checked.send(&mut space, impostor).is_err());
    println!("checked: same-shaped impostor type rejected");

    let _ = SysState::Generic;
    let _ = ObjectType::GENERIC;
    println!("typed pipeline OK");
}
