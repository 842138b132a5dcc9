//! Runtime-checked typed ports.
//!
//! Paper §4: "It is possible to take the idea of typed ports one step
//! further in the 432 to provide the type checking dynamically at
//! runtime. The implementation would require a few more generated
//! instructions making use of user-defined types but would otherwise be
//! the same as above."
//!
//! A [`CheckedPort`] is bound to a type definition object; every send and
//! receive verifies the message's *hardware* type identity against that
//! TDO — protection that holds even for messages produced by non-Ada code
//! or resurrected from storage (paper §7.2).

use crate::untyped::{self, Port};
use i432_arch::{AccessDescriptor, ObjectRef, SpaceMut};
use i432_gdp::{Fault, FaultKind};

/// A port that admits only instances of one user-defined type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckedPort {
    port: Port,
    tdo: ObjectRef,
}

impl CheckedPort {
    /// Binds an untyped port to a type definition object.
    pub fn bind(port: Port, tdo: ObjectRef) -> CheckedPort {
        CheckedPort { port, tdo }
    }

    /// The underlying untyped port.
    pub fn as_port(&self) -> Port {
        self.port
    }

    /// The type this port admits.
    pub fn tdo(&self) -> ObjectRef {
        self.tdo
    }

    /// The "few more generated instructions": one object-table lookup
    /// comparing the message's type identity against the bound TDO.
    fn check<S: SpaceMut + ?Sized>(&self, space: &S, msg: AccessDescriptor) -> Result<(), Fault> {
        i432_trace::emit(i432_trace::EventKind::TypeCheck, msg.obj.index.0);
        i432_trace::bump(i432_trace::Counter::TypeChecks);
        let otype = space.entry(msg.obj).map_err(Fault::from)?.desc.otype;
        if otype.user_tdo() != Some(self.tdo) {
            return Err(Fault::with_detail(
                FaultKind::TypeMismatch,
                "message is not an instance of the port's bound type",
            ));
        }
        Ok(())
    }

    /// Sends after verifying the message's hardware type identity.
    pub fn send<S: SpaceMut + ?Sized>(
        &self,
        space: &mut S,
        msg: AccessDescriptor,
    ) -> Result<(), Fault> {
        self.check(space, msg)?;
        untyped::send(space, self.port, msg)
    }

    /// Receives and verifies the message's hardware type identity.
    ///
    /// A mismatch faults rather than silently delivering — the queue held
    /// an object that should never have entered it (possible only if a
    /// holder of raw send rights bypassed this wrapper, which the rights
    /// system exists to prevent).
    pub fn receive<S: SpaceMut + ?Sized>(
        &self,
        space: &mut S,
    ) -> Result<Option<AccessDescriptor>, Fault> {
        match untyped::receive(space, self.port)? {
            Some(msg) => {
                self.check(space, msg)?;
                Ok(Some(msg))
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{
        ObjectSpec, ObjectType, PortDiscipline, Rights, ShardedSpace, SysState, SystemType,
        TdoState,
    };

    fn space_with_tdo() -> (ShardedSpace, ObjectRef) {
        let mut s = ShardedSpace::new(64 * 1024, 8 * 1024, 1024, 1);
        let root = s.root_sro();
        let tdo = s
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: i432_arch::sysobj::TDO_ACCESS_SLOTS,
                    otype: ObjectType::System(SystemType::TypeDefinition),
                    level: None,
                    sys: SysState::TypeDef(TdoState::new("parcel")),
                },
            )
            .unwrap();
        (s, tdo)
    }

    fn instance(s: &mut ShardedSpace, tdo: ObjectRef) -> AccessDescriptor {
        let root = s.root_sro();
        let o = s
            .create_object(
                root,
                ObjectSpec {
                    data_len: 16,
                    access_len: 0,
                    otype: ObjectType::User(tdo),
                    level: None,
                    sys: SysState::Generic,
                },
            )
            .unwrap();
        s.mint(o, Rights::READ | Rights::WRITE)
    }

    #[test]
    fn accepts_instances_of_bound_type() {
        let (mut s, tdo) = space_with_tdo();
        let root = s.root_sro();
        let raw = untyped::create_port(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        let prt = CheckedPort::bind(raw, tdo);
        let msg = instance(&mut s, tdo);
        prt.send(&mut s, msg).unwrap();
        assert_eq!(prt.receive(&mut s).unwrap(), Some(msg));
    }

    #[test]
    fn rejects_generic_objects() {
        let (mut s, tdo) = space_with_tdo();
        let root = s.root_sro();
        let raw = untyped::create_port(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        let prt = CheckedPort::bind(raw, tdo);
        let generic = s.create_object(root, ObjectSpec::generic(16, 0)).unwrap();
        let msg = s.mint(generic, Rights::READ);
        let e = prt.send(&mut s, msg).unwrap_err();
        assert_eq!(e.kind, FaultKind::TypeMismatch);
    }

    #[test]
    fn rejects_instances_of_other_types() {
        let (mut s, tdo_a) = space_with_tdo();
        let root = s.root_sro();
        let tdo_b = s
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: i432_arch::sysobj::TDO_ACCESS_SLOTS,
                    otype: ObjectType::System(SystemType::TypeDefinition),
                    level: None,
                    sys: SysState::TypeDef(TdoState::new("other")),
                },
            )
            .unwrap();
        let raw = untyped::create_port(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        let prt = CheckedPort::bind(raw, tdo_a);
        let msg = instance(&mut s, tdo_b);
        assert!(prt.send(&mut s, msg).is_err());
    }

    #[test]
    fn receive_detects_smuggled_messages() {
        let (mut s, tdo) = space_with_tdo();
        let root = s.root_sro();
        let raw = untyped::create_port(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        let prt = CheckedPort::bind(raw, tdo);
        // Someone with raw send rights bypasses the wrapper.
        let generic = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let msg = s.mint(generic, Rights::READ);
        untyped::send(&mut s, raw, msg).unwrap();
        assert!(prt.receive(&mut s).is_err());
    }
}
