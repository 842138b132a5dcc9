//! `generic package Typed_Ports` — Figure 2 of the paper.
//!
//! ```text
//! generic
//!     type user_message is private;
//! package Typed_Ports is
//!     type user_port is private;
//!     function Create(message_count ...; port_discipline ...) return user_port;
//!     procedure Send(prt: user_port; msg: user_message);
//!     procedure Receive(prt: user_port; msg: out user_message);
//! private
//!     pragma inline (Send, Receive);
//!     type user_port is new port;
//! end Typed_Ports;
//! ```
//!
//! "The user may create an instance of this package for any access type,
//! thus creating a new Ada level type `user_port` that can be type checked
//! at compile time ... The implementation of this package is in terms of
//! `Untyped_Ports` and an `unchecked_conversion` ... the code generated
//! for any instance of this package \[is\] *identical* to that generated for
//! the untyped port package."
//!
//! The Rust rendering: [`TypedPort<M>`] is a zero-sized-wrapper over
//! [`Port`] whose `send`/`receive` are `#[inline]` calls to the untyped
//! operations — the monomorphized code *is* the untyped code (benchmark C4
//! verifies equal simulated cycles). Rust's `PhantomData` plays the role
//! of the generic formal; moving between `M` and `any_access` inside the
//! body is the `unchecked_conversion`.

use crate::untyped::{self, Port};
use i432_arch::{
    AccessDescriptor, ObjectRef, ObjectSpec, PortDiscipline, Rights, SpaceAccess, SpaceMut,
};
use i432_gdp::Fault;
use std::marker::PhantomData;

/// The generic formal: a message type that knows its object layout.
///
/// A `user_message` is represented as an object whose data part holds the
/// value. Implementations define the marshalling; the port machinery
/// never inspects it (that is the point of Figure 2: typing is purely a
/// compile-time wrapper). Marshalling is generic over the capability
/// boundary, so typed ports work identically over the unsharded space,
/// the striped shared space, and the `&mut dyn SpaceMut` view native
/// services receive.
pub trait PortMessage: Sized {
    /// Data-part bytes an instance needs.
    const DATA_LEN: u32;
    /// Access-part slots an instance needs.
    const ACCESS_LEN: u32 = 0;

    /// Writes `self` into the object behind `ad`.
    fn store<S: SpaceAccess + ?Sized>(
        &self,
        space: &mut S,
        ad: AccessDescriptor,
    ) -> Result<(), Fault>;

    /// Reads an instance from the object behind `ad`.
    fn load<S: SpaceAccess + ?Sized>(space: &mut S, ad: AccessDescriptor) -> Result<Self, Fault>;
}

impl PortMessage for u64 {
    const DATA_LEN: u32 = 8;

    fn store<S: SpaceAccess + ?Sized>(
        &self,
        space: &mut S,
        ad: AccessDescriptor,
    ) -> Result<(), Fault> {
        space.write_u64(ad, 0, *self).map_err(Fault::from)
    }

    fn load<S: SpaceAccess + ?Sized>(space: &mut S, ad: AccessDescriptor) -> Result<u64, Fault> {
        space.read_u64(ad, 0).map_err(Fault::from)
    }
}

impl<const N: usize> PortMessage for [u8; N] {
    const DATA_LEN: u32 = N as u32;

    fn store<S: SpaceAccess + ?Sized>(
        &self,
        space: &mut S,
        ad: AccessDescriptor,
    ) -> Result<(), Fault> {
        space.write_data(ad, 0, self).map_err(Fault::from)
    }

    fn load<S: SpaceAccess + ?Sized>(
        space: &mut S,
        ad: AccessDescriptor,
    ) -> Result<[u8; N], Fault> {
        let mut buf = [0u8; N];
        space.read_data(ad, 0, &mut buf).map_err(Fault::from)?;
        Ok(buf)
    }
}

/// Figure 2's `user_port`: a compile-time-typed port.
///
/// `TypedPort<M>` is the same size as [`Port`]; the type parameter exists
/// only at compile time.
#[derive(Debug, PartialEq, Eq)]
pub struct TypedPort<M: PortMessage> {
    port: Port,
    _user_message: PhantomData<fn(M) -> M>,
}

// Manual impls: `derive` would bound them on `M`.
impl<M: PortMessage> Clone for TypedPort<M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M: PortMessage> Copy for TypedPort<M> {}

impl<M: PortMessage> TypedPort<M> {
    /// Figure 2's `Create`.
    pub fn create<S: SpaceAccess + ?Sized>(
        space: &mut S,
        sro: ObjectRef,
        message_count: u32,
        discipline: PortDiscipline,
    ) -> Result<TypedPort<M>, Fault> {
        Ok(TypedPort {
            port: untyped::create_port(space, sro, message_count, discipline)?,
            _user_message: PhantomData,
        })
    }

    /// Views an untyped port as typed (the package-private
    /// `type user_port is new port`). The caller asserts the discipline
    /// by construction — this is exactly Ada's derived-type conversion,
    /// checked at compile time thereafter.
    pub fn from_port(port: Port) -> TypedPort<M> {
        TypedPort {
            port,
            _user_message: PhantomData,
        }
    }

    /// The underlying untyped port.
    #[inline]
    pub fn as_port(&self) -> Port {
        self.port
    }

    /// Figure 2's `Send`: marshals `msg` into a fresh object from `sro`
    /// and sends its access descriptor. Compiles to the untyped send.
    #[inline]
    pub fn send<S: SpaceMut + ?Sized>(
        &self,
        space: &mut S,
        sro: ObjectRef,
        msg: &M,
    ) -> Result<(), Fault> {
        let obj = space
            .create_object(sro, ObjectSpec::generic(M::DATA_LEN, M::ACCESS_LEN))
            .map_err(Fault::from)?;
        let ad = space.mint(obj, Rights::READ | Rights::WRITE);
        msg.store(space, ad)?;
        untyped::send(space, self.port, ad)
    }

    /// Sends an already-marshalled message object (the zero-copy path —
    /// byte-for-byte the untyped send; benchmark C4 measures this one).
    #[inline]
    pub fn send_ad<S: SpaceMut + ?Sized>(
        &self,
        space: &mut S,
        msg: AccessDescriptor,
    ) -> Result<(), Fault> {
        untyped::send(space, self.port, msg)
    }

    /// Figure 2's `Receive`: receives and unmarshals one message.
    /// Returns `Ok(None)` when the queue is empty (host-level view).
    #[inline]
    pub fn receive<S: SpaceMut + ?Sized>(&self, space: &mut S) -> Result<Option<M>, Fault> {
        match untyped::receive(space, self.port)? {
            Some(ad) => Ok(Some(M::load(space, ad)?)),
            None => Ok(None),
        }
    }

    /// Receives without unmarshalling (zero-copy path).
    #[inline]
    pub fn receive_ad<S: SpaceMut + ?Sized>(
        &self,
        space: &mut S,
    ) -> Result<Option<AccessDescriptor>, Fault> {
        untyped::receive(space, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::ShardedSpace;

    fn space() -> ShardedSpace {
        ShardedSpace::new(64 * 1024, 8 * 1024, 1024, 1)
    }

    #[test]
    fn figure2_typed_roundtrip() {
        let mut s = space();
        let root = s.root_sro();
        let prt: TypedPort<u64> = TypedPort::create(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        prt.send(&mut s, root, &12345).unwrap();
        prt.send(&mut s, root, &67890).unwrap();
        assert_eq!(prt.receive(&mut s).unwrap(), Some(12345));
        assert_eq!(prt.receive(&mut s).unwrap(), Some(67890));
        assert_eq!(prt.receive(&mut s).unwrap(), None);
    }

    #[test]
    fn array_messages() {
        let mut s = space();
        let root = s.root_sro();
        let prt: TypedPort<[u8; 12]> =
            TypedPort::create(&mut s, root, 2, PortDiscipline::Fifo).unwrap();
        prt.send(&mut s, root, b"hello world!").unwrap();
        assert_eq!(prt.receive(&mut s).unwrap(), Some(*b"hello world!"));
    }

    #[test]
    fn typed_port_is_zero_cost_wrapper() {
        // The compile-time claim: a TypedPort is exactly a Port.
        assert_eq!(
            std::mem::size_of::<TypedPort<u64>>(),
            std::mem::size_of::<Port>()
        );
    }

    #[test]
    fn typed_and_untyped_share_hardware_stats() {
        // Both views drive the identical hardware op: the port's counters
        // cannot tell them apart.
        let mut s = space();
        let root = s.root_sro();
        let prt: TypedPort<u64> = TypedPort::create(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        prt.send(&mut s, root, &1).unwrap();
        // Untyped view of the same port.
        let raw = prt.as_port();
        let got = untyped::receive(&mut s, raw).unwrap().unwrap();
        assert_eq!(s.read_u64(got, 0).unwrap(), 1);
        let st = s.port(prt.as_port().object()).unwrap();
        assert_eq!(st.stats.sends, 1);
        assert_eq!(st.stats.receives, 1);
    }
}
