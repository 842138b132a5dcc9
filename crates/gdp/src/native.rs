//! Native subprogram bodies.
//!
//! A domain subprogram may be *interpreted* (an instruction segment) or
//! *native* — a Rust closure registered here. Native bodies are how the
//! emulator realizes iMAX services: they are invoked by the ordinary CALL
//! instruction, receive the same context linkage (domain, caller, SRO,
//! argument) and pay the same domain-switch cost, so callers cannot tell
//! an OS service from user code — the uniformity property of paper §4.
//!
//! Native bodies must be *non-blocking*: they complete and return (or
//! fault) within the CALL. Services that need to wait use ports via their
//! conditional (non-blocking) operations, exactly as the real iMAX did for
//! asynchronous inter-level communication (paper §7.3).

use crate::fault::Fault;
use i432_arch::{AccessDescriptor, NativeId, ObjectRef, SpaceMut};
use std::fmt;

/// What a native body hands back to the CALL machinery.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeReturn {
    /// Access descriptor returned to the caller's `ret_ad` slot.
    pub ad: Option<AccessDescriptor>,
    /// Scalar returned to the caller's `ret_val` location.
    pub value: Option<u64>,
}

impl NativeReturn {
    /// Return nothing.
    pub fn void() -> NativeReturn {
        NativeReturn::default()
    }

    /// Return an access descriptor.
    pub fn ad(ad: AccessDescriptor) -> NativeReturn {
        NativeReturn {
            ad: Some(ad),
            value: None,
        }
    }

    /// Return a scalar.
    pub fn value(v: u64) -> NativeReturn {
        NativeReturn {
            ad: None,
            value: Some(v),
        }
    }
}

/// Execution context handed to a native body.
pub struct NativeCtx<'a> {
    /// The object space (full kernel-mode access: the body *is* the
    /// trusted implementation inside its protection domain). Native
    /// bodies run as an indivisible section — on a sharded space the
    /// caller holds every shard lock for the duration, which is what
    /// lets executive services (GC, storage compaction, the type
    /// manager) see a consistent whole.
    pub space: &'a mut dyn SpaceMut,
    /// The process on whose behalf the call runs.
    pub process: ObjectRef,
    /// The native call's own context object; its `CTX_SLOT_ARG` slot holds
    /// the argument AD, `CTX_SLOT_DOMAIN` the service's domain.
    pub context: ObjectRef,
    /// Cycles the body has consumed so far; bodies add their simulated
    /// cost here (charged to the calling process like any instruction).
    pub cycles: u64,
}

impl NativeCtx<'_> {
    /// Charges simulated cycles for work the body performed.
    pub fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Convenience: reads the argument AD passed by the caller, if any.
    pub fn arg(&mut self) -> Option<AccessDescriptor> {
        let ctx_ad = self.space.mint(
            self.context,
            i432_arch::Rights::READ | i432_arch::Rights::WRITE,
        );
        self.space
            .load_ad(ctx_ad, i432_arch::sysobj::CTX_SLOT_ARG)
            .ok()
            .flatten()
    }
}

/// The signature of a native body.
pub type NativeFn = dyn Fn(&mut NativeCtx<'_>) -> Result<NativeReturn, Fault> + Send + Sync;

/// The registry of native bodies for a system.
#[derive(Default)]
pub struct NativeRegistry {
    bodies: Vec<(String, Box<NativeFn>)>,
}

impl NativeRegistry {
    /// An empty registry.
    pub fn new() -> NativeRegistry {
        NativeRegistry::default()
    }

    /// Registers a body under a diagnostic name.
    pub fn register<F>(&mut self, name: impl Into<String>, f: F) -> NativeId
    where
        F: Fn(&mut NativeCtx<'_>) -> Result<NativeReturn, Fault> + Send + Sync + 'static,
    {
        let id = NativeId(self.bodies.len() as u32);
        self.bodies.push((name.into(), Box::new(f)));
        id
    }

    /// Invokes a body.
    pub fn invoke(&self, id: NativeId, cx: &mut NativeCtx<'_>) -> Result<NativeReturn, Fault> {
        match self.bodies.get(id.0 as usize) {
            Some((_, f)) => f(cx),
            None => Err(Fault::with_detail(
                crate::fault::FaultKind::BadSubprogram,
                format!("unknown native body {}", id.0),
            )),
        }
    }

    /// Diagnostic name of a body.
    pub fn name_of(&self, id: NativeId) -> Option<&str> {
        self.bodies.get(id.0 as usize).map(|(n, _)| n.as_str())
    }

    /// Number of registered bodies.
    pub fn count(&self) -> usize {
        self.bodies.len()
    }
}

impl fmt::Debug for NativeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeRegistry")
            .field("count", &self.bodies.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use i432_arch::ShardedSpace;

    #[test]
    fn register_and_invoke() {
        let mut reg = NativeRegistry::new();
        let id = reg.register("answer", |cx| {
            cx.charge(10);
            Ok(NativeReturn::value(42))
        });
        assert_eq!(reg.name_of(id), Some("answer"));

        let mut space = ShardedSpace::new(1024, 64, 32, 1);
        let root = space.root_sro();
        let obj = space
            .create_object(root, i432_arch::ObjectSpec::generic(0, 4))
            .unwrap();
        let mut cx = NativeCtx {
            space: &mut space,
            process: obj,
            context: obj,
            cycles: 0,
        };
        let r = reg.invoke(id, &mut cx).unwrap();
        assert_eq!(r.value, Some(42));
        assert_eq!(cx.cycles, 10);
    }

    #[test]
    fn unknown_body_faults() {
        let reg = NativeRegistry::new();
        let mut space = ShardedSpace::new(1024, 64, 32, 1);
        let root = space.root_sro();
        let obj = space
            .create_object(root, i432_arch::ObjectSpec::generic(0, 4))
            .unwrap();
        let mut cx = NativeCtx {
            space: &mut space,
            process: obj,
            context: obj,
            cycles: 0,
        };
        let e = reg.invoke(NativeId(3), &mut cx).unwrap_err();
        assert_eq!(e.kind, FaultKind::BadSubprogram);
    }
}
