//! Context (activation record) creation and destruction.
//!
//! Paper §2: "The 432 subprogram call instruction performs the dynamic
//! transition between domains, providing the proper addressing
//! environment for any invoked subprogram via a context object."
//!
//! Contexts are objects like any other: they are allocated from an SRO,
//! carry a level one deeper than their caller (paper §5), and hold their
//! linkage — domain, caller, SRO, argument — in well-known access slots.

use crate::fault::{Fault, FaultKind};
use i432_arch::{
    sysobj::{CTX_SLOT_ARG, CTX_SLOT_CALLER, CTX_SLOT_DOMAIN, CTX_SLOT_SRO},
    AccessDescriptor, ContextState, Level, ObjectRef, ObjectSpec, ObjectType, Rights, SpaceAccess,
    SpaceAccessExt, Subprogram, SysState, SystemType,
};

/// Looks up (and clones) a domain's subprogram entry.
pub fn subprogram_of<S: SpaceAccess + ?Sized>(
    space: &mut S,
    domain: ObjectRef,
    index: u32,
) -> Result<Subprogram, Fault> {
    space
        .entry_view(domain, |entry| {
            let SysState::Domain(d) = &entry.sys else {
                return Err(Fault::with_detail(FaultKind::TypeMismatch, "not a domain"));
            };
            d.subprograms.get(index as usize).cloned().ok_or_else(|| {
                Fault::with_detail(
                    FaultKind::BadSubprogram,
                    format!("domain '{}' has no subprogram {}", d.name, index),
                )
            })
        })
        .map_err(Fault::from)?
}

/// Creates a context for `subprogram` of `domain`, at one level deeper
/// than `level`, allocated from `sro`.
///
/// Linkage slots are filled: domain, caller (if any), SRO, argument (if
/// any). Returns the new context.
#[allow(clippy::too_many_arguments)]
pub fn create_context<S: SpaceAccess + ?Sized>(
    space: &mut S,
    sro: ObjectRef,
    domain_ad: AccessDescriptor,
    subprogram: u32,
    sub: &Subprogram,
    arg: Option<AccessDescriptor>,
    caller: Option<AccessDescriptor>,
    level: Level,
    ret_ad_slot: Option<u32>,
    ret_val_off: Option<u32>,
) -> Result<ObjectRef, Fault> {
    let state = ContextState {
        body: sub.body,
        ip: 0,
        ret_ad_slot,
        ret_val_off,
        subprogram,
    };
    let ctx = space
        .create_object(
            sro,
            ObjectSpec {
                data_len: sub.ctx_data_len,
                access_len: sub.ctx_access_len,
                otype: ObjectType::System(SystemType::Context),
                level: Some(level.deeper()),
                sys: SysState::Context(state),
            },
        )
        .map_err(Fault::from)?;
    // Linkage. These are hardware stores performed while building the
    // context (the level relationships all hold by construction, but the
    // context is being assembled by microcode, so use the linkage path).
    //
    // The context's domain slot carries the *defining environment* view:
    // the subprogram executes inside its package, so it can read the
    // domain's owned state (CALL callers only ever held call rights; the
    // read amplification happens here, in the hardware's environment
    // switch — this is what makes packages protection domains rather
    // than mere code).
    let own_view =
        i432_arch::AccessDescriptor::new(domain_ad.obj, domain_ad.rights.union(Rights::READ));
    space
        .store_ad_hw(ctx, CTX_SLOT_DOMAIN, Some(own_view))
        .map_err(Fault::from)?;
    space
        .store_ad_hw(ctx, CTX_SLOT_CALLER, caller)
        .map_err(Fault::from)?;
    let sro_ad = space.mint(sro, Rights::ALLOCATE | Rights::RECLAIM);
    space
        .store_ad_hw(ctx, CTX_SLOT_SRO, Some(sro_ad))
        .map_err(Fault::from)?;
    space
        .store_ad_hw(ctx, CTX_SLOT_ARG, arg)
        .map_err(Fault::from)?;
    Ok(ctx)
}

/// Destroys a context, returning its storage to its SRO.
pub fn destroy_context<S: SpaceAccess + ?Sized>(
    space: &mut S,
    ctx: ObjectRef,
) -> Result<(), Fault> {
    space.destroy_object(ctx).map_err(Fault::from)?;
    Ok(())
}

/// Reads a context's interpreted state.
pub fn context_state<S: SpaceAccess + ?Sized>(
    space: &mut S,
    ctx: ObjectRef,
) -> Result<ContextState, Fault> {
    space
        .entry_view(ctx, |e| match &e.sys {
            SysState::Context(c) => Ok(*c),
            _ => Err(Fault::with_detail(FaultKind::TypeMismatch, "not a context")),
        })
        .map_err(Fault::from)?
}

/// Mutates a context's interpreted state.
///
/// Routed through [`SpaceAccessExt::sys_update`]: instruction-pointer
/// updates happen once per instruction, and they touch only the system
/// part of the entry — never the data window a qualification cache line
/// describes — so they must not invalidate cached descriptors.
pub fn with_context_state<S: SpaceAccess + ?Sized, R>(
    space: &mut S,
    ctx: ObjectRef,
    f: impl FnOnce(&mut ContextState) -> R,
) -> Result<R, Fault> {
    space
        .sys_update(ctx, |sys| match sys {
            SysState::Context(c) => Ok(f(c)),
            _ => Err(Fault::with_detail(FaultKind::TypeMismatch, "not a context")),
        })
        .map_err(Fault::from)?
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{CodeBody, CodeRef, DomainState, ShardedSpace};

    fn domain_with_sub(space: &mut ShardedSpace) -> ObjectRef {
        let root = space.root_sro();
        space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: 4,
                    otype: ObjectType::System(SystemType::Domain),
                    level: None,
                    sys: SysState::Domain(DomainState {
                        name: "test".into(),
                        subprograms: vec![Subprogram {
                            name: "entry".into(),
                            body: CodeBody::Interpreted(CodeRef(0)),
                            ctx_data_len: 64,
                            ctx_access_len: 8,
                        }],
                    }),
                },
            )
            .unwrap()
    }

    #[test]
    fn create_context_links_and_levels() {
        let mut s = ShardedSpace::new(8192, 512, 128, 1);
        let root = s.root_sro();
        let dom = domain_with_sub(&mut s);
        let dad = s.mint(dom, Rights::CALL);
        let sub = subprogram_of(&mut s, dom, 0).unwrap();
        let ctx =
            create_context(&mut s, root, dad, 0, &sub, None, None, Level(0), None, None).unwrap();
        assert_eq!(s.entry(ctx).unwrap().desc.level, Level(1));
        let ctx_ad = s.mint(ctx, Rights::READ);
        // The context holds the defining-environment view: the caller's
        // call rights plus read access to the package's own state.
        assert_eq!(
            s.load_ad(ctx_ad, CTX_SLOT_DOMAIN).unwrap(),
            Some(AccessDescriptor::new(
                dad.obj,
                dad.rights.union(Rights::READ)
            ))
        );
        assert_eq!(s.load_ad(ctx_ad, CTX_SLOT_CALLER).unwrap(), None);
        assert!(s.load_ad(ctx_ad, CTX_SLOT_SRO).unwrap().is_some());
        let st = context_state(&mut s, ctx).unwrap();
        assert_eq!(st.ip, 0);
        assert_eq!(st.subprogram, 0);
    }

    #[test]
    fn bad_subprogram_index_faults() {
        let mut s = ShardedSpace::new(8192, 512, 128, 1);
        let dom = domain_with_sub(&mut s);
        let e = subprogram_of(&mut s, dom, 5).unwrap_err();
        assert_eq!(e.kind, FaultKind::BadSubprogram);
    }

    #[test]
    fn destroy_context_frees_storage() {
        let mut s = ShardedSpace::new(8192, 512, 128, 1);
        let root = s.root_sro();
        let dom = domain_with_sub(&mut s);
        let dad = s.mint(dom, Rights::CALL);
        let sub = subprogram_of(&mut s, dom, 0).unwrap();
        let before = s.sro(root).unwrap().data_free.total_free();
        let ctx =
            create_context(&mut s, root, dad, 0, &sub, None, None, Level(0), None, None).unwrap();
        assert!(s.sro(root).unwrap().data_free.total_free() < before);
        destroy_context(&mut s, ctx).unwrap();
        assert_eq!(s.sro(root).unwrap().data_free.total_free(), before);
    }
}
