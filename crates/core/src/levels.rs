//! iMAX system levels (paper §7.3).
//!
//! "The implementation of iMAX defines a set of levels which dictate what
//! operations are permitted to processes at that level. Processes below
//! level 3 of the system, for example, are in general not permitted to
//! fault. Processes at level 2 are actually permitted a limited set of
//! timeout faults while those at level 1 are not permitted even these.
//! To avoid dependency couplings, all communications between levels 2 and
//! 3 of the system must be asynchronous and upward communication must
//! never depend upon a reply."
//!
//! The fault tiers are enforced by the processor (`i432_gdp::FaultKind::
//! permitted_at`); this module gives them names, assignment helpers, and
//! the level-2→3 asynchrony check used when system services are wired up.

use i432_arch::{ObjectRef, SpaceMut};
use i432_gdp::Fault;

/// The iMAX system levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SysLevel {
    /// Innermost executive: may not fault at all.
    Level1,
    /// Core services (e.g. the GC daemon, swap machinery): only timeout
    /// faults permitted.
    Level2,
    /// The virtualized environment: ordinary services and applications,
    /// all faults permitted and repairable.
    Level3,
}

impl SysLevel {
    /// The numeric level stored in process objects.
    pub fn number(self) -> u8 {
        match self {
            SysLevel::Level1 => 1,
            SysLevel::Level2 => 2,
            SysLevel::Level3 => 3,
        }
    }

    /// Parses a stored level number (anything ≥ 3 is Level3 territory).
    pub fn from_number(n: u8) -> SysLevel {
        match n {
            0 | 1 => SysLevel::Level1,
            2 => SysLevel::Level2,
            _ => SysLevel::Level3,
        }
    }

    /// Whether a *synchronous* call from `self` into `callee` level is
    /// permitted. Downward (toward lower levels) synchronous calls are
    /// fine — lower levels never depend on upper ones. Upward calls from
    /// level ≤ 2 into level 3 must be asynchronous (port messages), so
    /// they are rejected here.
    pub fn may_call_sync(self, callee: SysLevel) -> bool {
        callee <= self
    }
}

/// Assigns a process's system level.
pub fn set_system_level<S: SpaceMut + ?Sized>(
    space: &mut S,
    process: ObjectRef,
    level: SysLevel,
) -> Result<(), Fault> {
    space.process_mut(process).map_err(Fault::from)?.sys_level = level.number();
    Ok(())
}

/// Reads a process's system level.
pub fn system_level<S: SpaceMut + ?Sized>(
    space: &S,
    process: ObjectRef,
) -> Result<SysLevel, Fault> {
    Ok(SysLevel::from_number(
        space.process(process).map_err(Fault::from)?.sys_level,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_gdp::FaultKind;

    #[test]
    fn numbers_roundtrip() {
        for l in [SysLevel::Level1, SysLevel::Level2, SysLevel::Level3] {
            assert_eq!(SysLevel::from_number(l.number()), l);
        }
        assert_eq!(SysLevel::from_number(7), SysLevel::Level3);
        assert_eq!(SysLevel::from_number(0), SysLevel::Level1);
    }

    /// The §7.3 tiers, stated through the levels API.
    #[test]
    fn fault_tiers() {
        assert!(!FaultKind::Timeout.permitted_at(SysLevel::Level1.number()));
        assert!(FaultKind::Timeout.permitted_at(SysLevel::Level2.number()));
        assert!(!FaultKind::SegmentAbsent.permitted_at(SysLevel::Level2.number()));
        assert!(FaultKind::SegmentAbsent.permitted_at(SysLevel::Level3.number()));
    }

    /// "Upward communication must never depend upon a reply": no
    /// synchronous upward calls.
    #[test]
    fn upward_sync_calls_forbidden() {
        assert!(SysLevel::Level3.may_call_sync(SysLevel::Level2));
        assert!(SysLevel::Level3.may_call_sync(SysLevel::Level3));
        assert!(SysLevel::Level2.may_call_sync(SysLevel::Level1));
        assert!(!SysLevel::Level2.may_call_sync(SysLevel::Level3));
        assert!(!SysLevel::Level1.may_call_sync(SysLevel::Level2));
    }
}
