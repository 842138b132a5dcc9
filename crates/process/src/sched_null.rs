//! The null scheduling policy.
//!
//! Paper §6.1: "the null policy simply passes through the dispatching
//! parameters of the hardware and permits its users to commit them in
//! any way they wish. This is completely acceptable for simple embedded
//! systems in which the system load can be pre-evaluated. On the other
//! hand, it is clearly unacceptable in a multi-user environment."

use i432_arch::{ObjectRef, SpaceMut};
use i432_gdp::Fault;

/// Pass-through access to the hardware dispatching parameters.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullScheduler;

impl NullScheduler {
    /// The null policy.
    pub fn new() -> NullScheduler {
        NullScheduler
    }

    /// Sets a process's hardware dispatching priority directly.
    pub fn set_priority<S: SpaceMut + ?Sized>(
        &self,
        space: &mut S,
        p: ObjectRef,
        priority: u8,
    ) -> Result<(), Fault> {
        space.process_mut(p).map_err(Fault::from)?.priority = priority;
        Ok(())
    }

    /// Sets a process's time slice directly.
    pub fn set_timeslice<S: SpaceMut + ?Sized>(
        &self,
        space: &mut S,
        p: ObjectRef,
        cycles: u64,
    ) -> Result<(), Fault> {
        let ps = space.process_mut(p).map_err(Fault::from)?;
        ps.timeslice = cycles;
        ps.slice_remaining = ps.slice_remaining.min(cycles);
        Ok(())
    }

    /// Sets a process's deadline directly.
    pub fn set_deadline<S: SpaceMut + ?Sized>(
        &self,
        space: &mut S,
        p: ObjectRef,
        deadline: u64,
    ) -> Result<(), Fault> {
        space.process_mut(p).map_err(Fault::from)?.deadline = deadline;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{
        Level, ObjectSpec, ObjectType, ProcessState, ShardedSpace, SysState, SystemType,
    };

    #[test]
    fn passes_parameters_through() {
        let mut space = ShardedSpace::new(4096, 256, 64, 1);
        let root = space.root_sro();
        let p = space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: i432_arch::sysobj::PROC_ACCESS_SLOTS,
                    otype: ObjectType::System(SystemType::Process),
                    level: None,
                    sys: SysState::Process(ProcessState::new(Level(0))),
                },
            )
            .unwrap();
        let s = NullScheduler::new();
        s.set_priority(&mut space, p, 7).unwrap();
        s.set_timeslice(&mut space, p, 1234).unwrap();
        s.set_deadline(&mut space, p, 99).unwrap();
        let ps = space.process(p).unwrap();
        assert_eq!(ps.priority, 7);
        assert_eq!(ps.timeslice, 1234);
        assert_eq!(ps.deadline, 99);
    }
}
