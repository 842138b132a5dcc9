//! The fault service.
//!
//! Faulted processes are "sent back to software": the hardware delivers
//! the process object to its fault port. This service drains the system
//! fault port and repairs what can be repaired:
//!
//! * **Segment-absent faults** (release-2 swapping): the absent segment
//!   is brought back via the storage manager and the process restarted at
//!   the faulting instruction (the instruction pointer was never
//!   advanced).
//! * Everything else is unrecoverable from the system's point of view:
//!   the process is terminated (a richer system could forward these to a
//!   per-application debugger port — the structure is the same).

use i432_arch::{ObjectIndex, ObjectRef, ProcessStatus, SpaceMut};
use i432_gdp::{port, Fault, FaultKind};
use imax_ipc::{untyped, Port};
use imax_storage::StorageManager;

/// What the service decided for one faulted process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultDisposition {
    /// The fault was repaired and the process re-entered the mix.
    Restarted {
        /// The repaired process.
        process: ObjectRef,
        /// Fault code that was repaired.
        code: u16,
    },
    /// The fault is unrecoverable; the process was terminated.
    Terminated {
        /// The terminated process.
        process: ObjectRef,
        /// Fault code.
        code: u16,
        /// Fault description.
        detail: String,
    },
}

/// Drains `fault_port`, repairing or terminating each delivered process.
///
/// Swap faults consume simulated device time; the cycles are available
/// through the storage manager's `drain_cycles` (swapping manager) and
/// are charged by the caller's service-pass accounting.
pub fn service_faults(
    space: &mut dyn SpaceMut,
    fault_port: Port,
    storage: &mut dyn StorageManager,
) -> Result<Vec<FaultDisposition>, Fault> {
    let mut out = Vec::new();
    while let Some(msg) = receive_carrier(space, fault_port)? {
        let process = msg.obj;
        let (code, detail, aux) = {
            let ps = space.process(process).map_err(Fault::from)?;
            (ps.fault_code, ps.fault_detail.clone(), ps.fault_aux)
        };
        if code == FaultKind::SegmentAbsent.code() {
            // Repair: swap the segment back in and restart.
            let index = ObjectIndex(aux as u32);
            match space.ref_for(index) {
                Ok(obj) => {
                    storage
                        .ensure_resident(space, obj)
                        .map_err(|e| Fault::with_detail(FaultKind::SegmentAbsent, e.to_string()))?;
                    {
                        let ps = space.process_mut(process).map_err(Fault::from)?;
                        ps.fault_code = 0;
                        ps.fault_detail.clear();
                        ps.fault_aux = 0;
                    }
                    port::make_ready(space, process)?;
                    out.push(FaultDisposition::Restarted { process, code });
                    continue;
                }
                Err(_) => {
                    // The object vanished while the process waited; the
                    // retry would fault again forever. Terminate.
                }
            }
        }
        space.process_mut(process).map_err(Fault::from)?.status = ProcessStatus::Terminated;
        out.push(FaultDisposition::Terminated {
            process,
            code,
            detail,
        });
    }
    Ok(out)
}

/// Receives one carrier message (process AD) from a port the service
/// holds with full trust.
fn receive_carrier<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: Port,
) -> Result<Option<i432_arch::AccessDescriptor>, Fault> {
    use i432_gdp::port::RecvOutcome;
    match port::receive(space, None, port.ad(), false, true)? {
        RecvOutcome::Received(ad) => Ok(Some(ad)),
        RecvOutcome::WouldBlock => Ok(None),
        RecvOutcome::Blocked => unreachable!("non-blocking receive"),
    }
}

/// Convenience used by boot: builds the system fault port.
pub fn make_fault_port<S: SpaceMut + ?Sized>(space: &mut S, sro: ObjectRef) -> Result<Port, Fault> {
    untyped::create_port(space, sro, 64, i432_arch::PortDiscipline::Fifo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{
        Level, ObjectSpec, ObjectType, ProcessState, Rights, ShardedSpace, SysState, SystemType,
    };
    use imax_storage::{FrozenManager, SwappingManager};

    fn faulted_process(space: &mut ShardedSpace, code: u16, aux: u64) -> ObjectRef {
        let root = space.root_sro();
        let mut st = ProcessState::new(Level(0));
        st.status = ProcessStatus::Faulted;
        st.fault_code = code;
        st.fault_aux = aux;
        let p = space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: i432_arch::sysobj::PROC_ACCESS_SLOTS,
                    otype: ObjectType::System(SystemType::Process),
                    level: None,
                    sys: SysState::Process(st),
                },
            )
            .unwrap();
        // Give it a dispatching port so make_ready can requeue it.
        let dp = untyped::create_port(space, root, 8, i432_arch::PortDiscipline::Fifo).unwrap();
        space
            .store_ad_hw(p, i432_arch::sysobj::PROC_SLOT_DISPATCH_PORT, Some(dp.ad()))
            .unwrap();
        p
    }

    #[test]
    fn unrecoverable_fault_terminates() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 512, 1);
        let root = space.root_sro();
        let fport = make_fault_port(&mut space, root).unwrap();
        let p = faulted_process(&mut space, FaultKind::DivideByZero.code(), 0);
        let pad = space.mint(p, Rights::NONE);
        port::send(&mut space, None, fport.ad(), pad, 0, false, true).unwrap();

        let mut mgr = FrozenManager::new();
        let outcomes = service_faults(&mut space, fport, &mut mgr).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(&outcomes[0], FaultDisposition::Terminated { .. }));
        assert_eq!(space.process(p).unwrap().status, ProcessStatus::Terminated);
    }

    #[test]
    fn swap_fault_repairs_and_restarts() {
        let mut space = ShardedSpace::new(64 * 1024, 4096, 512, 1);
        let root = space.root_sro();
        let fport = make_fault_port(&mut space, root).unwrap();
        let mut mgr = SwappingManager::new();

        // An object, swapped out.
        let obj = space
            .create_object(root, ObjectSpec::generic(64, 0))
            .unwrap();
        mgr.swap_out(&mut space, obj).unwrap();
        assert!(space.entry(obj).unwrap().desc.absent);

        let p = faulted_process(
            &mut space,
            FaultKind::SegmentAbsent.code(),
            obj.index.0 as u64,
        );
        let pad = space.mint(p, Rights::NONE);
        port::send(&mut space, None, fport.ad(), pad, 0, false, true).unwrap();

        let outcomes = service_faults(&mut space, fport, &mut mgr).unwrap();
        assert!(matches!(&outcomes[0], FaultDisposition::Restarted { .. }));
        assert!(!space.entry(obj).unwrap().desc.absent, "swapped back");
        assert_eq!(space.process(p).unwrap().status, ProcessStatus::Ready);
        assert_eq!(space.process(p).unwrap().fault_code, 0);
    }

    #[test]
    fn empty_port_is_a_noop() {
        let mut space = ShardedSpace::new(16 * 1024, 2048, 256, 1);
        let root = space.root_sro();
        let fport = make_fault_port(&mut space, root).unwrap();
        let mut mgr = FrozenManager::new();
        assert!(service_faults(&mut space, fport, &mut mgr)
            .unwrap()
            .is_empty());
    }
}
