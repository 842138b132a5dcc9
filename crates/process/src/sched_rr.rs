//! A simple round-robin scheduler layered on the basic process manager.
//!
//! Paper §6.1: "a user-process manager may build much more complex
//! policies on the basic process manager to provide a safer or more
//! tailored application interface." This one equalizes time slices and
//! services the scheduler port: processes the hardware hands back
//! (stopped, faulted out of the mix, or exited) are parked, re-entered
//! when runnable again, or queued for reaping.

use i432_arch::{ObjectRef, ProcessStatus, SpaceMut};
use i432_gdp::{port, Fault};
use imax_ipc::{untyped, Port};

/// What the scheduler did during one service pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServiceReport {
    /// Events drained from the scheduler port.
    pub events: u32,
    /// Processes re-entered into the dispatching mix.
    pub readied: u32,
    /// Processes parked (stopped).
    pub parked: u32,
    /// Terminated processes moved to the reap queue.
    pub exited: u32,
}

/// A round-robin scheduler.
#[derive(Debug)]
pub struct RoundRobinScheduler {
    /// The scheduler port processes are delivered to.
    pub port: Port,
    /// The uniform time slice the policy enforces.
    pub quantum: u64,
    parked: Vec<ObjectRef>,
    reapable: Vec<ObjectRef>,
}

impl RoundRobinScheduler {
    /// A scheduler around an existing port with the given quantum.
    pub fn new(port: Port, quantum: u64) -> RoundRobinScheduler {
        RoundRobinScheduler {
            port,
            quantum,
            parked: Vec::new(),
            reapable: Vec::new(),
        }
    }

    /// Adopts a process into the policy: uniform quantum.
    ///
    /// (The process must have been created with this scheduler's port as
    /// its scheduler port for events to arrive here.)
    pub fn adopt<S: SpaceMut + ?Sized>(&self, space: &mut S, p: ObjectRef) -> Result<(), Fault> {
        let ps = space.process_mut(p).map_err(Fault::from)?;
        ps.timeslice = self.quantum;
        ps.slice_remaining = ps.slice_remaining.min(self.quantum);
        Ok(())
    }

    /// Services the scheduler port: drains delivered processes and
    /// decides for each, then retries parked processes.
    pub fn service<S: SpaceMut + ?Sized>(&mut self, space: &mut S) -> Result<ServiceReport, Fault> {
        let mut report = ServiceReport::default();
        while let Some(msg) = untyped::receive(space, self.port)? {
            report.events += 1;
            let p = msg.obj;
            let (status, started) = {
                let ps = space.process(p).map_err(Fault::from)?;
                (ps.status, ps.is_started())
            };
            match status {
                ProcessStatus::Terminated => {
                    self.reapable.push(p);
                    report.exited += 1;
                }
                _ if !started => {
                    self.parked.push(p);
                    report.parked += 1;
                }
                _ => {
                    port::make_ready(space, p)?;
                    report.readied += 1;
                }
            }
        }
        // Parked processes whose stop counts have drained re-enter.
        let mut still_parked = Vec::new();
        for p in self.parked.drain(..) {
            if space.process(p).map_err(Fault::from)?.is_started() {
                port::make_ready(space, p)?;
                report.readied += 1;
            } else {
                still_parked.push(p);
            }
        }
        self.parked = still_parked;
        Ok(report)
    }

    /// Terminated processes awaiting reaping by the basic manager.
    pub fn take_reapable(&mut self) -> Vec<ObjectRef> {
        std::mem::take(&mut self.reapable)
    }

    /// Processes currently parked by this scheduler.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{
        AccessDescriptor, CodeBody, CodeRef, DomainState, ObjectSpec, ObjectType, PortDiscipline,
        ProcessState, Rights, ShardedSpace, Subprogram, SysState, SystemType,
    };
    use imax_ipc::create_port;

    fn fixture() -> (ShardedSpace, RoundRobinScheduler, AccessDescriptor) {
        let mut space = ShardedSpace::new(128 * 1024, 8 * 1024, 1024, 1);
        let root = space.root_sro();
        let sched_port = create_port(&mut space, root, 32, PortDiscipline::Fifo).unwrap();
        let dispatch = create_port(&mut space, root, 32, PortDiscipline::Fifo).unwrap();
        let rr = RoundRobinScheduler::new(sched_port, 10_000);
        (space, rr, dispatch.ad())
    }

    fn bare_process(
        space: &mut ShardedSpace,
        dispatch: AccessDescriptor,
        sched: Port,
    ) -> ObjectRef {
        use i432_arch::sysobj::{PROC_SLOT_DISPATCH_PORT, PROC_SLOT_SCHED_PORT};
        let root = space.root_sro();
        let p = space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: i432_arch::sysobj::PROC_ACCESS_SLOTS,
                    otype: ObjectType::System(SystemType::Process),
                    level: None,
                    sys: SysState::Process(ProcessState::new(i432_arch::Level(0))),
                },
            )
            .unwrap();
        space
            .store_ad_hw(p, PROC_SLOT_DISPATCH_PORT, Some(dispatch))
            .unwrap();
        space
            .store_ad_hw(p, PROC_SLOT_SCHED_PORT, Some(sched.ad()))
            .unwrap();
        // A minimal context so make_ready has something to dispatch.
        let _ = (CodeBody::Interpreted(CodeRef(0)), DomainState::default());
        let _ = Subprogram {
            name: String::new(),
            body: CodeBody::Interpreted(CodeRef(0)),
            ctx_data_len: 0,
            ctx_access_len: 0,
        };
        p
    }

    #[test]
    fn adoption_sets_quantum() {
        let (mut space, rr, dispatch) = fixture();
        let p = bare_process(&mut space, dispatch, rr.port);
        rr.adopt(&mut space, p).unwrap();
        assert_eq!(space.process(p).unwrap().timeslice, 10_000);
    }

    #[test]
    fn service_readies_runnable_and_parks_stopped() {
        let (mut space, mut rr, dispatch) = fixture();
        let runnable = bare_process(&mut space, dispatch, rr.port);
        let stopped = bare_process(&mut space, dispatch, rr.port);
        space.process_mut(stopped).unwrap().stop_count = 1;
        // Deliver both to the scheduler port (as the hardware would).
        for p in [runnable, stopped] {
            let ad = space.mint(p, Rights::NONE);
            untyped::send(&mut space, rr.port, ad).unwrap();
        }
        let report = rr.service(&mut space).unwrap();
        assert_eq!(report.events, 2);
        assert_eq!(report.readied, 1);
        assert_eq!(report.parked, 1);
        assert_eq!(rr.parked_count(), 1);
        // Starting the stopped process lets the next pass re-enter it.
        space.process_mut(stopped).unwrap().stop_count = 0;
        let report = rr.service(&mut space).unwrap();
        assert_eq!(report.readied, 1);
        assert_eq!(rr.parked_count(), 0);
    }

    #[test]
    fn exited_processes_become_reapable() {
        let (mut space, mut rr, dispatch) = fixture();
        let p = bare_process(&mut space, dispatch, rr.port);
        space.process_mut(p).unwrap().status = ProcessStatus::Terminated;
        let ad = space.mint(p, Rights::NONE);
        untyped::send(&mut space, rr.port, ad).unwrap();
        let report = rr.service(&mut space).unwrap();
        assert_eq!(report.exited, 1);
        assert_eq!(rr.take_reapable(), vec![p]);
        assert!(rr.take_reapable().is_empty());
    }
}
