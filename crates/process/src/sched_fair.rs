//! A fair-share resource controller.
//!
//! Paper §6.1: the far end of the policy spectrum — "an arbitrarily
//! complex resource controller" for environments "where the processing
//! resource must be allocated fairly". The controller observes each
//! managed process's consumed cycles and continually re-derives its
//! hardware dispatching priority so that weighted usage converges to the
//! configured shares. It relies on a *priority-discipline* dispatching
//! port; the hardware then does the actual arbitration — software only
//! steers parameters, exactly the layering the paper prescribes.
//!
//! The controller holds accesses for the processes it manages. This does
//! not violate the no-central-table tenet (§7.1): it is those processes'
//! *manager*, and it tracks only its own clients, not "all the processes
//! in the system".

use i432_arch::{ObjectRef, SpaceMut};
use i432_gdp::Fault;

/// One managed process's share configuration and bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Client {
    process: ObjectRef,
    weight: u64,
    last_cycles: u64,
    usage: f64,
}

/// The fair-share controller.
#[derive(Debug)]
pub struct FairShareScheduler {
    clients: Vec<Client>,
    /// Exponential-decay factor applied to accumulated usage each
    /// rebalance (0 < decay < 1; smaller forgets faster).
    pub decay: f64,
}

impl FairShareScheduler {
    /// A controller with the default usage half-life.
    pub fn new() -> FairShareScheduler {
        FairShareScheduler {
            clients: Vec::new(),
            decay: 0.7,
        }
    }

    /// Adopts a process with a share weight (2 = entitled to twice the
    /// share of weight 1). Re-adopting replaces the previous entry.
    pub fn adopt(&mut self, process: ObjectRef, weight: u64) {
        self.clients.retain(|c| c.process != process);
        self.clients.push(Client {
            process,
            weight: weight.max(1),
            last_cycles: 0,
            usage: 0.0,
        });
    }

    /// Number of managed processes.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Rebalances: reads consumption since the last pass, updates decayed
    /// weighted usage, and writes back hardware priorities (lower value =
    /// more urgent = less over-consumed).
    pub fn rebalance<S: SpaceMut + ?Sized>(&mut self, space: &mut S) -> Result<(), Fault> {
        // Gather deltas.
        for c in &mut self.clients {
            let total = match space.process(c.process) {
                Ok(ps) => ps.total_cycles,
                Err(_) => continue, // reaped; dropped below
            };
            let delta = total.saturating_sub(c.last_cycles);
            c.last_cycles = total;
            c.usage = c.usage * self.decay + delta as f64 / c.weight as f64;
        }
        self.clients.retain(|c| space.process(c.process).is_ok());
        // Rank by weighted usage: the least-served gets priority 0.
        let mut order: Vec<usize> = (0..self.clients.len()).collect();
        order.sort_by(|&a, &b| {
            self.clients[a]
                .usage
                .partial_cmp(&self.clients[b].usage)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for (rank, &i) in order.iter().enumerate() {
            let prio = (rank.min(254)) as u8;
            let process = self.clients[i].process;
            space.process_mut(process).map_err(Fault::from)?.priority = prio;
            // Refresh the key of an already-queued client, or a stale key
            // would override the new ranking until the next requeue.
            if let Ok(Some(dp)) =
                space.load_ad_hw(process, i432_arch::sysobj::PROC_SLOT_DISPATCH_PORT)
            {
                let _ = i432_gdp::port::update_queued_key(space, dp.obj, process, prio as u64);
            }
        }
        Ok(())
    }

    /// Current weighted usage of a managed process (testing/inspection).
    pub fn usage_of(&self, p: ObjectRef) -> Option<f64> {
        self.clients
            .iter()
            .find(|c| c.process == p)
            .map(|c| c.usage)
    }
}

impl Default for FairShareScheduler {
    fn default() -> FairShareScheduler {
        FairShareScheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{
        Level, ObjectSpec, ObjectType, ProcessState, ShardedSpace, SysState, SystemType,
    };

    fn process(space: &mut ShardedSpace) -> ObjectRef {
        let root = space.root_sro();
        space
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
            .unwrap()
    }

    #[test]
    fn heavy_consumer_gets_demoted() {
        let mut space = ShardedSpace::new(32 * 1024, 2048, 256, 1);
        let hog = process(&mut space);
        let meek = process(&mut space);
        let mut fs = FairShareScheduler::new();
        fs.adopt(hog, 1);
        fs.adopt(meek, 1);
        space.process_mut(hog).unwrap().total_cycles = 1_000_000;
        space.process_mut(meek).unwrap().total_cycles = 10_000;
        fs.rebalance(&mut space).unwrap();
        let hog_prio = space.process(hog).unwrap().priority;
        let meek_prio = space.process(meek).unwrap().priority;
        assert!(
            meek_prio < hog_prio,
            "under-served process must be more urgent ({meek_prio} vs {hog_prio})"
        );
    }

    #[test]
    fn weights_scale_entitlement() {
        let mut space = ShardedSpace::new(32 * 1024, 2048, 256, 1);
        let heavy_but_entitled = process(&mut space);
        let light = process(&mut space);
        let mut fs = FairShareScheduler::new();
        fs.adopt(heavy_but_entitled, 10);
        fs.adopt(light, 1);
        // Equal raw consumption: the weighted one is less "used up".
        space.process_mut(heavy_but_entitled).unwrap().total_cycles = 100_000;
        space.process_mut(light).unwrap().total_cycles = 100_000;
        fs.rebalance(&mut space).unwrap();
        assert!(
            space.process(heavy_but_entitled).unwrap().priority
                < space.process(light).unwrap().priority
        );
    }

    #[test]
    fn usage_decays_over_passes() {
        let mut space = ShardedSpace::new(32 * 1024, 2048, 256, 1);
        let p = process(&mut space);
        let mut fs = FairShareScheduler::new();
        fs.adopt(p, 1);
        space.process_mut(p).unwrap().total_cycles = 100_000;
        fs.rebalance(&mut space).unwrap();
        let u1 = fs.usage_of(p).unwrap();
        // No further consumption: usage decays.
        fs.rebalance(&mut space).unwrap();
        let u2 = fs.usage_of(p).unwrap();
        assert!(u2 < u1);
    }

    #[test]
    fn reaped_processes_are_dropped() {
        let mut space = ShardedSpace::new(32 * 1024, 2048, 256, 1);
        let p = process(&mut space);
        let mut fs = FairShareScheduler::new();
        fs.adopt(p, 1);
        space.destroy_object(p).unwrap();
        fs.rebalance(&mut space).unwrap();
        assert_eq!(fs.client_count(), 0);
    }
}
