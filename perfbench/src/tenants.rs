//! `tenants`: the `c11_multi_tenant` traffic on the deterministic
//! runner.
//!
//! Waves of 1500 one-shot clients each allocate one typed `u64` message
//! and send it to one of 64 services, chosen by Zipf(1) from the seed.
//! Each wave is spawned, run, drained, retired and collected with two
//! full GC cycles. One operation is one client lifecycle; one round is
//! one wave. Waves that grow the object directory's leaf pages are
//! warm-up and are not timed.

use crate::common::{ns_since, Ctx, Measured, Rng, Spans};
use i432_arch::sysobj::{CTX_SLOT_ARG, CTX_SLOT_FIRST_FREE, CTX_SLOT_SRO, PROC_SLOT_CONTEXT};
use i432_arch::{AccessDescriptor, ObjectSpec, PortDiscipline, Rights, SpaceMut};
use i432_gdp::isa::{AluOp, DataDst, DataRef};
use i432_gdp::ProgramBuilder;
use i432_sim::{RunOutcome, System, SystemConfig};
use imax_gc::Collector;
use imax_ipc::{create_port, PortMessage, TypedPort};
use std::time::Instant;

/// Shared services.
pub const SERVICES: u32 = 64;
/// Clients per wave.
pub const WAVE: u32 = 1500;
/// Space shards.
pub const SHARDS: u32 = 4;
/// Distinct generated waves; the run cycles through them.
pub const POOL_WAVES: usize = 16;
/// Waves of the deterministic reference (and of the in-run replay
/// check against it).
const REF_WAVES: usize = 4;
/// Systems built per run to sample set-up time.
const SETUPS: usize = 25;
const BUDGET: u64 = 200_000_000;

/// The generated inputs: for each wave, the service every client calls.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// `POOL_WAVES` waves of `WAVE` service indices.
    pub waves: Vec<Vec<u32>>,
}

/// Draws the inputs for `seed`: integer Zipf(1) over service ranks.
pub fn inputs(seed: u64) -> Inputs {
    let mut cum = Vec::with_capacity(SERVICES as usize);
    let mut total = 0u64;
    for k in 1..=u64::from(SERVICES) {
        total += (1u64 << 32) / k;
        cum.push(total);
    }
    let mut rng = Rng::new(seed);
    Inputs {
        waves: (0..POOL_WAVES)
            .map(|_| {
                (0..WAVE)
                    .map(|_| {
                        let r = rng.below(total);
                        cum.partition_point(|&c| c <= r) as u32
                    })
                    .collect()
            })
            .collect(),
    }
}

/// A booted tenant system between waves.
pub struct Tenants {
    /// The system.
    pub sys: System,
    client_dom: AccessDescriptor,
    ports: Vec<TypedPort<u64>>,
    cells: Vec<AccessDescriptor>,
    collector: Collector,
    booted: u64,
    waves_run: usize,
}

/// What one wave did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveResult {
    /// The wave ran and drained.
    pub completed: bool,
    /// Requests the services received during the wave.
    pub delivered: u64,
    /// Clients retired after the wave.
    pub retired: u32,
    /// Objects the two collections reclaimed.
    pub reclaimed: u64,
    /// Directory leaf pages after the wave.
    pub leaf_pages: u32,
    /// Simulated time after the wave.
    pub now: u64,
    /// Deterministic-runner steps of the wave's run.
    pub steps: u64,
}

/// Failed client lifecycles of one wave: lost requests plus clients
/// that did not retire.
pub fn failed_ops(w: &WaveResult) -> u64 {
    if !w.completed {
        return u64::from(WAVE);
    }
    let lost = u64::from(WAVE).saturating_sub(w.delivered);
    let stuck = u64::from(WAVE.saturating_sub(w.retired));
    (lost + stuck).min(u64::from(WAVE))
}

/// Leaf pages a wave-bounded directory may hold: one wave's clients,
/// their contexts and messages, the service fleet, and slack.
pub fn leaf_page_bound() -> u32 {
    (8 * WAVE).div_ceil(i432_arch::object_table::LEAF_ENTRIES) + 4 * SHARDS
}

impl Tenants {
    /// Boots the system and installs the service fleet, sized so that no
    /// wave of `inp` can overflow a service port.
    pub fn build(inp: &Inputs, spans: &mut Spans) -> Tenants {
        let mut cfg = SystemConfig::small().with_processors(4).with_shards(SHARDS);
        cfg.data_bytes = 512 * 1024 * SHARDS;
        cfg.access_slots = 32 * 1024 * SHARDS;
        cfg.table_limit = 8 * i432_arch::object_table::LEAF_ENTRIES * SHARDS;
        cfg.dispatch_capacity = (WAVE + SERVICES + 16).next_power_of_two();
        let mut sys = spans.time("boot", || System::new(&cfg));

        let mut capacity = vec![1u32; SERVICES as usize];
        for wave in &inp.waves {
            let mut demand = vec![0u32; SERVICES as usize];
            for &k in wave {
                demand[k as usize] += 1;
            }
            for (c, d) in capacity.iter_mut().zip(&demand) {
                *c = (*c).max(d + 1);
            }
        }

        let (client_dom, ports, cells) = spans.time("install", || {
            // Figure 2's receive side: take a request, drop the message
            // AD, bump the service's accumulator (context slot 5).
            let mut sp = ProgramBuilder::new();
            let top = sp.new_label();
            sp.bind(top);
            sp.receive(CTX_SLOT_ARG as u16, 6);
            sp.null_ad(6);
            sp.mov(DataRef::Field(5, 0), DataDst::Local(0));
            sp.alu(
                AluOp::Add,
                DataRef::Local(0),
                DataRef::Imm(1),
                DataDst::Local(0),
            );
            sp.mov(DataRef::Local(0), DataDst::Field(5, 0));
            sp.jump(top);
            let svc_sub = sys.subprogram("service", sp.finish(), 64, 8);
            let svc_dom = sys.install_domain("services", vec![svc_sub], 0);
            // A client: allocate a typed message, send it, exit.
            let mut cp = ProgramBuilder::new();
            cp.create_object(
                CTX_SLOT_SRO as u16,
                DataRef::Imm(u64::from(<u64 as PortMessage>::DATA_LEN)),
                DataRef::Imm(0),
                5,
            );
            cp.send(CTX_SLOT_ARG as u16, 5);
            cp.halt();
            let client_sub = sys.subprogram("client", cp.finish(), 32, 8);
            let client_dom = sys.install_domain("clients", vec![client_sub], 0);

            // The service fleet: installed once, so its spawns are part of
            // the install span; the spawn span is the waves' clients.
            let root = sys.space.root_sro();
            let mut ports = Vec::new();
            let mut cells = Vec::new();
            for &cap in &capacity {
                let port = TypedPort::<u64>::from_port(
                    create_port(&mut sys.space, root, cap, PortDiscipline::Fifo)
                        .expect("service port"),
                );
                sys.anchor(port.as_port().ad());
                let cell = sys
                    .space
                    .create_object(root, ObjectSpec::generic(8, 0))
                    .expect("service cell");
                let cell_ad = sys.space.mint(cell, Rights::READ | Rights::WRITE);
                sys.anchor(cell_ad);
                let svc = sys.spawn(svc_dom, 0, Some(port.as_port().ad()));
                let ctx = sys
                    .space
                    .load_ad_hw(svc, PROC_SLOT_CONTEXT)
                    .expect("service context slot")
                    .expect("service has a context")
                    .obj;
                sys.space
                    .store_ad_hw(ctx, CTX_SLOT_FIRST_FREE + 1, Some(cell_ad))
                    .expect("service cell slot");
                sys.mark_service(svc);
                ports.push(port);
                cells.push(cell_ad);
            }
            (client_dom, ports, cells)
        });
        Tenants {
            sys,
            client_dom,
            ports,
            cells,
            collector: Collector::new(),
            booted: 0,
            waves_run: 0,
        }
    }

    fn delivered_total(&mut self) -> u64 {
        self.cells
            .iter()
            .map(|&c| self.sys.space.read_u64(c, 0).unwrap_or(0))
            .sum()
    }

    /// Runs the next wave of `inp`, recording spawn/run/retire/collect.
    pub fn wave(&mut self, inp: &Inputs, spans: &mut Spans) -> WaveResult {
        let assign = &inp.waves[self.waves_run % inp.waves.len()];
        self.waves_run += 1;
        let before = self.delivered_total();
        spans.time("spawn", || {
            for &k in assign {
                let port = self.ports[k as usize].as_port().ad();
                self.sys.spawn(self.client_dom, 0, Some(port));
            }
        });
        self.booted += assign.len() as u64;
        let steps0 = self.sys.steps();
        let completed = spans.time("run", || {
            self.sys.run_to_completion(BUDGET) == RunOutcome::Stopped
                && self.sys.run_to_quiescence(BUDGET) == RunOutcome::Quiescent
        });
        let delivered = self.delivered_total() - before;
        let leaf_pages = SpaceMut::leaf_pages(&self.sys.space);
        let retired = spans.time("retire", || self.sys.retire_terminated());
        let reclaimed0 = self.collector.stats.reclaimed;
        let collected = spans.time("collect", || {
            self.collector.collect_full(&mut self.sys.space).is_ok()
                && self.collector.collect_full(&mut self.sys.space).is_ok()
        });
        WaveResult {
            completed: completed && collected,
            delivered,
            retired,
            reclaimed: self.collector.stats.reclaimed - reclaimed0,
            leaf_pages,
            now: self.sys.now(),
            steps: self.sys.steps() - steps0,
        }
    }
}

/// The deterministic reference: the first [`REF_WAVES`] waves on a
/// fresh system.
fn reference(inp: &Inputs) -> Vec<WaveResult> {
    let mut t = Tenants::build(inp, &mut Spans::default());
    (0..REF_WAVES)
        .map(|_| t.wave(inp, &mut Spans::default()))
        .collect()
}

/// Runs the workload for the context's budget.
pub fn run(ctx: &Ctx, m: &mut Measured) {
    let inp = inputs(ctx.seed);
    m.ops_per_round = u64::from(WAVE);

    let reference = reference(&inp);
    let last = reference.last().expect("reference waves");
    m.sim_cycles_per_op = last.now as f64 / (REF_WAVES as f64 * f64::from(WAVE));
    if reference.iter().any(|w| failed_ops(w) != 0) {
        m.check_errors.push("tenants reference waves failed".into());
    }

    let mut t = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let mut spans = Spans::default();
        let built = Tenants::build(&inp, &mut spans);
        m.setup_ns.push(ns_since(t0));
        m.spans.extend(spans);
        t = Some(built);
    }
    let mut t = t.expect("at least one set-up");

    // The reference waves replayed in this system: the simulated results
    // must be identical, and any wave that grows the directory is
    // warm-up.
    let mut pages = 0;
    for (k, want) in reference.iter().enumerate() {
        let got = t.wave(&inp, &mut Spans::default());
        if got != *want {
            m.check_errors
                .push(format!("tenants wave {k} diverged from the reference run"));
        }
        pages = got.leaf_pages;
    }
    let bound = leaf_page_bound();
    crate::common::timed_loop(ctx.seconds, 5, || {
        let mut spans = Spans::default();
        let mut counts = m.counts;
        let t0 = Instant::now();
        let w = counts.around(|| t.wave(&inp, &mut spans));
        let ns = ns_since(t0);
        let run_ns = spans.median("run");
        let mut failed = failed_ops(&w);
        if w.leaf_pages > bound {
            failed = u64::from(WAVE);
        }
        if w.leaf_pages > pages {
            // The directory grew: warm-up, not timed.
            pages = w.leaf_pages;
            if failed != 0 {
                m.check_errors.push("tenants warm-up wave failed".into());
            }
            return;
        }
        m.counts = counts;
        m.spans.extend(spans);
        m.round_ns.push(ns);
        m.det_steps += w.steps;
        m.det_run_ns += run_ns;
        m.account(u64::from(WAVE), failed);
    });
    m.info.push((
        "shape",
        format!(
            "waves of {WAVE} clients over {SERVICES} Zipf(1) services, {SHARDS} shards, \
             deterministic runner; leaf pages {pages} (bound {bound})"
        ),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_inputs_favour_rank_one() {
        let inp = inputs(9);
        let top = inp.waves[0].iter().filter(|&&k| k == 0).count();
        let tail = inp.waves[0].iter().filter(|&&k| k == SERVICES - 1).count();
        assert!(top > 10 * tail.max(1), "{top} vs {tail}");
        assert_eq!(inputs(9).waves, inp.waves);
    }

    #[test]
    fn a_lost_request_is_counted_as_failed() {
        let ok = WaveResult {
            completed: true,
            delivered: u64::from(WAVE),
            retired: WAVE,
            reclaimed: 1,
            leaf_pages: 1,
            now: 1,
            steps: 1,
        };
        assert_eq!(failed_ops(&ok), 0);
        let lost = WaveResult {
            delivered: u64::from(WAVE) - 1,
            ..ok
        };
        assert_eq!(failed_ops(&lost), 1);
        let stuck = WaveResult {
            retired: WAVE - 2,
            ..ok
        };
        assert_eq!(failed_ops(&stuck), 2);
    }

    #[test]
    fn a_wave_delivers_and_retires_everyone() {
        let inp = inputs(2);
        let mut t = Tenants::build(&inp, &mut Spans::default());
        let w = t.wave(&inp, &mut Spans::default());
        assert_eq!(failed_ops(&w), 0, "{w:?}");
        assert!(w.reclaimed > 0, "{w:?}");
    }
}
