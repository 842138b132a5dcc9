//! Layer probes: each times one layer's public functions in isolation,
//! from the benchmark's own code. Every probe warms up, then takes
//! repeated samples of a fixed batch; a sample is host ns per operation.
//! Probes run only in the traced run, never in the process that
//! produces end-to-end numbers.

use crate::common::{median, ns_since, quantile, Spans};
use i432_arch::{AccessDescriptor, ObjectRef, ObjectSpec, PortDiscipline, Rights};
use i432_gdp::isa::{AluOp, DataDst, DataRef};
use i432_gdp::port::{self, RecvOutcome};
use i432_gdp::ProgramBuilder;
use i432_sim::{RunOutcome, System, SystemConfig};
use imax_filing::protocol::{
    FOP_CLOSE, FOP_OPEN, FOP_READ, FOP_WRITE, FREQ_FILE_OFF, FREQ_LEN_OFF, FREQ_OBJ_ACCESS_LEN,
    FREQ_OBJ_DATA_LEN, FREQ_OP_OFF, FREQ_POS_OFF, FREQ_SLOT_REPLY, FREQ_STATUS_OFF, FS_OK,
};
use imax_filing::{install_filing_service, FilingConfig};
use imax_io::virtio::{
    VirtioBlock, VirtioDevice, VIRTIO_OP_WRITE, VIRTIO_S_OK, VREQ_DATA_OFF, VREQ_LBA_OFF,
    VREQ_LEN_OFF, VREQ_OP_OFF, VREQ_SLOT_REPLY, VREQ_STATUS_OFF,
};
use imax_ipc::{create_port, untyped, PortMessage, TypedPort};
use imax_storage::SwappingManager;
use std::hint::black_box;
use std::time::Instant;

/// One probe's samples (host ns per operation).
#[derive(Debug, Clone)]
pub struct Probe {
    /// Metric name, e.g. `gdp.port_pair_ns`.
    pub name: &'static str,
    /// Samples after warm-up.
    pub samples: Vec<f64>,
}

impl Probe {
    /// Median sample.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }
}

/// Warm-up samples discarded by every probe.
const WARMUP: usize = 2;
/// Samples kept by every probe.
const SAMPLES: usize = 11;

fn probe(name: &'static str, mut sample: impl FnMut() -> f64) -> Probe {
    for _ in 0..WARMUP {
        black_box(sample());
    }
    Probe {
        name,
        samples: (0..SAMPLES).map(|_| sample()).collect(),
    }
}

/// Times `batch` calls of `op` and returns ns per call.
fn per_op(batch: u64, mut op: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..batch {
        op(i);
    }
    ns_since(t0) / batch as f64
}

fn host_config() -> SystemConfig {
    let mut cfg = SystemConfig::small().with_shards(4);
    cfg.data_bytes *= 8;
    cfg.access_slots *= 8;
    cfg.table_limit *= 8;
    cfg.dispatch_capacity = 1024;
    cfg
}

/// `sim.boot_ns`, `sim.spawn_ns`, `sim.retire_ns_per_proc`.
fn sim_probes(out: &mut Vec<Probe>) {
    out.push(probe("sim.boot_ns", || {
        per_op(4, |_| {
            black_box(System::new(&host_config()));
        })
    }));
    const PROCS: u64 = 256;
    let halting = |sys: &mut System| {
        let mut p = ProgramBuilder::new();
        p.halt();
        let sub = sys.subprogram("halt", p.finish(), 32, 8);
        sys.install_domain("halting", vec![sub], 0)
    };
    out.push(probe("sim.spawn_ns", || {
        let mut sys = System::new(&host_config());
        let dom = halting(&mut sys);
        per_op(PROCS, |_| {
            black_box(sys.spawn(dom, 0, None));
        })
    }));
    out.push(probe("sim.retire_ns_per_proc", || {
        let mut sys = System::new(&host_config());
        let dom = halting(&mut sys);
        for _ in 0..PROCS {
            sys.spawn(dom, 0, None);
        }
        assert_eq!(sys.run_to_completion(10_000_000), RunOutcome::Stopped);
        let t0 = Instant::now();
        let retired = sys.retire_terminated();
        let ns = ns_since(t0);
        assert_eq!(u64::from(retired), PROCS, "every halted process retires");
        ns / PROCS as f64
    }));
}

/// The one-process `c3_threaded` loop on one simulated GDP, and its
/// executed instruction count.
fn loop_system(iters: u64) -> (System, u64) {
    let mut sys = System::new(&SystemConfig::small());
    let mut p = ProgramBuilder::new();
    let top = p.new_label();
    p.mov(DataRef::Imm(iters), DataDst::Local(0));
    p.bind(top);
    p.work(400);
    p.alu(
        AluOp::Sub,
        DataRef::Local(0),
        DataRef::Imm(1),
        DataDst::Local(0),
    );
    p.jump_if_nonzero(DataRef::Local(0), top);
    p.halt();
    let sub = sys.subprogram("loop", p.finish(), 64, 8);
    let dom = sys.install_domain("loop", vec![sub], 0);
    sys.spawn(dom, 0, None);
    (sys, 2 + 3 * iters)
}

/// `gdp.instr_ns_thr`, `gdp.instr_ns_det`.
fn instr_probes(out: &mut Vec<Probe>) {
    const ITERS: u64 = 40_000;
    out.push(probe("gdp.instr_ns_thr", || {
        let (sys, instrs) = loop_system(ITERS);
        let t0 = Instant::now();
        let (_, o) = i432_sim::run_threaded_full(sys, u64::MAX, true, true, true);
        let ns = ns_since(t0);
        assert!(o.completed && o.system_errors == 0, "{o:?}");
        ns / instrs as f64
    }));
    out.push(probe("gdp.instr_ns_det", || {
        let (mut sys, instrs) = loop_system(ITERS);
        let t0 = Instant::now();
        let o = sys.run_to_completion(u64::MAX);
        let ns = ns_since(t0);
        assert_eq!(o, RunOutcome::Stopped);
        ns / instrs as f64
    }));
}

/// A host system with one FIFO port and one message object.
fn port_fixture() -> (System, AccessDescriptor, AccessDescriptor) {
    let mut sys = System::new(&host_config());
    let root = sys.space.root_sro();
    let p = create_port(&mut sys.space, root, 64, PortDiscipline::Fifo).expect("probe port");
    sys.anchor(p.ad());
    let msg = sys
        .space
        .create_object(root, ObjectSpec::generic(8, 0))
        .expect("probe message");
    let msg_ad = sys.space.mint(msg, Rights::READ | Rights::WRITE);
    sys.anchor(msg_ad);
    (sys, p.ad(), msg_ad)
}

/// Arms the port-ring registry and gives `port_ad` its ring: rings
/// appear on the locked path's first use, exactly as in a threaded run.
fn arm_ring(sys: &mut System, port_ad: AccessDescriptor, msg: AccessDescriptor) {
    sys.space.port_ring_registry().set_enabled(true);
    port::send(&mut sys.space, None, port_ad, msg, 0, false, false).expect("arming send");
    port::receive(&mut sys.space, None, port_ad, false, false).expect("arming receive");
}

/// `gdp.port_pair_ns`, `gdp.ring_pair_ns`, `ipc.typed_pair_ns`.
fn port_probes(out: &mut Vec<Probe>) {
    const BATCH: u64 = 2000;
    let (mut sys, port_ad, msg) = port_fixture();
    out.push(probe("gdp.port_pair_ns", || {
        per_op(BATCH, |_| {
            port::send(&mut sys.space, None, port_ad, msg, 0, false, false).expect("locked send");
            let r = port::receive(&mut sys.space, None, port_ad, false, false);
            assert!(matches!(r, Ok(RecvOutcome::Received(_))), "{r:?}");
        })
    }));

    arm_ring(&mut sys, port_ad, msg);
    out.push(probe("gdp.ring_pair_ns", || {
        per_op(BATCH, |_| {
            if port::fast_send(&mut sys.space, port_ad, msg, 0).is_none() {
                port::send(&mut sys.space, None, port_ad, msg, 0, false, false)
                    .expect("fallback send");
            }
            if port::fast_receive(&mut sys.space, port_ad).is_none() {
                port::receive(&mut sys.space, None, port_ad, false, false)
                    .expect("fallback receive");
            }
        })
    }));
    port::flush_rings(&mut sys.space).expect("ring flush");
    sys.space.port_ring_registry().set_enabled(false);

    let root = sys.space.root_sro();
    let typed = TypedPort::<u64>::create(&mut sys.space, root, 64, PortDiscipline::Fifo)
        .expect("typed port");
    sys.anchor(typed.as_port().ad());
    let mut received: Vec<AccessDescriptor> = Vec::with_capacity(BATCH as usize);
    out.push(probe("ipc.typed_pair_ns", || {
        let ns = per_op(BATCH, |i| {
            typed.send(&mut sys.space, root, &i).expect("typed send");
            let ad = typed
                .receive_ad(&mut sys.space)
                .expect("typed receive")
                .expect("message queued");
            assert_eq!(u64::load(&mut sys.space, ad).expect("unmarshal"), i);
            received.push(ad);
        });
        for ad in received.drain(..) {
            sys.space.destroy_object(ad.obj).expect("message reclaim");
        }
        ns
    }));
}

/// `arch.create_destroy_ns`.
fn arch_probes(out: &mut Vec<Probe>) {
    let mut sys = System::new(&host_config());
    let root = sys.space.root_sro();
    out.push(probe("arch.create_destroy_ns", || {
        per_op(2000, |_| {
            let o = sys
                .space
                .create_object(root, ObjectSpec::generic(64, 4))
                .expect("probe object");
            sys.space.destroy_object(o).expect("probe destroy");
        })
    }));
}

/// `storage.swap_out_ns`, `storage.swap_in_ns`.
fn storage_probes(out: &mut Vec<Probe>) {
    const OBJS: usize = 128;
    let mut sys = System::new(&host_config());
    let root = sys.space.root_sro();
    let objs: Vec<ObjectRef> = (0..OBJS)
        .map(|_| {
            let o = sys
                .space
                .create_object(root, ObjectSpec::generic(512, 0))
                .expect("swap object");
            sys.anchor(sys.space.mint(o, Rights::ALL));
            o
        })
        .collect();
    let mut mgr = SwappingManager::new();
    let mut outs = Vec::new();
    let mut ins = Vec::new();
    for k in 0..WARMUP + SAMPLES {
        let o = per_op(OBJS as u64, |i| {
            mgr.swap_out(&mut sys.space, objs[i as usize])
                .expect("swap out")
        });
        let i = per_op(OBJS as u64, |i| {
            mgr.swap_in(&mut sys.space, objs[i as usize])
                .expect("swap in")
        });
        if k >= WARMUP {
            outs.push(o);
            ins.push(i);
        }
    }
    out.push(Probe {
        name: "storage.swap_out_ns",
        samples: outs,
    });
    out.push(Probe {
        name: "storage.swap_in_ns",
        samples: ins,
    });
}

/// `io.blk_roundtrip_ns`: submit + service of one block write, plus the
/// host receive of its completion.
fn io_probes(out: &mut Vec<Probe>) {
    const BLOCKS: u64 = 64;
    let mut sys = System::new(&host_config());
    let root = sys.space.root_sro();
    let dev = VirtioDevice::new(VirtioBlock::new("probe0", BLOCKS as usize, 64), 16, true);
    let reply = create_port(&mut sys.space, root, 8, PortDiscipline::Fifo).expect("reply port");
    sys.anchor(reply.ad());
    let req = sys
        .space
        .create_object(root, ObjectSpec::generic(VREQ_DATA_OFF + 64, 2))
        .expect("virtio request");
    let req_ad = sys.space.mint(req, Rights::ALL);
    sys.anchor(req_ad);
    sys.space
        .store_ad_hw(req, VREQ_SLOT_REPLY, Some(reply.ad()))
        .expect("reply slot");
    sys.space
        .write_u64(req_ad, VREQ_OP_OFF, VIRTIO_OP_WRITE)
        .expect("op");
    sys.space.write_u64(req_ad, VREQ_LEN_OFF, 64).expect("len");
    out.push(probe("io.blk_roundtrip_ns", || {
        per_op(512, |i| {
            sys.space
                .write_u64(req_ad, VREQ_LBA_OFF, i % BLOCKS)
                .expect("lba");
            dev.submit(req_ad);
            let (done, _) = dev.service(&mut sys.space).expect("device service");
            assert_eq!(done, 1);
            let back = untyped::receive(&mut sys.space, reply)
                .expect("completion receive")
                .expect("completion delivered");
            debug_assert_eq!(back.obj, req);
        })
    }));
    let status = sys.space.read_u64(req_ad, VREQ_STATUS_OFF).expect("status");
    assert_eq!(status, VIRTIO_S_OK, "probe writes must succeed");
}

/// `filing.serve_ns_per_req`: `FilingServer::service_batch` over the
/// workload's request mix (OPEN, WRITE/READ pairs, CLOSE per file),
/// divided by requests served.
fn filing_probes(out: &mut Vec<Probe>) {
    const FILES: u64 = 8;
    const PAIR_BATCHES: u64 = 4;
    let mut sys = System::new(&host_config());
    let cfg = FilingConfig {
        workers: 1,
        ..FilingConfig::small(FILES as u32, u64::MAX)
    };
    let (server, _) = install_filing_service(&mut sys, &cfg);
    let root = sys.space.root_sro();
    // Per file: a private reply port and two reusable request objects.
    let mut files = Vec::new();
    for f in 0..FILES {
        let reply = create_port(&mut sys.space, root, 4, PortDiscipline::Fifo).expect("reply");
        sys.anchor(reply.ad());
        let reqs: Vec<AccessDescriptor> = (0..2)
            .map(|_| {
                let r = sys
                    .space
                    .create_object(
                        root,
                        ObjectSpec::generic(FREQ_OBJ_DATA_LEN, FREQ_OBJ_ACCESS_LEN),
                    )
                    .expect("request object");
                sys.space
                    .store_ad_hw(r, FREQ_SLOT_REPLY, Some(reply.ad()))
                    .expect("reply slot");
                let ad = sys.space.mint(r, Rights::ALL);
                sys.anchor(ad);
                ad
            })
            .collect();
        files.push((f, reply, reqs));
    }
    // One batch: queue every file's requests, time the service call,
    // check every reply. Returns `(ns, served)`.
    let batch = |sys: &mut System, ops: &[u64], pos: u64| -> (f64, u64) {
        for (f, _, reqs) in &files {
            for (op, req) in ops.iter().zip(reqs) {
                for (off, v) in [
                    (FREQ_OP_OFF, *op),
                    (FREQ_FILE_OFF, *f),
                    (FREQ_POS_OFF, pos),
                    (FREQ_LEN_OFF, 8),
                ] {
                    sys.space.write_u64(*req, off, v).expect("request field");
                }
                untyped::send(&mut sys.space, server.request_port(), *req).expect("request");
            }
        }
        let t0 = Instant::now();
        let (served, _) = server.service_batch(&mut sys.space).expect("service batch");
        let ns = ns_since(t0);
        assert_eq!(served, FILES * ops.len() as u64);
        for (_, reply, _) in &files {
            for _ in ops {
                let r = untyped::receive(&mut sys.space, *reply)
                    .expect("reply receive")
                    .expect("reply delivered");
                let status = sys.space.read_u64(r, FREQ_STATUS_OFF).expect("status");
                assert_eq!(status, FS_OK, "probe request failed");
            }
        }
        (ns, served)
    };
    out.push(probe("filing.serve_ns_per_req", || {
        let mut total = batch(&mut sys, &[FOP_OPEN], 0);
        let mut add = |(ns, n): (f64, u64)| {
            total.0 += ns;
            total.1 += n;
        };
        for k in 0..PAIR_BATCHES {
            add(batch(&mut sys, &[FOP_WRITE, FOP_READ], 8 * k));
        }
        add(batch(&mut sys, &[FOP_CLOSE], 0));
        total.0 / total.1 as f64
    }));
}

/// `gc.collect_ns_per_wave`, `gc.reclaimed_per_wave`, `gc.ns_per_reclaim`:
/// the two full collections after a `tenants` wave.
fn gc_probes(out: &mut Vec<Probe>) {
    use crate::tenants::{inputs, Tenants};
    let inp = inputs(0x6c);
    let mut t = Tenants::build(&inp, &mut Spans::default());
    let mut collect = Vec::new();
    let mut reclaimed = Vec::new();
    for k in 0..WARMUP + 5 {
        let mut spans = Spans::default();
        let w = t.wave(&inp, &mut spans);
        assert_eq!(crate::tenants::failed_ops(&w), 0, "gc probe wave failed");
        if k >= WARMUP {
            collect.push(spans.median("collect"));
            reclaimed.push(w.reclaimed as f64);
        }
    }
    let per: Vec<f64> = collect
        .iter()
        .zip(&reclaimed)
        .map(|(ns, n)| ns / n.max(1.0))
        .collect();
    out.push(Probe {
        name: "gc.collect_ns_per_wave",
        samples: collect,
    });
    out.push(Probe {
        name: "gc.ns_per_reclaim",
        samples: per,
    });
    out.push(Probe {
        name: "gc.reclaimed_per_wave",
        samples: reclaimed,
    });
}

/// Runs every probe.
pub fn run_all() -> Vec<Probe> {
    let mut out = Vec::new();
    sim_probes(&mut out);
    instr_probes(&mut out);
    port_probes(&mut out);
    arch_probes(&mut out);
    storage_probes(&mut out);
    io_probes(&mut out);
    filing_probes(&mut out);
    gc_probes(&mut out);
    out
}

/// `(q1, q3)` of a probe's samples.
pub fn quartiles(p: &Probe) -> (f64, f64) {
    (quantile(&p.samples, 0.25), quantile(&p.samples, 0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_probe_takes_the_fast_path() {
        let (mut sys, port_ad, msg) = port_fixture();
        arm_ring(&mut sys, port_ad, msg);
        assert!(port::fast_send(&mut sys.space, port_ad, msg, 0).is_some());
        assert!(matches!(
            port::fast_receive(&mut sys.space, port_ad),
            Some(RecvOutcome::Received(m)) if m.obj == msg.obj
        ));
    }
}
