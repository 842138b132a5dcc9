//! Asynchronous devices: virtio-shaped block and net models, and the
//! I/O subsystems that put family devices behind request ports.
//!
//! The synchronous family ([`crate::iface`]) makes every device call a
//! domain CALL, which leaves the device strictly *behind* the kernel's
//! locked paths. This module is the one asynchronous path — the shape
//! every modern paravirtual device uses and the one Norost-b's
//! `virtio_blk`/`virtio_net` drivers are built on: a **per-device
//! descriptor ring** that producers publish request descriptors into
//! without a lock, a **submission/completion split** (submitting never
//! waits for the device), and **completion-interrupt delivery** — the
//! device posts the finished request object to the reply port named
//! inside the request, so a client (or a `TypedPort`-wrapped receiver)
//! picks completions up through the ordinary port machinery.
//!
//! Family devices ride the same path. Paper §3: "Multiple independent
//! I/O subsystems provide a similar expansion for the I/O bandwidth of a
//! single system." An [`IoSubsystem`] gives each attached
//! [`DeviceImpl`] a request port; its service pass submits the port's
//! pending requests into a [`VirtioDevice`] wrapping the device, so a
//! family request is a virtio descriptor (`VREQ_*` layout, family
//! `OP_*` codes in the op field, a control argument in the LBA field)
//! and clients overlap computation with I/O with no new concepts.
//!
//! ## The descriptor ring
//!
//! A device's submission ring is an [`i432_arch::portring::PortRing`]
//! that shadows no port and is never registered, built open by
//! [`PortRing::unregistered`]: producers claim slots with the same
//! slot/sequence discipline as a port's fast path, and a refusal
//! (full, contended) falls back to the locked backlog exactly as a
//! ring-refused port send falls back to the rendezvous path. The device
//! only ever pushes and pops, so the ring's owner-serialized
//! freeze/drain/retire calls never arise.
//!
//! ## Determinism
//!
//! Request descriptors name their operation explicitly — block requests
//! carry an absolute LBA, net requests are self-contained echo frames —
//! so executing a batch in any order produces the same per-request
//! results, and the cycle model (`base + per-byte × len`) depends only
//! on the request itself. The deterministic runner therefore stays
//! bit-identical whether requests travel through the ring or through
//! the locked backlog, which is exactly the differential the conform
//! `filing` workload checks.
//!
//! ## Collector visibility
//!
//! The parallel collector scans registered port rings for in-flight
//! messages but knows nothing of device rings. The rule that keeps
//! requests reachable is a drain discipline, not a scan: a service
//! routine that submits into the queue must drain it to empty before
//! its atomic section ends ([`VirtioDevice::service`] +
//! [`VirtioDevice::assert_idle`]). Native calls hold every shard lock,
//! so a collector can never observe a nonempty queue. DESIGN.md §14
//! spells the argument out.

use crate::iface::{DeviceImpl, OP_CLOSE, OP_CONTROL_BASE, OP_OPEN, OP_READ, OP_STATUS, OP_WRITE};
use i432_arch::portring::{PortRing, RingEntry};
use i432_arch::{AccessDescriptor, ObjectRef, PortDiscipline, Rights, SpaceMut};
use i432_gdp::{
    port::{self, RecvOutcome, SendOutcome},
    Fault, FaultKind,
};
use imax_ipc::Port;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Request descriptor layout (virtio-shaped: one request object carries
// header + status + data, completion rewrites it in place).
// ---------------------------------------------------------------------

/// Offset of the operation code in a virtio request object.
pub const VREQ_OP_OFF: u32 = 0;
/// Offset of the absolute block address (block requests) or the control
/// argument (family requests).
pub const VREQ_LBA_OFF: u32 = 8;
/// Offset of the transfer length in bytes.
pub const VREQ_LEN_OFF: u32 = 16;
/// Offset of the completion status (written by the device).
pub const VREQ_STATUS_OFF: u32 = 24;
/// Offset of the result count (written by the device).
pub const VREQ_COUNT_OFF: u32 = 32;
/// Offset of the simulated device cycles charged (written by the device).
pub const VREQ_CYCLES_OFF: u32 = 40;
/// Offset of the transfer data area.
pub const VREQ_DATA_OFF: u32 = 48;
/// Access slot of the reply port inside a virtio request object.
pub const VREQ_SLOT_REPLY: u32 = 0;

/// Block read at an absolute LBA.
pub const VIRTIO_OP_READ: u64 = 0;
/// Block write at an absolute LBA.
pub const VIRTIO_OP_WRITE: u64 = 1;
/// Block flush (barrier; data is already durable in the model).
pub const VIRTIO_OP_FLUSH: u64 = 2;
/// Net echo: transmit the frame, receive it back in place.
pub const VIRTIO_OP_ECHO: u64 = 3;

/// Completion status: success.
pub const VIRTIO_S_OK: u64 = 0;
/// Completion status: I/O error (bad LBA, device closed, short frame).
pub const VIRTIO_S_IOERR: u64 = 1;
/// Completion status: operation not supported by this device model.
pub const VIRTIO_S_UNSUPP: u64 = 2;

// ---------------------------------------------------------------------
// Device models.
// ---------------------------------------------------------------------

/// Which taxonomy a virtio device model belongs to (drives which trace
/// counters its traffic bumps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VirtioKind {
    /// Block storage (LBA-addressed).
    Block,
    /// Network (frame-addressed).
    Net,
    /// A family device behind an [`IoSubsystem`] (bumps no counter).
    Family,
}

/// A device model a [`VirtioDevice`] drives: executes one request
/// descriptor and prices it deterministically.
pub trait VirtioModel: Send {
    /// Block, net or family (selects trace counters).
    fn kind(&self) -> VirtioKind;

    /// Executes one operation in place on `data`. Returns the result
    /// count on success, a `VIRTIO_S_*` status (nonzero) on failure.
    /// Must be order-independent: the result depends only on the
    /// request and the device's committed state, never on what else is
    /// in flight.
    fn execute(&mut self, op: u64, lba: u64, data: &mut [u8]) -> Result<u64, u64>;

    /// Deterministic simulated cycles for one request — a pure function
    /// of the request, identical on every runner and submission path.
    fn cost(&self, op: u64, len: u64) -> u64;
}

/// A fixed-geometry virtio block device: every request names its LBA,
/// so concurrent batches execute order-independently (unlike
/// [`crate::disk::RamDisk`], whose seek cursor serializes clients).
#[derive(Debug)]
pub struct VirtioBlock {
    name: String,
    block_size: usize,
    blocks: Vec<Vec<u8>>,
    flushes: u64,
}

impl VirtioBlock {
    /// A device of `blocks` blocks of `block_size` bytes (virtio devices
    /// negotiate at attach, not per-request, so there is no open/close).
    pub fn new(name: impl Into<String>, blocks: usize, block_size: usize) -> VirtioBlock {
        VirtioBlock {
            name: name.into(),
            block_size,
            blocks: vec![vec![0; block_size]; blocks],
            flushes: 0,
        }
    }

    /// The device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The device geometry.
    pub fn geometry(&self) -> (usize, usize) {
        (self.blocks.len(), self.block_size)
    }

    /// Flush barriers issued so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Reads the block at `lba` into `buf` (short reads allowed).
    pub fn read_at(&self, lba: u64, buf: &mut [u8]) -> Result<u64, u64> {
        let block = self.blocks.get(lba as usize).ok_or(VIRTIO_S_IOERR)?;
        let n = block.len().min(buf.len());
        buf[..n].copy_from_slice(&block[..n]);
        Ok(n as u64)
    }

    /// Writes `buf` over the block at `lba`; short writes zero-fill.
    pub fn write_at(&mut self, lba: u64, buf: &[u8]) -> Result<u64, u64> {
        if buf.len() > self.block_size {
            return Err(VIRTIO_S_IOERR);
        }
        let block = self.blocks.get_mut(lba as usize).ok_or(VIRTIO_S_IOERR)?;
        block.fill(0);
        block[..buf.len()].copy_from_slice(buf);
        Ok(buf.len() as u64)
    }
}

impl VirtioModel for VirtioBlock {
    fn kind(&self) -> VirtioKind {
        VirtioKind::Block
    }

    fn execute(&mut self, op: u64, lba: u64, data: &mut [u8]) -> Result<u64, u64> {
        match op {
            VIRTIO_OP_READ => self.read_at(lba, data),
            VIRTIO_OP_WRITE => self.write_at(lba, data),
            VIRTIO_OP_FLUSH => {
                self.flushes += 1;
                Ok(0)
            }
            _ => Err(VIRTIO_S_UNSUPP),
        }
    }

    fn cost(&self, op: u64, len: u64) -> u64 {
        match op {
            // Seek + transfer: the classic disk shape.
            VIRTIO_OP_READ | VIRTIO_OP_WRITE => 600 + 4 * len,
            VIRTIO_OP_FLUSH => 300,
            _ => 10,
        }
    }
}

/// A virtio net device modeled as a deterministic loopback: an ECHO
/// request transmits its frame and receives it straight back in place.
/// Self-contained frames keep concurrent batches order-independent.
#[derive(Debug, Default)]
pub struct VirtioNet {
    name: String,
    frames_tx: u64,
    frames_rx: u64,
    bytes_tx: u64,
}

impl VirtioNet {
    /// A fresh loopback interface.
    pub fn new(name: impl Into<String>) -> VirtioNet {
        VirtioNet {
            name: name.into(),
            ..VirtioNet::default()
        }
    }

    /// The interface name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Frames transmitted / received / bytes moved so far.
    pub fn traffic(&self) -> (u64, u64, u64) {
        (self.frames_tx, self.frames_rx, self.bytes_tx)
    }
}

impl VirtioModel for VirtioNet {
    fn kind(&self) -> VirtioKind {
        VirtioKind::Net
    }

    fn execute(&mut self, op: u64, _lba: u64, data: &mut [u8]) -> Result<u64, u64> {
        match op {
            VIRTIO_OP_ECHO => {
                if data.is_empty() {
                    return Err(VIRTIO_S_IOERR);
                }
                self.frames_tx += 1;
                self.frames_rx += 1;
                self.bytes_tx += data.len() as u64;
                Ok(data.len() as u64)
            }
            _ => Err(VIRTIO_S_UNSUPP),
        }
    }

    fn cost(&self, op: u64, len: u64) -> u64 {
        match op {
            // Wire out + wire back.
            VIRTIO_OP_ECHO => 200 + 2 * len,
            _ => 10,
        }
    }
}

/// A family device as the I/O subsystems hold it.
type FamilyDevice = Arc<Mutex<dyn DeviceImpl>>;

/// Any device-independent implementation (paper §6.3) as a virtio
/// model: the op field holds a family `OP_*` code, a control op takes
/// its argument from the LBA field, and a transfer is priced by its
/// requested `len` so the charge is a function of the request alone.
/// Any device error completes with [`VIRTIO_S_IOERR`].
impl VirtioModel for FamilyDevice {
    fn kind(&self) -> VirtioKind {
        VirtioKind::Family
    }

    fn execute(&mut self, op: u64, lba: u64, data: &mut [u8]) -> Result<u64, u64> {
        let mut dev = self.lock();
        let result = match u32::try_from(op) {
            Ok(OP_OPEN) => dev.open().map(|()| 0),
            Ok(OP_CLOSE) => dev.close().map(|()| 0),
            Ok(OP_STATUS) => Ok(dev.status().pack()),
            Ok(OP_READ) => dev.read(data).map(|n| n as u64),
            Ok(OP_WRITE) => dev.write(data).map(|n| n as u64),
            Ok(op) if op >= OP_CONTROL_BASE => dev.control(op - OP_CONTROL_BASE, lba),
            _ => return Err(VIRTIO_S_UNSUPP),
        };
        result.map_err(|_| VIRTIO_S_IOERR)
    }

    fn cost(&self, op: u64, len: u64) -> u64 {
        match u32::try_from(op) {
            Ok(OP_OPEN | OP_CLOSE) => 40,
            Ok(OP_STATUS) => 20,
            Ok(OP_READ | OP_WRITE) => 60 + len * self.lock().cycles_per_byte(),
            Ok(op) if op >= OP_CONTROL_BASE => 50,
            _ => 10,
        }
    }
}

// ---------------------------------------------------------------------
// The async device: submission/completion split over a PortRing.
// ---------------------------------------------------------------------

/// Counters for one virtio device.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VirtioStats {
    /// Requests submitted (ring + backlog).
    pub submitted: u64,
    /// Submissions that fell back to the locked backlog.
    pub backlogged: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests completed with a nonzero status.
    pub failed: u64,
    /// Simulated device cycles consumed.
    pub device_cycles: u64,
}

/// An asynchronous virtio device: a [`PortRing`] submission ring with a
/// locked backlog fallback, a [`VirtioModel`] executing requests, and
/// completion delivery to the reply port each request names.
pub struct VirtioDevice<M: VirtioModel> {
    model: Arc<Mutex<M>>,
    queue: PortRing,
    /// The locked submission path: taken when the ring refuses (full,
    /// contended) or when ring submission is disabled — the device-queue
    /// off arm of the conform differential.
    backlog: Mutex<VecDeque<AccessDescriptor>>,
    use_queue: bool,
    kind: VirtioKind,
    submitted: AtomicU64,
    backlogged: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    device_cycles: AtomicU64,
}

impl<M: VirtioModel> VirtioDevice<M> {
    /// Wraps `model` behind a descriptor ring of `queue_depth` slots.
    /// `use_queue = false` routes every submission through the locked
    /// backlog instead (the differential arm).
    pub fn new(model: M, queue_depth: u32, use_queue: bool) -> VirtioDevice<M> {
        let kind = model.kind();
        VirtioDevice {
            model: Arc::new(Mutex::new(model)),
            queue: PortRing::unregistered(queue_depth),
            backlog: Mutex::new(VecDeque::new()),
            use_queue,
            kind,
            submitted: AtomicU64::new(0),
            backlogged: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            device_cycles: AtomicU64::new(0),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &Arc<Mutex<M>> {
        &self.model
    }

    /// A point-in-time copy of the device counters.
    pub fn stats(&self) -> VirtioStats {
        VirtioStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            backlogged: self.backlogged.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            device_cycles: self.device_cycles.load(Ordering::Relaxed),
        }
    }

    /// Submits one request descriptor. Never blocks and never touches
    /// the space: the ring publishes lock-free, and a refusal falls
    /// back to the locked backlog exactly as ring-refused port sends
    /// fall back to the rendezvous path.
    pub fn submit(&self, req: AccessDescriptor) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        match self.kind {
            VirtioKind::Block => i432_trace::bump(i432_trace::Counter::BlkSubmits),
            VirtioKind::Net => i432_trace::bump(i432_trace::Counter::NetTx),
            VirtioKind::Family => {}
        }
        if self.use_queue && self.queue.push(RingEntry { msg: req, key: 0 }).is_ok() {
            return;
        }
        self.backlogged.fetch_add(1, Ordering::Relaxed);
        self.backlog.lock().push_back(req);
    }

    /// Services the device: claims every submitted descriptor (ring
    /// first, oldest-first, then the backlog), executes each on the
    /// model, writes status/count/cycles back into the request object,
    /// and posts it to the reply port named in its access slot 0 — the
    /// completion interrupt.
    ///
    /// Returns `(completions, simulated cycles)` so the calling native
    /// can charge the deterministic cost.
    pub fn service<S: SpaceMut + ?Sized>(&self, space: &mut S) -> Result<(u64, u64), Fault> {
        let mut done = 0u64;
        let mut cycles = 0u64;
        loop {
            let req = match self.queue.pop() {
                Ok(entry) => entry.msg,
                Err(_) => match self.backlog.lock().pop_front() {
                    Some(req) => req,
                    None => break,
                },
            };
            cycles += self.complete_one(space, req)?;
            done += 1;
        }
        Ok((done, cycles))
    }

    /// Asserts the drain discipline that stands in for collector
    /// visibility: no descriptor may rest in the device between atomic
    /// sections (debug builds only).
    pub fn assert_idle(&self) {
        debug_assert_eq!(
            self.queue.occupancy(),
            0,
            "device ring must be drained before the atomic section ends"
        );
        debug_assert!(
            self.backlog.lock().is_empty(),
            "device backlog must be drained before the atomic section ends"
        );
    }

    fn complete_one<S: SpaceMut + ?Sized>(
        &self,
        space: &mut S,
        req: AccessDescriptor,
    ) -> Result<u64, Fault> {
        // The device is trusted: full access to the request object.
        let req = AccessDescriptor::new(req.obj, Rights::ALL);
        let op = space.read_u64(req, VREQ_OP_OFF).map_err(Fault::from)?;
        let lba = space.read_u64(req, VREQ_LBA_OFF).map_err(Fault::from)?;
        let len = space.read_u64(req, VREQ_LEN_OFF).map_err(Fault::from)? as usize;

        let mut data = vec![0u8; len];
        space
            .read_data(req, VREQ_DATA_OFF, &mut data)
            .map_err(Fault::from)?;

        let (status, count, cycles) = {
            let mut model = self.model.lock();
            let cycles = model.cost(op, len as u64);
            match model.execute(op, lba, &mut data) {
                Ok(count) => (VIRTIO_S_OK, count, cycles),
                Err(status) => (status, 0, cycles),
            }
        };
        if status == VIRTIO_S_OK {
            space
                .write_data(req, VREQ_DATA_OFF, &data)
                .map_err(Fault::from)?;
        }
        space
            .write_u64(req, VREQ_STATUS_OFF, status)
            .map_err(Fault::from)?;
        space
            .write_u64(req, VREQ_COUNT_OFF, count)
            .map_err(Fault::from)?;
        space
            .write_u64(req, VREQ_CYCLES_OFF, cycles)
            .map_err(Fault::from)?;

        self.device_cycles.fetch_add(cycles, Ordering::Relaxed);
        if status == VIRTIO_S_OK {
            self.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        match self.kind {
            VirtioKind::Block => i432_trace::bump(i432_trace::Counter::BlkCompletions),
            VirtioKind::Net => i432_trace::bump(i432_trace::Counter::NetRx),
            VirtioKind::Family => {}
        }

        // Post the finished request to its reply port (forced enqueue,
        // as an interrupt must never be dropped for lack of queue space).
        let reply = space
            .load_ad_hw(req.obj, VREQ_SLOT_REPLY)
            .map_err(Fault::from)?
            .ok_or_else(|| {
                Fault::with_detail(FaultKind::NullAccess, "virtio request has no reply port")
            })?;
        match port::send(space, None, reply, req, 0, false, true)? {
            SendOutcome::Queued | SendOutcome::Delivered => Ok(cycles),
            _ => Err(Fault::with_detail(
                FaultKind::QueueOverflow,
                "reply port full; completion interrupt lost",
            )),
        }
    }
}

// ---------------------------------------------------------------------
// I/O subsystems: family devices behind request ports.
// ---------------------------------------------------------------------

/// One independent I/O subsystem (paper §3's "multiple independent I/O
/// subsystems"): family devices, each behind its own request port and
/// driven through a [`VirtioDevice`]. Clients SEND a request object to
/// the port and go on computing; a service pass hands the port's
/// pending requests to the device, which completes each one back to the
/// reply port it names.
///
/// The subsystem is serviced deterministically between simulation steps
/// (the real attached processors ran truly in parallel; determinism of
/// the measurements is worth more to a reproduction than wall-clock
/// concurrency, and the *client-visible* asynchrony is identical).
#[derive(Default)]
pub struct IoSubsystem {
    attached: Vec<(Port, VirtioDevice<FamilyDevice>)>,
}

impl IoSubsystem {
    /// An empty subsystem.
    pub fn new() -> IoSubsystem {
        IoSubsystem::default()
    }

    /// Attaches a device behind a fresh FIFO request port of
    /// `queue_depth` messages allocated from `sro`; returns the port
    /// (hand clients send-only views).
    pub fn attach<S: SpaceMut + ?Sized>(
        &mut self,
        space: &mut S,
        sro: ObjectRef,
        device: FamilyDevice,
        queue_depth: u32,
    ) -> Result<Port, Fault> {
        let port = imax_ipc::create_port(space, sro, queue_depth, PortDiscipline::Fifo)?;
        self.attached
            .push((port, VirtioDevice::new(device, queue_depth, true)));
        Ok(port)
    }

    /// Services every attached device once, completing its requests in
    /// arrival order; returns total completions.
    pub fn service<S: SpaceMut + ?Sized>(&self, space: &mut S) -> Result<u64, Fault> {
        let mut total = 0;
        for (port, device) in &self.attached {
            while let RecvOutcome::Received(req) =
                port::receive(space, None, port.ad(), false, true)?
            {
                device.submit(req);
            }
            total += device.service(space)?.0;
        }
        Ok(total)
    }

    /// Counters summed over every attached device.
    pub fn stats(&self) -> VirtioStats {
        let mut sum = VirtioStats::default();
        for (_, device) in &self.attached {
            let s = device.stats();
            sum.submitted += s.submitted;
            sum.backlogged += s.backlogged;
            sum.completed += s.completed;
            sum.failed += s.failed;
            sum.device_cycles += s.device_cycles;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::console::ConsoleDevice;
    use i432_arch::{ObjectSpec, ShardedSpace};
    use imax_ipc::untyped;

    fn space() -> ShardedSpace {
        ShardedSpace::new(256 * 1024, 16 * 1024, 4096, 1)
    }

    fn mk_req(
        s: &mut ShardedSpace,
        reply: Port,
        op: u64,
        lba: u64,
        data: &[u8],
    ) -> AccessDescriptor {
        let root = s.root_sro();
        let o = s
            .create_object(root, ObjectSpec::generic(VREQ_DATA_OFF + 256, 2))
            .unwrap();
        let ad = AccessDescriptor::new(o, Rights::ALL);
        s.write_u64(ad, VREQ_OP_OFF, op).unwrap();
        s.write_u64(ad, VREQ_LBA_OFF, lba).unwrap();
        s.write_u64(ad, VREQ_LEN_OFF, data.len() as u64).unwrap();
        s.write_data(ad, VREQ_DATA_OFF, data).unwrap();
        s.store_ad_hw(o, VREQ_SLOT_REPLY, Some(reply.ad())).unwrap();
        ad
    }

    fn console(script: &[u8]) -> FamilyDevice {
        Arc::new(Mutex::new(ConsoleDevice::new("tty0", script)))
    }

    #[test]
    fn block_roundtrip_over_ring_and_backlog() {
        for use_queue in [true, false] {
            let mut s = space();
            let root = s.root_sro();
            let reply = imax_ipc::create_port(&mut s, root, 16, PortDiscipline::Fifo).unwrap();
            let dev = VirtioDevice::new(VirtioBlock::new("vda", 64, 128), 8, use_queue);

            let w = mk_req(&mut s, reply, VIRTIO_OP_WRITE, 5, b"persistent");
            let r = mk_req(&mut s, reply, VIRTIO_OP_READ, 5, &[0u8; 10]);
            dev.submit(w);
            dev.submit(r);
            let (done, cycles) = dev.service(&mut s).unwrap();
            assert_eq!(done, 2);
            assert_eq!(cycles, 2 * (600 + 4 * 10));
            dev.assert_idle();

            // Both completions arrive at the reply port, write first.
            let c1 = untyped::receive(&mut s, reply).unwrap().unwrap();
            let c2 = untyped::receive(&mut s, reply).unwrap().unwrap();
            assert_eq!(c1.obj, w.obj);
            assert_eq!(c2.obj, r.obj);
            let c2 = AccessDescriptor::new(c2.obj, Rights::ALL);
            assert_eq!(s.read_u64(c2, VREQ_STATUS_OFF).unwrap(), VIRTIO_S_OK);
            assert_eq!(s.read_u64(c2, VREQ_COUNT_OFF).unwrap(), 10);
            let mut buf = [0u8; 10];
            s.read_data(c2, VREQ_DATA_OFF, &mut buf).unwrap();
            assert_eq!(&buf, b"persistent");

            let st = dev.stats();
            assert_eq!(st.submitted, 2);
            assert_eq!(st.completed, 2);
            assert_eq!(st.failed, 0);
            assert_eq!(st.backlogged, if use_queue { 0 } else { 2 });
        }
    }

    #[test]
    fn family_requests_round_trip_through_independent_subsystems() {
        let mut s = space();
        let root = s.root_sro();
        let tty_a = Arc::new(Mutex::new(ConsoleDevice::new("ttyA", b"pong")));
        let mut io_a = IoSubsystem::new();
        let mut io_b = IoSubsystem::new();
        let port_a = io_a.attach(&mut s, root, tty_a.clone(), 8).unwrap();
        let port_b = io_b.attach(&mut s, root, console(b""), 4).unwrap();
        let reply = imax_ipc::create_port(&mut s, root, 8, PortDiscipline::Fifo).unwrap();

        // Submit open + write + read to A and an open to B; nothing
        // happens until a subsystem runs (asynchrony).
        let r_open = mk_req(&mut s, reply, OP_OPEN.into(), 0, &[]);
        let r_write = mk_req(&mut s, reply, OP_WRITE.into(), 0, b"ping");
        let r_read = mk_req(&mut s, reply, OP_READ.into(), 0, &[0u8; 4]);
        for r in [r_open, r_write, r_read] {
            untyped::send(&mut s, port_a, r).unwrap();
        }
        let r_b = mk_req(&mut s, reply, OP_OPEN.into(), 0, &[]);
        untyped::send(&mut s, port_b, r_b).unwrap();
        assert_eq!(untyped::receive(&mut s, reply).unwrap(), None, "not yet");

        // Servicing subsystem A does not touch B's queue.
        assert_eq!(io_a.service(&mut s).unwrap(), 3);
        assert_eq!(s.port(port_b.object()).unwrap().msg_count, 1, "B pending");

        // Completions arrive in submission order on the reply port.
        for expected in [r_open, r_write, r_read] {
            let c = untyped::receive(&mut s, reply).unwrap().unwrap();
            assert_eq!(c.obj, expected.obj);
            assert_eq!(s.read_u64(expected, VREQ_STATUS_OFF).unwrap(), VIRTIO_S_OK);
        }
        // The write reached the device; the read brought back the script.
        assert_eq!(tty_a.lock().transcript(), b"ping");
        let mut buf = [0u8; 4];
        s.read_data(r_read, VREQ_DATA_OFF, &mut buf).unwrap();
        assert_eq!(&buf, b"pong");
        assert_eq!(s.read_u64(r_read, VREQ_COUNT_OFF).unwrap(), 4);
        assert_eq!(io_a.stats().completed, 3);
        // Open, then two 4-byte transfers at the console's 8 cycles/byte.
        assert_eq!(io_a.stats().device_cycles, 40 + 2 * (60 + 4 * 8));

        assert_eq!(io_b.service(&mut s).unwrap(), 1);
        assert_eq!(io_b.stats().completed, 1);
    }

    #[test]
    fn cycle_model_is_path_independent() {
        // The deterministic claim behind the conform differential: the
        // cycles charged for a batch depend only on the requests. A
        // depth of 5 (8 physical slots) pins the ring's logical-capacity
        // admission: the ring takes 5 and the backlog the other 2.
        let mut totals = Vec::new();
        for use_queue in [true, false] {
            let mut s = space();
            let root = s.root_sro();
            let reply = imax_ipc::create_port(&mut s, root, 16, PortDiscipline::Fifo).unwrap();
            let dev = VirtioDevice::new(VirtioBlock::new("vda", 64, 128), 5, use_queue);
            let reqs: Vec<_> = (0..7)
                .map(|lba| mk_req(&mut s, reply, VIRTIO_OP_WRITE, lba, &[lba as u8; 32]))
                .collect();
            for &req in &reqs {
                dev.submit(req);
            }
            assert_eq!(dev.stats().backlogged, if use_queue { 2 } else { 7 });
            let (done, cycles) = dev.service(&mut s).unwrap();
            assert_eq!(done, 7);
            for req in reqs {
                let c = untyped::receive(&mut s, reply).unwrap().unwrap();
                assert_eq!(c.obj, req.obj, "completions in submission order");
            }
            totals.push(cycles);
        }
        assert_eq!(totals[0], totals[1], "ring vs backlog charge identically");
    }

    #[test]
    fn failures_complete_with_status() {
        // A bad LBA on a block device, and a family read before open
        // through an I/O subsystem: both fail, and both completions
        // still arrive.
        let mut s = space();
        let root = s.root_sro();
        let reply = imax_ipc::create_port(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        let dev = VirtioDevice::new(VirtioBlock::new("vda", 4, 64), 4, true);
        let bad_lba = mk_req(&mut s, reply, VIRTIO_OP_READ, 1000, &[0u8; 8]);
        dev.submit(bad_lba);
        dev.service(&mut s).unwrap();
        assert_eq!(dev.stats().failed, 1);

        let mut io = IoSubsystem::new();
        let req_port = io.attach(&mut s, root, console(b""), 4).unwrap();
        let early_read = mk_req(&mut s, reply, OP_READ.into(), 0, &[0u8; 4]);
        untyped::send(&mut s, req_port, early_read).unwrap();
        io.service(&mut s).unwrap();
        assert_eq!(io.stats().failed, 1);

        for req in [bad_lba, early_read] {
            let c = untyped::receive(&mut s, reply).unwrap().unwrap();
            assert_eq!(c.obj, req.obj);
            assert_eq!(s.read_u64(req, VREQ_STATUS_OFF).unwrap(), VIRTIO_S_IOERR);
        }
    }

    #[test]
    fn net_echo_roundtrip() {
        let mut s = space();
        let root = s.root_sro();
        let reply = imax_ipc::create_port(&mut s, root, 4, PortDiscipline::Fifo).unwrap();
        let dev = VirtioDevice::new(VirtioNet::new("veth0"), 4, true);
        let req = mk_req(&mut s, reply, VIRTIO_OP_ECHO, 0, b"ping frame");
        dev.submit(req);
        let (done, cycles) = dev.service(&mut s).unwrap();
        assert_eq!(done, 1);
        assert_eq!(cycles, 200 + 2 * 10);
        let c = untyped::receive(&mut s, reply).unwrap().unwrap();
        let c = AccessDescriptor::new(c.obj, Rights::ALL);
        assert_eq!(s.read_u64(c, VREQ_STATUS_OFF).unwrap(), VIRTIO_S_OK);
        let mut buf = [0u8; 10];
        s.read_data(c, VREQ_DATA_OFF, &mut buf).unwrap();
        assert_eq!(&buf, b"ping frame");
        assert_eq!(dev.model().lock().traffic(), (1, 1, 10));
    }
}
