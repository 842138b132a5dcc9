//! Hardware port operations: the 432's unified communication and
//! dispatching mechanism.
//!
//! Paper §2: "Interprocess communication is provided by send and receive
//! instructions that pass any access descriptor as a message via a
//! communication port object." The same port objects serve as
//! *dispatching ports* from which processors receive ready processes —
//! the unified model of the companion paper the text cites.
//!
//! Queue representation (see [`i432_arch::PortState`]): the port's access
//! part holds the message area (compact, slots `[0, msg_count)`) followed
//! by the waiting-process area. Blocked senders park their pending
//! message in their process object's `PROC_SLOT_MSG`.
//!
//! Blocking semantics follow Figure 1 exactly: a send to a full port
//! blocks the sending process until a slot frees; a receive on an empty
//! port blocks until a message arrives. Blocked senders and receivers
//! can never coexist at one port.

use crate::fault::{Fault, FaultKind};
use i432_arch::{
    sysobj::{PROC_SLOT_CONTEXT, PROC_SLOT_DISPATCH_PORT, PROC_SLOT_MSG},
    AccessDescriptor, ArchError, ObjectRef, PortDiscipline, PortRing, ProcessStatus, Rights,
    RingEntry, SpaceAccess, SpaceMut, SystemType, WaiterKind,
};
use std::sync::Arc;

/// Outcome of a send operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Handed directly to a waiting receiver (rendezvous).
    Delivered,
    /// Queued in the message area.
    Queued,
    /// The sending process blocked (message parked in its process
    /// object).
    Blocked,
    /// Non-blocking send found the queue full.
    WouldBlock,
}

/// Outcome of a receive operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvOutcome {
    /// A message was dequeued.
    Received(AccessDescriptor),
    /// The receiving process blocked at the port.
    Blocked,
    /// Non-blocking receive found no message.
    WouldBlock,
}

// ---------------------------------------------------------------------------
// Ring fast path (see `i432_arch::portring` for the protocol).
// ---------------------------------------------------------------------------

/// Attempts a program-level send on the port's lock-free ring,
/// consulting no shard lock on the port. Returns `None` whenever the
/// ring cannot complete the operation with rendezvous-identical
/// semantics — no ring, fast path disabled, missing SEND rights, a
/// level-rule violation, a frozen or full ring — and the caller must
/// fall back to the locked [`send`], which produces the canonical
/// outcome, fault, and statistics.
///
/// A fast send can only ever succeed while the port is in FAST mode
/// (empty message area, no waiters — the ring is frozen otherwise), the
/// one state where the locked path's answer is unconditionally
/// [`SendOutcome::Queued`].
pub fn fast_send<S: SpaceAccess + ?Sized>(
    space: &mut S,
    port_ad: AccessDescriptor,
    msg: AccessDescriptor,
    key: u64,
) -> Option<SendOutcome> {
    let ring = ring_for(space, port_ad, Rights::SEND)?;
    fast_send_on(space, &ring, port_ad, msg, key)
}

/// Resolves the live ring behind a port descriptor for a fast-path
/// operation: registry lookup plus the `need` rights check on the
/// descriptor in hand. `None` means "take the locked path". This is the
/// (site-independent) work a port-site inline cache memoizes — a hit
/// serves the ring without touching the registry.
pub fn ring_for<S: SpaceAccess + ?Sized>(
    space: &S,
    port_ad: AccessDescriptor,
    need: Rights,
) -> Option<Arc<PortRing>> {
    let ring = space.port_rings().lookup(port_ad.obj)?;
    if !port_ad.rights.contains(need) {
        return None;
    }
    Some(ring)
}

/// The send half of [`fast_send`], on an already-resolved ring. The
/// ring must come from [`ring_for`] (or an inline-cache line filled
/// from it) for this port descriptor with SEND rights.
pub fn fast_send_on<S: SpaceAccess + ?Sized>(
    space: &mut S,
    ring: &PortRing,
    port_ad: AccessDescriptor,
    msg: AccessDescriptor,
    key: u64,
) -> Option<SendOutcome> {
    // Level rule (paper §5): the message must outlive the port. The
    // port's level is cached in the ring; the message's comes from its
    // entry — any doubt (dead message, would-be violation) falls back
    // so the locked path faults and bumps `level_faults` exactly once.
    let msg_level = space.level_of(msg.obj).ok()?;
    if !ring.port_level().may_hold(msg_level) {
        return None;
    }
    // The moral equivalent of `queue_push`'s hardware store barrier:
    // shade the message before publication so a concurrent marker
    // cannot miss a reference that lives only in the ring.
    space.shade(msg.obj).ok()?;
    match ring.push(RingEntry { msg, key }) {
        Ok(()) => {
            if i432_trace::ENABLED {
                i432_trace::emit(i432_trace::EventKind::PortSend, port_ad.obj.index.0);
                i432_trace::bump(i432_trace::Counter::PortSends);
                i432_trace::emit(i432_trace::EventKind::PortFastSend, port_ad.obj.index.0);
                i432_trace::bump(i432_trace::Counter::PortFastSends);
            }
            Some(SendOutcome::Queued)
        }
        Err(_) => {
            i432_trace::bump(i432_trace::Counter::PortRingFallbacks);
            None
        }
    }
}

/// Attempts a program-level receive on the port's lock-free ring. Same
/// contract as [`fast_send`]: `None` means "take the locked path"; a
/// `Some` result is bit-identical to what the locked [`receive`] would
/// have returned in this state (FIFO head of a non-empty queue with no
/// waiting senders — the FAST-mode guarantee).
pub fn fast_receive<S: SpaceAccess + ?Sized>(
    space: &mut S,
    port_ad: AccessDescriptor,
) -> Option<RecvOutcome> {
    let ring = ring_for(space, port_ad, Rights::RECEIVE)?;
    fast_receive_on(&ring, port_ad)
}

/// The receive half of [`fast_receive`], on an already-resolved ring
/// (same contract as [`fast_send_on`], with RECEIVE rights).
pub fn fast_receive_on(ring: &PortRing, port_ad: AccessDescriptor) -> Option<RecvOutcome> {
    match ring.pop() {
        Ok(e) => {
            if i432_trace::ENABLED {
                i432_trace::emit(i432_trace::EventKind::PortReceive, port_ad.obj.index.0);
                i432_trace::bump(i432_trace::Counter::PortReceives);
                i432_trace::emit(i432_trace::EventKind::PortFastReceive, port_ad.obj.index.0);
                i432_trace::bump(i432_trace::Counter::PortFastReceives);
            }
            Some(RecvOutcome::Received(e.msg))
        }
        Err(_) => {
            i432_trace::bump(i432_trace::Counter::PortRingFallbacks);
            None
        }
    }
}

/// Locked-path prologue: freezes the port's ring (creating it on first
/// use for FIFO ports) and drains every frozen entry into the message
/// area, so the locked rendezvous below sees the complete queue state.
/// Folds the ring's completed fast-op counts into the port statistics.
/// Returns the ring for [`ring_release`]; `None` when the port has no
/// usable ring (fast path disabled, non-FIFO discipline, or a ring
/// bound by an earlier lifetime of the index — which is retired, its
/// entries having died with that port).
fn ring_acquire<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
) -> Result<Option<Arc<PortRing>>, Fault> {
    let reg = space.port_rings();
    if !reg.is_enabled() {
        return Ok(None);
    }
    let reg = Arc::clone(reg);
    if let Some(old) = reg.lookup_index(port.index.0) {
        if old.port() != port {
            old.retire();
            return Ok(None);
        }
    }
    let (discipline, capacity) = {
        let st = space.port(port).map_err(Fault::from)?;
        (st.discipline, st.capacity)
    };
    if discipline != PortDiscipline::Fifo {
        return Ok(None);
    }
    let level = space.entry(port).map_err(Fault::from)?.desc.level;
    let Some(ring) = reg.get_or_create(port, capacity, level) else {
        return Ok(None);
    };
    if ring.port() != port || ring.is_dead() {
        ring.retire();
        return Ok(None);
    }
    let mut drained = Vec::new();
    let depth = ring.freeze_and_drain(|e| drained.push(e));
    for e in drained {
        queue_push(space, port, e.msg, e.key)?;
    }
    let (fast_sends, fast_receives) = ring.take_pending_stats();
    if fast_sends != 0 || fast_receives != 0 {
        let st = space.port_mut(port).map_err(Fault::from)?;
        st.stats.sends += fast_sends;
        st.stats.receives += fast_receives;
    }
    if i432_trace::ENABLED {
        i432_trace::observe(i432_trace::Hist::PortQueueDepth, depth);
        if depth > 0 {
            i432_trace::emit(i432_trace::EventKind::PortRingDrain, port.index.0);
            i432_trace::bump(i432_trace::Counter::PortRingDrains);
        }
    }
    Ok(Some(ring))
}

/// Locked-path epilogue: re-opens the ring iff the port left the
/// operation in FAST mode — empty message area and no waiting
/// processes. In any other state the ring stays frozen and every
/// operation keeps taking the locked path, which is exactly what makes
/// the fast path rendezvous-equivalent (see `i432_arch::portring`).
fn ring_release<S: SpaceMut + ?Sized>(space: &mut S, port: ObjectRef, ring: &PortRing) {
    let fast = match space.port(port) {
        Ok(st) => st.msg_count == 0 && st.wait_count == 0,
        // Port destroyed inside the operation: never reopen.
        Err(_) => false,
    };
    if fast {
        ring.reopen();
    }
}

/// Drains every live ring into its port's message area and leaves all
/// rings frozen — called by runners at quiescence, before digests or
/// final-state inspection, so ring-resident messages are observable in
/// the same place the locked world puts them. Rings whose port died
/// are retired (their messages died with the port, as they would have
/// in the message area).
pub fn flush_rings<S: SpaceMut + ?Sized>(space: &mut S) -> Result<(), Fault> {
    let reg = Arc::clone(space.port_rings());
    let mut rings = Vec::new();
    reg.for_each(|r| rings.push(Arc::clone(r)));
    for ring in rings {
        let port = ring.port();
        if ring.is_dead() || space.port(port).is_err() {
            ring.retire();
            continue;
        }
        let mut drained = Vec::new();
        ring.freeze_and_drain(|e| drained.push(e));
        for e in drained {
            queue_push(space, port, e.msg, e.key)?;
        }
        let (fast_sends, fast_receives) = ring.take_pending_stats();
        if fast_sends != 0 || fast_receives != 0 {
            let st = space.port_mut(port).map_err(Fault::from)?;
            st.stats.sends += fast_sends;
            st.stats.receives += fast_receives;
        }
    }
    Ok(())
}

/// Picks the message index to receive next under the port's discipline.
fn pick_index(discipline: PortDiscipline, keys: &[u64], count: u32) -> u32 {
    match discipline {
        PortDiscipline::Fifo => 0,
        PortDiscipline::Priority | PortDiscipline::Deadline => {
            let mut best = 0u32;
            for i in 1..count {
                if keys[i as usize] < keys[best as usize] {
                    best = i;
                }
            }
            best
        }
    }
}

/// Appends a message to the message area (caller has verified space).
fn queue_push<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
    msg: AccessDescriptor,
    key: u64,
) -> Result<(), Fault> {
    let idx = {
        let st = space.port(port).map_err(Fault::from)?;
        debug_assert!(st.msg_count < st.capacity);
        st.msg_count
    };
    space
        .store_ad_hw(port, idx, Some(msg))
        .map_err(Fault::from)?;
    let st = space.port_mut(port).map_err(Fault::from)?;
    st.msg_keys[idx as usize] = key;
    st.msg_count += 1;
    Ok(())
}

/// Removes and returns the message at `idx`, compacting the area.
fn queue_remove<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
    idx: u32,
) -> Result<AccessDescriptor, Fault> {
    let count = space.port(port).map_err(Fault::from)?.msg_count;
    debug_assert!(idx < count);
    let msg = space
        .load_ad_hw(port, idx)
        .map_err(Fault::from)?
        .ok_or_else(|| Fault::with_detail(FaultKind::NullAccess, "empty message slot"))?;
    // Shift the tail left by one.
    for i in idx..count - 1 {
        let next = space.load_ad_hw(port, i + 1).map_err(Fault::from)?;
        space.store_ad_hw(port, i, next).map_err(Fault::from)?;
    }
    space
        .store_ad_hw(port, count - 1, None)
        .map_err(Fault::from)?;
    let st = space.port_mut(port).map_err(Fault::from)?;
    st.msg_keys
        .copy_within(idx as usize + 1..count as usize, idx as usize);
    st.msg_count -= 1;
    Ok(msg)
}

/// Appends a process to the waiting area.
fn wait_push<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
    proc_ref: ObjectRef,
) -> Result<(), Fault> {
    let (cap, wcap, wcount) = {
        let st = space.port(port).map_err(Fault::from)?;
        (st.capacity, st.wait_capacity, st.wait_count)
    };
    if wcount >= wcap {
        return Err(Fault::with_detail(
            FaultKind::QueueOverflow,
            "port waiting area full",
        ));
    }
    let ad = space.mint(proc_ref, Rights::NONE);
    space
        .store_ad_hw(port, cap + wcount, Some(ad))
        .map_err(Fault::from)?;
    space.port_mut(port).map_err(Fault::from)?.wait_count += 1;
    Ok(())
}

/// Pops the longest-waiting process from the waiting area.
fn wait_pop<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
) -> Result<Option<ObjectRef>, Fault> {
    let (cap, wcount) = {
        let st = space.port(port).map_err(Fault::from)?;
        (st.capacity, st.wait_count)
    };
    if wcount == 0 {
        return Ok(None);
    }
    let first = space
        .load_ad_hw(port, cap)
        .map_err(Fault::from)?
        .ok_or_else(|| Fault::with_detail(FaultKind::NullAccess, "empty wait slot"))?;
    for i in 0..wcount - 1 {
        let next = space.load_ad_hw(port, cap + i + 1).map_err(Fault::from)?;
        space
            .store_ad_hw(port, cap + i, next)
            .map_err(Fault::from)?;
    }
    space
        .store_ad_hw(port, cap + wcount - 1, None)
        .map_err(Fault::from)?;
    let st = space.port_mut(port).map_err(Fault::from)?;
    st.wait_count -= 1;
    if st.wait_count == 0 {
        st.waiters = WaiterKind::None;
    }
    Ok(Some(first.obj))
}

/// Sends a message through a port.
///
/// * `sender` — the sending process, when the send may block; `None`
///   makes a full queue return [`SendOutcome::WouldBlock`] even if
///   `blocking` (native services and the executive cannot block).
/// * `carrier` — hardware-carrier sends (process delivery to dispatch,
///   scheduler and fault ports) bypass the program-level rights and level
///   checks, exactly as the 432's implicit port operations did.
pub fn send<S: SpaceMut + ?Sized>(
    space: &mut S,
    sender: Option<ObjectRef>,
    port_ad: AccessDescriptor,
    msg: AccessDescriptor,
    key: u64,
    blocking: bool,
    carrier: bool,
) -> Result<SendOutcome, Fault> {
    let port = space
        .expect_type(port_ad, SystemType::Port)
        .map_err(Fault::from)?;
    let ring = ring_acquire(space, port)?;
    let out = send_at(space, port, sender, port_ad, msg, key, blocking, carrier);
    if let Some(ring) = &ring {
        ring_release(space, port, ring);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn send_at<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
    sender: Option<ObjectRef>,
    port_ad: AccessDescriptor,
    msg: AccessDescriptor,
    key: u64,
    blocking: bool,
    carrier: bool,
) -> Result<SendOutcome, Fault> {
    if !carrier {
        space.qualify(port_ad, Rights::SEND).map_err(Fault::from)?;
        // Program-level sends obey the lifetime rule: the message must be
        // at least as long-lived as the port (paper §5).
        let port_level = space.entry(port).map_err(Fault::from)?.desc.level;
        let msg_level = space.entry(msg.obj).map_err(Fault::from)?.desc.level;
        if !port_level.may_hold(msg_level) {
            space.stats_mut_of(port).level_faults += 1;
            return Err(Fault::from(ArchError::LevelViolation {
                stored: msg_level,
                container: port_level,
            }));
        }
    }

    if i432_trace::ENABLED {
        // Implicit hardware-carrier operations (dispatch/scheduler/fault
        // delivery) trace as surrogate ops, program-level sends as sends.
        if carrier {
            i432_trace::emit(i432_trace::EventKind::PortSurrogate, port.index.0);
            i432_trace::bump(i432_trace::Counter::PortSurrogates);
        } else {
            i432_trace::emit(i432_trace::EventKind::PortSend, port.index.0);
            i432_trace::bump(i432_trace::Counter::PortSends);
        }
    }

    // Rendezvous with a waiting receiver?
    let has_waiting_receiver = {
        let st = space.port(port).map_err(Fault::from)?;
        st.waiters == WaiterKind::Receivers && st.wait_count > 0
    };
    if has_waiting_receiver {
        let receiver = wait_pop(space, port)?.expect("wait_count > 0");
        deliver_to_receiver(space, receiver, msg)?;
        let st = space.port_mut(port).map_err(Fault::from)?;
        st.stats.sends += 1;
        st.stats.receives += 1;
        make_ready(space, receiver)?;
        return Ok(SendOutcome::Delivered);
    }

    // Queue space available?
    let full = space.port(port).map_err(Fault::from)?.is_full();
    if !full {
        queue_push(space, port, msg, key)?;
        space.port_mut(port).map_err(Fault::from)?.stats.sends += 1;
        return Ok(SendOutcome::Queued);
    }

    // Full: block or bounce.
    let Some(sender) = sender else {
        return Ok(SendOutcome::WouldBlock);
    };
    if !blocking {
        return Ok(SendOutcome::WouldBlock);
    }
    space
        .store_ad_hw(sender, PROC_SLOT_MSG, Some(msg))
        .map_err(Fault::from)?;
    {
        let ps = space.process_mut(sender).map_err(Fault::from)?;
        ps.pending_send_key = key;
        ps.status = ProcessStatus::BlockedSend;
        ps.blocked_port = Some(port);
    }
    wait_push(space, port, sender)?;
    let st = space.port_mut(port).map_err(Fault::from)?;
    st.waiters = WaiterKind::Senders;
    st.stats.blocked_sends += 1;
    Ok(SendOutcome::Blocked)
}

/// Receives a message from a port.
///
/// * `receiver` — the receiving process, when the receive may block;
///   `dst_slot` is the context access slot the message must eventually
///   land in (recorded for rendezvous delivery while blocked).
/// * `carrier` — processor dispatching receives bypass the rights check.
pub fn receive<S: SpaceMut + ?Sized>(
    space: &mut S,
    receiver: Option<(ObjectRef, u32)>,
    port_ad: AccessDescriptor,
    blocking: bool,
    carrier: bool,
) -> Result<RecvOutcome, Fault> {
    let port = space
        .expect_type(port_ad, SystemType::Port)
        .map_err(Fault::from)?;
    let ring = ring_acquire(space, port)?;
    let out = receive_at(space, port, receiver, port_ad, blocking, carrier);
    if let Some(ring) = &ring {
        ring_release(space, port, ring);
    }
    out
}

fn receive_at<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
    receiver: Option<(ObjectRef, u32)>,
    port_ad: AccessDescriptor,
    blocking: bool,
    carrier: bool,
) -> Result<RecvOutcome, Fault> {
    if !carrier {
        space
            .qualify(port_ad, Rights::RECEIVE)
            .map_err(Fault::from)?;
    }

    if i432_trace::ENABLED {
        if carrier {
            i432_trace::emit(i432_trace::EventKind::PortSurrogate, port.index.0);
            i432_trace::bump(i432_trace::Counter::PortSurrogates);
        } else {
            i432_trace::emit(i432_trace::EventKind::PortReceive, port.index.0);
            i432_trace::bump(i432_trace::Counter::PortReceives);
        }
    }

    let (count, discipline) = {
        let st = space.port(port).map_err(Fault::from)?;
        (st.msg_count, st.discipline)
    };
    if count > 0 {
        let idx = {
            let st = space.port(port).map_err(Fault::from)?;
            pick_index(discipline, &st.msg_keys, st.msg_count)
        };
        let msg = queue_remove(space, port, idx)?;
        space.port_mut(port).map_err(Fault::from)?.stats.receives += 1;

        // A freed slot may complete a blocked sender.
        let has_waiting_sender = {
            let st = space.port(port).map_err(Fault::from)?;
            st.waiters == WaiterKind::Senders && st.wait_count > 0
        };
        if has_waiting_sender {
            let sender = wait_pop(space, port)?.expect("wait_count > 0");
            let pending = space
                .load_ad_hw(sender, PROC_SLOT_MSG)
                .map_err(Fault::from)?
                .ok_or_else(|| {
                    Fault::with_detail(FaultKind::NullAccess, "blocked sender lost its message")
                })?;
            let key = space.process(sender).map_err(Fault::from)?.pending_send_key;
            space
                .store_ad_hw(sender, PROC_SLOT_MSG, None)
                .map_err(Fault::from)?;
            queue_push(space, port, pending, key)?;
            let st = space.port_mut(port).map_err(Fault::from)?;
            st.stats.sends += 1;
            make_ready(space, sender)?;
        }
        return Ok(RecvOutcome::Received(msg));
    }

    // Empty: block or bounce.
    let Some((receiver, dst_slot)) = receiver else {
        return Ok(RecvOutcome::WouldBlock);
    };
    if !blocking {
        return Ok(RecvOutcome::WouldBlock);
    }
    {
        let ps = space.process_mut(receiver).map_err(Fault::from)?;
        ps.pending_receive_dst = Some(dst_slot);
        ps.status = ProcessStatus::BlockedReceive;
        ps.blocked_port = Some(port);
    }
    wait_push(space, port, receiver)?;
    let st = space.port_mut(port).map_err(Fault::from)?;
    st.waiters = WaiterKind::Receivers;
    st.stats.blocked_receives += 1;
    Ok(RecvOutcome::Blocked)
}

/// Delivers a message straight into a blocked receiver's context slot
/// (rendezvous completion).
fn deliver_to_receiver<S: SpaceMut + ?Sized>(
    space: &mut S,
    receiver: ObjectRef,
    msg: AccessDescriptor,
) -> Result<(), Fault> {
    let dst = {
        let ps = space.process_mut(receiver).map_err(Fault::from)?;
        ps.pending_receive_dst.take().ok_or_else(|| {
            Fault::with_detail(
                FaultKind::NullAccess,
                "waiting receiver has no pending destination",
            )
        })?
    };
    let ctx = space
        .load_ad_hw(receiver, PROC_SLOT_CONTEXT)
        .map_err(Fault::from)?
        .ok_or_else(|| {
            Fault::with_detail(FaultKind::NullAccess, "waiting receiver has no context")
        })?;
    space
        .store_ad_hw(ctx.obj, dst, Some(msg))
        .map_err(Fault::from)?;
    Ok(())
}

/// Updates the queueing key of a message already in a port's message
/// area (identified by the object it designates). Returns `true` when
/// found.
///
/// Schedulers use this to re-key *queued* processes after a rebalance —
/// without it a priority change would only take effect at the next
/// requeue, starving processes parked under a stale key.
pub fn update_queued_key<S: SpaceMut + ?Sized>(
    space: &mut S,
    port: ObjectRef,
    target: ObjectRef,
    key: u64,
) -> Result<bool, Fault> {
    // Drain the ring first so a fast-queued message is re-keyable too.
    // (No release: the walk doesn't change FAST-mode eligibility, and
    // the next send/receive re-opens the ring if the port qualifies.)
    let _ring = ring_acquire(space, port)?;
    let count = space.port(port).map_err(Fault::from)?.msg_count;
    for i in 0..count {
        if let Some(ad) = space.load_ad_hw(port, i).map_err(Fault::from)? {
            if ad.obj == target {
                space.port_mut(port).map_err(Fault::from)?.msg_keys[i as usize] = key;
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// Marks a process ready and enqueues it at its dispatching port.
///
/// The queueing key is the process's priority or deadline depending on
/// the dispatching port's discipline — this is how the hardware realizes
/// priority dispatching without any software in the loop.
pub fn make_ready<S: SpaceMut + ?Sized>(space: &mut S, proc_ref: ObjectRef) -> Result<(), Fault> {
    let (timeslice, priority, deadline) = {
        let ps = space.process_mut(proc_ref).map_err(Fault::from)?;
        ps.status = ProcessStatus::Ready;
        ps.slice_remaining = ps.timeslice;
        ps.blocked_port = None;
        ps.timeout_at = 0;
        (ps.timeslice, ps.priority, ps.deadline)
    };
    let _ = timeslice;
    let dispatch = space
        .load_ad_hw(proc_ref, PROC_SLOT_DISPATCH_PORT)
        .map_err(Fault::from)?
        .ok_or_else(|| {
            Fault::with_detail(FaultKind::NullAccess, "process has no dispatching port")
        })?;
    let discipline = {
        let port = space
            .expect_type(dispatch, SystemType::Port)
            .map_err(Fault::from)?;
        space.port(port).map_err(Fault::from)?.discipline
    };
    let key = match discipline {
        PortDiscipline::Fifo => 0,
        PortDiscipline::Priority => priority as u64,
        PortDiscipline::Deadline => deadline,
    };
    let proc_ad = space.mint(proc_ref, Rights::NONE);
    match send(space, None, dispatch, proc_ad, key, false, true)? {
        SendOutcome::Queued | SendOutcome::Delivered => Ok(()),
        SendOutcome::WouldBlock | SendOutcome::Blocked => Err(Fault::with_detail(
            FaultKind::QueueOverflow,
            "dispatching port full",
        )),
    }
}

/// Expires a timed-out blocked receiver: removes it from its port's
/// waiting area and leaves it Faulted with a timeout, ready for fault
/// delivery. Returns `false` when the process was no longer blocked
/// (the rendezvous won the race).
pub fn expire_timeout<S: SpaceMut + ?Sized>(
    space: &mut S,
    proc_ref: ObjectRef,
) -> Result<bool, Fault> {
    let (status, port) = {
        let ps = space.process(proc_ref).map_err(Fault::from)?;
        (ps.status, ps.blocked_port)
    };
    if status != ProcessStatus::BlockedReceive {
        return Ok(false);
    }
    let Some(port) = port else {
        return Ok(false);
    };
    // Remove the process from the waiting area (compact shift).
    let (cap, wcount) = {
        let st = space.port(port).map_err(Fault::from)?;
        (st.capacity, st.wait_count)
    };
    let mut found = false;
    for i in 0..wcount {
        if found {
            let next = space.load_ad_hw(port, cap + i).map_err(Fault::from)?;
            space
                .store_ad_hw(port, cap + i - 1, next)
                .map_err(Fault::from)?;
        } else if let Some(ad) = space.load_ad_hw(port, cap + i).map_err(Fault::from)? {
            if ad.obj == proc_ref {
                found = true;
            }
        }
    }
    if !found {
        return Ok(false);
    }
    space
        .store_ad_hw(port, cap + wcount - 1, None)
        .map_err(Fault::from)?;
    {
        let st = space.port_mut(port).map_err(Fault::from)?;
        st.wait_count -= 1;
        if st.wait_count == 0 {
            st.waiters = WaiterKind::None;
        }
    }
    let ps = space.process_mut(proc_ref).map_err(Fault::from)?;
    ps.status = ProcessStatus::Faulted;
    ps.blocked_port = None;
    ps.timeout_at = 0;
    ps.pending_receive_dst = None;
    ps.fault_code = FaultKind::Timeout.code();
    ps.fault_detail = "receive timed out".into();
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::{ObjectSpec, ObjectType, PortState, ShardedSpace, SysState};

    fn space() -> ShardedSpace {
        ShardedSpace::new(64 * 1024, 4096, 1024, 1)
    }

    fn make_port(space: &mut ShardedSpace, cap: u32, disc: PortDiscipline) -> ObjectRef {
        let root = space.root_sro();
        space
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: PortState::access_slots(cap, 16),
                    otype: ObjectType::System(SystemType::Port),
                    level: None,
                    sys: SysState::Port(PortState::new(cap, 16, disc)),
                },
            )
            .unwrap()
    }

    fn make_msg(space: &mut ShardedSpace) -> AccessDescriptor {
        let root = space.root_sro();
        let r = space
            .create_object(root, ObjectSpec::generic(8, 0))
            .unwrap();
        space.mint(r, Rights::READ | Rights::WRITE)
    }

    #[test]
    fn fifo_send_receive_order() {
        let mut s = space();
        let port = make_port(&mut s, 4, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let m1 = make_msg(&mut s);
        let m2 = make_msg(&mut s);
        assert_eq!(
            send(&mut s, None, pad, m1, 0, false, false).unwrap(),
            SendOutcome::Queued
        );
        assert_eq!(
            send(&mut s, None, pad, m2, 0, false, false).unwrap(),
            SendOutcome::Queued
        );
        let r1 = receive(&mut s, None, pad, false, false).unwrap();
        let r2 = receive(&mut s, None, pad, false, false).unwrap();
        assert_eq!(r1, RecvOutcome::Received(m1));
        assert_eq!(r2, RecvOutcome::Received(m2));
        assert_eq!(
            receive(&mut s, None, pad, false, false).unwrap(),
            RecvOutcome::WouldBlock
        );
    }

    #[test]
    fn priority_discipline_orders_by_key() {
        let mut s = space();
        let port = make_port(&mut s, 4, PortDiscipline::Priority);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let low = make_msg(&mut s);
        let high = make_msg(&mut s);
        send(&mut s, None, pad, low, 9, false, false).unwrap();
        send(&mut s, None, pad, high, 1, false, false).unwrap();
        assert_eq!(
            receive(&mut s, None, pad, false, false).unwrap(),
            RecvOutcome::Received(high)
        );
        assert_eq!(
            receive(&mut s, None, pad, false, false).unwrap(),
            RecvOutcome::Received(low)
        );
    }

    #[test]
    fn send_requires_send_rights() {
        let mut s = space();
        let port = make_port(&mut s, 2, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::RECEIVE);
        let m = make_msg(&mut s);
        let e = send(&mut s, None, pad, m, 0, false, false).unwrap_err();
        assert_eq!(e.kind, FaultKind::Rights);
    }

    #[test]
    fn receive_requires_receive_rights() {
        let mut s = space();
        let port = make_port(&mut s, 2, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::SEND);
        let e = receive(&mut s, None, pad, false, false).unwrap_err();
        assert_eq!(e.kind, FaultKind::Rights);
    }

    #[test]
    fn send_to_non_port_faults() {
        let mut s = space();
        let root = s.root_sro();
        let not_port = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
        let pad = s.mint(not_port, Rights::ALL);
        let m = make_msg(&mut s);
        let e = send(&mut s, None, pad, m, 0, false, false).unwrap_err();
        assert_eq!(e.kind, FaultKind::TypeMismatch);
    }

    #[test]
    fn full_port_would_block_without_process() {
        let mut s = space();
        let port = make_port(&mut s, 1, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let m1 = make_msg(&mut s);
        let m2 = make_msg(&mut s);
        send(&mut s, None, pad, m1, 0, false, false).unwrap();
        assert_eq!(
            send(&mut s, None, pad, m2, 0, true, false).unwrap(),
            SendOutcome::WouldBlock
        );
    }

    #[test]
    fn level_rule_applies_to_program_sends() {
        use i432_arch::Level;
        let mut s = space();
        let port = make_port(&mut s, 2, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        // A local (short-lived) message may not pass through a global
        // port.
        let root = s.root_sro();
        let local = s
            .create_object(
                root,
                ObjectSpec {
                    level: Some(Level(4)),
                    ..ObjectSpec::generic(8, 0)
                },
            )
            .unwrap();
        let msg = s.mint(local, Rights::READ);
        let e = send(&mut s, None, pad, msg, 0, false, false).unwrap_err();
        assert_eq!(e.kind, FaultKind::Level);
        // Carrier sends (hardware process delivery) are exempt.
        assert_eq!(
            send(&mut s, None, pad, msg, 0, false, true).unwrap(),
            SendOutcome::Queued
        );
    }

    #[test]
    fn port_stats_track_traffic() {
        let mut s = space();
        let port = make_port(&mut s, 2, PortDiscipline::Fifo);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let m = make_msg(&mut s);
        send(&mut s, None, pad, m, 0, false, false).unwrap();
        receive(&mut s, None, pad, false, false).unwrap();
        let st = s.port(port).unwrap();
        assert_eq!(st.stats.sends, 1);
        assert_eq!(st.stats.receives, 1);
        assert_eq!(st.stats.blocked_sends, 0);
    }

    #[test]
    fn deadline_discipline_picks_earliest() {
        let mut s = space();
        let port = make_port(&mut s, 4, PortDiscipline::Deadline);
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let a = make_msg(&mut s);
        let b = make_msg(&mut s);
        let c = make_msg(&mut s);
        send(&mut s, None, pad, a, 300, false, false).unwrap();
        send(&mut s, None, pad, b, 100, false, false).unwrap();
        send(&mut s, None, pad, c, 200, false, false).unwrap();
        assert_eq!(
            receive(&mut s, None, pad, false, false).unwrap(),
            RecvOutcome::Received(b)
        );
        assert_eq!(
            receive(&mut s, None, pad, false, false).unwrap(),
            RecvOutcome::Received(c)
        );
    }
}

#[cfg(test)]
mod rekey_tests {
    use super::*;
    use i432_arch::{ObjectSpec, ObjectType, PortState, ShardedSpace, SysState};

    #[test]
    fn update_queued_key_reorders_delivery() {
        let mut s = ShardedSpace::new(32 * 1024, 2048, 256, 1);
        let root = s.root_sro();
        let port = s
            .create_object(
                root,
                ObjectSpec {
                    data_len: 0,
                    access_len: PortState::access_slots(4, 4),
                    otype: ObjectType::System(SystemType::Port),
                    level: None,
                    sys: SysState::Port(PortState::new(4, 4, PortDiscipline::Priority)),
                },
            )
            .unwrap();
        let pad = s.mint(port, Rights::SEND | Rights::RECEIVE);
        let mk = |s: &mut ShardedSpace| {
            let o = s.create_object(root, ObjectSpec::generic(8, 0)).unwrap();
            s.mint(o, Rights::READ)
        };
        let a = mk(&mut s);
        let b = mk(&mut s);
        send(&mut s, None, pad, a, 5, false, false).unwrap();
        send(&mut s, None, pad, b, 9, false, false).unwrap();
        // Re-key b below a: it now delivers first.
        assert!(update_queued_key(&mut s, port, b.obj, 1).unwrap());
        assert!(
            !update_queued_key(&mut s, port, root, 0).unwrap(),
            "absent target"
        );
        match receive(&mut s, None, pad, false, false).unwrap() {
            RecvOutcome::Received(m) => assert_eq!(m, b),
            other => panic!("{other:?}"),
        }
    }
}
