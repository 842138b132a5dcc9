//! Structured state for hardware-interpreted system objects.
//!
//! On the real 432 the processor interprets fields at fixed offsets inside
//! process, port, context, domain, processor, SRO and type-definition
//! segments. The emulator stores those interpreted fields as structured
//! Rust data attached to the object-table entry, which is behaviourally
//! equivalent and keeps the interpreter readable.
//!
//! One deliberate exception: **every access descriptor a system object
//! holds lives in the object's ordinary access part**, at the well-known
//! slot indices defined here (`PROC_SLOT_*`, `CTX_SLOT_*`, ...). Port
//! message queues are rings of slots in the port's access part, exactly as
//! on the 432. This uniformity is what lets the garbage collector scan
//! *all* reachable capabilities by walking access parts alone.

use crate::{
    error::{ArchError, ArchResult},
    level::Level,
    memory::FreeList,
    refs::{CodeRef, NativeId, ObjectRef},
};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Well-known access-part slot assignments.
// ---------------------------------------------------------------------------

/// Context slot 0: the domain the context executes in.
pub const CTX_SLOT_DOMAIN: u32 = 0;
/// Context slot 1: the caller's context (dynamic link); null in a process's
/// root context.
pub const CTX_SLOT_CALLER: u32 = 1;
/// Context slot 2: the SRO used for allocations at this depth.
pub const CTX_SLOT_SRO: u32 = 2;
/// Context slot 3: the argument/message access passed by CALL.
pub const CTX_SLOT_ARG: u32 = 3;
/// First context slot free for program use.
pub const CTX_SLOT_FIRST_FREE: u32 = 4;

/// Process slot 0: the current (top) context.
pub const PROC_SLOT_CONTEXT: u32 = 0;
/// Process slot 1: the fault port iMAX delivers this process to on faults.
pub const PROC_SLOT_FAULT_PORT: u32 = 1;
/// Process slot 2: the scheduler port that receives the process at
/// scheduling events (time-slice end, start/stop transitions).
pub const PROC_SLOT_SCHED_PORT: u32 = 2;
/// Process slot 3: the dispatching port the process is dispatched from.
pub const PROC_SLOT_DISPATCH_PORT: u32 = 3;
/// Process slot 4: the process's default storage resource object.
pub const PROC_SLOT_SRO: u32 = 4;
/// Process slot 5: the parent process (null for top-level processes).
pub const PROC_SLOT_PARENT: u32 = 5;
/// Process slot 6: the carried message (a blocked sender's pending
/// message, or the most recently received message during dispatch).
pub const PROC_SLOT_MSG: u32 = 6;
/// Process slot 7: the current local-heap SRO, if one is active.
pub const PROC_SLOT_LOCAL_HEAP: u32 = 7;
/// First process slot used for the children list maintained by the basic
/// process manager.
pub const PROC_CHILD_BASE: u32 = 8;
/// Number of child slots in a standard process object.
pub const PROC_CHILD_SLOTS: u32 = 24;
/// Total access-part slots in a standard process object.
pub const PROC_ACCESS_SLOTS: u32 = PROC_CHILD_BASE + PROC_CHILD_SLOTS;

/// Processor slot 0: the dispatching port this processor serves.
pub const CPU_SLOT_DISPATCH_PORT: u32 = 0;
/// Processor slot 1: the process currently bound to this processor.
pub const CPU_SLOT_PROCESS: u32 = 1;
/// Processor slot 2: the port receiving processor-level fault reports.
pub const CPU_SLOT_FAULT_PORT: u32 = 2;
/// Processor slot 3: the system root directory. Garbage-collection roots
/// are exactly the processor objects; everything the system must keep —
/// global domains, iMAX services — is reachable from the root directory,
/// so there is no central "table of everything" (paper §7.1).
pub const CPU_SLOT_ROOT: u32 = 3;
/// Total access-part slots in a processor object.
pub const CPU_ACCESS_SLOTS: u32 = 4;

/// Type-definition slot 0: the destruction-filter port, when enabled
/// (paper §8.2).
pub const TDO_SLOT_FILTER_PORT: u32 = 0;
/// Total access-part slots in a type-definition object.
pub const TDO_ACCESS_SLOTS: u32 = 2;

// ---------------------------------------------------------------------------
// Port state.
// ---------------------------------------------------------------------------

/// Queueing discipline of a communication port (Figure 1's
/// `q_discipline`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PortDiscipline {
    /// First-in first-out (the default in Figure 1).
    #[default]
    Fifo,
    /// Receive the lowest-priority-value message first.
    Priority,
    /// Receive the earliest-deadline message first.
    Deadline,
}

/// Which kind of process, if any, is queued at the port.
///
/// Blocked senders and blocked receivers can never coexist: receivers
/// block only on an empty queue, senders only on a full one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WaiterKind {
    /// No process is waiting.
    #[default]
    None,
    /// Senders are waiting for queue space; their pending messages are in
    /// their [`PROC_SLOT_MSG`] slots.
    Senders,
    /// Receivers are waiting for messages.
    Receivers,
}

/// Running counters kept per port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PortStats {
    /// Completed sends.
    pub sends: u64,
    /// Completed receives.
    pub receives: u64,
    /// Sends that blocked before completing.
    pub blocked_sends: u64,
    /// Receives that blocked before completing.
    pub blocked_receives: u64,
}

/// Hardware-interpreted state of a port object.
///
/// Layout of the port's access part:
/// * slots `[0, capacity)` — the message area, kept compact: live
///   messages occupy `[0, msg_count)`;
/// * slots `[capacity, capacity + wait_capacity)` — the waiting-process
///   area, compact in FIFO order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortState {
    /// Maximum queued messages (Figure 1's `message_count`).
    pub capacity: u32,
    /// Maximum queued waiting processes.
    pub wait_capacity: u32,
    /// Queueing discipline for the message area.
    pub discipline: PortDiscipline,
    /// Live messages in slots `[0, msg_count)`.
    pub msg_count: u32,
    /// Sort keys parallel to the message area (priority or deadline
    /// values; unused under FIFO). `msg_keys[i]` belongs to slot `i`.
    pub msg_keys: Vec<u64>,
    /// Waiting processes in slots `[capacity, capacity + wait_count)`.
    pub wait_count: u32,
    /// What kind of processes are waiting.
    pub waiters: WaiterKind,
    /// Counters.
    pub stats: PortStats,
}

impl PortState {
    /// Fresh empty port state.
    pub fn new(capacity: u32, wait_capacity: u32, discipline: PortDiscipline) -> PortState {
        PortState {
            capacity,
            wait_capacity,
            discipline,
            msg_count: 0,
            msg_keys: vec![0; capacity as usize],
            wait_count: 0,
            waiters: WaiterKind::None,
            stats: PortStats::default(),
        }
    }

    /// Access-part slots a port with this geometry needs.
    pub const fn access_slots(capacity: u32, wait_capacity: u32) -> u32 {
        capacity + wait_capacity
    }

    /// True when the message area is full (senders will block).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.msg_count >= self.capacity
    }

    /// True when no messages are queued (receivers will block).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.msg_count == 0
    }
}

// ---------------------------------------------------------------------------
// Process state.
// ---------------------------------------------------------------------------

/// Scheduling-relevant status of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ProcessStatus {
    /// Queued at a dispatching port (or about to be).
    #[default]
    Ready,
    /// Bound to a processor and executing.
    Running,
    /// Waiting at a port to send.
    BlockedSend,
    /// Waiting at a port to receive.
    BlockedReceive,
    /// Removed from the dispatching mix by stop requests.
    Stopped,
    /// Suspended after a fault, awaiting its fault port's service.
    Faulted,
    /// Finished; awaiting reclamation.
    Terminated,
}

/// Hardware/iMAX-interpreted state of a process object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessState {
    /// Current status.
    pub status: ProcessStatus,
    /// Dispatching priority (lower value = more urgent).
    pub priority: u8,
    /// Deadline used by deadline-discipline dispatching ports.
    pub deadline: u64,
    /// Time-slice length in cycles.
    pub timeslice: u64,
    /// Cycles remaining in the current slice.
    pub slice_remaining: u64,
    /// Outstanding stop count maintained by the basic process manager
    /// (paper §6.1); the process may run only when it is zero.
    pub stop_count: u32,
    /// Total cycles consumed (accounting).
    pub total_cycles: u64,
    /// The lifetime level the process was created at.
    pub level: Level,
    /// iMAX *system level* (paper §7.3): processes at system level 1 may
    /// not fault at all, level 2 may take only timeout faults, level 3 and
    /// above may fault freely. Ordinary application processes are level 3.
    pub sys_level: u8,
    /// Machine-readable code of the most recent fault (0 = none).
    pub fault_code: u16,
    /// Human-readable description of the most recent fault.
    pub fault_detail: String,
    /// Auxiliary datum of the most recent fault (e.g. the absent
    /// object's table index for swap faults).
    pub fault_aux: u64,
    /// While blocked on RECEIVE: the context access slot the message must
    /// be delivered into when a sender completes the rendezvous.
    pub pending_receive_dst: Option<u32>,
    /// While blocked at a port: the port holding this process in its
    /// waiting area (the hardware carrier back-link).
    pub blocked_port: Option<ObjectRef>,
    /// While blocked on a timed RECEIVE: the absolute simulated cycle at
    /// which the wait expires with a timeout fault (0 = no timeout).
    pub timeout_at: u64,
    /// While blocked on SEND: the queueing key of the pending message
    /// (held in [`PROC_SLOT_MSG`]).
    pub pending_send_key: u64,
}

impl ProcessState {
    /// A runnable process with default scheduling parameters.
    pub fn new(level: Level) -> ProcessState {
        ProcessState {
            status: ProcessStatus::Ready,
            priority: 128,
            deadline: u64::MAX,
            timeslice: 50_000,
            slice_remaining: 50_000,
            stop_count: 0,
            total_cycles: 0,
            level,
            sys_level: 3,
            fault_code: 0,
            fault_detail: String::new(),
            fault_aux: 0,
            pending_receive_dst: None,
            blocked_port: None,
            timeout_at: 0,
            pending_send_key: 0,
        }
    }

    /// True when stop/start bookkeeping permits dispatching.
    #[inline]
    pub fn is_started(&self) -> bool {
        self.stop_count == 0
    }
}

// ---------------------------------------------------------------------------
// Processor state.
// ---------------------------------------------------------------------------

/// Execution status of a processor object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ProcessorStatus {
    /// No process bound; polling its dispatching port.
    #[default]
    Idle,
    /// Executing a bound process.
    Running,
    /// Permanently stopped (system shutdown or double fault).
    Halted,
}

/// Hardware state of a processor object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessorState {
    /// Small integer identity (diagnostics only; software never branches
    /// on it — paper §3 requires multiprocessing transparency).
    pub id: u32,
    /// Execution status.
    pub status: ProcessorStatus,
    /// Cycles this processor has spent idle (no process bound).
    pub idle_cycles: u64,
    /// Cycles this processor has spent executing processes.
    pub busy_cycles: u64,
}

impl ProcessorState {
    /// A fresh idle processor.
    pub fn new(id: u32) -> ProcessorState {
        ProcessorState {
            id,
            status: ProcessorStatus::Idle,
            idle_cycles: 0,
            busy_cycles: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Context, domain, SRO, TDO state.
// ---------------------------------------------------------------------------

/// The body of a domain subprogram: interpreted 432 code or a registered
/// native (Rust) service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CodeBody {
    /// Interpreted instructions held in the code store.
    Interpreted(CodeRef),
    /// A native service body (how the emulator realizes iMAX services).
    Native(NativeId),
}

/// Hardware-interpreted state of a context (activation record).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContextState {
    /// The code this context executes.
    pub body: CodeBody,
    /// Instruction pointer (index into the instruction segment).
    pub ip: u32,
    /// Caller access slot that receives the access returned by RETURN,
    /// if the caller asked for one.
    pub ret_ad_slot: Option<u32>,
    /// Caller data-part offset that receives the 64-bit scalar returned by
    /// RETURN, if the caller asked for one.
    pub ret_val_off: Option<u32>,
    /// Index of the subprogram within its domain (diagnostics).
    pub subprogram: u32,
}

/// One entry in a domain's subprogram table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Subprogram {
    /// Name for traces and faults.
    pub name: String,
    /// The executable body.
    pub body: CodeBody,
    /// Data-part bytes each activation (context) of this subprogram needs.
    pub ctx_data_len: u32,
    /// Access-part slots each activation needs (including the fixed
    /// `CTX_SLOT_*` slots).
    pub ctx_access_len: u32,
}

/// Hardware-interpreted state of a domain object.
///
/// The domain's access part holds the package's owned objects (its
/// "package body state"); the subprogram table is interpreted state.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DomainState {
    /// Externally callable subprograms, in declaration order.
    pub subprograms: Vec<Subprogram>,
    /// Name of the package this domain realizes (diagnostics).
    pub name: String,
}

/// Hardware/iMAX-interpreted state of a storage resource object.
///
/// The free lists carve the *global* arenas; a child SRO's runs are
/// donated out of its parent's runs, so the SRO tree partitions storage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SroState {
    /// Free byte runs in the data arena.
    pub data_free: FreeList,
    /// Free slot runs in the access arena.
    pub access_free: FreeList,
    /// Lifetime level of objects this SRO creates (paper §5: "Each SRO
    /// creates objects with a fixed level number").
    pub level: Level,
    /// Parent SRO, if this is a sub-resource.
    pub parent: Option<ObjectRef>,
    /// Objects currently allocated from this SRO.
    pub object_count: u32,
    /// Object-table quota: the most objects this SRO may have live at
    /// once (0 = unlimited). Creating past it faults with
    /// `TableExhausted` — the SRO's slice of the directory is full even
    /// if the global table is not.
    pub table_quota: u32,
    /// Lifetime totals.
    pub created_total: u64,
    /// Lifetime totals.
    pub reclaimed_total: u64,
}

impl SroState {
    /// An SRO with empty free lists at the given level.
    pub fn new(level: Level) -> SroState {
        SroState {
            data_free: FreeList::empty(),
            access_free: FreeList::empty(),
            level,
            parent: None,
            object_count: 0,
            table_quota: 0,
            created_total: 0,
            reclaimed_total: 0,
        }
    }
}

/// iMAX-interpreted state of a type definition object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TdoState {
    /// Type name (diagnostics and filing).
    pub name: String,
    /// Whether the garbage collector must route garbage instances to the
    /// destruction-filter port in slot [`TDO_SLOT_FILTER_PORT`].
    pub filter_enabled: bool,
    /// Instances created so far.
    pub instances_created: u64,
    /// Instances reclaimed so far.
    pub instances_reclaimed: u64,
}

impl TdoState {
    /// A TDO with no destruction filter.
    pub fn new(name: impl Into<String>) -> TdoState {
        TdoState {
            name: name.into(),
            filter_enabled: false,
            instances_created: 0,
            instances_reclaimed: 0,
        }
    }
}

/// The union of hardware-interpreted states, attached to each object-table
/// entry. `Generic` covers both generic objects and user-typed objects
/// (whose semantics live entirely in their type manager).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SysState {
    /// No interpreted state.
    Generic,
    /// Processor object.
    Processor(ProcessorState),
    /// Process object.
    Process(ProcessState),
    /// Context object.
    Context(ContextState),
    /// Domain object.
    Domain(DomainState),
    /// Instruction segment; the code body lives in the processor's code
    /// store under this reference.
    Instructions(CodeRef),
    /// Communication or dispatching port.
    Port(PortState),
    /// Storage resource object.
    Sro(SroState),
    /// Type definition object.
    TypeDef(TdoState),
}

/// Typed views: the state of one kind of system object, or the type
/// mismatch fault every typed view of a space reports for any other
/// object.
impl SysState {
    /// The port state.
    pub fn port(&self) -> ArchResult<&PortState> {
        match self {
            SysState::Port(s) => Ok(s),
            _ => mismatch("port"),
        }
    }

    /// Mutable variant of [`SysState::port`].
    pub fn port_mut(&mut self) -> ArchResult<&mut PortState> {
        match self {
            SysState::Port(s) => Ok(s),
            _ => mismatch("port"),
        }
    }

    /// The process state.
    pub fn process(&self) -> ArchResult<&ProcessState> {
        match self {
            SysState::Process(s) => Ok(s),
            _ => mismatch("process"),
        }
    }

    /// Mutable variant of [`SysState::process`].
    pub fn process_mut(&mut self) -> ArchResult<&mut ProcessState> {
        match self {
            SysState::Process(s) => Ok(s),
            _ => mismatch("process"),
        }
    }

    /// The processor state.
    pub fn processor(&self) -> ArchResult<&ProcessorState> {
        match self {
            SysState::Processor(s) => Ok(s),
            _ => mismatch("processor"),
        }
    }

    /// Mutable variant of [`SysState::processor`].
    pub fn processor_mut(&mut self) -> ArchResult<&mut ProcessorState> {
        match self {
            SysState::Processor(s) => Ok(s),
            _ => mismatch("processor"),
        }
    }

    /// The storage-resource state.
    pub fn sro(&self) -> ArchResult<&SroState> {
        match self {
            SysState::Sro(s) => Ok(s),
            _ => mismatch("storage-resource"),
        }
    }

    /// Mutable variant of [`SysState::sro`].
    pub fn sro_mut(&mut self) -> ArchResult<&mut SroState> {
        match self {
            SysState::Sro(s) => Ok(s),
            _ => mismatch("storage-resource"),
        }
    }

    /// The type-definition state.
    pub fn tdo(&self) -> ArchResult<&TdoState> {
        match self {
            SysState::TypeDef(s) => Ok(s),
            _ => mismatch("type-definition"),
        }
    }

    /// Mutable variant of [`SysState::tdo`].
    pub fn tdo_mut(&mut self) -> ArchResult<&mut TdoState> {
        match self {
            SysState::TypeDef(s) => Ok(s),
            _ => mismatch("type-definition"),
        }
    }
}

fn mismatch<T>(expected: &'static str) -> ArchResult<T> {
    Err(ArchError::TypeMismatch { expected })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_geometry() {
        let p = PortState::new(4, 8, PortDiscipline::Fifo);
        assert!(p.is_empty());
        assert!(!p.is_full());
        assert_eq!(PortState::access_slots(4, 8), 12);
        assert_eq!(p.msg_keys.len(), 4);
    }

    #[test]
    fn process_defaults() {
        let p = ProcessState::new(Level(2));
        assert!(p.is_started());
        assert_eq!(p.status, ProcessStatus::Ready);
        assert_eq!(p.sys_level, 3);
        assert_eq!(p.level, Level(2));
    }

    #[test]
    fn slot_constants_do_not_collide() {
        let slots = [
            PROC_SLOT_CONTEXT,
            PROC_SLOT_FAULT_PORT,
            PROC_SLOT_SCHED_PORT,
            PROC_SLOT_DISPATCH_PORT,
            PROC_SLOT_SRO,
            PROC_SLOT_PARENT,
            PROC_SLOT_MSG,
            PROC_SLOT_LOCAL_HEAP,
        ];
        for (i, a) in slots.iter().enumerate() {
            for b in &slots[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert!(slots.iter().all(|&s| s < PROC_CHILD_BASE));
    }

    #[test]
    fn sro_starts_empty() {
        let s = SroState::new(Level(1));
        assert_eq!(s.data_free.total_free(), 0);
        assert_eq!(s.object_count, 0);
        assert_eq!(s.level, Level(1));
    }
}
