//! Tape drives and the drive pool — the paper's §8.2 example.
//!
//! "Consider for example an implementation of a tape drive in which each
//! drive is represented by an object of type tape_drive. ... A user
//! requests from the managing package a tape_drive instance, calls
//! operations in that package to use it and eventually to close or
//! return it. If, however, the user loses access to the object through
//! accident or intent, it will be garbage collected and the system will
//! be short one tape drive. This is what we mean by a *lost object*."
//!
//! [`TapePool`] is that managing package: drives are handed out as
//! sealed instances of a user-defined `tape_drive` type; a destruction
//! filter bound to the type lets the garbage collector return lost
//! handles to the pool (the end-to-end recovery experiment is C10).

use crate::iface::{DeviceError, DeviceImpl, DeviceStatus};
use i432_arch::{AccessDescriptor, ObjectRef, PortDiscipline, Rights, SpaceMut};
use i432_gdp::{Fault, FaultKind};
use imax_ipc::{create_port, Port};
use imax_typemgr::{bind_destruction_filter, TypeManager};

/// Device-specific operation: rewind.
pub const TAPE_OP_REWIND: u32 = 0;
/// Device-specific operation: skip to record N.
pub const TAPE_OP_SEEK: u32 = 1;

/// One tape drive: a record-structured sequential medium.
#[derive(Debug, Default)]
pub struct TapeDrive {
    name: String,
    open: bool,
    records: Vec<Vec<u8>>,
    position: usize,
}

impl TapeDrive {
    /// An empty drive.
    pub fn new(name: impl Into<String>) -> TapeDrive {
        TapeDrive {
            name: name.into(),
            ..TapeDrive::default()
        }
    }

    /// Number of records on the mounted tape.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }
}

impl DeviceImpl for TapeDrive {
    fn name(&self) -> &str {
        &self.name
    }

    fn open(&mut self) -> Result<(), DeviceError> {
        if self.open {
            return Err(DeviceError::AlreadyOpen);
        }
        self.open = true;
        Ok(())
    }

    fn close(&mut self) -> Result<(), DeviceError> {
        if !self.open {
            return Err(DeviceError::NotOpen);
        }
        self.open = false;
        Ok(())
    }

    /// Reads the record at the current position and advances.
    fn read(&mut self, buf: &mut [u8]) -> Result<usize, DeviceError> {
        if !self.open {
            return Err(DeviceError::NotOpen);
        }
        let rec = self
            .records
            .get(self.position)
            .ok_or(DeviceError::EndOfMedium)?;
        let n = rec.len().min(buf.len());
        buf[..n].copy_from_slice(&rec[..n]);
        self.position += 1;
        Ok(n)
    }

    /// Appends a record at the current position (truncating the rest).
    fn write(&mut self, buf: &[u8]) -> Result<usize, DeviceError> {
        if !self.open {
            return Err(DeviceError::NotOpen);
        }
        self.records.truncate(self.position);
        self.records.push(buf.to_vec());
        self.position += 1;
        Ok(buf.len())
    }

    fn status(&self) -> DeviceStatus {
        DeviceStatus {
            ready: true,
            open: self.open,
            error: 0,
            position: self.position as u64,
        }
    }

    fn control(&mut self, op: u32, arg: u64) -> Result<u64, DeviceError> {
        match op {
            TAPE_OP_REWIND => {
                self.position = 0;
                Ok(0)
            }
            TAPE_OP_SEEK => {
                if arg as usize > self.records.len() {
                    return Err(DeviceError::EndOfMedium);
                }
                self.position = arg as usize;
                Ok(self.position as u64)
            }
            _ => Err(DeviceError::Unsupported),
        }
    }

    fn control_ops(&self) -> u32 {
        2
    }

    fn cycles_per_byte(&self) -> u64 {
        16 // Tape is slow.
    }
}

/// The managing package for a fixed pool of drives.
///
/// Handles are instances of the `tape_drive` user type whose data part
/// records the drive number; clients receive them *sealed* (no rights),
/// so only the pool — holding the TDO with amplify rights — can map a
/// handle back to a drive.
#[derive(Debug)]
pub struct TapePool {
    manager: TypeManager,
    filter_port: Port,
    drives: Vec<TapeDrive>,
    allocated: Vec<bool>,
    /// Drives recovered by the destruction filter rather than returned
    /// properly.
    pub recovered_count: u64,
}

impl TapePool {
    /// A pool of `n` drives with its own `tape_drive` type and a bound
    /// destruction filter.
    pub fn new<S: SpaceMut + ?Sized>(
        space: &mut S,
        sro: ObjectRef,
        n: usize,
    ) -> Result<TapePool, Fault> {
        let manager = TypeManager::new(space, sro, "tape_drive")?;
        let filter_port = create_port(
            space,
            sro,
            64.min(n as u32 * 2).max(4),
            PortDiscipline::Fifo,
        )?;
        bind_destruction_filter(space, manager.tdo_ad(), filter_port.ad())?;
        Ok(TapePool {
            manager,
            filter_port,
            drives: (0..n).map(|i| TapeDrive::new(format!("mt{i}"))).collect(),
            allocated: vec![false; n],
            recovered_count: 0,
        })
    }

    /// The pool's type definition object (keep it reachable!).
    pub fn tdo(&self) -> ObjectRef {
        self.manager.tdo()
    }

    /// The destruction-filter port object (keep it reachable!).
    pub fn filter_port(&self) -> ObjectRef {
        self.filter_port.object()
    }

    /// Drives currently available.
    pub fn free_count(&self) -> usize {
        self.allocated.iter().filter(|a| !**a).count()
    }

    /// Acquires a drive, returning a sealed handle.
    pub fn acquire<S: SpaceMut + ?Sized>(
        &mut self,
        space: &mut S,
        sro: ObjectRef,
    ) -> Result<AccessDescriptor, Fault> {
        let Some(idx) = self.allocated.iter().position(|a| !*a) else {
            return Err(Fault::with_detail(
                FaultKind::StorageExhausted,
                "no free tape drives",
            ));
        };
        let handle = self.manager.create_instance(space, sro, 16, 0)?;
        // Only the manager can write the representation.
        let full = self.manager.amplify(space, handle)?;
        space.write_u64(full, 0, idx as u64).map_err(Fault::from)?;
        self.allocated[idx] = true;
        self.drives[idx].open().map_err(Fault::from)?;
        Ok(handle)
    }

    fn drive_index<S: SpaceMut + ?Sized>(
        &self,
        space: &mut S,
        handle: AccessDescriptor,
    ) -> Result<usize, Fault> {
        let full = self.manager.amplify(space, handle)?;
        let idx = space.read_u64(full, 0).map_err(Fault::from)? as usize;
        if idx >= self.drives.len() {
            return Err(Fault::with_detail(FaultKind::Bounds, "bad drive index"));
        }
        Ok(idx)
    }

    /// Operates on the drive behind a handle.
    pub fn with_drive<S: SpaceMut + ?Sized, R>(
        &mut self,
        space: &mut S,
        handle: AccessDescriptor,
        f: impl FnOnce(&mut TapeDrive) -> R,
    ) -> Result<R, Fault> {
        let idx = self.drive_index(space, handle)?;
        Ok(f(&mut self.drives[idx]))
    }

    /// Returns a drive properly: the handle object is destroyed and the
    /// drive freed.
    pub fn release<S: SpaceMut + ?Sized>(
        &mut self,
        space: &mut S,
        handle: AccessDescriptor,
    ) -> Result<(), Fault> {
        let idx = self.drive_index(space, handle)?;
        self.manager.destroy_instance(space, handle)?;
        let _ = self.drives[idx].close();
        self.allocated[idx] = false;
        Ok(())
    }

    /// Services the destruction filter: every lost handle the collector
    /// delivered is mapped back to its drive, which is closed and freed.
    /// Returns the number of drives recovered.
    pub fn recover_lost<S: SpaceMut + ?Sized>(&mut self, space: &mut S) -> Result<u32, Fault> {
        let mut recovered = 0;
        let handles = imax_gc_support::drain(space, self.filter_port)?;
        for handle in handles {
            let idx = self.drive_index(space, handle)?;
            if self.allocated[idx] {
                let _ = self.drives[idx].close();
                self.allocated[idx] = false;
                recovered += 1;
                self.recovered_count += 1;
            }
            // Drop the handle: it is garbage again and will be reclaimed
            // (without re-notification) by a later collection.
        }
        Ok(recovered)
    }
}

/// Minimal local copy of the filter-port drain (avoids a dependency
/// cycle: `imax-gc` depends on type managers, not on devices).
mod imax_gc_support {
    use super::*;
    use i432_gdp::port::{self, RecvOutcome};

    pub fn drain<S: SpaceMut + ?Sized>(
        space: &mut S,
        port: Port,
    ) -> Result<Vec<AccessDescriptor>, Fault> {
        let mut out = Vec::new();
        loop {
            match port::receive(space, None, port.ad().restricted(Rights::ALL), false, true)? {
                RecvOutcome::Received(ad) => out.push(ad),
                RecvOutcome::WouldBlock => return Ok(out),
                RecvOutcome::Blocked => unreachable!("non-blocking receive"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i432_arch::ShardedSpace;

    fn space() -> ShardedSpace {
        ShardedSpace::new(64 * 1024, 8 * 1024, 1024, 1)
    }

    #[test]
    fn tape_records_roundtrip() {
        let mut t = TapeDrive::new("mt0");
        t.open().unwrap();
        t.write(b"rec-one").unwrap();
        t.write(b"rec-two").unwrap();
        t.control(TAPE_OP_REWIND, 0).unwrap();
        let mut buf = [0u8; 16];
        let n = t.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"rec-one");
        let n = t.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"rec-two");
        assert_eq!(t.read(&mut buf), Err(DeviceError::EndOfMedium));
    }

    #[test]
    fn tape_seek_and_overwrite() {
        let mut t = TapeDrive::new("mt0");
        t.open().unwrap();
        for r in [b"a", b"b", b"c"] {
            t.write(r).unwrap();
        }
        t.control(TAPE_OP_SEEK, 1).unwrap();
        t.write(b"B").unwrap();
        assert_eq!(t.record_count(), 2, "write truncates the tail");
        assert!(t.control(TAPE_OP_SEEK, 99).is_err());
        assert_eq!(t.control(99, 0), Err(DeviceError::Unsupported));
    }

    #[test]
    fn pool_acquire_use_release() {
        let mut s = space();
        let root = s.root_sro();
        let mut pool = TapePool::new(&mut s, root, 2).unwrap();
        assert_eq!(pool.free_count(), 2);
        let h = pool.acquire(&mut s, root).unwrap();
        assert_eq!(pool.free_count(), 1);
        // The client's handle is sealed: no direct access.
        assert!(s.read_u64(h, 0).is_err());
        // But the pool can operate the drive for them.
        pool.with_drive(&mut s, h, |d| d.write(b"payload").unwrap())
            .unwrap();
        pool.release(&mut s, h).unwrap();
        assert_eq!(pool.free_count(), 2);
        // The handle is gone.
        assert!(pool.with_drive(&mut s, h, |_| ()).is_err());
    }

    #[test]
    fn pool_exhaustion() {
        let mut s = space();
        let root = s.root_sro();
        let mut pool = TapePool::new(&mut s, root, 1).unwrap();
        let _h = pool.acquire(&mut s, root).unwrap();
        assert!(pool.acquire(&mut s, root).is_err());
    }

    #[test]
    fn foreign_handles_rejected() {
        let mut s = space();
        let root = s.root_sro();
        let mut pool_a = TapePool::new(&mut s, root, 1).unwrap();
        let mut pool_b = TapePool::new(&mut s, root, 1).unwrap();
        let h = pool_a.acquire(&mut s, root).unwrap();
        assert!(pool_b.with_drive(&mut s, h, |_| ()).is_err());
    }
}
