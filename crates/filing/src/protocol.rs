//! The object-filing wire protocol.
//!
//! A filing request is an ordinary generic object, exactly like a device
//! request descriptor ([`imax_io::virtio`]): the data part carries the
//! operation and its parameters, access slot 0 carries the reply port.
//! The client keeps a capability for the request object; the server
//! writes status, count and (for READ) data back into the *same* object
//! and sends it to the reply port — the request/reply pair is one object
//! changing hands, so a round trip allocates exactly one segment and
//! that segment becomes garbage the moment the client drops it.

/// Offset of the operation code ([`FOP_OPEN`] …) in a request object.
pub const FREQ_OP_OFF: u32 = 0;
/// Offset of the file id.
pub const FREQ_FILE_OFF: u32 = 8;
/// Offset of the byte position within the file (READ/WRITE).
pub const FREQ_POS_OFF: u32 = 16;
/// Offset of the transfer length in bytes (READ/WRITE).
pub const FREQ_LEN_OFF: u32 = 24;
/// Offset of the completion status ([`FS_OK`] …), written by the server.
pub const FREQ_STATUS_OFF: u32 = 32;
/// Offset of the result count (bytes actually moved), written by the
/// server.
pub const FREQ_COUNT_OFF: u32 = 40;
/// Offset of the transfer data area.
pub const FREQ_DATA_OFF: u32 = 48;
/// Access slot holding the reply port.
pub const FREQ_SLOT_REPLY: u32 = 0;

/// Largest transfer a single request can carry.
pub const FREQ_DATA_MAX: u32 = 64;
/// Data-part bytes of a request object.
pub const FREQ_OBJ_DATA_LEN: u32 = FREQ_DATA_OFF + FREQ_DATA_MAX;
/// Access-part slots of a request object (reply port + one spare).
pub const FREQ_OBJ_ACCESS_LEN: u32 = 2;

/// Open a file, creating it on first open.
pub const FOP_OPEN: u64 = 0;
/// Read `len` bytes at `pos`.
pub const FOP_READ: u64 = 1;
/// Write `len` bytes at `pos` (write-through to the device).
pub const FOP_WRITE: u64 = 2;
/// Flush and close a file (its cache segment becomes swappable).
pub const FOP_CLOSE: u64 = 3;

/// Success.
pub const FS_OK: u64 = 0;
/// READ/WRITE/CLOSE on a file that is not open.
pub const FS_NOT_OPEN: u64 = 1;
/// Unknown operation, bad file id, or OPEN of an already-open file.
pub const FS_BAD_OP: u64 = 2;
/// Device or swap failure.
pub const FS_IO: u64 = 3;
/// Transfer outside the file or larger than [`FREQ_DATA_MAX`].
pub const FS_BOUNDS: u64 = 4;

/// Device block size backing a file (one virtio LBA).
pub const FILE_BLOCK_SIZE: u32 = 64;
/// Blocks per file: file `f` owns LBAs `f*FILE_BLOCKS ..` exclusively.
pub const FILE_BLOCKS: u64 = 8;
/// Bytes per file (also the size of its cache segment).
pub const FILE_BYTES: u32 = FILE_BLOCK_SIZE * FILE_BLOCKS as u32;

/// Simulated cycles charged per OPEN over and above device time.
pub const FS_COST_OPEN: u64 = 800;
/// Simulated cycles charged per READ (plus [`FS_COST_BYTE`] per byte).
pub const FS_COST_READ: u64 = 350;
/// Simulated cycles charged per WRITE (plus device and per-byte cost).
pub const FS_COST_WRITE: u64 = 400;
/// Simulated cycles charged per CLOSE over and above device time.
pub const FS_COST_CLOSE: u64 = 500;
/// Simulated cycles charged per byte moved between request and cache.
pub const FS_COST_BYTE: u64 = 2;
/// Simulated cycles a worker pays for polling an empty request port.
pub const FS_COST_IDLE: u64 = 50;
