//! The sector-addressed block device trait and its in-memory / file-backed
//! implementations.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use s4_clock::sync::Mutex;

/// Size of one sector in bytes. Every transfer is a whole number of sectors.
pub const SECTOR_SIZE: usize = 512;

/// Sectors per sparse allocation chunk in [`MemDisk`] (64 KiB chunks).
const CHUNK_SECTORS: u64 = 128;

/// Errors surfaced by block devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// A request referenced sectors beyond the end of the device.
    OutOfRange {
        /// First sector of the offending request.
        sector: u64,
        /// Number of sectors requested.
        count: u64,
        /// Total sectors on the device.
        capacity: u64,
    },
    /// A buffer length was not a whole number of sectors.
    UnalignedLength(usize),
    /// The underlying medium failed (injected fault or real I/O error).
    Io(String),
    /// The device was configured to fail all requests (simulated death).
    DeviceFailed,
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::OutOfRange {
                sector,
                count,
                capacity,
            } => write!(
                f,
                "request for {count} sectors at {sector} exceeds capacity {capacity}"
            ),
            DiskError::UnalignedLength(len) => {
                write!(f, "buffer length {len} is not a multiple of {SECTOR_SIZE}")
            }
            DiskError::Io(msg) => write!(f, "I/O error: {msg}"),
            DiskError::DeviceFailed => write!(f, "device failed"),
        }
    }
}

impl std::error::Error for DiskError {}

/// A sector-addressed block device.
///
/// Implementations must be usable behind a shared reference from multiple
/// threads; interior locking is the implementation's responsibility.
pub trait BlockDev: Send + Sync {
    /// Total number of sectors on the device.
    fn num_sectors(&self) -> u64;

    /// Reads `buf.len() / SECTOR_SIZE` sectors starting at `sector`.
    fn read(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError>;

    /// Writes `buf.len() / SECTOR_SIZE` sectors starting at `sector`.
    fn write(&self, sector: u64, buf: &[u8]) -> Result<(), DiskError>;

    /// Forces durability of previously written sectors. In-memory devices
    /// treat this as a no-op; file-backed devices fsync.
    fn sync(&self) -> Result<(), DiskError> {
        Ok(())
    }

    /// Reads sectors *without* charging simulated service time — a
    /// simulation-support hook used when a server satisfies a request
    /// from its own memory cache but the simulator keeps the authoritative
    /// bytes on the device. Plain devices treat this as [`BlockDev::read`];
    /// timed wrappers bypass their cost model.
    fn peek(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.read(sector, buf)
    }

    /// Capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.num_sectors() * SECTOR_SIZE as u64
    }
}

/// Validates a request against device capacity and buffer alignment,
/// returning the sector count.
pub(crate) fn check_request(capacity: u64, sector: u64, buf_len: usize) -> Result<u64, DiskError> {
    if !buf_len.is_multiple_of(SECTOR_SIZE) {
        return Err(DiskError::UnalignedLength(buf_len));
    }
    let count = (buf_len / SECTOR_SIZE) as u64;
    if sector.checked_add(count).is_none_or(|end| end > capacity) {
        return Err(DiskError::OutOfRange {
            sector,
            count,
            capacity,
        });
    }
    Ok(count)
}

/// A sparse in-memory block device.
///
/// Storage is allocated in 64 KiB chunks on first write, so a mostly-empty
/// multi-gigabyte simulated drive costs only what is actually written.
/// Unwritten sectors read as zeros.
pub struct MemDisk {
    num_sectors: u64,
    chunks: Mutex<HashMap<u64, Box<[u8]>>>,
}

impl MemDisk {
    /// Creates a device with `num_sectors` sectors, all reading as zero.
    pub fn new(num_sectors: u64) -> Self {
        MemDisk {
            num_sectors,
            chunks: Mutex::new(HashMap::new()),
        }
    }

    /// Creates a device with at least `bytes` bytes of capacity.
    pub fn with_capacity_bytes(bytes: u64) -> Self {
        Self::new(bytes.div_ceil(SECTOR_SIZE as u64))
    }
}

impl Clone for MemDisk {
    /// Deep-copies the device contents — a point-in-time image snapshot,
    /// used by fault campaigns that replay many crash schedules from one
    /// captured state.
    fn clone(&self) -> Self {
        MemDisk {
            num_sectors: self.num_sectors,
            chunks: Mutex::new(self.chunks.lock().clone()),
        }
    }
}

impl BlockDev for MemDisk {
    fn num_sectors(&self) -> u64 {
        self.num_sectors
    }

    fn read(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        let count = check_request(self.num_sectors, sector, buf.len())?;
        let chunks = self.chunks.lock();
        for i in 0..count {
            let s = sector + i;
            let chunk_idx = s / CHUNK_SECTORS;
            let within = ((s % CHUNK_SECTORS) as usize) * SECTOR_SIZE;
            let dst = &mut buf[(i as usize) * SECTOR_SIZE..][..SECTOR_SIZE];
            match chunks.get(&chunk_idx) {
                Some(chunk) => dst.copy_from_slice(&chunk[within..within + SECTOR_SIZE]),
                None => dst.fill(0),
            }
        }
        Ok(())
    }

    fn write(&self, sector: u64, buf: &[u8]) -> Result<(), DiskError> {
        let count = check_request(self.num_sectors, sector, buf.len())?;
        let mut chunks = self.chunks.lock();
        for i in 0..count {
            let s = sector + i;
            let chunk_idx = s / CHUNK_SECTORS;
            let within = ((s % CHUNK_SECTORS) as usize) * SECTOR_SIZE;
            let chunk = chunks
                .entry(chunk_idx)
                .or_insert_with(|| vec![0u8; (CHUNK_SECTORS as usize) * SECTOR_SIZE].into());
            chunk[within..within + SECTOR_SIZE]
                .copy_from_slice(&buf[(i as usize) * SECTOR_SIZE..][..SECTOR_SIZE]);
        }
        Ok(())
    }
}

/// A block device backed by a file on the host filesystem.
///
/// Useful for histories larger than memory and for inspecting on-disk
/// layouts with external tools.
pub struct FileDisk {
    num_sectors: u64,
    file: Mutex<File>,
}

impl FileDisk {
    /// Creates (or truncates) a backing file of `num_sectors` sectors.
    pub fn create<P: AsRef<Path>>(path: P, num_sectors: u64) -> Result<Self, DiskError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| DiskError::Io(e.to_string()))?;
        file.set_len(num_sectors * SECTOR_SIZE as u64)
            .map_err(|e| DiskError::Io(e.to_string()))?;
        Ok(FileDisk {
            num_sectors,
            file: Mutex::new(file),
        })
    }

    /// Opens an existing backing file, inferring capacity from its length.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, DiskError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| DiskError::Io(e.to_string()))?;
        let len = file
            .metadata()
            .map_err(|e| DiskError::Io(e.to_string()))?
            .len();
        Ok(FileDisk {
            num_sectors: len / SECTOR_SIZE as u64,
            file: Mutex::new(file),
        })
    }
}

impl BlockDev for FileDisk {
    fn num_sectors(&self) -> u64 {
        self.num_sectors
    }

    fn read(&self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        check_request(self.num_sectors, sector, buf.len())?;
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(sector * SECTOR_SIZE as u64))
            .map_err(|e| DiskError::Io(e.to_string()))?;
        file.read_exact(buf)
            .map_err(|e| DiskError::Io(e.to_string()))
    }

    fn write(&self, sector: u64, buf: &[u8]) -> Result<(), DiskError> {
        check_request(self.num_sectors, sector, buf.len())?;
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(sector * SECTOR_SIZE as u64))
            .map_err(|e| DiskError::Io(e.to_string()))?;
        file.write_all(buf)
            .map_err(|e| DiskError::Io(e.to_string()))
    }

    fn sync(&self) -> Result<(), DiskError> {
        self.file
            .lock()
            .sync_data()
            .map_err(|e| DiskError::Io(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes of backing memory `d` has allocated.
    fn allocated_bytes(d: &MemDisk) -> usize {
        d.chunks.lock().len() * (CHUNK_SECTORS as usize) * SECTOR_SIZE
    }

    #[test]
    fn memdisk_roundtrip() {
        let d = MemDisk::new(1024);
        let data = vec![0xABu8; SECTOR_SIZE * 3];
        d.write(10, &data).unwrap();
        let mut out = vec![0u8; SECTOR_SIZE * 3];
        d.read(10, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn memdisk_unwritten_reads_zero() {
        let d = MemDisk::new(1024);
        let mut out = vec![0xFFu8; SECTOR_SIZE];
        d.read(500, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn memdisk_is_sparse() {
        let d = MemDisk::with_capacity_bytes(1 << 30); // 1 GiB logical
        d.write(0, &[1u8; SECTOR_SIZE]).unwrap();
        d.write(1_000_000, &[2u8; SECTOR_SIZE]).unwrap();
        assert!(allocated_bytes(&d) <= 2 * 64 * 1024);
    }

    #[test]
    fn memdisk_bounds_checked() {
        let d = MemDisk::new(16);
        let buf = vec![0u8; SECTOR_SIZE * 2];
        assert!(matches!(
            d.write(15, &buf),
            Err(DiskError::OutOfRange { .. })
        ));
        assert!(matches!(
            d.write(0, &buf[..100]),
            Err(DiskError::UnalignedLength(100))
        ));
        // Overflowing sector index must not panic.
        assert!(matches!(
            d.read(u64::MAX, &mut vec![0u8; SECTOR_SIZE]),
            Err(DiskError::OutOfRange { .. })
        ));
    }

    #[test]
    fn memdisk_cross_chunk_write() {
        let d = MemDisk::new(CHUNK_SECTORS * 4);
        let data: Vec<u8> = (0..SECTOR_SIZE * 4).map(|i| (i % 251) as u8).collect();
        // Straddles a chunk boundary.
        d.write(CHUNK_SECTORS - 2, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        d.read(CHUNK_SECTORS - 2, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn filedisk_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("s4-filedisk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk.img");
        {
            let d = FileDisk::create(&path, 128).unwrap();
            d.write(5, &[0x5Au8; SECTOR_SIZE]).unwrap();
            d.sync().unwrap();
        }
        let d = FileDisk::open(&path).unwrap();
        assert_eq!(d.num_sectors(), 128);
        let mut out = [0u8; SECTOR_SIZE];
        d.read(5, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0x5A));
        std::fs::remove_dir_all(&dir).ok();
    }
}
