//! Streaming FNV-1a 64-bit hashing: section checksums for `.pcsr` files and the
//! content hash that keys the snapshot cache. The hasher itself is the
//! workspace's one FNV-1a implementation in `piccolo_obs::hash`, re-exported
//! here; the checksum bytes are part of the on-disk format.

use std::io::Read;
use std::path::Path;

pub use piccolo_obs::hash::{fnv64, Fnv64};

/// Streams a file through FNV-1a in 64 KiB chunks (never materializes the file).
pub fn hash_file(path: &Path) -> std::io::Result<u64> {
    let mut file = std::fs::File::open(path)?;
    let mut hasher = Fnv64::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(hasher.finish());
        }
        hasher.update(&buf[..n]);
    }
}
