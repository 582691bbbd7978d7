//! The on-disk byte layout: index header, per-shard metadata, chunk
//! header, and the aligned section map of a chunk payload.
//!
//! ## Index file (`index.scds`)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "SCDSIDX1"
//!      8     4  version (u32, = 1)
//!     12     4  flags   (u32, = 0, reserved)
//!     16     8  cols    (u64)
//!     24     8  rows    (u64, total)
//!     32     8  nnz     (u64, total)
//!     40     8  chunks  (u64, count C)
//!     48  32·C  C × ShardMeta { rows, nnz, file_bytes, payload_checksum }
//!   end-8     8  fnv1a64 over every preceding byte
//! ```
//!
//! ## Chunk file (`chunk-NNNNN.scdc`)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "SCDSCHK1"
//!      8     4  version (u32, = 1)
//!     12     4  pad     (u32, = 0)
//!     16     8  shard_id (u64)
//!     24     8  rows     (u64, this chunk)
//!     32     8  cols     (u64, = index cols)
//!     40     8  nnz      (u64, this chunk)
//!     48     8  payload_checksum (fnv1a64 over bytes [64, EOF))
//!     56     8  reserved (u64, = 0)
//!     64     …  payload: offsets ‖ labels ‖ indices ‖ values
//! ```
//!
//! Payload sections, in order, each starting on an 8-byte boundary
//! (`offsets` trivially; the others via zero padding to the next multiple
//! of 8):
//!
//! * `offsets` — `(rows+1) × u64`, chunk-local CSR row offsets
//!   (`offsets[0] = 0`, `offsets[rows] = nnz`)
//! * `labels`  — `rows × f32`, padded to 8
//! * `indices` — `nnz × f32`-sized `u32` column indices, padded to 8
//! * `values`  — `nnz × f32`, padded to 8
//!
//! The 64-byte header plus 8-byte section alignment means every section's
//! file offset is a multiple of 8; an `mmap` base address is page-aligned,
//! so the in-memory addresses inherit that alignment and the `&[u64]` /
//! `&[u32]` / `&[f32]` reinterpretations in [`crate::reader`] are sound.

use crate::{fnv1a64, StoreError};
use std::ops::Range;
use std::path::Path;

/// Magic bytes opening the index file.
pub const INDEX_MAGIC: [u8; 8] = *b"SCDSIDX1";
/// Magic bytes opening every chunk file.
pub const CHUNK_MAGIC: [u8; 8] = *b"SCDSCHK1";
/// The format version this build reads and writes.
pub const VERSION: u32 = 1;
/// Fixed chunk header size; a multiple of 8 so the payload starts aligned.
pub const CHUNK_HEADER_BYTES: usize = 64;
/// Fixed index preamble size (before the shard table).
pub const INDEX_HEADER_BYTES: usize = 48;
/// Bytes per shard-table entry.
pub const SHARD_META_BYTES: usize = 32;
/// The index file's name inside a dataset directory.
pub const INDEX_FILE: &str = "index.scds";

/// The chunk file name for shard `i`.
pub fn chunk_file_name(i: usize) -> String {
    format!("chunk-{i:05}.scdc")
}

/// Per-shard entry in the index's table of contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    /// Rows stored in this chunk.
    pub rows: u64,
    /// Nonzeros stored in this chunk.
    pub nnz: u64,
    /// Total chunk file size in bytes (header + payload) — the *actual*
    /// bytes a worker moves to load this shard, charged to the perf models.
    pub file_bytes: u64,
    /// FNV-1a over the chunk payload; duplicated from the chunk header so
    /// the index alone can detect a swapped-in foreign chunk.
    pub payload_checksum: u64,
}

/// The decoded index: dataset shape plus the shard table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreIndex {
    /// Feature-space width M.
    pub cols: u64,
    /// Total rows N across all chunks.
    pub rows: u64,
    /// Total nonzeros across all chunks.
    pub nnz: u64,
    /// Per-chunk metadata, in chunk order.
    pub shards: Vec<ShardMeta>,
}

/// Byte ranges of the four payload sections within a chunk file, plus the
/// implied total file size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkLayout {
    /// `(rows+1) × u64` chunk-local row offsets.
    pub offsets: Range<usize>,
    /// `rows × f32` labels.
    pub labels: Range<usize>,
    /// `nnz × u32` column indices.
    pub indices: Range<usize>,
    /// `nnz × f32` values.
    pub values: Range<usize>,
    /// Header + payload (with padding): the exact file size.
    pub file_bytes: usize,
}

/// Compute the section map for a chunk of `rows` rows and `nnz` nonzeros.
pub fn chunk_layout(rows: usize, nnz: usize) -> ChunkLayout {
    checked_chunk_layout(rows as u64, nnz as u64).expect("chunk layout overflows usize")
}

/// [`chunk_layout`] with every step checked: `None` when the counts (read
/// from a possibly forged index) would overflow the section map.
pub fn checked_chunk_layout(rows: u64, nnz: u64) -> Option<ChunkLayout> {
    let rows = usize::try_from(rows).ok()?;
    let nnz = usize::try_from(nnz).ok()?;
    let pad8 = |n: usize| n.checked_next_multiple_of(8);
    let offsets_start = CHUNK_HEADER_BYTES;
    let offsets_end = rows
        .checked_add(1)?
        .checked_mul(8)?
        .checked_add(offsets_start)?;
    let labels_end = rows.checked_mul(4)?.checked_add(offsets_end)?;
    let indices_start = pad8(labels_end)?;
    let indices_end = nnz.checked_mul(4)?.checked_add(indices_start)?;
    let values_start = pad8(indices_end)?;
    let values_end = nnz.checked_mul(4)?.checked_add(values_start)?;
    Some(ChunkLayout {
        offsets: offsets_start..offsets_end,
        labels: offsets_end..labels_end,
        indices: indices_start..indices_end,
        values: values_start..values_end,
        file_bytes: pad8(values_end)?,
    })
}

/// The decoded fixed-size chunk header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeader {
    /// Position of this chunk in the dataset.
    pub shard_id: u64,
    /// Rows in this chunk.
    pub rows: u64,
    /// Feature-space width M (same in every chunk).
    pub cols: u64,
    /// Nonzeros in this chunk.
    pub nnz: u64,
    /// FNV-1a over the payload bytes.
    pub payload_checksum: u64,
}

impl ChunkHeader {
    /// Serialize to the fixed 64-byte header.
    pub fn encode(&self) -> [u8; CHUNK_HEADER_BYTES] {
        let mut buf = [0u8; CHUNK_HEADER_BYTES];
        buf[0..8].copy_from_slice(&CHUNK_MAGIC);
        buf[8..12].copy_from_slice(&VERSION.to_le_bytes());
        // bytes 12..16: pad, zero.
        buf[16..24].copy_from_slice(&self.shard_id.to_le_bytes());
        buf[24..32].copy_from_slice(&self.rows.to_le_bytes());
        buf[32..40].copy_from_slice(&self.cols.to_le_bytes());
        buf[40..48].copy_from_slice(&self.nnz.to_le_bytes());
        buf[48..56].copy_from_slice(&self.payload_checksum.to_le_bytes());
        // bytes 56..64: reserved, zero.
        buf
    }

    /// Parse and validate the magic/version of a chunk header.
    pub fn decode(bytes: &[u8], path: &Path) -> Result<Self, StoreError> {
        if bytes.len() < CHUNK_HEADER_BYTES {
            return Err(StoreError::Truncated {
                path: path.to_path_buf(),
                expected: CHUNK_HEADER_BYTES as u64,
                found: bytes.len() as u64,
            });
        }
        if bytes[0..8] != CHUNK_MAGIC {
            return Err(StoreError::BadMagic {
                path: path.to_path_buf(),
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(StoreError::BadVersion {
                path: path.to_path_buf(),
                found: version,
            });
        }
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
        Ok(ChunkHeader {
            shard_id: u64_at(16),
            rows: u64_at(24),
            cols: u64_at(32),
            nnz: u64_at(40),
            payload_checksum: u64_at(48),
        })
    }
}

/// Serialize the index file: preamble, shard table, trailing checksum.
pub fn encode_index(index: &StoreIndex) -> Vec<u8> {
    let mut buf =
        Vec::with_capacity(INDEX_HEADER_BYTES + SHARD_META_BYTES * index.shards.len() + 8);
    buf.extend_from_slice(&INDEX_MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes()); // flags
    buf.extend_from_slice(&index.cols.to_le_bytes());
    buf.extend_from_slice(&index.rows.to_le_bytes());
    buf.extend_from_slice(&index.nnz.to_le_bytes());
    buf.extend_from_slice(&(index.shards.len() as u64).to_le_bytes());
    for s in &index.shards {
        buf.extend_from_slice(&s.rows.to_le_bytes());
        buf.extend_from_slice(&s.nnz.to_le_bytes());
        buf.extend_from_slice(&s.file_bytes.to_le_bytes());
        buf.extend_from_slice(&s.payload_checksum.to_le_bytes());
    }
    let checksum = fnv1a64(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Parse and fully validate an index file's bytes: magic, version,
/// trailing checksum, table length, and internal row/nnz totals.
pub fn decode_index(bytes: &[u8], path: &Path) -> Result<StoreIndex, StoreError> {
    let min = INDEX_HEADER_BYTES + 8;
    if bytes.len() < min {
        return Err(StoreError::Truncated {
            path: path.to_path_buf(),
            expected: min as u64,
            found: bytes.len() as u64,
        });
    }
    if bytes[0..8] != INDEX_MAGIC {
        return Err(StoreError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(StoreError::BadVersion {
            path: path.to_path_buf(),
            found: version,
        });
    }
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
    let cols = u64_at(16);
    let rows = u64_at(24);
    let nnz = u64_at(32);
    let chunks = u64_at(40);
    let expected = INDEX_HEADER_BYTES as u64 + SHARD_META_BYTES as u64 * chunks + 8;
    if bytes.len() as u64 != expected {
        return Err(StoreError::Truncated {
            path: path.to_path_buf(),
            expected,
            found: bytes.len() as u64,
        });
    }
    let body_end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    if fnv1a64(&bytes[..body_end]) != stored {
        return Err(StoreError::ChecksumMismatch {
            path: path.to_path_buf(),
        });
    }
    let mut shards = Vec::with_capacity(chunks as usize);
    for i in 0..chunks as usize {
        let base = INDEX_HEADER_BYTES + SHARD_META_BYTES * i;
        shards.push(ShardMeta {
            rows: u64_at(base),
            nnz: u64_at(base + 8),
            file_bytes: u64_at(base + 16),
            payload_checksum: u64_at(base + 24),
        });
    }
    // Checked: a forged table can wrap a plain sum back to the header's
    // totals.
    let total = |count: fn(&ShardMeta) -> u64| {
        shards
            .iter()
            .try_fold(0u64, |acc, s| acc.checked_add(count(s)))
    };
    let (Some(sum_rows), Some(sum_nnz)) = (total(|s| s.rows), total(|s| s.nnz)) else {
        return Err(StoreError::Invalid {
            path: path.to_path_buf(),
            detail: "shard table row or nnz counts overflow u64".to_string(),
        });
    };
    if sum_rows != rows || sum_nnz != nnz {
        return Err(StoreError::Invalid {
            path: path.to_path_buf(),
            detail: format!(
                "shard table sums to {sum_rows} rows / {sum_nnz} nnz but the header claims {rows} / {nnz}"
            ),
        });
    }
    Ok(StoreIndex {
        cols,
        rows,
        nnz,
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn p() -> PathBuf {
        PathBuf::from("test.scds")
    }

    #[test]
    fn chunk_layout_is_aligned_and_tight() {
        for (rows, nnz) in [(1, 1), (3, 7), (100, 999), (5, 0)] {
            let l = chunk_layout(rows, nnz);
            for start in [l.offsets.start, l.labels.start, l.indices.start, l.values.start] {
                assert_eq!(start % 8, 0, "section at {start} unaligned");
            }
            assert_eq!(l.offsets.len(), 8 * (rows + 1));
            assert_eq!(l.labels.len(), 4 * rows);
            assert_eq!(l.indices.len(), 4 * nnz);
            assert_eq!(l.values.len(), 4 * nnz);
            assert_eq!(l.file_bytes % 8, 0);
            assert!(l.file_bytes >= l.values.end);
            assert!(l.file_bytes - l.values.end < 8);
        }
    }

    #[test]
    fn chunk_header_roundtrip() {
        let h = ChunkHeader {
            shard_id: 3,
            rows: 1000,
            cols: 1 << 40,
            nnz: 123456,
            payload_checksum: 0xDEADBEEFCAFEF00D,
        };
        let bytes = h.encode();
        assert_eq!(ChunkHeader::decode(&bytes, &p()).unwrap(), h);
    }

    #[test]
    fn chunk_header_rejects_corruption() {
        let h = ChunkHeader {
            shard_id: 0,
            rows: 1,
            cols: 2,
            nnz: 1,
            payload_checksum: 9,
        };
        let mut bytes = h.encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            ChunkHeader::decode(&bytes, &p()),
            Err(StoreError::BadMagic { .. })
        ));
        let mut bytes = h.encode();
        bytes[8] = 99;
        assert!(matches!(
            ChunkHeader::decode(&bytes, &p()),
            Err(StoreError::BadVersion { found: 99, .. })
        ));
        assert!(matches!(
            ChunkHeader::decode(&h.encode()[..10], &p()),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn index_roundtrip_and_corruption() {
        let idx = StoreIndex {
            cols: 640,
            rows: 30,
            nnz: 120,
            shards: vec![
                ShardMeta { rows: 16, nnz: 64, file_bytes: 1000, payload_checksum: 1 },
                ShardMeta { rows: 14, nnz: 56, file_bytes: 900, payload_checksum: 2 },
            ],
        };
        let bytes = encode_index(&idx);
        assert_eq!(decode_index(&bytes, &p()).unwrap(), idx);

        let mut bad = bytes.clone();
        bad[20] ^= 1; // cols byte → checksum breaks
        assert!(matches!(
            decode_index(&bad, &p()),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            decode_index(&bytes[..bytes.len() - 3], &p()),
            Err(StoreError::Truncated { .. })
        ));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode_index(&bad, &p()), Err(StoreError::BadMagic { .. })));
    }

    #[test]
    fn index_rejects_inconsistent_totals() {
        let idx = StoreIndex {
            cols: 10,
            rows: 99, // shards only sum to 30
            nnz: 120,
            shards: vec![ShardMeta { rows: 30, nnz: 120, file_bytes: 1, payload_checksum: 0 }],
        };
        let bytes = encode_index(&idx);
        assert!(matches!(decode_index(&bytes, &p()), Err(StoreError::Invalid { .. })));
    }
}
