//! Reading a sharded dataset back: index validation, chunk mapping, and
//! partition loads that touch only the chunks a worker actually owns.

use crate::layout::{
    self, checked_chunk_layout, chunk_file_name, chunk_layout, decode_index, ChunkHeader,
    ShardMeta, StoreIndex, INDEX_FILE,
};
use crate::mmap::{Backing, Mapping};
use crate::{fnv1a64, StoreError};
use scd_sparse::CsrMatrix;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// An opened dataset directory: the validated index plus the machinery to
/// map individual chunks on demand. Opening reads *only* the index — no
/// chunk bytes move until a `map_shard`/`load_rows` call asks for them,
/// which is what lets K workers each touch 1/K of the data.
pub struct ShardedDataset {
    dir: PathBuf,
    index: StoreIndex,
    /// Global row index at which each shard starts; one extra entry = total.
    row_starts: Vec<u64>,
    backing: Backing,
}

impl ShardedDataset {
    /// Open `dir` with the platform-default backing (mmap where available).
    pub fn open(dir: &Path) -> Result<ShardedDataset, StoreError> {
        Self::open_with(dir, Backing::default_for_platform())
    }

    /// Open `dir`, forcing a particular [`Backing`].
    pub fn open_with(dir: &Path, backing: Backing) -> Result<ShardedDataset, StoreError> {
        let index_path = dir.join(INDEX_FILE);
        let bytes =
            std::fs::read(&index_path).map_err(|e| StoreError::io(&index_path, e))?;
        let index = decode_index(&bytes, &index_path)?;
        let mut row_starts = Vec::with_capacity(index.shards.len() + 1);
        let mut acc = 0u64;
        for s in &index.shards {
            row_starts.push(acc);
            acc += s.rows;
        }
        row_starts.push(acc);
        // Cheap whole-dataset sanity pass: every chunk's recorded size must
        // be the one its counts imply, and its file must exist with exactly
        // that size. Content (checksums) is only verified when a chunk is
        // actually mapped.
        for (i, meta) in index.shards.iter().enumerate() {
            let implied = checked_chunk_layout(meta.rows, meta.nnz).map(|l| l.file_bytes as u64);
            if implied != Some(meta.file_bytes) {
                return Err(StoreError::Invalid {
                    path: index_path,
                    detail: format!(
                        "shard {i}: {} rows / {} nnz do not fill its recorded {} bytes",
                        meta.rows, meta.nnz, meta.file_bytes
                    ),
                });
            }
            let path = dir.join(chunk_file_name(i));
            let found = std::fs::metadata(&path)
                .map_err(|e| StoreError::io(&path, e))?
                .len();
            if found != meta.file_bytes {
                return Err(StoreError::Truncated {
                    path,
                    expected: meta.file_bytes,
                    found,
                });
            }
        }
        Ok(ShardedDataset {
            dir: dir.to_path_buf(),
            index,
            row_starts,
            backing,
        })
    }

    /// Total rows N.
    pub fn rows(&self) -> usize {
        self.index.rows as usize
    }

    /// Feature-space width M.
    pub fn cols(&self) -> usize {
        self.index.cols as usize
    }

    /// Total nonzeros.
    pub fn nnz(&self) -> usize {
        self.index.nnz as usize
    }

    /// Number of chunk files.
    pub fn num_shards(&self) -> usize {
        self.index.shards.len()
    }

    /// Index metadata for shard `i`.
    pub fn meta(&self, i: usize) -> &ShardMeta {
        &self.index.shards[i]
    }

    /// Global row range stored in shard `i`.
    pub fn shard_rows(&self, i: usize) -> Range<usize> {
        self.row_starts[i] as usize..self.row_starts[i + 1] as usize
    }

    /// Bytes on disk for the chunk files intersecting the global row range
    /// `rows` — the *actual* transfer size a worker loading that partition
    /// incurs, charged to the PCIe/network performance models.
    pub fn stored_bytes_for_rows(&self, rows: Range<usize>) -> u64 {
        self.intersecting_shards(&rows)
            .map(|i| self.index.shards[i].file_bytes)
            .sum()
    }

    /// Map shard `i`, fully validating it (header fields against the
    /// index, file size against the layout, payload checksum).
    pub fn map_shard(&self, i: usize) -> Result<MappedChunk, StoreError> {
        let meta = self.index.shards[i];
        let path = self.dir.join(chunk_file_name(i));
        let map = Mapping::open(&path, self.backing).map_err(|e| StoreError::io(&path, e))?;
        let bytes = map.bytes();
        // Validation order: shape of the file first (magic / version /
        // header truncation), then cross-checks against the index, then
        // size, then content. Each failure names the exact disagreement.
        let header = ChunkHeader::decode(bytes, &path)?;
        if header.rows != meta.rows {
            return Err(StoreError::RowCountMismatch {
                path,
                index_rows: meta.rows,
                chunk_rows: header.rows,
            });
        }
        if header.shard_id != i as u64
            || header.cols != self.index.cols
            || header.nnz != meta.nnz
        {
            return Err(StoreError::Invalid {
                path,
                detail: format!(
                    "chunk header (shard {}, cols {}, nnz {}) disagrees with index (shard {}, cols {}, nnz {})",
                    header.shard_id, header.cols, header.nnz, i, self.index.cols, meta.nnz
                ),
            });
        }
        let l = chunk_layout(meta.rows as usize, meta.nnz as usize);
        if bytes.len() != l.file_bytes {
            return Err(StoreError::Truncated {
                path,
                expected: l.file_bytes as u64,
                found: bytes.len() as u64,
            });
        }
        let payload = &bytes[layout::CHUNK_HEADER_BYTES..];
        let checksum = fnv1a64(payload);
        if checksum != header.payload_checksum || checksum != meta.payload_checksum {
            return Err(StoreError::ChecksumMismatch { path });
        }
        let chunk = MappedChunk {
            map,
            layout: l,
            rows: meta.rows as usize,
            nnz: meta.nnz as usize,
        };
        // Offsets must describe a valid chunk-local CSR before anyone
        // trusts them for slicing.
        let offsets = chunk.offsets();
        if offsets[0] != 0 || offsets[chunk.rows] != chunk.nnz as u64 {
            return Err(StoreError::Invalid {
                path,
                detail: format!(
                    "offsets span [{}, {}] but must span [0, {}]",
                    offsets[0], offsets[chunk.rows], chunk.nnz
                ),
            });
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(StoreError::Invalid {
                path,
                detail: "row offsets are not monotonically non-decreasing".into(),
            });
        }
        Ok(chunk)
    }

    /// Load the global row range `rows` into one in-memory CSR matrix plus
    /// its label vector, touching only the intersecting chunks. The result
    /// is bit-identical to slicing the in-memory dataset: values and
    /// labels come back exactly as written.
    pub fn load_rows(&self, rows: Range<usize>) -> Result<(CsrMatrix, Vec<f32>), StoreError> {
        if rows.start > rows.end || rows.end > self.rows() {
            return Err(StoreError::Invalid {
                path: self.dir.clone(),
                detail: format!(
                    "row range {}..{} outside dataset of {} rows",
                    rows.start,
                    rows.end,
                    self.rows()
                ),
            });
        }
        let n = rows.end - rows.start;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut labels = Vec::with_capacity(n);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for i in self.intersecting_shards(&rows) {
            let shard_rows = self.shard_rows(i);
            let chunk = self.map_shard(i)?;
            let lo = rows.start.max(shard_rows.start) - shard_rows.start;
            let hi = rows.end.min(shard_rows.end) - shard_rows.start;
            let co = chunk.offsets();
            let base = co[lo] as usize;
            let end = co[hi] as usize;
            indices.extend_from_slice(&chunk.indices()[base..end]);
            values.extend_from_slice(&chunk.values()[base..end]);
            labels.extend_from_slice(&chunk.labels()[lo..hi]);
            let already = *offsets.last().expect("nonempty");
            offsets.extend(co[lo + 1..=hi].iter().map(|&o| already + (o as usize - base)));
        }
        let csr = CsrMatrix::from_raw(n, self.cols(), offsets, indices, values).map_err(|e| {
            StoreError::Invalid {
                path: self.dir.clone(),
                detail: format!("stored rows do not form a valid CSR: {e}"),
            }
        })?;
        Ok((csr, labels))
    }

    /// Load the whole dataset.
    pub fn load_all(&self) -> Result<(CsrMatrix, Vec<f32>), StoreError> {
        self.load_rows(0..self.rows())
    }

    /// Map and checksum every chunk; `Ok(())` means all bytes on disk are
    /// intact. Used by `scd shard inspect --verify`.
    pub fn verify(&self) -> Result<(), StoreError> {
        for i in 0..self.num_shards() {
            self.map_shard(i)?;
        }
        Ok(())
    }

    fn intersecting_shards(&self, rows: &Range<usize>) -> Range<usize> {
        if rows.start >= rows.end {
            return 0..0;
        }
        let first = self
            .row_starts
            .partition_point(|&s| s <= rows.start as u64)
            .saturating_sub(1);
        let last = self.row_starts.partition_point(|&s| s < rows.end as u64);
        first..last.min(self.num_shards())
    }
}

impl std::fmt::Debug for ShardedDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDataset")
            .field("dir", &self.dir)
            .field("rows", &self.index.rows)
            .field("cols", &self.index.cols)
            .field("nnz", &self.index.nnz)
            .field("shards", &self.index.shards.len())
            .finish()
    }
}

/// A fully validated, mapped chunk. The accessor slices are zero-copy
/// reinterpretations of the mapped bytes — sound because both backings
/// guarantee an 8-byte-aligned base and the layout aligns every section
/// to 8 (see [`crate::mmap`] and [`crate::layout`]).
pub struct MappedChunk {
    map: Mapping,
    layout: layout::ChunkLayout,
    rows: usize,
    nnz: usize,
}

impl std::fmt::Debug for MappedChunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedChunk")
            .field("rows", &self.rows)
            .field("nnz", &self.nnz)
            .field("mmap", &self.is_mmap())
            .finish()
    }
}

impl MappedChunk {
    /// Rows in this chunk.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Nonzeros in this chunk.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Whether the bytes come from a live `mmap` (false = heap copy).
    pub fn is_mmap(&self) -> bool {
        self.map.is_mmap()
    }

    /// Chunk-local CSR row offsets, `rows + 1` entries.
    pub fn offsets(&self) -> &[u64] {
        let b = &self.map.bytes()[self.layout.offsets.clone()];
        // SAFETY: section is 8-aligned within an 8-aligned base and holds
        // exactly (rows + 1) little-endian u64 (this build is LE-only by
        // the mmap platform gate; the heap path reads raw file bytes the
        // writer produced on the same machine).
        unsafe { std::slice::from_raw_parts(b.as_ptr() as *const u64, self.rows + 1) }
    }

    /// Labels, one per row.
    pub fn labels(&self) -> &[f32] {
        let b = &self.map.bytes()[self.layout.labels.clone()];
        // SAFETY: 4-aligned section (offset is a multiple of 8), f32 is POD.
        unsafe { std::slice::from_raw_parts(b.as_ptr() as *const f32, self.rows) }
    }

    /// Column indices for all rows, concatenated.
    pub fn indices(&self) -> &[u32] {
        let b = &self.map.bytes()[self.layout.indices.clone()];
        // SAFETY: 8-aligned section, u32 is POD.
        unsafe { std::slice::from_raw_parts(b.as_ptr() as *const u32, self.nnz) }
    }

    /// Values for all rows, concatenated.
    pub fn values(&self) -> &[f32] {
        let b = &self.map.bytes()[self.layout.values.clone()];
        // SAFETY: 8-aligned section, f32 is POD.
        unsafe { std::slice::from_raw_parts(b.as_ptr() as *const f32, self.nnz) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::ShardWriter;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("scd_store_reader_{name}_{}", std::process::id()))
    }

    /// 10 rows over 50 columns, chunks of 4 rows (4 + 4 + 2).
    fn write_fixture(dir: &Path) {
        let mut w = ShardWriter::create(dir, 50, 4).unwrap();
        for r in 0..10u32 {
            let cols = [r, r + 10, r + 30];
            let vals = [r as f32 + 0.5, 1.0, -2.0];
            w.push_row(&cols, &vals, if r % 2 == 0 { 1.0 } else { -1.0 }).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn roundtrip_whole_dataset() {
        let dir = tmp("roundtrip");
        write_fixture(&dir);
        for backing in [Backing::Heap, Backing::Mmap] {
            let ds = ShardedDataset::open_with(&dir, backing).unwrap();
            assert_eq!((ds.rows(), ds.cols(), ds.nnz()), (10, 50, 30));
            assert_eq!(ds.num_shards(), 3);
            assert_eq!(ds.shard_rows(0), 0..4);
            assert_eq!(ds.shard_rows(2), 8..10);
            let (csr, labels) = ds.load_all().unwrap();
            assert_eq!(csr.rows(), 10);
            assert_eq!(csr.nnz(), 30);
            assert_eq!(labels.len(), 10);
            for (r, &label) in labels.iter().enumerate() {
                let row = csr.row(r);
                let r32 = r as u32;
                assert_eq!(row.indices, &[r32, r32 + 10, r32 + 30]);
                assert_eq!(row.values, &[r as f32 + 0.5, 1.0, -2.0]);
                assert_eq!(label, if r % 2 == 0 { 1.0 } else { -1.0 });
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rows_slices_across_chunk_boundaries() {
        let dir = tmp("slices");
        write_fixture(&dir);
        let ds = ShardedDataset::open(&dir).unwrap();
        // 3..9 spans all three chunks partially.
        let (csr, labels) = ds.load_rows(3..9).unwrap();
        assert_eq!(csr.rows(), 6);
        assert_eq!(labels.len(), 6);
        for (local, global) in (3..9).enumerate() {
            let row = csr.row(local);
            let g = global as u32;
            assert_eq!(row.indices, &[g, g + 10, g + 30]);
            assert_eq!(row.values[0], global as f32 + 0.5);
        }
        // Empty range is fine.
        let (csr, labels) = ds.load_rows(5..5).unwrap();
        assert_eq!(csr.rows(), 0);
        assert!(labels.is_empty());
        // Out-of-range is a typed error.
        assert!(matches!(ds.load_rows(0..11), Err(StoreError::Invalid { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stored_bytes_track_intersecting_chunks() {
        let dir = tmp("bytes");
        write_fixture(&dir);
        let ds = ShardedDataset::open(&dir).unwrap();
        let all: u64 = (0..3).map(|i| ds.meta(i).file_bytes).sum();
        assert_eq!(ds.stored_bytes_for_rows(0..10), all);
        assert_eq!(ds.stored_bytes_for_rows(0..4), ds.meta(0).file_bytes);
        assert_eq!(ds.stored_bytes_for_rows(4..5), ds.meta(1).file_bytes);
        assert_eq!(
            ds.stored_bytes_for_rows(3..5),
            ds.meta(0).file_bytes + ds.meta(1).file_bytes
        );
        assert_eq!(ds.stored_bytes_for_rows(0..0), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_passes_on_intact_data() {
        let dir = tmp("verify");
        write_fixture(&dir);
        ShardedDataset::open(&dir).unwrap().verify().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_and_missing_index_are_io_errors() {
        let dir = tmp("missing");
        assert!(matches!(
            ShardedDataset::open(&dir),
            Err(StoreError::Io { .. })
        ));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            ShardedDataset::open(&dir),
            Err(StoreError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
