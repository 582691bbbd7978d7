//! End-to-end store tests: bit-identity against the in-memory generator,
//! corruption detection on real files, and the bounded-RSS contract.

use scd_datasets::{criteo_like, CriteoSpec};
use scd_store::layout::{chunk_file_name, decode_index, encode_index, ShardMeta, INDEX_FILE};
use scd_store::{write_criteo, Backing, ShardedDataset, StoreError};
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("scd_store_it_{name}_{}", std::process::id()))
}

/// Write the shared criteo fixture: 200 rows × (6 fields × 32 values),
/// chunked every 64 rows → 4 chunks.
fn write_fixture(dir: &Path) {
    let spec = CriteoSpec::new(200, 6, 32, 42);
    write_criteo(dir, &spec, 64).unwrap();
}

#[test]
fn shards_are_bit_identical_to_in_memory_generator() {
    let dir = tmp("bit_identity");
    write_fixture(&dir);

    // The in-memory path: same parameters, same seed.
    let data = criteo_like(200, 6, 32, 42);
    let mem_csr = data.matrix.to_csr();

    for backing in [Backing::Heap, Backing::Mmap] {
        let ds = ShardedDataset::open_with(&dir, backing).unwrap();
        let (csr, labels) = ds.load_all().unwrap();
        assert_eq!(csr.rows(), mem_csr.rows());
        assert_eq!(csr.cols(), mem_csr.cols());
        assert_eq!(csr.nnz(), mem_csr.nnz());
        // Row-for-row, bit-for-bit: indices, value bits, label bits.
        assert_eq!(labels.len(), 200);
        for (r, (label, want)) in labels.iter().zip(&data.labels).enumerate() {
            let (a, b) = (csr.row(r), mem_csr.row(r));
            assert_eq!(a.indices, b.indices, "row {r} indices");
            let av: Vec<u32> = a.values.iter().map(|v| v.to_bits()).collect();
            let bv: Vec<u32> = b.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(av, bv, "row {r} value bits");
            assert_eq!(label.to_bits(), want.to_bits(), "row {r} label bits");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partition_load_equals_sliced_full_load() {
    let dir = tmp("partition");
    write_fixture(&dir);
    let ds = ShardedDataset::open(&dir).unwrap();
    let (full, labels) = ds.load_all().unwrap();
    // A worker-style partition crossing chunk boundaries.
    let (part, part_labels) = ds.load_rows(50..150).unwrap();
    assert_eq!(part.rows(), 100);
    for (local, global) in (50..150).enumerate() {
        let (a, b) = (part.row(local), full.row(global));
        assert_eq!(a.indices, b.indices);
        assert_eq!(a.values, b.values);
        assert_eq!(part_labels[local].to_bits(), labels[global].to_bits());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dataset_exceeds_writer_memory_by_4x() {
    let dir = tmp("bounded_rss");
    // Enough rows that chunking matters: 20k rows in 256-row chunks.
    let spec = CriteoSpec::new(20_000, 8, 64, 1);
    let s = write_criteo(&dir, &spec, 256).unwrap();
    assert!(
        s.disk_bytes >= 4 * s.buffered_high_water as u64,
        "disk {} < 4x buffered high-water {}",
        s.disk_bytes,
        s.buffered_high_water
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Corruption: every tampering mode yields a typed error, never a panic.
// ---------------------------------------------------------------------------

fn corrupt_at(path: &Path, offset: u64, xor: u8) {
    let mut f = OpenOptions::new().read(true).write(true).open(path).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(&[b[0] ^ xor]).unwrap();
}

fn truncate_to(path: &Path, len: u64) {
    OpenOptions::new()
        .write(true)
        .open(path)
        .unwrap()
        .set_len(len)
        .unwrap();
}

#[test]
fn truncated_chunk_is_detected_at_open() {
    let dir = tmp("trunc_chunk");
    write_fixture(&dir);
    let chunk = dir.join(chunk_file_name(1));
    let len = std::fs::metadata(&chunk).unwrap().len();
    truncate_to(&chunk, len - 100);
    // The open-time size sweep already catches it.
    match ShardedDataset::open(&dir) {
        Err(StoreError::Truncated { expected, found, .. }) => {
            assert_eq!(expected, len);
            assert_eq!(found, len - 100);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_chunk_magic_and_version_are_typed() {
    let dir = tmp("chunk_magic");
    write_fixture(&dir);
    let chunk = dir.join(chunk_file_name(0));
    corrupt_at(&chunk, 0, 0xFF); // magic byte
    let ds = ShardedDataset::open(&dir).unwrap(); // sizes still fine
    assert!(matches!(ds.map_shard(0), Err(StoreError::BadMagic { .. })));
    corrupt_at(&chunk, 0, 0xFF); // restore
    corrupt_at(&chunk, 8, 0x55); // version field
    let ds = ShardedDataset::open(&dir).unwrap();
    assert!(matches!(
        ds.map_shard(0),
        Err(StoreError::BadVersion { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn payload_corruption_is_a_checksum_mismatch() {
    let dir = tmp("payload");
    write_fixture(&dir);
    let chunk = dir.join(chunk_file_name(2));
    corrupt_at(&chunk, 200, 0x01); // one payload bit
    let ds = ShardedDataset::open(&dir).unwrap();
    assert!(matches!(
        ds.map_shard(2),
        Err(StoreError::ChecksumMismatch { .. })
    ));
    // verify() sweeps all chunks and hits it too; load_rows refuses to
    // hand out data from the bad chunk.
    assert!(ds.verify().is_err());
    assert!(ds.load_rows(100..200).is_err());
    // But rows entirely inside intact chunks still load.
    assert!(ds.load_rows(0..64).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn row_count_disagreement_is_typed() {
    let dir = tmp("rowcount");
    write_fixture(&dir);
    let chunk = dir.join(chunk_file_name(1));
    // Flip the low byte of the chunk header's rows field (offset 24):
    // the index still says 64, the chunk now claims something else.
    corrupt_at(&chunk, 24, 0x03);
    let ds = ShardedDataset::open(&dir).unwrap();
    match ds.map_shard(1) {
        Err(StoreError::RowCountMismatch {
            index_rows,
            chunk_rows,
            ..
        }) => {
            assert_eq!(index_rows, 64);
            assert_ne!(chunk_rows, 64);
        }
        other => panic!("expected RowCountMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_corruption_is_detected_at_open() {
    let dir = tmp("index");
    write_fixture(&dir);
    let index = dir.join(INDEX_FILE);

    corrupt_at(&index, 0, 0xFF);
    assert!(matches!(
        ShardedDataset::open(&dir),
        Err(StoreError::BadMagic { .. })
    ));
    corrupt_at(&index, 0, 0xFF); // restore

    corrupt_at(&index, 8, 0x20); // version
    assert!(matches!(
        ShardedDataset::open(&dir),
        Err(StoreError::BadVersion { .. })
    ));
    corrupt_at(&index, 8, 0x20); // restore

    corrupt_at(&index, 30, 0x01); // body byte → checksum breaks
    assert!(matches!(
        ShardedDataset::open(&dir),
        Err(StoreError::ChecksumMismatch { .. })
    ));
    corrupt_at(&index, 30, 0x01); // restore

    let len = std::fs::metadata(&index).unwrap().len();
    truncate_to(&index, len - 8);
    assert!(matches!(
        ShardedDataset::open(&dir),
        Err(StoreError::Truncated { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// A shard table re-sealed with a valid checksum but forged counts must be
/// refused at open, not discovered at load (or as an overflow panic).
#[test]
fn forged_shard_table_is_invalid_at_open() {
    let dir = tmp("forged");
    write_fixture(&dir);
    let index_path = dir.join(INDEX_FILE);
    let genuine = std::fs::read(&index_path).unwrap();
    let index = decode_index(&genuine, &index_path).unwrap();
    type Forge = fn(&mut [ShardMeta]);
    let forgeries: [(&str, Forge); 2] = [
        ("row counts whose sum wraps back to the header's 200", |shards| {
            shards[0].rows += 1 << 63;
            shards[1].rows += 1 << 63;
        }),
        ("counts that sum right but do not fit the recorded sizes", |shards| {
            shards[0].rows -= 1;
            shards[1].rows += 1;
        }),
    ];
    for (what, forge) in forgeries {
        let mut forged = index.clone();
        forge(&mut forged.shards);
        std::fs::write(&index_path, encode_index(&forged)).unwrap();
        match ShardedDataset::open(&dir) {
            Err(e @ StoreError::Invalid { .. }) => {
                assert!(!e.to_string().contains('\n'), "{what}: {e}")
            }
            other => panic!("{what}: expected Invalid, got {other:?}"),
        }
    }

    std::fs::write(&index_path, &genuine).unwrap();
    assert_eq!(ShardedDataset::open(&dir).unwrap().rows(), 200);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_error_formats_as_one_line() {
    let dir = tmp("one_line");
    write_fixture(&dir);
    corrupt_at(&dir.join(chunk_file_name(0)), 100, 0x01);
    let err = ShardedDataset::open(&dir).unwrap().map_shard(0).unwrap_err();
    let msg = err.to_string();
    assert!(!msg.contains('\n'), "multi-line error: {msg:?}");
    assert!(msg.contains("chunk-00000.scdc"), "no path in: {msg}");
    std::fs::remove_dir_all(&dir).ok();
}
