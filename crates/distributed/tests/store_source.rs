//! Store-backed clusters must be *bit-identical* to in-memory clusters:
//! same shards, same seed, same partitions → same weights, same gap, to
//! the last bit, for K ∈ {1, 2} and the paper's K=4.

use scd_core::{Form, RidgeProblem, Solver};
use scd_datasets::{criteo_like, CriteoSpec};
use scd_distributed::{
    BuildError, DistributedConfig, DistributedScd, PartitionStrategy,
};
use scd_store::{write_criteo, ShardedDataset};
use std::path::{Path, PathBuf};

const ROWS: usize = 160;
const FIELDS: usize = 5;
const CARDINALITY: usize = 24;
const SEED: u64 = 2017;
const LAMBDA: f64 = 1e-2;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("scd_dist_store_{name}_{}", std::process::id()))
}

fn write_shards(dir: &Path) -> ShardedDataset {
    let spec = CriteoSpec::new(ROWS, FIELDS, CARDINALITY, SEED);
    write_criteo(dir, &spec, 48).unwrap(); // 4 chunks, last one short
    ShardedDataset::open(dir).unwrap()
}

fn in_memory_problem() -> RidgeProblem {
    RidgeProblem::from_labelled(&criteo_like(ROWS, FIELDS, CARDINALITY, SEED), LAMBDA).unwrap()
}

fn contiguous_config(workers: usize) -> DistributedConfig {
    DistributedConfig::new(workers, Form::Dual)
        .with_strategy(PartitionStrategy::Contiguous)
        .with_seed(7)
}

#[test]
fn store_problem_is_bit_identical_to_in_memory() {
    let dir = tmp("problem");
    let store = write_shards(&dir);
    let (csr, labels) = store.load_all().unwrap();
    let from_store = RidgeProblem::new(csr, labels, LAMBDA).unwrap();
    let from_mem = in_memory_problem();
    assert_eq!(from_store.n(), from_mem.n());
    assert_eq!(from_store.m(), from_mem.m());
    for r in 0..ROWS {
        let (a, b) = (from_store.csr().row(r), from_mem.csr().row(r));
        assert_eq!(a.indices, b.indices);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.values), bits(b.values));
        assert_eq!(
            from_store.labels()[r].to_bits(),
            from_mem.labels()[r].to_bits()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn k4_training_from_store_matches_in_memory_bit_for_bit() {
    let dir = tmp("k4");
    let store = write_shards(&dir);
    let full = in_memory_problem();
    for workers in [1, 2, 4] {
        let config = contiguous_config(workers);
        let mut from_store = DistributedScd::from_store(&full, &store, &config).unwrap();
        let mut from_mem = DistributedScd::new(&full, &config).unwrap();
        for epoch in 0..5 {
            from_store.epoch(&full);
            from_mem.epoch(&full);
            let (ws, wm) = (from_store.weights(), from_mem.weights());
            assert_eq!(ws.len(), wm.len());
            for (i, (a, b)) in ws.iter().zip(&wm).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "K={workers} epoch {epoch} weight {i} diverged"
                );
            }
            let (gs, gm) = (from_store.duality_gap(&full), from_mem.duality_gap(&full));
            assert_eq!(gs.to_bits(), gm.to_bits(), "K={workers} epoch {epoch} gap");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_setup_charges_actual_chunk_bytes() {
    let dir = tmp("setup");
    let store = write_shards(&dir);
    let full = in_memory_problem();
    let config = contiguous_config(4);
    let dist = DistributedScd::from_store(&full, &store, &config).unwrap();
    let setup = dist.setup_cost();
    assert_eq!(setup.bytes_per_worker.len(), 4);
    // Each worker's bytes are the on-disk chunk files its row range maps.
    for (k, &bytes) in setup.bytes_per_worker.iter().enumerate() {
        let lo = k * ROWS / 4;
        let hi = (k + 1) * ROWS / 4;
        assert_eq!(bytes, store.stored_bytes_for_rows(lo..hi), "worker {k}");
        assert!(bytes > 0);
    }
    // All four workers together cover every chunk at least once; with
    // 48-row chunks and 40-row partitions, chunk 1 and 2 are each mapped
    // by two workers, so the distributed total exceeds the on-disk total.
    let on_disk: u64 = (0..store.num_shards())
        .map(|i| store.meta(i).file_bytes)
        .sum();
    assert!(setup.total_bytes() > on_disk);
    assert!(setup.network_seconds > 0.0);
    // Sequential workers move nothing over PCIe.
    assert_eq!(setup.pcie_seconds, 0.0);

    // The in-memory source estimates instead: same worker count, nonzero,
    // but not tied to chunk files.
    let mem = DistributedScd::new(&full, &config).unwrap();
    assert_eq!(mem.setup_cost().bytes_per_worker.len(), 4);
    assert!(mem.setup_cost().total_bytes() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn from_store_rejects_bad_configurations() {
    let dir = tmp("reject");
    let store = write_shards(&dir);
    let full = in_memory_problem();

    // Primal form: store partitions by example only.
    let primal = DistributedConfig::new(2, Form::Primal)
        .with_strategy(PartitionStrategy::Contiguous);
    assert!(matches!(
        DistributedScd::from_store(&full, &store, &primal),
        Err(BuildError::Config(_))
    ));

    // Non-contiguous strategy.
    let rr = DistributedConfig::new(2, Form::Dual).with_strategy(PartitionStrategy::RoundRobin);
    assert!(matches!(
        DistributedScd::from_store(&full, &store, &rr),
        Err(BuildError::Config(_))
    ));
    // The default (seed-derived random) strategy is rejected too.
    let default = DistributedConfig::new(2, Form::Dual);
    assert!(matches!(
        DistributedScd::from_store(&full, &store, &default),
        Err(BuildError::Config(_))
    ));

    // Shape mismatch: a problem with different dimensions.
    let other =
        RidgeProblem::from_labelled(&criteo_like(ROWS / 2, FIELDS, CARDINALITY, SEED), LAMBDA)
            .unwrap();
    let ok = contiguous_config(2);
    let Err(err) = DistributedScd::from_store(&other, &store, &ok) else {
        panic!("shape mismatch accepted");
    };
    assert!(matches!(err, BuildError::Config(_)));
    assert!(err.to_string().contains("does not match"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
