//! Wall-clock cost of one epoch for every solver engine — the real
//! performance of this implementation on the host machine (the figures'
//! seconds axes use the calibrated hardware models instead).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpu_sim::{Gpu, GpuProfile};
use scd_bench::figdata::webspam_fig_small;
use scd_core::{AsyScd, AsyncSimScd, Form, ObjectiveKind, SequentialScd, Solver, TpaScd};
use std::hint::black_box;
use std::sync::Arc;

fn bench_single_node_epochs(c: &mut Criterion) {
    let problem = webspam_fig_small();
    let nnz = problem.csr().nnz() as u64;
    let mut group = c.benchmark_group("epoch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(nnz));

    group.bench_function("sequential_primal", |b| {
        let mut s = SequentialScd::primal(&problem, 1);
        b.iter(|| black_box(s.epoch(&problem)))
    });
    group.bench_function("sequential_dual", |b| {
        let mut s = SequentialScd::dual(&problem, 1);
        b.iter(|| black_box(s.epoch(&problem)))
    });
    group.bench_function("async_sim_atomic_16t", |b| {
        let mut s = AsyncSimScd::a_scd(&problem, Form::Primal, 1);
        b.iter(|| black_box(s.epoch(&problem)))
    });
    group.bench_function("async_sim_wild_16t", |b| {
        let mut s = AsyncSimScd::wild(&problem, Form::Primal, 1);
        b.iter(|| black_box(s.epoch(&problem)))
    });
    group.bench_function("tpa_scd_m4000_primal", |b| {
        let gpu = Arc::new(Gpu::new(GpuProfile::quadro_m4000()).with_host_threads(1));
        let mut s = TpaScd::new(&problem, Form::Primal, gpu, 1).unwrap();
        b.iter(|| black_box(s.epoch(&problem)))
    });
    group.bench_function("tpa_scd_m4000_dual", |b| {
        let gpu = Arc::new(Gpu::new(GpuProfile::quadro_m4000()).with_host_threads(1));
        let mut s = TpaScd::new(&problem, Form::Dual, gpu, 1).unwrap();
        b.iter(|| black_box(s.epoch(&problem)))
    });
    group.finish();
}

fn bench_objective_epochs(c: &mut Criterion) {
    let problem = webspam_fig_small();
    let mut group = c.benchmark_group("objective_epoch");
    group.sample_size(10);
    for kind in &ObjectiveKind::ALL[1..] {
        group.bench_function(kind.label(), |b| {
            let mut s = match kind.default_form() {
                Form::Primal => SequentialScd::primal(&problem, 1),
                Form::Dual => SequentialScd::dual(&problem, 1),
            }
            .with_objective(*kind);
            b.iter(|| black_box(s.epoch(&problem)))
        });
    }
    group.finish();
}

fn bench_asyscd_epoch(c: &mut Criterion) {
    // The [15] baseline: dense O(M) per coordinate update — really is
    // slower in wall clock too, not only under the simulated model.
    let problem = webspam_fig_small();
    let mut group = c.benchmark_group("asyscd");
    group.sample_size(10);
    group.bench_function("asyscd_epoch", |b| {
        let mut s = AsyScd::new(&problem, 1.0, 1).expect("Hessian fits");
        b.iter(|| black_box(s.epoch(&problem)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_node_epochs,
    bench_objective_epochs,
    bench_asyscd_epoch
);
criterion_main!(benches);
