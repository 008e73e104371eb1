//! Criterion benchmarks for the quantitative extension experiments: the
//! scaling, churn, baseline and sorting sweeps of EXPERIMENTS.md, timed on
//! reduced parameter grids so `cargo bench` stays fast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use selfsim_algorithms::{minimum, sorting};
use selfsim_baselines::{FloodingAggregator, SnapshotAggregator};
use selfsim_env::{
    AgentId, Edge, EnvChanges, EnvDelta, EnvState, Environment, GroupIndex, RandomChurnEnv,
    StaticEnv, Topology,
};
use selfsim_runtime::{ExecutionMode, SyncConfig, SyncSimulator};
use selfsim_trace::EventLog;

fn values_for(n: usize) -> Vec<i64> {
    (0..n).map(|i| ((i as i64 * 37 + 11) % 199) + 1).collect()
}

/// E4 — full simulated run of min-consensus vs. number of agents.
fn e4_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4/minimum-static-ring");
    for &n in &[8usize, 16, 32, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let sys = minimum::system(&values_for(n), Topology::ring(n));
            b.iter(|| {
                let mut env = StaticEnv::new(Topology::ring(n));
                let report = SyncSimulator::with_seed(1).run(&sys, &mut env);
                black_box(report.rounds_to_convergence())
            })
        });
    }
    group.finish();
}

/// E5 — full simulated run of min-consensus vs. churn probability.
fn e5_churn(c: &mut Criterion) {
    let n = 32;
    let mut group = c.benchmark_group("e5/minimum-churn-ring32");
    for &p in &[0.2f64, 0.5, 1.0] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            let sys = minimum::system(&values_for(n), Topology::ring(n));
            b.iter(|| {
                let mut env = RandomChurnEnv::new(Topology::ring(n), p, 1.0);
                let report = SyncSimulator::with_seed(2).run(&sys, &mut env);
                black_box(report.rounds_to_convergence())
            })
        });
    }
    group.finish();
}

/// E7 — the three strategies (self-similar, snapshot, flooding) under churn.
fn e7_baselines(c: &mut Criterion) {
    let n = 16;
    let values = values_for(n);
    let p = 0.5;
    let mut group = c.benchmark_group("e7/strategies-complete16-churn0.5");
    group.bench_function("self-similar", |b| {
        let sys = minimum::system(&values, Topology::complete(n));
        b.iter(|| {
            let mut env = RandomChurnEnv::new(Topology::complete(n), p, 1.0);
            black_box(SyncSimulator::with_seed(3).run(&sys, &mut env).converged())
        })
    });
    group.bench_function("snapshot", |b| {
        b.iter(|| {
            let mut env = RandomChurnEnv::new(Topology::complete(n), p, 1.0);
            black_box(SnapshotAggregator::new(values.clone(), 20_000).run(
                &mut env,
                3,
                ExecutionMode::sync(),
                i64::min,
                &mut EventLog::disabled(),
            ))
        })
    });
    group.bench_function("flooding", |b| {
        b.iter(|| {
            let mut env = RandomChurnEnv::new(Topology::complete(n), p, 1.0);
            black_box(FloodingAggregator::new(values.clone(), 20_000).run(
                &mut env,
                3,
                ExecutionMode::sync(),
                i64::min,
                &mut EventLog::disabled(),
            ))
        })
    });
    group.finish();
}

/// Hot-path micro-benches: the convergence check (target multiset cached
/// per instance) and the full static-environment run (a static environment
/// keeps the round-1 partition, and its converged groups are elided as
/// fixpoints for the whole cooldown).
///
/// The kernels live in [`selfsim_bench::hotpath`] so the `bench_campaign`
/// binary (which emits `BENCH_3.json` in CI) times exactly this code.
fn hotpath(c: &mut Criterion) {
    use selfsim_bench::hotpath as kernels;

    let mut group = c.benchmark_group("hotpath");
    for &n in &[64usize, 256] {
        group.bench_with_input(BenchmarkId::new("is-converged", n), &n, |b, &n| {
            let kernel = kernels::IsConverged::new(n);
            b.iter(|| black_box(kernel.run()))
        });
    }
    group.bench_function("static-ring-128-cooldown-512", |b| {
        let kernel = kernels::StaticCooldown::new();
        b.iter(|| black_box(kernel.run()))
    });
    group.bench_function("adversary-ring-32-full-run", |b| {
        let kernel = kernels::AdversaryRun::new();
        b.iter(|| black_box(kernel.run()))
    });
    group.finish();
}

/// E15 — event-runtime scaling kernels at criterion-friendly sizes.
///
/// The kernels live in [`selfsim_bench::escale`] so the `escale` binary
/// (which emits `BENCH_10.json` in CI, sweeping up to a million agents)
/// times exactly this code.
fn escale(c: &mut Criterion) {
    use selfsim_bench::escale as kernels;

    let mut group = c.benchmark_group("escale");
    for kind in [
        kernels::EscaleTopology::CompleteStatic,
        kernels::EscaleTopology::PartitionedRing,
        kernels::EscaleTopology::RandomChurn,
    ] {
        for &n in &[1_000usize, 10_000] {
            group.bench_with_input(BenchmarkId::new(kind.label(), n), &n, |b, &n| {
                let kernel = kernels::EscaleRun::new(kind, n);
                b.iter(|| black_box(kernel.run()))
            });
        }
    }
    group.finish();
}

/// The flat connectivity core's group-maintenance kernels, isolated from
/// the simulators: full rescans (`reset_from_state`), the bounded
/// edge-down re-split plus edge-up merge round-trip, a scattered
/// churn-style batch, and the tiny-graph regime of the campaign's churn
/// cells (a fixed 10⁴-delta stream of an 8-agent ring under
/// `RandomChurnEnv(0.5, 0.9)`).  Each round-trip restores the index, so
/// iterations are independent without cloning it.
fn connectivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("connectivity");
    group.bench_function("churn-ring-8-stream", |b| {
        let ring = Topology::ring(8);
        let mut env = RandomChurnEnv::new(ring.clone(), 0.5, 0.9);
        let mut rng = StdRng::seed_from_u64(8);
        let stream: Vec<EnvDelta> = (0..10_000).map(|_| env.step_delta(&mut rng)).collect();
        let mut index = GroupIndex::new(&ring);
        b.iter(|| {
            for delta in &stream {
                match delta {
                    EnvDelta::Unchanged => {}
                    EnvDelta::AllEnabled => index.reset_all_enabled(),
                    EnvDelta::Full(state) => index.reset_from_state(state),
                    EnvDelta::Changes(changes) => index.apply_changes(changes),
                }
            }
            black_box(index.group_count())
        })
    });
    for &n in &[10_000usize, 100_000] {
        let ring = Topology::ring(n);
        // The two-block partition state: every edge except the two cross
        // edges, all agents.
        let cross = [
            Edge::new(AgentId(0), AgentId(n - 1)),
            Edge::new(AgentId(n / 2 - 1), AgentId(n / 2)),
        ];
        let partitioned = EnvState::new(
            n,
            ring.edges().iter().copied().filter(|e| !cross.contains(e)),
            ring.agents(),
        );
        group.bench_with_input(BenchmarkId::new("reset-from-state", n), &n, |b, _| {
            let mut index = GroupIndex::new(&ring);
            b.iter(|| {
                index.reset_from_state(&partitioned);
                black_box(index.group_count())
            })
        });
        group.bench_with_input(BenchmarkId::new("split-heal-roundtrip", n), &n, |b, _| {
            let mut index = GroupIndex::new(&ring);
            index.reset_all_enabled();
            let split = EnvChanges {
                edges_down: cross.to_vec(),
                ..EnvChanges::default()
            };
            let heal = EnvChanges {
                edges_up: cross.to_vec(),
                ..EnvChanges::default()
            };
            b.iter(|| {
                index.apply_changes(&split);
                index.apply_changes(&heal);
                black_box(index.group_count())
            })
        });
        group.bench_with_input(BenchmarkId::new("churn-batch-64", n), &n, |b, _| {
            let mut index = GroupIndex::new(&ring);
            index.reset_all_enabled();
            let scattered: Vec<Edge> = (0..64)
                .map(|k| {
                    let i = k * (n / 64);
                    Edge::new(AgentId(i), AgentId((i + 1) % n))
                })
                .collect();
            let down = EnvChanges {
                edges_down: scattered.clone(),
                ..EnvChanges::default()
            };
            let up = EnvChanges {
                edges_up: scattered,
                ..EnvChanges::default()
            };
            b.iter(|| {
                index.apply_changes(&down);
                index.apply_changes(&up);
                black_box(index.group_count())
            })
        });
    }
    group.finish();
}

/// E9 — sorting runs on a churning line, by size.
fn e9_sorting(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9/sorting-churning-line");
    for &n in &[8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let values: Vec<i64> = (1..=n as i64).rev().collect();
            let sys = sorting::system(&values);
            b.iter(|| {
                let mut env = RandomChurnEnv::new(Topology::line(n), 0.5, 1.0);
                let report = SyncSimulator::new(SyncConfig {
                    max_rounds: 500_000,
                    seed: 4,
                    ..SyncConfig::default()
                })
                .run(&sys, &mut env);
                black_box(report.rounds_to_convergence())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = experiments;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = e4_scaling, e5_churn, e7_baselines, e9_sorting, hotpath, escale, connectivity
}
criterion_main!(experiments);
