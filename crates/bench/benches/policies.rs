//! Microbenchmarks of Algorithm 1 and the listener — FlowCon's per-tick
//! scheduler cost (the paper's overhead discussion, §5 Remark).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowcon_core::algorithm::run_algorithm1;
use flowcon_core::config::FlowConConfig;
use flowcon_core::listener::Listener;
use flowcon_core::lists::Lists;
use flowcon_core::metric::GrowthMeasurement;
use flowcon_sim::rng::SimRng;
use flowcon_sim::ContainerId;

fn measurements(n: usize, seed: u64) -> Vec<GrowthMeasurement> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|i| GrowthMeasurement {
            id: ContainerId::from_raw(i as u32),
            progress: (rng.f64() > 0.1).then(|| rng.range_f64(0.0, 0.4)),
            avg_usage: flowcon_sim::ResourceVec::cpu(rng.range_f64(0.05, 1.0)),
            cpu_limit: rng.range_f64(0.05, 1.0),
        })
        .collect()
}

fn bench_algorithm1(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1");
    for n in [3usize, 10, 15, 100] {
        let ms = measurements(n, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &ms, |b, ms| {
            let config = FlowConConfig::default();
            b.iter_batched(
                || {
                    let mut lists = Lists::new();
                    for m in ms {
                        lists.insert_new(m.id);
                    }
                    lists
                },
                |mut lists| run_algorithm1(&config, &mut lists, std::hint::black_box(ms)),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_listener(c: &mut Criterion) {
    let ids: Vec<ContainerId> = (0..15).map(ContainerId::from_raw).collect();
    c.bench_function("listener_observe_steady", |b| {
        let mut listener = Listener::new();
        let mut lists = Lists::new();
        listener.observe(&ids, &mut lists);
        b.iter(|| listener.observe(std::hint::black_box(&ids), &mut lists))
    });
}

criterion_group!(benches, bench_algorithm1, bench_listener);
criterion_main!(benches);
