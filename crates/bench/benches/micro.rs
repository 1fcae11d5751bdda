//! Criterion micro-benchmarks for the hot paths of every substrate:
//! cache operations, Zipf sampling, shortest paths, the analytical model,
//! and the planners end-to-end at small/medium scale.

use cdn_cache::{Cache, GdsfCache, LruCache, ObjectKey};
use cdn_core::{Scenario, ScenarioConfig, Strategy};
use cdn_lru_model::{HitRatioTable, LruModel};
use cdn_placement::{greedy_global, hybrid::hybrid_greedy_paper, HybridConfig};
use cdn_topology::{bfs_hops, DistanceMatrix, TransitStubConfig, TransitStubTopology};
use cdn_workload::{SiteCatalog, WorkloadConfig, ZipfLike};
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(1));
    // Steady-state mixed workload: Zipf-popular keys over a 1000-object
    // universe in a cache holding ~200 of them.
    let zipf = ZipfLike::new(1000, 1.0);
    let mut rng = StdRng::seed_from_u64(1);
    let keys: Vec<ObjectKey> = (0..10_000)
        .map(|_| ObjectKey::new(0, zipf.sample(&mut rng) as u32))
        .collect();
    group.bench_function("lru_access_steady_state", |b| {
        let mut cache = LruCache::new(200 * 100);
        let mut i = 0;
        b.iter(|| {
            let key = keys[i % keys.len()];
            i += 1;
            black_box(cache.access(key, 100))
        })
    });
    group.bench_function("gdsf_access_steady_state", |b| {
        let mut cache = GdsfCache::new(200 * 100);
        let mut i = 0;
        b.iter(|| {
            let key = keys[i % keys.len()];
            i += 1;
            black_box(cache.access(key, 100))
        })
    });
    group.finish();
}

fn bench_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload");
    group.throughput(Throughput::Elements(1));
    let zipf = ZipfLike::new(1000, 1.0);
    let mut rng = StdRng::seed_from_u64(2);
    group.bench_function("zipf_sample_1000", |b| {
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
    group.sample_size(20);
    group.bench_function("catalog_generate_small", |b| {
        b.iter(|| black_box(SiteCatalog::generate(&WorkloadConfig::small(), 3)))
    });
    group.finish();
}

fn bench_topology(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology");
    group.sample_size(20);
    let topo = TransitStubTopology::generate(&TransitStubConfig::paper_default(), 1);
    group.bench_function("bfs_1560_nodes", |b| {
        b.iter(|| black_box(bfs_hops(&topo.graph, 7)))
    });
    group.bench_function("distance_matrix_50_hosts", |b| {
        let hosts: Vec<u32> = (0..50).map(|i| (i * 31) % 1560).collect();
        b.iter(|| black_box(DistanceMatrix::compute(&topo.graph, &hosts)))
    });
    group.bench_function("generate_paper_topology", |b| {
        b.iter(|| {
            black_box(TransitStubTopology::generate(
                &TransitStubConfig::paper_default(),
                2,
            ))
        })
    });
    group.finish();
}

fn bench_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru_model");
    let model = LruModel::new(1000, 1.0);
    group.bench_function("site_hit_ratio_exact_L1000", |b| {
        b.iter(|| black_box(model.site_hit_ratio(black_box(0.01), black_box(5000.0))))
    });
    group.bench_function("eviction_horizon_exact_B20k", |b| {
        b.iter(|| black_box(model.eviction_horizon(20_000, 0.8)))
    });
    group.bench_function("eviction_horizon_approx_B20k", |b| {
        b.iter(|| black_box(model.eviction_horizon_approx(20_000, 0.8)))
    });
    group.bench_function("top_b_mass_10_sites_B5000", |b| {
        let pops = [0.1f64; 10];
        b.iter(|| black_box(model.top_b_mass(&pops, 5000)))
    });
    group.bench_function("table_lookup_warm", |b| {
        let table = HitRatioTable::new(LruModel::new(1000, 1.0));
        table.site_hit_ratio(0.01, 5000.0); // warm the cell
        b.iter(|| black_box(table.site_hit_ratio(0.01, 5000.0)))
    });
    group.finish();
}

fn bench_planners(c: &mut Criterion) {
    let mut group = c.benchmark_group("planners");
    group.sample_size(10);
    let scenario = Scenario::generate(&ScenarioConfig::small());
    group.bench_function("greedy_global_small", |b| {
        b.iter(|| black_box(greedy_global(&scenario.problem)))
    });
    group.bench_function("hybrid_small", |b| {
        b.iter(|| {
            black_box(hybrid_greedy_paper(
                &scenario.problem,
                &HybridConfig::default(),
            ))
        })
    });
    group.bench_function("hybrid_small_exact_scan", |b| {
        let cfg = HybridConfig {
            exact_shrink_scan: true,
            ..Default::default()
        };
        b.iter(|| black_box(hybrid_greedy_paper(&scenario.problem, &cfg)))
    });
    let mut medium = ScenarioConfig::small();
    medium.hosts.n_servers = 12;
    medium.workload.m_sites = 40;
    medium.hosts.m_primaries = 40;
    let medium_scenario = Scenario::generate(&medium);
    group.bench_function("hybrid_medium_12x40", |b| {
        b.iter(|| {
            black_box(hybrid_greedy_paper(
                &medium_scenario.problem,
                &HybridConfig::default(),
            ))
        })
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    let scenario = Scenario::generate(&ScenarioConfig::small());
    let plan = scenario.plan(Strategy::Hybrid);
    let total = scenario.problem.grand_total();
    group.throughput(Throughput::Elements(total));
    group.bench_function("simulate_small_scenario", |b| {
        b.iter_batched(
            || plan.clone(),
            |p| black_box(scenario.simulate(&p)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("scenario_generate_small", |b| {
        b.iter(|| black_box(Scenario::generate(&ScenarioConfig::small())))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_workload,
    bench_topology,
    bench_model,
    bench_planners,
    bench_simulator,
    bench_end_to_end
);
criterion_main!(benches);
