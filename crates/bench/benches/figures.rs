//! Criterion regression benches for the paper's figures, one per
//! table/figure: each measures the wall-clock of regenerating a
//! small-scale version of that experiment, so performance regressions in
//! the simulator or the algorithms show up in `cargo bench`. The
//! full-scale figure data comes from the `gcol-bench` CLI (see
//! EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, Criterion};
use gcol_bench::experiments::{self, ExpConfig};
use gcol_bench::suite::build_graph;
use gcol_core::{ColorOptions, Scheme};
use gcol_simt::Device;
use std::hint::black_box;

fn cfg() -> ExpConfig {
    ExpConfig {
        scale: 11,
        ..ExpConfig::default()
    }
}

fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1-suite-build+stats", |b| {
        b.iter(|| {
            gcol_bench::suite::build_suite(black_box(11))
                .iter()
                .map(|e| e.stats().num_edges)
                .sum::<usize>()
        })
    });
}

fn bench_fig1(c: &mut Criterion) {
    let g = build_graph("rmat-er", 11);
    let dev = Device::k20c();
    let mut group = c.benchmark_group("fig1-motivation");
    group.sample_size(10);
    group.bench_function("3-step-gm", |b| {
        b.iter(|| {
            Scheme::ThreeStepGm
                .color(black_box(&g), &dev, &ColorOptions::default())
                .num_colors
        })
    });
    group.bench_function("csrcolor", |b| {
        b.iter(|| {
            Scheme::CsrColor
                .color(black_box(&g), &dev, &ColorOptions::default())
                .num_colors
        })
    });
    group.finish();
}

fn bench_fig3(c: &mut Criterion) {
    let g = build_graph("thermal2", 11);
    let dev = Device::k20c();
    c.bench_function("fig3-topo-base-profile", |b| {
        b.iter(|| {
            let r = Scheme::TopoBase.color(black_box(&g), &dev, &ColorOptions::default());
            r.profile.aggregate_kernel_metrics().unwrap().0
        })
    });
}

fn bench_fig67(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6+7-schemes");
    group.sample_size(10);
    let g = build_graph("rmat-er", 11);
    let dev = Device::k20c();
    for scheme in Scheme::paper_seven() {
        group.bench_function(scheme.name(), |b| {
            b.iter(|| {
                scheme
                    .color(black_box(&g), &dev, &ColorOptions::default())
                    .num_colors
            })
        });
    }
    group.finish();
}

fn bench_fig8(c: &mut Criterion) {
    let g = build_graph("atmosmodd", 11);
    let dev = Device::k20c();
    let mut group = c.benchmark_group("fig8-block-sizes");
    group.sample_size(10);
    for block in [32u32, 128, 512] {
        group.bench_function(format!("{block}t"), |b| {
            let o = ColorOptions {
                block_size: block,
                ..ColorOptions::default()
            };
            b.iter(|| Scheme::DataLdg.color(black_box(&g), &dev, &o).num_colors)
        });
    }
    group.finish();
}

fn bench_suite_runner(c: &mut Criterion) {
    let mut group = c.benchmark_group("harness");
    group.sample_size(10);
    group.bench_function("fig7-two-schemes-scale11", |b| {
        b.iter(|| {
            experiments::run_suite_schemes(&cfg(), &[Scheme::Sequential, Scheme::DataLdg]).len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_table1,
    bench_fig1,
    bench_fig3,
    bench_fig67,
    bench_fig8,
    bench_suite_runner
);
criterion_main!(benches);
