//! Criterion bench for experiments L1/L2: the separator lemmas on large
//! pieces — the inner loop of algorithm X-TREE. Each guest is indexed once,
//! outside the timed loop, as the builder does, so a sample times one
//! lemma call: its walks and the copy of `part2`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use xtree_trees::{generate, lemma1_with, lemma2_with, NodeId, SeparatorScratch, TreeFamily};

fn bench_separators(c: &mut Criterion) {
    let mut group = c.benchmark_group("separator_lemmas");
    for n in [1024usize, 16384, 131072] {
        group.throughput(Throughput::Elements(n as u64));
        let tree = TreeFamily::RandomBst.generate_seeded(n, 7);
        // Nothing placed: the piece is the whole guest, with no
        // designated nodes.
        let placed = vec![false; n];
        let leaf = tree.nodes().find(|&v| tree.degree(v) == 1).unwrap();
        let delta = (n / 3) as u32;
        let mut scratch = SeparatorScratch::new(&tree);
        group.bench_with_input(BenchmarkId::new("lemma1", n), &n, |b, _| {
            b.iter(|| {
                black_box(lemma1_with(
                    &mut scratch,
                    &tree,
                    &placed,
                    [],
                    leaf,
                    leaf,
                    delta,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("lemma2", n), &n, |b, _| {
            b.iter(|| {
                black_box(lemma2_with(
                    &mut scratch,
                    &tree,
                    &placed,
                    [],
                    leaf,
                    leaf,
                    delta,
                ))
            })
        });
        // Path guests stress the walk length.
        let path = generate::path(n);
        let mut scratch = SeparatorScratch::new(&path);
        let end = NodeId(n as u32 - 1);
        group.bench_with_input(BenchmarkId::new("lemma2_path", n), &n, |b, _| {
            b.iter(|| {
                black_box(lemma2_with(
                    &mut scratch,
                    &path,
                    &placed,
                    [],
                    NodeId(0),
                    end,
                    delta,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_separators);
criterion_main!(benches);
