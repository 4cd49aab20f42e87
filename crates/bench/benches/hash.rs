//! Fingerprint hashing microbenchmarks.
//!
//! Table I models the per-page fingerprint at 14 µs — these benches measure
//! what our software SHA-1 actually costs on the host CPU for
//! a 4 KiB page, serial and parallel, which grounds that parameter.

use cagc_dedup::{ContentId, Fingerprint, ParallelHasher, Sha1};
use cagc_harness::bench::{Bench, BenchmarkId, Throughput};

fn bench_hash_page(c: &mut Bench) {
    let page = ContentId(42).synth_bytes(4096);
    let mut g = c.benchmark_group("hash_4k_page");
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("sha1", |b| b.iter(|| Sha1::digest(std::hint::black_box(&page))));
    g.bench_function("fingerprint_of_content", |b| {
        b.iter(|| Fingerprint::of_content(std::hint::black_box(ContentId(42))))
    });
    g.finish();
}

fn bench_parallel_hash(c: &mut Bench) {
    // A victim block's worth of pages (64), hashed with various worker
    // counts — the data path the 14 µs hash engine abstracts.
    let pages: Vec<Vec<u8>> = (0..64).map(|i| ContentId(i).synth_bytes(4096)).collect();
    let mut g = c.benchmark_group("hash_victim_block_64_pages");
    g.throughput(Throughput::Bytes(64 * 4096));
    for workers in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            let hasher = ParallelHasher::new(w);
            b.iter(|| hasher.hash_pages(std::hint::black_box(&pages)))
        });
    }
    g.finish();
}

cagc_harness::harness_bench_main!(bench_hash_page, bench_parallel_hash);
