//! Per-layer probes: isolated loops over one layer's public API at the
//! 1 GB geometry, reported as ns per operation. They do not depend on the
//! workload; a traced run repeats them so that every run carries the
//! figures its `est.*` shares are multiplied out from.
//!
//! Each probe takes the median of `REPS` repetitions, and a repetition is
//! at least a quarter of a million operations (SHA-1 over a 4 KiB page,
//! at about 10 us each, and the O(blocks) victim scans get fewer).

use std::hint::black_box;
use std::time::Instant;

use cagc_dedup::fpcache::FingerprintCache;
use cagc_dedup::sha1::Sha1;
use cagc_dedup::{ContentId, Fingerprint, FingerprintIndex};
use cagc_flash::{FlashDevice, PageOob, UllConfig};
use cagc_ftl::allocator::{Allocator, Region};
use cagc_ftl::victim::{VictimCandidate, VictimKind, VictimSelector};
use cagc_ftl::{MappingTable, ReverseMap};
use cagc_harness::{pool, Json};
use cagc_metrics::{Cdf, Histogram};
use cagc_sim::event::EventQueue;
use cagc_sim::timeline::TimelineGroup;
use cagc_trace::{TraceConfig, Tracer, Track};
use cagc_workloads::{interleave_n, parse_native, write_native, FiuWorkload, Trace};

use crate::stats::median;
use crate::workloads::{workers, Layers};

const REPS: usize = 4;

/// Nanoseconds per operation of one timed section.
fn per_op(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Median over `REPS` repetitions of a probe that reports several
/// per-operation figures at once.
fn medians<const N: usize>(mut rep: impl FnMut() -> [f64; N]) -> [f64; N] {
    let samples: Vec<[f64; N]> = (0..REPS).map(|_| rep()).collect();
    std::array::from_fn(|i| median(&samples.iter().map(|s| s[i]).collect::<Vec<_>>()))
}

/// Cheap deterministic index scrambler (an odd multiplier permutes any
/// power-of-two range; other ranges get a fixed pseudo-random walk).
fn scramble(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17
}

pub fn run_all(layers: &mut Layers) {
    flash(layers);
    ftl(layers);
    dedup(layers);
    sim(layers);
    metrics(layers);
    workloads(layers);
    trace(layers);
    harness(layers);
}

fn flash(layers: &mut Layers) {
    let cfg = UllConfig::scaled_gb(1);
    let geom = cfg.geometry();
    let (blocks, pages) = (geom.total_blocks(), u64::from(geom.pages_per_block));
    let total = u64::from(blocks) * pages;
    let mut dev = FlashDevice::new(geom, cfg.timing());
    let [program, read, invalidate, erase, victim] = medians(|| {
        let t = Instant::now();
        for b in 0..blocks {
            for p in 0..pages {
                let lpn = u64::from(b) * pages + p;
                black_box(
                    dev.program_next(b, 0, PageOob::host(lpn, None))
                        .expect("free page"),
                );
            }
        }
        let program = per_op(t, total);

        let t = Instant::now();
        for i in 0..total {
            black_box(dev.read(scramble(i) % total, 0).expect("programmed page"));
        }
        let read = per_op(t, total);

        // Leave block b with (b mod pages) valid pages, ask for the greedy
        // victim over that spread, then invalidate the rest.
        let t = Instant::now();
        let mut invalidated = 0u64;
        for b in 0..blocks {
            let keep = u64::from(b) % pages;
            for p in keep..pages {
                dev.invalidate(geom.ppn(b, p as u32), 0);
                invalidated += 1;
            }
        }
        let mut invalidate_ns = t.elapsed().as_nanos() as f64;

        const VICTIM_CALLS: u64 = 512;
        let t = Instant::now();
        for _ in 0..VICTIM_CALLS {
            black_box(black_box(&dev).greedy_full_victim());
        }
        let victim = per_op(t, VICTIM_CALLS);

        let t = Instant::now();
        for b in 0..blocks {
            for p in 0..u64::from(b) % pages {
                dev.invalidate(geom.ppn(b, p as u32), 0);
                invalidated += 1;
            }
        }
        invalidate_ns += t.elapsed().as_nanos() as f64;

        let t = Instant::now();
        for b in 0..blocks {
            black_box(dev.erase(b, 0).expect("no valid pages"));
        }
        let erase = per_op(t, u64::from(blocks));
        [
            program,
            read,
            invalidate_ns / invalidated as f64,
            erase,
            victim,
        ]
    });
    layers.set("flash.program_ns", program);
    layers.set("flash.read_ns", read);
    layers.set("flash.invalidate_ns", invalidate);
    layers.set("flash.erase_ns", erase);
    layers.set("flash.greedy_victim_ns", victim);
}

fn ftl(layers: &mut Layers) {
    let cfg = UllConfig::scaled_gb(1);
    let geom = cfg.geometry();
    let logical = cfg.logical_pages();
    let physical = geom.total_pages();

    const MAP_OPS: u64 = 1 << 20;
    let mut map = MappingTable::new(logical);
    let [map_ns] = medians(|| {
        let t = Instant::now();
        for i in 0..MAP_OPS {
            let lpn = scramble(i) % logical;
            black_box(map.set(lpn, i % physical));
            black_box(map.get(scramble(i + 1) % logical));
        }
        [per_op(t, MAP_OPS)]
    });
    layers.set("ftl.map_set_get_ns", map_ns);

    // Every page mapped once, relocated once (as GC migration does), then
    // unmapped.
    let half = physical / 2;
    let mut rmap = ReverseMap::new();
    let [add_remove, relocate] = medians(|| {
        let t = Instant::now();
        for ppn in 0..half {
            rmap.add(ppn, ppn);
        }
        let add_ns = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        for ppn in 0..half {
            rmap.relocate(ppn, ppn + half);
        }
        let relocate = per_op(t, half);
        let t = Instant::now();
        for ppn in 0..half {
            black_box(rmap.remove(ppn + half, ppn));
        }
        let remove_ns = t.elapsed().as_nanos() as f64;
        [(add_ns + remove_ns) / half as f64, relocate]
    });
    layers.set("ftl.rmap_add_remove_ns", add_remove);
    layers.set("ftl.rmap_relocate_ns", relocate);

    // Drain the foreground pool page by page, then return every block.
    let order = Allocator::die_interleaved_order(geom.total_blocks(), geom.blocks_per_die());
    let mut alloc =
        Allocator::with_block_order(order, geom.pages_per_block, geom.total_blocks() / 100);
    let mut taken = Vec::with_capacity(geom.total_blocks() as usize);
    let [alloc_ns] = medians(|| {
        let mut pages = 0u64;
        let t = Instant::now();
        while let Some(block) = alloc.alloc_page(Region::Host, false) {
            if taken.last() != Some(&block) {
                taken.push(block);
            }
            pages += 1;
        }
        let ns = per_op(t, pages);
        taken.drain(..).for_each(|b| alloc.release(b));
        [ns]
    });
    layers.set("ftl.alloc_page_ns", alloc_ns);

    // The scan the streaming victim path pays per GC round whenever faults
    // or tracing are on: one pass over every closed block.
    const CANDIDATES: u32 = 4096;
    const SELECTS: u64 = 256;
    let candidates: Vec<VictimCandidate> = (0..CANDIDATES)
        .map(|b| {
            let invalid = 1 + (scramble(u64::from(b)) % 63) as u32;
            VictimCandidate {
                block: b,
                valid: 64 - invalid,
                invalid,
                trimmed: invalid / 4,
                stranded: 0,
                pages: 64,
                erase_count: b % 7,
                last_modified: u64::from(b) * 1_000,
            }
        })
        .collect();
    for (name, kind) in [
        ("ftl.victim_greedy_ns_per_block", VictimKind::Greedy),
        (
            "ftl.victim_costbenefit_ns_per_block",
            VictimKind::CostBenefit,
        ),
    ] {
        let mut selector = VictimSelector::new(kind, 1);
        let [ns] = medians(|| {
            let t = Instant::now();
            for i in 0..SELECTS {
                black_box(selector.select(black_box(&candidates), 10_000_000 + i));
            }
            [per_op(t, SELECTS * u64::from(CANDIDATES))]
        });
        layers.set(name, ns);
    }
}

fn dedup(layers: &mut Layers) {
    const PAGES: u64 = 4096;
    let page = ContentId(42).synth_bytes(4096);
    let [sha1] = medians(|| {
        let t = Instant::now();
        for _ in 0..PAGES {
            black_box(Sha1::digest(black_box(&page)));
        }
        [per_op(t, PAGES)]
    });
    layers.set("dedup.sha1_page_ns", sha1);

    const IDS: u64 = 1 << 18;
    let [uncached] = medians(|| {
        let t = Instant::now();
        for i in 0..IDS {
            black_box(Fingerprint::of_content(ContentId(black_box(i))));
        }
        [per_op(t, IDS)]
    });
    layers.set("dedup.fp_uncached_ns", uncached);

    let mut cache = FingerprintCache::new();
    (0..IDS).for_each(|i| {
        cache.get_or_insert(ContentId(i));
    });
    const CACHED_OPS: u64 = 1 << 20;
    let [cached] = medians(|| {
        let t = Instant::now();
        for i in 0..CACHED_OPS {
            black_box(cache.get_or_insert(ContentId(scramble(i) % IDS)));
        }
        [per_op(t, CACHED_OPS)]
    });
    layers.set("dedup.fp_cached_ns", cached);

    // An index holding `RESIDENT` pages; `CHURN` more come and go.
    const RESIDENT: u64 = 200_000;
    const CHURN: u64 = 100_000;
    const LOOKUPS: u64 = 1 << 20;
    let fps: Vec<Fingerprint> = (0..RESIDENT + CHURN)
        .map(|i| Fingerprint::of_content(ContentId(i)))
        .collect();
    let mut index = FingerprintIndex::new();
    for (ppn, fp) in fps.iter().take(RESIDENT as usize).enumerate() {
        index.insert(*fp, ppn as u64, 1);
    }
    let [hit, miss, insert_release] = medians(|| {
        let t = Instant::now();
        for i in 0..LOOKUPS {
            black_box(index.lookup(&fps[(scramble(i) % RESIDENT) as usize]));
        }
        let hit = per_op(t, LOOKUPS);
        let t = Instant::now();
        for i in 0..LOOKUPS {
            black_box(index.lookup(&fps[(RESIDENT + scramble(i) % CHURN) as usize]));
        }
        let miss = per_op(t, LOOKUPS);
        let t = Instant::now();
        for ppn in RESIDENT..RESIDENT + CHURN {
            index.insert(fps[ppn as usize], ppn, 1);
        }
        for ppn in RESIDENT..RESIDENT + CHURN {
            black_box(index.release_ppn(ppn));
        }
        [hit, miss, per_op(t, CHURN)]
    });
    layers.set("dedup.index_hit_ns", hit);
    layers.set("dedup.index_miss_ns", miss);
    layers.set("dedup.index_insert_release_ns", insert_release);
}

fn sim(layers: &mut Layers) {
    const OPS: u64 = 1 << 22;
    let dies = UllConfig::scaled_gb(1).geometry().total_dies() as u64;
    let mut group = TimelineGroup::new(dies as usize);
    let [reserve] = medians(|| {
        let t = Instant::now();
        for i in 0..OPS {
            black_box(group.reserve((scramble(i) % dies) as usize, i * 500, 16_000));
        }
        [per_op(t, OPS)]
    });
    layers.set("sim.timeline_reserve_ns", reserve);

    // The host engine's steady state: a few dozen events outstanding.
    const EVENTS: u64 = 1 << 21;
    let mut queue: EventQueue<u32> = EventQueue::with_capacity(64);
    (0..32u64).for_each(|i| {
        queue.push(scramble(i) % 100_000, i as u32);
    });
    let [push_pop] = medians(|| {
        let t = Instant::now();
        for i in 0..EVENTS {
            let event = queue.pop().expect("queue never drains");
            queue.push(event.at + 1 + scramble(i) % 50_000, event.payload);
        }
        [per_op(t, EVENTS)]
    });
    layers.set("sim.event_push_pop_ns", push_pop);
}

fn metrics(layers: &mut Layers) {
    const RECORDS: u64 = 1 << 22;
    let mut hist = Histogram::new();
    let [record] = medians(|| {
        let t = Instant::now();
        for i in 0..RECORDS {
            hist.record(black_box(1_000 + scramble(i) % 10_000_000));
        }
        [per_op(t, RECORDS)]
    });
    layers.set("metrics.hist_record_ns", record);

    const REPORTS: u64 = 512;
    let [quantiles, cdf] = medians(|| {
        let t = Instant::now();
        for _ in 0..REPORTS {
            black_box(black_box(&hist).quantiles([0.50, 0.90, 0.95, 0.99, 0.999]));
        }
        let quantiles = per_op(t, REPORTS);
        let t = Instant::now();
        for _ in 0..REPORTS {
            black_box(Cdf::from_histogram(black_box(&hist)));
        }
        [quantiles / 1e3, per_op(t, REPORTS) / 1e3]
    });
    layers.set("metrics.quantiles_us", quantiles);
    layers.set("metrics.cdf_us", cdf);
}

fn workloads(layers: &mut Layers) {
    let logical = UllConfig::scaled_gb(1).logical_pages();
    let tenants: Vec<Trace> = (0..4u64)
        .map(|slot| {
            FiuWorkload::Homes
                .synth_config(logical / 4, 50_000, 100 + slot)
                .generate()
        })
        .collect();
    let text = write_native(&tenants[0]);
    let [parse] = medians(|| {
        let t = Instant::now();
        let parsed = parse_native("probe", logical, black_box(&text)).expect("round-trips");
        [per_op(t, parsed.requests.len() as u64)]
    });
    layers.set("workloads.parse_native_ns_per_req", parse);

    let refs: Vec<&Trace> = tenants.iter().collect();
    let [interleave] = medians(|| {
        let t = Instant::now();
        let merged = interleave_n(black_box(&refs));
        [per_op(t, merged.requests.len() as u64)]
    });
    layers.set("workloads.interleave_ns_per_req", interleave);
}

fn trace(layers: &mut Layers) {
    const SPANS: u64 = 1 << 18;
    let [enabled] = medians(|| {
        let mut tracer = Tracer::enabled(TraceConfig {
            max_events: SPANS as usize,
            ..TraceConfig::default()
        });
        let t = Instant::now();
        for i in 0..SPANS {
            tracer.span(
                Track::Host,
                "probe",
                i,
                i + 16_000,
                &[("lpn", i), ("pages", 4)],
            );
        }
        let ns = per_op(t, SPANS);
        assert_eq!(tracer.dropped_events(), 0);
        [ns]
    });
    layers.set("trace.span_enabled_ns", enabled);

    // The tax every untraced run pays at each recording site.
    const DISABLED: u64 = 1 << 24;
    let mut tracer = Tracer::disabled();
    let [disabled] = medians(|| {
        let t = Instant::now();
        for i in 0..DISABLED {
            black_box(&mut tracer).span(
                Track::Host,
                "probe",
                i,
                i + 16_000,
                &[("lpn", i), ("pages", 4)],
            );
        }
        [per_op(t, DISABLED)]
    });
    layers.set("trace.span_disabled_ns", disabled);
}

fn harness(layers: &mut Layers) {
    const CALLS: u64 = 64;
    let items = [0u32; 1024];
    let [dispatch] = medians(|| {
        let t = Instant::now();
        for _ in 0..CALLS {
            black_box(pool::map_ordered_dynamic(
                black_box(&items),
                workers(),
                |x| *x,
            ));
        }
        [per_op(t, CALLS) / 1e3]
    });
    layers.set("harness.pool_dispatch_us", dispatch);

    let doc = Json::Arr(
        (0..8_192u64)
            .map(|i| {
                Json::obj([
                    ("count", Json::U64(i)),
                    ("mean_ns", Json::F64(i as f64 * 1.25)),
                    ("workload", Json::Str(format!("tenant-{i}"))),
                    ("flags", Json::Arr(vec![Json::Bool(i % 2 == 0), Json::Null])),
                ])
            })
            .collect(),
    )
    .render();
    let [parse] = medians(|| {
        let t = Instant::now();
        black_box(Json::parse(black_box(&doc)).expect("rendered by the harness"));
        [doc.len() as f64 / 1e6 / t.elapsed().as_secs_f64()]
    });
    layers.set("harness.json_parse_mb_per_s", parse);
}
