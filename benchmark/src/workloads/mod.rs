//! The five workloads. Each builds its inputs from the seed, runs timed
//! iterations through public APIs only, and in the traced pass times the
//! calls into each layer and reads the counters the reports export.

mod direct;
mod fleet_fanout;
mod host_chaos;
mod paper_grid;

use cagc_core::RunReport;
use cagc_flash::DeviceStats;
use cagc_workloads::{OpKind, Trace};

use crate::attrib::Attribution;
use crate::spans::Spans;

/// Span every workload wraps around exactly the work one iteration times.
pub const ITER_SPAN: &str = "iter";

/// Threads the load generator may use.
pub fn workers() -> usize {
    crate::provenance::nproc().min(4)
}

/// Simulated-device results of one iteration. Deterministic for a seed:
/// every iteration, pass and worker count must produce the same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFigures {
    pub read_p99_us: f64,
    pub gc_mean_us: f64,
    pub waf: f64,
    pub blocks_erased: f64,
    pub pages_migrated: f64,
}

impl SimFigures {
    /// Worst read p99, mean GC-period response time over the reports, and
    /// totals of programs / host pages, erases and migrations.
    pub fn of_reports<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> Self {
        let (mut p99, mut gc_mean, mut n) = (0u64, 0.0, 0usize);
        let (mut programs, mut host_pages, mut erased, mut migrated) = (0u64, 0u64, 0u64, 0u64);
        for r in reports {
            p99 = p99.max(r.reads.p99_ns);
            gc_mean += r.gc_period_mean_ns();
            n += 1;
            programs += r.total_programs;
            host_pages += r.host_pages_written;
            erased += r.gc.blocks_erased;
            migrated += r.gc.pages_migrated;
        }
        Self {
            read_p99_us: p99 as f64 / 1e3,
            gc_mean_us: gc_mean / n.max(1) as f64 / 1e3,
            waf: programs as f64 / host_pages.max(1) as f64,
            blocks_erased: erased as f64,
            pages_migrated: migrated as f64,
        }
    }
}

/// What one iteration did, for throughput figures and output checks.
#[derive(Debug, Clone, PartialEq)]
pub struct IterOutcome {
    /// Host requests replayed (prefill included).
    pub requests: u64,
    /// Simulated flash reads + programs + erases over all devices.
    pub flash_ops: u64,
    /// Requests that never reached a completion (torn or unissued).
    pub unfinished: u64,
    /// FNV-1a digest of every report and CSV the iteration rendered.
    pub digest: u64,
    pub sim: SimFigures,
}

/// Failed output checks of a run; any entry makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// An iteration must reproduce the reference (warm-up) iteration bit
    /// for bit: same rendered outputs, same simulated results, same work.
    pub fn same_outcome(&mut self, what: &str, reference: &IterOutcome, got: &IterOutcome) {
        self.require(got.digest == reference.digest, || {
            format!(
                "{what}: output digest {:016x} != reference {:016x}",
                got.digest, reference.digest
            )
        });
        self.require(got.sim == reference.sim, || {
            format!(
                "{what}: simulated results {:?} != reference {:?}",
                got.sim, reference.sim
            )
        });
        self.require(
            (got.requests, got.flash_ops, got.unfinished)
                == (
                    reference.requests,
                    reference.flash_ops,
                    reference.unfinished,
                ),
            || format!("{what}: request/flash-op counts differ from the reference"),
        );
    }
}

/// Per-layer values a traced pass measured, by catalogue name.
#[derive(Debug, Default)]
pub struct Layers(pub Vec<(&'static str, f64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::catalog::per_layer(name).is_some(),
            "unknown per-layer metric {name}"
        );
        debug_assert!(
            self.get(name).is_none(),
            "per-layer metric {name} set twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Operation counts of a single-device direct replay, from which
/// `est.*_share` multiplies out the probe costs.
pub struct EstCounts {
    pub wall_ns: f64,
    pub requests: u64,
    pub gc_period_requests: u64,
    pub host_pages_read: u64,
    pub host_pages_written: u64,
    pub stats: DeviceStats,
    /// Pages programmed and since invalidated.
    pub invalidations: u64,
    pub gc_rounds: u64,
    pub pages_migrated: u64,
    pub index_lookups: u64,
    pub index_hits: u64,
    pub index_inserts: u64,
}

pub trait Workload {
    /// One iteration, no per-request instrumentation. The timed part is
    /// the span [`ITER_SPAN`]; rendering digests and dropping the previous
    /// iteration's state happen outside it.
    fn iterate(&mut self, rec: &mut Spans) -> IterOutcome;

    /// Checks that need the state the last iteration left behind.
    fn finish(&mut self, checks: &mut Checks);

    /// The traced pass: spans around public calls, exact counts from the
    /// reports, and this workload's own output checks.
    fn traced(
        &mut self,
        rec: &mut Spans,
        layers: &mut Layers,
        checks: &mut Checks,
    ) -> Option<EstCounts>;
}

/// Build a workload's inputs from the seed (the first part of set-up; the
/// caller then runs the untimed warm-up iteration).
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_grid" => Box::new(paper_grid::PaperGrid::new(seed)),
        "gc_write_heavy" => Box::new(direct::Direct::gc_write_heavy(seed)),
        "read_mostly" => Box::new(direct::Direct::read_mostly(seed)),
        "host_chaos_traced" => Box::new(host_chaos::HostChaos::new(seed)),
        "fleet_fanout" => Box::new(fleet_fanout::FleetFanout::new(seed)),
        _ => return None,
    })
}

/// FNV-1a over the parts, with a separator so part boundaries matter.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for part in parts {
        part.bytes().for_each(&mut eat);
        eat(0xff);
    }
    h
}

/// Drive `ssd` request by request, one clock read per request boundary.
pub fn drive_traced(ssd: &mut cagc_core::Ssd, trace: &Trace) -> Attribution {
    let mut attr = Attribution::default();
    let mut prev = std::time::Instant::now();
    for req in &trace.requests {
        let rounds = ssd.gc_stats().invocations;
        ssd.process(req);
        let now = std::time::Instant::now();
        attr.record(
            req.kind,
            (now - prev).as_nanos() as u64,
            ssd.gc_stats().invocations - rounds,
        );
        prev = now;
    }
    attr
}

/// Per-request `core.*` figures of a traced drive.
pub fn set_core_attribution(layers: &mut Layers, attr: &Attribution) {
    layers.set("core.read_ns_per_req", attr.plain_ns_per_req(OpKind::Read));
    layers.set(
        "core.write_ns_per_req",
        attr.plain_ns_per_req(OpKind::Write),
    );
    layers.set("core.trim_ns_per_req", attr.plain_ns_per_req(OpKind::Trim));
    layers.set("core.gc_write_ns_per_req", attr.gc_write_ns_per_req());
    layers.set("core.gc_ns_per_round", attr.gc_ns_per_round());
    layers.set("core.gc_wall_share", attr.gc_wall_share());
}

/// Exact counts every workload reads from its device-level reports.
pub fn set_report_counts(layers: &mut Layers, reports: &[&RunReport]) {
    type Count = fn(&RunReport) -> u64;
    const COUNTS: [(&str, Count); 18] = [
        ("core.requests", |r| r.all.count),
        ("core.reads", |r| r.reads.count),
        ("core.writes", |r| r.writes.count),
        ("core.trims", |r| r.trims),
        ("core.gc_rounds", |r| r.gc.invocations),
        ("core.program_retries", |r| r.faults.program_retries),
        ("core.read_retries", |r| r.faults.read_retries),
        ("flash.programs", |r| r.total_programs),
        ("flash.erases", |r| r.total_erases),
        ("flash.program_failures", |r| r.faults.program_failures),
        ("flash.erase_failures", |r| r.faults.erase_failures),
        ("flash.read_ecc_errors", |r| r.faults.read_ecc_errors),
        ("flash.blocks_retired", |r| r.faults.blocks_retired),
        ("ftl.pages_migrated", |r| r.gc.pages_migrated),
        ("ftl.pages_scanned", |r| r.gc.pages_scanned),
        ("dedup.lookups", |r| r.index.lookups),
        ("dedup.hits", |r| r.index.hits),
        ("dedup.gc_dedup_hits", |r| r.gc.dedup_hits),
    ];
    let total = |f: Count| reports.iter().map(|r| f(r)).sum::<u64>();
    for (name, f) in COUNTS {
        layers.set(name, total(f) as f64);
    }
    layers.set(
        "ftl.migrated_per_erase",
        ratio(total(|r| r.gc.pages_migrated), total(|r| r.total_erases)),
    );
    layers.set(
        "dedup.hit_rate",
        ratio(total(|r| r.index.hits), total(|r| r.index.lookups)),
    );
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(digest: u64) -> IterOutcome {
        IterOutcome {
            requests: 10,
            flash_ops: 30,
            unfinished: 0,
            digest,
            sim: SimFigures {
                read_p99_us: 12.0,
                gc_mean_us: 40.0,
                waf: 1.5,
                blocks_erased: 3.0,
                pages_migrated: 9.0,
            },
        }
    }

    #[test]
    fn a_mismatching_digest_fails_the_run() {
        let mut checks = Checks::default();
        checks.same_outcome("iteration 1", &outcome(1), &outcome(1));
        assert!(checks.all_passed());
        assert_eq!(crate::exit_code(&checks), 0);

        checks.same_outcome("iteration 2", &outcome(1), &outcome(2));
        assert!(!checks.all_passed());
        assert!(checks.failures[0].contains("iteration 2: output digest"));
        assert_ne!(crate::exit_code(&checks), 0);
    }

    #[test]
    fn a_changed_simulated_result_fails_the_run() {
        let mut checks = Checks::default();
        let mut moved = outcome(1);
        moved.sim.waf = 1.5000001;
        checks.same_outcome("iteration 3", &outcome(1), &moved);
        assert_eq!(checks.failures.len(), 1);
        assert!(checks.failures[0].contains("simulated results"));
    }

    #[test]
    fn digest_depends_on_part_boundaries() {
        assert_eq!(digest(["ab", "c"]), digest(["ab", "c"]));
        assert_ne!(digest(["ab", "c"]), digest(["a", "bc"]));
        assert_ne!(digest(["abc"]), digest(["abd"]));
    }
}
