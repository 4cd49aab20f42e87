//! Per-request wall-time attribution for the traced pass.
//!
//! The traced pass drives a device request by request through
//! `Ssd::process` with one `Instant::now()` per request boundary. A
//! request during which `gc_stats().invocations` advanced is
//! *GC-carrying*: its wall time is a plain request of its kind plus the GC
//! rounds it triggered. Subtracting the plain mean of the same kind from
//! every GC-carrying request leaves the host time GC cost.

use cagc_workloads::OpKind;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Bucket {
    n: u64,
    ns: u64,
}

impl Bucket {
    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ns as f64 / self.n as f64
        }
    }
}

fn slot(kind: OpKind) -> usize {
    match kind {
        OpKind::Read => 0,
        OpKind::Write => 1,
        OpKind::Trim => 2,
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Requests during which no GC round started, by kind.
    plain: [Bucket; 3],
    /// GC-carrying requests, by kind.
    carrying: [Bucket; 3],
    gc_rounds: u64,
}

impl Attribution {
    pub fn record(&mut self, kind: OpKind, dur_ns: u64, gc_rounds_advanced: u64) {
        let b = if gc_rounds_advanced > 0 {
            self.gc_rounds += gc_rounds_advanced;
            &mut self.carrying[slot(kind)]
        } else {
            &mut self.plain[slot(kind)]
        };
        b.n += 1;
        b.ns += dur_ns;
    }

    pub fn merge(&mut self, other: &Attribution) {
        for k in 0..3 {
            self.plain[k].n += other.plain[k].n;
            self.plain[k].ns += other.plain[k].ns;
            self.carrying[k].n += other.carrying[k].n;
            self.carrying[k].ns += other.carrying[k].ns;
        }
        self.gc_rounds += other.gc_rounds;
    }

    /// Mean wall time of a request of `kind` that carried no GC.
    pub fn plain_ns_per_req(&self, kind: OpKind) -> f64 {
        self.plain[slot(kind)].mean()
    }

    /// Mean wall time of a GC-carrying write, GC included.
    pub fn gc_write_ns_per_req(&self) -> f64 {
        self.carrying[slot(OpKind::Write)].mean()
    }

    /// Wall time of all requests.
    pub fn wall_ns(&self) -> u64 {
        self.plain.iter().chain(&self.carrying).map(|b| b.ns).sum()
    }

    /// Wall time spent in GC: what GC-carrying requests took beyond a
    /// plain request of their kind.
    pub fn gc_ns(&self) -> f64 {
        (0..3)
            .map(|k| {
                let c = &self.carrying[k];
                (c.ns as f64 - c.n as f64 * self.plain[k].mean()).max(0.0)
            })
            .sum()
    }

    pub fn gc_ns_per_round(&self) -> f64 {
        if self.gc_rounds == 0 {
            0.0
        } else {
            self.gc_ns() / self.gc_rounds as f64
        }
    }

    pub fn gc_wall_share(&self) -> f64 {
        match self.wall_ns() {
            0 => 0.0,
            wall => self.gc_ns() / wall as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gc_carrying_writes_are_split_from_plain_ones() {
        let mut a = Attribution::default();
        // Plain traffic: reads 100 ns, writes 300 ns, one trim 50 ns.
        a.record(OpKind::Read, 100, 0);
        a.record(OpKind::Read, 100, 0);
        a.record(OpKind::Write, 200, 0);
        a.record(OpKind::Write, 400, 0);
        a.record(OpKind::Trim, 50, 0);
        // Two GC-carrying writes: one round, then three rounds at once.
        a.record(OpKind::Write, 1_300, 1);
        a.record(OpKind::Write, 3_300, 3);

        assert_eq!(
            a.plain[slot(OpKind::Write)].n + a.carrying[slot(OpKind::Write)].n,
            4
        );
        assert_eq!(a.gc_rounds, 4);
        assert_eq!(a.plain_ns_per_req(OpKind::Read), 100.0);
        assert_eq!(a.plain_ns_per_req(OpKind::Write), 300.0);
        assert_eq!(a.plain_ns_per_req(OpKind::Trim), 50.0);
        assert_eq!(a.gc_write_ns_per_req(), 2_300.0);
        // (1300 - 300) + (3300 - 300) = 4000 ns of GC over 4 rounds.
        assert_eq!(a.gc_ns(), 4_000.0);
        assert_eq!(a.gc_ns_per_round(), 1_000.0);
        assert_eq!(a.wall_ns(), 5_450);
        assert!((a.gc_wall_share() - 4_000.0 / 5_450.0).abs() < 1e-12);
    }

    #[test]
    fn no_gc_means_no_gc_time() {
        let mut a = Attribution::default();
        a.record(OpKind::Read, 80, 0);
        assert_eq!(a.gc_ns(), 0.0);
        assert_eq!(a.gc_ns_per_round(), 0.0);
        assert_eq!(a.gc_wall_share(), 0.0);
        assert_eq!(Attribution::default().gc_wall_share(), 0.0);
    }

    #[test]
    fn merge_adds_every_bucket() {
        let mut a = Attribution::default();
        a.record(OpKind::Write, 300, 0);
        a.record(OpKind::Write, 900, 2);
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.carrying[slot(OpKind::Write)], Bucket { n: 2, ns: 1_800 });
        assert_eq!(b.gc_rounds, 4);
        assert_eq!(b.wall_ns(), 2 * a.wall_ns());
        assert_eq!(b.gc_ns_per_round(), a.gc_ns_per_round());
    }
}
