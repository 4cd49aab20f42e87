//! GC-cycle anatomy: reconstruct the paper's Fig. 8 decomposition —
//! victim_select / migrate_read / fingerprint / migrate_write / erase —
//! directly from a recorded span stream, with overlap attribution.
//!
//! The **GC wall** is the union of all GC container spans (`gc_round`,
//! `gc_slice`). Each phase's intervals are the spans the GC trace
//! context stamped (`migrate_read`, `fingerprint`, `migrate_write`,
//! `erase`), extended backwards by their recorded `queued_ns` — die
//! queueing *inside* a GC round is GC time spent waiting for the die,
//! not unaccounted time — and clipped to the wall. Per phase:
//!
//! * `busy_ns` — union length of the phase's clipped intervals;
//! * `exclusive_ns` — the portion covered by *only* this phase;
//! * `overlapped_ns` — `busy - exclusive`, i.e. time shared with another
//!   phase (the Sec. III-B pipelining the paper measures).
//!
//! `accounted_permille` is the fraction of the wall covered by any
//! phase; the verify gate requires ≥950 (95%), so a taxonomy change
//! that silently un-names GC work fails loudly.

use cagc_harness::{Json, ToJson};
use cagc_metrics::Table;

use crate::event::Track;
use crate::recording::Recording;
use crate::profile::{cells, intersect, subtract, total_len, union};

/// The Fig. 8 phase order. `victim_select` is an instant (a pure
/// metadata decision with no simulated duration), so it contributes a
/// call count only.
pub const GC_PHASES: [&str; 5] =
    ["victim_select", "migrate_read", "fingerprint", "migrate_write", "erase"];

/// `part` of `whole` in permille, 0 for an empty whole; the product is
/// taken in `u128`, so a wall near `u64::MAX` does not wrap it.
fn permille(part: u64, whole: u64) -> u64 {
    let p = (u128::from(part) * 1000).checked_div(u128::from(whole)).unwrap_or(0);
    u64::try_from(p).unwrap_or(u64::MAX)
}

/// What a name is to the anatomy, decided once per name.
#[derive(Clone, Copy)]
enum Role {
    /// A `gc_round` container, when a span on the GC track.
    Round,
    /// A `gc_slice` container, when a span on the GC track.
    Slice,
    /// A phase record, by position in [`GC_PHASES`].
    Phase(usize),
}

impl Role {
    fn of(name: &str) -> Option<Role> {
        Some(match name {
            "gc_round" => Role::Round,
            "gc_slice" => Role::Slice,
            "victim_select" => Role::Phase(0),
            "migrate_read" => Role::Phase(1),
            "fingerprint" => Role::Phase(2),
            "migrate_write" => Role::Phase(3),
            "erase" => Role::Phase(4),
            _ => return None,
        })
    }
}

/// Per-phase decomposition entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (one of [`GC_PHASES`]).
    pub name: &'static str,
    /// Spans (or instants) folded in.
    pub calls: u64,
    /// Union length of the phase's intervals inside the GC wall.
    pub busy_ns: u64,
    /// Portion of `busy_ns` covered by no other phase.
    pub exclusive_ns: u64,
    /// Portion of `busy_ns` shared with at least one other phase.
    pub overlapped_ns: u64,
}

/// The reconstructed GC-cycle decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcAnatomy {
    /// Union length of all GC container spans.
    pub gc_wall_ns: u64,
    /// `gc_round` container spans seen.
    pub rounds: u64,
    /// `gc_slice` container spans seen (preemptible GC quanta).
    pub slices: u64,
    /// Per-phase stats in [`GC_PHASES`] order.
    pub phases: Vec<PhaseStat>,
    /// Exact union length of all phase intervals inside the wall.
    pub covered_ns: u64,
    /// Wall coverage by any phase, in permille (0–1000).
    pub accounted_permille: u64,
}

impl GcAnatomy {
    /// Derive the anatomy from a record stream, reading it where it lies.
    pub fn from_spans(spans: &Recording) -> Self {
        let mut wall_ivs = Vec::new();
        let (mut rounds, mut slices) = (0u64, 0u64);
        // Phase intervals, queue-extended; clipped to the wall below.
        let mut phase_ivs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); GC_PHASES.len()];
        let mut calls = [0u64; GC_PHASES.len()];
        let names = spans.names();
        let roles: Vec<Option<Role>> = names.spellings().iter().map(|n| Role::of(n)).collect();
        let queued_key = names.id_of("queued_ns");
        spans.iter().for_each(|r| {
            let Some(role) = roles[usize::from(r.name_id())] else { return };
            let (start, end) = (r.ts_ns(), r.ts_ns() + r.dur_ns());
            let gc_span = r.is_span() && r.track() == Track::Gc;
            match role {
                Role::Round if gc_span => {
                    rounds += 1;
                    wall_ivs.push((start, end));
                }
                Role::Slice if gc_span => {
                    slices += 1;
                    wall_ivs.push((start, end));
                }
                Role::Round | Role::Slice => {}
                Role::Phase(p) => {
                    calls[p] += 1;
                    if r.is_span() {
                        let queued = r.arg_ids().find(|&(k, _)| Some(k) == queued_key).map_or(0, |a| a.1);
                        phase_ivs[p].push((start.saturating_sub(queued), end));
                    }
                }
            }
        });
        let wall = union(wall_ivs);
        let gc_wall_ns = total_len(&wall);
        let clipped: Vec<Vec<(u64, u64)>> = phase_ivs
            .into_iter()
            .map(|ivs| intersect(&union(ivs), &wall))
            .collect();

        let covered_ns = total_len(&union(clipped.iter().flatten().copied().collect()));
        let accounted_permille = permille(covered_ns, gc_wall_ns);

        let phases = GC_PHASES
            .iter()
            .enumerate()
            .map(|(p, &name)| {
                let busy_ns = total_len(&clipped[p]);
                let others =
                    union(clipped.iter().enumerate().filter(|&(q, _)| q != p).flat_map(
                        |(_, ivs)| ivs.iter().copied(),
                    ).collect());
                let exclusive_ns = total_len(&subtract(&clipped[p], &others));
                PhaseStat {
                    name,
                    calls: calls[p],
                    busy_ns,
                    exclusive_ns,
                    overlapped_ns: busy_ns - exclusive_ns,
                }
            })
            .collect();

        GcAnatomy { gc_wall_ns, rounds, slices, phases, covered_ns, accounted_permille }
    }

    /// One row per phase plus a `total` row carrying the wall, its
    /// covered length, and `accounted_permille`: the CSV export and the
    /// text `repro inspect` prints.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "phase", "calls", "busy_ns", "exclusive_ns", "overlapped_ns", "share_permille",
        ]);
        for p in &self.phases {
            let share = permille(p.busy_ns, self.gc_wall_ns);
            t.row(cells(p.name, [p.calls, p.busy_ns, p.exclusive_ns, p.overlapped_ns, share]));
        }
        t.row(cells(
            "total",
            [self.rounds + self.slices, self.gc_wall_ns, self.covered_ns, self.shared_ns(), self.accounted_permille],
        ));
        t
    }

    /// [`GcAnatomy::table`] as CSV.
    pub fn to_csv(&self) -> String {
        self.table().to_csv()
    }

    /// Wall time covered by two or more phases at once. Derived exactly:
    /// every overlapped interval is shared by ≥2 phases, and summing
    /// `overlapped_ns` counts each shared stretch once per participant.
    /// For the dominant pairwise case (read/hash/write pipelining against
    /// the long erase) `sum(overlapped)/2` is the shared length; deeper
    /// stacking makes this an upper bound, which is all the `total` row
    /// reports it as.
    fn shared_ns(&self) -> u64 {
        let sum: u128 = self.phases.iter().map(|p| u128::from(p.overlapped_ns)).sum();
        u64::try_from(sum / 2).unwrap_or(u64::MAX)
    }

    /// Per-phase deltas against another anatomy (`self` = A, `other` = B):
    /// columns `phase,calls_a,calls_b,busy_a_ns,busy_b_ns,delta_ns` plus a
    /// `gc_wall` row: *which phase* got slower, not just that the run
    /// did. The CSV export and the text `repro inspect --diff` prints.
    pub fn diff_table(&self, other: &GcAnatomy) -> Table {
        let mut t =
            Table::new(vec!["phase", "calls_a", "calls_b", "busy_a_ns", "busy_b_ns", "delta_ns"]);
        let rows = self.phases.iter().zip(&other.phases).map(|(a, b)| {
            (a.name, [a.calls, b.calls], [a.busy_ns, b.busy_ns])
        });
        let wall = (
            "gc_wall",
            [self.rounds + self.slices, other.rounds + other.slices],
            [self.gc_wall_ns, other.gc_wall_ns],
        );
        for (name, [calls_a, calls_b], [busy_a, busy_b]) in rows.chain([wall]) {
            let delta = i128::from(busy_b) - i128::from(busy_a);
            let mut row = cells(name, [calls_a, calls_b, busy_a, busy_b]);
            row.push(delta.to_string());
            t.row(row);
        }
        t
    }
}

impl ToJson for PhaseStat {
    fn to_json(&self) -> Json {
        Json::obj([
            ("phase", Json::Str(self.name.into())),
            ("calls", Json::U64(self.calls)),
            ("busy_ns", Json::U64(self.busy_ns)),
            ("exclusive_ns", Json::U64(self.exclusive_ns)),
            ("overlapped_ns", Json::U64(self.overlapped_ns)),
        ])
    }
}

impl ToJson for GcAnatomy {
    fn to_json(&self) -> Json {
        Json::obj([
            ("gc_wall_ns", Json::U64(self.gc_wall_ns)),
            ("rounds", Json::U64(self.rounds)),
            ("slices", Json::U64(self.slices)),
            ("accounted_permille", Json::U64(self.accounted_permille)),
            ("covered_ns", Json::U64(self.covered_ns)),
            (
                "phases",
                Json::Arr(self.phases.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recording::testing::{instant, recording, span, Spec};

    fn with_queue(mut rec: Spec, queued: u64) -> Spec {
        rec.3 = vec![("queued_ns", queued)];
        rec
    }

    fn die(name: &'static str, start: u64, end: u64, queued: u64) -> Spec {
        with_queue(span(Track::Die { channel: 0, die: 0 }, name, start, end), queued)
    }

    /// One synthetic GC round with full pipelining:
    /// wall [0,100]; read [0,20], hash [20,40] (queue-extended from 30),
    /// write [40,70], erase [60,100] overlapping the write by 10.
    fn round() -> Vec<Spec> {
        vec![
            span(Track::Gc, "gc_round", 0, 100),
            instant(Track::Gc, "victim_select", 0),
            die("migrate_read", 0, 20, 0),
            with_queue(span(Track::Hash, "fingerprint", 30, 40), 10),
            die("migrate_write", 40, 70, 0),
            die("erase", 60, 100, 0),
        ]
    }

    fn anatomy(specs: &[Spec]) -> GcAnatomy {
        GcAnatomy::from_spans(&recording(specs))
    }

    #[test]
    fn roles_follow_the_phase_order() {
        for (p, name) in GC_PHASES.into_iter().enumerate() {
            assert!(matches!(Role::of(name), Some(Role::Phase(q)) if q == p));
        }
        assert!(Role::of("dedup_drop").is_none());
        // Container names count only as spans on the GC track.
        let a = anatomy(&[
            span(Track::Gc, "gc_round", 0, 1),
            span(Track::Gc, "gc_slice", 0, 1),
            span(Track::Gc, "gc_slice", 1, 2),
            span(Track::Host, "gc_round", 0, 1),
            instant(Track::Gc, "gc_slice", 0),
        ]);
        assert_eq!((a.rounds, a.slices, a.gc_wall_ns), (1, 2, 2));
    }

    #[test]
    fn decomposition_is_exact_with_overlap_attribution() {
        let a = anatomy(&round());
        assert_eq!(a.gc_wall_ns, 100);
        assert_eq!(a.rounds, 1);
        assert_eq!(a.slices, 0);
        // read [0,20] + hash [20,40] + write [40,70] + erase [60,100]
        // cover the whole wall.
        assert_eq!(a.covered_ns, 100);
        assert_eq!(a.accounted_permille, 1000);
        let by = |n: &str| a.phases.iter().find(|p| p.name == n).unwrap();
        assert_eq!(by("victim_select").calls, 1);
        assert_eq!(by("victim_select").busy_ns, 0);
        assert_eq!(by("migrate_read").busy_ns, 20);
        assert_eq!(by("migrate_read").exclusive_ns, 20);
        // Queue extension pulled the hash back to [20,40].
        assert_eq!(by("fingerprint").busy_ns, 20);
        assert_eq!(by("migrate_write").busy_ns, 30);
        assert_eq!(by("migrate_write").overlapped_ns, 10);
        assert_eq!(by("erase").busy_ns, 40);
        assert_eq!(by("erase").overlapped_ns, 10);
        assert_eq!(by("erase").exclusive_ns, 30);
    }

    #[test]
    fn phase_time_outside_the_wall_is_clipped() {
        // Erase tail extends past the recorded round (shouldn't happen,
        // but the algebra must stay exact if it does).
        let spans = vec![
            span(Track::Gc, "gc_slice", 0, 50),
            die("erase", 40, 90, 0),
        ];
        let a = anatomy(&spans);
        assert_eq!(a.gc_wall_ns, 50);
        assert_eq!(a.slices, 1);
        let erase = a.phases.iter().find(|p| p.name == "erase").unwrap();
        assert_eq!(erase.busy_ns, 10);
        assert_eq!(a.accounted_permille, 200);
    }

    #[test]
    fn empty_stream_yields_zero_anatomy() {
        let a = anatomy(&[]);
        assert_eq!(a.gc_wall_ns, 0);
        assert_eq!(a.accounted_permille, 0);
        assert_eq!(a.phases.len(), 5);
        assert!(a.to_csv().lines().count() == 7); // header + 5 phases + total
    }

    #[test]
    fn csv_and_diff_are_deterministic() {
        let a = anatomy(&round());
        let b = anatomy(&round());
        assert_eq!(a.to_csv(), b.to_csv());
        assert!(a.to_csv().starts_with("phase,calls,busy_ns"));
        assert!(a.to_csv().contains("\ntotal,1,100,"));
        // Self-diff: every delta is zero.
        let d = a.diff_table(&b).to_csv();
        for line in d.lines().skip(1) {
            assert!(line.ends_with(",0"), "{line}");
        }
        // A slower erase shows as a positive delta on the erase row.
        let mut slow = round();
        slow[0] = span(Track::Gc, "gc_round", 0, 130);
        slow[5] = die("erase", 60, 130, 0);
        let d = a.diff_table(&anatomy(&slow)).to_csv();
        let erase_row: Vec<&str> =
            d.lines().find(|l| l.starts_with("erase")).unwrap().split(',').collect();
        assert_eq!(erase_row[5], "30");
        let wall_row: Vec<&str> =
            d.lines().find(|l| l.starts_with("gc_wall")).unwrap().split(',').collect();
        assert_eq!(wall_row[5], "30");
    }

    #[test]
    fn json_mirrors_the_struct() {
        let a = anatomy(&round());
        let text = a.to_json().render();
        assert!(text.starts_with(r#"{"gc_wall_ns":100,"rounds":1,"slices":0,"accounted_permille":1000"#));
        assert!(text.contains(r#"{"phase":"victim_select","calls":1"#));
    }
}
