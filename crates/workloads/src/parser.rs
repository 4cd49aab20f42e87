//! Trace file parsing and writing.
//!
//! Two text formats:
//!
//! * **Native** — one request per line, written and read by this crate:
//!   ```text
//!   # time_us  op  lpn  pages  [contents]
//!   0      W  128  2  17,17
//!   1500   R  128  2
//!   2000   T  128  2
//!   ```
//!   Contents are comma-separated decimal content ids, one per page,
//!   required for `W`, forbidden otherwise.
//!
//! * **FIU-style** — the layout of the SyLab "IODedup" traces the paper
//!   replays (`ts pid process lba size op major minor hash`), where `lba`
//!   is in 512-byte sectors, `size` in sectors, and `hash` is the per-4KB
//!   content hash. Only the fields the simulator needs are consumed; the
//!   hash string is folded to a [`ContentId`]. This lets the real traces
//!   drop in when available.

use crate::trace::{OpKind, RequestView, Requests, Trace};
use cagc_dedup::ContentId;

/// A parse failure with its line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

/// Room for every request `text` can hold (one per line) and every
/// content id (one per comma, plus one per line).
fn reserve(text: &str) -> Requests {
    let (mut lines, mut commas) = (1, 0);
    for b in text.bytes() {
        lines += usize::from(b == b'\n');
        commas += usize::from(b == b',');
    }
    Requests::with_capacity(lines, lines + commas)
}

/// Parse the native format. `logical_pages` bounds the trace's space.
pub fn parse_native(name: &str, logical_pages: u64, text: &str) -> Result<Trace, ParseError> {
    let mut requests = reserve(text);
    let mut contents = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let time_us: u64 = fields
            .next()
            .ok_or_else(|| err(lineno, "missing time"))?
            .parse()
            .map_err(|e| err(lineno, format!("bad time: {e}")))?;
        let op = fields.next().ok_or_else(|| err(lineno, "missing op"))?;
        let lpn: u64 = fields
            .next()
            .ok_or_else(|| err(lineno, "missing lpn"))?
            .parse()
            .map_err(|e| err(lineno, format!("bad lpn: {e}")))?;
        let pages: u32 = fields
            .next()
            .ok_or_else(|| err(lineno, "missing pages"))?
            .parse()
            .map_err(|e| err(lineno, format!("bad pages: {e}")))?;
        let at_ns = time_us
            .checked_mul(1_000)
            .ok_or_else(|| err(lineno, format!("time {time_us} us overflows u64 ns")))?;
        if lpn.checked_add(u64::from(pages)).is_none_or(|end| end > logical_pages) {
            return Err(err(
                lineno,
                format!("{pages} pages at lpn {lpn} reach beyond logical space {logical_pages}"),
            ));
        }
        contents.clear();
        let req = match op {
            "R" => RequestView::read(at_ns, lpn, pages),
            "T" => RequestView::trim(at_ns, lpn, pages),
            "W" => {
                let contents_field =
                    fields.next().ok_or_else(|| err(lineno, "write missing contents"))?;
                for c in contents_field.split(',') {
                    let id = c.parse().map_err(|e| err(lineno, format!("bad content id: {e}")))?;
                    contents.push(ContentId(id));
                }
                if contents.len() != pages as usize {
                    return Err(err(
                        lineno,
                        format!("{} contents for {} pages", contents.len(), pages),
                    ));
                }
                RequestView { at_ns, kind: OpKind::Write, lpn, pages, contents: &contents }
            }
            other => return Err(err(lineno, format!("unknown op `{other}`"))),
        };
        if let Some(extra) = fields.next() {
            return Err(err(lineno, format!("trailing field `{extra}`")));
        }
        requests.push(req).map_err(|m| err(lineno, m))?;
    }
    Trace::from_requests(name, logical_pages, requests).map_err(|m| err(0, m))
}

/// Render a trace in the native format (round-trips through
/// [`parse_native`]).
pub fn write_native(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("# time_us op lpn pages [contents]\n");
    for r in &trace.requests {
        let t = r.at_ns / 1_000;
        match r.kind {
            OpKind::Read => out.push_str(&format!("{t} R {} {}\n", r.lpn, r.pages)),
            OpKind::Trim => out.push_str(&format!("{t} T {} {}\n", r.lpn, r.pages)),
            OpKind::Write => {
                let contents: Vec<String> =
                    r.contents.iter().map(|c| c.0.to_string()).collect();
                out.push_str(&format!("{t} W {} {} {}\n", r.lpn, r.pages, contents.join(",")));
            }
        }
    }
    out
}

/// Parse an FIU SyLab-style line set.
///
/// Layout per line: `ts_ns pid process lba_sectors size_sectors op major
/// minor hash` with `op` ∈ {R, W} (case-insensitive). Sector addresses are
/// converted to 4 KB pages (8 sectors/page, rounded down/up to cover the
/// extent); each written page receives the line's content hash. Lines may
/// come in any order: requests are sorted by timestamp (stably) and
/// rebased to the earliest one.
pub fn parse_fiu(name: &str, logical_pages: u64, text: &str) -> Result<Trace, ParseError> {
    const SECTORS_PER_PAGE: u64 = 8;
    let mut requests = reserve(text);
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 9 {
            return Err(err(lineno, format!("expected 9 fields, got {}", f.len())));
        }
        let ts: u64 =
            f[0].parse().map_err(|e| err(lineno, format!("bad timestamp: {e}")))?;
        let lba: u64 = f[3].parse().map_err(|e| err(lineno, format!("bad lba: {e}")))?;
        let sectors: u64 =
            f[4].parse().map_err(|e| err(lineno, format!("bad size: {e}")))?;
        if sectors == 0 {
            return Err(err(lineno, "zero-sector request"));
        }
        let last_sector = lba
            .checked_add(sectors - 1)
            .ok_or_else(|| err(lineno, format!("{sectors} sectors at lba {lba} overflow u64")))?;
        let first_page = lba / SECTORS_PER_PAGE;
        let lpn = first_page % logical_pages.max(1);
        // Clamp the extent to the logical space in u64, then narrow.
        let pages = (last_sector / SECTORS_PER_PAGE - first_page + 1)
            .min(logical_pages.saturating_sub(lpn))
            .max(1);
        let pages = u32::try_from(pages)
            .map_err(|_| err(lineno, format!("extent of {pages} pages exceeds u32")))?;
        let pushed = match f[5] {
            "R" | "r" => requests.push(RequestView::read(ts, lpn, pages)),
            "W" | "w" => {
                // Hash string -> ContentId: fold the hex (or arbitrary
                // string) into 64 bits. Per-page uniqueness within a
                // multi-page request: offset the id by page index, matching
                // how the FIU collector hashed 4KB units.
                let base = fold_hash(f[8]);
                let contents = (0..u64::from(pages)).map(|p| ContentId(base ^ p));
                requests.push_write(ts, lpn, pages, contents)
            }
            other => return Err(err(lineno, format!("unknown op `{other}`"))),
        };
        pushed.map_err(|m| err(lineno, m))?;
    }
    requests.sort_by_arrival();
    let t0 = requests.first().map_or(0, |r| r.at_ns);
    requests.retime(|ts| ts - t0);
    Trace::from_requests(name, logical_pages, requests).map_err(|m| err(0, m))
}

/// Fold an arbitrary hash string to 64 bits (FNV-1a).
fn fold_hash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_round_trip() {
        let text = "\
# a comment
0 W 10 2 5,6

1500 R 10 2
2000 T 10 2
";
        let t = parse_native("rt", 100, text).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.requests.get(0).unwrap().contents, vec![ContentId(5), ContentId(6)]);
        assert_eq!(t.requests.get(1).unwrap().at_ns, 1_500_000);
        let rendered = write_native(&t);
        let t2 = parse_native("rt", 100, &rendered).unwrap();
        assert_eq!(t.requests, t2.requests);
    }

    #[test]
    fn native_rejects_bad_input_with_line_numbers() {
        assert_eq!(parse_native("x", 10, "0 W 0 1").unwrap_err().line, 1);
        assert_eq!(parse_native("x", 10, "0 R 0 1\n5 Q 0 1").unwrap_err().line, 2);
        assert!(parse_native("x", 10, "0 W 0 2 1")
            .unwrap_err()
            .message
            .contains("1 contents for 2 pages"));
        assert!(parse_native("x", 10, "0 R 0 1 zz").unwrap_err().message.contains("trailing"));
        assert!(parse_native("x", 10, "abc R 0 1").unwrap_err().message.contains("bad time"));
    }

    #[test]
    fn native_rejects_overflowing_values_naming_the_line() {
        let e = parse_native("x", 10, "0 R 0 1\n0 R 18446744073709551615 1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("beyond logical space"), "{}", e.message);
        let e = parse_native("x", 10, "18446744073709552 R 0 1").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("overflows"), "{}", e.message);
    }

    #[test]
    fn native_rejects_time_regression_via_validate() {
        let e = parse_native("x", 10, "5 R 0 1\n1 R 0 1").unwrap_err();
        assert!(e.message.contains("backwards"));
    }

    #[test]
    fn fiu_style_lines_parse() {
        let text = "\
1000000 321 mailsrv 80 16 W 8 1 4af1c56b9d
2000000 321 mailsrv 80 16 R 8 1 0
3000000 321 mailsrv 96 8 W 8 1 4af1c56b9d
";
        let t = parse_fiu("fiu", 1_000, text).unwrap();
        assert_eq!(t.len(), 3);
        // 80 sectors / 8 = page 10; 16 sectors = 2 pages.
        assert_eq!(t.requests.get(0).unwrap().lpn, 10);
        assert_eq!(t.requests.get(0).unwrap().pages, 2);
        // Identical hash => first page of request 3 duplicates page 10's
        // content.
        assert_eq!(t.requests.get(2).unwrap().contents[0], t.requests.get(0).unwrap().contents[0]);
        // Timestamps are rebased to the earliest record.
        assert_eq!(t.requests.get(0).unwrap().at_ns, 0);
        assert_eq!(t.requests.get(1).unwrap().at_ns, 1_000_000);
    }

    #[test]
    fn fiu_rebases_to_the_earliest_line_not_the_first() {
        let text = "\
2000 1 p 0 8 W 8 1 a
1000 1 p 8 8 W 8 1 b
3000 1 p 16 8 R 8 1 0
";
        let t = parse_fiu("fiu", 100, text).unwrap();
        let got: Vec<(u64, u64)> = t.requests.iter().map(|r| (r.at_ns, r.lpn)).collect();
        assert_eq!(got, [(0, 1), (1_000, 0), (2_000, 2)]);
    }

    #[test]
    fn fiu_rejects_malformed() {
        assert!(parse_fiu("x", 100, "1 2 3").is_err());
        assert!(parse_fiu("x", 100, "1 p m 0 0 W 8 1 h").unwrap_err().message.contains("zero"));
        assert!(parse_fiu("x", 100, "1 p m 0 8 X 8 1 h").unwrap_err().message.contains("unknown op"));
        let e = parse_fiu("x", 1 << 40, "1 p m 0 8 W 8 1 h\n1 p m 18446744073709551615 16 W 8 1 h")
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("overflow"), "{}", e.message);
    }

    #[test]
    fn fiu_extents_clamp_in_u64_before_narrowing() {
        // A 2^32-page read clamps to the logical space rather than wrapping
        // to 0 pages and then to 1.
        let t = parse_fiu("x", 100, "1 p m 0 34359738368 R 8 1 h").unwrap();
        assert_eq!(t.requests.get(0).unwrap().pages, 100);
        // Where the logical space is wider than a u32 extent, it is an error.
        let e = parse_fiu("x", 1 << 40, "1 p m 0 34359738368 R 8 1 h").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("exceeds u32"), "{}", e.message);
    }

    #[test]
    fn extents_past_the_packed_width_are_errors_naming_the_line() {
        // 2^30 pages fit a u32 but not a packed record.
        let e = parse_native("x", 1 << 40, "0 R 0 1\n1 R 0 1073741824").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("limit of 1073741823"), "{}", e.message);
        let e = parse_fiu("x", 1 << 40, "1 p m 0 8589934592 W 8 1 h").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("limit of 1073741823"), "{}", e.message);
    }

    /// Hostile tokens: zero, `u32::MAX ± 1`, `u64::MAX`, `u64::MAX / 1000
    /// ± 1` (the ns conversion's edge), every op letter and a bad one.
    const TOKENS: [&str; 17] = [
        "0", "1", "8", "4294967294", "4294967295", "4294967296", "18446744073709551615",
        "18446744073709550", "18446744073709551", "18446744073709552", "R", "W", "T", "r",
        "w", "X", "h",
    ];

    cagc_harness::prop::harness_proptest! {
        #![config(cases = 512)]
        /// Lines of 0–10 random tokens: both parsers answer `Ok` or `Err`,
        /// never a panic, and every `Ok` trace fits its logical space.
        #[test]
        fn both_parsers_answer_hostile_lines_with_ok_or_err(
            lines in cagc_harness::prop::vec(cagc_harness::prop::vec(0..TOKENS.len(), 0..11), 1..4),
        ) {
            let text: String = lines
                .iter()
                .map(|l| l.iter().map(|&t| TOKENS[t]).collect::<Vec<_>>().join(" ") + "\n")
                .collect();
            // A logical space of 2^20 pages bounds what one FIU write line
            // can make the parser allocate.
            for logical in [0, 10, 1 << 20] {
                let parsed = [parse_native("p", logical, &text), parse_fiu("p", logical, &text)];
                for t in parsed.iter().flatten() {
                    cagc_harness::prop_assert!(t.requests.iter().all(|r| {
                        r.lpn.checked_add(u64::from(r.pages)).is_some_and(|end| end <= logical)
                    }));
                }
            }
        }
    }

    #[test]
    fn fold_hash_is_stable_and_spreads() {
        assert_eq!(fold_hash("abc"), fold_hash("abc"));
        assert_ne!(fold_hash("abc"), fold_hash("abd"));
    }
}
