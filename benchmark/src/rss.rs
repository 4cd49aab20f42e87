//! Peak resident set size of this process, from `/proc/self/status`.

/// The `VmHWM:` line of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut words = line.split_whitespace();
    let value: u64 = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(value)
}

/// Peak RSS of this process so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib = parse_vm_hwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_high_water_mark_line() {
        let status = "Name:\tcagc-benchmark\nVmPeak:\t  901234 kB\nVmHWM:\t  123456 kB\nVmRSS:\t   99999 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t 5 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 pages\n"), None);
        assert_eq!(parse_vm_hwm_kib(""), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
