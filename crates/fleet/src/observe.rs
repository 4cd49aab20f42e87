//! The fleet observability plane: per-device telemetry capture and the
//! fleet-level timeline it merges into.
//!
//! Each armed device runs its own [`cagc_trace::Tracer`] (gauges-only by
//! default — no per-event allocation) and hands its gauge registry back
//! with the device report. The fleet layer then namespaces every series
//! as `dev{id:03}/{gauge}` — bare gauge names are `&'static str` and
//! would alias across N devices — and folds the raw integer
//! accumulators into merged `fleet/{gauge}` series via
//! [`TimeSeries::merge`], plus a derived `fleet/degraded_devices`
//! step series from the devices' degradation instants. Everything is a
//! pure fold in device order: byte-identical at any worker count.

use cagc_harness::{Json, ToJson};
use cagc_metrics::TimeSeries;
use cagc_trace::SpanProfile;

/// What one armed device hands back with its report.
#[derive(Debug, Clone)]
pub struct DeviceObservability {
    /// Gauge window width (ns).
    pub window_ns: u64,
    /// The device's gauge series, registration order, bare names.
    pub gauges: Vec<(String, TimeSeries)>,
    /// Events the device's tracer dropped at its cap.
    pub dropped_events: u64,
    /// Span profile of the device's recording (only when its
    /// [`cagc_trace::TraceConfig::record_spans`] is set).
    pub profile: Option<SpanProfile>,
}

/// Fleet-level time-resolved view: every device's gauges, namespaced,
/// plus the exact cross-device merges.
#[derive(Debug, Clone)]
pub struct FleetTimeline {
    /// Gauge window width (ns).
    pub window_ns: u64,
    /// `(series name, series)` in emission order: per-device series
    /// (device order, registration order within a device), then merged
    /// `fleet/{gauge}` series (first-appearance order), then derived
    /// fleet series.
    pub series: Vec<(String, TimeSeries)>,
}

impl FleetTimeline {
    /// Build the timeline from per-device observability captures (device
    /// order) and the devices' degradation instants.
    pub fn build(
        devices: &[(u32, &DeviceObservability)],
        degraded_at_ns: &[u64],
    ) -> Option<FleetTimeline> {
        let window_ns = devices.first().map(|(_, o)| o.window_ns)?;
        let mut series: Vec<(String, TimeSeries)> = Vec::new();
        let mut merged: Vec<(String, TimeSeries)> = Vec::new();
        for &(id, obs) in devices {
            for (name, ts) in &obs.gauges {
                series.push((format!("dev{id:03}/{name}"), ts.clone()));
                match merged.iter_mut().find(|(n, _)| n == name) {
                    Some((_, m)) => m.merge(ts),
                    None => merged.push((name.clone(), ts.clone())),
                }
            }
        }
        for (name, ts) in merged {
            series.push((format!("fleet/{name}"), ts));
        }
        // Degraded-device count over time: a cumulative step sampled at
        // each tenant-visible degradation instant.
        if !degraded_at_ns.is_empty() {
            let mut instants = degraded_at_ns.to_vec();
            instants.sort_unstable();
            let mut ts = TimeSeries::new(window_ns);
            for (i, &at) in instants.iter().enumerate() {
                ts.record(at, i as u64 + 1);
            }
            series.push(("fleet/degraded_devices".to_string(), ts));
        }
        Some(FleetTimeline { window_ns, series })
    }

    /// CSV export: `series,start_ns,count,mean,max`, one row per
    /// non-empty window, series in emission order. Floats use the
    /// harness's shortest-round-trip formatting (byte-deterministic).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,start_ns,count,mean,max\n");
        for (name, ts) in &self.series {
            push_csv_rows(&mut out, name, ts);
        }
        out
    }

    /// Look up a series by exact name.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|(n, _)| n == name).map(|(_, ts)| ts)
    }
}

/// Append `series,start_ns,count,mean,max` rows for one named series
/// (shared between the timeline CSV and the fleet artifact, which also
/// carries SLO violation series).
pub(crate) fn push_csv_rows(out: &mut String, name: &str, ts: &TimeSeries) {
    for w in ts.windows() {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            name,
            w.start_ns,
            w.count,
            Json::F64(w.mean).render(),
            w.max
        ));
    }
}

impl ToJson for FleetTimeline {
    /// Compact summary (`{"window_ns":…,"series":[{name,samples,max}…]}`)
    /// — the full windows live in the CSV artifact, not the report.
    fn to_json(&self) -> Json {
        Json::obj([
            ("window_ns", Json::U64(self.window_ns)),
            (
                "series",
                Json::Arr(
                    self.series
                        .iter()
                        .map(|(name, ts)| {
                            let max = ts.windows().iter().map(|w| w.max).max().unwrap_or(0);
                            Json::obj([
                                ("name", Json::Str(name.clone())),
                                ("samples", Json::U64(ts.sample_count())),
                                ("max", Json::U64(max)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(vals: &[(&str, &[(u64, u64)])]) -> DeviceObservability {
        DeviceObservability {
            window_ns: 1_000,
            gauges: vals
                .iter()
                .map(|&(name, samples)| {
                    let mut ts = TimeSeries::new(1_000);
                    for &(at, v) in samples {
                        ts.record(at, v);
                    }
                    (name.to_string(), ts)
                })
                .collect(),
            dropped_events: 0,
            profile: None,
        }
    }

    #[test]
    fn device_series_never_alias_and_fleet_merge_is_exact() {
        let a = obs(&[("free_pages", &[(100, 10)]), ("waf_milli", &[(100, 1500)])]);
        let b = obs(&[("free_pages", &[(150, 30)])]);
        let tl = FleetTimeline::build(&[(0, &a), (1, &b)], &[]).unwrap();
        let names: Vec<&str> = tl.series.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["dev000/free_pages", "dev000/waf_milli", "dev001/free_pages", "fleet/free_pages", "fleet/waf_milli"]
        );
        // The two devices' identically-named gauges stay distinct…
        assert_eq!(tl.get("dev000/free_pages").unwrap().sample_count(), 1);
        assert_eq!(tl.get("dev001/free_pages").unwrap().sample_count(), 1);
        // …while the fleet series is their exact integer merge.
        let fleet = tl.get("fleet/free_pages").unwrap();
        assert_eq!(fleet.sample_count(), 2);
        assert_eq!(fleet.sample_sum(), 40);
        assert_eq!(fleet.windows()[0].max, 30);
    }

    #[test]
    fn degraded_devices_form_a_cumulative_step() {
        let a = obs(&[("free_pages", &[(0, 1)])]);
        let tl = FleetTimeline::build(&[(4, &a)], &[5_000, 2_000]).unwrap();
        let deg = tl.get("fleet/degraded_devices").unwrap();
        let w = deg.windows();
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].start_ns, w[0].max), (2_000, 1));
        assert_eq!((w[1].start_ns, w[1].max), (5_000, 2));
    }

    #[test]
    fn empty_capture_yields_no_timeline() {
        assert!(FleetTimeline::build(&[], &[1]).is_none());
    }

    #[test]
    fn csv_is_deterministic_with_header_and_exact_values() {
        let a = obs(&[("free_pages", &[(100, 10), (150, 20)])]);
        let tl = FleetTimeline::build(&[(0, &a)], &[]).unwrap();
        assert_eq!(
            tl.to_csv(),
            "series,start_ns,count,mean,max\n\
             dev000/free_pages,0,2,15,20\n\
             fleet/free_pages,0,2,15,20\n"
        );
        let j = tl.to_json().render();
        assert!(j.starts_with(r#"{"window_ns":1000,"series":[{"name":"dev000/free_pages","samples":2,"max":20}"#));
    }
}
