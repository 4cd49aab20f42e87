//! Telemetry summary embedded in a run report.

use cagc_harness::{Json, ToJson};
use cagc_metrics::Window;

/// What a traced run recorded, for `RunReport` embedding.
///
/// Only constructed when tracing is enabled ([`crate::Tracer::report`]
/// returns `None` otherwise), so untraced reports render byte-identical
/// to builds without the tracing layer.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Events retained in memory.
    pub events_recorded: u64,
    /// Events discarded by the bounded-memory guard.
    pub dropped_events: u64,
    /// Host-op sampling stride in effect (1 = every request).
    pub sample: u64,
    /// Gauge aggregation window width (ns).
    pub gauge_window_ns: u64,
    /// Every gauge with its aggregated windows, registration order.
    pub gauges: Vec<(String, Vec<Window>)>,
}

impl ToJson for TelemetryReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("events_recorded", Json::U64(self.events_recorded)),
            ("dropped_events", Json::U64(self.dropped_events)),
            ("sample", Json::U64(self.sample)),
            ("gauge_window_ns", Json::U64(self.gauge_window_ns)),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(n, w)| (n.clone(), w.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_counts_and_every_gauge() {
        let report = TelemetryReport {
            events_recorded: 12,
            dropped_events: 3,
            sample: 2,
            gauge_window_ns: 1_000,
            gauges: vec![(
                "free_pages".to_string(),
                vec![Window { start_ns: 0, count: 1, mean: 5.0, max: 5 }],
            )],
        };
        let json = report.to_json().render();
        assert!(json.starts_with(r#"{"events_recorded":12,"dropped_events":3,"sample":2"#));
        assert!(json.contains("\"free_pages\":[{"));
    }
}
