//! Windowed (virtual-time) telemetry rendering: a sparkline renderer and
//! an OpenMetrics exporter for registry snapshots. The windows themselves,
//! with their exact latency counts, live in the simulator (`cdn_sim::timeline`).

use crate::json::Json;

/// Render a slice of values as a unicode sparkline (`▁▂▃▄▅▆▇█`).
///
/// Values are scaled against the slice maximum; non-finite or negative
/// values render as the lowest bar. Returns an empty string for an empty
/// slice.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if v.is_nan() || v <= 0.0 || max <= 0.0 {
                BARS[0]
            } else {
                let level = ((v / max) * 7.0).round() as usize;
                BARS[level.min(7)]
            }
        })
        .collect()
}

/// Render a parsed metrics-registry snapshot
/// (`{"counters":…,"gauges":…,"histograms":…}`) as OpenMetrics text.
///
/// Metric names are sanitised to `[a-zA-Z0-9_:]` (dots become
/// underscores), counters gain the mandated `_total` suffix, and histogram
/// buckets are cumulative with `le` labels. Empty fixed bins are elided —
/// cumulative buckets stay correct at every emitted edge — and the
/// exposition ends with `# EOF` per the OpenMetrics spec.
pub fn render_openmetrics(snapshot: &Json) -> Result<String, String> {
    use std::fmt::Write as _;

    fn sanitize(name: &str) -> String {
        name.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                    c
                } else {
                    '_'
                }
            })
            .collect()
    }

    let mut out = String::new();
    for (kind, section) in [("counter", "counters"), ("gauge", "gauges")] {
        let Some(map) = snapshot.get(section).and_then(Json::as_obj) else {
            continue;
        };
        for (name, value) in map {
            let v = value
                .as_f64()
                .ok_or_else(|| format!("{section}.{name}: expected a number"))?;
            let metric = sanitize(name);
            let _ = writeln!(out, "# TYPE {metric} {kind}");
            if kind == "counter" {
                let _ = writeln!(out, "{metric}_total {v}");
            } else {
                let _ = writeln!(out, "{metric} {v}");
            }
        }
    }
    if let Some(map) = snapshot.get("histograms").and_then(Json::as_obj) {
        for (name, h) in map {
            let metric = sanitize(name);
            let bin_width = h
                .get("bin_width")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("histograms.{name}: missing bin_width"))?;
            let counts = h
                .get("counts")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("histograms.{name}: missing counts"))?;
            let overflow = h.get("overflow").and_then(Json::as_u64).unwrap_or(0);
            let total = h
                .get("count")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histograms.{name}: missing count"))?;
            let _ = writeln!(out, "# TYPE {metric} histogram");
            let mut cumulative = 0u64;
            for (i, c) in counts.iter().enumerate() {
                let n = c
                    .as_u64()
                    .ok_or_else(|| format!("histograms.{name}: non-integer bin"))?;
                if n == 0 {
                    continue;
                }
                cumulative += n;
                let le = bin_width * (i as f64 + 1.0);
                let _ = writeln!(out, "{metric}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(
                out,
                "{metric}_bucket{{le=\"+Inf\"}} {}",
                cumulative + overflow
            );
            let _ = writeln!(out, "{metric}_count {total}");
        }
    }
    out.push_str("# EOF\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        assert_eq!(sparkline(&[1.0, 4.0, 8.0]), "▂▅█");
    }

    #[test]
    fn openmetrics_renders_snapshot() {
        let doc = crate::json::parse(
            r#"{"counters":{"sim.requests":42},
                "gauges":{"pool.size":3},
                "histograms":{"sim.latency_ms":
                  {"bin_width":1.0,"counts":[0,2,0,3],"overflow":1,"count":6}}}"#,
        )
        .unwrap();
        let out = render_openmetrics(&doc).unwrap();
        assert!(out.contains("# TYPE sim_requests counter"));
        assert!(out.contains("sim_requests_total 42"));
        assert!(out.contains("pool_size 3"));
        assert!(out.contains("sim_latency_ms_bucket{le=\"2\"} 2"));
        assert!(out.contains("sim_latency_ms_bucket{le=\"4\"} 5"));
        assert!(out.contains("sim_latency_ms_bucket{le=\"+Inf\"} 6"));
        assert!(out.contains("sim_latency_ms_count 6"));
        assert!(out.ends_with("# EOF\n"));
    }
}
