//! The one metrics writer. Every export in the workspace (the simulation
//! sink, the daemon and the router) lists its metrics as [`Family`]
//! values, and [`Format::render`] is the only code that writes either
//! exposition format:
//!
//! * **Prometheus text.** A counter `c` is `<prefix>c_total`, a gauge `g`
//!   is `<prefix>g`, a labelled counter is one `<prefix>c_total{label="k"}`
//!   line per pair under a single `# TYPE`, and a histogram has cumulative
//!   `_bucket{le="…"}` lines, `_sum` and `_count`.
//! * **JSONL.** Line 1 is `{"type":"counters",…}` with every counter and
//!   gauge under its bare name; a labelled counter is an array of
//!   `{"<label>":k,"count":v}`. Then one line per histogram:
//!   `{"type":"histogram","name":…,"count":…,"sum":…,"max":…,"mean":…,
//!   "buckets":[{"le":…,"count":…},…]}`, with `le: null` on the overflow
//!   bucket.

use crate::hist::Histogram;
use std::fmt::{self, Write};
use xtree_json::Value;

/// One named metric family and its value at export time.
#[derive(Clone, Debug, PartialEq)]
pub enum Family {
    /// A count that only grows: `(name, value)`.
    Counter(&'static str, u64),
    /// A level that may go down: `(name, value)`.
    Gauge(&'static str, u64),
    /// A counter split by one label: `(name, label, [(label value,
    /// count)])`, in export order.
    Labelled(&'static str, &'static str, Vec<(u64, u64)>),
    /// A fixed-bucket histogram: `(name, histogram)`.
    Histogram(&'static str, Histogram),
}

/// An exposition format: the value of `--metrics-format jsonl|prom`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// JSON lines.
    Jsonl,
    /// Prometheus text exposition.
    Prom,
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Format, String> {
        match s {
            "jsonl" => Ok(Format::Jsonl),
            "prom" => Ok(Format::Prom),
            _ => Err(format!("`{s}` is not one of jsonl|prom")),
        }
    }
}

impl Format {
    /// Renders `families` in this format, in list order. `prefix` (for
    /// example `xtree_sim_`) starts every Prometheus series name; JSONL
    /// keys are the bare family names.
    pub fn render(self, prefix: &str, families: &[Family]) -> String {
        let mut out = String::new();
        match self {
            Format::Prom => prometheus(&mut out, prefix, families),
            Format::Jsonl => jsonl(&mut out, families),
        }
        .expect("writing to a String cannot fail");
        out
    }
}

fn prometheus(out: &mut String, prefix: &str, families: &[Family]) -> fmt::Result {
    for family in families {
        match family {
            Family::Counter(name, v) => {
                writeln!(out, "# TYPE {prefix}{name}_total counter")?;
                writeln!(out, "{prefix}{name}_total {v}")?;
            }
            Family::Gauge(name, v) => {
                writeln!(out, "# TYPE {prefix}{name} gauge")?;
                writeln!(out, "{prefix}{name} {v}")?;
            }
            Family::Labelled(name, label, pairs) => {
                writeln!(out, "# TYPE {prefix}{name}_total counter")?;
                for (k, v) in pairs {
                    writeln!(out, "{prefix}{name}_total{{{label}=\"{k}\"}} {v}")?;
                }
            }
            Family::Histogram(name, h) => {
                writeln!(out, "# TYPE {prefix}{name} histogram")?;
                let mut cumulative = 0u64;
                for (le, count) in h.buckets() {
                    cumulative += count;
                    let le = le.map_or("+Inf".to_string(), |b| b.to_string());
                    writeln!(out, "{prefix}{name}_bucket{{le=\"{le}\"}} {cumulative}")?;
                }
                writeln!(out, "{prefix}{name}_sum {}", h.sum())?;
                writeln!(out, "{prefix}{name}_count {}", h.count())?;
            }
        }
    }
    Ok(())
}

fn jsonl(out: &mut String, families: &[Family]) -> fmt::Result {
    let mut counters = Value::object().with("type", "counters");
    let mut histograms = Vec::new();
    for family in families {
        match family {
            Family::Counter(name, v) | Family::Gauge(name, v) => counters.set(name, *v),
            Family::Labelled(name, label, pairs) => counters.set(
                name,
                pairs
                    .iter()
                    .map(|&(k, v)| Value::object().with(label, k).with("count", v))
                    .collect::<Value>(),
            ),
            Family::Histogram(name, h) => histograms.push(
                Value::object()
                    .with("type", "histogram")
                    .with("name", *name)
                    .with("count", h.count())
                    .with("sum", h.sum())
                    .with("max", h.max())
                    .with("mean", h.mean())
                    .with(
                        "buckets",
                        h.buckets()
                            .map(|(le, count)| {
                                Value::object()
                                    .with("le", le.map_or(Value::Null, Value::from))
                                    .with("count", count)
                            })
                            .collect::<Value>(),
                    ),
            ),
        }
    }
    for record in std::iter::once(&counters).chain(&histograms) {
        writeln!(out, "{}", xtree_json::to_string(record))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One family of each kind.
    fn families() -> Vec<Family> {
        let mut h = Histogram::new(&[1, 4]);
        for v in [1, 3, 9] {
            h.observe(v);
        }
        vec![
            Family::Counter("hits", 7),
            Family::Gauge("depth", 2),
            Family::Labelled("routed", "shard", vec![(0, 5), (1, 0)]),
            Family::Histogram("wait", h),
        ]
    }

    #[test]
    fn prometheus_renders_each_kind() {
        assert_eq!(
            Format::Prom.render("x_", &families()),
            r#"# TYPE x_hits_total counter
x_hits_total 7
# TYPE x_depth gauge
x_depth 2
# TYPE x_routed_total counter
x_routed_total{shard="0"} 5
x_routed_total{shard="1"} 0
# TYPE x_wait histogram
x_wait_bucket{le="1"} 1
x_wait_bucket{le="4"} 2
x_wait_bucket{le="+Inf"} 3
x_wait_sum 13
x_wait_count 3
"#
        );
    }

    #[test]
    fn jsonl_is_one_counters_record_then_one_record_per_histogram() {
        assert_eq!(
            Format::Jsonl.render("x_", &families()),
            concat!(
                r#"{"type":"counters","hits":7,"depth":2,"#,
                r#""routed":[{"shard":0,"count":5},{"shard":1,"count":0}]}"#,
                "\n",
                r#"{"type":"histogram","name":"wait","count":3,"sum":13,"max":9,"#,
                r#""mean":4.333333333333333,"buckets":[{"le":1,"count":1},"#,
                r#"{"le":4,"count":1},{"le":null,"count":1}]}"#,
                "\n",
            )
        );
        // With no families there is still the counters record.
        assert_eq!(Format::Jsonl.render("", &[]), "{\"type\":\"counters\"}\n");
        assert_eq!(Format::Prom.render("", &[]), "");
    }

    #[test]
    fn format_parses_the_flag_values() {
        assert_eq!("jsonl".parse(), Ok(Format::Jsonl));
        assert_eq!("prom".parse(), Ok(Format::Prom));
        let err = "xml".parse::<Format>().unwrap_err();
        assert!(err.contains("jsonl|prom"), "{err}");
    }
}
