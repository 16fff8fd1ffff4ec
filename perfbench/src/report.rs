//! What one run reports, and its JSON renderings.

use std::fmt::Write as _;

/// A minimal JSON value, enough for the benchmark's own output.
#[derive(Debug, Clone)]
pub enum J {
    Num(f64),
    Int(u64),
    Str(String),
    Bool(bool),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // JSON has no NaN or infinity; no metric is built from either.
            J::Num(v) if !v.is_finite() => out.push_str("null"),
            J::Num(v) => {
                let _ = write!(out, "{v}");
            }
            J::Int(v) => {
                let _ = write!(out, "{v}");
            }
            J::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            J::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    J::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metrics_json(metrics: &[Metric]) -> J {
    J::obj(metrics.iter().map(|m| {
        (
            m.name,
            J::obj([("value", J::Num(m.value)), ("unit", J::str(m.unit))]),
        )
    }))
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the record.
    pub failures: Vec<String>,
    /// Run facts: host, clients, seed, counts.
    pub context: Vec<(String, J)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Per-request spans of the traced timed phase (record file only).
    pub spans: Vec<J>,
}

impl Report {
    pub fn fact(&mut self, key: &str, value: J) {
        self.context.push((key.to_string(), value));
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// Counts one attempted unit of work, failed with `why` if given.
    pub fn tally(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    pub fn error_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The last stdout line: end-to-end metrics, or per-layer ones when
    /// traced.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        J::obj([
            ("correct", J::Bool(self.failed == 0)),
            ("attempted", J::Int(self.attempted)),
            ("failed", J::Int(self.failed)),
            ("metrics", metrics_json(metrics)),
        ])
        .encode()
    }

    /// The run's facts plus its failure tally.
    fn summary(&self) -> J {
        let mut pairs = self.context.clone();
        pairs.push(("attempted".into(), J::Int(self.attempted)));
        pairs.push(("failed".into(), J::Int(self.failed)));
        pairs.push(("error_ratio".into(), J::Num(self.error_ratio())));
        pairs.push((
            "failures".into(),
            J::Arr(self.failures.iter().map(|f| J::str(f.as_str())).collect()),
        ));
        J::Obj(pairs)
    }

    /// The context line printed before the result.
    pub fn context_json(&self) -> String {
        self.summary().encode()
    }

    /// The full record: context, both metric sets side by side, spans.
    pub fn record_json(&self) -> String {
        J::obj([
            ("context", self.summary()),
            ("end_to_end", metrics_json(&self.end_to_end)),
            ("per_layer", metrics_json(&self.per_layer)),
            ("spans", J::Arr(self.spans.clone())),
        ])
        .encode()
    }
}
