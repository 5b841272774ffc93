//! What a workload run produces, and how it is printed.

use crate::catalog::{Metric, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (frames, jobs, ladder levels plus synth passes).
    pub attempted: u64,
    /// Operations that failed a correctness gate.
    pub failed: u64,
    /// Why each failure was counted (printed to stderr).
    pub failures: Vec<String>,
    /// End-to-end metric values (untraced run).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Workload-specific end-to-end figures, printed for people
    /// (`name`, value, unit).
    pub table: Vec<(&'static str, f64, &'static str)>,
    /// Ops the untraced latency percentiles are drawn from.
    pub op_samples: usize,
    /// Per-layer metric values (traced run).
    pub layers: BTreeMap<&'static str, f64>,
    /// The traced segment's spans as JSON lines (traced run only).
    pub spans_jsonl: String,
}

impl Outcome {
    /// Count one failed operation, with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Record a gate: a false `ok` counts one failed operation.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Whether every gate held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed / attempted.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn num(v: f64) -> String {
    // Every metric is a finite number; a non-finite value is reported as 0
    // and shows up as a failed gate where it matters.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(catalog: &[Metric], values: &BTreeMap<&'static str, f64>) -> String {
    let body: Vec<String> = catalog
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(v),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: the catalogued end-to-end metrics (untraced) or
/// per-layer metrics (traced).
pub fn result_json(o: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        metrics_json(&PER_LAYER, &o.layers)
    } else {
        metrics_json(&END_TO_END, &o.e2e)
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics
    )
}

/// Human-readable table of every figure the run produced.
pub fn render_table(workload: &str, o: &Outcome, traced: bool) -> String {
    let mut s = format!(
        "== {workload} ({}) ==\n",
        if traced { "traced" } else { "untraced" }
    );
    let row = |name: &str, v: f64, unit: &str| format!("  {name:<36} {:>24} {unit}\n", num(v));
    let catalogued = |m: &Metric, values: &BTreeMap<&'static str, f64>| {
        let v = values.get(m.name).copied().unwrap_or(0.0);
        let line = row(m.name, v, m.unit);
        format!(
            "{}  [{} is better] {}\n",
            line.trim_end(),
            m.better,
            m.target
        )
    };
    if traced {
        for m in PER_LAYER.iter() {
            s.push_str(&catalogued(m, &o.layers));
        }
    } else {
        for m in END_TO_END.iter() {
            s.push_str(&catalogued(m, &o.e2e));
        }
        s.push_str(&row("op_samples", o.op_samples as f64, "ops"));
        for (name, v, unit) in &o.table {
            s.push_str(&row(name, *v, unit));
        }
    }
    s.push_str(&row("attempted", o.attempted as f64, "ops"));
    s.push_str(&row("failed", o.failed as f64, "ops"));
    s
}
