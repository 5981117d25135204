//! What one run found: ops attempted and failed, one value per metric,
//! and the lines shown to a reader. Rendering checks the values against
//! the registry, so a metric that is named in `BENCHMARK.json` but not
//! measured (or the reverse) stops the run instead of slipping through.

use crate::json::Value;
use crate::spec::MetricDef;

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: Vec<(&'static str, f64)>,
    /// Human-readable detail: quartiles of each timing, the layer
    /// budget, findings, failure reasons.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one op as failed and say why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {}", why.into()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Pair every registry metric with its one measured value.
    pub fn checked<'d>(&self, defs: &'d [MetricDef]) -> Result<Vec<(&'d MetricDef, f64)>, String> {
        for (name, _) in &self.values {
            if !defs.iter().any(|d| d.name == *name) {
                return Err(format!("metric {name} is not named in BENCHMARK.json"));
            }
        }
        defs.iter()
            .map(|d| {
                let mut hits = self.values.iter().filter(|(n, _)| *n == d.name);
                match (hits.next(), hits.next()) {
                    (Some((_, v)), None) => Ok((d, *v)),
                    (None, _) => Err(format!("metric {} was not measured", d.name)),
                    (Some(_), Some(_)) => Err(format!("metric {} was measured twice", d.name)),
                }
            })
            .collect()
    }

    /// The result object the contract asks for on the last line.
    pub fn result_json(&self, defs: &[MetricDef]) -> Result<Value, String> {
        let metrics = self
            .checked(defs)?
            .into_iter()
            .map(|(d, v)| {
                let entry = Value::Obj(vec![
                    ("value".into(), Value::Num(v)),
                    ("unit".into(), Value::Str(d.unit.clone())),
                ]);
                (d.name.clone(), entry)
            })
            .collect();
        Ok(Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ]))
    }

    /// Every metric by name with its unit, then the notes.
    pub fn table(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut out = String::new();
        for (d, v) in self.checked(defs)? {
            out.push_str(&format!("{:<36} {:>18.6} {}\n", d.name, v, d.unit));
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "{:<36} {:>18.6} ratio ({} of {} ops)\n",
            "failed_share", share, self.failed, self.attempted
        ));
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        Ok(out)
    }
}
