//! The values one run reports, keyed by the names of [`crate::spec`].

use crate::json::Value;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, relative_spread};

/// One reported metric. `samples` holds the repeated host measurements
/// behind a median (empty for single-shot and simulated values).
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

#[derive(Debug, Default)]
pub struct Ledger {
    entries: Vec<Entry>,
}

/// The canonical name and unit of `name`, which must be in the spec: a
/// metric the spec does not know would never reach `BENCHMARK.json`.
fn spec_of(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in spec.rs"))
}

impl Ledger {
    pub fn set(&mut self, name: &str, value: f64) {
        self.put(name, value, Vec::new());
    }

    /// Records repeated measurements; the reported value is their median.
    pub fn set_samples(&mut self, name: &str, samples: &[f64]) {
        self.put(name, median(samples), samples.to_vec());
    }

    fn put(&mut self, name: &str, value: f64, samples: Vec<f64>) {
        let (name, unit) = spec_of(name);
        let entry = Entry {
            name,
            unit,
            value,
            samples,
        };
        match self.entries.iter_mut().find(|e| e.name == name) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.name == name)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |e| e.value)
    }

    /// The `metrics` object of the result line: `{name: {value, unit}}`
    /// for `names`, in that order. A name with no entry is left out (the
    /// caller has already failed the run for it).
    pub fn metrics_json<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
        with_samples: bool,
    ) -> Value {
        Value::obj(names.filter_map(|name| {
            let e = self.get(name)?;
            let mut fields = vec![
                ("value", Value::Num(e.value)),
                ("unit", Value::Str(e.unit.to_string())),
            ];
            if with_samples && !e.samples.is_empty() {
                fields.push((
                    "samples",
                    Value::Arr(e.samples.iter().map(|&x| Value::Num(x)).collect()),
                ));
            }
            Some((name, Value::obj(fields)))
        }))
    }

    /// Aligned `name value unit (n, quartiles, spread)` rows for people,
    /// for `names` in that order.
    pub fn print<'a>(&self, names: impl Iterator<Item = &'a str>) {
        for e in names.filter_map(|name| self.get(name)) {
            if e.samples.is_empty() {
                println!("  {:<38} {:>16.6} {}", e.name, e.value, e.unit);
            } else {
                let (q1, q3) = quartiles(&e.samples);
                println!(
                    "  {:<38} {:>16.6} {:<6} median of n={} (q1 {:.6}, q3 {:.6}, spread {:.1} %)",
                    e.name,
                    e.value,
                    e.unit,
                    e.samples.len(),
                    q1,
                    q3,
                    relative_spread(&e.samples) * 100.0
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_report_their_median_and_replace_earlier_values() {
        let mut ledger = Ledger::default();
        ledger.set("sim_qps", 1.0);
        ledger.set_samples("host_us_per_op", &[3.0, 1.0, 2.0]);
        ledger.set("sim_qps", 5.0);
        assert_eq!(ledger.value("sim_qps"), 5.0);
        assert_eq!(ledger.value("host_us_per_op"), 2.0);
        assert_eq!(ledger.entries.len(), 2);
        let json = ledger.metrics_json(["host_us_per_op", "recall_at_10"].into_iter(), false);
        assert_eq!(
            json.render(),
            r#"{"host_us_per_op": {"value": 2, "unit": "us"}}"#
        );
    }

    #[test]
    #[should_panic(expected = "not in spec.rs")]
    fn unknown_names_are_rejected() {
        Ledger::default().set("no_such_metric", 1.0);
    }
}
