//! The run's result: every metric by name with its unit, printed for a
//! reader and then as the one-line JSON object the last stdout line holds.

use serde::{Serialize, Value};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or source, printed beside the value.
    pub note: String,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// `{name: {"value", "unit"}}`, in the order the metrics were added.
impl Serialize for Metrics {
    fn to_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|m| {
                    let entry = vec![
                        ("value".to_string(), m.value.to_value()),
                        ("unit".to_string(), m.unit.to_value()),
                    ];
                    (m.name.clone(), Value::Object(entry))
                })
                .collect(),
        )
    }
}

/// The last stdout line.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

pub struct RunResult {
    /// Requests sent in the measured window(s).
    pub attempted: u64,
    /// Sent requests that got no answer: shed, culled, skipped or failed.
    pub failed: u64,
    /// Output-check failures; any makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Free-form lines printed before the metrics (host record, counts).
    pub notes: Vec<String>,
}

/// Print the report and the final JSON line. Returns whether the run was
/// correct.
pub fn emit(result: RunResult) -> bool {
    for line in &result.notes {
        println!("{line}");
    }
    for p in result.problems.iter().take(20) {
        println!("MISMATCH {p}");
    }
    if result.problems.len() > 20 {
        println!("MISMATCH ... {} more", result.problems.len() - 20);
    }
    let mut problems = result.problems.len();
    for m in &result.metrics.0 {
        if !m.value.is_finite() {
            println!("NON-FINITE metric {}", m.name);
            problems += 1;
        }
        println!("{:<34} {:>14.4} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
    let correct = problems == 0 && result.attempted > 0;
    let line = ResultLine {
        correct,
        attempted: result.attempted.max(1),
        failed: result.failed,
        metrics: result.metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&line).expect("a value tree always renders")
    );
    correct
}
