//! Structured experiment output: tables plus machine-readable findings.

use cobra_stats::table::Table;
use serde::{Deserialize, Serialize};

/// A single named, machine-readable measurement extracted from an experiment
/// (e.g. `"slope_log_n" = 1.43`), printed by `repro --exp <id>` under the paper's claim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Short machine-friendly name (`snake_case`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// One-line human description of what the value means.
    pub description: String,
}

impl Finding {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, value: f64, description: impl Into<String>) -> Self {
        Finding { name: name.into(), value, description: description.into() }
    }
}

/// The output of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment identifier (`"E1"` … `"E8"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The claim being reproduced, quoted from the paper.
    pub claim: String,
    /// One or more result tables (the "rows/series the paper reports").
    pub tables: Vec<Table>,
    /// Headline measurements, printed after the tables.
    pub findings: Vec<Finding>,
}

impl ExperimentResult {
    /// Renders the whole result (claim, tables, findings) as plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n", self.id, self.title));
        out.push_str(&format!("claim: {}\n\n", self.claim));
        for table in &self.tables {
            out.push_str(&table.render());
            out.push('\n');
        }
        if !self.findings.is_empty() {
            out.push_str("findings:\n");
            for f in &self.findings {
                out.push_str(&format!("  {:<28} {:>12.4}   {}\n", f.name, f.value, f.description));
            }
        }
        out
    }

    /// Looks up a finding by name.
    pub fn finding(&self, name: &str) -> Option<&Finding> {
        self.findings.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_and_render() {
        let mut table = Table::with_headers("demo", &["x", "y"]);
        table.add_row(vec!["1".into(), "2".into()]);
        let result = ExperimentResult {
            id: "E0".into(),
            title: "smoke".into(),
            claim: "nothing in particular".into(),
            tables: vec![table],
            findings: vec![Finding::new("slope", 1.5, "fitted slope")],
        };
        let text = result.render();
        assert!(text.contains("E0"));
        assert!(text.contains("demo"));
        assert!(text.contains("slope"));
        assert_eq!(result.finding("slope").unwrap().value, 1.5);
        assert!(result.finding("missing").is_none());
    }

    #[test]
    fn finding_serde_round_trip() {
        let f = Finding::new("ratio", 2.0, "a ratio");
        let json = serde_json::to_string(&f).unwrap();
        let back: Finding = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }
}
