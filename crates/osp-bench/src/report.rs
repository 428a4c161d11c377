//! Serializable experiment reports rendered as markdown.

use serde::{Deserialize, Serialize};

/// One named table of an experiment report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NamedTable {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl NamedTable {
    /// Creates an empty table with the given caption and headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        NamedTable {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    fn to_markdown(&self) -> String {
        let mut t =
            osp_stats::Table::new(&self.headers.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        for r in &self.rows {
            t.row_owned(r.clone());
        }
        format!("**{}**\n\n{}", self.title, t)
    }
}

/// A complete experiment report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// Experiment id (e.g. `"thm1"`).
    pub id: String,
    /// Human title (e.g. `"Theorem 1 upper bound"`).
    pub title: String,
    /// What the paper claims and what we check — shown above the tables.
    pub claim: String,
    /// Result tables.
    pub tables: Vec<NamedTable>,
    /// Free-form observations (verdicts, caveats).
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, claim: &str) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            claim: claim.to_string(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a finished table.
    pub fn table(&mut self, table: NamedTable) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Adds a note line.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the whole report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## [{}] {}\n\n*{}*\n\n", self.id, self.title, self.claim);
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("- {n}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_round_trip() {
        let mut r = Report::new("x", "Example", "claim text");
        let mut t = NamedTable::new("numbers", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        r.table(t);
        r.note("looks good");
        let md = r.to_markdown();
        assert!(md.contains("## [x] Example"));
        assert!(md.contains("**numbers**"));
        assert!(md.contains("| 1"));
        assert!(md.contains("- looks good"));
    }

    #[test]
    fn json_serializable() {
        let mut r = Report::new("y", "T", "c");
        r.table(NamedTable::new("t", &["h"]));
        let j = serde_json::to_string(&r).unwrap();
        let back: Report = serde_json::from_str(&j).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn pretty_json_matches_the_golden_fixture() {
        // Written by the `Value`-tree codec this workspace used before the
        // streaming codec; the experiments binary's JSON must not drift.
        let mut r = Report::new("thm1", "Theorem 1 upper bound", "ratio \"≤ k·σ\"\nper row");
        let mut t = NamedTable::new("ratios", &["k", "σ", "ratio"]);
        t.row(vec!["2".into(), "3".into(), "0.5".into()]);
        t.row(vec!["4".into(), "8".into(), "\t—".into()]);
        r.table(t);
        r.table(NamedTable::new("empty", &[]));
        r.note("holds");
        r.note("");
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/format/report.pretty.json"
        );
        let pretty = serde_json::to_string_pretty(&r).unwrap();
        let want = std::fs::read_to_string(path).unwrap();
        assert_eq!(pretty, want);
        assert_eq!(serde_json::from_str::<Report>(&want).unwrap(), r);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn row_width_checked() {
        NamedTable::new("t", &["a", "b"]).row(vec!["1".into()]);
    }
}
