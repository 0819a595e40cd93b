//! Cache of best-known objective values per benchmark instance.
//!
//! The paper reports `%Δ` against the best known solutions of its CPU
//! predecessors (\[7\], \[8\]). We cannot obtain those published values offline,
//! so the role of "best known" is played by a long reference run of our own
//! CPU solver (`cdd-bench`'s `make_best_known` binary), cached in a plain
//! text file so every experiment compares against the same frozen values —
//! exactly how the OR-library community circulates best-known tables.
//!
//! File format: one `<instance-id> <objective>` pair per line, `#` comments.

use cdd_core::Cost;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// A best-known-value table keyed by instance id string
/// (see [`crate::InstanceId`]'s `Display`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BestKnown {
    values: BTreeMap<String, Cost>,
}

impl BestKnown {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse from the text format. Unknown/malformed lines are errors —
    /// silently dropping a best-known value would corrupt every later `%Δ`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(id), Some(value), None) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("line {}: expected `<id> <objective>`", lineno + 1));
            };
            let value: Cost = value
                .parse()
                .map_err(|e| format!("line {}: bad objective {value:?}: {e}", lineno + 1))?;
            if values.insert(id.to_string(), value).is_some() {
                return Err(format!("line {}: duplicate id {id}", lineno + 1));
            }
        }
        Ok(BestKnown { values })
    }

    /// Serialize to the text format (sorted by id; stable diffs).
    pub fn render(&self) -> String {
        let mut out = String::from("# best-known objective per instance (see cdd-instances docs)\n");
        for (id, v) in &self.values {
            out.push_str(&format!("{id} {v}\n"));
        }
        out
    }

    /// Load from a file (missing file ⇒ empty table).
    pub fn load(path: &Path) -> io::Result<Self> {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                Self::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Self::new()),
            Err(e) => Err(e),
        }
    }

    /// Save to a file, creating parent directories.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.render())
    }

    /// Best-known objective for `id`, if recorded.
    pub fn get(&self, id: &str) -> Option<Cost> {
        self.values.get(id).copied()
    }

    /// Record `value` if it improves on (or first sets) the stored best.
    /// Returns `true` when the table changed.
    pub fn improve(&mut self, id: &str, value: Cost) -> bool {
        match self.values.get_mut(id) {
            Some(existing) if *existing <= value => false,
            Some(existing) => {
                *existing = value;
                true
            }
            None => {
                self.values.insert(id.to_string(), value);
                true
            }
        }
    }

    /// Number of recorded instances.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Percentage deviation `%Δ = 100 · (z − z_best) / z_best` of an
    /// objective against the stored best for `id`.
    ///
    /// Returns `None` when no best is stored. A stored best of zero yields
    /// `0.0` when `z == 0` and `+∞` otherwise (a zero-cost optimum missed).
    pub fn percent_delta(&self, id: &str, z: Cost) -> Option<f64> {
        let best = self.get(id)?;
        Some(if best == 0 {
            if z == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            100.0 * (z - best) as f64 / best as f64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_round_trip() {
        let text = "# comment\ncdd-n10-k1-h0.2 1936\nucddcp-n50-k3 888\n";
        let t = BestKnown::parse(text).unwrap();
        assert_eq!(t.get("cdd-n10-k1-h0.2"), Some(1936));
        assert_eq!(t.get("ucddcp-n50-k3"), Some(888));
        let again = BestKnown::parse(&t.render()).unwrap();
        assert_eq!(t, again);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(BestKnown::parse("one-token\n").is_err());
        assert!(BestKnown::parse("id 12 extra\n").is_err());
        assert!(BestKnown::parse("id twelve\n").is_err());
        assert!(BestKnown::parse("id 1\nid 2\n").unwrap_err().contains("duplicate"));
    }

    #[test]
    fn improve_only_lowers() {
        let mut t = BestKnown::new();
        assert!(t.improve("x", 100));
        assert!(!t.improve("x", 100));
        assert!(!t.improve("x", 150));
        assert!(t.improve("x", 90));
        assert_eq!(t.get("x"), Some(90));
    }

    #[test]
    fn percent_delta_matches_paper_definition() {
        let mut t = BestKnown::new();
        t.improve("a", 200);
        assert_eq!(t.percent_delta("a", 204), Some(2.0));
        assert_eq!(t.percent_delta("a", 198), Some(-1.0));
        assert_eq!(t.percent_delta("missing", 1), None);
        t.improve("zero", 0);
        assert_eq!(t.percent_delta("zero", 0), Some(0.0));
        assert_eq!(t.percent_delta("zero", 5), Some(f64::INFINITY));
    }

    #[test]
    fn load_and_save_round_trip() {
        let dir = std::env::temp_dir().join("cdd-instances-test");
        let path = dir.join("best_known.txt");
        let _ = std::fs::remove_file(&path);
        let empty = BestKnown::load(&path).unwrap();
        assert!(empty.is_empty());
        let mut t = BestKnown::new();
        t.improve("cdd-n10-k1-h0.2", 42);
        t.save(&path).unwrap();
        let loaded = BestKnown::load(&path).unwrap();
        assert_eq!(loaded, t);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
