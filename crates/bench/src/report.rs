//! Experiment result records persisted as JSON under `results/`, so the
//! figures CHANGES.md quotes are regenerable and diffable.

use std::io::Write;
use std::path::PathBuf;

use serde::Serialize;

/// One experiment's persisted record.
#[derive(Debug, Serialize)]
pub struct ExperimentRecord {
    /// Experiment id (`fig06`, `table4`, …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Arbitrary per-experiment rows.
    pub rows: serde_json::Value,
}

impl ExperimentRecord {
    /// Create a record.
    pub fn new(id: &str, title: &str, rows: serde_json::Value) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            rows,
        }
    }

    /// Directory records are written to (`$ML4ALL_RESULTS` or `results/`).
    pub fn results_dir() -> PathBuf {
        std::env::var("ML4ALL_RESULTS")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"))
    }

    /// Write `results/<id>.json`. IO errors are reported, not fatal — a
    /// read-only checkout still prints its tables.
    pub fn write(&self) {
        let dir = Self::results_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{}.json", self.id));
        match std::fs::File::create(&path) {
            Ok(mut f) => {
                let body = serde_json::to_string_pretty(self).expect("records serialize");
                if let Err(e) = f.write_all(body.as_bytes()) {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                } else {
                    println!("[written {}]", path.display());
                }
            }
            Err(e) => eprintln!("warning: cannot create {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_serializes_with_id_and_rows() {
        let r = ExperimentRecord::new(
            "figXX",
            "test",
            serde_json::json!([{"dataset": "adult", "time_s": 1.5}]),
        );
        let s = serde_json::to_string(&r).unwrap();
        assert!(s.contains("figXX"));
        assert!(s.contains("adult"));
    }

    #[test]
    fn write_respects_results_env() {
        let dir = std::env::temp_dir().join(format!("ml4all-results-{}", std::process::id()));
        std::env::set_var("ML4ALL_RESULTS", &dir);
        let r = ExperimentRecord::new("smoke", "t", serde_json::json!([]));
        r.write();
        assert!(dir.join("smoke.json").exists());
        std::env::remove_var("ML4ALL_RESULTS");
        let _ = std::fs::remove_dir_all(dir);
    }
}
