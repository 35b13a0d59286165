//! JSON artifact export: every experiment result serializes to a
//! machine-readable file so downstream tooling (dashboards, notebooks) can
//! consume the reproduction without parsing text tables.

use serde::Serialize;
use std::fs;
use std::io;
use std::path::Path;

/// Writes any serializable experiment artifact as pretty-printed JSON.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be written, or a
/// serialization error mapped into [`io::ErrorKind::InvalidData`].
///
/// # Example
///
/// ```
/// use earlybird_eval::export::write_json;
/// let dir = std::env::temp_dir().join("earlybird-doc");
/// std::fs::create_dir_all(&dir)?;
/// write_json(dir.join("rows.json"), &vec![1, 2, 3])?;
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn write_json<T: Serialize>(path: impl AsRef<Path>, value: &T) -> io::Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::DetectionTally;

    #[test]
    fn tally_roundtrips_through_json() {
        let tally = DetectionTally {
            true_positives: 59,
            false_positives: 1,
            false_negatives: 4,
            new_discoveries: 7,
        };
        let json = serde_json::to_string_pretty(&tally).unwrap();
        let back: DetectionTally = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tally);
    }

    #[test]
    fn write_json_creates_readable_file() {
        let dir = std::env::temp_dir().join(format!("earlybird-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig6.json");
        let rows = vec![crate::ac::Fig6Row {
            threshold: 0.4,
            known: 10,
            new_malicious: 2,
            suspicious: 1,
            legitimate: 1,
        }];
        write_json(&path, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"threshold\": 0.4"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evasion_rows_serialize() {
        let rows = crate::evasion::evasion_study(3, 8);
        let json = serde_json::to_string_pretty(&rows).unwrap();
        assert!(json.contains("paper_detector"));
    }
}
