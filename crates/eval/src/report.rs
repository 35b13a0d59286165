//! Minimal fixed-width text tables for experiment output.

/// Renders a table with a header row and aligned columns.
///
/// # Example
///
/// ```
/// use earlybird_eval::report::render_table;
/// let t = render_table(
///     &["case", "TP"],
///     &[vec!["1".into(), "6".into()], vec!["2".into(), "8".into()]],
/// );
/// assert!(t.contains("case"));
/// assert!(t.lines().count() >= 4);
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let sep: String = {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s
    };
    let render_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, w) in widths.iter().enumerate() {
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            s.push_str(&format!(" {cell:>w$} |", w = w));
        }
        s
    };
    let mut out = String::new();
    out.push_str(&sep);
    out.push('\n');
    out.push_str(&render_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>()));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out.push_str(&sep);
    out.push('\n');
    out
}

/// Downsamples a sorted value series into `n` CDF points `(value,
/// fraction)` suitable for plotting or printing.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn cdf_points(sorted: &[f64], n: usize) -> Vec<(f64, f64)> {
    assert!(n > 0, "need at least one point");
    if sorted.is_empty() {
        return Vec::new();
    }
    let len = sorted.len();
    (1..=n)
        .map(|k| {
            let idx = (k * len / n).max(1) - 1;
            (sorted[idx], (idx + 1) as f64 / len as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["name", "count"],
            &[vec!["a".into(), "1".into()], vec!["longer".into(), "12345".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines.iter().all(|l| l.len() == lines[0].len()), "all lines equal width");
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let data: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let pts = cdf_points(&data, 10);
        assert_eq!(pts.len(), 10);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn cdf_of_empty_is_empty() {
        assert!(cdf_points(&[], 5).is_empty());
    }
}
