//! Tables as column lists: one [`Column`] per field, one renderer per
//! output form (DESIGN.md §10.7).
//!
//! A table is a `&[Column<T>]` over its row type `T`. The same list
//! renders as [`csv`] (the dataset files, the Fig. 8 trace) or, through
//! [`rows`], as [`aligned`] text (the headline statistics, the acceptance
//! tables), so a column's header, its value and its format are written
//! once.

use std::borrow::Borrow;

/// A table column: its header and a row's field.
pub type Column<T> = (&'static str, fn(&T) -> String);

/// The header, then one row of fields per item.
pub fn rows<T, R: Borrow<T>>(
    columns: &[Column<T>],
    items: impl IntoIterator<Item = R>,
) -> Vec<Vec<String>> {
    lines(columns, items).collect()
}

/// `rows` as aligned text lines, each field padded to its column's widest
/// field and joined by one space: the first `labels` fields left-aligned,
/// the values right-aligned.
pub fn aligned(labels: usize, rows: &[Vec<String>]) -> Vec<String> {
    let width = |i: usize| rows.iter().map(|r| r[i].len()).max().unwrap_or(0);
    let widths: Vec<usize> = (0..rows.first().map_or(0, Vec::len)).map(width).collect();
    let pad = |(i, (f, w)): (usize, (&String, &usize))| {
        if i < labels {
            format!("{f:<w$}")
        } else {
            format!("{f:>w$}")
        }
    };
    let line = |row: &Vec<String>| {
        let fields: Vec<String> = row.iter().zip(&widths).enumerate().map(pad).collect();
        fields.join(" ").trim_end().to_string()
    };
    rows.iter().map(line).collect()
}

/// The header line, then one line per item: fields joined by `,`, every
/// line ending in `\n`.
pub fn csv<T, R: Borrow<T>>(columns: &[Column<T>], items: impl IntoIterator<Item = R>) -> String {
    let mut out = String::new();
    for fields in lines(columns, items) {
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

/// [`rows`], one at a time.
fn lines<'a, T, R: Borrow<T>>(
    columns: &'a [Column<T>],
    items: impl IntoIterator<Item = R> + 'a,
) -> impl Iterator<Item = Vec<String>> + 'a {
    let header = columns.iter().map(|c| c.0.to_string()).collect();
    let fields = |item: R| columns.iter().map(|c| (c.1)(item.borrow())).collect();
    std::iter::once(header).chain(items.into_iter().map(fields))
}

/// Why `columns` over `items` would not render as a well-formed table, if
/// they would not: every CSV line must split back into one field per
/// header (no field holds `,` or a newline), and no header or field may
/// hold whitespace, which would split an aligned line into more words
/// than columns.
pub fn malformed<T>(columns: &[Column<T>], items: &[T]) -> Option<String> {
    let csv = csv(columns, items);
    let counts: Vec<usize> = csv.lines().map(|line| line.split(',').count()).collect();
    if counts != vec![columns.len(); items.len() + 1] {
        return Some(format!("CSV lines of {counts:?} fields"));
    }
    let mut fields = lines(columns, items).flatten();
    let spaced = fields.find(|f| f.contains(char::is_whitespace));
    spaced.map(|f| format!("{f:?} holds whitespace"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &[Column<(&str, f64)>] = &[
        ("name", |r| r.0.to_string()),
        ("value", |r| format!("{:.1}", r.1)),
    ];

    #[test]
    fn aligned_pads_labels_left_and_values_right() {
        let lines = aligned(1, &rows(DEMO, [("a", 12.5), ("long", 1.0)]));
        assert_eq!(lines, ["name value", "a     12.5", "long   1.0"]);
    }

    #[test]
    fn csv_joins_fields_with_commas() {
        let csv = csv(DEMO, [("a", 12.5), ("b", -1.0)]);
        assert_eq!(csv, "name,value\na,12.5\nb,-1.0\n");
    }

    #[test]
    fn malformed_names_a_comma_a_newline_and_whitespace() {
        for (name, why) in [
            ("a,b", "CSV lines of [2, 3] fields"),
            ("a\nb", "CSV lines of [2, 1, 2] fields"),
            ("a b", "\"a b\" holds whitespace"),
        ] {
            assert_eq!(malformed(DEMO, &[(name, 1.0)]).as_deref(), Some(why));
        }
        assert_eq!(malformed(DEMO, &[("ab", 1.0)]), None);
    }

    /// Every column list of this crate renders well-formed tables over
    /// its fixture: the headline statistics, the six dataset tables and
    /// the Fig. 8 trace. The acceptance suites' lists are checked the
    /// same way in `rpav-bench`.
    #[test]
    fn every_column_list_is_well_formed() {
        let campaigns = crate::summary::tests::campaigns();
        let mut failures = vec![malformed(crate::summary::HEADLINE, &campaigns)];
        failures.extend(crate::dataset::tests::malformed_tables());
        let trace = crate::trace::build_trace(&crate::trace::tests::metrics());
        failures.push(malformed(crate::trace::COLUMNS, &trace));
        let failures: Vec<String> = failures.into_iter().flatten().collect();
        assert!(failures.is_empty(), "{failures:?}");
    }
}
