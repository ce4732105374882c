//! Support for the `experiments` binary: the [`parallel_map`] worker pool
//! it spreads independent sweep points over, [`Table`], the one shape every
//! figure is returned in and rendered from, and [`snapshot_json`], the
//! writer of the tracked `{"key": count}` cycle snapshot, `BENCH_sim.json`.

mod pool;

pub use pool::parallel_map;
use std::fmt::{Display, Write as _};

/// What is broken of a figure's shape, one message per broken claim; a pure
/// function of the table's rows.
pub type Gate = fn(&Table) -> Vec<String>;

/// One figure or table of the evaluation: what a figure function returns
/// and the only thing `experiments` renders, as aligned text ([`Table::text`]),
/// as `results/<name>.csv` ([`Table::csv`]) and as snapshot points
/// ([`Table::points`]).
pub struct Table {
    /// File stem of the CSV under `results/`.
    pub name: &'static str,
    /// Heading of the printed text.
    pub title: &'static str,
    /// Column headers. The column named `cycles`, if any, shows each row's
    /// [`Row::cycles`] (`-` for a point that was refused); the row's cells
    /// fill the others in order.
    pub columns: &'static [&'static str],
    /// One row per simulated point (or per line, in a table of none).
    pub rows: Vec<Row>,
    /// Lines printed under the rows: what holds of the table as a whole.
    pub notes: Vec<String>,
    /// The figure's shape claim, checked after the table is printed and
    /// saved and before its points reach a snapshot.
    pub gate: Option<Gate>,
}

/// One row of a [`Table`].
pub struct Row {
    /// The point's snapshot key below its figure id; what a gate finds the
    /// row by.
    pub label: String,
    /// Simulated cycles; `None` for a point that did not run and for a row
    /// of a table that records none.
    pub cycles: Option<u64>,
    /// The printed cells other than `cycles`.
    pub cells: Vec<String>,
}

impl Table {
    /// An empty table without notes or a gate.
    pub fn new(name: &'static str, title: &'static str, columns: &'static [&'static str]) -> Self {
        Table { name, title, columns, rows: Vec::new(), notes: Vec::new(), gate: None }
    }

    /// Appends the row of one sweep point.
    ///
    /// # Panics
    ///
    /// Unless `cells` fill exactly the columns other than `cycles`.
    pub fn point(&mut self, label: impl Into<String>, cycles: Option<u64>, cells: &[&dyn Display]) {
        let others = self.columns.iter().filter(|c| **c != "cycles").count();
        assert_eq!(cells.len(), others, "{}: a row has one cell per column", self.name);
        let cells = cells.iter().map(|c| c.to_string()).collect();
        self.rows.push(Row { label: label.into(), cycles, cells });
    }

    /// Appends a row that is no snapshot point.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        self.point("", None, cells);
    }

    /// The cycles of the row labelled `label`, if it ran.
    pub fn cycles(&self, label: &str) -> Option<u64> {
        self.rows.iter().find(|r| r.label == label).and_then(|r| r.cycles)
    }

    /// `label -> cycles` of every row that ran: the table's share of the
    /// snapshot.
    pub fn points(&self) -> impl Iterator<Item = (String, u64)> + '_ {
        self.rows.iter().filter_map(|r| Some((r.label.clone(), r.cycles?)))
    }

    /// The header line and one line per row, each a cell per column.
    fn grid(&self) -> Vec<Vec<String>> {
        let header = self.columns.iter().map(|c| c.to_string()).collect();
        let lines = self.rows.iter().map(|r| {
            let mut cells = r.cells.iter().cloned();
            let cycles = || r.cycles.map_or("-".to_string(), |c| c.to_string());
            let cell = |c: &&str| if *c == "cycles" { cycles() } else { cells.next().unwrap() };
            self.columns.iter().map(cell).collect()
        });
        std::iter::once(header).chain(lines).collect()
    }

    /// The table as CSV: the header, then one line per row. Cells are
    /// written as they are (the tracked `results/autotune.csv` has schedule
    /// names with commas in them and is compared byte for byte).
    pub fn csv(&self) -> String {
        self.grid().iter().map(|line| line.join(",") + "\n").collect()
    }

    /// The table as text: the title, the grid with every column padded to
    /// its widest cell (a column of numbers to the right), then the notes.
    pub fn text(&self) -> String {
        let grid = self.grid();
        let number = |cell: &String| cell.starts_with(|c: char| c.is_ascii_digit() || c == '-');
        let layout = |col: usize| {
            let width = grid.iter().map(|line| line[col].len()).max().unwrap_or(0);
            let numbers = grid[1..].iter().all(|l| l[col].is_empty() || number(&l[col]));
            (width, numbers)
        };
        let layout: Vec<(usize, bool)> = (0..self.columns.len()).map(layout).collect();
        let mut out = format!("\n== {} ==\n", self.title);
        for line in &grid {
            let mut text = String::new();
            for (cell, &(w, numbers)) in line.iter().zip(&layout) {
                if numbers {
                    write!(text, "  {cell:>w$}").expect("writing to a String");
                } else {
                    write!(text, "  {cell:<w$}").expect("writing to a String");
                }
            }
            writeln!(out, "{}", text.trim_end()).expect("writing to a String");
        }
        for note in &self.notes {
            writeln!(out, "  {note}").expect("writing to a String");
        }
        out
    }
}

/// Renders `points` as a flat JSON object, keys sorted bytewise, 2-space
/// indent, trailing newline: byte for byte what Python's
/// `json.dump(points, f, indent=2, sort_keys=True)` plus `"\n"` writes for
/// a non-empty map with keys of printable ASCII. The text depends on the
/// key/value set only, so `BENCH_sim.json` regenerates identically on any
/// host and CI gates it with `git diff`.
///
/// # Panics
///
/// On a duplicate key: two sweep points under one name would otherwise
/// collapse into one silently.
pub fn snapshot_json(mut points: Vec<(String, u64)>) -> String {
    points.sort();
    if let Some(w) = points.windows(2).find(|w| w[0].0 == w[1].0) {
        panic!("duplicate snapshot key '{}' ({} and {})", w[0].0, w[0].1, w[1].1);
    }
    let mut out = String::from("{");
    for (i, (key, count)) in points.iter().enumerate() {
        let key = key.replace('\\', "\\\\").replace('"', "\\\"");
        let sep = if i == 0 { "" } else { "," };
        write!(out, "{sep}\n  \"{key}\": {count}").expect("writing to a String");
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::{snapshot_json, Table};

    /// One table, three renderings: a refused point shows `-` under
    /// `cycles` in text and CSV and is no snapshot point.
    #[test]
    fn table_renders_text_csv_and_points_from_the_same_rows() {
        let mut t = Table::new("orders", "Orders", &["order", "cycles", "x", "refused"]);
        t.point("ik|kj", Some(1200), &[&"ik|kj", &1.5, &""]);
        t.point("ki|kj", None, &[&"ki|kj", &"-", &"cyclic"]);
        t.notes.push("1 refused".into());
        assert_eq!(t.csv(), "order,cycles,x,refused\nik|kj,1200,1.5,\nki|kj,-,-,cyclic\n");
        let text = "\n== Orders ==\n  order  cycles    x  refused\n  ik|kj    1200  1.5\n  \
                    ki|kj       -    -  cyclic\n  1 refused\n";
        assert_eq!(t.text(), text);
        assert_eq!(t.points().collect::<Vec<_>>(), [("ik|kj".to_string(), 1200)]);
        assert_eq!(
            (t.cycles("ik|kj"), t.cycles("ki|kj"), t.cycles("jk")),
            (Some(1200), None, None)
        );
    }

    #[test]
    #[should_panic(expected = "orders: a row has one cell per column")]
    fn table_row_with_a_missing_cell_panics() {
        Table::new("orders", "Orders", &["order", "cycles", "x"]).point(
            "ik|kj",
            Some(1),
            &[&"ik|kj"],
        );
    }

    fn points(p: &[(&str, u64)]) -> Vec<(String, u64)> {
        p.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn snapshot_keys_sort_bytewise_whatever_the_insertion_order() {
        // Bytewise, not alphabetical or numeric: `/` < `0` < `1` < `B` < `a`
        // < `{`, so `k10` sorts before `k2` and `k1/` before `k10`.
        let want = "{\n  \"B\": 5,\n  \"a/k1/x\": 2,\n  \"a/k10\": 3,\n  \"a/k2\": 1,\n  \
                    \"a{\": 4\n}\n";
        let fwd = points(&[("a/k2", 1), ("a/k1/x", 2), ("a/k10", 3), ("a{", 4), ("B", 5)]);
        let mut rev = fwd.clone();
        rev.reverse();
        assert_eq!(snapshot_json(fwd), want);
        assert_eq!(snapshot_json(rev), want);
    }

    /// The committed full-size record, as `json.dump(.., indent=2,
    /// sort_keys=True)` plus a newline first wrote it, is what its own
    /// points render to.
    #[test]
    fn snapshot_text_round_trips_the_committed_record() {
        let record = include_str!("../../../BENCH_sim.json");
        let entries = record.lines().filter_map(|l| l.trim_end_matches(',').rsplit_once("\": "));
        let parsed: Vec<(String, u64)> = entries
            .map(|(key, n)| (key.trim_start_matches([' ', '"']).to_string(), n.parse().unwrap()))
            .collect();
        assert_eq!(parsed.len(), record.lines().count() - 2, "every line but the braces");
        assert_eq!(snapshot_json(parsed), record);
        assert_eq!(
            snapshot_json(points(&[("only", u64::MAX)])),
            "{\n  \"only\": 18446744073709551615\n}\n"
        );
    }

    #[test]
    fn snapshot_escapes_quotes_and_backslashes() {
        let got = snapshot_json(points(&[("say \"hi\"\\now", 1)]));
        assert_eq!(got, "{\n  \"say \\\"hi\\\"\\\\now\": 1\n}\n");
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot key 'fig12/gcn/cora/full'")]
    fn snapshot_duplicate_key_panics_naming_it() {
        snapshot_json(points(&[
            ("fig12/gcn/cora/full", 7),
            ("fig4b/FuseFlow", 1),
            ("fig12/gcn/cora/full", 7),
        ]));
    }
}
