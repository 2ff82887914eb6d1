//! The one output shape of every experiment: a titled table whose cells
//! are the figure's named numbers, addressable by row label and column.

use std::fmt;

/// One named number of a figure and how it prints.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// The number itself (a fraction for a percentage).
    pub value: f64,
    scale: f64,
    decimals: usize,
    suffix: &'static str,
}

impl Cell {
    fn new(value: f64, scale: f64, decimals: usize, suffix: &'static str) -> Self {
        Self { value, scale, decimals, suffix }
    }

    /// A `Predicted/Actual` ratio, three decimals.
    pub fn ratio(value: f64) -> Self {
        Self::new(value, 1.0, 3, "")
    }

    /// A fraction, printed as a percentage with one decimal.
    pub fn pct(value: f64) -> Self {
        Self::new(value, 100.0, 1, "%")
    }

    /// Seconds.
    pub fn secs(value: f64, decimals: usize) -> Self {
        Self::new(value, 1.0, decimals, "s")
    }

    /// A factor.
    pub fn times(value: f64, decimals: usize) -> Self {
        Self::new(value, 1.0, decimals, "×")
    }

    /// A bare number: a count, a server count, an MSE.
    pub fn plain(value: f64, decimals: usize) -> Self {
        Self::new(value, 1.0, decimals, "")
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.*}{}", self.decimals, self.scale * self.value, self.suffix)
    }
}

/// A titled table: `columns[0]` heads the row labels, the rest head the
/// cells.
#[derive(Debug)]
pub struct Table {
    /// What the table shows, with the paper's number where it has one.
    title: String,
    /// Column headings, the row-label column first.
    columns: Vec<&'static str>,
    /// Row label and one cell per remaining column.
    rows: Vec<(String, Vec<Cell>)>,
}

impl Table {
    /// An empty table.
    pub fn new(title: impl Into<String>, columns: &[&'static str]) -> Self {
        Self { title: title.into(), columns: columns.to_vec(), rows: Vec::new() }
    }

    /// Appends a row; `cells` fills the columns after the first, in order.
    ///
    /// # Panics
    /// If the row's width is wrong or a cell is not finite (a failed
    /// prediction, the mean of nothing); the message names the table, row
    /// and column.
    pub fn row(&mut self, label: impl Into<String>, cells: impl IntoIterator<Item = Cell>) {
        let (label, cells): (String, Vec<Cell>) = (label.into(), cells.into_iter().collect());
        assert_eq!(cells.len() + 1, self.columns.len(), "{}: row width", self.title);
        for (cell, column) in cells.iter().zip(&self.columns[1..]) {
            let value = cell.value;
            assert!(value.is_finite(), "{}: ({label}, {column}) is {value}", self.title);
        }
        self.rows.push((label, cells));
    }

    /// The cell in row `row` under column `column`.
    ///
    /// # Panics
    /// If the table has no such row or column.
    pub fn cell(&self, row: &str, column: &str) -> Cell {
        let col = self.columns[1..].iter().position(|c| *c == column);
        let cells = self.rows.iter().find(|(label, _)| label == row).map(|(_, cells)| cells);
        match (cells, col) {
            (Some(cells), Some(col)) => cells[col],
            _ => panic!("{}: no cell ({row}, {column})", self.title),
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.title)?;
        let width = |c: &str| c.chars().count().max(14) + 2;
        let mut header = format!("{:<32}", self.columns[0]);
        for c in &self.columns[1..] {
            header += &format!("{c:>w$}", w = width(c));
        }
        writeln!(f, "{header}\n{}", "-".repeat(header.chars().count()))?;
        for (label, cells) in &self.rows {
            write!(f, "{label:<32}")?;
            for (c, column) in cells.iter().zip(&self.columns[1..]) {
                write!(f, "{:>w$}", c.to_string(), w = width(column))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}
