//! What an experiment hands back: a [`Report`] of tables, note lines,
//! the `rows` JSON, extra report sections and artifacts — with every
//! table built from **one column list** per row type.
//!
//! A [`Col`] states a column once: its markdown side (header, cell
//! text) and its JSON side (key, value). [`Table::of`] walks the list
//! over the rows and yields both projections together, so the table in
//! EXPERIMENTS.md and the rows of `BENCH_<name>.json` cannot drift
//! apart. A column that exists on one side only says so where it
//! stands in the list ([`Col::Md`], [`Col::Json`]), not in a second list.

use crate::{markdown_table, ExpOpts, Experiment};
use apram_model::Json;

/// One column of a table over rows of type `R`.
pub enum Col<R> {
    /// `(header, key, value)`: on both sides, the cell being the JSON
    /// value's plain text — numbers and strings as they are, `yes`/`NO`
    /// for booleans (a failed check should shout), `-` for null.
    Same(&'static str, &'static str, fn(&R) -> Json),
    /// `(header, cell, key, value)`: on both sides, the cell formatted
    /// for reading (rounded, a percentage, `a/b`, a verdict word).
    Both(&'static str, fn(&R) -> String, &'static str, fn(&R) -> Json),
    /// `(header, cell)`: a column of the markdown table only.
    Md(&'static str, fn(&R) -> String),
    /// `(key, value)`: a field of the JSON rows only.
    Json(&'static str, fn(&R) -> Json),
}

impl<R> Col<R> {
    /// The markdown header, if the column is shown.
    fn header(&self) -> Option<&'static str> {
        match *self {
            Col::Same(header, ..) | Col::Both(header, ..) | Col::Md(header, _) => Some(header),
            Col::Json(..) => None,
        }
    }

    /// This row's markdown cell, if the column is shown.
    fn cell(&self, row: &R) -> Option<String> {
        match *self {
            Col::Same(_, _, value) => Some(plain(&value(row))),
            Col::Both(_, cell, ..) | Col::Md(_, cell) => Some(cell(row)),
            Col::Json(..) => None,
        }
    }

    /// The JSON key and this row's value, if the column is reported.
    fn field(&self, row: &R) -> Option<(&'static str, Json)> {
        match *self {
            Col::Same(_, key, value) | Col::Both(_, _, key, value) | Col::Json(key, value) => {
                Some((key, value(row)))
            }
            Col::Md(..) => None,
        }
    }
}

/// The table text of a [`Col::Same`] value.
fn plain(v: &Json) -> String {
    match v {
        Json::Null => "-".into(),
        Json::Bool(b) => if *b { "yes" } else { "NO" }.into(),
        Json::Str(s) => s.clone(),
        Json::Float(x) => x.to_string(),
        other => other.to_compact(),
    }
}

/// The JSON value of a plain Rust value, so a column reads
/// `|r| r.n.json()` whatever the field's type.
pub trait ToJson {
    /// This value as a [`Json`] node (`None` is `null`).
    fn json(&self) -> Json;
}

impl ToJson for u64 {
    fn json(&self) -> Json {
        Json::UInt(*self)
    }
}

impl ToJson for u32 {
    fn json(&self) -> Json {
        Json::UInt(u64::from(*self))
    }
}

impl ToJson for usize {
    fn json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl ToJson for f64 {
    fn json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for bool {
    fn json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn json(&self) -> Json {
        Json::Str(self.into())
    }
}

impl ToJson for String {
    fn json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn json(&self) -> Json {
        Json::Arr(self.iter().map(T::json).collect())
    }
}

/// `{"reads": r, "writes": w}` — the E4/E5 operation-count pair.
pub fn counts((reads, writes): (u64, u64)) -> Json {
    Json::obj([("reads", reads.json()), ("writes", writes.json())])
}

/// A table in both projections, row for row.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Markdown headers.
    pub headers: Vec<&'static str>,
    /// Markdown cells, one vector per row, as long as `headers`.
    pub cells: Vec<Vec<String>>,
    /// JSON rows: one object per row, all with the same keys.
    pub rows: Vec<Json>,
}

impl Table {
    /// Project `rows` through `cols`.
    pub fn of<R>(cols: &[Col<R>], rows: &[R]) -> Table {
        let cells = |row| cols.iter().filter_map(|c| c.cell(row)).collect();
        let fields = |row| Json::obj(cols.iter().filter_map(|c| c.field(row)));
        Table {
            headers: cols.iter().filter_map(Col::header).collect(),
            cells: rows.iter().map(cells).collect(),
            rows: rows.iter().map(fields).collect(),
        }
    }

    /// Append a markdown-only footer row (E6's total line).
    pub fn footer(mut self, cells: Vec<String>) -> Table {
        self.cells.push(cells);
        self
    }

    /// The GitHub-markdown rendering.
    pub fn markdown(&self) -> String {
        markdown_table(&self.headers, &self.cells)
    }

    /// The JSON rows as one array.
    pub fn json(&self) -> Json {
        Json::Arr(self.rows.clone())
    }
}

/// One printed block of a report; each is followed by a blank line.
#[derive(Clone, Debug)]
pub enum Block {
    /// A heading, a note line, or several lines of preformatted text.
    Text(String),
    /// A table.
    Table(Table),
}

/// The directory an artifact goes to: the one given with the CLI flag
/// of the same name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sink {
    /// `--telemetry [DIR]`
    Telemetry,
    /// `--forensics DIR`
    Forensics,
}

/// A file an experiment produced beside its report.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Which directory it belongs in.
    pub sink: Sink,
    /// File name; must be one the experiment's registry entry declares.
    pub name: &'static str,
    /// File contents.
    pub contents: String,
}

/// Everything one experiment run produced.
#[derive(Clone, Debug)]
pub struct Report {
    /// What to print under the experiment's heading, in order.
    pub body: Vec<Block>,
    /// The `rows` value of `BENCH_<name>.json`.
    pub rows: Json,
    /// Further top-level sections of the JSON report, after `rows`
    /// (`distributions`, `gates`, `spot_check`).
    pub sections: Vec<(&'static str, Json)>,
    /// Files for the `--telemetry` / `--forensics` directories.
    pub artifacts: Vec<Artifact>,
}

impl Report {
    /// A report with the given `rows` value and nothing printed yet.
    pub fn new(rows: Json) -> Report {
        Report {
            body: Vec::new(),
            rows,
            sections: Vec::new(),
            artifacts: Vec::new(),
        }
    }

    /// The common case: one table, whose JSON rows are the report's.
    pub fn of(table: Table) -> Report {
        Report::new(table.json()).table(table)
    }

    /// Print `table` next.
    pub fn table(mut self, table: Table) -> Report {
        self.body.push(Block::Table(table));
        self
    }

    /// Print `text` next.
    pub fn text(mut self, text: impl Into<String>) -> Report {
        self.body.push(Block::Text(text.into()));
        self
    }

    /// Add a top-level JSON section.
    pub fn section(mut self, key: &'static str, value: Json) -> Report {
        self.sections.push((key, value));
        self
    }

    /// Add the `gates` section and print it as a note line.
    pub fn gates(self, gates: Json) -> Report {
        self.text(format!("gates: {}", gates.to_compact()))
            .section("gates", gates)
    }

    /// Attach a file for `sink`'s directory.
    pub fn artifact(mut self, sink: Sink, name: &'static str, contents: String) -> Report {
        self.artifacts.push(Artifact {
            sink,
            name,
            contents,
        });
        self
    }

    /// Everything printed under the heading, as the CLI prints it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for block in &self.body {
            match block {
                Block::Text(text) => out.push_str(&format!("{text}\n\n")),
                Block::Table(table) => out.push_str(&format!("{}\n", table.markdown())),
            }
        }
        out
    }

    /// The `BENCH_<name>.json` document of a run of `exp`: run
    /// parameters, wall clock, `rows`, then the extra sections.
    pub fn document(&self, exp: &Experiment, opts: &ExpOpts, wall_clock_secs: f64) -> Json {
        let mut fields = vec![
            ("experiment", exp.name.json()),
            ("title", exp.title.json()),
            ("seed", opts.seed.json()),
            ("quick", opts.quick.json()),
            ("wall_clock_secs", wall_clock_secs.json()),
            ("rows", self.rows.clone()),
        ];
        fields.extend(self.sections.iter().cloned());
        Json::obj(fields)
    }
}
