//! One module per figure (or per group of figures sharing simulations).

pub mod ablations;
pub mod emcc_ctr;
pub mod fig02;
pub mod fig03;
pub mod fig06_07;
pub mod fig15;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21_22;
pub mod fig24;
pub mod perf;
pub mod race;
pub mod timelines;

use crate::{Harness, RunRequest};

/// One figure (or group of tables) `run_all` can print: its name (the
/// `--only` argument), the runs it needs and its rendered section.
pub struct Figure {
    /// `run_all --only` name.
    pub name: &'static str,
    /// The run-matrix its rendering reads from the cache.
    pub requests: fn() -> Vec<RunRequest>,
    /// The section exactly as `run_all` prints it.
    pub render: fn(&Harness) -> String,
    /// Whether `run_all`'s full pass prints it.
    pub in_full_pass: bool,
}

/// `fig.render()` plus the blank line `run_all` puts after each table.
fn section(fig: FigureData) -> String {
    fig.render() + "\n"
}

const fn figure(
    name: &'static str,
    requests: fn() -> Vec<RunRequest>,
    render: fn(&Harness) -> String,
) -> Figure {
    Figure {
        name,
        requests,
        render,
        in_full_pass: true,
    }
}

/// Every figure, in `run_all`'s print order.
pub static FIGURES: [Figure; 20] = [
    figure("timelines", Vec::new, |_| timelines::render_all() + "\n"),
    figure("fig03", Vec::new, |_| section(fig03::run())),
    figure("fig02", fig02::requests, |h| section(fig02::run(h))),
    figure("fig06", fig06_07::fig06_requests, |h| {
        section(fig06_07::run_fig06(h))
    }),
    figure("fig07", fig06_07::fig07_requests, |h| {
        section(fig06_07::run_fig07(h))
    }),
    figure("fig11", emcc_ctr::requests, |h| {
        section(emcc_ctr::run(h).fig11)
    }),
    figure("fig12", emcc_ctr::requests, |h| {
        section(emcc_ctr::run(h).fig12)
    }),
    figure("fig23", emcc_ctr::requests, |h| {
        section(emcc_ctr::run(h).fig23)
    }),
    figure("fig15", fig15::requests, |h| section(fig15::run(h))),
    figure("fig16", perf::requests, |h| {
        let rows = perf::run_suite(h);
        format!(
            "{}headline: EMCC speeds up Morphable by {:.1}% on average (paper: 7%)\n\n",
            perf::fig16(&rows).render(),
            perf::mean_emcc_speedup(&rows) * 100.0
        )
    }),
    figure("fig17", perf::requests, |h| {
        section(perf::fig17(&perf::run_suite(h)))
    }),
    figure("fig18", fig18::requests, |h| section(fig18::run(h))),
    figure("fig19", fig19::requests, |h| section(fig19::run(h))),
    figure("fig20", fig20::requests, |h| section(fig20::run(h))),
    figure("fig21", fig21_22::requests, |h| {
        section(fig21_22::run(h).fig21)
    }),
    figure("fig22", fig21_22::requests, |h| {
        section(fig21_22::run(h).fig22)
    }),
    figure("fig24", fig24::requests, |h| section(fig24::run(h))),
    figure("ablations", ablations::requests, |h| {
        section(ablations::l2_budget(h))
            + &section(ablations::aes_wait(h))
            + &section(ablations::xpt(h))
    }),
    figure("race", race::requests, |h| race::figure(h).render()),
    // §IV-F extensions (inclusive LLC, dynamic disable): printed on
    // request only, so the full pass stays the committed snapshot.
    Figure {
        in_full_pass: false,
        ..figure("extensions", ablations::extensions_requests, |h| {
            section(ablations::extensions(h))
        })
    },
];

/// The figure named `name`.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The union of every full-pass figure's run-matrix — the exact batch
/// `run_all` schedules in its simulate phase. `perf_gate` executes the
/// same batch so its sims/sec measures the same workload the trajectory
/// in `BENCH_run_all.json` reports.
pub fn all_requests() -> Vec<RunRequest> {
    let mut requests = fig02::requests();
    requests.extend(fig06_07::fig06_requests());
    requests.extend(fig06_07::fig07_requests());
    requests.extend(emcc_ctr::requests());
    requests.extend(fig15::requests());
    requests.extend(perf::requests());
    requests.extend(fig18::requests());
    requests.extend(fig19::requests());
    requests.extend(fig20::requests());
    requests.extend(fig21_22::requests());
    requests.extend(fig24::requests());
    requests.extend(ablations::requests());
    requests.extend(race::requests());
    requests
}

/// A rendered figure: benchmarks as rows, series as columns.
#[derive(Debug, Clone, Default)]
pub struct FigureData {
    /// e.g. "Figure 16: performance normalized to non-secure".
    pub title: String,
    /// Row labels (benchmark names; last row is typically "mean").
    pub rows: Vec<String>,
    /// Column labels.
    pub cols: Vec<String>,
    /// `values[row][col]`.
    pub values: Vec<Vec<f64>>,
    /// Whether values render as percentages.
    pub percent: bool,
    /// Free-form comparison note (paper's reported numbers).
    pub note: String,
}

impl FigureData {
    /// Appends an arithmetic-mean row over the current rows.
    pub fn push_mean_row(&mut self) {
        if self.values.is_empty() {
            return;
        }
        let cols = self.values[0].len();
        let mut mean = vec![0.0; cols];
        for row in &self.values {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= self.values.len() as f64;
        }
        self.rows.push("mean".to_string());
        self.values.push(mean);
    }

    /// Mean-row value for column `c` (the figure's headline number).
    ///
    /// # Panics
    ///
    /// Panics if no mean row was pushed or `c` is out of range.
    pub fn mean(&self, c: usize) -> f64 {
        assert_eq!(self.rows.last().map(String::as_str), Some("mean"));
        self.values.last().expect("rows exist")[c]
    }

    /// Renders the table as CSV (`benchmark,col1,col2,...`), for plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("benchmark");
        for c in &self.cols {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (name, row) in self.rows.iter().zip(&self.values) {
            out.push_str(name);
            for v in row {
                out.push_str(&format!(",{v:.6}"));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the table as fixed-width text.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.title);
        out.push_str(&crate::runner::header_row(
            "benchmark",
            &self.cols.iter().map(String::as_str).collect::<Vec<_>>(),
        ));
        out.push('\n');
        for (name, row) in self.rows.iter().zip(&self.values) {
            let line = if self.percent {
                crate::runner::pct_row(name, row)
            } else {
                crate::runner::num_row(name, row)
            };
            out.push_str(&line);
            out.push('\n');
        }
        if !self.note.is_empty() {
            out.push_str(&format!("paper: {}\n", self.note));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_requests_is_the_full_pass_union() {
        use std::collections::HashSet;
        let all: HashSet<RunRequest> = all_requests().into_iter().collect();
        let table: HashSet<RunRequest> = FIGURES
            .iter()
            .filter(|f| f.in_full_pass)
            .flat_map(|f| (f.requests)())
            .collect();
        assert_eq!(all, table);
    }

    #[test]
    fn figure_names_are_unique() {
        let names: std::collections::HashSet<_> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len());
    }

    #[test]
    fn mean_row_is_arithmetic() {
        let mut f = FigureData {
            rows: vec!["a".into(), "b".into()],
            cols: vec!["x".into()],
            values: vec![vec![1.0], vec![3.0]],
            ..FigureData::default()
        };
        f.push_mean_row();
        assert_eq!(f.mean(0), 2.0);
        assert_eq!(f.rows.len(), 3);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let f = FigureData {
            rows: vec!["canneal".into()],
            cols: vec!["EMCC".into(), "base".into()],
            values: vec![vec![0.125, 1.0]],
            ..FigureData::default()
        };
        let csv = f.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "benchmark,EMCC,base");
        assert!(lines[1].starts_with("canneal,0.125000,1.000000"));
    }

    #[test]
    fn render_contains_rows_and_note() {
        let mut f = FigureData {
            title: "Figure X".into(),
            rows: vec!["canneal".into()],
            cols: vec!["EMCC".into()],
            values: vec![vec![0.125]],
            percent: true,
            note: "12.5% for canneal".into(),
        };
        f.push_mean_row();
        let s = f.render();
        assert!(s.contains("Figure X"));
        assert!(s.contains("canneal"));
        assert!(s.contains("12.5%"));
        assert!(s.contains("paper:"));
    }
}
