//! Experiment harness: one function per experiment in DESIGN.md's index,
//! each returning a printable [`Table`] whose rows are what EXPERIMENTS.md
//! records. The `tables` binary dispatches on experiment ids.

pub mod experiments;
pub mod legacy_theorem1;
pub mod serving;

use xtree_json::Value;
use xtree_sim::Message;

/// Writes `text` and a newline to stdout, where every bench binary prints
/// its result document. A reader that has gone away (`faultbench --smoke
/// | head -1`) is no failure: the output is dropped and the binary goes on
/// to its checks, as `xtree-cli` treats a closed pipe.
pub fn print_stdout(text: &str) {
    use std::io::Write;
    let _ = writeln!(std::io::stdout().lock(), "{text}");
}

/// Seeded uniform-random message batches over `n` vertices from a cheap
/// LCG, so every bench binary (and every rerun) sees an identical workload
/// for a given `seed`. `simbench` seeds with `0x5EED_BEEF`, `faultbench`
/// with `0x5EED_FA17`, `telbench` with `0x5EED_7E1E`.
pub fn seeded_batches(seed: u64, n: u64, batches: usize, count: usize) -> Vec<Vec<Message>> {
    let mut state = seed;
    let mut rand = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..batches)
        .map(|_| {
            (0..count)
                .map(|_| Message {
                    src: (rand() % n) as u32,
                    dst: (rand() % n) as u32,
                })
                .collect()
        })
        .collect()
}

/// A formatted experiment result.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id (`T1`, `L2`, `F1`, …).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// What the paper claims, for the paper-vs-measured comparison.
    pub claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// One-line verdict after measuring.
    pub verdict: String,
}

impl Table {
    /// Renders the table as aligned monospace text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {}\n", self.id, self.title));
        out.push_str(&format!("   paper: {}\n", self.claim));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&format!("   {}\n", fmt_row(&self.headers)));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&format!("   {}\n", "-".repeat(total.min(120))));
        for row in &self.rows {
            out.push_str(&format!("   {}\n", fmt_row(row)));
        }
        out.push_str(&format!("   => {}\n", self.verdict));
        out
    }

    /// The table as a JSON object (same field names `--json` always used).
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("id", self.id)
            .with("title", self.title.as_str())
            .with("claim", self.claim.as_str())
            .with(
                "headers",
                self.headers.iter().map(String::as_str).collect::<Value>(),
            )
            .with(
                "rows",
                self.rows
                    .iter()
                    .map(|row| row.iter().map(String::as_str).collect::<Value>())
                    .collect::<Value>(),
            )
            .with("verdict", self.verdict.as_str())
    }
}

/// The deterministic seeds used by every experiment sweep.
pub fn seeds(count: u64) -> impl Iterator<Item = u64> {
    (0..count).map(|i| 0x5EED_0000 + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = Table {
            id: "X",
            title: "demo".into(),
            claim: "none".into(),
            headers: vec!["a".into(), "bb".into()],
            rows: vec![vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
            verdict: "ok".into(),
        };
        let s = t.render();
        assert!(s.contains("== X — demo"));
        assert!(s.contains("=> ok"));
        assert_eq!(s.lines().count(), 7);
    }

    #[test]
    fn seeds_are_deterministic() {
        let a: Vec<u64> = seeds(5).collect();
        let b: Vec<u64> = seeds(5).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn seeded_batches_are_deterministic_and_in_range() {
        let a = seeded_batches(0x5EED_BEEF, 31, 3, 16);
        let b = seeded_batches(0x5EED_BEEF, 31, 3, 16);
        assert_eq!(a, b);
        assert_ne!(a, seeded_batches(0x5EED_FA17, 31, 3, 16));
        assert_eq!(a.len(), 3);
        for batch in &a {
            assert_eq!(batch.len(), 16);
            for m in batch {
                assert!(m.src < 31 && m.dst < 31);
            }
        }
    }
}
