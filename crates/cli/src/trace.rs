//! `trace`: the measured Δ(j, i) matrix of one Theorem-1 build against the
//! paper's bound, and its build log.

use crate::args::make_tree;
use crate::{Args, CliError};
use xtree_core::theorem1;

pub(crate) const USAGE: &str = "--family F --nodes N [--seed S]";

pub(crate) fn run(a: &Args) -> Result<String, CliError> {
    let (tree, family) = make_tree(a)?;
    let res = theorem1::embed(&tree);
    let r = res.emb.height;
    let mut out = format!(
        "guest: {family} ({} nodes), host X({r}) — Δ(j, i) measured/bound\n",
        tree.len()
    );
    out.push_str(&format!("{:>6}", ""));
    for j in 0..=r {
        out.push_str(&format!("{:>12}", format!("j={j}")));
    }
    out.push('\n');
    for (idx, row) in res.trace.iter().enumerate() {
        let i = idx as u8 + 1;
        out.push_str(&format!("{:>6}", format!("i={i}")));
        for (j, &m) in row.iter().enumerate() {
            let cell = match theorem1::paper_bound(r, j as u8, i) {
                Some(b) => format!("{m}/{b}"),
                None => format!("{m}/-"),
            };
            out.push_str(&format!("{cell:>12}"));
        }
        out.push('\n');
    }
    out.push_str(&format!("log: {:?}", res.log));
    Ok(out)
}
