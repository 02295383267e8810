//! `sizes`: the exact guest sizes the theorems fill.

use crate::{Args, CliError};
use xtree_trees::generate;

pub(crate) const USAGE: &str = "[--max-r R]";

pub(crate) fn run(a: &Args) -> Result<String, CliError> {
    let max_r: u8 = a.num_or("max-r", 10u8)?;
    let mut out =
        String::from("r  X-tree size  Theorem-1 guest n = 16(2^{r+1}-1)  Theorem-4 form\n");
    for r in 0..=max_r.min(20) {
        out.push_str(&format!(
            "{r:<2} {:>11}  {:>33}  2^{} - 16\n",
            (1u64 << (r + 1)) - 1,
            generate::theorem1_size(r),
            r + 5
        ));
    }
    Ok(out.trim_end().to_string())
}
