//! Specialization statistics — the quantitative side of the paper's §3
//! "opportunities" narrative and the input to the Table 3 code-size model.

use std::collections::HashMap;

/// Counters accumulated during one specialization run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecReport {
    /// Conditionals folded because their condition was static
    /// (encode/decode dispatch, overflow checks, status tests).
    pub static_ifs_folded: u64,
    /// Folded conditionals broken down by the source function they were
    /// in — lets the driver attribute eliminations to the paper's
    /// categories (e.g. folds inside `xdr_long` are §3.1 dispatches;
    /// folds inside `xdrmem_putlong` are §3.2 overflow checks).
    pub folded_ifs_by_func: HashMap<String, u64>,
    /// Calls unfolded (inlined) into the residual.
    pub calls_unfolded: u64,
    /// Loop iterations executed/unrolled at specialization time.
    pub loop_iters_unrolled: u64,
    /// Assignments executed purely at specialization time.
    pub static_assigns: u64,
    /// Conditionals kept in the residual (dynamic conditions: reply
    /// validation, the §6.2 `inlen` guard).
    pub dynamic_ifs_residualized: u64,
    /// Loops kept in the residual.
    pub dynamic_loops_residualized: u64,
    /// Statement count of the residual function.
    pub residual_stmts: usize,
}

impl SpecReport {
    /// Folded conditionals attributed to functions whose name contains
    /// `needle` (e.g. `"putlong"` for overflow checks).
    pub fn folds_in(&self, needle: &str) -> u64 {
        self.folded_ifs_by_func
            .iter()
            .filter(|(k, _)| k.contains(needle))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Account for a loop proved from one pass over its body: `self` is
    /// the report after that pass, `before` the report before it, and
    /// every counter the pass bumped is what `trips` unrolled iterations
    /// would have bumped it to.
    pub(crate) fn repeat_since(&mut self, before: &SpecReport, trips: u64) {
        let scale = |now: &mut u64, was: u64| *now = was + (*now - was) * trips;
        scale(&mut self.static_ifs_folded, before.static_ifs_folded);
        scale(&mut self.calls_unfolded, before.calls_unfolded);
        scale(&mut self.loop_iters_unrolled, before.loop_iters_unrolled);
        scale(&mut self.static_assigns, before.static_assigns);
        for (func, folds) in &mut self.folded_ifs_by_func {
            scale(
                folds,
                before.folded_ifs_by_func.get(func).copied().unwrap_or(0),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_in_matches_substring() {
        let mut r = SpecReport::default();
        r.folded_ifs_by_func.insert("xdrmem_putlong".into(), 5);
        r.folded_ifs_by_func.insert("xdrmem_getlong".into(), 2);
        r.folded_ifs_by_func.insert("xdr_long".into(), 7);
        assert_eq!(r.folds_in("putlong"), 5);
        assert_eq!(r.folds_in("xdr"), 14);
        assert_eq!(r.folds_in("nope"), 0);
    }
}
