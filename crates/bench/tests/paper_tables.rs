//! `paper_tables` prints modeled milliseconds and virtual time only, so
//! its whole output is one golden. A PR that moves a modeled number on
//! purpose re-blesses by editing `paper_tables.golden` in the same diff
//! (`cargo run --bin paper_tables > crates/bench/tests/paper_tables.golden`).

#[test]
fn render_all_matches_the_golden() {
    let (got, want) = (
        specrpc_bench::render_all(),
        include_str!("paper_tables.golden"),
    );
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "first difference at line {}", i + 1);
    }
    assert_eq!(got, want, "same lines, different length or line endings");
}
