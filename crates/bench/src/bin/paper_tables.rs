//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p specrpc-bench --bin paper_tables [--release]
//! ```
//!
//! Prints Tables 1–4 side by side with the paper's reported values, and
//! the six Figure 6 series. See EXPERIMENTS.md for the recorded output.

fn main() {
    print!("{}", specrpc_bench::render_all());
}
