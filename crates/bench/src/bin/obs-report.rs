//! Renders flight-recorder artefacts on the terminal.
//!
//! ```text
//! obs-report DUMP.json            # black-box dump → phase/percentile tables
//! obs-report BENCH_lia.json       # bench report → its family rows
//! obs-report --diff OLD.json NEW.json   # two BENCH_lia.json documents
//! ```
//!
//! The file kind is read from the document's `schema` field, so plain
//! `obs-report FILE` does the right thing for any artefact the solver
//! writes.

use posr_bench::obsreport::{diff_bench, render_artefact};

const USAGE: &str = "usage: obs-report FILE | obs-report --diff OLD.json NEW.json";

fn read(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("obs-report: cannot read {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [flag, old, new] if flag == "--diff" => diff_bench(&read(old), &read(new)),
        [path] if !path.starts_with("--") => render_artefact(&read(path)),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    match result {
        Ok(rendered) => print!("{rendered}"),
        Err(e) => {
            eprintln!("obs-report: {e}");
            std::process::exit(1);
        }
    }
}
