//! Workspace task runner: `lint`, the determinism lint pass (rules d1..d10,
//! documented in DESIGN.md §13, "Static analysis").

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut path: Option<&str> = None;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other => path = Some(other),
        }
    }
    let report = match path {
        Some(path) => {
            let path = Path::new(path);
            if !path.exists() {
                eprintln!("xtask lint: no such file or directory: {}", path.display());
                return ExitCode::from(2);
            }
            xtask::lint_path(path)
        }
        None => xtask::lint_workspace(&workspace_root()),
    };
    if json {
        print!("{}", report.to_json());
    } else {
        for diag in &report.diagnostics {
            println!("{diag}");
        }
        if report.diagnostics.is_empty() {
            println!("lint clean: {} file(s) scanned", report.files_scanned);
        } else {
            println!(
                "lint: {} violation(s) in {} file(s) scanned",
                report.diagnostics.len(),
                report.files_scanned
            );
        }
    }
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint [--json] [path]");
            eprintln!();
            eprintln!("lint  runs the determinism pass (rules d1..d10, see DESIGN.md");
            eprintln!("      section 13). With no path, lints the whole workspace with");
            eprintln!("      per-path rule scoping; with a file or directory, lints it");
            eprintln!("      with every rule enabled.");
            ExitCode::from(2)
        }
    }
}
