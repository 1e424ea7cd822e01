//! The `re2x-lint` binary: lints the workspace and gates on its findings.
//!
//! ```text
//! re2x-lint [--root DIR] [--format text|json]
//! ```
//!
//! Exit codes: 0 clean (every finding allowed), 1 findings, 2 usage/IO
//! error.

// lint:allow-file(no-debug-output, rendering findings to the terminal is this binary's job)

use re2x_lint::engine::{collect_files, lint_files, report_to_json};
use re2x_lint::findings::finding_to_text;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: Option<PathBuf>,
    format: Format,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        format: Format::Text,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = Some(PathBuf::from(
                    args.next().ok_or("--root needs a directory")?,
                ));
            }
            "--format" => {
                opts.format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => return Err(format!("unknown format {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// Walks up from the current directory to the first directory containing
/// a `crates/` subdirectory and a `Cargo.toml`.
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("no workspace root found (looked for crates/ + Cargo.toml)".to_owned());
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => find_root()?,
    };
    let files = collect_files(&root)?;
    let result = lint_files(&files);

    match opts.format {
        Format::Json => {
            println!("{}", report_to_json(&result));
        }
        Format::Text => {
            for finding in &result.findings {
                println!("{}", finding_to_text(finding));
            }
            println!(
                "re2x-lint: {} finding(s), {} allowed; {} registered lock(s), {} nesting edge(s)",
                result.findings.len(),
                result.suppressed,
                result.registrations.len(),
                result.edges.len()
            );
        }
    }

    if result.findings.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("re2x-lint: {message}");
            ExitCode::from(2)
        }
    }
}
