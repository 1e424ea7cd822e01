//! Output-format regressions: the JSON report must stay valid JSON even
//! when snippets carry quotes/backslashes.

use re2x_lint::engine::{lint_files, report_to_json};
use re2x_lint::SourceFile;
use std::io::Write;
use std::process::{Command, Stdio};

/// A source whose offending lines are full of JSON-hostile characters.
fn hostile_file(path: &str) -> SourceFile {
    let text = "pub fn f(input: Option<u32>) -> u32 {\n\
                \x20   input.expect(\"C:\\\\data\\\\ \\\"quoted\\\" name\")\n\
                }\n";
    SourceFile::new(path.to_owned(), "fx".to_owned(), text.to_owned())
}

#[test]
fn json_report_survives_quotes_and_backslashes() {
    let result = lint_files(&[hostile_file("crates/fx/src/hostile.rs")]);
    assert!(
        !result.findings.is_empty(),
        "the fixture must produce a finding whose snippet needs escaping"
    );
    let json = report_to_json(&result);
    assert!(
        json.contains("\\\\") && json.contains("\\\""),
        "escapes present in the payload: {json}"
    );

    // Validate with a real parser when one is around; the string checks
    // above still cover the escaping path when python3 is absent.
    let Ok(mut child) = Command::new("python3")
        .args(["-m", "json.tool"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
    else {
        return;
    };
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(json.as_bytes())
        .expect("feed json.tool");
    let status = child.wait().expect("json.tool exits");
    assert!(status.success(), "python3 -m json.tool rejected: {json}");
}
