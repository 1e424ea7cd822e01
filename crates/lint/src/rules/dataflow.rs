//! Scope-aware dataflow rules built on [`crate::scope`]:
//!
//! * `no-calls-under-lock` — no `SparqlEndpoint` method (`select`, `ask`,
//!   `keyword_search`), bus publish, or `std::io`/`std::fs` call while any
//!   lock guard is live. DESIGN.md §2.3 states this convention (drop the
//!   guard, then call out); this rule makes it checkable.
//! * `guard-across-wait` — no second lock acquisition and no condvar wait
//!   while holding a guard, unless the `held → acquired` pair is a
//!   declared edge in the lock-order registry (`// lock-order: A -> B`).
//! * `discarded-result` — a call to a same-file `Result`-returning
//!   function whose value is thrown away (`let _ = …;` or a bare
//!   statement) in non-test library code.
//!
//! The liveness model is [`crate::scope::GuardTracker`]'s: lexical,
//! intra-function, agreeing with the `lock-order` edge extractor on what
//! "holding" means. Guards the analysis cannot name (an acquisition on an
//! unregistered lock) still count as held for both lock rules.

use super::significant;
use crate::findings::Finding;
use crate::lexer::{Token, TokenKind};
use crate::scope::GuardTracker;
use crate::source::SourceFile;

/// Workspace context the dataflow rules need beyond one file's tokens.
pub struct DataflowContext<'a> {
    /// This file's lock registrations as `(field, name)` pairs.
    pub field_to_name: Vec<(&'a str, &'a str)>,
    /// Workspace-declared nesting edges (`// lock-order: A -> B`).
    pub declared: &'a [(String, String)],
}

/// `SparqlEndpoint` trait methods: a query round-trip under a guard
/// serializes the whole endpoint behind this lock.
const ENDPOINT_METHODS: &[&str] = &["select", "select_ids", "ask", "keyword_search"];
/// Event-bus publication: takes the bus locks, nesting them under ours.
const PUBLISH_METHODS: &[&str] = &["publish", "publish_with"];
/// Blocking I/O methods.
const IO_METHODS: &[&str] = &["write_all", "read_to_string", "flush", "sync_all"];
/// Condvar wait methods (plus the poison-tolerant `wait_or_recover`).
const WAIT_METHODS: &[&str] = &["wait", "wait_timeout", "wait_while", "wait_timeout_while"];

/// Runs all three dataflow rules over one file.
pub fn check(file: &SourceFile, ctx: &DataflowContext) -> Vec<Finding> {
    let mut findings = under_lock_scan(file, ctx);
    findings.extend(discarded_results(file));
    findings
}

/// What one acquisition-like site looks like to the scanner.
struct Acquisition {
    /// Resolved registry name, if the site names a registered lock.
    lock: Option<String>,
    /// 1-based line.
    line: u32,
}

/// Single pass driving `no-calls-under-lock` and `guard-across-wait`.
fn under_lock_scan(file: &SourceFile, ctx: &DataflowContext) -> Vec<Finding> {
    let toks = significant(file);
    let text = &file.text;
    let resolve = |field: &str| -> Option<String> {
        ctx.field_to_name
            .iter()
            .find(|(f, _)| *f == field)
            .map(|(_, n)| (*n).to_owned())
    };

    let mut tracker = GuardTracker::new();
    let mut findings = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let word = toks[i].text(text);
        match word {
            "{" => tracker.open_brace(),
            "}" => tracker.close_brace(),
            ";" => tracker.end_statement(),
            // drop ( var )
            "drop"
                if toks.get(i + 1).map(|t| t.text(text)) == Some("(")
                    && toks.get(i + 3).map(|t| t.text(text)) == Some(")") =>
            {
                if let Some(var_tok) = toks.get(i + 2) {
                    tracker.release_var(var_tok.text(text));
                }
            }
            _ => {}
        }
        let in_test = file.in_test_region(toks[i].start);

        // Condvar waits (including `wait_or_recover`) consume the waited
        // guard; every *other* live guard is held across the wait.
        if let Some(consumed) = wait_at(&toks, text, i) {
            if !in_test {
                let waited_locks: Vec<Option<String>> = tracker
                    .live()
                    .iter()
                    .filter(|h| {
                        h.var
                            .as_deref()
                            .is_some_and(|v| consumed.iter().any(|c| c == v))
                    })
                    .map(|h| h.lock.clone())
                    .collect();
                for held in tracker.live() {
                    if held
                        .var
                        .as_deref()
                        .is_some_and(|v| consumed.iter().any(|c| c == v))
                    {
                        continue; // the guard being waited on
                    }
                    let exempt = waited_locks
                        .iter()
                        .any(|w| declared_pair(ctx.declared, &held.lock, w));
                    if !exempt {
                        findings.push(finding(
                            file,
                            "guard-across-wait",
                            toks[i].line,
                            format!(
                                "condvar wait while holding `{}` (acquired line {}); \
                                 a waiting thread parks with the lock held",
                                name_of(&held.lock),
                                held.line
                            ),
                        ));
                    }
                }
                // Only a wait that consumed a tracked guard hands one
                // back; a `.wait()` on something else (a process child, a
                // barrier) must not invent a phantom guard.
                if !waited_locks.is_empty() {
                    let lock = waited_locks.into_iter().flatten().next();
                    for var in &consumed {
                        tracker.release_var(var);
                    }
                    tracker.acquire(lock, binding_var(&toks, text, i), toks[i].line);
                }
            }
            i += 1;
            continue;
        }

        if let Some(acq) = acquisition_at(&toks, text, i, &resolve) {
            if !in_test {
                for held in tracker.live() {
                    if !declared_pair(ctx.declared, &held.lock, &acq.lock) {
                        findings.push(finding(
                            file,
                            "guard-across-wait",
                            acq.line,
                            format!(
                                "lock `{}` acquired while holding `{}` (acquired line {}); \
                                 declare `// lock-order: {} -> {}` if this nesting is intended",
                                name_of(&acq.lock),
                                name_of(&held.lock),
                                held.line,
                                name_of(&held.lock),
                                name_of(&acq.lock),
                            ),
                        ));
                    }
                }
                tracker.acquire(acq.lock, binding_var(&toks, text, i), acq.line);
            }
            i += 1;
            continue;
        }

        if tracker.any_live() && !in_test {
            if let Some(method) = denied_method_at(&toks, text, i) {
                let held = tracker.live().last().map(|h| name_of(&h.lock).to_owned());
                findings.push(finding(
                    file,
                    "no-calls-under-lock",
                    toks[i].line,
                    format!(
                        "`.{method}(…)` called while holding `{}`; drop the guard before \
                         calling out (endpoint/publish/io under a lock serializes the workspace)",
                        held.as_deref().unwrap_or("<unnamed>")
                    ),
                ));
            } else if std_io_path_at(&toks, text, i) {
                let held = tracker.live().last().map(|h| name_of(&h.lock).to_owned());
                findings.push(finding(
                    file,
                    "no-calls-under-lock",
                    toks[i].line,
                    format!(
                        "`std::{}` used while holding `{}`; do I/O outside the critical section",
                        toks[i + 3].text(text),
                        held.as_deref().unwrap_or("<unnamed>")
                    ),
                ));
            }
        }
        i += 1;
    }
    findings
}

fn name_of(lock: &Option<String>) -> &str {
    lock.as_deref().unwrap_or("<unregistered>")
}

fn finding(file: &SourceFile, rule: &'static str, line: u32, message: String) -> Finding {
    Finding {
        rule,
        file: file.path.clone(),
        line,
        snippet: file.line_snippet(line),
        message,
    }
}

fn declared_pair(
    declared: &[(String, String)],
    from: &Option<String>,
    to: &Option<String>,
) -> bool {
    match (from, to) {
        (Some(f), Some(t)) => declared.iter().any(|(df, dt)| df == f && dt == t),
        _ => false,
    }
}

/// If token `i` starts a condvar wait, returns the identifier arguments
/// (the guard variables moved into the call).
fn wait_at(toks: &[Token], text: &str, i: usize) -> Option<Vec<String>> {
    let word = toks[i].text(text);
    let is_helper = word == "wait_or_recover";
    let is_method = WAIT_METHODS.contains(&word) && i >= 1 && toks[i - 1].text(text) == ".";
    if !is_helper && !is_method {
        return None;
    }
    if toks.get(i + 1).map(|t| t.text(text)) != Some("(") {
        return None;
    }
    let close = matching_paren(toks, text, i + 1)?;
    let args: Vec<String> = toks[i + 2..close]
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text(text).to_owned())
        .collect();
    Some(args)
}

/// If token `i` starts a lock acquisition, describes it. Recognized:
/// `lock_or_recover("name", &…field)` (name literal preferred, field
/// fallback) and `.lock()`/`.read()`/`.write()` on a registered field.
fn acquisition_at(
    toks: &[Token],
    text: &str,
    i: usize,
    resolve: &dyn Fn(&str) -> Option<String>,
) -> Option<Acquisition> {
    let word = toks[i].text(text);
    if word == "lock_or_recover" && toks.get(i + 1).map(|t| t.text(text)) == Some("(") {
        let close = matching_paren(toks, text, i + 1)?;
        // prefer the name literal the witness will use at runtime
        let lock = match toks.get(i + 2) {
            Some(t) if t.kind == TokenKind::Str => Some(t.text(text).trim_matches('"').to_owned()),
            _ => toks[i + 2..close]
                .iter()
                .rev()
                .find(|t| t.kind == TokenKind::Ident)
                .and_then(|t| resolve(t.text(text))),
        };
        return Some(Acquisition {
            lock,
            line: toks[i].line,
        });
    }
    if matches!(word, "lock" | "read" | "write")
        && i >= 2
        && toks[i - 1].text(text) == "."
        && toks[i - 2].kind == TokenKind::Ident
        && toks.get(i + 1).map(|t| t.text(text)) == Some("(")
    {
        // only registered fields: plain `.read()`/`.write()` are also I/O
        // method names, so an unresolved receiver is not an acquisition
        let lock = resolve(toks[i - 2].text(text))?;
        return Some(Acquisition {
            lock: Some(lock),
            line: toks[i].line,
        });
    }
    None
}

/// A denied method call at token `i`: `. name (` with `name` on one of
/// the deny lists.
fn denied_method_at<'s>(toks: &[Token], text: &'s str, i: usize) -> Option<&'s str> {
    let word = toks[i].text(text);
    let denied = ENDPOINT_METHODS.contains(&word)
        || PUBLISH_METHODS.contains(&word)
        || IO_METHODS.contains(&word);
    if denied
        && i >= 1
        && toks[i - 1].text(text) == "."
        && toks.get(i + 1).map(|t| t.text(text)) == Some("(")
    {
        return Some(word);
    }
    None
}

/// `std :: io` / `std :: fs` path reference starting at token `i`.
fn std_io_path_at(toks: &[Token], text: &str, i: usize) -> bool {
    toks[i].text(text) == "std"
        && toks.get(i + 1).map(|t| t.text(text)) == Some(":")
        && toks.get(i + 2).map(|t| t.text(text)) == Some(":")
        && toks
            .get(i + 3)
            .map(|t| matches!(t.text(text), "io" | "fs"))
            .unwrap_or(false)
}

/// The variable receiving the expression containing token `i`:
/// `let [mut] var = …` or a plain rebind `var = …` at statement start.
fn binding_var(toks: &[Token], text: &str, i: usize) -> Option<String> {
    // rebind: `; var = wait_or_recover(…)`
    if i >= 2
        && toks[i - 1].text(text) == "="
        && toks[i - 2].kind == TokenKind::Ident
        && (i < 3 || matches!(toks[i - 3].text(text), ";" | "{" | "}"))
    {
        return Some(toks[i - 2].text(text).to_owned());
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        match toks[j].text(text) {
            ";" | "{" | "}" => return None,
            "let" => {
                let mut k = j + 1;
                if toks.get(k).map(|t| t.text(text)) == Some("mut") {
                    k += 1;
                }
                let var = toks.get(k)?;
                if var.kind == TokenKind::Ident
                    && toks.get(k + 1).map(|t| t.text(text)) == Some("=")
                {
                    return Some(var.text(text).to_owned());
                }
                return None;
            }
            _ => {}
        }
    }
    None
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[Token], text: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text(text) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

// ---- discarded-result --------------------------------------------------

/// Flags discarded `Result`s from same-file functions: `let _ = f(…);`
/// and bare `f(…);` statements where `f` is declared in this file with a
/// `-> Result<…>` return type.
fn discarded_results(file: &SourceFile) -> Vec<Finding> {
    let toks = significant(file);
    let text = &file.text;
    let fns = result_fns(&toks, text);
    if fns.is_empty() {
        return Vec::new();
    }

    let mut findings = Vec::new();
    for i in 0..toks.len() {
        let word = toks[i].text(text);
        if !fns.iter().any(|f| f == word) {
            continue;
        }
        if toks.get(i + 1).map(|t| t.text(text)) != Some("(") {
            continue;
        }
        if i >= 1 && toks[i - 1].text(text) == "fn" {
            continue; // the declaration itself
        }
        if file.in_test_region(toks[i].start) {
            continue;
        }
        let Some(close) = matching_paren(&toks, text, i + 1) else {
            continue;
        };
        if toks.get(close + 1).map(|t| t.text(text)) != Some(";") {
            continue; // chained, propagated (`?`), or otherwise consumed
        }
        // Walk back to the statement start and classify the receiver.
        let mut back: Vec<&Token> = Vec::new();
        let mut j = i;
        while j > 0 {
            j -= 1;
            if matches!(toks[j].text(text), ";" | "{" | "}") {
                break;
            }
            back.push(&toks[j]);
        }
        // strip the receiver chain (`self . inner .` …), nearest first;
        // keywords lex as Ident but mean the value is consumed
        // (`return f(…);`, `match f(…) …`), so they disqualify
        const CONSUMING_KEYWORDS: &[&str] = &[
            "return", "break", "match", "if", "while", "for", "loop", "else", "in", "yield",
        ];
        let mut idx = 0;
        let mut consumed_by_keyword = false;
        while idx < back.len() {
            let t = back[idx];
            let w = t.text(text);
            if CONSUMING_KEYWORDS.contains(&w) {
                consumed_by_keyword = true;
                break;
            }
            if t.kind == TokenKind::Ident || matches!(w, "." | "&" | "*") {
                idx += 1;
            } else {
                break;
            }
        }
        if consumed_by_keyword {
            continue;
        }
        let rest = &back[idx..];
        let discarded = rest.is_empty()
            || (rest.len() == 3
                && rest[0].text(text) == "="
                && rest[1].text(text) == "_"
                && rest[2].text(text) == "let");
        if discarded {
            findings.push(finding(
                file,
                "discarded-result",
                toks[i].line,
                format!(
                    "result of `{word}(…)` is discarded; handle the error or propagate \
                     it with `?` (`let _ =` hides a failure)"
                ),
            ));
        }
    }
    findings
}

/// Names of functions declared in this file with a `Result` return type.
fn result_fns(toks: &[Token], text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].text(text) != "fn" || toks[i + 1].kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text(text);
        // optional generics between the name and the parameter list
        let mut j = i + 2;
        if toks.get(j).map(|t| t.text(text)) == Some("<") {
            let mut depth = 0usize;
            while let Some(t) = toks.get(j) {
                match t.text(text) {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if toks.get(j).map(|t| t.text(text)) != Some("(") {
            i += 1;
            continue;
        }
        let Some(close) = matching_paren(toks, text, j) else {
            i += 1;
            continue;
        };
        // `-> … Result … {` (stop at the body or a `where` clause body)
        let mut k = close + 1;
        let mut is_result = false;
        if toks.get(k).map(|t| t.text(text)) == Some("-")
            && toks.get(k + 1).map(|t| t.text(text)) == Some(">")
        {
            k += 2;
            while let Some(t) = toks.get(k) {
                match t.text(text) {
                    "{" | ";" => break,
                    "Result" => {
                        is_result = true;
                        break;
                    }
                    _ => k += 1,
                }
            }
        }
        if is_result {
            out.push(name.to_owned());
        }
        i = close + 1;
    }
    out
}
