//! Invariant tests against the *real* workspace (not fixtures):
//!
//! * `bgc lint` runs clean — the acceptance bar for every future change;
//! * the fault-point registry `bgc_runtime::FAULT_POINTS` exactly matches
//!   the set of `fault::fire`/`fire_io` literals in non-test library code,
//!   in both directions (no unregistered firing, no dead registry entry);
//! * every registered fault point is armed by at least one test.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use bgc_lint::lexer::{test_scope, tokenize, TokenKind};
use bgc_lint::{lint_workspace, workspace_files, FAULT_POINTS};

fn repo_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

#[test]
fn the_workspace_lints_clean() {
    let report = lint_workspace(&repo_root()).expect("workspace lints");
    assert!(
        report.is_clean(),
        "bgc lint must stay clean; run `cargo run -p bgc-bench --bin bgc -- lint` \
         and fix or waive each finding:\n{}",
        bgc_lint::render_human(&report)
    );
    assert!(report.files_scanned > 50, "the scan covered the workspace");
}

#[test]
fn fault_point_registry_matches_fire_call_sites_exactly() {
    let root = repo_root();
    let mut fired: BTreeSet<String> = BTreeSet::new();
    for path in workspace_files(&root).expect("workspace files") {
        let source = std::fs::read_to_string(&path).expect("readable source");
        let tokens = tokenize(&source);
        let in_test = test_scope(&tokens);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_comment())
            .collect();
        for (k, &idx) in code.iter().enumerate() {
            if in_test[idx] {
                continue;
            }
            let tok = &tokens[idx];
            if tok.kind == TokenKind::Ident
                && matches!(tok.text.as_str(), "fire" | "fire_io")
                && k + 2 < code.len()
                && tokens[code[k + 1]].text == "("
                && tokens[code[k + 2]].kind == TokenKind::Str
            {
                fired.insert(tokens[code[k + 2]].text.clone());
            }
        }
    }
    let registered: BTreeSet<String> = FAULT_POINTS.iter().map(|p| p.to_string()).collect();
    assert_eq!(
        fired, registered,
        "bgc_runtime::FAULT_POINTS and the non-test fault::fire call sites \
         must match exactly (left: fired, right: registered)"
    );
}

/// Every `.rs` file under a `tests` directory of `dir`, skipping the lint
/// fixtures (sample sources, not tests).
fn collect_test_files(dir: &Path, inside_tests: bool, files: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("readable directory")
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(name, "fixtures" | "target") {
                collect_test_files(&path, inside_tests || name == "tests", files);
            }
        } else if inside_tests && name.ends_with(".rs") {
            files.push(path);
        }
    }
}

/// Whether a string literal arms `point`: the bare name (`FaultSpec::new`)
/// or one `BGC_FAULTS` spec of it (`point[@ctx][#n]=action`, `;`-separated).
fn arms(literal: &str, point: &str) -> bool {
    literal.split(';').any(|spec| {
        spec.trim()
            .strip_prefix(point)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with(['@', '#', '=']))
    })
}

#[test]
fn every_fault_point_is_fired_by_a_test() {
    // String literals of test code: the integration tests under
    // `crates/*/tests` and the test scope of library sources.
    let root = repo_root();
    let mut literals: Vec<String> = Vec::new();
    let mut test_files = Vec::new();
    collect_test_files(&root.join("crates"), false, &mut test_files);
    for path in &test_files {
        let source = std::fs::read_to_string(path).expect("readable test source");
        for tok in tokenize(&source) {
            if tok.kind == TokenKind::Str {
                literals.push(tok.text);
            }
        }
    }
    assert!(!test_files.is_empty(), "integration tests were found");
    for path in workspace_files(&root).expect("workspace files") {
        let source = std::fs::read_to_string(&path).expect("readable source");
        let tokens = tokenize(&source);
        let in_test = test_scope(&tokens);
        for (tok, in_test) in tokens.into_iter().zip(in_test) {
            if in_test && tok.kind == TokenKind::Str {
                literals.push(tok.text);
            }
        }
    }
    let unfired: Vec<&str> = FAULT_POINTS
        .iter()
        .copied()
        .filter(|point| !literals.iter().any(|literal| arms(literal, point)))
        .collect();
    assert!(
        unfired.is_empty(),
        "fault points no test arms (add one that injects the fault, checks that \
         only its cell or operation fails and that a clean rerun heals): {unfired:?}"
    );
}
