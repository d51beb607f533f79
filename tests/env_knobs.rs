//! The `NETCON_*` environment knobs are documented in one README table;
//! this test greps the workspace sources so the table can never rot:
//! every knob the code reads must appear in the table, and every table
//! row must correspond to a knob the code actually reads.

use std::collections::BTreeSet;
use std::path::Path;

/// Extracts every `NETCON_`-prefixed identifier from `text`.
fn knobs_in(text: &str) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    let mut rest = text;
    while let Some(i) = rest.find("NETCON_") {
        let tail = &rest[i..];
        let end = tail
            .char_indices()
            .find(|(_, c)| !(c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_'))
            .map_or(tail.len(), |(j, _)| j);
        let token = tail[..end].trim_end_matches('_');
        if token.len() > "NETCON_".len() {
            found.insert(token.to_owned());
        }
        rest = &rest[i + end.max(1)..];
    }
    found
}

/// Recursively collects knob names from every `.rs` file under `dir`,
/// skipping the vendored stand-ins (scanned one by one where they read
/// a knob) and build output.
fn knobs_under(dir: &Path, found: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(name, "target" | "vendor" | ".git") {
                knobs_under(&path, found);
            }
        } else if name.ends_with(".rs") {
            let text = std::fs::read_to_string(&path).expect("readable source file");
            found.extend(knobs_in(&text));
        }
    }
}

#[test]
fn readme_env_table_is_exhaustive() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut in_code = BTreeSet::new();
    for dir in ["crates", "src", "examples", "tests", "vendor/criterion"] {
        knobs_under(&root.join(dir), &mut in_code);
    }
    assert!(
        !in_code.is_empty(),
        "the grep found no knobs at all — the scanner is broken"
    );

    // The documented set: first backticked `NETCON_*` token of each
    // README table row.
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md exists");
    let mut documented = BTreeSet::new();
    for line in readme.lines() {
        if let Some(rest) = line.strip_prefix("| `NETCON_") {
            let token = rest.split('`').next().unwrap_or("");
            documented.insert(format!("NETCON_{token}"));
        }
    }

    let undocumented: Vec<_> = in_code.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "knobs read by the code but missing from the README environment table: \
         {undocumented:?} (documented: {documented:?})"
    );
    let stale: Vec<_> = documented.difference(&in_code).collect();
    assert!(
        stale.is_empty(),
        "README environment table rows with no code reading them: {stale:?}"
    );
}
