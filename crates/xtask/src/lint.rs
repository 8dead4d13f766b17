//! The workspace lint pass: walk, check, budget, report.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::budget::Budget;
use crate::context::classify;
use crate::diag::Diagnostic;
use crate::rules::{check_file, ANALYZE_ONLY_RULES};
use crate::walk::{collect_files, rel_str};

/// Name of the burn-down budget file at the workspace root.
pub const BUDGET_FILE: &str = "lint-budget.toml";

/// Result of linting a workspace.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Every diagnostic to print, sorted by file/line.
    pub diagnostics: Vec<Diagnostic>,
    /// Files examined.
    pub files_checked: usize,
    /// Live un-annotated counts per (crate, rule) for budgeted rules.
    pub budget_counts: BTreeMap<(String, String), usize>,
}

impl LintOutcome {
    /// Did the pass find anything?
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lint the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Result<LintOutcome, String> {
    let mut out = LintOutcome::default();
    let mut budgeted: Vec<(String, Diagnostic)> = Vec::new(); // (crate, diag)

    // Source files.
    let files = collect_files(root, &|p| p.extension().is_some_and(|e| e == "rs"))
        .map_err(|e| format!("walking {}: {e}", root.display()))?;
    for rel in &files {
        let rel_s = rel_str(rel);
        let Some(ctx) = classify(&rel_s) else {
            continue;
        };
        let source =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel_s}: {e}"))?;
        out.files_checked += 1;
        let report = check_file(&rel_s, &source, &ctx);
        out.diagnostics.extend(report.diagnostics);
        for d in report.budgeted {
            *out.budget_counts
                .entry((ctx.crate_name.clone(), d.rule.to_string()))
                .or_insert(0) += 1;
            budgeted.push((ctx.crate_name.clone(), d));
        }
    }

    out.diagnostics.extend(manifest_findings(root)?);

    // Budget: read, enforce, ratchet.
    let budget_text = fs::read_to_string(root.join(BUDGET_FILE)).unwrap_or_default();
    let budget = Budget::parse(&budget_text).map_err(|e| format!("{BUDGET_FILE}: {e}"))?;

    // Over budget: every un-annotated violation in that (crate, rule) is
    // reported, plus a summary line.
    for ((krate, rule), &count) in &out.budget_counts {
        let allowed = budget.allowed(krate, rule);
        if count > allowed {
            for (k, d) in &budgeted {
                if k == krate && d.rule == *rule {
                    out.diagnostics.push(d.clone());
                }
            }
            out.diagnostics.push(Diagnostic::new(
                BUDGET_FILE,
                0,
                "budget",
                format!("{krate}/{rule}: {count} un-annotated violations exceed budget {allowed}"),
            ));
        } else if count < allowed {
            out.diagnostics.push(Diagnostic::new(
                BUDGET_FILE,
                0,
                "budget",
                format!(
                    "{krate}/{rule}: budget {allowed} is stale, live count is {count}; \
                     lower it (or run `cargo run -p xtask -- lint --write-budget`)"
                ),
            ));
        }
    }
    // Budget entries for pairs with no live violations at all. Entries
    // for analyze-only rules (e.g. `units`) belong to the analyze pass,
    // which counts them; lint must not call them stale.
    for (krate, rule, n) in budget.keys() {
        if ANALYZE_ONLY_RULES.contains(&rule) {
            continue;
        }
        if n > 0
            && !out
                .budget_counts
                .contains_key(&(krate.to_string(), rule.to_string()))
        {
            out.diagnostics.push(Diagnostic::new(
                BUDGET_FILE,
                0,
                "budget",
                format!("{krate}/{rule}: budget {n} is stale, live count is 0; remove the entry"),
            ));
        }
    }

    out.diagnostics.sort();
    out.diagnostics.dedup();
    Ok(out)
}

/// Write a fresh budget file matching the live counts. Entries for
/// analyze-only rules are carried over from the existing file — lint
/// does not count those rules, so rewriting from lint counts alone
/// would silently drop them.
pub fn write_budget(root: &Path, outcome: &LintOutcome) -> Result<(), String> {
    let mut counts = outcome.budget_counts.clone();
    let existing = fs::read_to_string(root.join(BUDGET_FILE)).unwrap_or_default();
    if let Ok(budget) = Budget::parse(&existing) {
        for (krate, rule, n) in budget.keys() {
            if ANALYZE_ONLY_RULES.contains(&rule) {
                counts.insert((krate.to_string(), rule.to_string()), n);
            }
        }
    }
    let text = Budget::render(&counts);
    fs::write(root.join(BUDGET_FILE), text).map_err(|e| format!("writing {BUDGET_FILE}: {e}"))
}

/// The `lints-table` rule over every manifest under `root`: each crate
/// that can inherit the workspace lints table must.
pub fn manifest_findings(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let manifests = collect_files(root, &|p| p.file_name().is_some_and(|n| n == "Cargo.toml"))
        .map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut out = Vec::new();
    for rel in &manifests {
        let rel_s = rel_str(rel);
        let text =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel_s}: {e}"))?;
        if inherits_lints(&text) && !has_workspace_lints(&text) {
            out.push(Diagnostic::new(
                &rel_s,
                0,
                "lints-table",
                "crate does not declare `[lints] workspace = true`",
            ));
        }
    }
    Ok(out)
}

/// Does the manifest describe a crate that can inherit
/// `[workspace.lints]`? A virtual manifest has no crate. A package that
/// declares its own `[workspace]` is the root of a workspace of its own:
/// unless that workspace defines a lints table, it has none to inherit.
fn inherits_lints(manifest: &str) -> bool {
    let mut package = false;
    let mut workspace = false;
    let mut workspace_lints = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        package |= line == "[package]";
        workspace |= line == "[workspace]";
        workspace_lints |= line.starts_with("[workspace.lints");
    }
    package && (!workspace || workspace_lints)
}

/// Does a manifest declare `[lints]` with `workspace = true`?
pub fn has_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_lints_detection() {
        assert!(has_workspace_lints(
            "[package]\nname=\"x\"\n[lints]\nworkspace = true\n"
        ));
        assert!(!has_workspace_lints("[package]\nname=\"x\"\n"));
        assert!(!has_workspace_lints("[lints.rust]\nworkspace = true\n"));
    }

    #[test]
    fn only_crates_that_can_inherit_need_the_lints_table() {
        let root = std::env::temp_dir().join(format!("xtask-lints-table-{}", std::process::id()));
        let manifests = [
            // A workspace root package whose workspace defines the lints.
            (
                "Cargo.toml",
                "[workspace]\nmembers = [\"member\"]\n[workspace.lints.rust]\n\
                 unused_must_use = \"deny\"\n[package]\nname = \"r\"\n",
            ),
            ("member/Cargo.toml", "[package]\nname = \"m\"\n"),
            // A virtual manifest has no crate.
            ("virtual/Cargo.toml", "[workspace]\nmembers = []\n"),
            // A standalone package: its own empty workspace.
            (
                "standalone/Cargo.toml",
                "[package]\nname = \"s\"\n\n[workspace]\n",
            ),
        ];
        for (rel, text) in manifests {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
        let found = manifest_findings(&root);
        fs::remove_dir_all(&root).unwrap();
        let found: Vec<(String, &str)> = found
            .unwrap()
            .into_iter()
            .map(|d| (d.path, d.rule))
            .collect();
        assert_eq!(
            found,
            vec![
                ("Cargo.toml".to_string(), "lints-table"),
                ("member/Cargo.toml".to_string(), "lints-table"),
            ]
        );
    }
}
