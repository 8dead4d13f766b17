//! Golden tests for `xtask analyze`: the cross-file passes must produce
//! exactly the expected diagnostics on seeded fixtures, the lexer
//! edge-case fixture must trip nothing anywhere, the real workspace
//! must analyze clean, and the checked-in budget may never rise above
//! its seed values.

use std::path::{Path, PathBuf};

use xtask::analyze::{analyze_sources, analyze_workspace};
use xtask::budget::Budget;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

fn diags(files: &[(&str, &str)]) -> Vec<String> {
    analyze_sources(files)
        .diagnostics
        .iter()
        .map(ToString::to_string)
        .collect()
}

#[test]
fn lock_cycle_golden_names_both_sites() {
    let a = fixture("unit/lock_cycle_a.rs");
    let b = fixture("unit/lock_cycle_b.rs");
    let got = diags(&[
        ("crates/mplite/src/lock_cycle_a.rs", &a),
        ("crates/mplite/src/lock_cycle_b.rs", &b),
    ]);
    let want = vec![
        "crates/mplite/src/lock_cycle_a.rs:14: lock-order: lock-order cycle: \
         `mplite::first` -> `mplite::second` at crates/mplite/src/lock_cycle_a.rs:14, \
         `mplite::second` -> `mplite::first` at crates/mplite/src/lock_cycle_b.rs:9; \
         acquire locks in a consistent order"
            .to_string(),
    ];
    assert_eq!(got, want);
}

#[test]
fn lock_consistent_order_is_silent() {
    let src = fixture("unit/lock_clean.rs");
    let got = diags(&[("crates/mplite/src/lock_clean.rs", &src)]);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn lock_across_blocking_golden() {
    let src = "impl Port {\n    pub fn drain(&self) {\n        let st = self.state.lock();\n        let n = read_exact_deadline(&self.sock);\n        drop(st);\n        finish(n);\n    }\n}\n";
    let got = diags(&[("crates/mplite/src/fixture.rs", src)]);
    let want = vec![
        "crates/mplite/src/fixture.rs:4: lock-across-blocking: guard on `mplite::state` \
         (acquired line 3) held across blocking `read_exact_deadline`; drop the guard first"
            .to_string(),
    ];
    assert_eq!(got, want);
}

#[test]
fn units_violations_golden() {
    let src = fixture("unit/units_violations.rs");
    let rel = "crates/hwmodel/src/fixture.rs";
    let got = diags(&[(rel, &src)]);
    let magic = "units: magic unit-conversion constant";
    let tail = "in arithmetic; use simcore::units / SimDuration helpers";
    let want = vec![
        format!("{rel}:4: {magic} `1e6` {tail}"),
        format!("{rel}:4: {magic} `8.0` {tail}"),
        format!("{rel}:8: {magic} `1e-6` {tail}"),
        format!(
            "{rel}:8: units: raw unit cast in time/rate arithmetic; \
             use SimDuration::for_bytes / simcore::units helpers"
        ),
    ];
    assert_eq!(got, want);
}

#[test]
fn units_clean_is_silent() {
    let src = fixture("unit/units_clean.rs");
    let got = diags(&[("crates/hwmodel/src/fixture.rs", &src)]);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn nondet_violations_golden() {
    let src = fixture("unit/nondet_violations.rs");
    let rel = "crates/mplite/src/fixture.rs";
    let got = diags(&[(rel, &src)]);
    let want = vec![
        format!(
            "{rel}:6: nondet-wall-clock: wall-clock read outside the real-mode clock \
             modules; take timestamps as parameters or move this into the driver/deadline layer"
        ),
        format!(
            "{rel}:16: nondet-hash-iter: iteration over HashMap/HashSet binding `m` has \
             nondeterministic order; use BTreeMap/BTreeSet or collect and sort"
        ),
    ];
    assert_eq!(got, want);
}

#[test]
fn nondet_clean_is_silent() {
    let src = fixture("unit/nondet_clean.rs");
    let got = diags(&[("crates/mplite/src/fixture.rs", &src)]);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn float_reduction_golden_in_sim_code() {
    let src = "pub fn mean(xs: &[f64]) -> f64 {\n    xs.iter().sum()\n}\n";
    let got = diags(&[("crates/simcore/src/fixture.rs", src)]);
    let want = vec![
        "crates/simcore/src/fixture.rs:2: nondet-float-reduction: order-sensitive float \
         reduction `.sum` in sim code; use simcore::stats::OnlineStats or a fixed-order loop"
            .to_string(),
    ];
    assert_eq!(got, want);
}

/// A spec-conformant protocol machine split across two files — the
/// dual roles live in separate compilation units — must pass clean:
/// the duality check is genuinely cross-file.
#[test]
fn protocol_pair_split_across_files_is_clean() {
    let a = fixture("unit/protocol_pair_a.rs");
    let b = fixture("unit/protocol_pair_b.rs");
    let got = diags(&[
        ("crates/mplite/src/protocol_pair_a.rs", &a),
        ("crates/mplite/src/protocol_pair_b.rs", &b),
    ]);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn protocol_duality_violation_golden() {
    let a = fixture("unit/protocol_pair_a.rs");
    let bad = fixture("unit/protocol_pair_bad.rs");
    let got = diags(&[
        ("crates/mplite/src/protocol_pair_a.rs", &a),
        ("crates/mplite/src/protocol_pair_bad.rs", &bad),
    ]);
    let want = vec![
        "crates/mplite/src/protocol_pair_a.rs:4: protocol-duality: fixture.sender \
         receives `ack` but dual fixture.receiver never sends it"
            .to_string(),
        "crates/mplite/src/protocol_pair_bad.rs:4: protocol-duality: fixture.receiver \
         sends `nak` but dual fixture.sender never receives it"
            .to_string(),
    ];
    assert_eq!(got, want);
}

#[test]
fn protocol_transition_violation_golden() {
    let a = fixture("unit/protocol_pair_a.rs");
    let b = fixture("unit/protocol_pair_b.rs");
    let bad = fixture("unit/protocol_transition_bad.rs");
    let got = diags(&[
        ("crates/mplite/src/protocol_pair_a.rs", &a),
        ("crates/mplite/src/protocol_pair_b.rs", &b),
        ("crates/mplite/src/protocol_transition_bad.rs", &bad),
    ]);
    let want = vec![
        "crates/mplite/src/protocol_transition_bad.rs:5: protocol-transition: match arm \
         steps PairSend from `AwaitAck` to `Closing`, but fixture.sender declares no \
         `AwaitAck --…--> Closing` transition"
            .to_string(),
    ];
    assert_eq!(got, want);
}

/// A hot chain three levels deep, with two call sites reaching the
/// middle hop: the allocation in the leaf is reported exactly once,
/// with the full entry -> middle -> leaf path in the message.
#[test]
fn hot_chain_three_deep_golden_reports_once_with_full_path() {
    let src = fixture("unit/hot_chain.rs");
    let rel = "crates/mplite/src/hot_chain.rs";
    let got = diags(&[(rel, &src)]);
    let want = vec![format!(
        "{rel}:16: hot-cost: hot-path allocation `Vec::new` reachable from `entry` via \
         entry -> middle -> leaf; hoist it off the hot path or annotate \
         `analyze: allow(hot-alloc) -- <reason>`"
    )];
    assert_eq!(got, want);
}

/// Module-qualified calls: another crate's `fabric::send` resolves to
/// nothing (not to this crate's `Session::send`), and the same-crate
/// `wire::encode` resolves only to that module's free fn (not to
/// `Frame::encode`). Exactly one cost is reachable.
#[test]
fn module_qualified_calls_bind_to_their_module_golden() {
    let entry = fixture("unit/hot_modcall.rs");
    let wire = fixture("unit/hot_modcall_wire.rs");
    let fabric = fixture("unit/hot_modcall_fabric.rs");
    let got = diags(&[
        ("crates/mpsim/src/hot_modcall.rs", &entry),
        ("crates/mpsim/src/wire.rs", &wire),
        ("crates/protosim/src/fabric.rs", &fabric),
    ]);
    let want = vec![
        "crates/mpsim/src/wire.rs:5: hot-cost: hot-path allocation `vec!` \
                     reachable from `entry` via entry -> encode; hoist it off the hot path \
                     or annotate `analyze: allow(hot-alloc) -- <reason>`"
            .to_string(),
    ];
    assert_eq!(got, want);
}

/// A well-formed `analyze: allow(hot-alloc)` with no finding on its
/// line or the next is stale: marker-hygiene, not silence.
#[test]
fn stale_hot_alloc_allow_golden() {
    let src = fixture("unit/hot_stale_allow.rs");
    let rel = "crates/mplite/src/hot_stale_allow.rs";
    let got = diags(&[(rel, &src)]);
    let want = vec![format!(
        "{rel}:10: marker-hygiene: `analyze: allow(hot-alloc)` has no matching hot-cost \
         finding on this line or the next; remove it"
    )];
    assert_eq!(got, want);
}

/// A field guarded in one file and bare in another, both on
/// thread-reachable paths: one finding, at the bare site, naming the
/// guarded site across the file boundary.
#[test]
fn race_guarded_field_pair_across_files_golden() {
    let a = fixture("unit/race_pair_a.rs");
    let b = fixture("unit/race_pair_b.rs");
    let got = diags(&[
        ("crates/mplite/src/race_pair_a.rs", &a),
        ("crates/mplite/src/race_pair_b.rs", &b),
    ]);
    let want = vec![
        "crates/mplite/src/race_pair_b.rs:5: race-guarded-field: field `mplite::count` \
         accessed bare in `reader` but under guard on `mplite::state` at \
         crates/mplite/src/race_pair_a.rs:11 in `writer`; both are reachable from thread \
         spawn sites — take the lock here too, or annotate \
         `lint:allow(race-guarded-field) -- <reason>`"
            .to_string(),
    ];
    assert_eq!(got, want);
}

/// The condvar idiom — guard passed into `wait`, notify calls, atomic
/// ops — must survive the whole pipeline clean: no lock-across-blocking,
/// no race-guarded-field, no hot-cost.
#[test]
fn condvar_style_fixture_is_clean_end_to_end() {
    let src = fixture("unit/race_condvar_clean.rs");
    let got = diags(&[("crates/mplite/src/race_condvar_clean.rs", &src)]);
    assert!(got.is_empty(), "{got:?}");
}

/// The lexer edge-case fixture — raw strings full of rule triggers,
/// nested block comments, `b'\''` byte chars, doc comments naming
/// panic! — must trip nothing under any crate's rule set.
#[test]
fn lexer_edge_cases_trip_no_rule_anywhere() {
    let src = fixture("unit/lexer_edge_cases.rs");
    for rel in [
        "crates/simcore/src/fixture.rs",
        "crates/mplite/src/fixture.rs",
        "crates/netpipe/src/fixture.rs",
        "crates/protosim/src/fixture.rs",
    ] {
        let got = diags(&[(rel, &src)]);
        assert!(got.is_empty(), "{rel}: {got:?}");
    }
}

/// Acceptance gate: the real workspace analyzes clean — zero
/// un-annotated findings across every per-file rule and all three
/// cross-file passes, and the checked-in budget matches live counts.
#[test]
fn real_workspace_analyzes_clean() {
    let outcome = analyze_workspace(&workspace_root()).expect("analyze runs");
    let msgs: Vec<String> = outcome
        .diagnostics
        .iter()
        .map(ToString::to_string)
        .collect();
    assert!(
        outcome.clean(),
        "workspace analyze found:\n{}",
        msgs.join("\n")
    );
}

/// The ratchet floor: no budget entry may ever rise above its floor.
/// The per-file rules have **no entries** (every crate/rule pair at
/// zero); the hot-cost floors are the live inventory once module-
/// qualified calls stopped resolving to phantom same-name functions.
/// Any entry above its floor — or any new section — is a regression;
/// entries may only shrink toward zero.
#[test]
fn budget_never_exceeds_seed() {
    const SEED: &[(&str, &str, usize)] = &[
        ("collectives", "hot-cost", 19),
        ("mplite", "hot-cost", 2),
        ("mpsim", "hot-cost", 8),
        ("protosim", "hot-cost", 2),
    ];
    let text = std::fs::read_to_string(workspace_root().join("lint-budget.toml"))
        .expect("budget file exists");
    let budget = Budget::parse(&text).expect("budget parses");
    for (krate, rule, n) in budget.keys() {
        let seed = SEED
            .iter()
            .find(|(k, r, _)| *k == krate && *r == rule)
            .map_or(0, |(_, _, n)| *n);
        assert!(
            n <= seed,
            "{krate}/{rule}: budget {n} exceeds seed value {seed}"
        );
    }
}

#[test]
fn analyze_binary_report_and_exit_codes() {
    let tree = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree");
    let report = std::env::temp_dir().join(format!("analyze-report-{}.json", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--root"])
        .arg(&tree)
        .arg("--report")
        .arg(&report)
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(1), "violations exit 1");
    // The report is written even when dirty, and is valid JSON as far
    // as our own parser-free checks go: key fields present, balanced.
    let json = std::fs::read_to_string(&report).expect("report written");
    std::fs::remove_file(&report).ok();
    assert!(json.contains("\"tool\": \"xtask-analyze\""), "{json}");
    assert!(json.contains("\"clean\": false"), "{json}");
    assert!(json.contains("\"rule\": \"lints-table\""), "{json}");
    // The rule inventory must list the protocol conformance family, so
    // CI can assert the pass ran.
    for rule in [
        "protocol-transition",
        "protocol-undeclared",
        "protocol-unreachable",
        "protocol-terminal",
        "protocol-duality",
        "hot-cost",
        "race-guarded-field",
        "marker-hygiene",
    ] {
        assert!(json.contains(&format!("\"{rule}\"")), "{rule}: {json}");
    }
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "balanced braces: {json}"
    );

    let explain = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--explain", "lock-order"])
        .output()
        .expect("xtask binary runs");
    assert_eq!(explain.status.code(), Some(0), "--explain exits 0");
    let text = String::from_utf8_lossy(&explain.stdout);
    assert!(text.starts_with("lock-order"), "{text}");

    let unknown = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--explain", "no-such-rule"])
        .output()
        .expect("xtask binary runs");
    assert_eq!(unknown.status.code(), Some(2), "unknown rule exits 2");

    // Bare --explain is the rule index, not an error.
    let index = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--explain"])
        .output()
        .expect("xtask binary runs");
    assert_eq!(index.status.code(), Some(0), "bare --explain exits 0");
    let text = String::from_utf8_lossy(&index.stdout);
    for rule in [
        "lock-order",
        "units",
        "protocol-duality",
        "protocol-transition",
    ] {
        assert!(text.contains(rule), "index missing {rule}: {text}");
    }
}
