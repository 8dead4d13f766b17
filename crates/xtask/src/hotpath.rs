//! Interprocedural hot-path cost analysis.
//!
//! The paper's central claim is that protocol choice shows up as
//! per-message *software* overhead — allocation, copying, and locking on
//! the critical path. This pass makes "cost on the hot path" a
//! machine-checked property:
//!
//! * Hot entry points are declared in source with a checked marker
//!   comment, `// analyze: hot`, on the `fn` line or directly above it
//!   (doc comments and attributes in between are fine, within a
//!   five-line window).
//! * Every function body is summarized into its direct **cost events**:
//!   heap allocations (`Box::new`, `Vec::new`, `vec!`, `.to_vec()`,
//!   `format!`, `String::from`, and `.clone()` on receivers not provably
//!   `Copy`), lock acquisitions (`.lock()`, as the shared body walk in
//!   [`crate::body`] identifies them), and blocking primitives (the
//!   `locks::BLOCKING` table).
//! * Summaries propagate over the same-crate call-by-name graph (the
//!   same machinery the lock-order pass uses). Every cost site reachable
//!   from a hot entry is reported once, with the shortest call chain
//!   from the entry, under the budgeted `hot-cost` rule.
//! * The site-level escape hatch `// analyze: allow(hot-alloc) -- <why>`
//!   suppresses one site (same line or the line below). Allows without a
//!   reason, allows matching no live finding (staleness), markers
//!   attached to no function, and unknown allow rules are all reported
//!   under the zero-tolerance `marker-hygiene` rule.
//!
//! Known limits (see DESIGN.md "Hot-path cost & race analysis"): call
//! resolution stays within one crate — cross-crate edges and closure
//! bodies scheduled as events are not followed. Qualified calls
//! (`Type::method(…)`, including `Self::`) resolve exactly to that
//! type's method; a module-qualified call (`module::f(…)`) binds only
//! to that module's free `f` when the module is in the same crate, and
//! to nothing when it is another crate's; bare and `.method(…)` calls
//! resolve to every same-crate function sharing the name. Like lock
//! identity, this is deliberately coarse: the inventory it produces is a ratcheted
//! burn-down list, not a proof.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::body::{governs_file, in_scope, Site, Walk};
use crate::context::FileKind;
use crate::lex::TokKind;
use crate::locks::BLOCKING;
use crate::model::{copy_types, field_decls, FnItem, WorkspaceModel};
use crate::rules::RawFinding;

/// A hot marker attaches to the first function opening within this many
/// lines below it (room for doc comments and attributes).
const MARKER_WINDOW: usize = 5;

/// Allocation constructors spelled as paths (`Head::method(…)`).
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("String", "new"),
    ("String", "with_capacity"),
    ("String", "from"),
];

/// Allocation macros (`name!(…)`).
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Allocation methods (`.name(…)`); `.clone()` additionally checks the
/// receiver against the workspace `Copy` set.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "clone"];

/// Primitive `Copy` types for the `.clone()` receiver heuristic, plus
/// type constructors that are `Copy` whenever their parameters are.
const COPY_PRIMITIVES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "bool", "char", "Option",
];

/// Is a declared type `Copy` as far as the token stream can tell? Shared
/// references are `Copy`; otherwise every identifier in the type must be
/// a primitive or a workspace type deriving `Copy`.
pub(crate) fn is_copy_ty(ty: &[String], copy: &BTreeSet<String>) -> bool {
    if ty.first().is_some_and(|t| t == "&") && ty.get(1).is_none_or(|t| t != "mut") {
        return true;
    }
    let mut saw_ident = false;
    for t in ty {
        let is_ident = t
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
        if !is_ident {
            continue;
        }
        saw_ident = true;
        if !COPY_PRIMITIVES.contains(&t.as_str()) && !copy.contains(t) {
            return false;
        }
    }
    saw_ident
}

/// One parsed `analyze: allow(hot-alloc)` marker.
struct HotAllow {
    line: usize,
    has_reason: bool,
}

/// Markers parsed from one file's comment channel.
#[derive(Default)]
struct Markers {
    /// Lines carrying a hot-entry marker.
    hot: Vec<usize>,
    /// Site-level allows.
    allows: Vec<HotAllow>,
    /// Malformed markers: `(line, message)`.
    bad: Vec<(usize, String)>,
}

/// Parse the marker grammar out of the comment channel. Prose that
/// merely mentions the word "analyze" is ignored: only the exact forms
/// `analyze: hot` and `analyze: allow(<rule>)` are markers.
fn parse_markers(line_comment: &[String]) -> Markers {
    let mut m = Markers::default();
    for (i, comment) in line_comment.iter().enumerate() {
        let line = i + 1;
        let mut rest = comment.as_str();
        while let Some(pos) = rest.find("analyze:") {
            let after = rest[pos + "analyze:".len()..].trim_start();
            rest = &rest[pos + "analyze:".len()..];
            if let Some(tail) = after.strip_prefix("hot") {
                if tail
                    .chars()
                    .next()
                    .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
                {
                    m.hot.push(line);
                }
                continue;
            }
            if let Some(tail) = after.strip_prefix("allow(") {
                let Some(close) = tail.find(')') else {
                    continue;
                };
                let rule = tail[..close].trim();
                if rule != "hot-alloc" {
                    m.bad.push((
                        line,
                        format!(
                            "unknown marker `analyze: allow({rule})`; only `hot-alloc` \
                             is recognized"
                        ),
                    ));
                    continue;
                }
                let reason_tail = tail[close + 1..].trim_start();
                let has_reason = reason_tail.starts_with("--")
                    && reason_tail.trim_start_matches("--").trim().len() >= 3;
                m.allows.push(HotAllow { line, has_reason });
            }
        }
    }
    m
}

/// One event observed while scanning a function body.
enum CEv {
    /// A direct cost site: `desc` is the human label (kind + what).
    Cost { desc: String, line: u32 },
    /// A call, either bare (`name`) or qualified (`Type::name`),
    /// resolved against same-crate functions.
    Call { name: String },
}

/// Canonical id of a function item: methods are qualified by their
/// `impl` type so `Crc32c::new` and `FrameDecoder::new` stay distinct.
fn canon(f: &FnItem) -> String {
    match &f.self_type {
        Some(t) => format!("{t}::{}", f.name),
        None => f.name.clone(),
    }
}

/// The file-level module a source file defines: `a/b.rs` and
/// `a/b/mod.rs` define `b`; crate roots define none.
fn module_of(rel: &str) -> Option<&str> {
    let mut parts = rel.rsplit('/');
    let stem = parts.next()?.strip_suffix(".rs")?;
    match stem {
        "lib" | "main" => None,
        "mod" => parts.next(),
        _ => Some(stem),
    }
}

/// Scan one function body into its cost/call event stream.
fn scan_costs(w: &WorkspaceModel, f: &FnItem, field_copy: &BTreeMap<&str, bool>) -> Vec<CEv> {
    let mut evs = Vec::new();
    let mut walk = Walk::new(w, f);
    while let Some(site) = walk.next_site() {
        let i = match site {
            Site::Lock { id, line } => {
                evs.push(CEv::Cost {
                    desc: format!("lock acquisition of `{id}`"),
                    line,
                });
                continue;
            }
            Site::Ident(i) => i,
        };
        let toks = walk.toks;
        let t = &toks[i];
        let prev_dot = i > 0 && toks[i - 1].is_punct(".");
        let next_open = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct("!"));

        // Allocation constructors: `Box::new(`, `Vec::with_capacity(`, …
        if !prev_dot && toks.get(i + 1).is_some_and(|n| n.is_punct("::")) {
            if let Some(method) = toks.get(i + 2) {
                if method.kind == TokKind::Ident
                    && toks.get(i + 3).is_some_and(|n| n.is_punct("("))
                    && ALLOC_PATHS
                        .iter()
                        .any(|(h, me)| t.text == *h && method.text == *me)
                {
                    evs.push(CEv::Cost {
                        desc: format!("allocation `{}::{}`", t.text, method.text),
                        line: t.line,
                    });
                    walk.skip(2);
                    continue;
                }
            }
        }

        // Allocation macros: `vec![…]`, `format!(…)`.
        if next_bang && ALLOC_MACROS.contains(&t.text.as_str()) {
            evs.push(CEv::Cost {
                desc: format!("allocation `{}!`", t.text),
                line: t.line,
            });
            walk.skip(1);
            continue;
        }

        // Allocation methods: `.to_vec()`, `.clone()`, …
        if prev_dot && next_open && ALLOC_METHODS.contains(&t.text.as_str()) {
            // `.clone()` on a field whose declared type is provably
            // `Copy` everywhere it is declared costs nothing.
            if t.text == "clone" {
                if let Some(r) = toks.get(i.wrapping_sub(2)) {
                    if r.kind == TokKind::Ident
                        && field_copy.get(r.text.as_str()).copied().unwrap_or(false)
                    {
                        continue;
                    }
                }
            }
            evs.push(CEv::Cost {
                desc: format!("allocation `.{}()`", t.text),
                line: t.line,
            });
            continue;
        }

        // Blocking primitives, shared table with the lock-order pass.
        if next_open && BLOCKING.contains(&t.text.as_str()) {
            evs.push(CEv::Cost {
                desc: format!("blocking call `{}`", t.text),
                line: t.line,
            });
            continue;
        }

        // Calls, bare or qualified. A `Head::name(` path call keeps its
        // qualifier so it can resolve exactly; `Self::` maps to the
        // enclosing impl type.
        if walk.is_call(i) {
            let name = if i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].kind == TokKind::Ident
            {
                let head = if toks[i - 2].text == "Self" {
                    f.self_type.clone()
                } else {
                    Some(toks[i - 2].text.clone())
                };
                match head {
                    Some(h) => format!("{h}::{}", t.text),
                    None => t.text.clone(),
                }
            } else {
                t.text.clone()
            };
            evs.push(CEv::Call { name });
        }
    }
    evs
}

/// Run the hot-path cost pass; findings are keyed by file index.
pub fn hotpath_findings(w: &WorkspaceModel) -> Vec<(usize, RawFinding)> {
    let items = &w.fns;
    let copy = copy_types(w);
    let fields = field_decls(w);
    // Field name -> is every declaration of that name a `Copy` type?
    let mut field_copy: BTreeMap<&str, bool> = BTreeMap::new();
    for fd in &fields {
        let c = is_copy_ty(&fd.ty, &copy);
        field_copy
            .entry(fd.name.as_str())
            .and_modify(|v| *v &= c)
            .or_insert(c);
    }

    let mut findings: Vec<(usize, RawFinding)> = Vec::new();

    // Markers: collect per file; attach hot markers to functions.
    let mut hot_items: BTreeSet<usize> = BTreeSet::new();
    let mut allows_per_file: BTreeMap<usize, Vec<HotAllow>> = BTreeMap::new();
    for (fi, wf) in w.files.iter().enumerate() {
        if !governs_file(w, fi) {
            continue;
        }
        let markers = parse_markers(&wf.model.line_comment);
        for (line, msg) in markers.bad {
            if wf.model.masked(line as u32) {
                continue;
            }
            findings.push((
                fi,
                RawFinding {
                    line: line as u32,
                    rule: "marker-hygiene",
                    message: msg,
                },
            ));
        }
        for line in markers.hot {
            if wf.model.masked(line as u32) {
                continue;
            }
            let attached = items
                .iter()
                .enumerate()
                .filter(|(_, f)| {
                    f.file == fi
                        && (f.line as usize) >= line
                        && (f.line as usize) <= line + MARKER_WINDOW
                })
                .min_by_key(|(_, f)| f.line);
            match attached {
                Some((ii, f)) if in_scope(w, f) => {
                    hot_items.insert(ii);
                }
                _ => findings.push((
                    fi,
                    RawFinding {
                        line: line as u32,
                        rule: "marker-hygiene",
                        message: "`analyze: hot` marker attaches to no library function; \
                                  place it on the `fn` line or directly above it"
                            .to_string(),
                    },
                )),
            }
        }
        if !markers.allows.is_empty() {
            allows_per_file.insert(fi, markers.allows);
        }
    }

    // Scan every in-scope function and build the same-crate call graph
    // over canonical ids (`Type::method` for methods, bare for free fns).
    let mut scans: BTreeMap<usize, Vec<CEv>> = BTreeMap::new();
    let mut adj: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    let mut defined: BTreeSet<(String, String)> = BTreeSet::new();
    let mut by_bare: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    let mut impl_types: BTreeSet<(String, String)> = BTreeSet::new();
    // `(crate, module)` for every library file-level module, and
    // `(crate, module, name)` for the in-scope free fns each defines.
    let modules: BTreeSet<(&str, &str)> = w
        .files
        .iter()
        .filter(|wf| wf.ctx.kind == FileKind::Lib)
        .filter_map(|wf| Some((wf.ctx.crate_name.as_str(), module_of(&wf.model.rel)?)))
        .collect();
    let mut module_fns: BTreeSet<(&str, &str, &str)> = BTreeSet::new();
    for (ii, f) in items.iter().enumerate() {
        if !in_scope(w, f) {
            continue;
        }
        let evs = scan_costs(w, f, &field_copy);
        let c = canon(f);
        if f.self_type.is_none() {
            if let Some(m) = module_of(&w.files[f.file].model.rel) {
                module_fns.insert((&f.krate, m, &f.name));
            }
        }
        defined.insert((f.krate.clone(), c.clone()));
        by_bare
            .entry((f.krate.clone(), f.name.clone()))
            .or_default()
            .insert(c.clone());
        if let Some(t) = &f.self_type {
            impl_types.insert((f.krate.clone(), t.clone()));
        }
        for ev in &evs {
            if let CEv::Call { name } = ev {
                adj.entry((f.krate.clone(), c.clone()))
                    .or_default()
                    .insert(name.clone());
            }
        }
        scans.insert(ii, evs);
    }

    // Resolve a call to the canonical ids it may reach. A qualified call
    // matching a defined method resolves exactly; a qualified call on a
    // known impl type that matches nothing resolves nowhere (the method
    // lives outside this crate's scope). A module head binds to that
    // module's free fn when the module is this crate's, and to nothing
    // when it is another crate's. Anything else (traits, foreign types)
    // falls back to every same-crate function sharing the bare name.
    let resolve_call = |krate: &str, call: &str| -> Vec<String> {
        let bare = call.rsplit("::").next().unwrap_or(call);
        if let Some((head, _)) = call.split_once("::") {
            if defined.contains(&(krate.to_string(), call.to_string())) {
                return vec![call.to_string()];
            }
            if impl_types.contains(&(krate.to_string(), head.to_string())) {
                return Vec::new();
            }
            if modules.contains(&(krate, head)) {
                // Free fns are keyed by bare name, so this is the id.
                return if module_fns.contains(&(krate, head, bare)) {
                    vec![bare.to_string()]
                } else {
                    Vec::new()
                };
            }
            if modules.iter().any(|&(_, m)| m == head) {
                return Vec::new();
            }
        }
        by_bare
            .get(&(krate.to_string(), bare.to_string()))
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    };

    // BFS from every hot entry: best (shortest, then lexicographically
    // smallest) call chain per reachable (crate, canonical-id).
    let mut chains: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    let hot_keys: BTreeSet<(String, String)> = hot_items
        .iter()
        .map(|&ii| (items[ii].krate.clone(), canon(&items[ii])))
        .collect();
    for (krate, entry) in &hot_keys {
        let mut local: BTreeMap<String, Vec<String>> = BTreeMap::new();
        local.insert(entry.clone(), vec![entry.clone()]);
        let mut queue = VecDeque::from([entry.clone()]);
        while let Some(name) = queue.pop_front() {
            let chain = local[&name].clone();
            let Some(callees) = adj.get(&(krate.clone(), name)) else {
                continue;
            };
            for call in callees {
                for callee in resolve_call(krate, call) {
                    if local.contains_key(&callee) {
                        continue;
                    }
                    let mut next = chain.clone();
                    next.push(callee.clone());
                    local.insert(callee.clone(), next);
                    queue.push_back(callee);
                }
            }
        }
        for (name, chain) in local {
            let key = (krate.clone(), name);
            match chains.get(&key) {
                Some(best) if (best.len(), best) <= (chain.len(), &chain) => {}
                _ => {
                    chains.insert(key, chain);
                }
            }
        }
    }

    // Emit one finding per reachable cost site, deduplicated.
    let mut sites: BTreeMap<(usize, u32, String), Vec<String>> = BTreeMap::new();
    for (ii, evs) in &scans {
        let f = &items[*ii];
        let Some(chain) = chains.get(&(f.krate.clone(), canon(f))) else {
            continue;
        };
        for ev in evs {
            let CEv::Cost { desc, line } = ev else {
                continue;
            };
            let key = (f.file, *line, desc.clone());
            match sites.get(&key) {
                Some(best) if (best.len(), best) <= (chain.len(), chain) => {}
                _ => {
                    sites.insert(key, chain.clone());
                }
            }
        }
    }

    // Apply site-level allows, then report stale/reasonless markers.
    let mut used: BTreeMap<usize, Vec<bool>> = allows_per_file
        .iter()
        .map(|(fi, a)| (*fi, vec![false; a.len()]))
        .collect();
    for ((fi, line, desc), chain) in &sites {
        let allowed = allows_per_file.get(fi).is_some_and(|allows| {
            allows.iter().enumerate().any(|(ai, a)| {
                a.has_reason && (a.line == *line as usize || a.line + 1 == *line as usize) && {
                    used.get_mut(fi).expect("tracked file")[ai] = true;
                    true
                }
            })
        });
        if allowed {
            continue;
        }
        findings.push((
            *fi,
            RawFinding {
                line: *line,
                rule: "hot-cost",
                message: format!(
                    "hot-path {desc} reachable from `{}` via {}; hoist it off the hot \
                     path or annotate `analyze: allow(hot-alloc) -- <reason>`",
                    chain.first().map(String::as_str).unwrap_or("?"),
                    chain.join(" -> ")
                ),
            },
        ));
    }
    for (fi, allows) in &allows_per_file {
        for (ai, a) in allows.iter().enumerate() {
            if !a.has_reason {
                findings.push((
                    *fi,
                    RawFinding {
                        line: a.line as u32,
                        rule: "marker-hygiene",
                        message: "`analyze: allow(hot-alloc)` must carry a reason: \
                                  `analyze: allow(hot-alloc) -- <reason>`"
                            .to_string(),
                    },
                ));
            } else if !used[fi][ai] {
                findings.push((
                    *fi,
                    RawFinding {
                        line: a.line as u32,
                        rule: "marker-hygiene",
                        message: "`analyze: allow(hot-alloc)` has no matching hot-cost \
                                  finding on this line or the next; remove it"
                            .to_string(),
                    },
                ));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::WorkspaceModel;

    fn findings(files: &[(&str, &str)]) -> Vec<(String, u32, &'static str, String)> {
        let w = WorkspaceModel::from_sources(files);
        hotpath_findings(&w)
            .into_iter()
            .map(|(fi, f)| (w.files[fi].model.rel.clone(), f.line, f.rule, f.message))
            .collect()
    }

    #[test]
    fn direct_allocation_in_hot_fn_is_reported() {
        let src = "// analyze: hot\npub fn step(n: u64) -> Box<u64> {\n    Box::new(n)\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].2, "hot-cost");
        assert_eq!(f[0].1, 3);
        assert!(f[0].3.contains("allocation `Box::new`"), "{}", f[0].3);
        assert!(f[0].3.contains("via step"), "{}", f[0].3);
    }

    #[test]
    fn chain_propagates_and_names_full_path() {
        let src = "// analyze: hot\npub fn entry(&self) {\n    middle();\n}\n\
                   fn middle() {\n    leaf();\n}\n\
                   fn leaf() -> String {\n    format!(\"x\")\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].3.contains("via entry -> middle -> leaf"), "{}", f[0].3);
    }

    #[test]
    fn unreachable_allocation_is_silent() {
        let src = "// analyze: hot\npub fn entry() {}\n\
                   fn cold() -> Vec<u8> {\n    vec![0]\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_suppresses_and_stale_allow_is_flagged() {
        let ok = "// analyze: hot\npub fn entry() {\n    \
                  let b = Box::new(1); // analyze: allow(hot-alloc) -- one-time setup\n}\n";
        assert!(findings(&[("crates/mplite/src/hp.rs", ok)]).is_empty());

        let stale = "pub fn cold() {\n    \
                     let x = 1; // analyze: allow(hot-alloc) -- nothing here\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", stale)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].2, "marker-hygiene");
        assert!(f[0].3.contains("no matching hot-cost"), "{}", f[0].3);
    }

    #[test]
    fn allow_without_reason_is_flagged_and_does_not_suppress() {
        let src = "// analyze: hot\npub fn entry() {\n    \
                   let b = Box::new(1); // analyze: allow(hot-alloc)\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        let rules: Vec<_> = f.iter().map(|x| x.2).collect();
        assert!(rules.contains(&"hot-cost"), "{f:?}");
        assert!(rules.contains(&"marker-hygiene"), "{f:?}");
    }

    #[test]
    fn unattached_marker_is_flagged() {
        let src = "// analyze: hot\n\nconst X: u32 = 1;\n\n\n\n\n\nfn far() {}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].2, "marker-hygiene");
        assert!(f[0].3.contains("attaches to no"), "{}", f[0].3);
    }

    #[test]
    fn clone_of_copy_field_is_free_but_non_copy_is_not() {
        let src = "#[derive(Clone, Copy)]\npub struct Stamp { t: u64 }\n\
                   pub struct Holder { stamp: Stamp, name: String }\n\
                   impl Holder {\n\
                   // analyze: hot\n    pub fn tick(&self) -> (Stamp, String) {\n        \
                   (self.stamp.clone(), self.name.clone())\n    }\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].3.contains("allocation `.clone()`"), "{}", f[0].3);
    }

    #[test]
    fn lock_and_blocking_sites_are_costs() {
        let src = "// analyze: hot\npub fn pump(&self) {\n    \
                   let g = self.state.lock();\n    drop(g);\n    self.cv.wait(1);\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        let msgs: Vec<_> = f.iter().map(|x| x.3.as_str()).collect();
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(
            msgs.iter().any(|m| m.contains("lock acquisition")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("blocking call `wait`")),
            "{msgs:?}"
        );
    }

    #[test]
    fn test_code_and_prose_are_ignored() {
        let src = "//! prose about how the analyze pass works\n\
                   #[cfg(test)]\nmod tests {\n    // analyze: hot\n    fn t() { \
                   let b = Box::new(1); }\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn site_reached_twice_is_reported_once_with_shortest_chain() {
        let src = "// analyze: hot\npub fn fast(&self) {\n    leaf();\n}\n\
                   // analyze: hot\npub fn slow(&self) {\n    middle();\n}\n\
                   fn middle() {\n    leaf();\n}\n\
                   fn leaf() -> Vec<u8> {\n    Vec::new()\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].3.contains("via fast -> leaf"), "{}", f[0].3);
    }

    #[test]
    fn qualified_call_resolves_exactly_and_skips_name_collisions() {
        let src = "pub struct Cheap { n: u64 }\nimpl Cheap {\n    \
                   pub fn new() -> Cheap { Cheap { n: 0 } }\n}\n\
                   pub struct Costly { v: Vec<u8> }\nimpl Costly {\n    \
                   pub fn new() -> Costly {\n        Costly { v: vec![0] }\n    }\n}\n\
                   // analyze: hot\npub fn entry() {\n    Cheap::new();\n}\n";
        assert!(findings(&[("crates/mplite/src/hp.rs", src)]).is_empty());

        let hit = "pub struct Costly { v: Vec<u8> }\nimpl Costly {\n    \
                   pub fn new() -> Costly {\n        Costly { v: vec![0] }\n    }\n}\n\
                   // analyze: hot\npub fn entry() {\n    Costly::new();\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", hit)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].3.contains("via entry -> Costly::new"), "{}", f[0].3);
    }

    #[test]
    fn allocation_constructor_is_a_cost_not_a_call() {
        // `Vec::new(` must not also resolve as a call to every `new`.
        let src = "pub struct Costly { v: Vec<u8> }\nimpl Costly {\n    \
                   pub fn new() -> Costly {\n        Costly { v: vec![0] }\n    }\n}\n\
                   // analyze: hot\npub fn entry() -> Vec<u8> {\n    Vec::new()\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].3.contains("allocation `Vec::new`"), "{}", f[0].3);
    }

    #[test]
    fn unknown_allow_rule_is_marker_hygiene() {
        let src = "fn f() {\n    let x = 1; // analyze: allow(frobnicate) -- whatever\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].3.contains("unknown marker"), "{}", f[0].3);
    }
}
