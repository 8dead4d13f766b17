//! Guarded-field consistency analysis.
//!
//! A field that is *sometimes* read or written under a mutex guard and
//! *sometimes* bare is the classic shape of a latent data race — in this
//! workspace's hand-rolled safe-Rust sync layer it cannot be UB, but it
//! is exactly the inconsistency that turns into lost wakeups and stale
//! reads once the code runs on real threads. This pass classifies every
//! struct-field access in library code as **guarded** (a guard tracked
//! by the shared body walk, [`crate::body`], is live at the access
//! point, or the access goes through a guard binding itself) or
//! **bare**, and reports fields that are accessed both ways from code
//! reachable from a thread root
//! (`thread::spawn`, `thread::scope`, or a `.spawn(…)` builder) under
//! the zero-tolerance `race-guarded-field` rule, naming both sites.
//!
//! Exemptions, tuned so the checker is quiet on intentional shapes:
//!
//! * bare accesses in `&mut self` / owned-`self` methods are exempt —
//!   an exclusive borrow cannot race;
//! * accesses that immediately enter a synchronization primitive
//!   (`.lock()`, `.wait()`, `.notify_all()`, atomics, channels,
//!   `.clone()` of a shared handle) are not data accesses;
//! * field identity is `(crate, field name)`, the same coarseness as
//!   lock identity — all instances of a field class share one verdict.
//!
//! Suppression uses the ordinary annotation grammar on the bare site,
//! with `race-guarded-field` as the rule: `// lint:allow(<rule>) -- <reason>`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::body::{in_scope, Site, Walk};
use crate::lex::{Tok, TokKind};
use crate::model::{field_decls, FnItem, WorkspaceModel};
use crate::rules::RawFinding;

/// Methods that make a field access a synchronization operation rather
/// than a data access: the primitive serializes internally.
const SYNC_METHODS: &[&str] = &[
    "lock",
    "read",
    "write",
    "wait",
    "wait_timeout",
    "notify_one",
    "notify_all",
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
    "clone",
    "send",
    "recv",
    "try_send",
    "try_recv",
];

/// How a method borrows its receiver.
#[derive(PartialEq, Clone, Copy)]
enum Receiver {
    /// `&self`: shared borrow — bare field accesses can race.
    Shared,
    /// `&mut self` / `self` / `mut self`: exclusive — cannot race.
    Exclusive,
    /// Free function: `self.field` cannot occur.
    None,
}

/// One classified field access.
struct Access {
    /// `(krate, fn name)` of the enclosing function.
    fn_key: (String, String),
    file: usize,
    line: u32,
    guarded: bool,
    /// Lock id live at a guarded access (for the message).
    lock: Option<String>,
}

/// Parse the receiver kind from the function header. Walks back from
/// the body to the `fn` keyword, then forward through the name and any
/// generic parameter list to the first parameter.
fn receiver_kind(toks: &[Tok], f: &FnItem) -> Receiver {
    let mut k = f.body.0;
    loop {
        if k == 0 {
            return Receiver::None;
        }
        k -= 1;
        if toks[k].is_ident("fn") && toks.get(k + 1).is_some_and(|n| n.is_ident(&f.name)) {
            break;
        }
    }
    let mut j = k + 2;
    if toks.get(j).is_some_and(|t| t.is_punct("<")) {
        let mut angle = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                _ => {}
            }
            j += 1;
            if angle <= 0 {
                break;
            }
        }
    }
    if toks.get(j).is_none_or(|t| !t.is_punct("(")) {
        return Receiver::None;
    }
    let mut m = j + 1;
    let amp = toks.get(m).is_some_and(|t| t.is_punct("&"));
    if amp {
        m += 1;
        if toks.get(m).is_some_and(|t| t.kind == TokKind::Lifetime) {
            m += 1;
        }
    }
    let mutt = toks.get(m).is_some_and(|t| t.is_ident("mut"));
    if mutt {
        m += 1;
    }
    if !toks.get(m).is_some_and(|t| t.is_ident("self")) {
        return Receiver::None;
    }
    if amp && !mutt {
        Receiver::Shared
    } else {
        Receiver::Exclusive
    }
}

/// Scan one function body: collect field accesses, call edges, and
/// whether the body contains a thread-root spawn site.
fn scan_fn(
    w: &WorkspaceModel,
    f: &FnItem,
    fields: &BTreeSet<(String, String)>,
    accesses: &mut BTreeMap<(String, String), Vec<Access>>,
    calls: &mut BTreeSet<String>,
) -> bool {
    let toks = &w.files[f.file].model.toks;
    let recv = receiver_kind(toks, f);
    let mut is_root = false;
    let mut walk = Walk::new(w, f);
    while let Some(site) = walk.next_site() {
        let Site::Ident(i) = site else { continue };
        let t = &toks[i];
        let prev_dot = i > 0 && toks[i - 1].is_punct(".");
        let next_open = toks.get(i + 1).is_some_and(|n| n.is_punct("("));

        // Thread roots.
        if (t.text == "spawn" || t.text == "scope")
            && i >= 2
            && toks[i - 1].is_punct("::")
            && toks[i - 2].is_ident("thread")
        {
            is_root = true;
        }
        if t.text == "spawn" && prev_dot && next_open {
            is_root = true;
        }

        // Field access: `self.field` or `<guard>.field`, not a call.
        if prev_dot && !next_open {
            let held = walk.held();
            let via_guard = toks.get(i.wrapping_sub(2)).and_then(|r| {
                (r.kind == TokKind::Ident)
                    .then(|| held.iter().find(|g| g.name.as_ref() == Some(&r.text)))
                    .flatten()
            });
            let via_self = toks
                .get(i.wrapping_sub(2))
                .is_some_and(|r| r.is_ident("self"))
                && !(i >= 3 && toks[i - 3].is_punct("."));
            // `x.f.sync_op(…)` is a synchronization op, not data.
            let sync_next = toks.get(i + 1).is_some_and(|n| n.is_punct("."))
                && toks
                    .get(i + 2)
                    .is_some_and(|n| SYNC_METHODS.contains(&n.text.as_str()))
                && toks.get(i + 3).is_some_and(|n| n.is_punct("("));
            if (via_guard.is_some() || via_self)
                && !sync_next
                && fields.contains(&(f.krate.clone(), t.text.clone()))
            {
                let guarded = via_guard.is_some() || !held.is_empty();
                let lock = via_guard
                    .map(|g| g.id.clone())
                    .or_else(|| held.last().map(|g| g.id.clone()));
                if guarded || recv == Receiver::Shared {
                    accesses
                        .entry((f.krate.clone(), t.text.clone()))
                        .or_default()
                        .push(Access {
                            fn_key: (f.krate.clone(), f.name.clone()),
                            file: f.file,
                            line: t.line,
                            guarded,
                            lock,
                        });
                }
            }
        }

        // Calls by bare name for thread-reachability propagation.
        if walk.is_call(i) {
            calls.insert(t.text.clone());
        }
    }
    is_root
}

/// Run the guarded-field pass; findings are keyed by file index.
pub fn race_findings(w: &WorkspaceModel) -> Vec<(usize, RawFinding)> {
    let fields: BTreeSet<(String, String)> = field_decls(w)
        .into_iter()
        .map(|d| (d.krate, d.name))
        .collect();

    let mut accesses: BTreeMap<(String, String), Vec<Access>> = BTreeMap::new();
    let mut adj: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    let mut roots: BTreeSet<(String, String)> = BTreeSet::new();
    for f in &w.fns {
        if !in_scope(w, f) {
            continue;
        }
        let mut calls = BTreeSet::new();
        let is_root = scan_fn(w, f, &fields, &mut accesses, &mut calls);
        let key = (f.krate.clone(), f.name.clone());
        if is_root {
            roots.insert(key.clone());
        }
        adj.entry(key).or_default().extend(calls);
    }

    // Thread-reachable set: the roots plus everything they call,
    // transitively, within the same crate.
    let mut mt: BTreeSet<(String, String)> = roots.clone();
    let mut queue: VecDeque<(String, String)> = roots.into_iter().collect();
    while let Some(key) = queue.pop_front() {
        let Some(callees) = adj.get(&key) else {
            continue;
        };
        for callee in callees {
            let next = (key.0.clone(), callee.clone());
            if adj.contains_key(&next) && mt.insert(next.clone()) {
                queue.push_back(next);
            }
        }
    }

    let mut findings: Vec<(usize, RawFinding)> = Vec::new();
    for ((krate, field), accs) in &accesses {
        let guarded = accs
            .iter()
            .filter(|a| a.guarded && mt.contains(&a.fn_key))
            .min_by_key(|a| (a.file, a.line));
        let bare = accs
            .iter()
            .filter(|a| !a.guarded && mt.contains(&a.fn_key))
            .min_by_key(|a| (a.file, a.line));
        let (Some(g), Some(b)) = (guarded, bare) else {
            continue;
        };
        findings.push((
            b.file,
            RawFinding {
                line: b.line,
                rule: "race-guarded-field",
                message: format!(
                    "field `{krate}::{field}` accessed bare in `{}` but under guard on \
                     `{}` at {}:{} in `{}`; both are reachable from thread spawn sites — \
                     take the lock here too, or annotate \
                     `lint:allow(race-guarded-field) -- <reason>`",
                    b.fn_key.1,
                    g.lock.as_deref().unwrap_or("?"),
                    w.files[g.file].model.rel,
                    g.line,
                    g.fn_key.1,
                ),
            },
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::WorkspaceModel;

    fn findings(files: &[(&str, &str)]) -> Vec<(String, u32, String)> {
        let w = WorkspaceModel::from_sources(files);
        race_findings(&w)
            .into_iter()
            .map(|(fi, f)| (w.files[fi].model.rel.clone(), f.line, f.message))
            .collect()
    }

    const STRUCT: &str = "pub struct S { state: Mutex<u64>, count: u64 }\n";

    #[test]
    fn mixed_guarded_and_bare_access_is_reported() {
        let src = format!(
            "{STRUCT}impl S {{\n\
             pub fn writer(&self) {{\n    let g = self.state.lock();\n    self.count;\n}}\n\
             pub fn reader(&self) -> u64 {{\n    self.count\n}}\n\
             pub fn run(&self) {{\n    thread::scope(|s| {{\n        \
             self.writer();\n        self.reader();\n    }});\n}}\n}}\n"
        );
        let f = findings(&[("crates/mplite/src/r.rs", &src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("`mplite::count`"), "{}", f[0].2);
        assert!(f[0].2.contains("bare in `reader`"), "{}", f[0].2);
        assert!(f[0].2.contains("in `writer`"), "{}", f[0].2);
    }

    #[test]
    fn single_threaded_mix_is_silent() {
        let src = format!(
            "{STRUCT}impl S {{\n\
             pub fn writer(&self) {{\n    let g = self.state.lock();\n    self.count;\n}}\n\
             pub fn reader(&self) -> u64 {{\n    self.count\n}}\n}}\n"
        );
        assert!(findings(&[("crates/mplite/src/r.rs", &src)]).is_empty());
    }

    #[test]
    fn exclusive_receiver_bare_access_is_exempt() {
        let src = format!(
            "{STRUCT}impl S {{\n\
             pub fn writer(&self) {{\n    let g = self.state.lock();\n    self.count;\n}}\n\
             pub fn setup(&mut self) {{\n    self.count = 0;\n}}\n\
             pub fn run(&self) {{\n    thread::scope(|s| {{\n        \
             self.writer();\n        helper();\n    }});\n}}\n}}\n\
             fn helper() {{}}\n"
        );
        assert!(findings(&[("crates/mplite/src/r.rs", &src)]).is_empty());
    }

    #[test]
    fn guard_projected_access_counts_as_guarded() {
        // Accessing the data *through* the guard binding is the guarded
        // side; the bare side still trips the rule.
        let src = "pub struct Inner { count: u64 }\n\
                   pub struct S { state: Mutex<Inner> }\n\
                   impl S {\n\
                   pub fn writer(&self) {\n    let g = self.state.lock();\n    g.count;\n}\n\
                   pub fn reader(&self, inner: &Inner) {\n    self.peek(inner);\n}\n\
                   fn peek(&self, inner: &Inner) -> u64 {\n    inner.count\n}\n\
                   pub fn run(&self) {\n    thread::spawn(|| {});\n    self.writer();\n}\n}\n";
        // `inner.count` is not a self/guard access, so only the guarded
        // side exists: silent.
        assert!(findings(&[("crates/mplite/src/r.rs", src)]).is_empty());
    }

    #[test]
    fn condvar_and_atomic_style_accesses_are_exempt() {
        let src = "pub struct S { state: Mutex<u64>, cv: Condvar, hits: AtomicU64 }\n\
                   impl S {\n\
                   pub fn sleep(&self) {\n    let mut g = self.state.lock();\n    \
                   self.cv.wait(&mut g);\n}\n\
                   pub fn wake(&self) {\n    self.hits.fetch_add(1, Relaxed);\n    \
                   self.cv.notify_all();\n}\n\
                   pub fn run(&self) {\n    thread::scope(|s| {\n        \
                   self.sleep();\n        self.wake();\n    });\n}\n}\n";
        assert!(findings(&[("crates/mplite/src/r.rs", src)]).is_empty());
    }

    #[test]
    fn cross_file_pair_is_reported_once_at_the_bare_site() {
        let a = "pub struct S { state: Mutex<u64>, count: u64 }\n\
                 impl S {\n\
                 pub fn writer(&self) {\n    let g = self.state.lock();\n    self.count;\n}\n\
                 pub fn run(&self) {\n    thread::scope(|s| {\n        \
                 self.writer();\n        self.reader();\n    });\n}\n}\n";
        let b = "impl S {\n    pub fn reader(&self) -> u64 {\n        self.count\n    }\n}\n";
        let f = findings(&[
            ("crates/mplite/src/r_a.rs", a),
            ("crates/mplite/src/r_b.rs", b),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, "crates/mplite/src/r_b.rs");
        assert!(f[0].2.contains("crates/mplite/src/r_a.rs:5"), "{}", f[0].2);
    }

    #[test]
    fn spawn_reachability_propagates_through_calls() {
        let src = format!(
            "{STRUCT}impl S {{\n\
             pub fn writer(&self) {{\n    let g = self.state.lock();\n    self.count;\n}}\n\
             pub fn reader(&self) -> u64 {{\n    self.count\n}}\n\
             fn stage(&self) {{\n    self.writer();\n    self.reader();\n}}\n\
             pub fn run(&self) {{\n    thread::spawn(move || {{}});\n    self.stage();\n}}\n}}\n"
        );
        let f = findings(&[("crates/mplite/src/r.rs", &src)]);
        assert_eq!(f.len(), 1, "{f:?}");
    }
}
