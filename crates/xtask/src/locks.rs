//! Cross-file lock-order analysis.
//!
//! Collects every `.lock()` acquisition site in library code, with the
//! guards held at each point of a function body as the shared body
//! walk ([`crate::body`]) tracks them, and propagates acquisition and
//! blocking summaries across same-crate calls by name to a fixpoint.
//! From the per-function event streams it derives:
//!
//! * the **acquisition-order graph** — an edge `A -> B` whenever lock
//!   `B` is taken (directly or transitively through a call) while `A`
//!   is held. Cycles in this graph are potential deadlocks and are
//!   reported under the `lock-order` rule, naming every acquisition
//!   site on the cycle;
//! * **`lock-across-blocking`** findings — a guard held across a
//!   blocking primitive (`wait`, `read_exact_deadline`,
//!   `write_all_deadline`, `accept_deadline`) stalls every other thread
//!   contending for that lock for the full deadline. The one legitimate
//!   shape, passing the guard *into* `Condvar::wait`, is recognized and
//!   exempt.
//!
//! Lock identity is syntactic (see [`crate::body`]). This is
//! deliberately coarse — every `RecvSlot.state` is one node — which
//! over-approximates *per instance* but is exactly right for order
//! discipline, where all instances of a field class must be ranked
//! consistently anyway.

use std::collections::{BTreeMap, BTreeSet};

use crate::body::{in_scope, Site, Walk};
use crate::lex::TokKind;
use crate::model::{FnItem, WorkspaceModel};
use crate::rules::RawFinding;

/// Blocking primitives a guard must never be held across. The hot-path
/// cost pass reuses this table for its blocking-call summaries.
pub(crate) const BLOCKING: &[&str] = &[
    "wait",
    "read_exact_deadline",
    "write_all_deadline",
    "accept_deadline",
];

/// One event observed in a function body.
enum Ev {
    /// `.lock()` taken; `held` is the snapshot before this acquisition.
    Acquire {
        id: String,
        line: u32,
        held: Vec<(String, u32)>,
    },
    /// A blocking primitive with guards still held (post-exemption).
    Block {
        name: String,
        line: u32,
        held: Vec<(String, u32)>,
    },
    /// A call by bare name (resolved against same-crate functions).
    Call {
        name: String,
        line: u32,
        held: Vec<(String, u32)>,
    },
}

/// Acquisition/blocking summary of a function name within one crate.
#[derive(Default, Clone)]
struct Summary {
    /// Lock id → first acquisition site (rel path, line).
    acquires: BTreeMap<String, (String, u32)>,
    /// Blocking primitive → first site (rel path, line).
    blocks: BTreeMap<String, (String, u32)>,
}

/// An edge in the acquisition-order graph.
struct Edge {
    /// File index of the holding function (where the edge is anchored).
    file: usize,
    /// Line where the second lock is taken from the holder's view
    /// (direct acquisition line, or the call line for transitive edges).
    line: u32,
    /// Line the held guard was acquired (same file as `line`).
    hold_line: u32,
}

/// Run the lock-order pass; findings are keyed by file index for the
/// per-file annotation resolution.
pub fn lock_findings(w: &WorkspaceModel) -> Vec<(usize, RawFinding)> {
    let items = &w.fns;
    let mut scans: Vec<(usize, Vec<Ev>)> = Vec::new(); // (item idx, events)
    for (ii, f) in items.iter().enumerate() {
        if in_scope(w, f) {
            scans.push((ii, scan_fn(w, f)));
        }
    }

    // Per-(crate, name) summaries, propagated across calls to fixpoint.
    let mut summaries: BTreeMap<(String, String), Summary> = BTreeMap::new();
    for (ii, evs) in &scans {
        let f = &items[*ii];
        let rel = w.files[f.file].model.rel.clone();
        let s = summaries
            .entry((f.krate.clone(), f.name.clone()))
            .or_default();
        for ev in evs {
            match ev {
                Ev::Acquire { id, line, .. } => {
                    s.acquires.entry(id.clone()).or_insert((rel.clone(), *line));
                }
                Ev::Block { name, line, .. } => {
                    s.blocks.entry(name.clone()).or_insert((rel.clone(), *line));
                }
                Ev::Call { .. } => {}
            }
        }
    }
    loop {
        let mut changed = false;
        for (ii, evs) in &scans {
            let f = &items[*ii];
            let key = (f.krate.clone(), f.name.clone());
            for ev in evs {
                let Ev::Call { name, .. } = ev else { continue };
                let callee_key = (f.krate.clone(), name.clone());
                let Some(callee) = summaries.get(&callee_key).cloned() else {
                    continue;
                };
                let s = summaries.entry(key.clone()).or_default();
                for (id, site) in callee.acquires {
                    if !s.acquires.contains_key(&id) {
                        s.acquires.insert(id, site);
                        changed = true;
                    }
                }
                for (b, site) in callee.blocks {
                    if !s.blocks.contains_key(&b) {
                        s.blocks.insert(b, site);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edges + blocking findings.
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    let mut findings: Vec<(usize, RawFinding)> = Vec::new();
    for (ii, evs) in &scans {
        let f = &items[*ii];
        for ev in evs {
            match ev {
                Ev::Acquire { id, line, held } => {
                    for (hid, hline) in held {
                        edges.entry((hid.clone(), id.clone())).or_insert(Edge {
                            file: f.file,
                            line: *line,
                            hold_line: *hline,
                        });
                    }
                }
                Ev::Block { name, line, held } => {
                    for (hid, hline) in held {
                        findings.push((
                            f.file,
                            RawFinding {
                                line: *line,
                                rule: "lock-across-blocking",
                                message: format!(
                                    "guard on `{hid}` (acquired line {hline}) held across \
                                     blocking `{name}`; drop the guard first"
                                ),
                            },
                        ));
                    }
                }
                Ev::Call { name, line, held } => {
                    if held.is_empty() {
                        continue;
                    }
                    let Some(s) = summaries.get(&(f.krate.clone(), name.clone())) else {
                        continue;
                    };
                    for (hid, hline) in held {
                        for lid in s.acquires.keys() {
                            edges.entry((hid.clone(), lid.clone())).or_insert(Edge {
                                file: f.file,
                                line: *line,
                                hold_line: *hline,
                            });
                        }
                        for b in s.blocks.keys() {
                            findings.push((
                                f.file,
                                RawFinding {
                                    line: *line,
                                    rule: "lock-across-blocking",
                                    message: format!(
                                        "guard on `{hid}` (acquired line {hline}) held across \
                                         call to `{name}`, which blocks on `{b}`; drop the \
                                         guard first"
                                    ),
                                },
                            ));
                        }
                    }
                }
            }
        }
    }

    findings.extend(cycle_findings(w, &edges));
    findings
}

/// Detect self-loops and cycles in the acquisition graph.
fn cycle_findings(
    w: &WorkspaceModel,
    edges: &BTreeMap<(String, String), Edge>,
) -> Vec<(usize, RawFinding)> {
    let mut out = Vec::new();
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().insert(to);
    }

    for ((from, to), e) in edges {
        if from == to {
            out.push((
                e.file,
                RawFinding {
                    line: e.line,
                    rule: "lock-order",
                    message: format!(
                        "lock `{from}` acquired again while already held (acquired line {}); \
                         the mutex is not reentrant, this self-deadlocks",
                        e.hold_line
                    ),
                },
            ));
        }
    }

    // Proper cycles: for each edge a -> b, a shortest path b ~> a closes
    // a cycle; dedupe by the cycle's node set.
    let mut seen: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    for (a, b) in edges.keys() {
        if a == b {
            continue;
        }
        let Some(path) = shortest_path(&adj, b, a) else {
            continue;
        };
        // Cycle node sequence: a, b, ..., a (path = b ... a).
        let mut nodes: Vec<&str> = vec![a.as_str()];
        nodes.extend(path.iter().copied());
        let node_set: BTreeSet<String> = nodes.iter().map(|s| s.to_string()).collect();
        if !seen.insert(node_set) {
            continue;
        }
        let mut parts = Vec::new();
        for pair in nodes.windows(2) {
            let e = &edges[&(pair[0].to_string(), pair[1].to_string())];
            parts.push(format!(
                "`{}` -> `{}` at {}:{}",
                pair[0], pair[1], w.files[e.file].model.rel, e.line
            ));
        }
        let first = &edges[&(a.clone(), b.clone())];
        out.push((
            first.file,
            RawFinding {
                line: first.line,
                rule: "lock-order",
                message: format!(
                    "lock-order cycle: {}; acquire locks in a consistent order",
                    parts.join(", ")
                ),
            },
        ));
    }
    out
}

/// Shortest path `from ~> to` over the adjacency map (BFS), returned as
/// the node sequence starting at `from` and ending at `to`.
fn shortest_path<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    let mut visited: BTreeSet<&str> = BTreeSet::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while cur != from {
                cur = prev[cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for next in adj.get(n).into_iter().flatten() {
            if visited.insert(next) {
                prev.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

/// Scan one function body into its event stream.
fn scan_fn(w: &WorkspaceModel, f: &FnItem) -> Vec<Ev> {
    let snapshot = |walk: &Walk<'_>| -> Vec<(String, u32)> {
        walk.held().iter().map(|g| (g.id.clone(), g.line)).collect()
    };
    let mut evs = Vec::new();
    let mut walk = Walk::new(w, f);
    while let Some(site) = walk.next_site() {
        let i = match site {
            Site::Lock { id, line } => {
                let held = snapshot(&walk);
                evs.push(Ev::Acquire { id, line, held });
                continue;
            }
            Site::Ident(i) => i,
        };
        let t = &walk.toks[i];
        if BLOCKING.contains(&t.text.as_str())
            && walk.toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            // Condvar idiom: the guard passed into `wait` is exempt.
            let args = arg_idents(walk.toks, i + 1, f.body.1);
            let held: Vec<(String, u32)> = walk
                .held()
                .iter()
                .filter(|g| g.name.as_ref().is_none_or(|n| !args.contains(n)))
                .map(|g| (g.id.clone(), g.line))
                .collect();
            // Recorded even with nothing held: the *summary* must still
            // say this function blocks, so callers holding guards across
            // a call to it are caught transitively.
            evs.push(Ev::Block {
                name: t.text.clone(),
                line: t.line,
                held,
            });
        } else if walk.is_call(i) {
            evs.push(Ev::Call {
                name: t.text.clone(),
                line: t.line,
                held: snapshot(&walk),
            });
        }
    }
    evs
}

/// Identifiers appearing in a call's argument list; `open_at` is the
/// index of the `(`.
fn arg_idents(toks: &[crate::lex::Tok], open_at: usize, limit: usize) -> Vec<String> {
    let mut out = Vec::new();
    if toks.get(open_at).is_none_or(|t| !t.is_punct("(")) {
        return out;
    }
    let base = toks[open_at].nest;
    let mut j = open_at + 1;
    while j < limit {
        let t = &toks[j];
        if t.kind == TokKind::Close && t.nest == base {
            break;
        }
        if t.kind == TokKind::Ident {
            out.push(t.text.clone());
        }
        j += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::WorkspaceModel;

    fn findings(files: &[(&str, &str)]) -> Vec<(String, u32, String)> {
        let w = WorkspaceModel::from_sources(files);
        lock_findings(&w)
            .into_iter()
            .map(|(fi, f)| (w.files[fi].model.rel.clone(), f.line, f.message))
            .collect()
    }

    #[test]
    fn two_lock_cycle_is_reported_with_both_sites() {
        let a = "impl A {\n    pub fn forward(&self) {\n        let g = self.first.lock();\n        let h = self.second.lock();\n        drop(h);\n        drop(g);\n    }\n}\n";
        let b = "impl B {\n    pub fn backward(&self) {\n        let g = self.second.lock();\n        let h = self.first.lock();\n        drop(h);\n        drop(g);\n    }\n}\n";
        let f = findings(&[
            ("crates/mplite/src/cyc_a.rs", a),
            ("crates/mplite/src/cyc_b.rs", b),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].2.contains("crates/mplite/src/cyc_a.rs:4"),
            "{}",
            f[0].2
        );
        assert!(
            f[0].2.contains("crates/mplite/src/cyc_b.rs:4"),
            "{}",
            f[0].2
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let a = "impl A {\n    pub fn forward(&self) {\n        let g = self.first.lock();\n        let h = self.second.lock();\n        drop(h);\n        drop(g);\n    }\n    pub fn also_forward(&self) {\n        let g = self.first.lock();\n        let h = self.second.lock();\n        drop(h);\n        drop(g);\n    }\n}\n";
        assert!(findings(&[("crates/mplite/src/ord.rs", a)]).is_empty());
    }

    #[test]
    fn transitive_cycle_via_call() {
        let src = "impl E {\n    fn take_b(&self) {\n        let g = self.b_lock.lock();\n        drop(g);\n    }\n    fn outer(&self) {\n        let g = self.a_lock.lock();\n        self.take_b();\n    }\n    fn inner(&self) {\n        let g = self.b_lock.lock();\n        let h = self.a_lock.lock();\n    }\n}\n";
        let f = findings(&[("crates/mplite/src/trans.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("lock-order cycle"), "{}", f[0].2);
    }

    #[test]
    fn scoped_guard_release_breaks_edge() {
        // Guard dropped by scope end before second lock: no edge, no cycle.
        let src = "impl E {\n    fn one(&self) {\n        {\n            let g = self.first.lock();\n        }\n        let h = self.second.lock();\n    }\n    fn two(&self) {\n        {\n            let g = self.second.lock();\n        }\n        let h = self.first.lock();\n    }\n}\n";
        assert!(findings(&[("crates/mplite/src/scoped.rs", src)]).is_empty());
    }

    #[test]
    fn guard_across_blocking_flagged_but_condvar_wait_exempt() {
        let bad = "impl S {\n    fn wait_done(&self) {\n        let g = self.state.lock();\n        self.other.wait(1);\n    }\n}\n";
        let f = findings(&[("crates/mplite/src/bad_block.rs", bad)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("held across blocking `wait`"), "{}", f[0].2);

        let ok = "impl S {\n    fn sleep(&self) {\n        let mut st = self.state.lock();\n        self.cv.wait(&mut st);\n    }\n}\n";
        assert!(findings(&[("crates/mplite/src/cv_ok.rs", ok)]).is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "impl S {\n    fn peek(&self) -> usize {\n        let n = self.first.lock().len();\n        let m = self.second.lock().len();\n        n + m\n    }\n    fn rev(&self) -> usize {\n        let n = self.second.lock().len();\n        let m = self.first.lock().len();\n        n + m\n    }\n}\n";
        assert!(findings(&[("crates/mplite/src/temp.rs", src)]).is_empty());
    }

    #[test]
    fn reacquire_same_lock_is_self_deadlock() {
        let src = "impl S {\n    fn oops(&self) {\n        let g = self.state.lock();\n        let h = self.state.lock();\n    }\n}\n";
        let f = findings(&[("crates/mplite/src/re.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("self-deadlocks"), "{}", f[0].2);
    }

    #[test]
    fn self_named_delegation_is_not_a_cycle() {
        // `fn events` calling `.events()` on the guard must not resolve
        // to itself (tracelab::WallTracer wrapper pattern).
        let src = "impl W {\n    fn events(&self) -> usize {\n        self.core.lock().events()\n    }\n}\n";
        assert!(findings(&[("crates/mplite/src/deleg.rs", src)]).is_empty());
    }
}
