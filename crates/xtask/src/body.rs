//! The function-body walk shared by the lock-order, guarded-field and
//! hot-path cost passes.
//!
//! [`Walk`] visits one function body token by token. It skips nested
//! functions (bodies and headers) and `#[cfg(test)]` lines, and it owns
//! the two decisions every pass must make alike:
//!
//! * **lock identity** — `<expr>.lock()` names the lock after the field
//!   or binding the guard came from (`self.state.lock()` → `state`),
//!   qualified by crate; a bare `self.lock()` uses the `impl` type;
//! * **guard liveness** — a guard bound by `let g = x.lock();` lives
//!   until its scope closes or `drop(g)`; any other guard is a
//!   temporary that dies at the end of its statement.
//!
//! Each pass reads the walk its own way: it sees every acquisition as a
//! [`Site::Lock`] and every other identifier as a [`Site::Ident`], with
//! the guards live at that point in [`Walk::held`].

use crate::context::FileKind;
use crate::lex::{Tok, TokKind};
use crate::model::{FileModel, FnItem, WorkspaceModel};

/// Files implementing the lock primitives themselves: their internals
/// (poison recovery, condvar re-lock) are not acquisition *sites*.
const PRIMITIVE_FILES: &[&str] = &["crates/mplite/src/sync.rs"];

/// Crates the body passes never govern: the analyzer documents the
/// marker grammar in its own prose comments.
const EXEMPT_CRATES: &[&str] = &["xtask"];

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "fn", "pub", "use", "impl",
    "move", "ref", "mut", "where", "unsafe", "dyn", "else", "enum", "struct", "trait", "type",
    "const", "static", "continue", "break", "self", "Self", "super", "crate", "drop",
];

/// Is this file library code the body passes govern?
pub fn governs_file(w: &WorkspaceModel, file: usize) -> bool {
    let wf = &w.files[file];
    wf.ctx.kind == FileKind::Lib
        && !EXEMPT_CRATES.contains(&wf.ctx.crate_name.as_str())
        && !PRIMITIVE_FILES.contains(&wf.model.rel.as_str())
}

/// Is this function in the body passes' scope?
pub fn in_scope(w: &WorkspaceModel, f: &FnItem) -> bool {
    governs_file(w, f.file) && !w.files[f.file].model.masked(f.line)
}

/// A guard live during the walk.
pub struct Guard {
    /// Lock identity, `crate::base`.
    pub id: String,
    /// Line of the acquisition.
    pub line: u32,
    /// Binding name (`None` = temporary).
    pub name: Option<String>,
    /// Brace depth of the binding statement; the guard dies when a `}`
    /// brings the depth below this.
    depth: u32,
    /// Nesting level of the statement; a temporary dies at the first
    /// `;` at or below it.
    nest: u32,
}

/// What the walk shows a pass.
pub enum Site {
    /// `<expr>.lock()` acquiring lock `id`. [`Walk::held`] does not
    /// include the new guard yet.
    Lock { id: String, line: u32 },
    /// Any other identifier outside test code, by token index.
    Ident(usize),
}

/// A walk over one function body; see the module docs.
pub struct Walk<'a> {
    /// The file's token stream.
    pub toks: &'a [Tok],
    model: &'a FileModel,
    f: &'a FnItem,
    /// Token ranges of other functions nested inside this body.
    nested: Vec<(usize, usize)>,
    held: Vec<Guard>,
    /// The guard of the last [`Site::Lock`], pushed on the next step.
    pending: Option<Guard>,
    stmt_start: usize,
    i: usize,
}

impl<'a> Walk<'a> {
    /// Start a walk over `f`'s body.
    pub fn new(w: &'a WorkspaceModel, f: &'a FnItem) -> Walk<'a> {
        let model = &w.files[f.file].model;
        let (open, close) = f.body;
        Walk {
            toks: &model.toks,
            model,
            f,
            nested: w
                .fns
                .iter()
                .filter(|g| g.file == f.file && g.body.0 > open && g.body.1 < close)
                .map(|g| g.body)
                .collect(),
            held: Vec::new(),
            pending: None,
            stmt_start: open + 1,
            i: open + 1,
        }
    }

    /// Guards live at the current site.
    pub fn held(&self) -> &[Guard] {
        &self.held
    }

    /// The pass consumed `n` tokens after the current identifier.
    pub fn skip(&mut self, n: usize) {
        self.i += n;
    }

    /// Is the identifier at `at` a call the passes resolve? Keywords are
    /// not calls, and neither is a call sharing the enclosing function's
    /// name: that is almost always delegation to an inner object
    /// (`fn events() { self.lock().events() }`), and resolving it by name
    /// would manufacture a bogus self-cycle.
    pub fn is_call(&self, at: usize) -> bool {
        let t = &self.toks[at];
        self.toks.get(at + 1).is_some_and(|n| n.is_punct("("))
            && !NON_CALL.contains(&t.text.as_str())
            && t.text != "lock"
            && t.text != self.f.name
    }

    /// The next site, or `None` at the end of the body.
    pub fn next_site(&mut self) -> Option<Site> {
        if let Some(g) = self.pending.take() {
            self.held.push(g);
        }
        let toks = self.toks;
        let close = self.f.body.1;
        while self.i < close {
            let i = self.i;
            if let Some(&(_, end)) = self.nested.iter().find(|(s, _)| *s == i) {
                self.i = end + 1;
                self.stmt_start = self.i;
                continue;
            }
            let t = &toks[i];

            // Releases first.
            if t.kind == TokKind::Close && t.text == "}" {
                self.held.retain(|g| t.depth >= g.depth);
            }
            if t.is_punct(";") {
                self.held.retain(|g| g.name.is_some() || t.nest > g.nest);
            }

            // Skip nested `fn` headers (their bodies are range-skipped).
            if t.is_ident("fn") {
                let mut j = i + 1;
                while j < close
                    && !(toks[j].is_punct(";")
                        || (toks[j].kind == TokKind::Open && toks[j].text == "{"))
                {
                    j += 1;
                }
                self.i = j;
                continue;
            }

            if t.kind == TokKind::Ident && !self.model.masked(t.line) {
                let next_open = toks.get(i + 1).is_some_and(|n| n.is_punct("("));

                // `drop(g)` releases a bound guard.
                if t.text == "drop"
                    && next_open
                    && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
                    && toks.get(i + 3).is_some_and(|n| n.is_punct(")"))
                {
                    let name = &toks[i + 2].text;
                    self.held.retain(|g| g.name.as_ref() != Some(name));
                    self.i = i + 4;
                    continue;
                }

                if t.text == "lock"
                    && i > 0
                    && toks[i - 1].is_punct(".")
                    && next_open
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(")"))
                {
                    let id = self.lock_id(i);
                    // A guard is *bound* only when the `.lock()` call is
                    // the whole initializer (`let g = x.lock();`); with
                    // further chained calls (`let n = x.lock().len();`)
                    // the guard is a temporary that dies at the
                    // statement's end.
                    let whole_init = toks.get(i + 3).is_some_and(|n| n.is_punct(";"));
                    let (name, depth, nest) = binding_of(toks, self.stmt_start, i, whole_init);
                    self.pending = Some(Guard {
                        id: id.clone(),
                        line: t.line,
                        name,
                        depth,
                        nest,
                    });
                    self.i = i + 3;
                    return Some(Site::Lock { id, line: t.line });
                }

                self.i = i + 1;
                return Some(Site::Ident(i));
            }

            if t.is_punct(";") || t.is_punct("=>") || t.text == "{" || t.text == "}" {
                self.stmt_start = i + 1;
            }
            self.i = i + 1;
        }
        None
    }

    /// Identity of the lock taken by the `.lock()` at `at`.
    fn lock_id(&self, at: usize) -> String {
        let f = self.f;
        let base = match self.toks.get(at.wrapping_sub(2)) {
            Some(p) if p.kind == TokKind::Ident && p.text != "self" => p.text.clone(),
            Some(p) if p.is_ident("self") => f.self_type.clone().unwrap_or_else(|| f.name.clone()),
            _ => "<anon>".to_string(),
        };
        format!("{}::{}", f.krate, base)
    }
}

/// Was the acquisition at `at` bound by its statement (`let [mut] name =`)?
/// Returns `(binding name, statement depth, statement nest)`.
fn binding_of(
    toks: &[Tok],
    stmt_start: usize,
    at: usize,
    whole_init: bool,
) -> (Option<String>, u32, u32) {
    let stmt = &toks[stmt_start.min(at)..at];
    let depth = stmt.first().map_or(toks[at].depth, |t| t.depth);
    let nest = stmt.first().map_or(toks[at].nest, |t| t.nest);
    let mut it = stmt.iter();
    if whole_init && it.next().is_some_and(|t| t.is_ident("let")) {
        let mut t = it.next();
        if t.is_some_and(|t| t.is_ident("mut")) {
            t = it.next();
        }
        if let (Some(name), Some(eq)) = (t, it.next()) {
            if name.kind == TokKind::Ident && eq.is_punct("=") {
                return (Some(name.text.clone()), depth, nest);
            }
        }
    }
    (None, depth, nest)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every site of the first function in `src`, with the guards held
    /// there: `lock <id> [held]` or `<ident> [held]`.
    fn sites(src: &str) -> Vec<String> {
        let w = WorkspaceModel::from_sources(&[("crates/mplite/src/x.rs", src)]);
        let mut walk = Walk::new(&w, &w.fns[0]);
        let mut out = Vec::new();
        while let Some(site) = walk.next_site() {
            let held: Vec<&str> = walk.held().iter().map(|g| g.id.as_str()).collect();
            out.push(match site {
                Site::Lock { id, .. } => format!("lock {id} {held:?}"),
                Site::Ident(i) => format!("{} {held:?}", walk.toks[i].text),
            });
        }
        out
    }

    #[test]
    fn bound_guards_live_until_drop_or_scope_end() {
        let src = "impl S {\n    fn f(&self) {\n        let g = self.a.lock();\n        \
                   x();\n        drop(g);\n        y();\n        {\n            \
                   let mut h = self.b.lock();\n        }\n        z();\n    }\n}\n";
        assert_eq!(
            sites(src),
            [
                "let []",
                "g []",
                "self []",
                "a []",
                "lock mplite::a []",
                "x [\"mplite::a\"]",
                "y []",
                "let []",
                "mut []",
                "h []",
                "self []",
                "b []",
                "lock mplite::b []",
                "z []",
            ]
        );
    }

    #[test]
    fn temporaries_die_at_statement_end_and_self_lock_names_the_impl() {
        let src = "impl S {\n    fn f(&self) {\n        let n = self.lock().len();\n        \
                   y();\n    }\n}\n";
        assert_eq!(
            sites(src),
            [
                "let []",
                "n []",
                "self []",
                "lock mplite::S []",
                "len [\"mplite::S\"]",
                "y []",
            ]
        );
    }

    #[test]
    fn nested_fns_are_skipped_header_and_body() {
        let src = "fn outer() {\n    fn inner(v: Vec<u8>) -> u8 { a() }\n    b();\n}\n";
        assert_eq!(sites(src), ["b []"]);
    }

    #[test]
    fn keywords_and_self_named_calls_are_not_calls() {
        let w = WorkspaceModel::from_sources(&[(
            "crates/mplite/src/x.rs",
            "fn run() {\n    if (x) {}\n    run();\n    go();\n}\n",
        )]);
        let mut walk = Walk::new(&w, &w.fns[0]);
        let mut calls = Vec::new();
        while let Some(site) = walk.next_site() {
            if let Site::Ident(i) = site {
                if walk.is_call(i) {
                    calls.push(walk.toks[i].text.clone());
                }
            }
        }
        assert_eq!(calls, ["go"]);
    }
}
