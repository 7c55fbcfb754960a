//! The whole-development symbol table and dependency graph.
//!
//! Nodes are every named object of a loaded development plus the built-in
//! prelude: sorts, inductive datatypes and their constructors, functions,
//! defined and inductive predicates and their rules, lemmas, axioms, and
//! hint sentences (which get synthetic names). Edges point from a symbol
//! to every symbol its elaborated statement or body references; membership
//! edges between an inductive and its constructors (and a predicate and
//! its rules) run both ways, so reachability through either keeps the
//! whole declaration alive.
//!
//! References are extracted from the *elaborated* kernel objects, not from
//! source tokens, so binders never alias globals. The one exception is
//! proof scripts, which the kernel does not retain: their identifier
//! tokens are matched against the symbol table, adding an edge for every
//! token that resolves (a conservative over-approximation — a proof-local
//! name that shadows a global adds a spurious edge, which can only make a
//! dead symbol look live, never the reverse).

use std::collections::{BTreeMap, BTreeSet};

use minicoq::env::{Env, PredDef};
use minicoq_vernac::item::ItemKind;
use minicoq_vernac::lint::hint_targets;
use minicoq_vernac::loader::Development;

pub use minicoq::refs::{formula_refs, sort_refs, term_refs};

/// The pseudo-file prelude symbols are attributed to.
pub const PRELUDE_FILE: &str = "<prelude>";

/// What a graph node denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolKind {
    /// An opaque sort or sort constructor.
    Sort,
    /// An inductive datatype.
    Inductive,
    /// A datatype constructor.
    Ctor,
    /// A `Definition`/`Fixpoint` returning a sort.
    Function,
    /// A predicate defined by a formula.
    DefinedPred,
    /// An inductively defined predicate.
    IndPred,
    /// An introduction rule of an inductive predicate.
    Rule,
    /// A proved (or admitted) lemma.
    Lemma,
    /// An `Axiom` statement.
    Axiom,
    /// A `Hint` sentence (synthetic node; always a liveness root).
    Hint,
}

/// One node of the dependency graph.
#[derive(Debug, Clone)]
pub struct Symbol {
    /// Unique name. Hint sentences get synthetic `Hint@File#idx` names.
    pub name: String,
    /// Node kind.
    pub kind: SymbolKind,
    /// Module the symbol is declared in ([`PRELUDE_FILE`] for built-ins).
    pub file: String,
    /// Index of the declaring item within its file (0 for prelude).
    pub item_index: usize,
    /// 1-based source line of the declaring item (0 for prelude).
    pub line: usize,
}

/// A reference that failed to resolve against the symbol table.
#[derive(Debug, Clone)]
pub struct UnresolvedRef {
    /// Module of the referencing item.
    pub file: String,
    /// Name of the referencing item (synthetic for hints).
    pub item: String,
    /// Index of the referencing item.
    pub item_index: usize,
    /// Source line of the referencing item.
    pub line: usize,
    /// The name that did not resolve.
    pub name: String,
}

/// The dependency graph over a loaded development.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    symbols: Vec<Symbol>,
    by_name: BTreeMap<String, usize>,
    out: Vec<BTreeSet<usize>>,
    edge_count: usize,
    /// References that resolved to no symbol (graph-closure violations).
    pub unresolved: Vec<UnresolvedRef>,
}

impl DepGraph {
    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True when the graph has no symbols.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The symbol with the given id.
    pub fn symbol(&self, id: usize) -> &Symbol {
        &self.symbols[id]
    }

    /// All symbols with their ids.
    pub fn symbols(&self) -> impl Iterator<Item = (usize, &Symbol)> {
        self.symbols.iter().enumerate()
    }

    /// Resolves a name to a symbol id.
    pub fn lookup(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Outgoing reference edges of a symbol.
    pub fn out(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        self.out[id].iter().copied()
    }

    /// The set of symbols reachable from `roots` along reference edges
    /// (including the roots themselves), as a membership vector.
    pub fn reachable(&self, roots: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; self.symbols.len()];
        let mut stack: Vec<usize> = Vec::new();
        for &r in roots {
            if !seen[r] {
                seen[r] = true;
                stack.push(r);
            }
        }
        while let Some(id) = stack.pop() {
            for next in &self.out[id] {
                if !seen[*next] {
                    seen[*next] = true;
                    stack.push(*next);
                }
            }
        }
        seen
    }

    fn add_symbol(&mut self, sym: Symbol) -> usize {
        // First declaration wins; the lint layer reports cross-namespace
        // name collisions separately.
        if let Some(&id) = self.by_name.get(&sym.name) {
            return id;
        }
        let id = self.symbols.len();
        self.by_name.insert(sym.name.clone(), id);
        self.symbols.push(sym);
        self.out.push(BTreeSet::new());
        id
    }

    fn add_edge(&mut self, from: usize, to: usize) {
        if self.out[from].insert(to) {
            self.edge_count += 1;
        }
    }

    /// Builds the graph for a loaded development. `sources` maps module
    /// names to their source text (used only to turn item byte offsets
    /// into line numbers); modules missing from it get line 0.
    pub fn build(dev: &Development, sources: &[(String, String)]) -> DepGraph {
        let _sp = proof_trace::span("analysis", "graph");
        let src: BTreeMap<&str, &str> = sources
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect();
        let mut g = DepGraph::default();
        let prelude = Env::with_prelude();
        g.add_env_symbols(&prelude);
        // Phase 1: declare every file symbol so forward references inside
        // mutual groups (and hints ahead of us in an unrelated file) all
        // resolve during phase 2.
        for file in &dev.files {
            let text = src.get(file.name.as_str()).copied().unwrap_or("");
            for (idx, item) in file.items.iter().enumerate() {
                g.declare_item(dev, &file.name, idx, item, line_of(text, item.start));
            }
        }
        // Phase 2: reference edges.
        for file in &dev.files {
            let text = src.get(file.name.as_str()).copied().unwrap_or("");
            for (idx, item) in file.items.iter().enumerate() {
                g.link_item(dev, &file.name, idx, item, line_of(text, item.start));
            }
        }
        g
    }

    /// Declares the prelude's built-ins as symbols (with membership edges;
    /// their own bodies only reference other built-ins, which never affects
    /// file-level reachability, so deeper prelude edges are skipped).
    fn add_env_symbols(&mut self, env: &Env) {
        let at = |name: &str, kind| Symbol {
            name: name.to_string(),
            kind,
            file: PRELUDE_FILE.to_string(),
            item_index: 0,
            line: 0,
        };
        for s in env.sorts.iter() {
            self.add_symbol(at(s, SymbolKind::Sort));
        }
        for s in env.sort_ctors.keys() {
            self.add_symbol(at(s, SymbolKind::Sort));
        }
        for (n, ind) in env.inductives.iter() {
            let ind_id = self.add_symbol(at(n, SymbolKind::Inductive));
            for c in &ind.ctors {
                let cid = self.add_symbol(at(&c.name, SymbolKind::Ctor));
                self.add_edge(ind_id, cid);
                self.add_edge(cid, ind_id);
            }
        }
        for n in env.funcs.keys() {
            self.add_symbol(at(n, SymbolKind::Function));
        }
        for (n, pd) in env.preds.iter() {
            match pd {
                PredDef::Defined(_) => {
                    self.add_symbol(at(n, SymbolKind::DefinedPred));
                }
                PredDef::Inductive(ip) => {
                    let pid = self.add_symbol(at(n, SymbolKind::IndPred));
                    for (rn, _) in &ip.rules {
                        let rid = self.add_symbol(at(rn, SymbolKind::Rule));
                        self.add_edge(pid, rid);
                        self.add_edge(rid, pid);
                    }
                }
            }
        }
        for l in env.lemmas.iter() {
            self.add_symbol(at(&l.name, SymbolKind::Lemma));
        }
    }

    fn declare_item(
        &mut self,
        dev: &Development,
        file: &str,
        idx: usize,
        item: &minicoq_vernac::item::Item,
        line: usize,
    ) {
        let sym = |name: &str, kind| Symbol {
            name: name.to_string(),
            kind,
            file: file.to_string(),
            item_index: idx,
            line,
        };
        match item.kind {
            ItemKind::Import => {}
            ItemKind::SortDecl => {
                self.add_symbol(sym(&item.name, SymbolKind::Sort));
            }
            ItemKind::Inductive => {
                for member in group_members(dev, &item.text, &item.name) {
                    if let Some(ind) = dev.env.inductives.get(member.as_str()) {
                        let ind_id = self.add_symbol(sym(&member, SymbolKind::Inductive));
                        for c in &ind.ctors {
                            let cid = self.add_symbol(sym(&c.name, SymbolKind::Ctor));
                            self.add_edge(ind_id, cid);
                            self.add_edge(cid, ind_id);
                        }
                    } else if let Some(PredDef::Inductive(ip)) = dev.env.preds.get(member.as_str())
                    {
                        let pid = self.add_symbol(sym(&member, SymbolKind::IndPred));
                        for (rn, _) in &ip.rules {
                            let rid = self.add_symbol(sym(rn, SymbolKind::Rule));
                            self.add_edge(pid, rid);
                            self.add_edge(rid, pid);
                        }
                    }
                }
            }
            ItemKind::Definition | ItemKind::Fixpoint => {
                if dev.env.funcs.contains_key(item.name.as_str()) {
                    self.add_symbol(sym(&item.name, SymbolKind::Function));
                } else if dev.env.preds.contains_key(item.name.as_str()) {
                    self.add_symbol(sym(&item.name, SymbolKind::DefinedPred));
                }
            }
            ItemKind::Lemma => {
                self.add_symbol(sym(&item.name, SymbolKind::Lemma));
            }
            ItemKind::Axiom => {
                self.add_symbol(sym(&item.name, SymbolKind::Axiom));
            }
            ItemKind::Hint => {
                self.add_symbol(sym(&hint_symbol_name(file, idx), SymbolKind::Hint));
            }
        }
    }

    fn link_item(
        &mut self,
        dev: &Development,
        file: &str,
        idx: usize,
        item: &minicoq_vernac::item::Item,
        line: usize,
    ) {
        match item.kind {
            ItemKind::Import | ItemKind::SortDecl => {}
            ItemKind::Inductive => {
                for member in group_members(dev, &item.text, &item.name) {
                    if let Some(ind) = dev.env.inductives.get(member.as_str()) {
                        let mut refs = BTreeSet::new();
                        for c in &ind.ctors {
                            for s in &c.args {
                                sort_refs(s, &mut refs);
                            }
                        }
                        self.link_refs(&member, file, idx, line, &refs);
                    } else if let Some(PredDef::Inductive(ip)) = dev.env.preds.get(member.as_str())
                    {
                        for (rn, stmt) in &ip.rules {
                            let mut refs = BTreeSet::new();
                            formula_refs(stmt, &mut refs);
                            for s in &ip.arg_sorts {
                                sort_refs(s, &mut refs);
                            }
                            self.link_refs(rn, file, idx, line, &refs);
                        }
                    }
                }
            }
            ItemKind::Definition | ItemKind::Fixpoint => {
                let mut refs = BTreeSet::new();
                if let Some(f) = dev.env.funcs.get(item.name.as_str()) {
                    term_refs(&f.body, &mut refs);
                    sort_refs(&f.ret, &mut refs);
                    for (_, s) in &f.params {
                        sort_refs(s, &mut refs);
                    }
                } else if let Some(PredDef::Defined(dp)) = dev.env.preds.get(item.name.as_str()) {
                    formula_refs(&dp.body, &mut refs);
                    for (_, s) in &dp.params {
                        sort_refs(s, &mut refs);
                    }
                }
                // A recursive body references its own name; self-edges say
                // nothing about reachability, so drop them.
                refs.remove(item.name.as_str());
                self.link_refs(&item.name, file, idx, line, &refs);
            }
            ItemKind::Lemma | ItemKind::Axiom => {
                let mut refs = BTreeSet::new();
                if item.kind == ItemKind::Lemma {
                    if let Some(thm) = dev
                        .theorems
                        .iter()
                        .find(|t| t.file == file && t.item_index == idx)
                    {
                        formula_refs(&thm.stmt, &mut refs);
                    }
                } else if let Some(l) = dev.env.lemma(&item.name) {
                    formula_refs(&l.stmt, &mut refs);
                }
                self.link_refs(&item.name, file, idx, line, &refs);
                // Proof scripts are unelaborated text: resolve their tokens
                // against the symbol table, ignoring the ones that don't
                // resolve (tactic names, hypothesis names, bullets).
                if let Some(proof) = &item.proof {
                    let Some(&from) = self.by_name.get(item.name.as_str()) else {
                        return;
                    };
                    let token_ids: Vec<usize> = ident_tokens(proof)
                        .filter_map(|t| self.by_name.get(t).copied())
                        .collect();
                    for to in token_ids {
                        if to != from {
                            self.add_edge(from, to);
                        }
                    }
                }
            }
            ItemKind::Hint => {
                let hint_name = hint_symbol_name(file, idx);
                let Some((class, names)) = hint_targets(&item.text) else {
                    return;
                };
                let refs: BTreeSet<String> = names.into_iter().collect();
                // `Hint Constructors p` references the predicate; `Hint
                // Resolve l` references the lemma or rule directly. Either
                // way the targets are plain names against the table.
                let _ = class;
                self.link_refs(&hint_name, file, idx, line, &refs);
            }
        }
    }

    /// Adds an edge from `item` to every resolvable name in `refs`,
    /// recording the rest as unresolved references.
    fn link_refs(
        &mut self,
        item: &str,
        file: &str,
        idx: usize,
        line: usize,
        refs: &BTreeSet<String>,
    ) {
        let Some(&from) = self.by_name.get(item) else {
            return;
        };
        for r in refs {
            match self.by_name.get(r.as_str()) {
                Some(&to) => {
                    if to != from {
                        self.add_edge(from, to);
                    }
                }
                None => self.unresolved.push(UnresolvedRef {
                    file: file.to_string(),
                    item: item.to_string(),
                    item_index: idx,
                    line,
                    name: r.clone(),
                }),
            }
        }
    }
}

/// The synthetic symbol name of the hint item at `file`/`idx`.
pub fn hint_symbol_name(file: &str, idx: usize) -> String {
    format!("Hint@{file}#{idx}")
}

/// Inverse of [`hint_symbol_name`]: the `(file, item index)` a synthetic
/// hint symbol name encodes, or `None` for ordinary symbol names.
pub fn parse_hint_symbol_name(name: &str) -> Option<(&str, usize)> {
    let (file, idx) = name.strip_prefix("Hint@")?.rsplit_once('#')?;
    Some((file, idx.parse().ok()?))
}

/// 1-based line number of byte offset `start` in `text`.
fn line_of(text: &str, start: usize) -> usize {
    if text.is_empty() {
        return 0;
    }
    let end = start.min(text.len());
    1 + text.as_bytes()[..end]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

/// The member names an `Inductive` item declares: the head name plus every
/// `with`-chained member. `with` also appears inside `match` expressions,
/// so candidate tokens are filtered against the elaborated environment.
fn group_members(dev: &Development, text: &str, first: &str) -> Vec<String> {
    let mut out = vec![first.to_string()];
    let toks: Vec<&str> = ident_tokens(text).collect();
    for w in toks.windows(2) {
        if w[0] == "with"
            && w[1] != first
            && (dev.env.inductives.contains_key(w[1]) || dev.env.preds.contains_key(w[1]))
            && !out.iter().any(|m| m == w[1])
        {
            out.push(w[1].to_string());
        }
    }
    out
}

/// The identifier tokens of a source fragment.
fn ident_tokens(s: &str) -> impl Iterator<Item = &str> {
    s.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
}
