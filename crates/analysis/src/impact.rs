//! Change-impact analysis: per-symbol semantic fingerprints, corpus
//! snapshots, and the dirty-cone computation behind `prove --incremental`.
//!
//! A [`Snapshot`] captures two layers of a loaded development:
//!
//! * **Semantic fingerprints** — one canonical, alpha-invariant content
//!   hash per symbol, built from the `minicoq::statehash` canonical keys
//!   (`func_def_key`, `formula_key`, …). Renaming binders, reflowing
//!   whitespace, editing comments, or touching *unrelated* symbols leaves
//!   a symbol's fingerprint unchanged, so diffing two snapshots yields
//!   the changed-symbol set with zero false positives from cosmetic
//!   edits.
//! * **Item text hashes** — one hash per rendered source item. The
//!   verification oracle is prompt-driven: token counts, lemma statement
//!   spelling, and hint proofs all feed the simulated model, so a purely
//!   textual edit (e.g. renaming a bound variable) can still change
//!   outcomes of every theorem whose prompt shows the edited item. This
//!   layer is what makes the dirty cone *sound* for re-verification, not
//!   just explanatory.
//!
//! [`diff_and_cone`] diffs a baseline snapshot against an edited
//! development and computes the **dirty cone**: the set of theorems whose
//! verification could differ, each with an explanatory [`ImpactTrace`].
//! Five channels feed the cone, in trace priority order:
//!
//! 1. *self* — the theorem's own item changed;
//! 2. *graph* — reverse reachability over the dependency graph from the
//!    changed-symbol set (with the shortest dependency path as the
//!    trace);
//! 3. *prompt* — a prompt-visible item (imported file, or same file
//!    above the theorem) changed textually, or declares a symbol whose
//!    definition transitively changed;
//! 4. *hint-db* — a hint sentence (or the definition of its target)
//!    changed; hint databases accumulate in load order across *all*
//!    files, imported or not, so every theorem loaded after the
//!    registration is in the cone. This is why hint-db membership edges
//!    are part of the graph;
//! 5. *collision* — the simulated model hallucinates `apply <lemma>_l`
//!    style variants of visible lemmas; when such a name actually exists
//!    in the environment, its statement matters to theorems that never
//!    reference it.
//!
//! The hint-db and collision channels also fire on **deletions**, which
//! the edited graph alone cannot see: a removed hint registration stops
//! feeding the accumulated databases, and a removed collision lemma
//! stops resolving hallucinated `apply` targets. Removal events are
//! synthesized from the snapshot diff — at the hint's old load position
//! (its synthetic name encodes it), or conservatively dirtying every
//! theorem when the old position is unrecoverable.
//!
//! Theorem additions, removals, and renames reshuffle the deterministic
//! hint/eval splits, so a changed theorem *set* is reported as
//! [`ImpactReport::theorem_set_changed`] and callers fall back to a full
//! re-run.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use minicoq::env::PredDef;
use minicoq::statehash::{
    defined_pred_key, formula_key, func_def_key, ind_pred_key, inductive_key,
};
use minicoq_vernac::item::ItemKind;
use minicoq_vernac::loader::Development;
use serde::{Deserialize, Serialize};

use crate::graph::{hint_symbol_name, parse_hint_symbol_name, DepGraph, SymbolKind};

/// The hallucinated-variant suffixes the simulated oracle appends to
/// visible lemma names when fabricating distractor tactics. A name formed
/// as `<visible lemma><suffix>` that *also* names a real lemma or rule is
/// a collision: its statement can decide an `apply` for theorems that
/// never reference it.
pub const COLLISION_SUFFIXES: [&str; 4] = ["_l", "_r", "2", "_weak"];

/// FNV-1a over a byte string, rendered as the 16-hex-digit fingerprint
/// format every snapshot field uses.
fn fp(bytes: &[u8]) -> String {
    format!("{:016x}", proof_trace::envelope::fnv1a(bytes))
}

/// Collapses whitespace runs to single spaces (hint sentences are hashed
/// as token streams, so reflowing one is cosmetic).
fn normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The key an item hashes under: `<module>#<item index>`.
pub fn item_key(file: &str, idx: usize) -> String {
    format!("{file}#{idx}")
}

fn split_item_key(key: &str) -> Option<(&str, usize)> {
    let (file, idx) = key.rsplit_once('#')?;
    Some((file, idx.parse().ok()?))
}

/// A two-layer content snapshot of a loaded development, diffable against
/// a later snapshot of an edited corpus. Serializes to JSON so a baseline
/// can be captured once and shipped alongside a result journal.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Semantic fingerprint per symbol (alpha-invariant canonical keys).
    pub symbols: BTreeMap<String, String>,
    /// Rendered-text hash per item, keyed `<module>#<index>`.
    pub items: BTreeMap<String, String>,
    /// Module names in load order.
    pub files: Vec<String>,
    /// Theorem names in corpus order (the hint/eval splits hash these).
    pub theorems: Vec<String>,
}

impl Snapshot {
    /// Captures both layers from a loaded development.
    pub fn capture(dev: &Development) -> Snapshot {
        let _sp = proof_trace::span("analysis", "snapshot");
        let env = &dev.env;
        let mut symbols = BTreeMap::new();
        for s in env.sorts.iter() {
            symbols.insert(s.to_string(), fp(b"(sort)"));
        }
        for (s, arity) in env.sort_ctors.iter() {
            symbols.insert(s.to_string(), fp(format!("(sortctor {arity})").as_bytes()));
        }
        for (n, ind) in env.inductives.iter() {
            symbols.insert(n.to_string(), fp(inductive_key(ind).as_bytes()));
            for c in &ind.ctors {
                let mut key = format!("(ctor {n}");
                for a in &c.args {
                    key.push(' ');
                    key.push_str(&a.to_string());
                }
                key.push(')');
                symbols.insert(c.name.to_string(), fp(key.as_bytes()));
            }
        }
        for (n, f) in env.funcs.iter() {
            symbols.insert(n.to_string(), fp(func_def_key(f).as_bytes()));
        }
        for (n, p) in env.preds.iter() {
            match p {
                PredDef::Defined(d) => {
                    symbols.insert(n.to_string(), fp(defined_pred_key(d).as_bytes()));
                }
                PredDef::Inductive(ip) => {
                    symbols.insert(n.to_string(), fp(ind_pred_key(ip).as_bytes()));
                    for (rn, stmt) in &ip.rules {
                        symbols.insert(
                            rn.to_string(),
                            fp(format!("(rule {})", formula_key(stmt)).as_bytes()),
                        );
                    }
                }
            }
        }
        // A lemma's content is its statement (alpha-canonical) plus its
        // human proof script: proofs feed hint prompts and the oracle's
        // script-imitation features, so a proof edit is a real change.
        let proofs: BTreeMap<&str, &str> = dev
            .theorems
            .iter()
            .map(|t| (t.name.as_str(), t.proof_text.as_str()))
            .collect();
        for l in env.lemmas.iter() {
            let proof = proofs.get(l.name.as_str()).copied().unwrap_or("");
            symbols.insert(
                l.name.to_string(),
                fp(format!("(lemma {} {proof})", formula_key(&l.stmt)).as_bytes()),
            );
        }
        for file in &dev.files {
            for (idx, item) in file.items.iter().enumerate() {
                if item.kind == ItemKind::Hint {
                    symbols.insert(
                        hint_symbol_name(&file.name, idx),
                        fp(normalize_ws(&item.text).as_bytes()),
                    );
                }
            }
        }
        let mut items = BTreeMap::new();
        for (file, idx, rendered) in dev.rendered_items() {
            items.insert(item_key(file, idx), fp(rendered.as_bytes()));
        }
        Snapshot {
            symbols,
            items,
            files: dev.files.iter().map(|f| f.name.clone()).collect(),
            theorems: dev.theorems.iter().map(|t| t.name.clone()).collect(),
        }
    }

    /// Serializes the snapshot as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Parses a snapshot back from [`Snapshot::to_json`] output.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        serde_json::from_str(text).map_err(|e| format!("snapshot parse: {e:?}"))
    }
}

/// Why a theorem landed in the dirty cone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ImpactReason {
    /// The theorem's own item changed.
    SelfEdit,
    /// The theorem's statement or proof transitively references a changed
    /// symbol (dependency-graph reverse reachability).
    Graph,
    /// A prompt-visible item changed textually, or declares a symbol
    /// whose definition transitively changed.
    Prompt,
    /// A hint registration (or its target's definition) changed earlier
    /// in load order; `auto`/`eauto` consult the accumulated databases.
    HintDb,
    /// The statement of a hallucination-collision lemma changed.
    Collision,
}

impl ImpactReason {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ImpactReason::SelfEdit => "self",
            ImpactReason::Graph => "graph",
            ImpactReason::Prompt => "prompt",
            ImpactReason::HintDb => "hint-db",
            ImpactReason::Collision => "collision",
        }
    }
}

/// The explanation attached to one dirty theorem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ImpactTrace {
    /// Which channel put the theorem in the cone.
    pub reason: ImpactReason,
    /// The edited symbol or item the trace starts from.
    pub origin: String,
    /// For [`ImpactReason::Graph`]: the shortest dependency path from the
    /// edit to the theorem (edit first, theorem last). Empty otherwise.
    pub path: Vec<String>,
}

impl ImpactTrace {
    /// One-line human rendering.
    pub fn describe(&self) -> String {
        match self.reason {
            ImpactReason::SelfEdit => format!("its own item changed ({})", self.origin),
            ImpactReason::Graph => format!(
                "depends on edited `{}` via {}",
                self.origin,
                self.path.join(" <- ")
            ),
            ImpactReason::Prompt => format!("prompt-visible item changed: {}", self.origin),
            ImpactReason::HintDb => format!(
                "hint registration changed earlier in load order: {}",
                self.origin
            ),
            ImpactReason::Collision => {
                format!("hallucination-collision lemma changed: `{}`", self.origin)
            }
        }
    }
}

/// The full result of diffing a baseline snapshot against an edited
/// development: what changed, and which theorems that dirties.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ImpactReport {
    /// Symbols whose semantic fingerprint differs (present in both).
    pub changed_symbols: Vec<String>,
    /// Symbols only the edited corpus declares.
    pub added_symbols: Vec<String>,
    /// Symbols only the baseline declared.
    pub removed_symbols: Vec<String>,
    /// Items whose rendered text differs (either direction), as
    /// `<module>#<index>` keys.
    pub changed_items: Vec<String>,
    /// True when the theorem name list itself changed; the deterministic
    /// hint/eval splits reshuffle then, so incremental callers must fall
    /// back to a full re-run.
    pub theorem_set_changed: bool,
    /// Dirty theorems with their impact traces, by theorem name.
    pub dirty: BTreeMap<String, ImpactTrace>,
}

impl ImpactReport {
    /// True when the edit was cosmetic end to end: no semantic change, no
    /// textual item change, nothing dirty.
    pub fn is_clean(&self) -> bool {
        self.changed_symbols.is_empty()
            && self.added_symbols.is_empty()
            && self.removed_symbols.is_empty()
            && self.changed_items.is_empty()
            && !self.theorem_set_changed
            && self.dirty.is_empty()
    }

    /// Human-readable impact report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "impact: {} semantic change(s), {} textual item change(s), {} dirty theorem(s)\n",
            self.changed_symbols.len() + self.added_symbols.len() + self.removed_symbols.len(),
            self.changed_items.len(),
            self.dirty.len()
        ));
        if self.theorem_set_changed {
            out.push_str("  theorem set changed: hint/eval splits reshuffle -> full re-run\n");
        }
        for s in &self.changed_symbols {
            out.push_str(&format!("  changed symbol: {s}\n"));
        }
        for s in &self.added_symbols {
            out.push_str(&format!("  added symbol:   {s}\n"));
        }
        for s in &self.removed_symbols {
            out.push_str(&format!("  removed symbol: {s}\n"));
        }
        for i in &self.changed_items {
            out.push_str(&format!("  changed item:   {i}\n"));
        }
        for (thm, trace) in &self.dirty {
            out.push_str(&format!(
                "  dirty [{}] {thm}: {}\n",
                trace.reason.label(),
                trace.describe()
            ));
        }
        out
    }
}

/// Diffs `baseline` against the (already loaded) edited development and
/// computes the dirty cone over its dependency graph. The development and
/// graph must describe the *edited* corpus.
pub fn diff_and_cone(baseline: &Snapshot, dev: &Development, graph: &DepGraph) -> ImpactReport {
    let _sp = proof_trace::span("analysis", "impact");
    let edited = Snapshot::capture(dev);
    let mut report = ImpactReport::default();

    for (name, new_fp) in &edited.symbols {
        match baseline.symbols.get(name) {
            Some(old_fp) if old_fp == new_fp => {}
            Some(_) => report.changed_symbols.push(name.clone()),
            None => report.added_symbols.push(name.clone()),
        }
    }
    for name in baseline.symbols.keys() {
        if !edited.symbols.contains_key(name) {
            report.removed_symbols.push(name.clone());
        }
    }
    let mut changed_items: BTreeSet<String> = BTreeSet::new();
    for (key, new_h) in &edited.items {
        if baseline.items.get(key) != Some(new_h) {
            changed_items.insert(key.clone());
        }
    }
    for key in baseline.items.keys() {
        if !edited.items.contains_key(key) {
            changed_items.insert(key.clone());
        }
    }
    report.changed_items = changed_items.iter().cloned().collect();
    report.theorem_set_changed = baseline.theorems != edited.theorems;

    // Reverse reachability from the changed/added symbol set: `affected`
    // holds, for every symbol whose definition transitively references a
    // change, the BFS parent on a shortest reverse path (so the trace can
    // be reconstructed edit-first).
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); graph.len()];
    for (id, _) in graph.symbols() {
        for to in graph.out(id) {
            rev[to].push(id);
        }
    }
    let mut affected: Vec<Option<usize>> = vec![None; graph.len()];
    let mut queue = VecDeque::new();
    for name in report.changed_symbols.iter().chain(&report.added_symbols) {
        if let Some(id) = graph.lookup(name) {
            if affected[id].is_none() {
                affected[id] = Some(id); // roots are their own parent
                queue.push_back(id);
            }
        }
    }
    while let Some(id) = queue.pop_front() {
        for &from in &rev[id] {
            if affected[from].is_none() {
                affected[from] = Some(id);
                queue.push_back(from);
            }
        }
    }
    let graph_path = |thm_id: usize| -> Vec<String> {
        let mut path = vec![graph.symbol(thm_id).name.clone()];
        let mut cur = thm_id;
        while let Some(parent) = affected[cur] {
            if parent == cur {
                break;
            }
            path.push(graph.symbol(parent).name.clone());
            cur = parent;
        }
        path.reverse(); // edit first, theorem last
        path
    };

    // Per-file dirty item indices: textually changed items plus items
    // declaring an affected symbol (a visible lemma whose *dependencies*
    // changed drags the change into any proof that applies it).
    let file_pos: BTreeMap<&str, usize> = edited
        .files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.as_str(), i))
        .collect();
    let mut dirty_idx: BTreeMap<String, BTreeMap<usize, String>> = BTreeMap::new();
    for key in &changed_items {
        if let Some((file, idx)) = split_item_key(key) {
            dirty_idx
                .entry(file.to_string())
                .or_default()
                .entry(idx)
                .or_insert_with(|| format!("{key} (text)"));
        }
    }
    for (id, sym) in graph.symbols() {
        if affected[id].is_some() && file_pos.contains_key(sym.file.as_str()) {
            dirty_idx
                .entry(sym.file.clone())
                .or_default()
                .entry(sym.item_index)
                .or_insert_with(|| {
                    format!(
                        "{} (via `{}`)",
                        item_key(&sym.file, sym.item_index),
                        sym.name
                    )
                });
        }
    }

    // Hint events: a hint item that changed textually, or whose target's
    // definition is affected, dirties everything after it in load order.
    let mut hint_events: Vec<((usize, usize), String)> = Vec::new();
    for (id, sym) in graph.symbols() {
        if sym.kind != SymbolKind::Hint {
            continue;
        }
        let Some(&fpos) = file_pos.get(sym.file.as_str()) else {
            continue;
        };
        let textual = changed_items.contains(&item_key(&sym.file, sym.item_index));
        if textual || affected[id].is_some() {
            hint_events.push(((fpos, sym.item_index), sym.name.clone()));
        }
    }

    // Collision events: `<lemma><suffix>` names that resolve to a real
    // lemma, rule or axiom, whose definition changed or is affected.
    let mut collision_events: Vec<((usize, usize), String)> = Vec::new();
    for (candidate, cid) in collision_candidates(graph) {
        if affected[cid].is_some() {
            let c = graph.symbol(cid);
            if let Some(&fpos) = file_pos.get(c.file.as_str()) {
                collision_events.push(((fpos, c.item_index), candidate));
            }
        }
    }
    collision_events.sort();
    collision_events.dedup();

    // Deletions: the two scans above walk the *edited* graph, so a
    // removed hint registration or collision lemma generates no event
    // there — yet search behavior changes for every theorem loaded after
    // the old registration point. Synthesize events from the removal
    // records. A removed hint's synthetic name encodes its old position,
    // which is meaningful in edited coordinates only while the module
    // list is unchanged (and the module still exists); otherwise, and
    // for removed collision lemmas (whose old position the snapshot does
    // not record), conservatively dirty every theorem.
    let files_stable = baseline.files == edited.files;
    let mut removed_hint_all: Option<String> = None;
    let mut removed_collision_all: Option<String> = None;
    for name in &report.removed_symbols {
        if let Some((file, idx)) = parse_hint_symbol_name(name) {
            let origin = format!("{name} (removed)");
            match file_pos.get(file).filter(|_| files_stable) {
                Some(&fpos) => hint_events.push(((fpos, idx), origin)),
                None => {
                    removed_hint_all.get_or_insert(origin);
                }
            }
        } else if is_collision_name(name, graph) {
            removed_collision_all.get_or_insert(format!("{name} (removed)"));
        }
    }
    hint_events.sort();

    let first_event_before = |events: &[((usize, usize), String)], pos: (usize, usize)| {
        events
            .iter()
            .find(|(p, _)| *p < pos)
            .map(|(_, n)| n.clone())
    };

    for thm in &dev.theorems {
        let Some(&fpos) = file_pos.get(thm.file.as_str()) else {
            continue;
        };
        let pos = (fpos, thm.item_index);
        let trace = if changed_items.contains(&item_key(&thm.file, thm.item_index)) {
            Some(ImpactTrace {
                reason: ImpactReason::SelfEdit,
                origin: item_key(&thm.file, thm.item_index),
                path: Vec::new(),
            })
        } else if let Some(id) = graph.lookup(&thm.name).filter(|&id| affected[id].is_some()) {
            let path = graph_path(id);
            Some(ImpactTrace {
                reason: ImpactReason::Graph,
                origin: path.first().cloned().unwrap_or_default(),
                path,
            })
        } else if let Some(origin) = visible_dirty_item(dev, &dirty_idx, thm) {
            Some(ImpactTrace {
                reason: ImpactReason::Prompt,
                origin,
                path: Vec::new(),
            })
        } else if let Some(origin) =
            first_event_before(&hint_events, pos).or_else(|| removed_hint_all.clone())
        {
            Some(ImpactTrace {
                reason: ImpactReason::HintDb,
                origin,
                path: Vec::new(),
            })
        } else {
            first_event_before(&collision_events, pos)
                .or_else(|| removed_collision_all.clone())
                .map(|origin| ImpactTrace {
                    reason: ImpactReason::Collision,
                    origin,
                    path: Vec::new(),
                })
        };
        if let Some(trace) = trace {
            report.dirty.insert(thm.name.clone(), trace);
        }
    }
    proof_trace::metrics::counter_add("analysis.impact.dirty", report.dirty.len() as u64);
    report
}

/// The first dirty item visible in `thm`'s prompt: any item of a
/// transitively imported file, or a same-file item above the theorem.
fn visible_dirty_item(
    dev: &Development,
    dirty_idx: &BTreeMap<String, BTreeMap<usize, String>>,
    thm: &minicoq_vernac::TheoremInfo,
) -> Option<String> {
    for file in dev.import_closure(&thm.file) {
        if let Some(map) = dirty_idx.get(&file.name) {
            if let Some((_, origin)) = map.iter().next() {
                return Some(origin.clone());
            }
        }
    }
    if let Some(map) = dirty_idx.get(&thm.file) {
        if let Some((_, origin)) = map.range(..thm.item_index).next() {
            return Some(origin.clone());
        }
    }
    None
}

/// Every `(hallucinated name, symbol id)` collision pair of the graph, in
/// scan order: a lemma's name plus a distractor suffix that resolves to a
/// real lemma, rule, or axiom.
fn collision_candidates(graph: &DepGraph) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (_, sym) in graph.symbols() {
        if sym.kind != SymbolKind::Lemma {
            continue;
        }
        for suffix in COLLISION_SUFFIXES {
            let candidate = format!("{}{suffix}", sym.name);
            if let Some(cid) = graph.lookup(&candidate) {
                let c = graph.symbol(cid);
                if matches!(
                    c.kind,
                    SymbolKind::Lemma | SymbolKind::Rule | SymbolKind::Axiom
                ) {
                    out.push((candidate, cid));
                }
            }
        }
    }
    out
}

/// True when `name` is a hallucinated-variant spelling of a lemma the
/// edited corpus still declares (`<lemma><suffix>`): removing the symbol
/// it named changes which `apply` guesses resolve.
fn is_collision_name(name: &str, graph: &DepGraph) -> bool {
    COLLISION_SUFFIXES.iter().any(|suffix| {
        name.strip_suffix(suffix)
            .and_then(|base| graph.lookup(base))
            .is_some_and(|id| graph.symbol(id).kind == SymbolKind::Lemma)
    })
}

/// The fingerprint of one theorem's *dependency cone*: everything on the
/// corpus side that can influence its verification outcome. Two corpora
/// assigning a theorem equal cone fingerprints are interchangeable for
/// that theorem, so per-theorem cached results key on this (plus the cell
/// configuration) instead of on whole-corpus content.
///
/// The cone covers, in order: the theorem's own statement (alpha-
/// canonical) and proof; the rendered text of every prompt-visible item
/// (which determines prompt text, token counts, truncation, and the
/// visible-lemma list); the semantic fingerprints of every symbol
/// reachable from the visible items, hint targets, and collision lemmas
/// (kernel evaluation of anything the search can touch); the ordered
/// hint-database registrations in scope with their targets' statements
/// (the `auto`/`eauto` channel); and the full theorem name list (the
/// deterministic hint/eval splits hash it).
pub fn cone_fingerprint(dev: &Development, graph: &DepGraph, theorem: &str) -> Option<String> {
    cone_fingerprint_in(&ConeIndex::build(dev, graph), dev, graph, theorem)
}

/// The corpus-wide inputs every cone-fingerprint query shares: the
/// captured snapshot and the collision-candidate list. Both are O(corpus)
/// to build, so callers fingerprinting many theorems of one development
/// (`metrics::incremental`) build the index once and query it per theorem
/// instead of paying a full corpus rescan per call.
pub struct ConeIndex {
    snapshot: Snapshot,
    /// `(hallucinated name, symbol id)` pairs, in graph scan order (the
    /// order is part of the fingerprint material, so it must match what
    /// the inline scan produced).
    collisions: Vec<(String, usize)>,
}

impl ConeIndex {
    /// Captures the snapshot and scans the graph for collision pairs.
    pub fn build(dev: &Development, graph: &DepGraph) -> ConeIndex {
        ConeIndex {
            snapshot: Snapshot::capture(dev),
            collisions: collision_candidates(graph),
        }
    }
}

/// [`cone_fingerprint`] against a prebuilt [`ConeIndex`] (which must
/// describe the same development and graph).
pub fn cone_fingerprint_in(
    ix: &ConeIndex,
    dev: &Development,
    graph: &DepGraph,
    theorem: &str,
) -> Option<String> {
    let thm = dev.theorem(theorem)?;
    let snap = &ix.snapshot;
    let closure = dev.import_closure(&thm.file);
    let closure_names: BTreeSet<&str> = closure.iter().map(|f| f.name.as_str()).collect();
    let mut material = String::new();
    material.push_str("cone:v1;");
    material.push_str(&thm.name);
    material.push(';');
    material.push_str(&formula_key(&thm.stmt));
    material.push(';');
    material.push_str(&thm.proof_text);
    material.push(';');

    // Prompt-visible items, in prompt order.
    let mut roots: Vec<usize> = Vec::new();
    let push_item = |file: &str, idx: usize, material: &mut String| {
        let key = item_key(file, idx);
        material.push_str(&key);
        material.push('=');
        material.push_str(snap.items.get(&key).map(String::as_str).unwrap_or("-"));
        material.push(';');
    };
    for file in &closure {
        for idx in 0..file.items.len() {
            push_item(&file.name, idx, &mut material);
        }
    }
    for idx in 0..thm.item_index {
        push_item(&thm.file, idx, &mut material);
    }
    for (id, sym) in graph.symbols() {
        let visible = closure_names.contains(sym.file.as_str())
            || (sym.file == thm.file && sym.item_index < thm.item_index);
        if visible {
            roots.push(id);
        }
    }
    if let Some(id) = graph.lookup(&thm.name) {
        roots.push(id);
    }

    // Hint registrations in scope, plus their targets as cone roots.
    let env = dev.env_before(thm);
    material.push_str("hints:");
    for (db, targets) in env.hints.iter() {
        material.push_str(db);
        material.push('[');
        for t in targets {
            material.push_str(t);
            material.push('=');
            if let Some(l) = env.lemma(t) {
                material.push_str(&fp(formula_key(&l.stmt).as_bytes()));
            }
            material.push(',');
            if let Some(id) = graph.lookup(t) {
                roots.push(id);
            }
        }
        material.push(']');
    }
    material.push(';');

    // Collision lemmas reachable by hallucinated names.
    material.push_str("collisions:");
    for (candidate, cid) in &ix.collisions {
        material.push_str(candidate);
        material.push('=');
        material.push_str(
            snap.symbols
                .get(candidate)
                .map(String::as_str)
                .unwrap_or("-"),
        );
        material.push(';');
        roots.push(*cid);
    }

    // The semantic forward cone of everything collected above.
    let reach = graph.reachable(&roots);
    material.push_str("cone:");
    for (id, sym) in graph.symbols() {
        if reach[id] {
            material.push_str(&sym.name);
            material.push('=');
            material.push_str(
                snap.symbols
                    .get(&sym.name)
                    .map(String::as_str)
                    .unwrap_or("-"),
            );
            material.push(';');
        }
    }
    material.push_str("split:");
    for name in &snap.theorems {
        material.push_str(name);
        material.push(',');
    }
    Some(fp(material.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_key_roundtrip() {
        assert_eq!(
            split_item_key(&item_key("DirTree", 7)),
            Some(("DirTree", 7))
        );
        assert_eq!(split_item_key("noindex"), None);
    }

    #[test]
    fn hint_symbol_name_roundtrip() {
        assert_eq!(
            parse_hint_symbol_name(&hint_symbol_name("DirTree", 7)),
            Some(("DirTree", 7))
        );
        assert_eq!(parse_hint_symbol_name("dbl_0"), None);
        assert_eq!(parse_hint_symbol_name("Hint@NoIndex"), None);
    }

    #[test]
    fn fingerprints_are_stable_hex() {
        assert_eq!(fp(b"x").len(), 16);
        assert_eq!(fp(b"x"), fp(b"x"));
        assert_ne!(fp(b"x"), fp(b"y"));
    }

    #[test]
    fn whitespace_normalization() {
        assert_eq!(normalize_ws("Hint  Resolve\n  foo"), "Hint Resolve foo");
    }
}
