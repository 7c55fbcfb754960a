//! Deterministic feature extraction for attempt-mined premise ranking.
//!
//! Every (theorem, premise) pair — and, more generally, every (theorem,
//! tactic) pair — maps to a fixed-width vector of small integer slots
//! computed from the environment's symbol table, the undirected reference
//! graph (shared with [`crate::premise`]), and content fingerprints of
//! premise statements (the env-side analogue of the per-symbol semantic
//! fingerprints used by change-impact analysis). Everything read off a
//! lemma statement (references, size, conclusion head, fingerprint) is
//! its [`minicoq::env::Lemma::facts`], computed once per lemma and shared
//! by every snapshot; a search builds only the graph over them and the
//! goal-side slots. The encoding is pinned
//! by golden tests: any change to slot layout, bucketing, or hashing MUST
//! bump [`FEATURES_SCHEMA`], because serialized attempt logs and model
//! artifacts reference the schema id and silently mixing encodings would
//! corrupt training counts.
//!
//! Extraction is total: names that do not resolve to a lemma (section
//! hypotheses, hallucinated identifiers) still get a vector, with the
//! premise slots collapsed to sentinel values. Determinism holds by
//! construction — everything is computed from `BTreeSet` traversals,
//! name-ordered reference lists and FNV hashing; hash maps are only
//! looked up, never iterated.

use std::collections::{BTreeSet, HashMap, VecDeque};

use minicoq::env::{Env, PredDef};
use minicoq::formula::Formula;
use minicoq::refs::{formula_names, sort_names, term_names, ConclusionHead};

/// Version of the feature encoding. Bump on any change to slot layout,
/// value bucketing, or the hash used for symbol-identity slots.
pub const FEATURES_SCHEMA: u32 = 1;

/// Number of feature slots in a vector.
pub const N_SLOTS: usize = 14;

/// A feature vector: one small bucketed value per slot (all < 256).
pub type FeatureVec = [u16; N_SLOTS];

/// Slot indices, named so goldens and ablations can refer to them.
pub mod slot {
    /// Tactic head word (0 = pure premise vector, no tactic context).
    pub const TACTIC_HEAD: usize = 0;
    /// Goal conclusion head (kind tag + hashed symbol identity).
    pub const GOAL_HEAD: usize = 1;
    /// log2 bucket of the goal statement size.
    pub const GOAL_SIZE: usize = 2;
    /// Rule shape of the goal: leading binders + premises, capped.
    pub const GOAL_SHAPE: usize = 3;
    /// Premise resolution: 0 none, 1 env lemma, 2 unresolved name.
    pub const PREMISE_KIND: usize = 4;
    /// Premise conclusion head (same encoding as GOAL_HEAD; 0 = n/a).
    pub const PREMISE_HEAD: usize = 5;
    /// Undirected graph distance goal → premise (1 + capped; 15 = ∞).
    pub const GRAPH_DIST: usize = 6;
    /// log2 bucket of the premise's directed dependency cone size.
    pub const CONE_SIZE: usize = 7;
    /// Number of hint databases containing the premise, capped.
    pub const HINT_DBS: usize = 8;
    /// Best declaration position across hint databases (1 + pos/2; 0 = n/a).
    pub const HINT_POS: usize = 9;
    /// Rewrite orientation vs the premise's conclusion shape.
    pub const REWRITE_ORIENT: usize = 10;
    /// |goal symbols ∩ premise statement symbols|, capped.
    pub const OVERLAP: usize = 11;
    /// log2 bucket of the premise statement size (0 = n/a).
    pub const PREMISE_SIZE: usize = 12;
    /// Content fingerprint byte of the premise statement (0 = n/a).
    pub const PREMISE_FP: usize = 13;
}

/// Tactic head words with stable ids (slot value = 1 + index). Unknown
/// heads map to 255. Append-only: inserting in the middle is a schema
/// change.
const TACTIC_HEADS: [&str; 27] = [
    "intros",
    "intro",
    "induction",
    "destruct",
    "unfold",
    "simpl",
    "reflexivity",
    "lia",
    "auto",
    "eauto",
    "split",
    "constructor",
    "subst",
    "inversion",
    "injection",
    "discriminate",
    "contradiction",
    "exists",
    "f_equal",
    "symmetry",
    "congruence",
    "assumption",
    "left",
    "right",
    "apply",
    "eapply",
    "rewrite",
];

fn log2_bucket(n: usize) -> u16 {
    let mut b = 0u16;
    let mut v = n;
    while v > 1 && b < 15 {
        v >>= 1;
        b += 1;
    }
    b
}

/// Head encoding shared by GOAL_HEAD and PREMISE_HEAD: a small tag for
/// structural heads, a hashed identity bucket for `Eq` sorts (16..64)
/// and predicate symbols (64..256).
fn head_code(head: ConclusionHead) -> u16 {
    match head {
        ConclusionHead::True => 1,
        ConclusionHead::False => 2,
        ConclusionHead::Not => 3,
        ConclusionHead::And => 4,
        ConclusionHead::Or => 5,
        ConclusionHead::Iff => 6,
        ConclusionHead::Match => 7,
        ConclusionHead::Exists => 8,
        ConclusionHead::Eq(sort_hash) => 16 + (sort_hash % 48) as u16,
        ConclusionHead::Pred(name_hash) => 64 + (name_hash % 192) as u16,
        // peel() strips these, but head_code is total anyway.
        ConclusionHead::Binder => 9,
    }
}

/// One name of a [`FeatureCtx`]'s reference graph.
struct Node<'a> {
    name: &'a str,
    /// Directed references: the names this declaration's definition or
    /// statement mentions, in name order.
    refs: Vec<u32>,
    /// Undirected reference adjacency (may repeat a neighbour).
    adj: Vec<u32>,
    /// Number of hint dbs containing the name, and its best position.
    hint: Option<(u16, u16)>,
}

/// Per-snapshot context: a compact reference graph over every declared,
/// referenced or hinted name, with hint-db membership. Built once per
/// search, since each theorem has its own environment snapshot. Lemmas
/// contribute their shared [`minicoq::env::Lemma::facts`], so no lemma
/// statement is walked here; the few inductives, functions and
/// predicates a corpus declares are.
pub struct FeatureCtx<'a> {
    env: &'a Env,
    /// Node id of every name in the graph.
    ids: HashMap<&'a str, u32>,
    nodes: Vec<Node<'a>>,
}

impl<'a> FeatureCtx<'a> {
    /// Builds the reference graph and hint table of `env`.
    pub fn new(env: &'a Env) -> FeatureCtx<'a> {
        let mut cx = FeatureCtx {
            env,
            ids: HashMap::new(),
            nodes: Vec::new(),
        };
        for (n, ind) in env.inductives.iter() {
            let mut r = BTreeSet::new();
            let mut add = |x| {
                r.insert(x);
            };
            for c in &ind.ctors {
                add(c.name.as_str());
                c.args.iter().for_each(|s| sort_names(s, &mut add));
            }
            cx.declare(n, r, false);
        }
        for (n, f) in env.funcs.iter() {
            let mut r = BTreeSet::new();
            let mut add = |x| {
                r.insert(x);
            };
            term_names(&f.body, &mut add);
            sort_names(&f.ret, &mut add);
            f.params.iter().for_each(|(_, s)| sort_names(s, &mut add));
            cx.declare(n, r, false);
        }
        for (n, pd) in env.preds.iter() {
            let mut r = BTreeSet::new();
            match pd {
                PredDef::Defined(dp) => {
                    let mut add = |x| {
                        r.insert(x);
                    };
                    formula_names(&dp.body, &mut add);
                    dp.params.iter().for_each(|(_, s)| sort_names(s, &mut add));
                }
                PredDef::Inductive(ip) => {
                    for (rn, stmt) in &ip.rules {
                        let mut rr = BTreeSet::new();
                        formula_names(stmt, &mut |x| {
                            rr.insert(x);
                        });
                        cx.declare(rn, rr.iter().copied(), true);
                        r.insert(rn.as_str());
                        r.extend(rr);
                    }
                    let mut add = |x| {
                        r.insert(x);
                    };
                    ip.arg_sorts.iter().for_each(|s| sort_names(s, &mut add));
                }
            }
            cx.declare(n, r, false);
        }
        for l in env.lemmas.iter() {
            cx.declare(&l.name, l.facts().refs.iter().map(String::as_str), false);
        }
        for db in env.hints.values() {
            for (pos, h) in db.iter().enumerate() {
                let pos = pos.min(u16::MAX as usize) as u16;
                let id = cx.id(h);
                let (dbs, best) = cx.nodes[id].hint.unwrap_or((0, u16::MAX));
                cx.nodes[id].hint = Some(((dbs + 1).min(15), best.min(pos)));
            }
        }
        cx
    }

    /// The node id of `name`, added without edges when new.
    fn id(&mut self, name: &'a str) -> usize {
        let next = self.nodes.len();
        let id = *self.ids.entry(name).or_insert(next as u32) as usize;
        if id == next {
            self.nodes.push(Node {
                name,
                refs: Vec::new(),
                adj: Vec::new(),
                hint: None,
            });
        }
        id
    }

    /// Records that declaration `name` references `refs` (given in name
    /// order): undirected edges both ways, and its directed references,
    /// replacing earlier ones or, with `extend`, merged into them.
    fn declare(&mut self, name: &'a str, refs: impl IntoIterator<Item = &'a str>, extend: bool) {
        let a = self.id(name);
        let mut out: Vec<u32> = refs.into_iter().map(|r| self.id(r) as u32).collect();
        for &r in &out {
            if r as usize != a {
                self.nodes[a].adj.push(r);
                self.nodes[r as usize].adj.push(a as u32);
            }
        }
        if extend {
            out.extend_from_slice(&self.nodes[a].refs);
            out.sort_by_key(|&i| self.nodes[i as usize].name);
            out.dedup();
        }
        self.nodes[a].refs = out;
    }

    /// Every premise name in scope: lemmas plus hint-db entries.
    pub fn premise_names(&self) -> BTreeSet<String> {
        let mut names: BTreeSet<String> = self.env.lemmas.iter().map(|l| l.name.clone()).collect();
        for db in self.env.hints.values() {
            names.extend(db.iter().map(|h| h.to_string()));
        }
        names
    }

    /// Size of the directed dependency cone rooted at `name`. Neighbours
    /// are visited in name order, and the 64-node cap is checked only when
    /// a node is popped, so the fan-out of the last node expanded can push
    /// the size past 64 and the result depends on the visit order.
    fn cone_size(&self, name: &str) -> usize {
        let Some(&root) = self.ids.get(name) else {
            return 1;
        };
        let mut seen = vec![root];
        let mut queue = VecDeque::from([root]);
        while let Some(n) = queue.pop_front() {
            if seen.len() >= 64 {
                break;
            }
            for &m in &self.nodes[n as usize].refs {
                if !seen.contains(&m) {
                    seen.push(m);
                    queue.push_back(m);
                }
            }
        }
        seen.len()
    }
}

/// Per-theorem context: BFS distances from the goal and the goal-side
/// slots, computed once and shared across all premises of the theorem.
pub struct GoalCtx {
    /// Distance from the goal's symbols by [`FeatureCtx`] node id
    /// (`u32::MAX` = unreachable).
    dist: Vec<u32>,
    /// The goal's symbols, in name order.
    goal_syms: Vec<String>,
    goal_head: u16,
    goal_size: u16,
    goal_shape: u16,
}

impl GoalCtx {
    /// Precomputes the goal-side features and the distance map.
    pub fn new(fcx: &FeatureCtx<'_>, goal: &Formula) -> GoalCtx {
        let mut syms = BTreeSet::new();
        formula_names(goal, &mut |n| {
            syms.insert(n);
        });
        let mut dist = vec![u32::MAX; fcx.nodes.len()];
        let mut queue: VecDeque<u32> = syms
            .iter()
            .filter_map(|s| fcx.ids.get(s))
            .copied()
            .collect();
        queue.iter().for_each(|&i| dist[i as usize] = 0);
        while let Some(n) = queue.pop_front() {
            let d = dist[n as usize] + 1;
            for &m in &fcx.nodes[n as usize].adj {
                if dist[m as usize] == u32::MAX {
                    dist[m as usize] = d;
                    queue.push_back(m);
                }
            }
        }
        let peeled = goal.peel();
        GoalCtx {
            dist,
            goal_syms: syms.into_iter().map(str::to_owned).collect(),
            goal_head: head_code(ConclusionHead::of(peeled.conclusion)),
            goal_size: log2_bucket(goal.size()),
            goal_shape: (peeled.binders.len() + peeled.premises.len()).min(15) as u16,
        }
    }

    /// Shortest undirected reference distance from the goal's symbols to
    /// `name`, or `None` when no path connects them.
    pub fn distance(&self, fcx: &FeatureCtx<'_>, name: &str) -> Option<usize> {
        match fcx.ids.get(name) {
            Some(&i) => Some(self.dist[i as usize])
                .filter(|&d| d != u32::MAX)
                .map(|d| d as usize),
            None => self
                .goal_syms
                .binary_search_by(|s| s.as_str().cmp(name))
                .ok()
                .map(|_| 0),
        }
    }
}

/// The per-theorem vector: goal slots populated, premise slots zero.
pub fn theorem_vector(gcx: &GoalCtx) -> FeatureVec {
    let mut v = [0u16; N_SLOTS];
    v[slot::GOAL_HEAD] = gcx.goal_head;
    v[slot::GOAL_SIZE] = gcx.goal_size;
    v[slot::GOAL_SHAPE] = gcx.goal_shape;
    v
}

/// The per-(theorem, premise) vector. Total: unresolved names get
/// `PREMISE_KIND = 2` with the statement-derived slots zeroed.
pub fn premise_vector(fcx: &FeatureCtx<'_>, gcx: &GoalCtx, name: &str) -> FeatureVec {
    premise_into(fcx, gcx, name, false, theorem_vector(gcx))
}

fn premise_into(
    fcx: &FeatureCtx<'_>,
    gcx: &GoalCtx,
    name: &str,
    backward: bool,
    mut v: FeatureVec,
) -> FeatureVec {
    let lemma = fcx.env.lemma(name);
    v[slot::PREMISE_KIND] = if lemma.is_some() { 1 } else { 2 };
    v[slot::GRAPH_DIST] = match gcx.distance(fcx, name) {
        Some(d) => 1 + d.min(13) as u16,
        None => 15,
    };
    let hint = fcx.ids.get(name).and_then(|&i| fcx.nodes[i as usize].hint);
    if let Some((dbs, pos)) = hint {
        v[slot::HINT_DBS] = dbs;
        v[slot::HINT_POS] = 1 + (pos as usize / 2).min(14) as u16;
    }
    if let Some(lemma) = lemma {
        let facts = lemma.facts();
        v[slot::PREMISE_HEAD] = head_code(facts.head);
        v[slot::CONE_SIZE] = log2_bucket(fcx.cone_size(name));
        let in_goal = |r: &&String| gcx.goal_syms.binary_search(r).is_ok();
        v[slot::OVERLAP] = facts.refs.iter().filter(in_goal).count().min(15) as u16;
        v[slot::PREMISE_SIZE] = log2_bucket(facts.size);
        v[slot::PREMISE_FP] = 1 + (facts.fingerprint % 254) as u16;
        let equational = matches!(facts.head, ConclusionHead::Eq(_) | ConclusionHead::Iff);
        v[slot::REWRITE_ORIENT] = match (v[slot::REWRITE_ORIENT], equational, backward) {
            (0, _, _) => 0, // not a rewrite tactic
            (_, true, false) => 1,
            (_, true, true) => 2,
            (_, false, false) => 3,
            (_, false, true) => 4,
        };
    } else if v[slot::REWRITE_ORIENT] != 0 {
        v[slot::REWRITE_ORIENT] = if backward { 4 } else { 3 };
    }
    v
}

/// Parses a proposed tactic into `(head, premise argument, backward)`.
/// Only `apply`/`eapply`/`rewrite` shapes carry a premise; `apply L in H`
/// reports `L`.
pub fn parse_tactic(tactic: &str) -> (&str, Option<&str>, bool) {
    let mut words = tactic.split_whitespace();
    let head = words.next().unwrap_or("");
    match head {
        "apply" | "eapply" => (head, words.next(), false),
        "rewrite" => match words.next() {
            Some("<-") => (head, words.next(), true),
            other => (head, other, false),
        },
        _ => (head, None, false),
    }
}

/// The premise (lemma argument) named by a tactic, if any.
pub fn premise_of_tactic(tactic: &str) -> Option<&str> {
    parse_tactic(tactic).1
}

/// The per-(theorem, tactic) vector: the premise vector of the tactic's
/// lemma argument (when present) plus the tactic head slot. Total over
/// arbitrary tactic strings.
pub fn tactic_vector(fcx: &FeatureCtx<'_>, gcx: &GoalCtx, tactic: &str) -> FeatureVec {
    let (head, premise, backward) = parse_tactic(tactic);
    let mut v = theorem_vector(gcx);
    v[slot::TACTIC_HEAD] = match TACTIC_HEADS.iter().position(|h| *h == head) {
        Some(i) => 1 + i as u16,
        None => 255,
    };
    if head == "rewrite" {
        // Non-zero marks "rewrite context"; premise_into refines it.
        v[slot::REWRITE_ORIENT] = 3;
    }
    match premise {
        Some(p) => premise_into(fcx, gcx, p, backward, v),
        None => v,
    }
}

/// Stable textual encoding of a vector (two hex digits per slot), used
/// by golden tests and debug output.
pub fn encode(v: &FeatureVec) -> String {
    let mut s = String::with_capacity(N_SLOTS * 2);
    for x in v {
        s.push_str(&format!("{:02x}", (*x).min(255)));
    }
    s
}

/// Feature buckets of a vector: `(slot << 8) | value`, the keys the
/// count-based scorer aggregates over.
pub fn buckets(v: &FeatureVec) -> [u32; N_SLOTS] {
    let mut out = [0u32; N_SLOTS];
    for (i, x) in v.iter().enumerate() {
        out[i] = ((i as u32) << 8) | (*x as u32 & 0xff);
    }
    out
}
