//! The indexed feature path against the String-keyed extraction it
//! replaced.
//!
//! `reference` below is that extraction, kept as a test oracle: per
//! snapshot it walks every declaration into String-keyed reference maps,
//! rebuilds the undirected adjacency, and re-derives every statement-side
//! slot from the statement itself. Over every theorem snapshot of the
//! embedded corpus and of the pinned `fixtures/gen_1k.json` corpus, the
//! indexed path (shared lemma facts, one compact graph per snapshot) must
//! give the same distance map, the same premise vector for every hint,
//! and the same tactic vector for every attempt in
//! `fixtures/attempts_small.jsonl`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use corpus_analysis::features::{premise_vector, slot, tactic_vector, FeatureCtx, GoalCtx};
use fscq_corpus::Corpus;
use minicoq::env::{Env, IndPred, PredDef};
use minicoq::formula::Formula;
use minicoq_vernac::loader::Development;
use proof_trace::attempts::AttemptLog;

mod reference {
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    use corpus_analysis::features::{parse_tactic, slot, FeatureVec, N_SLOTS};
    use corpus_analysis::graph::{formula_refs, sort_refs, term_refs};
    use minicoq::env::{Env, PredDef};
    use minicoq::formula::Formula;
    use proof_trace::envelope::fnv1a;

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

    fn head_code(conclusion: &Formula) -> u16 {
        match conclusion {
            Formula::True => 1,
            Formula::False => 2,
            Formula::Not(_) => 3,
            Formula::And(..) => 4,
            Formula::Or(..) => 5,
            Formula::Iff(..) => 6,
            Formula::FMatch(..) => 7,
            Formula::Exists(..) => 8,
            Formula::Eq(sort, _, _) => 16 + (fnv1a(format!("{sort:?}").as_bytes()) % 48) as u16,
            Formula::Pred(name, _, _) => 64 + (fnv1a(name.as_bytes()) % 192) as u16,
            Formula::Implies(..) | Formula::Forall(..) | Formula::ForallSort(..) => 9,
        }
    }

    /// Undirected reference adjacency over the names declared in `env`.
    pub fn adjacency(env: &Env) -> BTreeMap<String, BTreeSet<String>> {
        let mut adj: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut link = |a: &str, refs: &BTreeSet<String>| {
            for r in refs {
                if r == a {
                    continue;
                }
                adj.entry(a.to_string()).or_default().insert(r.clone());
                adj.entry(r.clone()).or_default().insert(a.to_string());
            }
        };
        for (n, ind) in env.inductives.iter() {
            let mut refs = BTreeSet::new();
            for c in &ind.ctors {
                refs.insert(c.name.to_string());
                for s in &c.args {
                    sort_refs(s, &mut refs);
                }
            }
            link(n, &refs);
        }
        for (n, f) in env.funcs.iter() {
            let mut refs = BTreeSet::new();
            term_refs(&f.body, &mut refs);
            sort_refs(&f.ret, &mut refs);
            for (_, s) in &f.params {
                sort_refs(s, &mut refs);
            }
            link(n, &refs);
        }
        for (n, pd) in env.preds.iter() {
            let mut refs = BTreeSet::new();
            match pd {
                PredDef::Defined(dp) => {
                    formula_refs(&dp.body, &mut refs);
                    for (_, s) in &dp.params {
                        sort_refs(s, &mut refs);
                    }
                }
                PredDef::Inductive(ip) => {
                    for (rn, stmt) in &ip.rules {
                        refs.insert(rn.to_string());
                        let mut rule_refs = BTreeSet::new();
                        formula_refs(stmt, &mut rule_refs);
                        link(rn, &rule_refs);
                        refs.extend(rule_refs);
                    }
                    for s in &ip.arg_sorts {
                        sort_refs(s, &mut refs);
                    }
                }
            }
            link(n, &refs);
        }
        for l in env.lemmas.iter() {
            let mut refs = BTreeSet::new();
            formula_refs(&l.stmt, &mut refs);
            link(&l.name, &refs);
        }
        adj
    }

    /// Shortest undirected distance from the goal's symbols to every name.
    pub fn distances(env: &Env, goal: &Formula) -> BTreeMap<String, usize> {
        let adj = adjacency(env);
        let mut seeds = BTreeSet::new();
        formula_refs(goal, &mut seeds);
        let mut dist: BTreeMap<String, usize> = BTreeMap::new();
        let mut queue: VecDeque<String> = VecDeque::new();
        for s in seeds {
            dist.insert(s.clone(), 0);
            queue.push_back(s);
        }
        while let Some(n) = queue.pop_front() {
            let d = dist[&n];
            if let Some(next) = adj.get(&n) {
                for m in next {
                    if !dist.contains_key(m) {
                        dist.insert(m.clone(), d + 1);
                        queue.push_back(m.clone());
                    }
                }
            }
        }
        dist
    }

    pub struct FeatureCtx<'a> {
        pub refs: BTreeMap<String, BTreeSet<String>>,
        hints: BTreeMap<String, (u16, u16)>,
        lemmas: BTreeMap<&'a str, &'a Formula>,
        env: &'a Env,
    }

    impl<'a> FeatureCtx<'a> {
        pub fn new(env: &'a Env) -> FeatureCtx<'a> {
            let mut refs: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
            for (n, ind) in env.inductives.iter() {
                let mut r = BTreeSet::new();
                for c in &ind.ctors {
                    r.insert(c.name.to_string());
                    for s in &c.args {
                        sort_refs(s, &mut r);
                    }
                }
                refs.insert(n.to_string(), r);
            }
            for (n, f) in env.funcs.iter() {
                let mut r = BTreeSet::new();
                term_refs(&f.body, &mut r);
                sort_refs(&f.ret, &mut r);
                for (_, s) in &f.params {
                    sort_refs(s, &mut r);
                }
                refs.insert(n.to_string(), r);
            }
            for (n, pd) in env.preds.iter() {
                let mut r = BTreeSet::new();
                match pd {
                    PredDef::Defined(dp) => {
                        formula_refs(&dp.body, &mut r);
                        for (_, s) in &dp.params {
                            sort_refs(s, &mut r);
                        }
                    }
                    PredDef::Inductive(ip) => {
                        for (rn, stmt) in &ip.rules {
                            r.insert(rn.to_string());
                            let mut rr = BTreeSet::new();
                            formula_refs(stmt, &mut rr);
                            refs.entry(rn.to_string()).or_default().extend(rr.clone());
                            r.extend(rr);
                        }
                        for s in &ip.arg_sorts {
                            sort_refs(s, &mut r);
                        }
                    }
                }
                refs.insert(n.to_string(), r);
            }
            let mut lemmas: BTreeMap<&str, &Formula> = BTreeMap::new();
            for l in env.lemmas.iter() {
                let mut r = BTreeSet::new();
                formula_refs(&l.stmt, &mut r);
                refs.insert(l.name.to_string(), r);
                lemmas.insert(&l.name, &l.stmt);
            }
            let mut hints: BTreeMap<String, (u16, u16)> = BTreeMap::new();
            for db in env.hints.values() {
                for (pos, h) in db.iter().enumerate() {
                    let e = hints.entry(h.to_string()).or_insert((0, u16::MAX));
                    e.0 = (e.0 + 1).min(15);
                    e.1 = e.1.min(pos.min(u16::MAX as usize) as u16);
                }
            }
            FeatureCtx {
                refs,
                hints,
                lemmas,
                env,
            }
        }

        fn cone_size(&self, name: &str) -> usize {
            let mut seen = BTreeSet::new();
            let mut queue = VecDeque::new();
            seen.insert(name.to_string());
            queue.push_back(name.to_string());
            while let Some(n) = queue.pop_front() {
                if seen.len() >= 64 {
                    break;
                }
                if let Some(next) = self.refs.get(&n) {
                    for m in next {
                        if seen.insert(m.clone()) {
                            queue.push_back(m.clone());
                        }
                    }
                }
            }
            seen.len()
        }
    }

    pub struct GoalCtx {
        pub dist: BTreeMap<String, usize>,
        goal_syms: BTreeSet<String>,
        goal_head: u16,
        goal_size: u16,
        goal_shape: u16,
    }

    impl GoalCtx {
        pub fn new(fcx: &FeatureCtx<'_>, goal: &Formula) -> GoalCtx {
            let mut goal_syms = BTreeSet::new();
            formula_refs(goal, &mut goal_syms);
            let peeled = goal.peel();
            GoalCtx {
                dist: distances(fcx.env, goal),
                goal_syms,
                goal_head: head_code(peeled.conclusion),
                goal_size: log2_bucket(goal.size()),
                goal_shape: (peeled.binders.len() + peeled.premises.len()).min(15) as u16,
            }
        }
    }

    fn theorem_vector(gcx: &GoalCtx) -> FeatureVec {
        let mut v = [0u16; N_SLOTS];
        v[slot::GOAL_HEAD] = gcx.goal_head;
        v[slot::GOAL_SIZE] = gcx.goal_size;
        v[slot::GOAL_SHAPE] = gcx.goal_shape;
        v
    }

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
        let stmt = fcx.lemmas.get(name).copied();
        v[slot::PREMISE_KIND] = if stmt.is_some() { 1 } else { 2 };
        v[slot::GRAPH_DIST] = match gcx.dist.get(name) {
            Some(&d) => 1 + d.min(13) as u16,
            None => 15,
        };
        if let Some(&(dbs, pos)) = fcx.hints.get(name) {
            v[slot::HINT_DBS] = dbs;
            v[slot::HINT_POS] = 1 + (pos as usize / 2).min(14) as u16;
        }
        if let Some(stmt) = stmt {
            let peeled = stmt.peel();
            v[slot::PREMISE_HEAD] = head_code(peeled.conclusion);
            v[slot::CONE_SIZE] = log2_bucket(fcx.cone_size(name));
            let mut syms = BTreeSet::new();
            formula_refs(stmt, &mut syms);
            v[slot::OVERLAP] = gcx.goal_syms.intersection(&syms).count().min(15) as u16;
            v[slot::PREMISE_SIZE] = log2_bucket(stmt.size());
            v[slot::PREMISE_FP] = 1 + (fnv1a(format!("{stmt:?}").as_bytes()) % 254) as u16;
            let equational = matches!(peeled.conclusion, Formula::Eq(..) | Formula::Iff(..));
            v[slot::REWRITE_ORIENT] = match (v[slot::REWRITE_ORIENT], equational, backward) {
                (0, _, _) => 0,
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

    pub fn tactic_vector(fcx: &FeatureCtx<'_>, gcx: &GoalCtx, tactic: &str) -> FeatureVec {
        let (head, premise, backward) = parse_tactic(tactic);
        let mut v = theorem_vector(gcx);
        v[slot::TACTIC_HEAD] = match TACTIC_HEADS.iter().position(|h| *h == head) {
            Some(i) => 1 + i as u16,
            None => 255,
        };
        if head == "rewrite" {
            v[slot::REWRITE_ORIENT] = 3;
        }
        match premise {
            Some(p) => premise_into(fcx, gcx, p, backward, v),
            None => v,
        }
    }
}

/// Checks one snapshot: the distance map over every name either path can
/// know, the premise vector of every hint, and the given tactics.
fn check_snapshot(env: &Env, goal: &Formula, tactics: &[&str], label: &str) -> usize {
    let (ofcx, fcx) = (reference::FeatureCtx::new(env), FeatureCtx::new(env));
    let (ogcx, gcx) = (
        reference::GoalCtx::new(&ofcx, goal),
        GoalCtx::new(&fcx, goal),
    );
    // The indexed graph only holds declared, referenced and hinted names,
    // and answers 0 for a goal symbol it does not hold; all of them are
    // in this universe, so agreeing on it is agreeing on the whole map.
    let mut universe: BTreeSet<&str> = BTreeSet::new();
    let adj = reference::adjacency(env);
    for (n, refs) in adj.iter().chain(&ofcx.refs) {
        universe.insert(n);
        universe.extend(refs.iter().map(String::as_str));
    }
    universe.extend(ogcx.dist.keys().map(String::as_str));
    let hints: BTreeSet<&str> = env.hints.values().flatten().map(|h| &**h).collect();
    universe.extend(&hints);
    for name in &universe {
        assert_eq!(
            gcx.distance(&fcx, name),
            ogcx.dist.get(*name).copied(),
            "{label}: distance to `{name}`"
        );
    }
    for h in &hints {
        assert_eq!(
            premise_vector(&fcx, &gcx, h),
            reference::premise_vector(&ofcx, &ogcx, h),
            "{label}: premise vector of hint `{h}`"
        );
    }
    for t in tactics {
        assert_eq!(
            tactic_vector(&fcx, &gcx, t),
            reference::tactic_vector(&ofcx, &ogcx, t),
            "{label}: tactic vector of `{t}`"
        );
    }
    hints.len()
}

/// Checks every theorem snapshot of `dev`, with the logged tactics of its
/// theorems; returns (snapshots, hint vectors, tactic vectors) checked.
fn check_development(
    dev: &Development,
    tactics: &BTreeMap<String, Vec<String>>,
) -> (usize, usize, usize) {
    let (mut hints, mut tacs) = (0, 0);
    for thm in &dev.theorems {
        let logged: Vec<&str> = tactics
            .get(&thm.name)
            .map(|ts| ts.iter().map(String::as_str).collect())
            .unwrap_or_default();
        hints += check_snapshot(dev.env_before(thm), &thm.stmt, &logged, &thm.name);
        tacs += logged.len();
    }
    (dev.theorems.len(), hints, tacs)
}

fn repo_path(rel: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

#[test]
fn indexed_features_match_the_string_keyed_reference() {
    let mut tactics: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for r in AttemptLog::at(repo_path("fixtures/attempts_small.jsonl")).load() {
        tactics.entry(r.theorem).or_default().push(r.tactic);
    }
    let logged: usize = tactics.values().map(Vec::len).sum();
    assert!(logged > 400, "attempt fixture shrank to {logged} records");

    let embedded = Corpus::load();
    let (snaps, hints, emb_tacs) = check_development(&embedded.dev, &tactics);
    assert!(
        snaps > 250 && hints > 0,
        "{snaps} embedded snapshots, {hints} hints"
    );

    let generated = corpus_gen::generate_pinned(&repo_path("fixtures/gen_1k.json"))
        .expect("pinned corpus rebuilds");
    let gen = generated.development(false).expect("pinned corpus loads");
    let (snaps, hints, gen_tacs) = check_development(&gen, &tactics);
    assert!(
        snaps >= 1000 && hints > 0,
        "{snaps} generated snapshots, {hints} hints"
    );
    assert_eq!(
        emb_tacs + gen_tacs,
        logged,
        "every logged tactic was checked"
    );
}

/// Cases the corpora never reach, each pinned against the reference:
///
/// - `cone_size` checks its 64-node cap on pop, so its result depends on
///   the visit order. `root` references `a` (40 references) and `b` (100
///   references). Visiting `a` first leaves the cone under the cap when
///   `b` is popped, so `b` is expanded too: 143 nodes. Visiting `b` first
///   stops at 103, a smaller bucket. `b` is declared first, so only name
///   order, not declaration order, gives 143.
/// - Two inductive predicates both name a rule `r`; its references are
///   the union of both rules', so the cone of `uses_r` holds 9 nodes.
/// - The goal mentions `zz`, which nothing declares or references; it is
///   still at distance 0.
#[test]
fn edge_cases_match_the_reference() {
    let pred = |name: String| Formula::Pred(name, vec![], vec![]);
    let all = |prefix: &str, n: usize| {
        (0..n).fold(Formula::True, |f, i| {
            Formula::And(Box::new(f), Box::new(pred(format!("{prefix}{i}"))))
        })
    };
    let mut env = Env::empty();
    env.add_lemma("b", all("q", 100)).unwrap();
    env.add_lemma("a", all("p", 40)).unwrap();
    let root = Formula::And(Box::new(pred("a".into())), Box::new(pred("b".into())));
    env.add_lemma("root", root).unwrap();
    for (name, rule) in [("p1", all("s", 6)), ("p2", all("t", 1))] {
        env.declare_pred(PredDef::Inductive(IndPred {
            name: name.into(),
            sort_params: vec![],
            arg_sorts: vec![],
            rules: vec![("r".into(), rule)],
        }))
        .unwrap();
    }
    env.add_lemma("uses_r", pred("r".into())).unwrap();

    let goal = pred("zz".into());
    let (fcx, ofcx) = (FeatureCtx::new(&env), reference::FeatureCtx::new(&env));
    let (gcx, ogcx) = (
        GoalCtx::new(&fcx, &goal),
        reference::GoalCtx::new(&ofcx, &goal),
    );
    let cases = [
        ("root", slot::CONE_SIZE, 7),
        ("uses_r", slot::CONE_SIZE, 3),
        ("zz", slot::GRAPH_DIST, 1),
    ];
    for (name, slot, value) in cases {
        let v = premise_vector(&fcx, &gcx, name);
        assert_eq!(v, reference::premise_vector(&ofcx, &ogcx, name), "{name}");
        assert_eq!(v[slot], value, "{name}: slot {slot}");
    }
}
