//! Per-item hygiene: declarations that collide, binders that shadow,
//! hypotheses introduced and then ignored.
//!
//! Where the loader rejects developments that are *wrong* (unparseable
//! items, broken proofs, unknown imports), this pass flags developments
//! that are *untidy*. Each rule fires only when the problem is certain
//! from one item of the loaded development.
//!
//! It is not part of [`crate::analyze_development`]: the unused-hypothesis
//! rule fires on generated corpora, whose analysis is required to be
//! clean, so `corpus_analyze` runs this pass after the analysis, as it
//! runs [`super::cold`].

use std::collections::{BTreeMap, BTreeSet};

use minicoq::formula::Formula;
use minicoq::parse::split_sentences;
use minicoq_vernac::item::ItemKind;
use minicoq_vernac::loader::{Development, TheoremInfo};

use crate::graph::ident_tokens;
use crate::report::{Code, Finding};

/// Runs the three hygiene rules, appending their findings in rule order.
pub fn run(dev: &Development, out: &mut Vec<Finding>) {
    duplicate_names(dev, out);
    shadowed_binders(dev, out);
    unused_hypotheses(dev, out);
}

/// True for items that introduce a top-level name.
fn declares_name(kind: &ItemKind) -> bool {
    matches!(
        kind,
        ItemKind::SortDecl
            | ItemKind::Inductive
            | ItemKind::Definition
            | ItemKind::Fixpoint
            | ItemKind::Lemma
            | ItemKind::Axiom
    )
}

fn duplicate_names(dev: &Development, out: &mut Vec<Finding>) {
    let mut first: BTreeMap<&str, (&str, usize)> = BTreeMap::new();
    for file in &dev.files {
        for (idx, item) in file.items.iter().enumerate() {
            if !declares_name(&item.kind) || item.name.is_empty() {
                continue;
            }
            match first.get(item.name.as_str()) {
                Some((f0, line0)) => out.push(Finding {
                    code: Code::DuplicateName,
                    file: file.name.clone(),
                    item: item.name.clone(),
                    item_index: idx,
                    line: item.line,
                    message: format!("`{}` is already declared at {f0}:{line0}", item.name),
                }),
                None => {
                    first.insert(item.name.as_str(), (file.name.as_str(), item.line));
                }
            }
        }
    }
}

/// A finding about theorem `thm`, on its item's line.
fn theorem_finding(dev: &Development, thm: &TheoremInfo, code: Code, message: String) -> Finding {
    let line = dev
        .file(&thm.file)
        .map_or(0, |f| f.items[thm.item_index].line);
    Finding {
        code,
        file: thm.file.clone(),
        item: thm.name.clone(),
        item_index: thm.item_index,
        line,
        message,
    }
}

/// Walks a formula with the enclosing binder scope, flagging rebinds.
fn walk_shadowing(f: &Formula, scope: &mut Vec<String>, report: &mut impl FnMut(&str)) {
    match f {
        Formula::True | Formula::False | Formula::Eq(..) | Formula::Pred(..) => {}
        Formula::Not(a) => walk_shadowing(a, scope, report),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            walk_shadowing(a, scope, report);
            walk_shadowing(b, scope, report);
        }
        Formula::Forall(v, _, body)
        | Formula::Exists(v, _, body)
        | Formula::ForallSort(v, body) => {
            if scope.iter().any(|s| s == v.as_str()) {
                report(v);
            }
            scope.push(v.to_string());
            walk_shadowing(body, scope, report);
            scope.pop();
        }
        Formula::FMatch(_, arms) => {
            for (pat, arm) in arms {
                let binders = pat.binders();
                for b in binders {
                    if scope.iter().any(|s| s == b.as_str()) {
                        report(b);
                    }
                    scope.push(b.to_string());
                }
                walk_shadowing(arm, scope, report);
                scope.truncate(scope.len() - binders.len());
            }
        }
    }
}

fn shadowed_binders(dev: &Development, out: &mut Vec<Finding>) {
    for thm in &dev.theorems {
        let mut shadowed: BTreeSet<String> = BTreeSet::new();
        walk_shadowing(&thm.stmt, &mut Vec::new(), &mut |v| {
            shadowed.insert(v.to_string());
        });
        for v in shadowed {
            let message = format!("binder `{v}` shadows an enclosing binder");
            out.push(theorem_finding(dev, thm, Code::ShadowedBinder, message));
        }
    }
}

/// Tactics that can discharge a goal using hypotheses or goal structure
/// without naming them: solvers consume the whole context, and unifying
/// tactics (`apply lemma`, `exact`, …) close goals whose statement still
/// mentions the introduced variables. Any occurrence after an `intros`
/// suppresses the unused-hypothesis rule — introducing a premise only to
/// reach the conclusion behind it is legitimate, so the rule fires only
/// when the remainder of the proof is purely structural (`reflexivity`,
/// `simpl`, `split`, …) and could not have needed the hypothesis at all.
const WILDCARD_TACTICS: &[&str] = &[
    "assumption",
    "eassumption",
    "auto",
    "eauto",
    "apply",
    "eapply",
    "exact",
    "pose",
    "econstructor",
    "constructor",
    "inversion",
    "trivial",
    "easy",
    "lia",
    "omega",
    "congruence",
    "contradiction",
    "tauto",
    "intuition",
    "subst",
    "firstorder",
];

fn unused_hypotheses(dev: &Development, out: &mut Vec<Finding>) {
    for thm in &dev.theorems {
        let stmt_names: BTreeSet<&str> = ident_tokens(&thm.statement_text).collect();
        let sentences = split_sentences(&thm.proof_text);
        for (i, sentence) in sentences.iter().enumerate() {
            // Only plain `intros a b c` sentences: intro patterns
            // (`[x|y]`, `(a, b)`) destructure, so their binders are
            // consumed structurally and are out of scope here.
            if sentence.contains(['[', '(', ']', ')']) {
                continue;
            }
            let toks: Vec<&str> = ident_tokens(sentence).collect();
            if toks.first() != Some(&"intros") || toks.len() < 2 {
                continue;
            }
            let rest = &sentences[i + 1..];
            if rest
                .iter()
                .any(|s| ident_tokens(s).any(|t| WILDCARD_TACTICS.contains(&t)))
            {
                continue;
            }
            for name in &toks[1..] {
                // Names that also occur in the statement are the
                // theorem's own binders: they stay part of the goal, so
                // goal-directed tactics use them without naming them.
                if stmt_names.contains(name) {
                    continue;
                }
                if !rest.iter().any(|s| ident_tokens(s).any(|t| t == *name)) {
                    let message = format!("hypothesis `{name}` is introduced but never used");
                    out.push(theorem_finding(dev, thm, Code::UnusedHypothesis, message));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minicoq_vernac::loader::Loader;

    fn load(sources: &[(&str, &str)]) -> Development {
        let mut loader = Loader::new();
        for (name, text) in sources {
            loader.add_source(*name, *text);
        }
        loader.load().expect("test development loads")
    }

    fn hygiene(dev: &Development) -> Vec<Finding> {
        let mut out = Vec::new();
        run(dev, &mut out);
        out
    }

    #[test]
    fn clean_development_has_no_diagnostics() {
        let dev = load(&[(
            "A",
            "Fixpoint double (n : nat) : nat := match n with | 0 => 0 | S p => S (S (double p)) end.\n\
             Lemma double_0 : double 0 = 0.\nProof. reflexivity. Qed.",
        )]);
        assert!(hygiene(&dev).is_empty());
    }

    #[test]
    fn duplicate_names_are_flagged() {
        // The kernel already rejects same-namespace duplicates at load
        // time; the rule additionally catches collisions *across*
        // namespaces (a definition and a lemma sharing a name), which
        // load fine but make prompts and hint references ambiguous.
        let dev = load(&[(
            "A",
            "Definition t : nat := 0.\n\
             Lemma t : 0 = 0.\nProof. reflexivity. Qed.",
        )]);
        let diags = hygiene(&dev);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::DuplicateName && d.item == "t" && d.line == 2),
            "{diags:?}"
        );
    }

    #[test]
    fn shadowed_binders_are_flagged() {
        let dev = load(&[(
            "A",
            "Lemma s : forall n : nat, forall n : nat, n = n.\n\
             Proof. intros a b. reflexivity. Qed.",
        )]);
        let diags = hygiene(&dev);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::ShadowedBinder && d.message.contains("`n`")),
            "{diags:?}"
        );
    }

    #[test]
    fn unused_hypotheses_are_flagged_unless_wildcards_follow() {
        let dev = load(&[(
            "A",
            "Lemma u : forall n : nat, n = n -> 0 = 0.\n\
             Proof. intros n H. reflexivity. Qed.\n\
             Lemma v : forall n : nat, n = n -> 0 = 0.\n\
             Proof. intros n H. trivial. Qed.\n\
             Lemma w : forall n : nat, n = 0 -> n = 0.\n\
             Proof. intros n H. rewrite H. reflexivity. Qed.",
        )]);
        let diags = hygiene(&dev);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::UnusedHypothesis && d.item == "u"),
            "{diags:?}"
        );
        // `trivial` may consume anything, so `v` is not flagged; `w`
        // actually rewrites with `H`, so it is not flagged either. The
        // statement binder `n` is never flagged: it remains part of the
        // goal.
        assert!(!diags.iter().any(|d| d.item == "v"), "{diags:?}");
        assert!(!diags.iter().any(|d| d.item == "w"), "{diags:?}");
        assert!(
            !diags.iter().any(|d| d.message.contains("`n`")),
            "{diags:?}"
        );
    }
}
