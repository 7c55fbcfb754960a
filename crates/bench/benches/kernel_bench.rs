//! Kernel microbenchmarks: reduction, unification, tactic application,
//! `auto`/`eauto` backchaining and full proof replay — the per-tactic
//! costs behind the search's timeout budget.

use criterion::{criterion_group, criterion_main, Criterion};
use minicoq::env::Env;
use minicoq::eval::{normalize_term, EvalMode};
use minicoq::fuel::Fuel;
use minicoq::goal::{Goal, ProofState};
use minicoq::parse::{parse_formula, parse_tactic, split_sentences};
use minicoq::pretty::formula_to_string;
use minicoq::tactic::apply_tactic;
use minicoq::term::Term;
use std::hint::black_box;
use std::sync::Arc;

fn bench_normalize(c: &mut Criterion) {
    let env = Env::with_prelude();
    let t = Term::App("mul".into(), vec![Term::nat(12), Term::nat(12)]);
    c.bench_function("kernel/normalize mul 12 12", |b| {
        b.iter(|| {
            normalize_term(
                &env,
                black_box(&t),
                EvalMode::simpl(),
                &mut Fuel::unlimited(),
            )
            .unwrap()
        })
    });
}

fn bench_tactic_application(c: &mut Criterion) {
    let env = Env::with_prelude();
    let stmt = parse_formula(&env, "forall n m : nat, add n (S m) = S (add n m)").unwrap();
    let st = ProofState::new(stmt);
    let tac = parse_tactic(&env, st.focused(), "induction n; intros; simpl").unwrap();
    c.bench_function("kernel/apply induction-intros-simpl", |b| {
        b.iter(|| apply_tactic(&env, black_box(&st), &tac, &mut Fuel::default()).unwrap())
    });
}

fn bench_lia(c: &mut Criterion) {
    let env = Env::with_prelude();
    let stmt = parse_formula(
        &env,
        "forall a b c : nat, le a b -> le b c -> le a (add c 3)",
    )
    .unwrap();
    let mut st = ProofState::new(stmt);
    let intros = parse_tactic(&env, st.focused(), "intros").unwrap();
    st = apply_tactic(&env, &st, &intros, &mut Fuel::default()).unwrap();
    let lia = parse_tactic(&env, st.focused(), "lia").unwrap();
    c.bench_function("kernel/lia transitivity", |b| {
        b.iter(|| apply_tactic(&env, black_box(&st), &lia, &mut Fuel::default()).unwrap())
    });
}

fn bench_replay(c: &mut Criterion) {
    // Replay one mid-size corpus proof end to end.
    let dev = fscq_corpus::load_corpus(false).unwrap();
    let thm = dev.theorem("firstn_skipn").unwrap().clone();
    let env = dev.env_before(&thm).clone();
    let sentences = split_sentences(&thm.proof_text);
    c.bench_function("kernel/replay firstn_skipn", |b| {
        b.iter(|| {
            let mut st = ProofState::new(thm.stmt.clone());
            for s in &sentences {
                let tac = parse_tactic(&env, st.focused(), s).unwrap();
                st = apply_tactic(&env, &st, &tac, &mut Fuel::unlimited()).unwrap();
            }
            assert!(st.is_complete());
        })
    });
}

/// The `index`th goal left by replaying `prefix` on a corpus theorem, with
/// its environment.
fn corpus_goal(theorem: &str, prefix: &str, index: usize) -> (Arc<Env>, Goal) {
    let dev = fscq_corpus::load_corpus(false).unwrap();
    let thm = dev.theorem(theorem).unwrap().clone();
    let env = dev.env_before(&thm).clone();
    let mut st = ProofState::new(thm.stmt.clone());
    for s in split_sentences(prefix) {
        let tac = parse_tactic(&env, st.focused(), &s).unwrap();
        st = apply_tactic(&env, &st, &tac, &mut Fuel::unlimited()).unwrap();
    }
    let goal = (*st.goals[index]).clone();
    (env, goal)
}

/// `auto`/`eauto` on the cold Table 2 grid's slowest goals for each. All of
/// them fail, as they did in the grid: the search runs to exhaustion. The
/// goal's conclusion is checked so a corpus edit cannot silently swap the goal.
fn bench_backchaining(c: &mut Criterion) {
    let cases = [
        (
            "kernel/eauto incl_app cons case",
            "incl_app",
            "intros A l. induction l; intros; simpl.",
            1,
            "incl (x :: app l m) n",
            "eauto",
        ),
        (
            "kernel/eauto mdisj_munion_intro In-In-False",
            "mdisj_munion_intro",
            "intros. unfold mdisj. intros.",
            0,
            "False",
            "eauto",
        ),
        (
            "kernel/eauto mdisj_munion_l after intros",
            "mdisj_munion_l",
            "intros.",
            0,
            "mdisj m1 m3",
            "eauto",
        ),
        (
            "kernel/auto in_updN after intros",
            "in_updN",
            "intros.",
            0,
            "In x l \\/ x = v",
            "auto",
        ),
        (
            "kernel/auto in_firstn 0 case",
            "in_firstn",
            "induction n; intros.",
            0,
            "In x l",
            "auto",
        ),
    ];
    for (label, theorem, prefix, index, concl, tactic) in cases {
        let (env, goal) = corpus_goal(theorem, prefix, index);
        assert_eq!(formula_to_string(&goal.concl), concl, "{label}");
        let tac = parse_tactic(&env, Some(&goal), tactic).unwrap();
        let st = ProofState::from_goals(vec![goal]);
        c.bench_function(label, |b| {
            b.iter(|| apply_tactic(&env, black_box(&st), &tac, &mut Fuel::default()).is_err())
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_normalize, bench_tactic_application, bench_lia, bench_backchaining, bench_replay
}
criterion_main!(benches);
