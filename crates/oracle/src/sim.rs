//! The simulated tactic-prediction model.
//!
//! `SimulatedModel` stands in for the paper's off-the-shelf LLMs. It
//! consumes exactly what a real model would get from the prompt — the
//! visible lemma statements, the hint proofs, and the rendered goal — and
//! produces ranked tactic candidates with logprobs. Three mechanisms drive
//! it, mirroring how the paper explains model behaviour:
//!
//! 1. **Pretraining competence**: structural candidates derived from the
//!    goal shape (intro/split/induction/reflexivity/lia/...), always
//!    available — this is why all models do well on short proofs.
//! 2. **Context use**: lemma-directed candidates (`apply L`, `rewrite L`)
//!    are only proposed for lemmas *visible in the prompt*, and survive
//!    with a probability that combines the model's skill with positional
//!    attention (lemmas far from the goal are increasingly overlooked —
//!    "lost in the middle", which is why a 1M window does not beat 128k,
//!    and why the §4.3 minimal prompts rescue failures).
//! 3. **Hint imitation**: tactic head-word statistics from the hint proofs
//!    boost matching candidates — the paper's observation that recurring
//!    proof patterns guide tactic generation.
//!
//! All randomness is deterministic per (model, theorem, query, candidate).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use minicoq::env::{Env, Lemma, PredDef};
use minicoq::eval::fix_unfolds;
use minicoq::formula::Formula;
use minicoq::goal::Goal;
use minicoq::refs::head_feature;
use minicoq::sort::Sort;
use minicoq::tactic::expose_rule;
use minicoq::term::Term;
use minicoq::walk::Node;

use crate::model::{Proposal, QueryCtx, TacticModel};
use crate::profiles::ModelProfile;
use crate::sip::SipHasher13;

/// Global shape parameters of the simulator, shared by all profiles.
/// Exposed for the calibration sweep; the defaults are the calibrated
/// values used by every experiment.
#[derive(Debug, Clone)]
pub struct Tuning {
    /// Multiplier on per-candidate gaussian score noise.
    pub noise_mult: f64,
    /// Sampling inverse temperature = `temp_a - temp_b * noise_eff`.
    pub temp_a: f64,
    /// See `temp_a`.
    pub temp_b: f64,
    /// Distractor score = base + slope·(1 − skill_eff) (+ spread).
    pub distractor_base: f64,
    /// See `distractor_base`.
    pub distractor_slope: f64,
    /// Gate floor for universal basics: keep-prob = floor + (1-floor)·skill.
    pub basic_floor: f64,
    /// Gate floor for context-directed moves.
    pub lemma_floor: f64,
    /// Skill subtracted in the vanilla (no hints) setting (hitting weaker
    /// models relatively harder, as the paper's Table 2 shows).
    pub vanilla_skill: f64,
    /// Noise multiplier applied in the vanilla setting.
    pub vanilla_noise: f64,
}

impl Default for Tuning {
    fn default() -> Tuning {
        Tuning {
            noise_mult: 0.55,
            temp_a: 2.6,
            temp_b: 0.9,
            distractor_base: 0.55,
            distractor_slope: 2.6,
            basic_floor: 0.05,
            lemma_floor: 0.1,
            vanilla_skill: 0.16,
            vanilla_noise: 1.55,
        }
    }
}

/// The simulated model; see the module docs.
#[derive(Debug, Clone)]
pub struct SimulatedModel {
    profile: ModelProfile,
    display_name: String,
    tuning: Tuning,
    cur_skill_eff: f64,
    prep: Option<PrepEntry>,
}

/// Cached [`PromptPrep`] with the key it was built for.
#[derive(Debug, Clone)]
struct PrepEntry {
    /// `(theorem, prompt fingerprint, environment uid)`.
    key: (String, u64, u64),
    prep: PromptPrep,
}

/// Everything the simulator derives from one theorem's prompt, fixed for
/// the whole proof search of that theorem. It is merged from facts
/// computed once per item or lemma: the hint scripts' [`HintFacts`] (once
/// per cell, in the prompt cache) and the kept lemmas'
/// [`MatchFacts`](minicoq::refs::MatchFacts) (once per lemma, in its
/// `Arc<Lemma>`). The theorem's own part is the keep gate's draws and the
/// hash prefix; only the bigram tables grow per query.
#[derive(Debug, Clone)]
struct PromptPrep {
    /// The hash state after `(model name, theorem)`, the prefix of every
    /// draw this theorem's queries make.
    prefix: SipHasher13,
    /// Tactic sentences literally present in the hint proofs (retrieval).
    seen: BTreeSet<Arc<str>>,
    /// Head-word frequency across the hint proofs.
    freq: BTreeMap<&'static str, usize>,
    /// Total head-word count behind `freq`.
    freq_total: usize,
    /// Bigram follow-up tables, keyed by the previous tactic's head word
    /// (`None` at the proof start). Filled lazily: only head words the
    /// search actually reaches get a table.
    bigram: HashMap<Option<&'static str>, (BTreeMap<&'static str, usize>, usize)>,
    /// Kept lemmas, in prompt order.
    kept: Vec<Arc<Lemma>>,
}

/// The simulator's reading of one hint proof: its tactic sentences and
/// their head words. It depends on the script alone, so the prompt cache
/// computes it once per cell and every prompt showing the proof shares it
/// ([`PromptInfo::hint_facts`](crate::prompt::PromptInfo::hint_facts)).
#[derive(Debug, PartialEq, Eq)]
pub struct HintFacts {
    /// The sentences with leading bullets and whitespace trimmed, blank
    /// ones dropped (what retrieval matches proposals against).
    pub sentences: Box<[Arc<str>]>,
    /// The normalized head word of every sentence, in order; `None` where a
    /// sentence has no head word (counted as `other` by the bigram tables,
    /// not at all by the frequency table).
    pub heads: Box<[Option<&'static str>]>,
}

impl HintFacts {
    /// Reads `script`.
    pub fn of(script: &str) -> HintFacts {
        let split = minicoq::parse::split_sentences(script);
        let sentences = split
            .iter()
            .map(|s| {
                s.trim_start_matches(|c: char| matches!(c, '-' | '+' | '*') || c.is_whitespace())
            })
            .filter(|t| !t.is_empty())
            .map(Arc::from)
            .collect();
        let heads = split
            .iter()
            .map(|s| {
                Some(head_word(s))
                    .filter(|hw| !hw.is_empty())
                    .map(norm_head)
            })
            .collect();
        HintFacts { sentences, heads }
    }
}

/// A bigram table's reading of a head word: a sentence without one
/// counts as `other`, as [`norm_head`] reads the empty word.
fn bigram_head(head: Option<&'static str>) -> &'static str {
    head.unwrap_or_else(|| norm_head(""))
}

/// Builds the per-theorem preparation. Free function (not a method) so the
/// caller can assign the result into `self.prep` without a borrow conflict.
fn build_prep(
    display_name: &str,
    profile: &ModelProfile,
    ctx: &QueryCtx<'_>,
    skill_eff: f64,
) -> PromptPrep {
    let mut prefix = SipHasher13::new();
    display_name.hash(&mut prefix);
    ctx.theorem.hash(&mut prefix);
    let mut seen = BTreeSet::new();
    let mut freq: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut freq_total = 0usize;
    for facts in &ctx.prompt.hint_facts {
        seen.extend(facts.sentences.iter().cloned());
        for hw in facts.heads.iter().flatten() {
            *freq.entry(*hw).or_insert(0) += 1;
            freq_total += 1;
        }
    }
    let n = ctx.prompt.visible_lemmas.len().max(1);
    let mut kept = Vec::new();
    // Approximate each lemma's distance (in tokens) from the goal by its
    // position in the prompt.
    for (i, lname) in ctx.prompt.visible_lemmas.iter().enumerate() {
        let Some(&index) = ctx.env.lemma_index.get(lname.as_str()) else {
            continue;
        };
        let dist_frac = (n - 1 - i) as f64 / n as f64; // 0 = nearest.
        let approx_dist = dist_frac * ctx.prompt.tokens as f64;
        let attention = if approx_dist <= profile.effective_context as f64 {
            1.0
        } else {
            (profile.effective_context as f64 / approx_dist).max(0.05)
        };
        let keep_p = skill_eff * attention;
        if unit(hash_from(&prefix, &["keep", lname])) > keep_p {
            continue;
        }
        kept.push(Arc::clone(&ctx.env.lemmas[index]));
    }
    PromptPrep {
        prefix,
        seen,
        freq,
        freq_total,
        bigram: HashMap::new(),
        kept,
    }
}

impl SimulatedModel {
    /// Creates a simulator with the given capability profile.
    pub fn new(profile: ModelProfile) -> SimulatedModel {
        SimulatedModel {
            display_name: profile.name.to_string(),
            profile,
            tuning: Tuning::default(),
            cur_skill_eff: 0.5,
            prep: None,
        }
    }

    /// Overrides the shape parameters (calibration sweeps).
    pub fn with_tuning(mut self, tuning: Tuning) -> SimulatedModel {
        self.tuning = tuning;
        self.prep = None; // Tuning feeds the keep gate; a stale prep would lie.
        self
    }

    /// The profile in use.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }
}

/// The hash of `parts` continuing from `prefix`. SipHash streams, so this
/// equals hashing the prefix's parts and `parts` in one go.
fn hash_from(prefix: &SipHasher13, parts: &[&str]) -> u64 {
    let mut h = prefix.clone();
    for p in parts {
        p.hash(&mut h);
    }
    h.finish()
}

/// Deterministic uniform in [0, 1) from a hash.
fn unit(h: u64) -> f64 {
    ((h >> 11) as f64) / ((1u64 << 53) as f64)
}

/// Deterministic standard gaussian via Box–Muller on two hashed uniforms.
fn gaussian(h: u64) -> f64 {
    let u1 = unit(h).max(1e-12);
    let u2 = unit(h.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Variables occupying the structural-recursion argument of a recursive
/// function application in the formula, each once, in pre-order.
fn struct_rec_vars(env: &Env, f: &Formula) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    Node::Formula(f).for_each(|n| {
        let Node::Term(Term::App(fname, args)) = n else {
            return;
        };
        let def = env.funcs.get(fname).filter(|d| d.recursive);
        if let Some(Term::Var(v)) = def.and_then(|d| d.struct_arg).and_then(|i| args.get(i)) {
            if !out.contains(v) {
                out.push(v.clone());
            }
        }
    });
    out
}

/// Variables that appear as `match` scrutinees in a formula, each once, in
/// pre-order.
fn match_scrutinee_vars(f: &Formula) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    Node::Formula(f).for_each(|n| {
        let (Node::Term(Term::Match(scrut, _)) | Node::Formula(Formula::FMatch(scrut, _))) = n
        else {
            return;
        };
        if let Term::Var(v) = &**scrut {
            if !out.contains(v) {
                out.push(v.clone());
            }
        }
    });
    out
}

/// Normalizes a tactic head word to a small closed vocabulary.
fn norm_head(hw: &str) -> &'static str {
    match hw {
        "intro" | "intros" => "intros",
        "rewrite" => "rewrite",
        "apply" => "apply",
        "eapply" => "eapply",
        "simpl" => "simpl",
        "destruct" => "destruct",
        "induction" => "induction",
        "lia" | "omega" => "lia",
        "auto" => "auto",
        "eauto" => "eauto",
        "reflexivity" => "reflexivity",
        "assumption" => "assumption",
        "inversion" => "inversion",
        "unfold" => "unfold",
        "exists" => "exists",
        "split" => "split",
        "subst" => "subst",
        "exfalso" => "exfalso",
        "pose" => "pose",
        "specialize" => "specialize",
        _ => "other",
    }
}

/// Head word of a tactic sentence (`rewrite IHl` → `rewrite`).
fn head_word(s: &str) -> &str {
    let s = s.trim_start_matches(['-', '+', '*', ' ']);
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

#[derive(Default)]
struct Candidates {
    scored: BTreeMap<String, f64>,
}

impl Candidates {
    fn add(&mut self, tactic: impl Into<String>, score: f64) {
        let t = tactic.into();
        let e = self.scored.entry(t).or_insert(f64::NEG_INFINITY);
        if score > *e {
            *e = score;
        }
    }
}

impl TacticModel for SimulatedModel {
    fn name(&self) -> &str {
        &self.display_name
    }

    fn propose(&mut self, ctx: &QueryCtx<'_>, width: usize) -> Vec<Proposal> {
        let Some(goal) = ctx.state.focused() else {
            return Vec::new();
        };
        // Hint proofs teach the project's tactic vocabulary: without them
        // the model is markedly less reliable at surfacing the relevant
        // move and noisier in ranking (the paper's hint uplift).
        let hinted = !ctx.prompt.hint_scripts.is_empty();
        let skill_eff = if hinted {
            self.profile.skill
        } else {
            (self.profile.skill - self.tuning.vanilla_skill).max(0.05)
        };
        self.cur_skill_eff = skill_eff;
        let noise_eff = self.profile.noise
            * if hinted {
                1.0
            } else {
                self.tuning.vanilla_noise
            };
        // Everything derived from the prompt alone (retrieval set, hint
        // statistics, kept lemmas, hash prefix) is fixed across the
        // hundreds of queries one theorem's search issues; build it once
        // and reuse.
        let fresh = self.prep.as_ref().is_some_and(|p| {
            p.key.0 == ctx.theorem
                && p.key.1 == ctx.prompt.fingerprint
                && p.key.2 == ctx.env.uid.get()
        });
        if !fresh {
            let prep = build_prep(&self.display_name, &self.profile, ctx, skill_eff);
            self.prep = Some(PrepEntry {
                key: (
                    ctx.theorem.to_string(),
                    ctx.prompt.fingerprint,
                    ctx.env.uid.get(),
                ),
                prep,
            });
        }
        // Bigram follow-ups: what head word tends to come after the head
        // word of the last applied tactic, across the hint proofs. Filled
        // lazily per previous-head value.
        let prev_head = ctx.path.last().map(|s| norm_head(head_word(s)));
        {
            let prep = &mut self.prep.as_mut().expect("prep just ensured").prep;
            if let std::collections::hash_map::Entry::Vacant(slot) = prep.bigram.entry(prev_head) {
                let mut bigram: BTreeMap<&'static str, usize> = BTreeMap::new();
                let mut bigram_total = 0usize;
                for facts in &ctx.prompt.hint_facts {
                    match prev_head {
                        Some(ph) => {
                            for w in facts.heads.windows(2) {
                                if bigram_head(w[0]) == ph {
                                    *bigram.entry(bigram_head(w[1])).or_insert(0) += 1;
                                    bigram_total += 1;
                                }
                            }
                        }
                        None => {
                            // At the proof start, imitate how hint proofs open.
                            if let Some(&first) = facts.heads.first() {
                                *bigram.entry(bigram_head(first)).or_insert(0) += 1;
                                bigram_total += 1;
                            }
                        }
                    }
                }
                slot.insert((bigram, bigram_total));
            }
        }
        let prep = &self.prep.as_ref().expect("prep just ensured").prep;
        // A candidate the model simply fails to surface for this theorem:
        // stable per (model, theorem, tactic), which is what turns missing
        // capability into missing coverage rather than per-query jitter.
        // Tactic sentences the model has literally read in the hint proofs
        // are always available to it (retrieval).
        let (seen, prefix) = (&prep.seen, &prep.prefix);
        let gate = |tag: &str, tactic: &str| -> bool {
            if tactic == "intros" {
                return true;
            }
            // Retrieval is itself imperfect for weaker models.
            if seen.contains(tactic) {
                let h = hash_from(prefix, &["ret", tactic]);
                if unit(h) < 0.3 + 0.7 * skill_eff {
                    return true;
                }
            }
            let h = hash_from(prefix, &[tag, tactic]);
            // Universal basics are part of any model's repertoire; lemma-
            // and hypothesis-directed moves require real context use.
            let basic = matches!(
                norm_head(head_word(tactic)),
                "simpl"
                    | "reflexivity"
                    | "assumption"
                    | "auto"
                    | "lia"
                    | "split"
                    | "left"
                    | "destruct"
                    | "induction"
                    | "subst"
                    | "exists"
                    | "inversion"
                    | "contradiction"
                    | "unfold"
            );
            let p = if basic {
                self.tuning.basic_floor + (1.0 - self.tuning.basic_floor) * skill_eff
            } else {
                self.tuning.lemma_floor + (1.0 - self.tuning.lemma_floor) * skill_eff
            };
            unit(h) < p
        };
        let mut cands = Candidates::default();
        self.structural_candidates(ctx.env, goal, &mut cands);
        self.hypothesis_candidates(ctx.env, goal, &mut cands);
        self.lemma_candidates(ctx, goal, &prep.kept, &mut cands);
        self.distractors(ctx, prefix, &mut cands);
        cands.scored.retain(|t, _| gate("g", t));

        // Hint imitation: boost candidates whose head word is frequent in
        // the visible hint proofs.
        let (freq, total) = (&prep.freq, prep.freq_total);
        let (bigram, bigram_total) = prep
            .bigram
            .get(&prev_head)
            .map(|(b, t)| (b, *t))
            .expect("bigram table just ensured");
        let boost = |tactic: &str| -> f64 {
            let hw = norm_head(head_word(tactic));
            let mut b = 0.0;
            if total > 0 {
                let n = freq.get(hw).copied().unwrap_or(0);
                b += 0.35
                    * ((1.0 + n as f64) / (1.0 + total as f64) * 8.0)
                        .ln_1p()
                        .max(0.0);
            }
            if bigram_total > 0 {
                let n = bigram.get(hw).copied().unwrap_or(0);
                b += 0.9 * (n as f64 / bigram_total as f64);
            }
            b
        };

        // Score with deterministic noise, then *sample* `width` completions
        // from the induced distribution, as the paper does with n-sample
        // API calls: duplicates collapse, so a noisy model wastes samples
        // on junk while a confident one concentrates on a few candidates.
        let mut query = prefix.clone();
        ctx.query_index.to_string().hash(&mut query);
        let mut scored: Vec<(f64, String)> = cands
            .scored
            .into_iter()
            .map(|(t, s)| {
                let h = hash_from(&query, &[&t]);
                let noise = gaussian(h) * self.tuning.noise_mult * noise_eff;
                (s + boost(&t) + noise, t)
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        if scored.is_empty() {
            return Vec::new();
        }
        // The sampling temperature is the model's noise channel: confident
        // models concentrate their samples, weak ones spread over the junk
        // tail.
        let inv_temp: f64 = (self.tuning.temp_a - self.tuning.temp_b * noise_eff).max(0.4);
        let max = scored[0].0;
        let weights: Vec<f64> = scored
            .iter()
            .map(|(s, _)| ((s - max) * inv_temp).exp())
            .collect();
        let z: f64 = weights.iter().sum();
        let mut out: Vec<Proposal> = Vec::new();
        for k in 0..width {
            let h = hash_from(&query, &["draw", &k.to_string()]);
            let mut u = unit(h) * z;
            let mut idx = 0usize;
            for (i, w) in weights.iter().enumerate() {
                if u < *w {
                    idx = i;
                    break;
                }
                u -= *w;
                idx = i;
            }
            let (score, tactic) = &scored[idx];
            if out.iter().any(|p| p.tactic == *tactic) {
                continue;
            }
            out.push(Proposal {
                tactic: tactic.clone(),
                logprob: (score - max) * inv_temp - z.ln(),
            });
        }
        out.sort_by(|a, b| {
            b.logprob
                .partial_cmp(&a.logprob)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }
}

impl SimulatedModel {
    fn structural_candidates(&self, env: &Env, goal: &Goal, cands: &mut Candidates) {
        let concl: &Formula = &goal.concl;
        match concl {
            Formula::Forall(..)
            | Formula::Implies(..)
            | Formula::ForallSort(..)
            | Formula::Not(..) => {
                cands.add("intros", 3.0);
                cands.add("intro", 0.6);
                // Induction on the leading datatype-sorted binders, with a
                // boost when one is the structural argument of a recursive
                // function in the statement.
                let peeled = concl.peel();
                let sv = struct_rec_vars(env, concl);
                let mut proposed = 0;
                for (v, s) in &peeled.binders {
                    if proposed >= 2 {
                        break;
                    }
                    if env.sort_inductive(s).is_some() {
                        let boost = if sv.first() == Some(v) { 0.6 } else { 0.0 };
                        let base = if proposed == 0 { 1.6 } else { 1.0 };
                        cands.add(format!("induction {v}"), base + boost);
                        cands.add(format!("induction {v}; intros; simpl"), base - 0.3 + boost);
                        proposed += 1;
                    }
                }
            }
            Formula::Eq(s, _, _) => {
                // Plain definitions in the equation will not compute away:
                // a model hedges reflexivity and reaches for unfold.
                let (_, syms) = head_feature(env, concl);
                let mut opaque = false;
                for f in syms.iter().take(4) {
                    if let Some(def) = env.funcs.get(f.as_str()) {
                        if !def.recursive {
                            opaque = true;
                            cands.add(format!("unfold {f}"), 1.9);
                        }
                    }
                }
                cands.add("reflexivity", if opaque { 1.2 } else { 2.0 });
                cands.add("simpl", 1.1);
                cands.add("f_equal", 0.6);
                cands.add("symmetry", 0.35);
                cands.add("congruence", 0.5);
                if *s == Sort::nat() {
                    cands.add("lia", 1.4);
                }
            }
            Formula::Pred(p, _, args) => {
                match p.as_str() {
                    "le" | "lt" | "ge" | "gt" => {
                        cands.add("lia", 2.0);
                        cands.add("auto", 1.0);
                    }
                    _ => match env.preds.get(p.as_str()) {
                        Some(PredDef::Inductive(_)) => {
                            cands.add("constructor", 1.2);
                            cands.add("econstructor", 0.5);
                            cands.add("auto", 1.1);
                            cands.add("eauto", 0.9);
                        }
                        // `In x (a :: l)` and friends: simpl exposes the
                        // connective underneath.
                        Some(PredDef::Defined(d))
                            if d.recursive && fix_unfolds(env, d.struct_arg, args) =>
                        {
                            cands.add("simpl", 1.8);
                            cands.add("auto", 0.8);
                            cands.add("eauto", 0.7);
                        }
                        _ => {
                            cands.add(format!("unfold {p}"), 1.3);
                            cands.add("auto", 0.7);
                            cands.add("eauto", 0.7);
                            cands.add("simpl", 0.6);
                        }
                    },
                }
            }
            Formula::And(..) | Formula::Iff(..) | Formula::True => {
                cands.add("split", 2.6);
            }
            Formula::Or(..) => {
                cands.add("left", 1.0);
                cands.add("right", 1.0);
                cands.add("auto", 0.6);
            }
            Formula::Exists(_, s, _) => {
                cands.add("eauto", 0.9);
                for (v, vs) in &goal.vars {
                    if vs == s {
                        cands.add(format!("exists {v}"), 1.1);
                    }
                }
                if *s == Sort::nat() {
                    cands.add("exists 0", 0.5);
                    cands.add("exists 1", 0.3);
                }
            }
            Formula::False => {
                cands.add("contradiction", 1.4);
                cands.add("discriminate", 0.9);
                cands.add("lia", 0.7);
            }
            Formula::FMatch(..) => {
                cands.add("simpl", 1.5);
            }
        }
        // Always-available generic moves. A hypothesis that literally is
        // the conclusion makes `assumption` the obvious move.
        if goal.hyps.iter().any(|(_, f)| *f == goal.concl) {
            cands.add("assumption", 3.5);
        } else if !goal.hyps.is_empty() {
            cands.add("assumption", 1.0);
        }
        cands.add("auto", 0.45);
        cands.add("eauto", 0.25);
        cands.add("simpl", 0.4);
        // Induction on the structural argument of a recursive function in
        // the conclusion — the signature move of these proofs.
        let has_ih = goal.hyps.iter().any(|(h, _)| h.starts_with("IH"));
        let struct_vars = struct_rec_vars(env, &goal.concl);
        for v in struct_vars.iter().take(1) {
            if goal.var_sort(v).is_some() && !has_ih {
                cands.add(format!("induction {v}"), 1.9);
                cands.add(format!("induction {v}; intros; simpl"), 1.6);
            }
        }
        // Fallback case analysis on the first inductive-sorted variable the
        // conclusion mentions.
        for (v, s) in &goal.vars {
            if env.sort_inductive(s).is_some() && goal.concl.mentions(v) {
                if !has_ih && !struct_vars.contains(v) {
                    cands.add(format!("induction {v}"), 0.9);
                }
                cands.add(format!("destruct {v}; simpl"), 0.55);
                break;
            }
        }
        // A conclusion stuck on a match over a variable begs for case
        // analysis on that variable.
        for v in match_scrutinee_vars(&goal.concl).into_iter().take(2) {
            if goal.var_sort(&v).is_some() {
                cands.add(format!("destruct {v}; simpl"), 2.6);
                cands.add(format!("destruct {v}"), 1.2);
            }
        }
        // Arithmetic contexts invite lia.
        let arith_hyp = goal.hyps.iter().any(|(_, f)| {
            matches!(f, Formula::Pred(p, _, _) if matches!(p.as_str(), "le" | "lt" | "ge" | "gt"))
                || matches!(f, Formula::Eq(s, _, _) if *s == Sort::nat())
        });
        if arith_hyp {
            cands.add("lia", 1.3);
        }
        // Shape-blind moves a language model tries anyway; the checker
        // rejects most of them (§3's invalid-tactic rule 1).
        cands.add("reflexivity", 0.25);
        cands.add("split", 0.2);
        cands.add("constructor", 0.2);
        cands.add("left", 0.12);
        cands.add("discriminate", 0.12);
        cands.add("subst", 0.2);
        cands.add("contradiction", 0.15);
    }

    fn hypothesis_candidates(&self, env: &Env, goal: &Goal, cands: &mut Candidates) {
        let (gh, _) = head_feature(env, &goal.concl);
        for (h, f) in &goal.hyps {
            // Read the hypothesis as `apply` does: defined predicates
            // expose their rule structure.
            let exposed = expose_rule(env, f);
            let peeled = exposed.peel();
            match peeled.conclusion {
                Formula::Eq(..) => {
                    if h.starts_with("IH") {
                        cands.add(format!("rewrite {h}"), 2.3);
                        cands.add(format!("apply {h}"), 1.4);
                    }
                    if peeled.premises.is_empty() && peeled.binders.is_empty() {
                        // A plain equation: subst / rewrite / injection.
                        if let Formula::Eq(_, a, b) = f {
                            let av = matches!(a, Term::Var(_));
                            let bv = matches!(b, Term::Var(_));
                            if av || bv {
                                cands.add("subst", 1.2);
                            }
                            let ah = minicoq::eval::ctor_head(env, a);
                            let bh = minicoq::eval::ctor_head(env, b);
                            if let (Some(x), Some(y)) = (ah, bh) {
                                if x == y {
                                    cands.add(format!("injection {h}"), 1.2);
                                } else {
                                    cands.add(format!("discriminate {h}"), 3.0);
                                }
                            }
                        }
                    }
                    cands.add(format!("rewrite {h}"), 1.2);
                    cands.add(format!("rewrite <- {h}"), 0.5);
                }
                Formula::False => {
                    cands.add("contradiction", 2.5);
                }
                Formula::Pred(p, _, _)
                    if matches!(env.preds.get(p.as_str()), Some(PredDef::Inductive(_)))
                        && peeled.binders.is_empty()
                        && peeled.premises.is_empty() =>
                {
                    // Inversion on a constructor-headed instance is
                    // informative (it determines the applicable rules).
                    let informative = match peeled.conclusion {
                        Formula::Pred(_, _, args) => args
                            .iter()
                            .any(|a| minicoq::eval::ctor_head(env, a).is_some()),
                        _ => false,
                    };
                    cands.add(
                        format!("inversion {h}"),
                        if informative { 2.3 } else { 1.4 },
                    );
                }
                _ => {}
            }
            match f {
                Formula::And(..) | Formula::Exists(..) | Formula::Or(..) => {
                    let score = if matches!(f, Formula::Or(..)) {
                        1.4
                    } else {
                        1.5
                    };
                    cands.add(format!("destruct {h}"), score);
                }
                _ => {}
            }
            // Apply a hypothesis whose conclusion head matches the goal's.
            let (hh, _) = head_feature(env, peeled.conclusion);
            if gh == hh && (gh.starts_with("pred:") || gh == "eq" || gh == "false") {
                cands.add(format!("apply {h}"), 1.6);
                if !peeled.binders.is_empty() {
                    cands.add(format!("eapply {h}"), 1.2);
                }
            }
            if h.starts_with("IH") && !matches!(peeled.conclusion, Formula::Eq(..)) {
                cands.add(format!("apply {h}"), 1.9);
                cands.add(format!("eapply {h}"), 1.5);
            }
        }
        for (h, _) in goal.hyps.iter().take(3) {
            cands.add(format!("simpl in {h}"), 0.3);
        }
    }

    fn lemma_candidates(
        &self,
        ctx: &QueryCtx<'_>,
        goal: &Goal,
        kept: &[Arc<Lemma>],
        cands: &mut Candidates,
    ) {
        let (ghead, gsyms) = head_feature(ctx.env, &goal.concl);
        // Hypothesis head features, once per query rather than once per
        // (lemma, hypothesis) pair.
        let hyp_heads: Vec<(&str, String)> = goal
            .hyps
            .iter()
            .map(|(hname, hf)| (hname.as_str(), head_feature(ctx.env, hf.conclusion()).0))
            .collect();
        for lemma in kept {
            let lname = &lemma.name;
            let feat = lemma.match_facts(ctx.env);
            let (lhead, lsyms) = &feat.head;
            // Backward application when the conclusions line up.
            if *lhead == ghead && (ghead.starts_with("pred:") || ghead == "eq") {
                let overlap = lsyms.iter().filter(|s| gsyms.contains(s)).count();
                if overlap > 0
                    || (ghead.starts_with("pred:") && lsyms.is_empty() == gsyms.is_empty())
                {
                    let base = 1.7 + 0.15 * overlap as f64;
                    cands.add(format!("apply {lname}"), base);
                    if feat.eapply {
                        cands.add(format!("eapply {lname}"), base - 0.4);
                    }
                }
            }
            // Rewriting with equational lemmas whose left side mentions a
            // function symbol of the goal (nothing to rewrite otherwise).
            if let Some((lh, rh)) = &feat.eq_heads {
                if !gsyms.is_empty() {
                    if lh.iter().any(|s| gsyms.contains(s)) {
                        cands.add(format!("rewrite {lname}"), 1.75);
                    }
                    if rh.iter().any(|s| gsyms.contains(s)) {
                        cands.add(format!("rewrite <- {lname}"), 0.9);
                    }
                }
            }
            // Forward application into a matching hypothesis.
            if let Some(ph) = &feat.first_premise_head {
                for (hname, hh) in &hyp_heads {
                    if ph == hh {
                        cands.add(format!("apply {lname} in {hname}"), 0.8);
                    }
                }
            }
        }
    }

    /// Plausible-but-wrong proposals: a language model suggests lemmas that
    /// do not apply, or hallucinates names; the proof assistant rejects
    /// them. Their share grows as skill falls, which is what starves weak
    /// models' search trees (the paper's dominant "stuck" failures).
    fn distractors(&self, ctx: &QueryCtx<'_>, prefix: &SipHasher13, cands: &mut Candidates) {
        let n = ctx.prompt.visible_lemmas.len();
        if n == 0 {
            return;
        }
        let skill_eff = self.cur_skill_eff;
        let base = self.tuning.distractor_base + (1.0 - skill_eff) * self.tuning.distractor_slope;
        let qtag = format!("d{}", ctx.query_index);
        for k in 0..7u32 {
            let h = hash_from(prefix, &[&qtag, &k.to_string()]);
            let lname = &ctx.prompt.visible_lemmas[(h as usize) % n];
            let score = base + 0.38 * unit(h.rotate_left(17));
            match k % 3 {
                0 => cands.add(format!("apply {lname}"), score),
                1 => cands.add(format!("rewrite {lname}"), score),
                _ => {
                    // A hallucinated variant of a real name.
                    let suffix = ["_l", "_r", "2", "_weak"][(h as usize >> 7) % 4];
                    cands.add(format!("apply {lname}{suffix}"), score);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::{build_prompt, PromptConfig};
    use crate::split::hint_set;
    use minicoq::goal::ProofState;

    fn setup() -> (
        minicoq_vernac::Development,
        std::collections::BTreeSet<String>,
    ) {
        (fscq_corpus::load_corpus(false).unwrap(), Default::default())
    }

    #[test]
    fn proposals_are_deterministic_and_parse() {
        let (dev, _) = setup();
        let hints = hint_set(&dev);
        let thm = dev.theorem("in_app_l").unwrap();
        let env = dev.env_before(thm);
        let prompt = build_prompt(&dev, thm, &hints, &PromptConfig::hints());
        let st = ProofState::new(thm.stmt.clone());
        let mut model = SimulatedModel::new(ModelProfile::gpt4o());
        let ctx = QueryCtx {
            prompt: &prompt,
            state: &st,
            env,
            path: &[],
            theorem: &thm.name,
            query_index: 0,
        };
        let p1 = model.propose(&ctx, 8);
        let p2 = model.propose(&ctx, 8);
        assert_eq!(p1, p2);
        assert!(!p1.is_empty() && p1.len() <= 8);
        // Logprobs are sorted and normalized-ish.
        for w in p1.windows(2) {
            assert!(w[0].logprob >= w[1].logprob);
        }
        // Every proposal parses.
        for p in &p1 {
            let tac = minicoq::parse::parse_tactic(env, st.focused(), &p.tactic);
            assert!(tac.is_ok(), "unparsable proposal {:?}", p.tactic);
        }
    }

    #[test]
    fn stronger_models_surface_more_valid_tactics() {
        // Count proposals the proof assistant actually accepts: the
        // capability knob the search economy runs on.
        let (dev, _) = setup();
        let hints = hint_set(&dev);
        let mut totals = Vec::new();
        for profile in [ModelProfile::gpt4o_mini(), ModelProfile::gpt4o()] {
            let mut model = SimulatedModel::new(profile);
            let mut valid = 0usize;
            for tname in ["in_app_l", "incl_appl", "rev_length", "mul_1_r", "le_0_n"] {
                let thm = dev.theorem(tname).unwrap();
                let env = dev.env_before(thm);
                let prompt = build_prompt(&dev, thm, &hints, &PromptConfig::hints());
                let st = ProofState::new(thm.stmt.clone());
                let ctx = QueryCtx {
                    prompt: &prompt,
                    state: &st,
                    env,
                    path: &[],
                    theorem: &thm.name,
                    query_index: 0,
                };
                for p in model.propose(&ctx, 8) {
                    let ok = minicoq::parse::parse_tactic(env, st.focused(), &p.tactic)
                        .ok()
                        .and_then(|t| {
                            minicoq::tactic::apply_tactic(
                                env,
                                &st,
                                &t,
                                &mut minicoq::fuel::Fuel::default(),
                            )
                            .ok()
                        })
                        .is_some();
                    if ok {
                        valid += 1;
                    }
                }
            }
            totals.push(valid);
        }
        assert!(
            totals[1] >= totals[0],
            "GPT-4o should surface at least as many valid tactics: {totals:?}"
        );
    }
}
