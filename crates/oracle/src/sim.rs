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
//!
//! A candidate is a value, a kind plus the names it mentions, that orders
//! as its sentence and hashes as it (SipHash streams its pieces and the
//! `str` terminator), so only the drawn proposals are rendered; what is
//! fixed per theorem (hint sentences, boosts, a lemma index) is kept in
//! its prep. Proposals are bit-identical to scoring rendered strings:
//! `tests/oracle_mechanisms.rs` pins them on the corpus and on a generated
//! corpus, and this module's tests check each candidate's order and hash.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use minicoq::env::{Env, Lemma, PredDef};
use minicoq::eval::fix_unfolds;
use minicoq::formula::Formula;
use minicoq::goal::Goal;
use minicoq::refs::{head_feature, HeadKind};
use minicoq::sort::Sort;
use minicoq::tactic::expose_rule;
use minicoq::term::Term;
use minicoq::walk::Node;
use minicoq::Ident;
use proof_trace::metrics::HotCounter;

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
/// `Arc<Lemma>`). The theorem's own part is the keep gate's draws, the hash
/// prefix and the two indexes; only the boost tables grow per query.
#[derive(Debug, Clone)]
struct PromptPrep {
    /// The hash state after `(model name, theorem)`, the prefix of every
    /// draw this theorem's queries make.
    prefix: SipHasher13,
    /// Tactic sentences literally present in the hint proofs (retrieval),
    /// as (hint proof, sentence) indices into the prompt's hint facts,
    /// filed under their [`fnv`] hash; sorted.
    seen: Vec<(u64, (usize, usize))>,
    /// Head-word counts across the hint proofs, by [`Head`].
    freq: [usize; HEADS],
    /// Total head-word count behind `freq`.
    freq_total: usize,
    /// Head-word bigram counts across the hint proofs: row `h` counts the
    /// head words that follow one headed `h`, row `HEADS` those that open
    /// a proof.
    bigram: [[usize; HEADS]; HEADS + 1],
    /// Each head word's hint boost by the row of `bigram` it follows.
    /// Filled lazily: only head words the search actually reaches get one.
    boosts: [Option<[f64; HEADS]>; HEADS + 1],
    /// Kept lemmas, in prompt order.
    kept: Vec<Arc<Lemma>>,
    /// Indices into `kept`, filed under the [`fnv`] hash of every name in
    /// the lemma's match facts; sorted.
    index: Vec<(u64, usize)>,
    /// Each hypothesis with its reading by [`expose_rule`]. Filled lazily:
    /// a search meets the same few hypotheses query after query.
    rules: Vec<(Formula, Formula)>,
}

/// The simulator's reading of one hint proof, all it reads of the script:
/// its tactic sentences and their head words. It depends on the script
/// alone, so the prompt cache computes it once per cell, in the proof's
/// [`PromptItem`](crate::prompt::PromptItem), and every prompt showing the
/// proof shares it.
#[derive(Debug, PartialEq, Eq)]
pub struct HintFacts {
    /// The sentences with leading bullets and whitespace trimmed, blank
    /// ones dropped (what retrieval matches proposals against).
    pub sentences: Box<[Arc<str>]>,
    /// Each sentence's FNV-1a hash, which the gate's retrieval check files
    /// it under.
    pub(crate) keys: Box<[u64]>,
    /// The normalized head word of every sentence, in order; `None` where a
    /// sentence has no head word (counted as [`Head::Other`] by the bigram
    /// tables, not at all by the frequency table).
    pub heads: Box<[Option<Head>]>,
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
            .collect::<Box<[Arc<str>]>>();
        let keys = sentences.iter().map(|s| fnv(s.bytes())).collect();
        let heads = split
            .iter()
            .map(|s| {
                Some(head_word(s))
                    .filter(|hw| !hw.is_empty())
                    .map(norm_head)
            })
            .collect();
        HintFacts {
            sentences,
            keys,
            heads,
        }
    }
}

/// A bigram table's reading of a head word: a sentence without one
/// counts as `Other`, as [`norm_head`] reads the empty word.
fn bigram_head(head: Option<Head>) -> Head {
    head.unwrap_or(Head::Other)
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
    let mut seen = Vec::new();
    let mut freq = [0; HEADS];
    let mut freq_total = 0usize;
    let mut bigram = [[0; HEADS]; HEADS + 1];
    for (i, facts) in ctx.prompt.hint_facts.iter().enumerate() {
        seen.extend(facts.keys.iter().enumerate().map(|(j, &key)| (key, (i, j))));
        for hw in facts.heads.iter().flatten() {
            freq[*hw as usize] += 1;
            freq_total += 1;
        }
        // At the proof start, imitate how hint proofs open.
        let heads = facts.heads.iter().map(|&hw| bigram_head(hw) as usize);
        if let Some(first) = heads.clone().next() {
            bigram[HEADS][first] += 1;
        }
        for (prev, next) in heads.clone().zip(heads.skip(1)) {
            bigram[prev][next] += 1;
        }
    }
    seen.sort_unstable_by_key(|e| e.0);
    let n = ctx.prompt.visible_lemmas.len().max(1);
    let mut kept = Vec::new();
    // Approximate each lemma's distance (in tokens) from the goal by its
    // position in the prompt.
    for (i, lname) in ctx.prompt.visible_lemmas.iter().enumerate() {
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
        if let Some(&index) = ctx.env.lemma_index.get(&**lname) {
            kept.push(Arc::clone(&ctx.env.lemmas[index]));
        }
    }
    let mut index = Vec::with_capacity(4 * kept.len());
    for (i, lemma) in kept.iter().enumerate() {
        let facts = lemma.match_facts(ctx.env);
        let sides = facts.eq_heads.iter().flat_map(|(l, r)| l.iter().chain(r));
        let names = sides
            .map(Ident::as_str)
            .chain([facts.head.0.as_str()])
            .chain(facts.first_premise_head.as_deref());
        index.extend(names.map(|name| (fnv(name.bytes()), i)));
    }
    index.sort_unstable();
    index.dedup();
    PromptPrep {
        prefix,
        seen,
        freq,
        freq_total,
        bigram,
        boosts: [None; HEADS + 1],
        kept,
        index,
        rules: Vec::new(),
    }
}

impl PromptPrep {
    /// Each head word's hint boost after a tactic headed `prev`: how often
    /// it appears in the hint proofs, and how often it follows `prev` there
    /// (opens a proof, at the start).
    fn boosts(&mut self, prev: Option<Head>) -> [f64; HEADS] {
        let row = prev.map_or(HEADS, |h| h as usize);
        let (freq, total, bigram) = (&self.freq, self.freq_total, &self.bigram[row]);
        *self.boosts[row].get_or_insert_with(|| {
            let bigram_total: usize = bigram.iter().sum();
            std::array::from_fn(|hw| {
                let mut b = 0.0;
                if total > 0 {
                    b += 0.35
                        * ((1.0 + freq[hw] as f64) / (1.0 + total as f64) * 8.0)
                            .ln_1p()
                            .max(0.0);
                }
                if bigram_total > 0 {
                    b += 0.9 * (bigram[hw] as f64 / bigram_total as f64);
                }
                b
            })
        })
    }

    /// Whether the model retrieves `cand` from the hint proofs: it is a
    /// sentence there, and passes its retrieval draw at `retrieve_p`.
    fn retrieves(&self, hints: &[Arc<HintFacts>], cand: Cand<'_>, retrieve_p: f64) -> bool {
        let sentence = |&(i, j): &(usize, usize)| hints[i].sentences[j].bytes();
        !self.seen.is_empty()
            && filed(&self.seen, fnv(cand.bytes())).any(|at| cand.bytes().eq(sentence(at)))
            && {
                let mut h = self.prefix.clone();
                "ret".hash(&mut h);
                cand.hash(&mut h);
                unit(h.finish()) < retrieve_p
            }
    }

    /// Hypothesis `f` as [`expose_rule`] reads it, once read.
    fn rule(&self, f: &Formula) -> Option<&Formula> {
        self.rules
            .iter()
            .find(|(h, _)| h == f)
            .map(|(_, rule)| rule)
    }

    /// The kept lemmas whose match facts may mention the name spelled by
    /// `name`.
    fn lemmas(&self, name: impl Iterator<Item = u8>) -> impl Iterator<Item = &Arc<Lemma>> {
        filed(&self.index, fnv(name)).map(|&i| &self.kept[i])
    }
}

/// FNV-1a, the hash the prep's two indexes file names under: a candidate
/// streams its bytes into it without being rendered, and a lemma name's
/// short hash and a sort beat a map of owned names (see DESIGN.md).
fn fnv(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The values filed under `key` in a list sorted by key.
fn filed<K: Ord, V>(list: &[(K, V)], key: K) -> impl Iterator<Item = &V> {
    let from = list.partition_point(|e| e.0 < key);
    list[from..]
        .iter()
        .take_while(move |e| e.0 == key)
        .map(|e| &e.1)
}

impl SimulatedModel {
    /// Creates a simulator with the given capability profile.
    pub fn new(profile: ModelProfile) -> SimulatedModel {
        SimulatedModel {
            display_name: profile.name.to_string(),
            profile,
            tuning: Tuning::default(),
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
fn struct_rec_vars<'f>(env: &Env, f: &'f Formula) -> Vec<&'f str> {
    let mut out: Vec<&str> = Vec::new();
    Node::Formula(f).for_each(|n| {
        let Node::Term(Term::App(fname, args)) = n else {
            return;
        };
        let def = env.funcs.get(fname).filter(|d| d.recursive);
        if let Some(Term::Var(v)) = def.and_then(|d| d.struct_arg).and_then(|i| args.get(i)) {
            if !out.contains(&v.as_str()) {
                out.push(v);
            }
        }
    });
    out
}

/// Variables that appear as `match` scrutinees in a formula, each once, in
/// pre-order.
fn match_scrutinee_vars(f: &Formula) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    Node::Formula(f).for_each(|n| {
        let (Node::Term(Term::Match(scrut, _)) | Node::Formula(Formula::FMatch(scrut, _))) = n
        else {
            return;
        };
        if let Term::Var(v) = &**scrut {
            if !out.contains(&v.as_str()) {
                out.push(v);
            }
        }
    });
    out
}

/// A tactic head word as the hint statistics read it: the small closed
/// vocabulary every head word is normalized to. Each variant is the head
/// word it is named after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    Intros,
    Rewrite,
    Apply,
    EApply,
    Simpl,
    Destruct,
    Induction,
    Lia,
    Auto,
    EAuto,
    Reflexivity,
    Assumption,
    Inversion,
    Unfold,
    Exists,
    Split,
    Subst,
    Exfalso,
    Pose,
    Specialize,
    /// Every other head word.
    Other,
}

/// The number of [`Head`]s: the length of a per-head table.
const HEADS: usize = Head::Other as usize + 1;

impl Head {
    /// Universal basics are part of any model's repertoire, so the gate
    /// keeps them at `basic_floor`; every other move needs real context use
    /// (`lemma_floor`). `left`, `right`, `contradiction`, `constructor` and
    /// `discriminate` head no basic, so they are gated as context moves.
    fn is_basic(self) -> bool {
        use Head::*;
        matches!(
            self,
            Simpl
                | Reflexivity
                | Assumption
                | Auto
                | Lia
                | Split
                | Destruct
                | Induction
                | Subst
                | Exists
                | Inversion
                | Unfold
        )
    }
}

/// Normalizes a tactic head word to a small closed vocabulary.
fn norm_head(hw: &str) -> Head {
    match hw {
        "intro" | "intros" => Head::Intros,
        "rewrite" => Head::Rewrite,
        "apply" => Head::Apply,
        "eapply" => Head::EApply,
        "simpl" => Head::Simpl,
        "destruct" => Head::Destruct,
        "induction" => Head::Induction,
        "lia" | "omega" => Head::Lia,
        "auto" => Head::Auto,
        "eauto" => Head::EAuto,
        "reflexivity" => Head::Reflexivity,
        "assumption" => Head::Assumption,
        "inversion" => Head::Inversion,
        "unfold" => Head::Unfold,
        "exists" => Head::Exists,
        "split" => Head::Split,
        "subst" => Head::Subst,
        "exfalso" => Head::Exfalso,
        "pose" => Head::Pose,
        "specialize" => Head::Specialize,
        _ => Head::Other,
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

/// A candidate tactic as a value: a fixed sentence, or a tactic word and
/// the names it mentions. It compares and hashes as its sentence does.
#[derive(Debug, Clone, Copy)]
enum Cand<'a> {
    /// A fixed sentence: `intros`, `reflexivity`, `exists 0`.
    Lit(&'static str),
    /// A tactic word with its trailing space, a name and a fixed tail:
    /// `rewrite <- H`, `induction n; intros; simpl`, the hallucinated
    /// `apply L_weak`.
    Named(&'static str, &'a str, &'static str),
    /// `apply L in H`.
    ApplyIn(&'a str, &'a str),
}

impl<'a> Cand<'a> {
    /// The pieces the sentence concatenates.
    fn pieces(self) -> [&'a str; 4] {
        match self {
            Cand::Lit(s) => [s, "", "", ""],
            Cand::Named(word, name, tail) => [word, name, tail, ""],
            Cand::ApplyIn(lemma, hyp) => ["apply ", lemma, " in ", hyp],
        }
    }

    /// The sentence's bytes.
    fn bytes(self) -> impl Iterator<Item = u8> + 'a {
        self.pieces().into_iter().flat_map(str::bytes)
    }

    /// The sentence, built only for a drawn proposal.
    fn render(self) -> String {
        self.pieces().concat()
    }

    /// The sentence's head word: every `Named` word ends in a space.
    fn head(self) -> Head {
        norm_head(head_word(self.pieces()[0]))
    }
}

impl From<&'static str> for Cand<'_> {
    fn from(s: &'static str) -> Self {
        Cand::Lit(s)
    }
}

/// Hashes as `str` hashes the sentence: its bytes, then `0xff`.
impl Hash for Cand<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for p in self.pieces() {
            state.write(p.as_bytes());
        }
        state.write_u8(0xff);
    }
}

impl PartialEq for Cand<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.bytes().eq(other.bytes())
    }
}

impl Eq for Cand<'_> {}

impl PartialOrd for Cand<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cand<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bytes().cmp(other.bytes())
    }
}

/// One query's candidates, each sentence once with its highest score.
struct Candidates<'a> {
    /// The theorem's hash prefix followed by the gate's tag.
    gate: SipHasher13,
    list: Vec<Entry<'a>>,
}

/// A candidate with its base score, its head word, and the hash its gate
/// draw reads (which also tells sentences apart).
struct Entry<'a> {
    cand: Cand<'a>,
    score: f64,
    head: Head,
    gate: u64,
}

impl<'a> Candidates<'a> {
    fn new(prefix: &SipHasher13) -> Candidates<'a> {
        let mut gate = prefix.clone();
        "g".hash(&mut gate);
        Candidates {
            gate,
            list: Vec::with_capacity(64),
        }
    }

    fn add(&mut self, tactic: impl Into<Cand<'a>>, score: f64) {
        let cand = tactic.into();
        let mut h = self.gate.clone();
        cand.hash(&mut h);
        let gate = h.finish();
        match self
            .list
            .iter_mut()
            .find(|e| e.gate == gate && e.cand == cand)
        {
            Some(e) if score > e.score => e.score = score,
            Some(_) => {}
            None => self.list.push(Entry {
                cand,
                score,
                head: cand.head(),
                gate,
            }),
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
        let hinted = !ctx.prompt.hint_facts.is_empty();
        let skill_eff = if hinted {
            self.profile.skill
        } else {
            (self.profile.skill - self.tuning.vanilla_skill).max(0.05)
        };
        let noise_eff = self.profile.noise
            * if hinted {
                1.0
            } else {
                self.tuning.vanilla_noise
            };
        // Everything derived from the prompt alone (hint sentences and
        // statistics, kept lemmas and their index, hash prefix) is
        // fixed across the hundreds of queries one theorem's search
        // issues; build it once and reuse.
        let fresh = self.prep.as_ref().is_some_and(|p| {
            p.key.0 == ctx.theorem
                && p.key.1 == ctx.prompt.fingerprint
                && p.key.2 == ctx.env.uid.get()
        });
        if !fresh {
            let _span = proof_trace::span("oracle.prep", ctx.theorem);
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
        // Hint imitation: boost candidates whose head word is frequent in
        // the visible hint proofs, or follows the last applied tactic's.
        let prev_head = ctx.path.last().map(|s| norm_head(head_word(s)));
        let prep = &mut self.prep.as_mut().expect("prep just ensured").prep;
        let boosts = prep.boosts(prev_head);
        for (_, f) in &goal.hyps {
            if prep.rule(f).is_none() {
                prep.rules.push((f.clone(), expose_rule(ctx.env, f)));
            }
        }
        let prep = &self.prep.as_ref().expect("prep just ensured").prep;
        let (feature, peeled) = (head_feature(ctx.env, &goal.concl), goal.concl.peel());
        let distractor =
            self.tuning.distractor_base + (1.0 - skill_eff) * self.tuning.distractor_slope;
        let mut cands = Candidates::new(&prep.prefix);
        self.structural_candidates(ctx.env, goal, (&feature.1, &peeled.binders), &mut cands);
        self.hypothesis_candidates(ctx.env, goal, feature.0, prep, &mut cands);
        self.lemma_candidates(ctx.env, goal, &feature, prep, &mut cands);
        self.distractors(ctx, &prep.prefix, distractor, &mut cands);
        // A candidate the model simply fails to surface for this theorem:
        // stable per (model, theorem, tactic), which is what turns missing
        // capability into missing coverage rather than per-query jitter.
        // Tactic sentences the model has literally read in the hint proofs
        // are always available to it, though retrieval is itself imperfect
        // for weaker models.
        let keep_p = |head: Head| {
            let t = &self.tuning;
            let floor = if head.is_basic() {
                t.basic_floor
            } else {
                t.lemma_floor
            };
            floor + (1.0 - floor) * skill_eff
        };
        let generated = cands.list.len();
        cands.list.retain(|e| {
            e.cand == Cand::Lit("intros")
                || unit(e.gate) < keep_p(e.head)
                || prep.retrieves(&ctx.prompt.hint_facts, e.cand, 0.3 + 0.7 * skill_eff)
        });
        if proof_trace::enabled() {
            static CANDIDATES: HotCounter = HotCounter::new("oracle.candidates");
            static GATED: HotCounter = HotCounter::new("oracle.candidates_gated");
            CANDIDATES.add(generated as u64);
            GATED.add(cands.list.len() as u64);
        }

        // Score with deterministic noise, then *sample* `width` completions
        // from the induced distribution, as the paper does with n-sample
        // API calls: duplicates collapse, so a noisy model wastes samples
        // on junk while a confident one concentrates on a few candidates.
        let mut query = prep.prefix.clone();
        Ident::numbered("", ctx.query_index.into()).hash(&mut query);
        let mut scored: Vec<(f64, Cand<'_>)> = cands
            .list
            .into_iter()
            .map(|e| {
                let mut h = query.clone();
                e.cand.hash(&mut h);
                let noise = gaussian(h.finish()) * self.tuning.noise_mult * noise_eff;
                (e.score + boosts[e.head as usize] + noise, e.cand)
            })
            .collect();
        // Equal scores order by sentence, so the order is total.
        scored.sort_unstable_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
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
        let mut drawn: Vec<usize> = Vec::new();
        for k in 0..width {
            let h = hash_from(&query, &["draw", &Ident::numbered("", k as u64)]);
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
            if !drawn.contains(&idx) {
                drawn.push(idx);
            }
        }
        let mut out: Vec<Proposal> = drawn
            .into_iter()
            .map(|idx| Proposal {
                tactic: scored[idx].1.render(),
                logprob: (scored[idx].0 - max) * inv_temp - z.ln(),
            })
            .collect();
        out.sort_by(|a, b| {
            b.logprob
                .partial_cmp(&a.logprob)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }
}

impl SimulatedModel {
    fn structural_candidates<'a>(
        &self,
        env: &Env,
        goal: &'a Goal,
        (syms, binders): (&'a [Ident], &'a [(Ident, Sort)]),
        cands: &mut Candidates<'a>,
    ) {
        let concl: &Formula = &goal.concl;
        let struct_vars = struct_rec_vars(env, concl);
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
                let mut proposed = 0;
                for (v, s) in binders {
                    if proposed >= 2 {
                        break;
                    }
                    if env.sort_inductive(s).is_some() {
                        let boost = if struct_vars.first() == Some(&v.as_str()) {
                            0.6
                        } else {
                            0.0
                        };
                        let base = if proposed == 0 { 1.6 } else { 1.0 };
                        cands.add(Cand::Named("induction ", v, ""), base + boost);
                        cands.add(
                            Cand::Named("induction ", v, "; intros; simpl"),
                            base - 0.3 + boost,
                        );
                        proposed += 1;
                    }
                }
            }
            Formula::Eq(s, _, _) => {
                // Plain definitions in the equation will not compute away:
                // a model hedges reflexivity and reaches for unfold.
                let mut opaque = false;
                for f in syms.iter().take(4) {
                    if let Some(def) = env.funcs.get(f.as_str()) {
                        if !def.recursive {
                            opaque = true;
                            cands.add(Cand::Named("unfold ", f, ""), 1.9);
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
                            cands.add(Cand::Named("unfold ", p, ""), 1.3);
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
                        cands.add(Cand::Named("exists ", v, ""), 1.1);
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
        for &v in struct_vars.iter().take(1) {
            if goal.var_sort(v).is_some() && !has_ih {
                cands.add(Cand::Named("induction ", v, ""), 1.9);
                cands.add(Cand::Named("induction ", v, "; intros; simpl"), 1.6);
            }
        }
        // Fallback case analysis on the first inductive-sorted variable the
        // conclusion mentions.
        for (v, s) in &goal.vars {
            if env.sort_inductive(s).is_some() && goal.concl.mentions(v) {
                if !has_ih && !struct_vars.contains(&v.as_str()) {
                    cands.add(Cand::Named("induction ", v, ""), 0.9);
                }
                cands.add(Cand::Named("destruct ", v, "; simpl"), 0.55);
                break;
            }
        }
        // A conclusion stuck on a match over a variable begs for case
        // analysis on that variable.
        for v in match_scrutinee_vars(concl).into_iter().take(2) {
            if goal.var_sort(v).is_some() {
                cands.add(Cand::Named("destruct ", v, "; simpl"), 2.6);
                cands.add(Cand::Named("destruct ", v, ""), 1.2);
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

    fn hypothesis_candidates<'a>(
        &self,
        env: &Env,
        goal: &'a Goal,
        gh: HeadKind<'_>,
        prep: &PromptPrep,
        cands: &mut Candidates<'a>,
    ) {
        for (h, f) in &goal.hyps {
            // Read the hypothesis as `apply` does: defined predicates
            // expose their rule structure.
            let peeled = prep.rule(f).expect("read before the query").peel();
            match peeled.conclusion {
                Formula::Eq(..) => {
                    if h.starts_with("IH") {
                        cands.add(Cand::Named("rewrite ", h, ""), 2.3);
                        cands.add(Cand::Named("apply ", h, ""), 1.4);
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
                                    cands.add(Cand::Named("injection ", h, ""), 1.2);
                                } else {
                                    cands.add(Cand::Named("discriminate ", h, ""), 3.0);
                                }
                            }
                        }
                    }
                    cands.add(Cand::Named("rewrite ", h, ""), 1.2);
                    cands.add(Cand::Named("rewrite <- ", h, ""), 0.5);
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
                        Cand::Named("inversion ", h, ""),
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
                    cands.add(Cand::Named("destruct ", h, ""), score);
                }
                _ => {}
            }
            // Apply a hypothesis whose conclusion head matches the goal's.
            let hh = HeadKind::of(peeled.conclusion);
            if gh == hh && matches!(gh, HeadKind::Pred(_) | HeadKind::Eq | HeadKind::False) {
                cands.add(Cand::Named("apply ", h, ""), 1.6);
                if !peeled.binders.is_empty() {
                    cands.add(Cand::Named("eapply ", h, ""), 1.2);
                }
            }
            if h.starts_with("IH") && !matches!(peeled.conclusion, Formula::Eq(..)) {
                cands.add(Cand::Named("apply ", h, ""), 1.9);
                cands.add(Cand::Named("eapply ", h, ""), 1.5);
            }
        }
        for (h, _) in goal.hyps.iter().take(3) {
            cands.add(Cand::Named("simpl in ", h, ""), 0.3);
        }
    }
    fn lemma_candidates<'a>(
        &self,
        env: &Env,
        goal: &'a Goal,
        &(ghead, ref gsyms): &(HeadKind<'_>, Vec<Ident>),
        prep: &'a PromptPrep,
        cands: &mut Candidates<'a>,
    ) {
        // Backward application when the conclusions line up.
        if matches!(ghead, HeadKind::Pred(_) | HeadKind::Eq) {
            for lemma in prep.lemmas(ghead.bytes()) {
                let feat = lemma.match_facts(env);
                let (lhead, lsyms) = &feat.head;
                if !ghead.is(lhead) {
                    continue;
                }
                let overlap = lsyms.iter().filter(|s| gsyms.contains(s)).count();
                if overlap > 0
                    || (matches!(ghead, HeadKind::Pred(_)) && lsyms.is_empty() == gsyms.is_empty())
                {
                    let base = 1.7 + 0.15 * overlap as f64;
                    cands.add(Cand::Named("apply ", &lemma.name, ""), base);
                    if feat.eapply {
                        cands.add(Cand::Named("eapply ", &lemma.name, ""), base - 0.4);
                    }
                }
            }
        }
        // Rewriting with equational lemmas whose left side mentions a
        // function symbol of the goal (nothing to rewrite otherwise).
        for s in gsyms {
            for lemma in prep.lemmas(s.bytes()) {
                let Some((lh, rh)) = &lemma.match_facts(env).eq_heads else {
                    continue;
                };
                if lh.contains(s) {
                    cands.add(Cand::Named("rewrite ", &lemma.name, ""), 1.75);
                }
                if rh.contains(s) {
                    cands.add(Cand::Named("rewrite <- ", &lemma.name, ""), 0.9);
                }
            }
        }
        // Forward application into a matching hypothesis.
        for (hname, hf) in &goal.hyps {
            let hh = HeadKind::of(hf.conclusion());
            for lemma in prep.lemmas(hh.bytes()) {
                let first = lemma.match_facts(env).first_premise_head.as_deref();
                if first.is_some_and(|k| hh.is(k)) {
                    cands.add(Cand::ApplyIn(&lemma.name, hname), 0.8);
                }
            }
        }
    }

    /// Plausible-but-wrong proposals: a language model suggests lemmas that
    /// do not apply, or hallucinates names; the proof assistant rejects
    /// them. Their share grows as skill falls, which is what starves weak
    /// models' search trees (the paper's dominant "stuck" failures).
    fn distractors<'a>(
        &self,
        ctx: &QueryCtx<'a>,
        prefix: &SipHasher13,
        base: f64,
        cands: &mut Candidates<'a>,
    ) {
        let n = ctx.prompt.visible_lemmas.len();
        if n == 0 {
            return;
        }
        let qtag = Ident::numbered("d", ctx.query_index.into());
        for k in 0..7u32 {
            let h = hash_from(prefix, &[&qtag, &Ident::numbered("", k.into())]);
            let lname = &ctx.prompt.visible_lemmas[(h as usize) % n];
            let score = base + 0.38 * unit(h.rotate_left(17));
            match k % 3 {
                0 => cands.add(Cand::Named("apply ", lname, ""), score),
                1 => cands.add(Cand::Named("rewrite ", lname, ""), score),
                _ => {
                    // A hallucinated variant of a real name.
                    let suffix = ["_l", "_r", "2", "_weak"][(h as usize >> 7) % 4];
                    cands.add(Cand::Named("apply ", lname, suffix), score);
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

    /// `cand` with its names copied out of the query that made it.
    fn owned(cand: Cand<'_>) -> Cand<'static> {
        let own = |s: &str| &*Box::leak(Box::<str>::from(s));
        match cand {
            Cand::Lit(s) => Cand::Lit(s),
            Cand::Named(word, name, tail) => Cand::Named(word, own(name), tail),
            Cand::ApplyIn(lemma, hyp) => Cand::ApplyIn(own(lemma), own(hyp)),
        }
    }

    /// Every candidate the simulator generates over the sample
    /// `tests/oracle_mechanisms.rs` pins its proposal digest on: twelve
    /// theorems, queries 0..4 along each human proof, vanilla and hint
    /// prompts, three models.
    fn sample_candidates() -> Vec<Cand<'static>> {
        let (dev, _) = setup();
        let hints = hint_set(&dev);
        let step = dev.theorems.len() / 12;
        let mut out = Vec::new();
        for profile in [
            ModelProfile::gpt4o_mini(),
            ModelProfile::gpt4o(),
            ModelProfile::gemini_pro_128k(),
        ] {
            for base in [PromptConfig::vanilla(), PromptConfig::hints()] {
                let cfg = PromptConfig {
                    window: Some(profile.window),
                    ..base
                };
                let mut model = SimulatedModel::new(profile.clone());
                for thm in dev.theorems.iter().step_by(step).take(12) {
                    let env = dev.env_before(thm);
                    let prompt = build_prompt(&dev, thm, &hints, &cfg);
                    let sentences = minicoq::parse::split_sentences(&thm.proof_text);
                    let mut state = ProofState::new(thm.stmt.clone());
                    for q in 0..4 {
                        let ctx = QueryCtx {
                            prompt: &prompt,
                            state: &state,
                            env,
                            path: &sentences[..q],
                            theorem: &thm.name,
                            query_index: q as u32,
                        };
                        model.propose(&ctx, 8);
                        let goal = state.focused().expect("a query has a goal");
                        let prep = &model.prep.as_ref().expect("propose built it").prep;
                        let (feature, peeled) = (head_feature(env, &goal.concl), goal.concl.peel());
                        let mut cands = Candidates::new(&prep.prefix);
                        let view = (&feature.1[..], &peeled.binders[..]);
                        model.structural_candidates(env, goal, view, &mut cands);
                        model.hypothesis_candidates(env, goal, feature.0, prep, &mut cands);
                        model.lemma_candidates(env, goal, &feature, prep, &mut cands);
                        model.distractors(&ctx, &prep.prefix, 1.0, &mut cands);
                        out.extend(cands.list.iter().map(|e| owned(e.cand)));
                        let next = sentences.get(q).and_then(|s| {
                            let tac = minicoq::parse::parse_tactic(env, Some(goal), s).ok()?;
                            let fuel = &mut minicoq::fuel::Fuel::default();
                            minicoq::tactic::apply_tactic(env, &state, &tac, fuel).ok()
                        });
                        match next {
                            Some(s) if s.focused().is_some() => state = s,
                            _ => break,
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn candidates_order_and_hash_as_their_sentences() {
        let mut cands = sample_candidates();
        cands.sort_by_key(|c| c.render());
        cands.dedup_by_key(|c| (c.render(), std::mem::discriminant(c)));
        assert!(cands.len() > 500, "too few candidates: {}", cands.len());
        // Names with every character class, and sentences two kinds render
        // alike.
        cands.extend([
            Cand::Named("apply ", "_", ""),
            Cand::Named("apply ", "x'", "_weak"),
            Cand::Named("apply ", "x'_weak", ""),
            Cand::Named("apply ", "l2", "2"),
            Cand::Named("apply ", "l22", ""),
            Cand::Named("apply ", "H_l", "_r"),
            Cand::Named("apply ", "H", "_l"),
            Cand::Named("apply ", "H in H0", ""),
            Cand::ApplyIn("H", "H0"),
            Cand::ApplyIn("H'", "_"),
            Cand::Named("rewrite <- ", "IHn", ""),
            Cand::Named("rewrite ", "<- IHn", ""),
            Cand::Named("rewrite ", "IHn", ""),
            Cand::Named("exists ", "0", ""),
            Cand::Lit("exists 0"),
            Cand::Named("destruct ", "n", "; simpl"),
            Cand::Named("destruct ", "n;", " simpl"),
            Cand::Named("simpl in ", "H1", ""),
            Cand::Lit("simpl"),
            Cand::Lit(""),
        ]);
        let rendered: Vec<String> = cands.iter().map(|c| c.render()).collect();
        for (a, ra) in cands.iter().zip(&rendered) {
            for (b, rb) in cands.iter().zip(&rendered) {
                assert_eq!(a.cmp(b), ra.cmp(rb), "{ra:?} vs {rb:?}");
            }
            // Hashed from a fresh state and mid-word after a prefix.
            for prefix in ["", "g"] {
                let (mut by_value, mut by_string) = (SipHasher13::new(), SipHasher13::new());
                prefix.hash(&mut by_value);
                prefix.hash(&mut by_string);
                a.hash(&mut by_value);
                ra.as_str().hash(&mut by_string);
                assert_eq!(by_value.finish(), by_string.finish(), "{ra:?}");
            }
            assert_eq!(a.head(), norm_head(head_word(ra)), "{ra:?}");
        }
    }

    /// The gate keeps these five at `lemma_floor`, as context moves: their
    /// head words are no universal basic's.
    #[test]
    fn context_moves_without_a_basic_head_get_the_lemma_floor() {
        for s in [
            "left",
            "right",
            "contradiction",
            "constructor",
            "discriminate",
        ] {
            assert_eq!(Cand::Lit(s).head(), Head::Other, "{s}");
            assert!(!Cand::Lit(s).head().is_basic(), "{s}");
        }
        for s in [
            "simpl",
            "split",
            "lia",
            "auto",
            "exists 0",
            "subst",
            "assumption",
        ] {
            assert!(Cand::Lit(s).head().is_basic(), "{s}");
        }
        assert!(!Cand::Named("apply ", "H", "").head().is_basic());
    }
}
