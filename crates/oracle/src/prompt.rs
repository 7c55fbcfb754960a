//! Prompt construction (§3 "extended proof context", §4 "Prompt design").
//!
//! A prompt contains the items of every (transitively) imported file and of
//! the current file up to — but not beyond — the theorem being proved. In
//! the vanilla setting proof bodies are elided; in the hint setting the
//! human proofs of the hint-split theorems are included. When the prompt
//! exceeds the model's context window, the portions closest to the goal
//! are retained (the paper truncates the same way).

use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use minicoq_vernac::loader::LoadedFile;
use minicoq_vernac::{Development, Item, ItemKind, TheoremInfo};

use crate::sim::HintFacts;
use crate::tokenizer::count_tokens;

/// Vanilla (statements only) or hints (plus hint-split proofs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromptSetting {
    /// Definitions and theorem statements only.
    Vanilla,
    /// Additionally include human proofs of the hint-split theorems.
    Hints,
}

/// Prompt construction parameters.
#[derive(Debug, Clone)]
pub struct PromptConfig {
    /// Vanilla or hints.
    pub setting: PromptSetting,
    /// Context window in tokens; `None` keeps everything (the 1M-token
    /// configuration in practice).
    pub window: Option<usize>,
    /// §4.3: restrict the prompt to the dependencies of the theorem's
    /// human proof (the hand-crafted minimal prompts).
    pub minimal: bool,
    /// §5 extension: automated premise selection. `Some(k)` keeps only
    /// the `k` lemmas ranked most relevant to the goal by
    /// [`retrieval_set`](crate::retrieval::retrieval_set) (all non-lemma
    /// declarations stay). Unlike `minimal`, this uses no knowledge of
    /// the human proof.
    pub retrieval: Option<usize>,
}

impl PromptConfig {
    /// The paper's default hint-setting configuration with an unbounded
    /// window.
    pub fn hints() -> PromptConfig {
        PromptConfig {
            setting: PromptSetting::Hints,
            window: None,
            minimal: false,
            retrieval: None,
        }
    }

    /// The vanilla configuration.
    pub fn vanilla() -> PromptConfig {
        PromptConfig {
            setting: PromptSetting::Vanilla,
            window: None,
            minimal: false,
            retrieval: None,
        }
    }
}

/// The constructed prompt: a view of the items its cell's [`PromptCache`]
/// rendered, shared with every other prompt that shows them, plus the goal
/// line. The simulated model reads the structured fields; a real client
/// would send [`text`](PromptInfo::text).
#[derive(Debug, Clone, Default)]
pub struct PromptInfo {
    /// The items the prompt shows, in prompt order (earlier = further
    /// from the goal).
    pub items: Vec<Arc<PromptItem>>,
    /// The closing instruction and the statement to prove.
    goal: String,
    /// Token count of [`text`](PromptInfo::text).
    pub tokens: usize,
    /// Names of the lemmas whose statements survived into the prompt, in
    /// prompt order; each is its item's [`PromptItem::lemma`].
    pub visible_lemmas: Vec<Arc<str>>,
    /// The simulator's reading of each proof that survived into the
    /// prompt, in prompt order; each is its item's [`PromptItem::hint`].
    pub hint_facts: Vec<Arc<HintFacts>>,
    /// True when window truncation dropped leading context.
    pub truncated: bool,
    /// Hash of the shown items and `tokens`: two prompts with equal
    /// fingerprints show the same items, so they are interchangeable to
    /// the simulator, which keys its per-theorem preparation cache on
    /// this.
    pub fingerprint: u64,
}

impl PromptInfo {
    /// The rendered prompt text: the items, each followed by a blank line,
    /// then the goal line.
    pub fn text(&self) -> String {
        let mut text = String::new();
        for item in &self.items {
            text += &item.text;
            text += "\n\n";
        }
        text + &self.goal
    }
}

/// One item as a prompt shows it, rendered once per cell.
#[derive(Debug)]
pub struct PromptItem {
    /// The item's rendering, its proof shown or elided.
    pub text: String,
    /// [`count_tokens`] of `text`.
    pub tokens: usize,
    /// The item's name, when it is a lemma.
    pub lemma: Option<Arc<str>>,
    /// The proof read as a hint, when the proof is shown.
    pub hint: Option<Arc<HintFacts>>,
    /// Hash of `lemma`, `text` and whether the proof is shown, which the
    /// prompt fingerprint folds.
    key: u64,
}

impl PromptItem {
    fn of(item: &Item, with_proof: bool) -> PromptItem {
        let text = item.render(with_proof);
        let lemma = (item.kind == ItemKind::Lemma).then(|| Arc::from(item.name.as_str()));
        let mut key = crate::sip::SipHasher13::new();
        (lemma.as_deref(), &text, with_proof).hash(&mut key);
        PromptItem {
            tokens: count_tokens(&text),
            hint: with_proof
                .then(|| Arc::new(HintFacts::of(item.proof.as_deref().unwrap_or_default()))),
            lemma,
            key: key.finish(),
            text,
        }
    }
}

/// Memoizes rendered items across the theorems of a cell. Rendering an
/// item, counting its tokens and reading its proof as a hint depend only on
/// the item itself and on whether its proof is included, so one slot per
/// `(file, item index, with_proof)` serves every theorem that sees the
/// item (nearly all of them in a full-corpus cell), and a prompt shares the
/// slot's [`PromptItem`]. The cache is internally synchronized so parallel
/// runner workers can share one: a prompt takes the lock once per file,
/// and each slot is filled once.
#[derive(Debug, Default)]
pub struct PromptCache {
    files: Mutex<HashMap<String, Arc<FileSlots>>>,
}

/// One file's slots, by item index: `[statement only, with proof]`.
type FileSlots = [[OnceLock<Arc<PromptItem>>; 2]];

impl PromptCache {
    /// An empty cache.
    pub fn new() -> PromptCache {
        PromptCache::default()
    }

    /// The slots of `file`'s items.
    fn file(&self, file: &LoadedFile) -> Arc<FileSlots> {
        let mut files = proof_trace::lock_recover(&self.files);
        if let Some(slots) = files.get(file.name.as_str()) {
            assert_eq!(
                slots.len(),
                file.items.len(),
                "one cache serves one development"
            );
            return Arc::clone(slots);
        }
        let slots: Arc<FileSlots> = file.items.iter().map(|_| Default::default()).collect();
        files.insert(file.name.clone(), Arc::clone(&slots));
        slots
    }
}

/// Builds the prompt for a theorem (uncached convenience wrapper around
/// [`build_prompt_cached`]).
pub fn build_prompt(
    dev: &Development,
    thm: &TheoremInfo,
    hint_set: &BTreeSet<String>,
    cfg: &PromptConfig,
) -> PromptInfo {
    build_prompt_cached(dev, thm, hint_set, cfg, &PromptCache::new())
}

/// Builds the prompt for a theorem, memoizing per-item rendering, token
/// counts and hint readings in `cache`. Callers evaluating many theorems
/// under one setting (the experiment runner) share a cache across the
/// whole cell.
pub fn build_prompt_cached(
    dev: &Development,
    thm: &TheoremInfo,
    hint_set: &BTreeSet<String>,
    cfg: &PromptConfig,
    cache: &PromptCache,
) -> PromptInfo {
    let _sp = proof_trace::span("oracle.prompt", &thm.name);
    let deps: Option<BTreeSet<String>> = if cfg.minimal {
        Some(proof_dependencies(dev, thm))
    } else {
        cfg.retrieval
            .map(|k| crate::retrieval::retrieval_set(dev, thm, k))
    };

    // Every imported file whole, then the current file up to the goal.
    let files: Vec<(&LoadedFile, usize, Arc<FileSlots>)> = dev
        .import_closure(&thm.file)
        .into_iter()
        .map(|f| (f, f.items.len()))
        .chain(dev.file(&thm.file).map(|f| (f, thm.item_index)))
        .map(|(f, upto)| (f, upto, cache.file(f)))
        .collect();

    let (mut hits, mut misses) = (0u64, 0u64);
    let mut items = Vec::with_capacity(files.iter().map(|(_, upto, _)| upto).sum());
    for (file, upto, slots) in &files {
        for (item, slot) in file.items.iter().zip(slots.iter()).take(*upto) {
            if item.kind == ItemKind::Import {
                continue;
            }
            let lemma = item.kind == ItemKind::Lemma;
            // Minimal prompts keep only the proof's dependencies (and all
            // non-lemma declarations, which define the vocabulary).
            if lemma && deps.as_ref().is_some_and(|d| !d.contains(&item.name)) {
                continue;
            }
            let with_proof =
                cfg.setting == PromptSetting::Hints && lemma && hint_set.contains(&item.name);
            let mut missed = false;
            let shown = slot[usize::from(with_proof)].get_or_init(|| {
                missed = true;
                Arc::new(PromptItem::of(item, with_proof))
            });
            if missed {
                misses += 1;
            } else {
                hits += 1;
            }
            items.push(Arc::clone(shown));
        }
    }
    if proof_trace::enabled() {
        proof_trace::metrics::counter_add("oracle.prompt_cache.hit", hits);
        proof_trace::metrics::counter_add("oracle.prompt_cache.miss", misses);
    }

    // The goal segment is always kept.
    let goal = format!(
        "(* Prove the following theorem. *)\n{}.",
        thm.statement_text
    );
    let goal_tokens = count_tokens(&goal);

    // Window truncation: keep the longest suffix of the items that fits.
    let mut start = 0usize;
    if let Some(budget) = cfg.window.map(|w| w.saturating_sub(goal_tokens)) {
        let mut used = 0usize;
        start = items.len();
        for (i, item) in items.iter().enumerate().rev() {
            if used + item.tokens > budget {
                break;
            }
            used += item.tokens;
            start = i;
        }
    }
    items.drain(..start);

    // Items are joined by whitespace, which `count_tokens` never counts
    // and never tokenizes across, so the prompt's count is the sum of its
    // items' counts.
    let mut fingerprint = crate::sip::SipHasher13::new();
    let mut tokens = goal_tokens;
    for item in &items {
        tokens += item.tokens;
        fingerprint.write_u64(item.key);
    }
    fingerprint.write_usize(tokens);
    PromptInfo {
        visible_lemmas: items.iter().filter_map(|i| i.lemma.clone()).collect(),
        hint_facts: items.iter().filter_map(|i| i.hint.clone()).collect(),
        items,
        goal,
        tokens,
        truncated: start > 0,
        fingerprint: fingerprint.finish(),
    }
}

/// The lemma names a human proof depends on: identifiers in the proof
/// script that name earlier theorems.
pub fn proof_dependencies(dev: &Development, thm: &TheoremInfo) -> BTreeSet<String> {
    let known: BTreeSet<&str> = dev
        .theorems
        .iter()
        .take(thm.global_index)
        .map(|t| t.name.as_str())
        .collect();
    let mut out = BTreeSet::new();
    let mut word = String::new();
    for c in thm.proof_text.chars().chain(" ".chars()) {
        if c.is_ascii_alphanumeric() || c == '_' || c == '\'' {
            word.push(c);
        } else {
            if known.contains(word.as_str()) {
                out.insert(word.clone());
            }
            word.clear();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::hint_set;

    #[test]
    fn prompt_contains_context_up_to_goal() {
        let dev = fscq_corpus::load_corpus(false).unwrap();
        let thm = dev.theorem("incl_tl_inv").unwrap();
        let hints = hint_set(&dev);
        let p = build_prompt(&dev, thm, &hints, &PromptConfig::vanilla());
        // Earlier lemmas from the same file are visible...
        assert!(p.visible_lemmas.contains(&Arc::from("incl_cons_inv")));
        // ... and imported files too.
        assert!(p.visible_lemmas.contains(&Arc::from("add_comm")));
        // But not the theorem itself or later ones.
        assert!(!p.visible_lemmas.contains(&Arc::from("incl_tl_inv")));
        assert!(!p.visible_lemmas.contains(&Arc::from("NoDup_app_l")));
        // Vanilla prompts elide proofs.
        assert!(p.hint_facts.is_empty());
        assert!(p.text().contains("(* ... *)"));
        assert!(p.text().contains("Prove the following theorem"));
    }

    #[test]
    fn hint_prompts_include_hint_proofs_only() {
        let dev = fscq_corpus::load_corpus(false).unwrap();
        let thm = dev.theorem("NoDup_app_l").unwrap();
        let hints = hint_set(&dev);
        let p = build_prompt(&dev, thm, &hints, &PromptConfig::hints());
        assert!(!p.hint_facts.is_empty());
        for item in p.items.iter().filter(|i| i.hint.is_some()) {
            assert!(hints.contains(item.lemma.as_deref().unwrap()));
        }
    }

    #[test]
    fn truncation_keeps_tail() {
        let dev = fscq_corpus::load_corpus(false).unwrap();
        let thm = dev.theorem("tnd_update").unwrap();
        let hints = hint_set(&dev);
        let full = build_prompt(&dev, thm, &hints, &PromptConfig::hints());
        let mut cfg = PromptConfig::hints();
        cfg.window = Some(full.tokens / 4);
        let cut = build_prompt(&dev, thm, &hints, &cfg);
        assert!(cut.truncated);
        assert!(cut.tokens < full.tokens);
        // The nearest context (same file) survives; the earliest does not.
        assert!(cut.visible_lemmas.len() < full.visible_lemmas.len());
        assert_eq!(full.visible_lemmas.last(), cut.visible_lemmas.last());
        assert!(cut.text().contains("Prove the following theorem"));
    }

    /// Asserts that two builds of one prompt agree on everything a model
    /// or the simulator reads.
    fn assert_same_prompt(cold: &PromptInfo, warm: &PromptInfo, name: &str) {
        let shown = |p: &PromptInfo| {
            let items = p.items.iter();
            items
                .map(|i| (i.text.clone(), i.hint.is_some()))
                .collect::<Vec<_>>()
        };
        assert_eq!(cold.text(), warm.text(), "{name}");
        assert_eq!(cold.tokens, warm.tokens, "{name}");
        assert_eq!(cold.visible_lemmas, warm.visible_lemmas, "{name}");
        assert_eq!(shown(cold), shown(warm), "{name}");
        assert_eq!(cold.hint_facts, warm.hint_facts, "{name}");
        assert_eq!(cold.truncated, warm.truncated, "{name}");
        assert_eq!(cold.fingerprint, warm.fingerprint, "{name}");
    }

    #[test]
    fn shared_cache_changes_nothing() {
        // A cache shared across theorems and settings must be invisible:
        // identical text, tokens, lemma lists, hints and their facts,
        // truncation and fingerprint.
        let dev = fscq_corpus::load_corpus(false).unwrap();
        let hints = hint_set(&dev);
        let cache = PromptCache::new();
        let mut windowed = PromptConfig::hints();
        windowed.window = Some(4_000);
        for name in ["incl_tl_inv", "NoDup_app_l", "tnd_update"] {
            let thm = dev.theorem(name).unwrap();
            for cfg in [
                PromptConfig::vanilla(),
                PromptConfig::hints(),
                windowed.clone(),
            ] {
                let cold = build_prompt(&dev, thm, &hints, &cfg);
                let warm = build_prompt_cached(&dev, thm, &hints, &cfg, &cache);
                assert_same_prompt(&cold, &warm, name);
            }
        }
        // Each hint fact is read off its own item's script.
        let p = build_prompt(
            &dev,
            dev.theorem("tnd_update").unwrap(),
            &hints,
            &PromptConfig::hints(),
        );
        assert!(!p.hint_facts.is_empty());
        let hinted = p.items.iter().filter(|i| i.hint.is_some());
        for (item, facts) in hinted.zip(&p.hint_facts) {
            let script = &dev
                .theorem(item.lemma.as_deref().unwrap())
                .unwrap()
                .proof_text;
            assert_eq!(**facts, HintFacts::of(script));
        }
    }

    #[test]
    fn a_cache_filled_by_two_threads_at_once_changes_nothing() {
        // Two workers fill one cache concurrently, each from the other
        // end of the corpus, so they race on the same items: the first
        // items of the base files open nearly every prompt.
        let dev = fscq_corpus::load_corpus(false).unwrap();
        let hints = hint_set(&dev);
        let cache = PromptCache::new();
        let cfg = PromptConfig::hints();
        let start = std::sync::Barrier::new(2);
        let build_all = |rev: bool| {
            let mut order: Vec<&TheoremInfo> = dev.theorems.iter().collect();
            if rev {
                order.reverse();
            }
            start.wait();
            order
                .into_iter()
                .map(|thm| build_prompt_cached(&dev, thm, &hints, &cfg, &cache))
                .collect::<Vec<_>>()
        };
        let (fwd, mut back) = std::thread::scope(|s| {
            let a = s.spawn(|| build_all(false));
            let b = s.spawn(|| build_all(true));
            (a.join().unwrap(), b.join().unwrap())
        });
        back.reverse();
        for ((thm, a), b) in dev.theorems.iter().zip(&fwd).zip(&back) {
            let cold = build_prompt(&dev, thm, &hints, &cfg);
            assert_same_prompt(&cold, a, &thm.name);
            assert_same_prompt(&cold, b, &thm.name);
        }
    }

    #[test]
    fn minimal_prompt_keeps_dependencies() {
        let dev = fscq_corpus::load_corpus(false).unwrap();
        let thm = dev.theorem("mul_1_r").unwrap();
        let hints = hint_set(&dev);
        let mut cfg = PromptConfig::vanilla();
        cfg.minimal = true;
        let p = build_prompt(&dev, thm, &hints, &cfg);
        // mul_1_r's human proof rewrites with mul_succ_r, mul_0_r, add_0_r.
        assert!(p.visible_lemmas.contains(&Arc::from("mul_succ_r")));
        assert!(p.visible_lemmas.contains(&Arc::from("add_0_r")));
        // Unrelated lemmas are sliced away.
        assert!(!p.visible_lemmas.contains(&Arc::from("le_0_n")));
    }
}
