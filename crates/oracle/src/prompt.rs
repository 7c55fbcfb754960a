//! Prompt construction (§3 "extended proof context", §4 "Prompt design").
//!
//! A prompt contains the items of every (transitively) imported file and of
//! the current file up to — but not beyond — the theorem being proved. In
//! the vanilla setting proof bodies are elided; in the hint setting the
//! human proofs of the hint-split theorems are included. When the prompt
//! exceeds the model's context window, the portions closest to the goal
//! are retained (the paper truncates the same way).

use std::collections::{BTreeSet, HashMap};
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

/// The constructed prompt, with the structured views the simulated model
/// consumes (a real client would read `text`).
#[derive(Debug, Clone, Default)]
pub struct PromptInfo {
    /// The rendered prompt text.
    pub text: String,
    /// Token count of `text`.
    pub tokens: usize,
    /// Lemma names whose statements survived into the prompt, in prompt
    /// order (earlier = further from the goal).
    pub visible_lemmas: Vec<String>,
    /// `(lemma, proof script)` pairs whose proofs survived into the prompt.
    pub hint_scripts: Vec<(String, String)>,
    /// The simulator's reading of each script in `hint_scripts`, in the
    /// same order, shared with every prompt of the cell that shows it.
    pub hint_facts: Vec<Arc<HintFacts>>,
    /// True when window truncation dropped leading context.
    pub truncated: bool,
    /// Hash of the model-visible structure (`visible_lemmas`,
    /// `hint_scripts`, `tokens`): two prompts with equal fingerprints are
    /// interchangeable to the simulator, which keys its per-theorem
    /// preparation cache on this.
    pub fingerprint: u64,
}

/// The structural fingerprint of a prompt (see [`PromptInfo::fingerprint`]).
fn prompt_fingerprint(
    visible_lemmas: &[String],
    hint_scripts: &[(String, String)],
    tokens: usize,
) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = crate::sip::SipHasher13::new();
    visible_lemmas.hash(&mut h);
    hint_scripts.hash(&mut h);
    tokens.hash(&mut h);
    h.finish()
}

/// Memoizes rendered items across the theorems of a cell. Rendering an
/// item, counting its tokens and reading its proof as a hint depend only on
/// the item itself and on whether its proof is included, so one slot per
/// `(file, item index, with_proof)` serves every theorem that sees the
/// item, which in a full-corpus cell is nearly all of them. The cache is
/// internally synchronized so parallel runner workers can share one: a
/// prompt takes the lock once per file, and each slot is filled once.
#[derive(Debug, Default)]
pub struct PromptCache {
    files: Mutex<HashMap<String, Arc<FileSlots>>>,
}

/// One file's slots, by item index: `[statement only, with proof]`.
type FileSlots = [[OnceLock<Rendered>; 2]];

/// One item as a prompt shows it.
#[derive(Debug)]
struct Rendered {
    text: String,
    /// [`count_tokens`] of `text`.
    tokens: usize,
    /// The proof read as a hint, when the proof is shown.
    hint: Option<Arc<HintFacts>>,
}

impl Rendered {
    fn of(item: &Item, with_proof: bool) -> Rendered {
        let text = item.render(with_proof);
        Rendered {
            tokens: count_tokens(&text),
            text,
            hint: with_proof
                .then(|| Arc::new(HintFacts::of(item.proof.as_deref().unwrap_or_default()))),
        }
    }
}

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
    let mut segments: Vec<(&Item, &Rendered)> = Vec::new();
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
            let rendered = slot[usize::from(with_proof)].get_or_init(|| {
                missed = true;
                Rendered::of(item, with_proof)
            });
            if missed {
                misses += 1;
            } else {
                hits += 1;
            }
            segments.push((item, rendered));
        }
    }
    if proof_trace::enabled() {
        proof_trace::metrics::counter_add("oracle.prompt_cache.hit", hits);
        proof_trace::metrics::counter_add("oracle.prompt_cache.miss", misses);
    }

    // The goal segment is always kept.
    let goal_text = format!(
        "(* Prove the following theorem. *)\n{}.",
        thm.statement_text
    );
    let goal_tokens = count_tokens(&goal_text);

    // Window truncation: keep a suffix of the segments.
    let budget = cfg.window.map(|w| w.saturating_sub(goal_tokens));
    let mut start = 0usize;
    let mut truncated = false;
    if let Some(budget) = budget {
        let mut used = 0usize;
        let mut keep_from = segments.len();
        for (i, (_, r)) in segments.iter().enumerate().rev() {
            if used + r.tokens > budget {
                break;
            }
            used += r.tokens;
            keep_from = i;
        }
        start = keep_from;
        truncated = start > 0;
    }

    // Segments are joined by whitespace, which `count_tokens` never counts
    // and never tokenizes across, so the prompt's count is the sum of its
    // segments' counts.
    let kept = &segments[start..];
    let mut text = String::with_capacity(
        kept.iter().map(|(_, r)| r.text.len() + 2).sum::<usize>() + goal_text.len(),
    );
    let mut tokens = goal_tokens;
    let mut visible_lemmas = Vec::new();
    let mut hint_scripts = Vec::new();
    let mut hint_facts = Vec::new();
    for (item, r) in kept {
        text.push_str(&r.text);
        text.push_str("\n\n");
        tokens += r.tokens;
        if item.kind == ItemKind::Lemma {
            visible_lemmas.push(item.name.clone());
        }
        if let Some(facts) = &r.hint {
            hint_scripts.push((item.name.clone(), item.proof.clone().unwrap_or_default()));
            hint_facts.push(Arc::clone(facts));
        }
    }
    text.push_str(&goal_text);
    let fingerprint = prompt_fingerprint(&visible_lemmas, &hint_scripts, tokens);
    PromptInfo {
        text,
        tokens,
        visible_lemmas,
        hint_scripts,
        hint_facts,
        truncated,
        fingerprint,
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
        assert!(p.visible_lemmas.contains(&"incl_cons_inv".to_string()));
        // ... and imported files too.
        assert!(p.visible_lemmas.contains(&"add_comm".to_string()));
        // But not the theorem itself or later ones.
        assert!(!p.visible_lemmas.contains(&"incl_tl_inv".to_string()));
        assert!(!p.visible_lemmas.contains(&"NoDup_app_l".to_string()));
        // Vanilla prompts elide proofs.
        assert!(p.hint_scripts.is_empty());
        assert!(p.text.contains("(* ... *)"));
        assert!(p.text.contains("Prove the following theorem"));
    }

    #[test]
    fn hint_prompts_include_hint_proofs_only() {
        let dev = fscq_corpus::load_corpus(false).unwrap();
        let thm = dev.theorem("NoDup_app_l").unwrap();
        let hints = hint_set(&dev);
        let p = build_prompt(&dev, thm, &hints, &PromptConfig::hints());
        assert!(!p.hint_scripts.is_empty());
        for (name, _) in &p.hint_scripts {
            assert!(hints.contains(name));
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
        assert!(cut.text.contains("Prove the following theorem"));
    }

    /// Asserts that two builds of one prompt agree on everything a model
    /// or the simulator reads.
    fn assert_same_prompt(cold: &PromptInfo, warm: &PromptInfo, name: &str) {
        assert_eq!(cold.text, warm.text, "{name}");
        assert_eq!(cold.tokens, warm.tokens, "{name}");
        assert_eq!(cold.visible_lemmas, warm.visible_lemmas, "{name}");
        assert_eq!(cold.hint_scripts, warm.hint_scripts, "{name}");
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
        // Each hint fact is read off its own script.
        let p = build_prompt(
            &dev,
            dev.theorem("tnd_update").unwrap(),
            &hints,
            &PromptConfig::hints(),
        );
        assert!(!p.hint_facts.is_empty());
        for ((_, script), facts) in p.hint_scripts.iter().zip(&p.hint_facts) {
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
        assert!(p.visible_lemmas.contains(&"mul_succ_r".to_string()));
        assert!(p.visible_lemmas.contains(&"add_0_r".to_string()));
        // Unrelated lemmas are sliced away.
        assert!(!p.visible_lemmas.contains(&"le_0_n".to_string()));
    }
}
