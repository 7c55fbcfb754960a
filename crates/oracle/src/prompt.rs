//! Prompt construction (§3 "extended proof context", §4 "Prompt design").
//!
//! A prompt contains the items of every (transitively) imported file and of
//! the current file up to — but not beyond — the theorem being proved. In
//! the vanilla setting proof bodies are elided; in the hint setting the
//! human proofs of the hint-split theorems are included. When the prompt
//! exceeds the model's context window, the portions closest to the goal
//! are retained (the paper truncates the same way).

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use minicoq_vernac::{Development, ItemKind, TheoremInfo};

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

/// Memoizes rendered items and their token counts across the theorems of a
/// cell. Rendering and tokenizing an item depends only on the item itself
/// and on whether its proof is included, so one cache entry per
/// `(file, item index, with_proof)` serves every theorem that sees the
/// item — which in a full-corpus cell is nearly all of them. The cache is
/// internally synchronized so parallel runner workers can share one.
#[derive(Debug, Default)]
pub struct PromptCache {
    rendered: Mutex<HashMap<RenderKey, Rendered>>,
}

/// `(file, item index, with_proof)`.
type RenderKey = (String, usize, bool);
/// Shared `(text, token count)` of one rendered item.
type Rendered = Arc<(String, usize)>;

impl PromptCache {
    /// An empty cache.
    pub fn new() -> PromptCache {
        PromptCache::default()
    }

    /// Rendered text and token count of `item`, computed at most once.
    fn rendered(
        &self,
        file: &str,
        index: usize,
        with_proof: bool,
        item: &minicoq_vernac::Item,
    ) -> Arc<(String, usize)> {
        let key = (file.to_string(), index, with_proof);
        if let Some(hit) = crate::sync::lock_recover(&self.rendered).get(&key) {
            if proof_trace::enabled() {
                proof_trace::metrics::counter_inc("oracle.prompt_cache.hit");
            }
            return Arc::clone(hit);
        }
        if proof_trace::enabled() {
            proof_trace::metrics::counter_inc("oracle.prompt_cache.miss");
        }
        // Render outside the lock: misses are the expensive path and two
        // workers racing on the same item produce identical values.
        let text = item.render(with_proof);
        let tokens = count_tokens(&text);
        let entry = Arc::new((text, tokens));
        crate::sync::lock_recover(&self.rendered)
            .entry(key)
            .or_insert_with(|| Arc::clone(&entry));
        entry
    }
}

struct Segment {
    rendered: Arc<(String, usize)>,
    lemma: Option<String>,
    hint: Option<(String, String)>,
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

/// Builds the prompt for a theorem, memoizing per-item rendering and token
/// counts in `cache`. Callers evaluating many theorems under one setting
/// (the experiment runner) share a cache across the whole cell.
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

    let mut segments: Vec<Segment> = Vec::new();
    let push_item =
        |file: &str, index: usize, item: &minicoq_vernac::Item, segments: &mut Vec<Segment>| {
            if let Some(deps) = &deps {
                // Minimal prompts keep only the proof's dependencies (and all
                // non-lemma declarations, which define the vocabulary).
                if item.kind == ItemKind::Lemma && !deps.contains(&item.name) {
                    return;
                }
            }
            let with_proof = cfg.setting == PromptSetting::Hints
                && item.kind == ItemKind::Lemma
                && hint_set.contains(&item.name);
            let rendered = cache.rendered(file, index, with_proof, item);
            let lemma = (item.kind == ItemKind::Lemma).then(|| item.name.clone());
            let hint =
                (with_proof).then(|| (item.name.clone(), item.proof.clone().unwrap_or_default()));
            segments.push(Segment {
                rendered,
                lemma,
                hint,
            });
        };

    for file in dev.import_closure(&thm.file) {
        for (index, item) in file.items.iter().enumerate() {
            if item.kind == ItemKind::Import {
                continue;
            }
            push_item(&file.name, index, item, &mut segments);
        }
    }
    if let Some(file) = dev.file(&thm.file) {
        for (index, item) in file.items.iter().take(thm.item_index).enumerate() {
            if item.kind == ItemKind::Import {
                continue;
            }
            push_item(&file.name, index, item, &mut segments);
        }
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
        for (i, seg) in segments.iter().enumerate().rev() {
            if used + seg.rendered.1 > budget {
                break;
            }
            used += seg.rendered.1;
            keep_from = i;
        }
        start = keep_from;
        truncated = start > 0;
    }

    let mut text = String::new();
    let mut visible_lemmas = Vec::new();
    let mut hint_scripts = Vec::new();
    for seg in &segments[start..] {
        text.push_str(&seg.rendered.0);
        text.push_str("\n\n");
        if let Some(l) = &seg.lemma {
            visible_lemmas.push(l.clone());
        }
        if let Some(h) = &seg.hint {
            hint_scripts.push(h.clone());
        }
    }
    text.push_str(&goal_text);
    let tokens = count_tokens(&text);
    let fingerprint = prompt_fingerprint(&visible_lemmas, &hint_scripts, tokens);
    PromptInfo {
        text,
        tokens,
        visible_lemmas,
        hint_scripts,
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

    #[test]
    fn shared_cache_changes_nothing() {
        // A cache shared across theorems and settings must be invisible:
        // identical text, tokens, lemma lists, hints, truncation.
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
                assert_eq!(cold.text, warm.text, "{name}");
                assert_eq!(cold.tokens, warm.tokens);
                assert_eq!(cold.visible_lemmas, warm.visible_lemmas);
                assert_eq!(cold.hint_scripts, warm.hint_scripts);
                assert_eq!(cold.truncated, warm.truncated);
            }
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
