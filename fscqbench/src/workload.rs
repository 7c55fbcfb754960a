//! The three workloads: their inputs, their set-up, and the cells each one
//! evaluates. Everything here goes through the library's public API; no
//! bench binary is spawned.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use corpus_analysis::features::{self, FeatureCtx, FeatureVec, GoalCtx};
use corpus_analysis::score::{install_model, Model};
use corpus_gen::{generate, GenSpec, GeneratedCorpus};
use fscq_corpus::Corpus;
use proof_metrics::{CellConfig, EvalScope};
use proof_oracle::profiles::ModelProfile;
use proof_oracle::prompt::PromptSetting;
use proof_search::PremiseRank;
use proof_trace::attempts::AttemptLog;

/// The pinned generated-corpus spec the learned ranker's training log was
/// mined on, relative to the repository root.
pub const GEN_1K_SPEC: &str = "fixtures/gen_1k.json";
/// The attempt log the learned ranker trains on.
pub const ATTEMPT_LOG: &str = "fixtures/attempts_small.jsonl";
/// The ladder workload's generator spec: `gen grid`'s defaults.
const LADDER_SEED: u64 = 1;
const LADDER_COUNT: usize = 300;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The ten Table 2 cells, cell cache off, one worker.
    Table2Cold,
    /// The four ladder profiles over a seeded generated corpus, two
    /// workers.
    GenLadderJ2,
    /// GPT-4o with hints and learned premise ranking over the embedded
    /// corpus plus a generated hard tier, one worker.
    RankLearned,
}

pub const ALL: [Workload; 3] = [
    Workload::Table2Cold,
    Workload::GenLadderJ2,
    Workload::RankLearned,
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Cold => "table2-cold",
            Workload::GenLadderJ2 => "gen-ladder-j2",
            Workload::RankLearned => "rank-learned",
        }
    }

    /// Runner workers for the timed run, capped at the host's cores.
    pub fn workers(self) -> usize {
        let want = match self {
            Workload::GenLadderJ2 => 2,
            Workload::Table2Cold | Workload::RankLearned => 1,
        };
        want.min(nproc())
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One evaluated cell: which of the set-up's corpora it runs over, and its
/// configuration.
pub struct Cell {
    pub corpus: usize,
    pub config: CellConfig,
}

/// A workload's inputs, ready to evaluate.
pub struct Setup {
    pub corpora: Vec<Corpus>,
    pub cells: Vec<Cell>,
    /// Fingerprint of the generated corpus, when there is one.
    pub fingerprint: Option<String>,
    /// Content hash of the trained ranking model, when there is one.
    pub model_hash: Option<u64>,
    /// Set-up time per layer, milliseconds (`fscq.load_ms`, …).
    pub layer_ms: BTreeMap<&'static str, f64>,
}

fn time_layer<T>(
    layer_ms: &mut BTreeMap<&'static str, f64>,
    key: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let t = Instant::now();
    let out = f();
    *layer_ms.entry(key).or_insert(0.0) += t.elapsed().as_secs_f64() * 1e3;
    out
}

/// Builds a workload's inputs: loads and generates corpora, trains and
/// installs the ranking model where the workload has one.
pub fn setup(w: Workload, root: &Path) -> Result<Setup, String> {
    let mut layer_ms = BTreeMap::from([
        ("fscq.load_ms", 0.0),
        ("gen.generate_ms", 0.0),
        ("analysis.train_ms", 0.0),
    ]);
    match w {
        Workload::Table2Cold => {
            let corpus = time_layer(&mut layer_ms, "fscq.load_ms", Corpus::try_load)
                .map_err(|e| format!("embedded corpus: {e}"))?;
            let cells = ModelProfile::all_five()
                .into_iter()
                .flat_map(|p| {
                    [PromptSetting::Vanilla, PromptSetting::Hints].map(|s| Cell {
                        corpus: 0,
                        config: CellConfig::standard(p.clone(), s),
                    })
                })
                .collect();
            Ok(Setup {
                corpora: vec![corpus],
                cells,
                fingerprint: None,
                model_hash: None,
                layer_ms,
            })
        }
        Workload::GenLadderJ2 => {
            let gc = time_layer(&mut layer_ms, "gen.generate_ms", || {
                generate(&GenSpec::new(LADDER_SEED, LADDER_COUNT))
            });
            let corpus = time_layer(&mut layer_ms, "fscq.load_ms", || load_generated(&gc))?;
            let fp = gc.manifest.fingerprint.clone();
            // The cells `gen grid` runs: ladder lineup, hints, full scope.
            let cells = ModelProfile::ladder()
                .into_iter()
                .map(|p| {
                    let mut config = CellConfig::standard(p, PromptSetting::Hints);
                    config.scope = EvalScope::Full;
                    config.variant = Some(format!("gen:{fp}"));
                    Cell { corpus: 0, config }
                })
                .collect();
            Ok(Setup {
                corpora: vec![corpus],
                cells,
                fingerprint: Some(fp),
                model_hash: None,
                layer_ms,
            })
        }
        Workload::RankLearned => {
            let embedded = time_layer(&mut layer_ms, "fscq.load_ms", Corpus::try_load)
                .map_err(|e| format!("embedded corpus: {e}"))?;
            // The pinned corpus the training log was mined on; its hard
            // tier is the evaluated generated input.
            let spec = read_gen_spec(&root.join(GEN_1K_SPEC))?;
            let gc = time_layer(&mut layer_ms, "gen.generate_ms", || generate(&spec));
            let gen_corpus = time_layer(&mut layer_ms, "fscq.load_ms", || load_generated(&gc))?;
            let model = time_layer(&mut layer_ms, "analysis.train_ms", || {
                train_model(&root.join(ATTEMPT_LOG), &embedded, &gen_corpus)
            })?;
            let model_hash = model.content_hash();
            install_model(model);
            let fp = gc.manifest.fingerprint.clone();
            // The `rank ab` learned arm: GPT-4o with hints at full scope on
            // the embedded corpus, then on the generated hard tier.
            let base = |variant: &str| {
                let mut config = CellConfig::standard(ModelProfile::gpt4o(), PromptSetting::Hints);
                config.scope = EvalScope::Full;
                config.search.premise_rank = PremiseRank::Learned;
                config.variant = Some(variant.to_string());
                config
            };
            let mut hard = base("rank-learned:genhard");
            hard.subset = Some(hard_tier(&gc));
            let cells = vec![
                Cell {
                    corpus: 0,
                    config: base("rank-learned"),
                },
                Cell {
                    corpus: 1,
                    config: hard,
                },
            ];
            Ok(Setup {
                corpora: vec![embedded, gen_corpus],
                cells,
                fingerprint: Some(fp),
                model_hash: Some(model_hash),
                layer_ms,
            })
        }
    }
}

fn load_generated(gc: &GeneratedCorpus) -> Result<Corpus, String> {
    gc.development(false)
        .map(|dev| Corpus { dev })
        .map_err(|e| format!("generated corpus {}: {e}", gc.manifest.fingerprint))
}

/// Reads the generator spec out of a pinned spec fixture and checks that
/// the generator still reproduces the pinned fingerprint for it.
fn read_gen_spec(path: &Path) -> Result<GenSpec, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let spec = v
        .get("spec")
        .ok_or_else(|| format!("{}: no `spec`", path.display()))?;
    let spec_json = serde_json::to_string(spec).map_err(|e| format!("{e:?}"))?;
    serde_json::from_str(&spec_json).map_err(|e| format!("{} spec: {e:?}", path.display()))
}

/// The hard tier of a generated corpus, as `rank` defines it: the top third
/// of benchmark theorems by witness length, ties broken by name.
fn hard_tier(gc: &GeneratedCorpus) -> Vec<String> {
    let mut thms: Vec<(usize, &str)> = gc
        .manifest
        .theorems
        .iter()
        .filter(|t| t.role == "theorem")
        .map(|t| (t.witness.split_whitespace().count(), t.name.as_str()))
        .collect();
    thms.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
    thms.truncate((thms.len() / 3).max(1));
    thms.into_iter().map(|(_, n)| n.to_string()).collect()
}

/// Trains the learned ranker the way `rank ab --log … --refine` does: one
/// feature vector per logged attempt, labelled by on-path membership,
/// grouped per theorem in name order.
fn train_model(log: &Path, embedded: &Corpus, pinned: &Corpus) -> Result<Model, String> {
    let records = AttemptLog::at(log).load();
    if records.is_empty() {
        return Err(format!("{}: no valid attempt records", log.display()));
    }
    let mut by_thm: BTreeMap<&str, Vec<_>> = BTreeMap::new();
    for r in &records {
        by_thm.entry(r.theorem.as_str()).or_default().push(r);
    }
    let mut samples: Vec<(FeatureVec, bool)> = Vec::new();
    for (name, recs) in by_thm {
        let Some(dev) = [&embedded.dev, &pinned.dev]
            .into_iter()
            .find(|d| d.theorem(name).is_some())
        else {
            continue;
        };
        let thm = dev.theorem(name).expect("found above");
        let fcx = FeatureCtx::new(dev.env_before(thm));
        let gcx = GoalCtx::new(&fcx, &thm.stmt);
        samples.extend(
            recs.iter()
                .map(|r| (features::tactic_vector(&fcx, &gcx, &r.tactic), r.on_path)),
        );
    }
    Ok(Model::train(&samples, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("table2"), None);
    }
}
