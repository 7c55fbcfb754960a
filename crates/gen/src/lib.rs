//! `corpus-gen`: seeded, deterministic procedural theorem generation.
//!
//! The generator synthesizes Gallina-lite modules by *backward*
//! template-driven construction: each theorem starts from a terminal goal
//! whose closing tactic is known and grows outward by inverting the
//! kernel's own tactic semantics (see [`backward`]), so the witness proof
//! script is recorded alongside the statement and every emitted theorem is
//! provable by construction — the kernel replays the witness to `Qed`
//! before anything is written.
//!
//! The public surface:
//!
//! * [`GenSpec`] / [`Knobs`] — seed, corpus size, and difficulty knobs;
//! * [`generate`] — spec → [`GeneratedCorpus`] (sources + [`Manifest`]);
//! * [`validate`] — replay every manifest witness against the loaded
//!   development, yielding a [`ValidationReport`];
//! * [`GeneratedCorpus::write_dir`] / [`read_manifest`] — disk round-trip
//!   (`GenNNN.v` files plus `gen.json`).
//!
//! Determinism: every random choice is drawn from a stream derived as
//! `derive_seed(seed, [stream, module, slot, attempt])`, so corpora are
//! byte-identical for a pinned seed regardless of generation order or
//! host.

use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use minicoq_vernac::{Development, LoadError, Loader};

pub mod backward;
pub mod module;
pub mod pool;
pub mod rng;

pub use backward::{gen_theorem, ThmBuild};
pub use module::{build_module, GenModule};
pub use pool::{build_pool, PoolLemma};
pub use rng::{derive_seed, fnv1a, GenRng};

/// Manifest schema version.
pub const MANIFEST_SCHEMA: u32 = 1;

/// Role tag: a pool lemma (fixed template with a pinned witness).
pub const ROLE_POOL: &str = "pool";
/// Role tag: a procedurally grown main theorem.
pub const ROLE_THEOREM: &str = "theorem";
/// Role tag: a distractor lemma (hint/premise-pollution surface).
pub const ROLE_DISTRACTOR: &str = "distractor";
/// The only expected outcome the generator emits: every witness replays.
pub const EXPECTED_PROVED: &str = "proved";

/// Difficulty knobs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Knobs {
    /// Backward steps grown on top of each terminal goal.
    pub depth: usize,
    /// Distractor lemmas per module.
    pub distractor_lemmas: usize,
    /// Hinted lemmas per module (premise-free equations only).
    pub hint_pollution: usize,
    /// Replace mnemonic names by opaque hashes.
    pub obfuscate_names: bool,
}

impl Default for Knobs {
    fn default() -> Knobs {
        Knobs {
            depth: 4,
            distractor_lemmas: 3,
            hint_pollution: 2,
            obfuscate_names: false,
        }
    }
}

/// A generation request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GenSpec {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Minimum number of theorems in the corpus (pool lemmas, main
    /// theorems and distractors all count — each is a checked lemma).
    pub count: usize,
    /// Difficulty knobs.
    pub knobs: Knobs,
    /// Main theorems per module.
    pub theorems_per_module: usize,
}

impl GenSpec {
    /// A spec with default knobs and module sizing.
    pub fn new(seed: u64, count: usize) -> GenSpec {
        GenSpec {
            seed,
            count,
            knobs: Knobs::default(),
            theorems_per_module: 38,
        }
    }
}

/// One manifest entry: a theorem with its recorded witness.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TheoremRecord {
    /// Lemma name as emitted.
    pub name: String,
    /// Module the lemma lives in.
    pub module: String,
    /// `pool`, `theorem`, or `distractor`.
    pub role: String,
    /// Rendered statement.
    pub statement: String,
    /// Witness proof script (replayable, `.`-terminated sentences).
    pub witness: String,
    /// Expected outcome when the witness is replayed (always `proved`).
    pub expected: String,
}

/// The corpus manifest (`gen.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest schema version.
    pub schema: u32,
    /// The master seed.
    pub seed: u64,
    /// The knobs the corpus was generated with.
    pub knobs: Knobs,
    /// Number of theorems (length of `theorems`).
    pub count: usize,
    /// Number of modules.
    pub modules: usize,
    /// FNV-1a fingerprint of all module sources, as fixed-width hex.
    pub fingerprint: String,
    /// Every theorem with its witness and expected outcome.
    pub theorems: Vec<TheoremRecord>,
}

/// A generated corpus: module sources plus the manifest describing them.
#[derive(Debug, Clone)]
pub struct GeneratedCorpus {
    /// `(module name, source)` in emission order.
    pub modules: Vec<(String, String)>,
    /// The manifest.
    pub manifest: Manifest,
}

/// Content fingerprint over module names and sources (order-sensitive —
/// emission order is itself deterministic).
pub fn fingerprint(modules: &[(String, String)]) -> String {
    let mut buf = Vec::new();
    for (name, src) in modules {
        buf.extend_from_slice(name.as_bytes());
        buf.push(0);
        buf.extend_from_slice(src.as_bytes());
        buf.push(0);
    }
    format!("{:016x}", fnv1a(&buf))
}

/// Generates a corpus: modules are assembled until the manifest holds at
/// least `spec.count` theorems. Every theorem's witness has already been
/// replayed to `Qed` by the kernel when this returns.
pub fn generate(spec: &GenSpec) -> GeneratedCorpus {
    let per_module = spec.theorems_per_module.max(1);
    let mut modules = Vec::new();
    let mut theorems = Vec::new();
    let mut m = 0usize;
    while theorems.len() < spec.count {
        let built = module::build_module(spec, m, per_module);
        theorems.extend(built.records);
        modules.push((built.name, built.source));
        m += 1;
    }
    let manifest = Manifest {
        schema: MANIFEST_SCHEMA,
        seed: spec.seed,
        knobs: spec.knobs.clone(),
        count: theorems.len(),
        modules: modules.len(),
        fingerprint: fingerprint(&modules),
        theorems,
    };
    GeneratedCorpus { modules, manifest }
}

impl GeneratedCorpus {
    /// Loads the corpus as a `vernac` development. With `check_proofs`,
    /// every emitted proof is replayed during loading.
    pub fn development(&self, check_proofs: bool) -> Result<Development, LoadError> {
        let mut loader = Loader::new().check_proofs(check_proofs);
        for (name, src) in &self.modules {
            loader.add_source(name.clone(), src.clone());
        }
        loader.load()
    }

    /// Writes `<module>.v` files and `gen.json` into `dir` (created if
    /// missing).
    pub fn write_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, src) in &self.modules {
            std::fs::write(dir.join(format!("{name}.v")), src)?;
        }
        let json = serde_json::to_string_pretty(&self.manifest)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(dir.join("gen.json"), json)
    }
}

/// Reads a manifest back from `gen.json`.
pub fn read_manifest(path: &Path) -> Result<Manifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads a corpus back from a directory written by
/// [`GeneratedCorpus::write_dir`]: the manifest plus every module source,
/// in emission order (recovered from the records' first appearance).
pub fn read_dir(dir: &Path) -> Result<GeneratedCorpus, String> {
    let manifest = read_manifest(&dir.join("gen.json"))?;
    let mut names: Vec<String> = Vec::new();
    for r in &manifest.theorems {
        if !names.contains(&r.module) {
            names.push(r.module.clone());
        }
    }
    let mut modules = Vec::new();
    for name in names {
        let path = dir.join(format!("{name}.v"));
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        modules.push((name, src));
    }
    Ok(GeneratedCorpus { modules, manifest })
}

/// Rebuilds the corpus a spec fixture pins (a JSON object with the
/// [`GenSpec`] under `spec` and the manifest fingerprint under
/// `expected.fingerprint`), refusing when the generator output has
/// drifted from the recorded fingerprint: every experiment over the
/// fixture would silently change its population.
pub fn generate_pinned(spec: &Path) -> Result<GeneratedCorpus, String> {
    let path = spec.display();
    let text = std::fs::read_to_string(spec).map_err(|e| format!("read {path}: {e}"))?;
    let v: serde_json::Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let field = |obj: &serde_json::Value, key: &str| -> Result<serde_json::Value, String> {
        let obj = obj
            .as_object()
            .ok_or_else(|| format!("{path}: not an object"))?;
        let (_, value) = obj
            .iter()
            .find(|(k, _)| k == key)
            .ok_or_else(|| format!("{path}: missing `{key}`"))?;
        Ok(value.clone())
    };
    let spec_json = serde_json::to_string(&field(&v, "spec")?).expect("spec renders");
    let spec: GenSpec =
        serde_json::from_str(&spec_json).map_err(|e| format!("{path} spec: {e:?}"))?;
    let fingerprint = match field(&field(&v, "expected")?, "fingerprint")? {
        serde_json::Value::Str(s) => s,
        other => return Err(format!("{path} fingerprint: {other:?}")),
    };
    let corpus = generate(&spec);
    if corpus.manifest.fingerprint != fingerprint {
        return Err(format!(
            "generated corpus fingerprint {} drifted from pinned {fingerprint} — \
             regenerate {path} if the generator change is intentional",
            corpus.manifest.fingerprint
        ));
    }
    Ok(corpus)
}

/// The outcome of validating a corpus against its manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Theorems listed in the manifest.
    pub theorems: usize,
    /// Witnesses that replayed to `Qed`.
    pub replayed: usize,
    /// Human-readable failure descriptions (empty on success).
    pub failures: Vec<String>,
}

impl ValidationReport {
    /// True when every witness replayed and the manifest matched the
    /// sources.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.replayed == self.theorems
    }
}

/// Validates a corpus: loads the sources (without trusting any proof),
/// then replays every manifest witness against the environment visible at
/// that theorem — the same check a skeptical reviewer would run.
///
/// Generated modules are self-contained (no cross-module imports), so
/// each is loaded and checked independently; memory stays bounded by the
/// largest module rather than the whole corpus, which is what lets
/// 10k-theorem corpora validate in seconds.
pub fn validate(corpus: &GeneratedCorpus) -> ValidationReport {
    let mut report = ValidationReport {
        theorems: corpus.manifest.theorems.len(),
        replayed: 0,
        failures: Vec::new(),
    };
    if corpus.manifest.fingerprint != fingerprint(&corpus.modules) {
        report.failures.push("fingerprint mismatch".to_string());
    }
    let mut by_module: std::collections::BTreeMap<&str, Vec<&TheoremRecord>> =
        std::collections::BTreeMap::new();
    for record in &corpus.manifest.theorems {
        by_module
            .entry(record.module.as_str())
            .or_default()
            .push(record);
    }
    let known: std::collections::BTreeSet<&str> =
        corpus.modules.iter().map(|(n, _)| n.as_str()).collect();
    for (module, records) in &by_module {
        if !known.contains(module) {
            report.failures.push(format!(
                "{module}: module listed in manifest but not in sources"
            ));
            continue;
        }
        let (name, src) = corpus
            .modules
            .iter()
            .find(|(n, _)| n == module)
            .expect("module is known");
        let mut loader = Loader::new().check_proofs(false);
        loader.add_source(name.clone(), src.clone());
        let dev = match loader.load() {
            Ok(dev) => dev,
            Err(e) => {
                report.failures.push(format!("{module}: load failed: {e}"));
                continue;
            }
        };
        for record in records {
            let Some(thm) = dev.theorem(&record.name) else {
                report
                    .failures
                    .push(format!("{}: not found in sources", record.name));
                continue;
            };
            let env = dev.env_before(thm);
            match minicoq::replay::replay_script(env, &thm.stmt, &record.witness) {
                Ok(_) => report.replayed += 1,
                Err(e) => report
                    .failures
                    .push(format!("{}: witness failed: {e}", record.name)),
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(seed: u64) -> GenSpec {
        let mut spec = GenSpec::new(seed, 24);
        spec.theorems_per_module = 5;
        spec
    }

    #[test]
    fn generate_meets_count_and_validates() {
        let corpus = generate(&tiny_spec(5));
        assert!(corpus.manifest.count >= 24);
        assert_eq!(corpus.manifest.count, corpus.manifest.theorems.len());
        assert_eq!(corpus.manifest.modules, corpus.modules.len());
        let report = validate(&corpus);
        assert!(report.is_clean(), "failures: {:?}", report.failures);
        assert_eq!(report.replayed, corpus.manifest.count);
    }

    #[test]
    fn pinned_seed_is_byte_identical() {
        let a = generate(&tiny_spec(7));
        let b = generate(&tiny_spec(7));
        assert_eq!(a.modules, b.modules);
        assert_eq!(
            serde_json::to_string(&a.manifest).unwrap(),
            serde_json::to_string(&b.manifest).unwrap()
        );
        let c = generate(&tiny_spec(8));
        assert_ne!(a.manifest.fingerprint, c.manifest.fingerprint);
    }

    #[test]
    fn disk_round_trip_preserves_manifest() {
        let corpus = generate(&tiny_spec(9));
        let dir =
            std::env::temp_dir().join(format!("corpus-gen-test-{}", corpus.manifest.fingerprint));
        corpus.write_dir(&dir).unwrap();
        let manifest = read_manifest(&dir.join("gen.json")).unwrap();
        assert_eq!(manifest.fingerprint, corpus.manifest.fingerprint);
        assert_eq!(manifest.count, corpus.manifest.count);
        for (name, src) in &corpus.modules {
            let disk = std::fs::read_to_string(dir.join(format!("{name}.v"))).unwrap();
            assert_eq!(&disk, src);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
