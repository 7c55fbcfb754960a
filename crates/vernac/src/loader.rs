//! Loading a development: import resolution, elaboration, proof replay.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{Arc, OnceLock};

use minicoq::env::Env;
use minicoq::formula::Formula;
use minicoq::replay::replay_script;
use proof_trace::envelope::fnv1a;

use crate::item::{group_items, Item, ItemKind};
use crate::parser::{apply_decl, parse_item, Decl};

/// A loaded source file.
#[derive(Debug, Clone)]
pub struct LoadedFile {
    /// Module name (e.g. `ListUtils`).
    pub name: String,
    /// Direct imports.
    pub imports: Vec<String>,
    /// Items in source order.
    pub items: Vec<Item>,
}

/// Metadata about one theorem of the development.
#[derive(Debug, Clone)]
pub struct TheoremInfo {
    /// Lemma name.
    pub name: String,
    /// Module the lemma lives in.
    pub file: String,
    /// Index of the item within its file.
    pub item_index: usize,
    /// Global theorem index (load order).
    pub global_index: usize,
    /// The statement sentence, e.g. `Lemma foo : ...` (no final `.`).
    pub statement_text: String,
    /// The human proof script.
    pub proof_text: String,
    /// The elaborated statement.
    pub stmt: Formula,
}

/// A fully loaded development.
#[derive(Debug, Clone)]
pub struct Development {
    /// Files in load (topological) order.
    pub files: Vec<LoadedFile>,
    /// The final environment with every declaration and lemma.
    pub env: Env,
    /// Environment snapshots taken *before* each theorem, indexed by
    /// `TheoremInfo::global_index`. Arc-shared so sessions and parallel
    /// workers can hold a snapshot without deep-copying it.
    envs: Vec<Arc<Env>>,
    /// All theorems in load order.
    pub theorems: Vec<TheoremInfo>,
    /// [`Development::content_hash`], computed on first use.
    content_hash: OnceLock<u64>,
}

impl Development {
    /// The environment visible to a prover attempting this theorem: every
    /// earlier declaration, but not the theorem itself or later ones. The
    /// `Arc` lets callers share the snapshot (e.g. with a `ProofSession`)
    /// without cloning the environment's contents.
    pub fn env_before(&self, thm: &TheoremInfo) -> &Arc<Env> {
        &self.envs[thm.global_index]
    }

    /// Looks up a theorem by name.
    pub fn theorem(&self, name: &str) -> Option<&TheoremInfo> {
        self.theorems.iter().find(|t| t.name == name)
    }

    /// Looks up a loaded file by module name.
    pub fn file(&self, name: &str) -> Option<&LoadedFile> {
        self.files.iter().find(|f| f.name == name)
    }

    /// Every item of every file with its canonical rendering (parsed
    /// sentences re-rendered, so inter-item whitespace and comment
    /// differences vanish), in load order: the text layer change-impact
    /// snapshots hash and diff (`corpus-analysis`'s `impact` module).
    /// Yields `(module, item index, rendered text)`.
    pub fn rendered_items(&self) -> impl Iterator<Item = (&str, usize, String)> + '_ {
        self.files.iter().flat_map(|f| {
            f.items
                .iter()
                .enumerate()
                .map(move |(idx, item)| (f.name.as_str(), idx, item.render(true)))
        })
    }

    /// FNV-1a over the FNV-1a digests of every item's canonical rendering
    /// ([`rendered_items`], proofs included) and its module name: two
    /// developments hash alike when they declare and prove the same things
    /// in the same order. Computed once per development.
    ///
    /// [`rendered_items`]: Development::rendered_items
    pub fn content_hash(&self) -> u64 {
        *self.content_hash.get_or_init(|| {
            let mut digests = Vec::new();
            for (module, _, item) in self.rendered_items() {
                digests.extend(fnv1a(module.as_bytes()).to_le_bytes());
                digests.extend(fnv1a(item.as_bytes()).to_le_bytes());
            }
            fnv1a(&digests)
        })
    }

    /// The transitive import closure of a module, in load order, excluding
    /// the module itself.
    pub fn import_closure(&self, name: &str) -> Vec<&LoadedFile> {
        let mut wanted: Vec<&str> = vec![name];
        let mut i = 0;
        while i < wanted.len() {
            if let Some(f) = self.file(wanted[i]) {
                for imp in &f.imports {
                    if !wanted.contains(&imp.as_str()) {
                        wanted.push(imp);
                    }
                }
            }
            i += 1;
        }
        self.files
            .iter()
            .filter(|f| f.name != name && wanted.contains(&f.name.as_str()))
            .collect()
    }
}

/// An error produced while loading a development.
#[derive(Debug, Clone)]
pub struct LoadError {
    /// Module the error occurred in.
    pub file: String,
    /// Item name, when known.
    pub item: String,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.item, self.message)
    }
}

impl std::error::Error for LoadError {}

/// Loads developments from in-memory sources.
#[derive(Debug, Default)]
pub struct Loader {
    sources: Vec<(String, String)>,
    check_proofs: bool,
}

impl Loader {
    /// Creates a loader that replays and checks all proofs.
    pub fn new() -> Loader {
        Loader {
            sources: Vec::new(),
            check_proofs: true,
        }
    }

    /// Controls whether human proofs are replayed during loading. Disabling
    /// speeds up loading when only statements and source text are needed;
    /// lemmas are then trusted.
    pub fn check_proofs(mut self, yes: bool) -> Loader {
        self.check_proofs = yes;
        self
    }

    /// Adds a source file (module name, source text).
    pub fn add_source(&mut self, name: impl Into<String>, text: impl Into<String>) -> &mut Loader {
        self.sources.push((name.into(), text.into()));
        self
    }

    /// Loads everything: groups items, topologically sorts files by their
    /// imports, elaborates declarations and replays proofs.
    pub fn load(&self) -> Result<Development, LoadError> {
        // Group items per file.
        let mut files: Vec<LoadedFile> = Vec::new();
        for (name, text) in &self.sources {
            let items = group_items(text).map_err(|e| LoadError {
                file: name.clone(),
                item: String::new(),
                message: e.to_string(),
            })?;
            let imports = items
                .iter()
                .filter(|i| i.kind == ItemKind::Import)
                .map(|i| i.name.clone())
                .collect();
            files.push(LoadedFile {
                name: name.clone(),
                imports,
                items,
            });
        }
        // Topological sort (stable w.r.t. insertion order).
        let order = topo_order(&files)?;
        let files: Vec<LoadedFile> = order.into_iter().map(|i| files[i].clone()).collect();

        let mut env = Env::with_prelude();
        let mut envs: Vec<Arc<Env>> = Vec::new();
        let mut theorems: Vec<TheoremInfo> = Vec::new();
        for file in &files {
            for (item_index, item) in file.items.iter().enumerate() {
                let decl = parse_item(&env, item).map_err(|e| LoadError {
                    file: file.name.clone(),
                    item: item.name.clone(),
                    message: e.to_string(),
                })?;
                if let Decl::LemmaStmt { name, stmt } = &decl {
                    let proof = item.proof.clone().unwrap_or_default();
                    // `Admitted.` lemmas have no script to replay: the
                    // statement enters the environment on trust (and the
                    // analyzer's axiom/admit audit reports them).
                    if self.check_proofs && !item.admitted {
                        replay_script(&env, stmt, &proof).map_err(|e| LoadError {
                            file: file.name.clone(),
                            item: name.clone(),
                            message: e.message,
                        })?;
                    }
                    // Cheap: Env's collections are Arc-shared, so this
                    // snapshot aliases the current storage. The add_lemma
                    // below then copies the lemma vector and index, but
                    // only as pointers: lemmas and names are themselves
                    // shared, never cloned (see `Env`).
                    envs.push(Arc::new(env.clone()));
                    theorems.push(TheoremInfo {
                        name: name.clone(),
                        file: file.name.clone(),
                        item_index,
                        global_index: theorems.len(),
                        statement_text: item.text.clone(),
                        proof_text: proof,
                        stmt: stmt.clone(),
                    });
                    env.add_lemma(name.clone(), stmt.clone())
                        .map_err(|e| LoadError {
                            file: file.name.clone(),
                            item: name.clone(),
                            message: e.to_string(),
                        })?;
                } else {
                    apply_decl(&mut env, &decl).map_err(|e| LoadError {
                        file: file.name.clone(),
                        item: item.name.clone(),
                        message: e.to_string(),
                    })?;
                }
            }
        }
        Ok(Development {
            files,
            env,
            envs,
            theorems,
            content_hash: OnceLock::new(),
        })
    }
}

fn topo_order(files: &[LoadedFile]) -> Result<Vec<usize>, LoadError> {
    let index: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    let mut state = vec![0u8; files.len()]; // 0 unvisited, 1 visiting, 2 done.
    let mut out = Vec::new();
    fn visit(
        i: usize,
        files: &[LoadedFile],
        index: &BTreeMap<&str, usize>,
        state: &mut [u8],
        out: &mut Vec<usize>,
    ) -> Result<(), LoadError> {
        match state[i] {
            1 => {
                return Err(LoadError {
                    file: files[i].name.clone(),
                    item: String::new(),
                    message: "import cycle".into(),
                })
            }
            2 => return Ok(()),
            _ => {}
        }
        state[i] = 1;
        for imp in &files[i].imports {
            let Some(&j) = index.get(imp.as_str()) else {
                return Err(LoadError {
                    file: files[i].name.clone(),
                    item: String::new(),
                    message: format!("unknown import {imp}"),
                });
            };
            visit(j, files, index, state, out)?;
        }
        state[i] = 2;
        out.push(i);
        Ok(())
    }
    for i in 0..files.len() {
        visit(i, files, &index, &mut state, &mut out)?;
    }
    Ok(out)
}

/// Reads every `.v` module of a corpus directory as the (module name,
/// source text) pairs a [`Loader`] takes, ordered by the modules' imports
/// (`import_order`), so a copy of the embedded corpus loads in the
/// embedded order.
pub fn dir_sources(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let mut modules = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("v") {
            continue;
        }
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("bad module filename {}", path.display()))?
            .to_string();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        modules.insert(name, text);
    }
    if modules.is_empty() {
        return Err(format!("no .v modules under {}", dir.display()));
    }
    import_order(modules)
}

/// Orders modules by their imports alone: a depth-first post-order over
/// each module's `Require Import` list, in listed order, starting from the
/// modules nothing imports, taken by name. The loader's topological sort
/// keeps an order that already respects the imports, and the theorem
/// order (and with it the hint and eval splits) follows the load order, so
/// a copy of the embedded corpus loads exactly as the embedded one does.
/// Unknown imports and cycles are left for the loader to report.
fn import_order(modules: BTreeMap<String, String>) -> Result<Vec<(String, String)>, String> {
    let mut imports: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for (name, text) in &modules {
        let items = group_items(text).map_err(|e| format!("{name}: {e}"))?;
        imports.insert(
            name,
            (items.into_iter())
                .filter(|i| i.kind == ItemKind::Import)
                .map(|i| i.name)
                .collect(),
        );
    }
    fn visit<'a>(
        name: &'a str,
        imports: &'a BTreeMap<&str, Vec<String>>,
        seen: &mut BTreeSet<&'a str>,
        order: &mut Vec<&'a str>,
    ) {
        let Some(deps) = imports.get(name) else {
            return;
        };
        if !seen.insert(name) {
            return;
        }
        for dep in deps {
            visit(dep, imports, seen, order);
        }
        order.push(name);
    }
    let imported: BTreeSet<&str> = imports.values().flatten().map(String::as_str).collect();
    let roots = imports.keys().filter(|name| !imported.contains(*name));
    let (mut seen, mut order) = (BTreeSet::new(), Vec::new());
    for name in roots.chain(imports.keys()) {
        visit(name, &imports, &mut seen, &mut order);
    }
    Ok(order
        .into_iter()
        .map(|name| (name.to_string(), modules[name].clone()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_a_small_development() {
        let mut loader = Loader::new();
        loader.add_source(
            "Basics",
            r#"
Fixpoint double (n : nat) : nat := match n with | 0 => 0 | S p => S (S (double p)) end.

Lemma double_2 : double 2 = 4.
Proof. reflexivity. Qed.

Lemma double_add : forall n : nat, double n = add n n.
Proof.
  induction n.
  - reflexivity.
  - simpl. rewrite IHn.
    assert (H : forall a b : nat, add a (S b) = S (add a b)).
    + induction a; intros. * reflexivity. * simpl. rewrite IHa. reflexivity.
    + rewrite H. reflexivity.
Qed.

Hint Resolve double_add.
"#,
        );
        loader.add_source(
            "Client",
            r#"
Require Import Basics.

Lemma double_0 : double 0 = 0.
Proof. reflexivity. Qed.
"#,
        );
        let dev = loader.load().expect("loads");
        assert_eq!(dev.files[0].name, "Basics");
        assert_eq!(dev.theorems.len(), 3);
        let t = dev.theorem("double_add").unwrap();
        // The env before double_add has double_2 but not double_add.
        let env = dev.env_before(t);
        assert!(env.lemma("double_2").is_some());
        assert!(env.lemma("double_add").is_none());
        assert!(dev.env.lemma("double_add").is_some());
        assert!(dev.env.hint_db("core").iter().any(|h| &**h == "double_add"));
    }

    #[test]
    fn inductive_predicate_roundtrip() {
        let mut loader = Loader::new();
        loader.add_source(
            "Ev",
            r#"
Inductive even : nat -> Prop :=
| even_O : even 0
| even_SS : forall n : nat, even n -> even (S (S n)).

Hint Constructors even.

Lemma even_4 : even 4.
Proof. auto. Qed.

Lemma even_inv : forall n : nat, even (S (S n)) -> even n.
Proof. intros n H. inversion H. assumption. Qed.
"#,
        );
        let dev = loader.load().expect("loads");
        assert_eq!(dev.theorems.len(), 2);
    }

    #[test]
    fn broken_proof_is_rejected() {
        let mut loader = Loader::new();
        loader.add_source("Bad", "Lemma nope : 1 = 2.\nProof. reflexivity. Qed.");
        let err = loader.load().unwrap_err();
        assert_eq!(err.item, "nope");
    }

    #[test]
    fn unknown_import_is_rejected() {
        let mut loader = Loader::new();
        loader.add_source("A", "Require Import Missing.\nSort T.");
        assert!(loader.load().is_err());
    }

    #[test]
    fn import_closure_is_transitive() {
        let mut loader = Loader::new();
        loader.add_source("A", "Sort TA.");
        loader.add_source("B", "Require Import A.\nSort TB.");
        loader.add_source("C", "Require Import B.\nSort TC.");
        let dev = loader.load().unwrap();
        let closure = dev.import_closure("C");
        let names: Vec<&str> = closure.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["A", "B"]);
    }
}
