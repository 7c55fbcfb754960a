//! Emission of Gallina-lite modules.
//!
//! The procedural corpus generator builds theorems as kernel formulas and
//! witness scripts; this module renders them back into the vernacular
//! surface syntax, item by item, so the emitted text round-trips through
//! [`crate::item::group_items`] → [`crate::parser::parse_item`] →
//! [`crate::loader::Loader`]. Statements are rendered with the kernel's
//! pretty-printer ([`minicoq::pretty::formula_to_string`]), whose output
//! is pinned to reparse by the `statehash_props` and `corpus_integrity`
//! suites.

use minicoq::formula::Formula;
use minicoq::pretty::formula_to_string;

/// Builds one module's source text item by item.
#[derive(Debug, Default, Clone)]
pub struct ModuleBuilder {
    out: String,
}

impl ModuleBuilder {
    /// An empty module.
    pub fn new() -> ModuleBuilder {
        ModuleBuilder::default()
    }

    /// Emits a `(* ... *)` header comment.
    pub fn comment(&mut self, text: &str) -> &mut ModuleBuilder {
        self.out.push_str("(* ");
        self.out.push_str(text);
        self.out.push_str(" *)\n\n");
        self
    }

    /// Emits a `Require Import` line.
    pub fn import(&mut self, module: &str) -> &mut ModuleBuilder {
        self.out.push_str("Require Import ");
        self.out.push_str(module);
        self.out.push_str(".\n\n");
        self
    }

    /// Emits a lemma with its proof script. `sentences` are tactic
    /// sentences without trailing dots; `Proof.`/`Qed.` wrapping and
    /// sentence terminators are added here.
    pub fn lemma(
        &mut self,
        name: &str,
        stmt: &Formula,
        sentences: &[String],
    ) -> &mut ModuleBuilder {
        self.lemma_text(name, &formula_to_string(stmt), sentences)
    }

    /// As [`ModuleBuilder::lemma`], from an already-rendered statement.
    pub fn lemma_text(
        &mut self,
        name: &str,
        stmt: &str,
        sentences: &[String],
    ) -> &mut ModuleBuilder {
        self.out.push_str("Lemma ");
        self.out.push_str(name);
        self.out.push_str(" : ");
        self.out.push_str(stmt);
        self.out.push_str(".\nProof.\n");
        for s in sentences {
            self.out.push_str("  ");
            self.out.push_str(s);
            self.out.push_str(".\n");
        }
        self.out.push_str("Qed.\n\n");
        self
    }

    /// Emits a `Hint Resolve` line.
    pub fn hint_resolve(&mut self, names: &[String]) -> &mut ModuleBuilder {
        if names.is_empty() {
            return self;
        }
        self.out.push_str("Hint Resolve ");
        self.out.push_str(&names.join(" "));
        self.out.push_str(".\n\n");
        self
    }

    /// The rendered module text.
    pub fn render(&self) -> String {
        let mut text = self.out.trim_end().to_string();
        text.push('\n');
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{group_items, ItemKind};
    use minicoq::sort::Sort;
    use minicoq::term::Term;

    #[test]
    fn emitted_module_groups_back_into_items() {
        let stmt = Formula::forall(
            "n",
            Sort::nat(),
            Formula::Eq(Sort::nat(), Term::var("n"), Term::var("n")),
        );
        let mut b = ModuleBuilder::new();
        b.comment("Gen000: generated module")
            .lemma(
                "g0_refl",
                &stmt,
                &["intros n".to_string(), "reflexivity".to_string()],
            )
            .hint_resolve(&["g0_refl".to_string()]);
        let text = b.render();
        let items = group_items(&text).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].kind, ItemKind::Lemma);
        assert_eq!(items[0].name, "g0_refl");
        assert!(items[0].proof.as_deref().unwrap().contains("intros n."));
        assert_eq!(items[1].kind, ItemKind::Hint);
    }

    #[test]
    fn emitted_lemma_replays() {
        let stmt = Formula::forall(
            "n",
            Sort::nat(),
            Formula::Eq(
                Sort::nat(),
                Term::App("add".into(), vec![Term::nat(0), Term::var("n")]),
                Term::var("n"),
            ),
        );
        let mut b = ModuleBuilder::new();
        b.lemma(
            "g0_add_0_l",
            &stmt,
            &["intros n".to_string(), "reflexivity".to_string()],
        );
        let mut loader = crate::loader::Loader::new().check_proofs(true);
        loader.add_source("Gen000", b.render());
        let dev = loader.load().expect("emitted module loads and replays");
        assert_eq!(dev.theorems.len(), 1);
    }
}
