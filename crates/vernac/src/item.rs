//! Grouping sentences into declaration items.

use minicoq::parse::split_with_spans;

/// The kind of a top-level declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind {
    /// `Require Import M.`
    Import,
    /// `Sort T.`
    SortDecl,
    /// `Inductive` datatype or predicate (or mutual group).
    Inductive,
    /// `Definition`.
    Definition,
    /// `Fixpoint`.
    Fixpoint,
    /// `Lemma`/`Theorem`/`Corollary`/`Remark`, with its proof script.
    Lemma,
    /// `Axiom name : formula.` — a statement assumed without proof.
    Axiom,
    /// `Hint Resolve` / `Hint Constructors`.
    Hint,
}

/// A top-level item: its kind, the statement sentence(s), and for lemmas
/// the proof script.
#[derive(Debug, Clone)]
pub struct Item {
    /// Declaration kind.
    pub kind: ItemKind,
    /// The name declared (best-effort; empty for imports/hints).
    pub name: String,
    /// The statement text, e.g. `Lemma foo : forall ...` (no final `.`).
    pub text: String,
    /// For lemmas, the proof script between `Proof.` and `Qed.`
    /// (sentences joined with `. `, with a trailing `.`).
    pub proof: Option<String>,
    /// True for lemmas closed with `Admitted.` instead of `Qed.`: the
    /// statement is trusted without a checked proof.
    pub admitted: bool,
    /// Byte offset of the item's first sentence in the source file, for
    /// line-accurate diagnostics.
    pub start: usize,
}

impl Item {
    /// Renders the declaration as it would appear in a source file, with or
    /// without the proof body.
    pub fn render(&self, with_proof: bool) -> String {
        if self.admitted {
            return format!("{}.\nAdmitted.", self.text);
        }
        match (&self.proof, with_proof) {
            (Some(p), true) => format!("{}.\nProof.\n{}\nQed.", self.text, p),
            (Some(_), false) => format!("{}.\nProof.\n(* ... *)\nQed.", self.text),
            (None, _) => format!("{}.", self.text),
        }
    }
}

/// An error produced while grouping sentences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupError(pub String);

impl std::fmt::Display for GroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for GroupError {}

/// The first word of a sentence (skipping leading comments).
fn head_word(text: &str) -> &str {
    let mut rest = text.trim_start();
    // Skip leading comments.
    while rest.starts_with("(*") {
        let mut depth = 0i32;
        let b = rest.as_bytes();
        let mut i = 0usize;
        while i < b.len() {
            if b[i] == b'(' && i + 1 < b.len() && b[i + 1] == b'*' {
                depth += 1;
                i += 2;
                continue;
            }
            if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b')' {
                depth -= 1;
                i += 2;
                if depth == 0 {
                    break;
                }
                continue;
            }
            i += 1;
        }
        rest = rest[i..].trim_start();
    }
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    &rest[..end]
}

fn second_word(text: &str) -> String {
    let head = head_word(text);
    let rest = text.trim_start();
    let rest = match rest.find(head) {
        Some(i) => &rest[i + head.len()..],
        None => rest,
    };
    head_word(rest).to_string()
}

/// Groups the sentences of a source file into items.
pub fn group_items(src: &str) -> Result<Vec<Item>, GroupError> {
    let sentences = split_with_spans(src);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < sentences.len() {
        let s = &sentences[i];
        let head = head_word(&s.text);
        // The sentence span starts at the previous `.`+1, which includes
        // inter-sentence whitespace; diagnostics want the first real byte.
        let ws = src[s.start..s.end].len() - src[s.start..s.end].trim_start().len();
        let start = s.start + ws;
        let simple = |kind: ItemKind, name: String| Item {
            kind,
            name,
            text: s.text.clone(),
            proof: None,
            admitted: false,
            start,
        };
        match head {
            // Comment-only trailing text.
            "" => {
                i += 1;
            }
            "Require" => {
                out.push(simple(ItemKind::Import, last_word(&s.text)));
                i += 1;
            }
            "Sort" => {
                out.push(simple(ItemKind::SortDecl, second_word(&s.text)));
                i += 1;
            }
            "Inductive" => {
                out.push(simple(ItemKind::Inductive, second_word(&s.text)));
                i += 1;
            }
            "Definition" => {
                out.push(simple(ItemKind::Definition, second_word(&s.text)));
                i += 1;
            }
            "Fixpoint" => {
                out.push(simple(ItemKind::Fixpoint, second_word(&s.text)));
                i += 1;
            }
            "Axiom" => {
                out.push(simple(ItemKind::Axiom, second_word(&s.text)));
                i += 1;
            }
            "Hint" => {
                out.push(simple(ItemKind::Hint, String::new()));
                i += 1;
            }
            "Lemma" | "Theorem" | "Corollary" | "Remark" => {
                let name = second_word(&s.text);
                let stmt = s.text.clone();
                i += 1;
                // Optional `Proof` sentence.
                if i < sentences.len() && head_word(&sentences[i].text) == "Proof" {
                    i += 1;
                }
                let mut proof_sentences: Vec<String> = Vec::new();
                let mut closed = false;
                let mut admitted = false;
                while i < sentences.len() {
                    let t = &sentences[i].text;
                    let h = head_word(t);
                    if h == "Qed" || h == "Defined" {
                        i += 1;
                        closed = true;
                        break;
                    }
                    if h == "Admitted" {
                        i += 1;
                        closed = true;
                        admitted = true;
                        break;
                    }
                    proof_sentences.push(t.clone());
                    i += 1;
                }
                if !closed {
                    return Err(GroupError(format!("lemma {name}: missing Qed")));
                }
                // An admitted lemma keeps no proof: whatever partial script
                // preceded `Admitted.` was abandoned, not checked.
                let proof = (!admitted).then(|| format!("{}.", proof_sentences.join(". ")));
                out.push(Item {
                    kind: ItemKind::Lemma,
                    name,
                    text: stmt,
                    proof,
                    admitted,
                    start,
                });
            }
            other => {
                return Err(GroupError(format!(
                    "unknown vernacular command `{other}` in sentence `{}`",
                    truncate(&s.text)
                )));
            }
        }
    }
    Ok(out)
}

fn last_word(text: &str) -> String {
    text.trim_end()
        .rsplit(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .find(|w| !w.is_empty())
        .unwrap_or("")
        .to_string()
}

fn truncate(s: &str) -> String {
    if s.len() > 60 {
        // Back off to a char boundary: byte 60 may fall inside a
        // multibyte character.
        let mut end = 60;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}...", &s[..end])
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_lemma_with_proof() {
        let src = "Lemma a : 1 = 1.\nProof. simpl. reflexivity. Qed.\nSort T.";
        let items = group_items(src).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].kind, ItemKind::Lemma);
        assert_eq!(items[0].name, "a");
        assert_eq!(items[0].proof.as_deref(), Some("simpl. reflexivity."));
        assert_eq!(items[1].kind, ItemKind::SortDecl);
        assert_eq!(items[1].name, "T");
    }

    #[test]
    fn missing_qed_is_error() {
        let src = "Lemma a : 1 = 1.\nProof. simpl.";
        assert!(group_items(src).is_err());
    }

    #[test]
    fn import_names() {
        let items = group_items("Require Import ListUtils.").unwrap();
        assert_eq!(items[0].kind, ItemKind::Import);
        assert_eq!(items[0].name, "ListUtils");
    }

    #[test]
    fn render_hides_proof() {
        let items = group_items("Lemma a : 1 = 1.\nProof. reflexivity. Qed.").unwrap();
        let vanilla = items[0].render(false);
        assert!(vanilla.contains("(* ... *)"));
        let hinted = items[0].render(true);
        assert!(hinted.contains("reflexivity."));
    }

    #[test]
    fn admitted_lemma_is_grouped_without_proof() {
        let src = "Lemma a : 1 = 1.\nProof. simpl. Admitted.\nSort T.";
        let items = group_items(src).unwrap();
        assert_eq!(items[0].kind, ItemKind::Lemma);
        assert!(items[0].admitted);
        assert_eq!(items[0].proof, None);
        assert!(items[0].render(true).contains("Admitted."));
        assert_eq!(items[1].kind, ItemKind::SortDecl);
    }

    #[test]
    fn axiom_is_grouped() {
        let items = group_items("Axiom choice : 0 = 0.").unwrap();
        assert_eq!(items[0].kind, ItemKind::Axiom);
        assert_eq!(items[0].name, "choice");
        assert!(!items[0].admitted);
    }

    #[test]
    fn head_word_skips_comments() {
        assert_eq!(head_word("(* doc *) Lemma foo : True"), "Lemma");
        assert_eq!(head_word("Fixpoint f"), "Fixpoint");
    }

    #[test]
    fn items_carry_source_offsets() {
        let src = "Sort T.\nLemma a : 1 = 1.\nProof. reflexivity. Qed.";
        let items = group_items(src).unwrap();
        assert_eq!(items[0].start, 0);
        assert_eq!(items[1].start, src.find("Lemma").unwrap());
    }
}
