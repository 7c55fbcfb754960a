//! Splitting source text into sentences: the one splitter for proof
//! scripts and vernacular files alike.

/// A sentence: its text (without the terminating `.`) and its byte span in
/// the original source (including the `.`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sentence {
    /// Trimmed sentence text, comments preserved.
    pub text: String,
    /// Start byte offset in the source.
    pub start: usize,
    /// End byte offset (exclusive, past the `.`).
    pub end: usize,
}

/// One piece of the source between sentence terminators: its span, where
/// its `.` sits (the source length for the unterminated tail), and its
/// text outside comments, trimmed.
struct Piece {
    start: usize,
    dot: usize,
    end: usize,
    code: String,
}

/// Cuts `src` at every `.` followed by whitespace or end of input. `(* *)`
/// comments nest and never end a piece. The unterminated tail is the
/// last piece.
fn pieces(src: &str) -> Vec<Piece> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0u32;
    let (mut start, mut code_from, mut i) = (0usize, 0usize, 0usize);
    let mut code = String::new();
    while i < b.len() {
        if b[i..].starts_with(b"(*") {
            if depth == 0 {
                code.push_str(&src[code_from..i]);
            }
            depth += 1;
            i += 2;
            continue;
        }
        if depth > 0 {
            if b[i..].starts_with(b"*)") {
                depth -= 1;
                i += 2;
                if depth == 0 {
                    code_from = i;
                }
            } else {
                i += 1;
            }
            continue;
        }
        if b[i] == b'.' && b.get(i + 1).is_none_or(|&c| (c as char).is_whitespace()) {
            code.push_str(&src[code_from..i]);
            out.push(Piece {
                start,
                dot: i,
                end: i + 1,
                code: code.trim().to_string(),
            });
            code.clear();
            i += 1;
            start = i;
            code_from = i;
            continue;
        }
        i += 1;
    }
    if depth == 0 {
        code.push_str(&src[code_from..]);
    }
    out.push(Piece {
        start,
        dot: src.len(),
        end: src.len(),
        code: code.trim().to_string(),
    });
    out
}

/// Splits a source file into sentences terminated by `.` followed by
/// whitespace or end of input. `(* *)` comments never terminate sentences
/// and are preserved in the text; a piece that is only whitespace is no
/// sentence.
pub fn split_with_spans(src: &str) -> Vec<Sentence> {
    pieces(src)
        .into_iter()
        .filter_map(|p| {
            let text = src[p.start..p.dot].trim();
            (!text.is_empty()).then(|| Sentence {
                text: text.to_string(),
                start: p.start,
                end: p.end,
            })
        })
        .collect()
}

/// Splits a proof script into sentences on top-level `.`, dropping comments.
/// `Proof.` and `Qed.` markers are removed.
pub fn split_sentences(script: &str) -> Vec<String> {
    pieces(script)
        .into_iter()
        .map(|p| p.code)
        .filter(|c| !c.is_empty() && !matches!(c.as_str(), "Proof" | "Qed" | "Defined"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_sentences() {
        let s = split_sentences("Proof. intros x. (* c. *) simpl. auto. Qed.");
        assert_eq!(s, vec!["intros x", "simpl", "auto"]);
    }

    #[test]
    fn dot_inside_word_not_split() {
        let s = split_sentences("intros. reflexivity.");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn non_ascii_text_survives() {
        let s = split_sentences("intros. (* é. *) idtac \"à\".");
        assert_eq!(s, vec!["intros", "idtac \"à\""]);
    }

    #[test]
    fn splits_and_spans() {
        let src = "Sort T. Lemma a : 1 = 1.\nProof. auto. Qed.";
        let s = split_with_spans(src);
        let texts: Vec<&str> = s.iter().map(|x| x.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["Sort T", "Lemma a : 1 = 1", "Proof", "auto", "Qed"]
        );
        assert_eq!(&src[s[0].start..s[0].end], "Sort T.");
    }

    #[test]
    fn comments_do_not_split() {
        let s = split_with_spans("Lemma x (* a. b. *) : True.");
        assert_eq!(s.len(), 1);
        assert!(s[0].text.contains("(*"));
    }
}
