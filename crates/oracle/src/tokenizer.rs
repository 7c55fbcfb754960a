//! A deterministic, code-aware tokenizer.
//!
//! Stands in for the providers' BPE tokenizers. The evaluation only relies
//! on *relative* token counts — proof-length bins at powers of two and
//! context-window budgets — which any consistent sub-word scheme preserves.
//!
//! Rules: every punctuation cluster is one token; identifiers and numbers
//! contribute one token per started 4-character chunk (long identifiers
//! cost more, like BPE sub-words); whitespace is free.

/// Counts the tokens of a source snippet.
///
/// Whitespace is a hard break: no token spans it and it is never counted.
/// So the count is additive over whitespace-joined pieces:
/// `count_tokens(a + ws + b) == count_tokens(a) + count_tokens(b)` for any
/// non-empty whitespace `ws`. Prompt construction relies on this to sum
/// its cached per-item counts instead of counting the whole prompt.
pub fn count_tokens(src: &str) -> usize {
    let mut count = 0usize;
    let mut chars = src.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_whitespace() {
            continue;
        }
        if c.is_ascii_alphanumeric() || c == '_' || c == '\'' {
            let mut len: usize = 1;
            while let Some(&n) = chars.peek() {
                if n.is_ascii_alphanumeric() || n == '_' || n == '\'' {
                    chars.next();
                    len += 1;
                } else {
                    break;
                }
            }
            count += len.div_ceil(4);
        } else {
            // Punctuation: greedily group identical neighbours (e.g. `::`).
            while let Some(&n) = chars.peek() {
                if n == c {
                    chars.next();
                } else {
                    break;
                }
            }
            count += 1;
        }
    }
    count
}

/// The proof-length bins of Figure 1 (upper bounds in tokens; the last bin
/// is open-ended).
pub const LENGTH_BINS: [usize; 6] = [16, 32, 64, 128, 256, 512];

/// Labels for the bins, for table/figure output.
pub fn bin_labels() -> Vec<String> {
    let mut out = Vec::new();
    let mut lo = 0;
    for b in LENGTH_BINS {
        out.push(format!("[{lo},{b})"));
        lo = b;
    }
    out.push(format!("[{lo},inf)"));
    out
}

/// The bin index for a proof of `tokens` tokens.
pub fn bin_of(tokens: usize) -> usize {
    for (i, b) in LENGTH_BINS.iter().enumerate() {
        if tokens < *b {
            return i;
        }
    }
    LENGTH_BINS.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_counts_are_plausible() {
        assert_eq!(count_tokens(""), 0);
        assert_eq!(count_tokens("intros."), 3); // intros(2) + .(1)
        let t = count_tokens("induction n; intros; simpl. - reflexivity.");
        assert!(t > 8 && t < 25, "got {t}");
    }

    #[test]
    fn punctuation_clusters() {
        assert_eq!(count_tokens("::"), 1);
        assert_eq!(count_tokens(":: ::"), 2);
        assert_eq!(count_tokens("->"), 2); // `-` and `>` differ.
    }

    #[test]
    fn bins_cover_all_lengths() {
        assert_eq!(bin_of(0), 0);
        assert_eq!(bin_of(15), 0);
        assert_eq!(bin_of(16), 1);
        assert_eq!(bin_of(64), 3);
        assert_eq!(bin_of(511), 5);
        assert_eq!(bin_of(512), 6);
        assert_eq!(bin_labels().len(), 7);
    }

    #[test]
    fn counts_add_up_across_whitespace() {
        let pieces = ["Lemma a_b : x :: y.", "::", "(* c *)", "intros.", "é'_1"];
        for a in pieces {
            for b in pieces {
                for ws in ["\n\n", " ", "\t"] {
                    let joined = format!("{a}{ws}{b}");
                    assert_eq!(count_tokens(&joined), count_tokens(a) + count_tokens(b));
                }
            }
        }
    }

    #[test]
    fn longer_identifiers_cost_more() {
        assert!(count_tokens("a") < count_tokens("extraordinarily_long_name"));
    }
}
