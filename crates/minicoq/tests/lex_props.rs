//! Property-based tests for the lexical layer: the lexer and the sentence
//! splitter must be total (no panics) on arbitrary input and must satisfy
//! the round-trip and compositionality laws the rest of the stack assumes.

use minicoq::fuel::Fuel;
use minicoq::parse::lex::{lex, Tok};
use minicoq::parse::split_sentences;
use proptest::prelude::*;

proptest! {
    /// The lexer never panics, whatever bytes arrive (models can propose
    /// anything).
    #[test]
    fn lexer_is_total(src in "\\PC{0,200}") {
        let _ = lex(&src);
    }

    /// Lexing the display form of a token stream reproduces the stream
    /// (idents/numbers/symbols separated by spaces).
    #[test]
    fn lexing_round_trips_rendered_tokens(
        words in proptest::collection::vec("[a-z][a-z0-9_]{0,8}", 1..8),
        nums in proptest::collection::vec(0u64..100_000, 0..4),
    ) {
        let mut rendered = String::new();
        let mut expected = Vec::new();
        for w in &words {
            rendered.push_str(w);
            rendered.push(' ');
            expected.push(Tok::Ident(w.as_str().into()));
        }
        for n in &nums {
            rendered.push_str(&n.to_string());
            rendered.push(' ');
            expected.push(Tok::Num(*n));
        }
        prop_assert_eq!(lex(&rendered).unwrap(), expected);
    }

    /// Whitespace between tokens never changes the lex result.
    #[test]
    fn whitespace_is_insignificant(
        ws in proptest::collection::vec("[ \\t\\n]{1,3}", 4..6),
    ) {
        let tight = lex("apply foo in H").unwrap();
        let spaced = format!("apply{}foo{}in{}H{}", ws[0], ws[1], ws[2], ws[3]);
        prop_assert_eq!(lex(&spaced).unwrap(), tight);
    }

    /// The splitter is total on arbitrary input.
    #[test]
    fn splitter_is_total(src in "\\PC{0,300}") {
        let _ = split_sentences(&src);
    }

    /// Joining split sentences with ". " and re-splitting is a fixpoint.
    #[test]
    fn splitting_is_idempotent(
        sents in proptest::collection::vec("[a-z][a-z ]{0,20}[a-z]", 1..6),
    ) {
        let script = format!("{}.", sents.join(". "));
        let once = split_sentences(&script);
        let again = split_sentences(&format!("{}.", once.join(". ")));
        prop_assert_eq!(once, again);
    }

    /// On well-formed scripts (no stray dots inside sentences) the output
    /// sentences are non-empty and carry no terminator.
    #[test]
    fn split_output_is_clean(
        sents in proptest::collection::vec("[a-z][a-z ()*]{0,30}", 0..6),
    ) {
        let script = sents
            .iter()
            .map(|s| format!("{}.", s.trim()))
            .collect::<Vec<_>>()
            .join(" ");
        for s in split_sentences(&script) {
            prop_assert!(!s.is_empty());
            prop_assert!(!s.ends_with('.'), "{s:?}");
        }
    }

    /// Inserting a comment between two sentences never changes the split.
    #[test]
    fn comments_are_invisible_to_the_splitter(
        comment in "[a-z ]{0,30}",
    ) {
        let plain = split_sentences("intros n. reflexivity.");
        let commented =
            split_sentences(&format!("intros n. (* {comment} *) reflexivity."));
        prop_assert_eq!(plain, commented);
    }

    /// Fuel accounting: `spent` grows by exactly the charge, `remaining`
    /// shrinks until exhaustion, and exhaustion is sticky.
    #[test]
    fn fuel_arithmetic_is_exact(
        budget in 0u64..10_000,
        charges in proptest::collection::vec(0u64..500, 0..32),
    ) {
        let mut f = Fuel::new(budget);
        let mut expect_remaining = budget;
        let mut dead = false;
        for c in charges {
            let before_spent = f.spent();
            let r = f.charge(c);
            prop_assert_eq!(f.spent(), before_spent + c);
            if dead {
                // Once dead the budget can only stay at (or reach) zero.
                prop_assert!(r.is_err() || c == 0 || f.remaining() < expect_remaining);
            }
            if r.is_ok() {
                expect_remaining -= c;
                prop_assert_eq!(f.remaining(), expect_remaining);
            } else {
                dead = true;
                prop_assert_eq!(f.remaining(), 0);
                expect_remaining = 0;
            }
        }
    }
}
