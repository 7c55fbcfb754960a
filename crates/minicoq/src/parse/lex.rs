//! Lexer shared by the formula, term and tactic parsers.

use std::fmt;

use crate::Ident;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(Ident),
    /// Decimal numeral.
    Num(u64),
    /// Punctuation or operator.
    Sym(&'static str),
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Num(n) => write!(f, "{n}"),
            Tok::Sym(s) => write!(f, "{s}"),
        }
    }
}

/// A lexing or parsing error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Produces the token stream for `src`, skipping whitespace and `(* *)`
/// comments (which may nest).
pub fn lex(src: &str) -> Result<Vec<Tok>, ParseError> {
    let b = src.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '(' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'(' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b')' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            if depth > 0 {
                return Err(ParseError("unterminated comment".into()));
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < b.len() {
                let c = b[i] as char;
                if c.is_ascii_alphanumeric() || c == '_' || c == '\'' {
                    i += 1;
                } else {
                    break;
                }
            }
            out.push(Tok::Ident(Ident::new(&src[start..i])));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && (b[i] as char).is_ascii_digit() {
                i += 1;
            }
            let n: u64 = src[start..i]
                .parse()
                .map_err(|_| ParseError("numeral too large".into()))?;
            out.push(Tok::Num(n));
            continue;
        }
        // Multi-character symbols, longest first.
        const SYMS: &[&str] = &[
            "<->", "->", "<-", "<>", "<=", ">=", ":=", "::", "=>", "/\\", "\\/", "||", "(", ")",
            "[", "]", "{", "}", ",", ";", ".", ":", "=", "<", ">", "|", "~", "*", "+", "-", "!",
            "?", "@", "/",
        ];
        let rest = &src[i..];
        let mut matched = false;
        for s in SYMS {
            if rest.starts_with(s) {
                out.push(Tok::Sym(s));
                i += s.len();
                matched = true;
                break;
            }
        }
        if !matched {
            return Err(ParseError(format!("unexpected character {c:?}")));
        }
    }
    Ok(out)
}

/// A cursor over a token stream with single-token lookahead helpers.
#[derive(Debug, Clone)]
pub struct Cursor {
    toks: Vec<Tok>,
    pos: usize,
}

impl Cursor {
    /// Creates a cursor at the start of the stream.
    pub fn new(toks: Vec<Tok>) -> Cursor {
        Cursor { toks, pos: 0 }
    }

    /// Peeks at the current token.
    pub fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    /// Peeks `k` tokens ahead.
    pub fn peek_at(&self, k: usize) -> Option<&Tok> {
        self.toks.get(self.pos + k)
    }

    /// Consumes and returns the current token.
    #[allow(clippy::should_implement_trait)] // A cursor, not an iterator.
    pub fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes the given symbol or fails.
    pub fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Sym(t)) if t == s => Ok(()),
            other => Err(ParseError(format!("expected `{s}`, found {other:?}"))),
        }
    }

    /// Consumes the given keyword or fails.
    pub fn expect_kw(&mut self, s: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Ident(t)) if t == s => Ok(()),
            other => Err(ParseError(format!("expected `{s}`, found {other:?}"))),
        }
    }

    /// Consumes an identifier.
    pub fn expect_ident(&mut self) -> Result<Ident, ParseError> {
        match self.next() {
            Some(Tok::Ident(t)) => Ok(t),
            other => Err(ParseError(format!("expected identifier, found {other:?}"))),
        }
    }

    /// True and consumes if the current token is the symbol `s`.
    pub fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(t)) if *t == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// True and consumes if the current token is the keyword `s`.
    pub fn eat_kw(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(t)) if t == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// True if the current token is the keyword `s` (no consumption).
    pub fn at_kw(&self, s: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(t)) if t == s)
    }

    /// True if the current token is the symbol `s` (no consumption).
    pub fn at_sym(&self, s: &str) -> bool {
        matches!(self.peek(), Some(Tok::Sym(t)) if *t == s)
    }

    /// True at end of stream.
    pub fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Remaining tokens (diagnostics).
    pub fn remainder(&self) -> &[Tok] {
        &self.toks[self.pos.min(self.toks.len())..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_symbols_longest_first() {
        let toks = lex("a <-> b -> c <- d <> e").unwrap();
        let syms: Vec<String> = toks.iter().map(|t| t.to_string()).collect();
        assert_eq!(syms, vec!["a", "<->", "b", "->", "c", "<-", "d", "<>", "e"]);
    }

    #[test]
    fn skips_nested_comments() {
        let toks = lex("x (* outer (* inner *) still *) y").unwrap();
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn numerals_and_primes() {
        let toks = lex("l' 42 H0").unwrap();
        assert_eq!(
            toks,
            vec![
                Tok::Ident("l'".into()),
                Tok::Num(42),
                Tok::Ident("H0".into())
            ]
        );
    }

    #[test]
    fn reports_unterminated_comment() {
        assert!(lex("(* oops").is_err());
    }
}
