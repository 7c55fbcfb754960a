//! Identifiers: names that clone without allocating.
//!
//! Every name in a sort, term, formula, goal or tactic is an [`Ident`]. A
//! name of up to [`INLINE_CAP`] bytes (nearly all of them: variables,
//! constructors, hypothesis names, most lemma names) is stored inline, in
//! the same 24 bytes a `String` takes, so cloning it copies bytes and
//! dropping it frees nothing. A longer name lives on the heap, in a
//! `Box<str>` of its own; such names are rare (see DESIGN.md). There is no
//! global table: two equal names are equal by their bytes, wherever they
//! were built.
//!
//! An `Ident` behaves as the `String` it was built from. `==`, `cmp` and
//! `Hash` see only the bytes (`Hash` feeds a hasher exactly what
//! `str::hash` feeds it), and `Debug`/`Display` print what `String`
//! prints, so cache keys, state stamps and goldens do not depend on the
//! representation.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::ops::Deref;

/// The longest name kept inline, in bytes.
pub const INLINE_CAP: usize = 22;

/// A name of the object logic: a `str` that is stored inline when short.
#[derive(Clone)]
pub struct Ident(Repr);

#[derive(Clone)]
enum Repr {
    /// `len` bytes of UTF-8 at the front of the buffer; the rest are 0.
    Inline(InlineLen, [u8; INLINE_CAP]),
    /// A name longer than [`INLINE_CAP`] bytes.
    Heap(Box<str>),
}

/// The length of an inline name. As an enum over `0..=22` its unused byte
/// values are a niche: they encode [`Repr::Heap`], so `Repr` needs no tag
/// of its own and stays 24 bytes.
#[derive(Clone, Copy)]
#[repr(u8)]
#[rustfmt::skip]
enum InlineLen {
    L0, L1, L2, L3, L4, L5, L6, L7, L8, L9, L10, L11,
    L12, L13, L14, L15, L16, L17, L18, L19, L20, L21, L22,
}

#[rustfmt::skip]
const LENS: [InlineLen; INLINE_CAP + 1] = {
    use InlineLen::*;
    [L0, L1, L2, L3, L4, L5, L6, L7, L8, L9, L10, L11,
     L12, L13, L14, L15, L16, L17, L18, L19, L20, L21, L22]
};

const _: () = assert!(std::mem::size_of::<Ident>() == std::mem::size_of::<String>());
const _: () = assert!(std::mem::size_of::<Option<Ident>>() == std::mem::size_of::<String>());

impl Ident {
    /// The name `s`; inline when it is at most [`INLINE_CAP`] bytes.
    pub fn new(s: &str) -> Ident {
        let bytes = s.as_bytes();
        match LENS.get(bytes.len()) {
            Some(&len) => {
                let mut buf = [0u8; INLINE_CAP];
                buf[..bytes.len()].copy_from_slice(bytes);
                Ident(Repr::Inline(len, buf))
            }
            None => Ident(Repr::Heap(Box::from(s))),
        }
    }

    /// `stem` followed by the decimal digits of `n`, spelled as
    /// `format!("{stem}{n}")` spells it, with no temporary `String` when
    /// the result fits inline.
    pub fn numbered(stem: &str, n: u64) -> Ident {
        let mut buf = [0u8; INLINE_CAP];
        let mut rest = &mut buf[..];
        if write!(rest, "{stem}{n}").is_err() {
            return Ident::new(&format!("{stem}{n}"));
        }
        let len = INLINE_CAP - rest.len();
        Ident(Repr::Inline(LENS[len], buf))
    }

    /// The name as a string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline(len, buf) => {
                let bytes = &buf[..*len as usize];
                // SAFETY: an inline buffer is only ever filled by `new`,
                // which copies a whole `&str`, or by `numbered`, which
                // writes a whole `&str` and a decimal number; its first
                // `len` bytes are therefore valid UTF-8.
                unsafe { std::str::from_utf8_unchecked(bytes) }
            }
            Repr::Heap(s) => s,
        }
    }
}

impl Deref for Ident {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Ident {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Ident {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl Default for Ident {
    fn default() -> Ident {
        Ident::new("")
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Ident {
        Ident::new(s)
    }
}

impl From<&String> for Ident {
    fn from(s: &String) -> Ident {
        Ident::new(s)
    }
}

impl From<String> for Ident {
    fn from(s: String) -> Ident {
        Ident::new(&s)
    }
}

impl From<&Ident> for Ident {
    fn from(s: &Ident) -> Ident {
        s.clone()
    }
}

impl From<Ident> for String {
    fn from(s: Ident) -> String {
        s.as_str().to_owned()
    }
}

impl PartialEq for Ident {
    #[inline]
    fn eq(&self, other: &Ident) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Ident {}

impl PartialOrd for Ident {
    fn partial_cmp(&self, other: &Ident) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ident {
    #[inline]
    fn cmp(&self, other: &Ident) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Ident {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

macro_rules! eq_with_str {
    ($($other:ty),*) => {$(
        impl PartialEq<$other> for Ident {
            #[inline]
            fn eq(&self, other: &$other) -> bool {
                self.as_str() == &other[..]
            }
        }
        impl PartialEq<Ident> for $other {
            #[inline]
            fn eq(&self, other: &Ident) -> bool {
                &self[..] == other.as_str()
            }
        }
    )*};
}

eq_with_str!(str, &str, String);
