//! An `Ident` behaves exactly as the `String` it was built from: equality,
//! order, `Debug`, `Display` and `Hash` agree on generated names and on the
//! edges of the inline layout (the empty name, 21, 22 and 23 bytes, and
//! multibyte characters that straddle byte 22). Cache keys, state stamps,
//! goldens and the oracle's hashes rest on this. Keeping names inline must
//! also not grow the kernel's terms and formulas.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::mem::size_of;

use llm_fscq::minicoq::formula::Formula;
use llm_fscq::minicoq::ident::INLINE_CAP;
use llm_fscq::minicoq::term::Term;
use llm_fscq::minicoq::Ident;

fn sip<T: Hash + ?Sized>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Names at the edges of the inline layout.
fn edge_names() -> Vec<String> {
    let a = |n: usize| "a".repeat(n);
    let mut names = vec![String::new(), "x".into(), "H0".into(), "nat".into()];
    for n in [INLINE_CAP - 1, INLINE_CAP, INLINE_CAP + 1, 40] {
        names.push(a(n));
        names.push(format!("{}b", a(n - 1)));
    }
    // A 2-, 3- and 4-byte character ending at, crossing or starting
    // just past byte 22.
    for ch in ['é', '中', '😀'] {
        let w = ch.len_utf8();
        for start in INLINE_CAP - w..=INLINE_CAP {
            names.push(format!("{}{ch}", a(start)));
        }
    }
    names.push("é".repeat(11));
    names.push("中".repeat(8));
    names
}

/// Deterministic pseudo-random names of 0 to 30 characters over an
/// alphabet with ASCII letters, digits, `_`, `'` and multibyte characters.
fn generated_names(count: usize) -> Vec<String> {
    const ALPHABET: [char; 12] = [
        'a', 'b', 'z', 'A', 'S', '0', '9', '_', '\'', 'é', '中', '😀',
    ];
    let mut state: u64 = 0x1D5E_ED00_2026;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    (0..count)
        .map(|_| {
            let len = next() % 31;
            (0..len)
                .map(|_| ALPHABET[next() % ALPHABET.len()])
                .collect()
        })
        .collect()
}

#[test]
fn ident_compares_prints_and_hashes_as_its_string() {
    let mut names = edge_names();
    names.extend(generated_names(400));
    let idents: Vec<Ident> = names.iter().map(|s| Ident::from(s.as_str())).collect();
    for (s, id) in names.iter().zip(&idents) {
        assert_eq!(id.as_str(), s);
        assert_eq!(format!("{id:?}"), format!("{s:?}"));
        assert_eq!(format!("{id}"), format!("{s}"));
        assert_eq!(format!("{id:>30}|{id:<3}|"), format!("{s:>30}|{s:<3}|"));
        assert_eq!(sip(id), sip(s), "hash of {s:?}");
        assert_eq!(sip(&id.clone()), sip(s));
        assert_eq!(Ident::from(s.clone()), *id);
        assert_eq!(String::from(id.clone()), *s);
    }
    for (a, ia) in names.iter().zip(&idents) {
        for (b, ib) in names.iter().zip(&idents) {
            assert_eq!(ia.cmp(ib), a.cmp(b), "{a:?} vs {b:?}");
            assert_eq!(ia == ib, a == b, "{a:?} vs {b:?}");
            assert_eq!(*ia == **b, a == b);
            assert_eq!(*ia == *b, a == b);
        }
    }
}

#[test]
fn ident_hashes_as_its_string_after_a_prefix() {
    // A hasher that has already seen other data, as in the oracle's
    // seeded query hashes: the name must feed it the same bytes and
    // terminator as `str::hash`.
    for s in edge_names().iter().chain(&generated_names(100)) {
        let id = Ident::from(s.as_str());
        let mut with_ident = DefaultHasher::new();
        let mut with_string = DefaultHasher::new();
        for h in [&mut with_ident, &mut with_string] {
            "prefix".hash(h);
            7u32.hash(h);
        }
        id.hash(&mut with_ident);
        "tail".hash(&mut with_ident);
        s.hash(&mut with_string);
        "tail".hash(&mut with_string);
        assert_eq!(with_ident.finish(), with_string.finish(), "{s:?}");
    }
}

#[test]
fn numbered_idents_spell_as_format() {
    let long = "x".repeat(INLINE_CAP);
    for stem in ["", "H", "IHl", "_w", "#S", "é", long.as_str()] {
        for n in [0, 1, 9, 10, 12_345, u64::MAX] {
            assert_eq!(Ident::numbered(stem, n), format!("{stem}{n}"));
        }
    }
}

#[test]
fn terms_and_formulas_do_not_grow() {
    assert_eq!(size_of::<Ident>(), size_of::<String>());
    assert_eq!(size_of::<Option<Ident>>(), size_of::<String>());
    assert!(
        size_of::<Term>() <= 48,
        "Term is {} bytes",
        size_of::<Term>()
    );
    assert!(
        size_of::<Formula>() <= 144,
        "Formula is {} bytes",
        size_of::<Formula>()
    );
}
