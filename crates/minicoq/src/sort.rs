//! Sorts: the simple type language of the kernel.
//!
//! Sorts classify terms. The language is first-order: atoms (`nat`, `bool`,
//! opaque user sorts), applications of declared sort constructors
//! (`list A`, `prod A B`), and sort variables used for prenex polymorphism
//! in definitions and lemma statements. `Meta` sorts appear only inside
//! unification and never in goals.

use std::collections::BTreeMap;
use std::fmt;

use crate::subst::map_changed;
use crate::Ident;

/// A sort (simple type) expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sort {
    /// A declared atomic sort such as `nat` or an opaque sort `T`.
    Atom(Ident),
    /// A sort variable bound by a polymorphic definition or lemma.
    Var(Ident),
    /// An application of a sort constructor, e.g. `list nat`.
    App(Ident, Vec<Sort>),
    /// A unification metavariable; never observable in goals.
    Meta(u32),
}

impl Sort {
    /// Convenience constructor for `nat`.
    pub fn nat() -> Sort {
        Sort::Atom("nat".into())
    }

    /// Convenience constructor for `bool`.
    pub fn bool() -> Sort {
        Sort::Atom("bool".into())
    }

    /// Convenience constructor for `list a`.
    pub fn list(a: Sort) -> Sort {
        Sort::App("list".into(), vec![a])
    }

    /// Returns true if the sort contains no `Var` or `Meta` nodes.
    pub fn is_ground(&self) -> bool {
        match self {
            Sort::Atom(_) => true,
            Sort::Var(_) | Sort::Meta(_) => false,
            Sort::App(_, args) => args.iter().all(Sort::is_ground),
        }
    }

    /// Returns true if the sort contains the given metavariable.
    pub fn contains_meta(&self, m: u32) -> bool {
        match self {
            Sort::Atom(_) | Sort::Var(_) => false,
            Sort::Meta(k) => *k == m,
            Sort::App(_, args) => args.iter().any(|s| s.contains_meta(m)),
        }
    }

    /// Collects the sort variables occurring in this sort, in order.
    pub fn collect_vars(&self, out: &mut Vec<Ident>) {
        match self {
            Sort::Atom(_) | Sort::Meta(_) => {}
            Sort::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Sort::App(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// Applies a sort substitution mapping sort variables to sorts.
    pub fn subst_vars(&self, map: &BTreeMap<Ident, Sort>) -> Sort {
        self.subst_vars_opt(map).unwrap_or_else(|| self.clone())
    }

    /// [`Sort::subst_vars`], `None` when it changes nothing.
    pub(crate) fn subst_vars_opt(&self, map: &BTreeMap<Ident, Sort>) -> Option<Sort> {
        match self {
            Sort::Atom(_) | Sort::Meta(_) => None,
            Sort::Var(v) => map.get(v).cloned(),
            Sort::App(c, args) => {
                map_changed(args, |a| a.subst_vars_opt(map)).map(|args| Sort::App(c.clone(), args))
            }
        }
    }

    /// Applies a meta substitution mapping metavariables to sorts.
    pub fn subst_metas(&self, map: &BTreeMap<u32, Sort>) -> Sort {
        self.subst_metas_opt(map).unwrap_or_else(|| self.clone())
    }

    /// [`Sort::subst_metas`], `None` when it changes nothing.
    pub(crate) fn subst_metas_opt(&self, map: &BTreeMap<u32, Sort>) -> Option<Sort> {
        match self {
            Sort::Atom(_) | Sort::Var(_) => None,
            Sort::Meta(m) => map
                .get(m)
                .map(|s| s.subst_metas_opt(map).unwrap_or_else(|| s.clone())),
            Sort::App(c, args) => {
                map_changed(args, |a| a.subst_metas_opt(map)).map(|args| Sort::App(c.clone(), args))
            }
        }
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Atom(n) | Sort::Var(n) => write!(f, "{n}"),
            Sort::Meta(m) => write!(f, "?S{m}"),
            Sort::App(c, args) => {
                write!(f, "({c}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_detection() {
        assert!(Sort::nat().is_ground());
        assert!(Sort::list(Sort::bool()).is_ground());
        assert!(!Sort::list(Sort::Var("A".into())).is_ground());
        assert!(!Sort::Meta(0).is_ground());
    }

    #[test]
    fn var_substitution() {
        let mut map = BTreeMap::new();
        map.insert("A".into(), Sort::nat());
        let s = Sort::list(Sort::Var("A".into()));
        assert_eq!(s.subst_vars(&map), Sort::list(Sort::nat()));
    }

    #[test]
    fn collect_vars_dedups() {
        let s = Sort::App(
            "prod".into(),
            vec![Sort::Var("A".into()), Sort::Var("A".into())],
        );
        let mut vs = Vec::new();
        s.collect_vars(&mut vs);
        assert_eq!(vs, vec!["A".to_string()]);
    }

    #[test]
    fn display_round_trip_shape() {
        let s = Sort::list(Sort::nat());
        assert_eq!(s.to_string(), "(list nat)");
    }
}
