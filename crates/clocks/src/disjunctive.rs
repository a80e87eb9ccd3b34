//! Disjunctive forms (Section 3.4).
//!
//! A clock expression `c \ d` implicitly refers to the *absence* of the
//! events of `d`, which cannot be tested at run time.  Polychrony eliminates
//! such symmetric differences by rewriting them in terms of the presence or
//! the value of another signal: `c \ d` has a disjunctive form when `d` is
//! equivalent to a sampling `[w]` (or `[not w]`) of a boolean signal `w`
//! whose clock `^w` dominates, in the hierarchy, a common ancestor of `c`
//! and `d` — then `c \ d` can be computed as `c ∧ [not w]` (resp.
//! `c ∧ [w]`).
//!
//! A timing relation is *in disjunctive form* when every symmetric
//! difference it contains is eliminable; a process is **well-clocked**
//! (Definition 7) when its hierarchy is well-formed and its relations are
//! disjunctive.
//!
//! The witness is looked up, not searched for.  `R ⊨ d = [w]` holds exactly
//! when `R ∧ enc(d)` and `R ∧ enc([w])` are the same BDD node, and the
//! hierarchy groups its clocks by that node.  So the candidate witnesses of
//! `c \ d` are the samplings `[w]` / `[not w]` in the class of `d`, found
//! with one conjunction and one lookup whether `d` is atomic or composite.
//! They are tried in signal-name order, and the first whose `^w` passes the
//! dominance test is the rewrite.

use std::fmt;

use signal_lang::KernelProcess;

use crate::algebra::ClockAlgebra;
use crate::clock::{Clock, ClockExpr};
use crate::hierarchy::ClockHierarchy;
use crate::relation::TimingRelations;

/// The outcome of trying to eliminate one symmetric difference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffResolution {
    /// The minuend `c` of the difference.
    pub minuend: ClockExpr,
    /// The subtrahend `d` of the difference.
    pub subtrahend: ClockExpr,
    /// The sampling the difference can be rewritten with, when eliminable:
    /// `c \ d = c ∧ rewrite`.
    pub rewrite: Option<Clock>,
}

impl DiffResolution {
    /// Returns `true` when the difference has a disjunctive form.
    pub fn is_eliminable(&self) -> bool {
        self.rewrite.is_some()
    }
}

impl fmt::Display for DiffResolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.rewrite {
            Some(c) => write!(
                f,
                "({} ^- {}) rewritten as ({} ^* {c})",
                self.minuend, self.subtrahend, self.minuend
            ),
            None => write!(
                f,
                "({} ^- {}) has no disjunctive form",
                self.minuend, self.subtrahend
            ),
        }
    }
}

/// The disjunctive-form report of a process.
#[derive(Debug, Clone, Default)]
pub struct DisjunctiveForm {
    resolutions: Vec<DiffResolution>,
}

impl DisjunctiveForm {
    /// Analyzes every symmetric difference of the relations.
    ///
    /// The candidate witnesses come from `hierarchy`, which must have been
    /// built from `process` with `algebra`.
    pub fn analyze(
        _process: &KernelProcess,
        relations: &TimingRelations,
        hierarchy: &ClockHierarchy,
        algebra: &mut ClockAlgebra,
    ) -> Self {
        let relation = algebra.relation();
        let mut resolutions = Vec::new();
        for (minuend, subtrahend) in relations.diff_occurrences() {
            let enc = algebra.encode_expr(&subtrahend);
            let conditioned = algebra.bdd_mut().and(relation, enc);
            // A difference with a provably null subtrahend (`R ∧ enc(d)` is
            // false) is trivially disjunctive (`c \ 0 = c`) and needs no
            // rewrite at all.
            if algebra.bdd_mut().is_false(conditioned) {
                continue;
            }
            // Class members are listed signal by signal in name order, so
            // the candidates come out in signal-name order.
            let candidates = hierarchy
                .class_of_node(conditioned)
                .map(|class| hierarchy.class_members(class))
                .unwrap_or_default();
            let rewrite = candidates.iter().find_map(|sampling| {
                let (w, candidate) = match sampling {
                    Clock::True(w) => (w, Clock::on_false(w.clone())),
                    Clock::False(w) => (w, Clock::on_true(w.clone())),
                    Clock::Tick(_) => return None,
                };
                // The witness w must sit above a common ancestor of both
                // operands: each operand class must share a dominator with
                // the class of ^w (which covers ^w dominating it).
                let tick_class = hierarchy.class_of(&Clock::tick(w.clone()))?;
                let dominated = |expr: &ClockExpr| {
                    let mut atoms = Vec::new();
                    expr.atoms(&mut atoms);
                    atoms.iter().all(|a| {
                        hierarchy.class_of(a).is_some_and(|c| {
                            (0..hierarchy.class_count()).any(|k| {
                                hierarchy.dominates_star(k, tick_class)
                                    && hierarchy.dominates_star(k, c)
                            })
                        })
                    })
                };
                (dominated(&minuend) && dominated(&subtrahend)).then_some(candidate)
            });
            resolutions.push(DiffResolution {
                minuend,
                subtrahend,
                rewrite,
            });
        }
        DisjunctiveForm { resolutions }
    }

    /// Every analyzed difference.
    pub fn resolutions(&self) -> &[DiffResolution] {
        &self.resolutions
    }

    /// The differences that could not be eliminated.
    pub fn unresolved(&self) -> impl Iterator<Item = &DiffResolution> + '_ {
        self.resolutions.iter().filter(|r| !r.is_eliminable())
    }

    /// Returns `true` when every symmetric difference has a disjunctive
    /// form.
    pub fn is_disjunctive(&self) -> bool {
        self.resolutions.iter().all(DiffResolution::is_eliminable)
    }
}

impl fmt::Display for DisjunctiveForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.resolutions {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference;
    use signal_lang::stdlib;

    fn disjunctive_of(def: &signal_lang::ProcessDef) -> DisjunctiveForm {
        let kernel = def.normalize().unwrap();
        let relations = inference::infer(&kernel);
        let mut algebra = ClockAlgebra::new(&kernel, &relations);
        let hierarchy = ClockHierarchy::build(&kernel, &relations, &mut algebra);
        DisjunctiveForm::analyze(&kernel, &relations, &hierarchy, &mut algebra)
    }

    #[test]
    fn buffer_differences_are_eliminated_through_the_alternating_state() {
        // The paper: ^r \ ^y can be interpreted as [t] in the buffer.  The
        // analysis may equivalently pick [not s], since s := t $ init true
        // and t := not s make [t] and [not s] the same clock.
        let d = disjunctive_of(&signal_lang::stdlib::buffer());
        assert!(d.is_disjunctive(), "{d}");
        assert!(d.resolutions().iter().any(|r| matches!(
            &r.rewrite,
            Some(c) if c.signal().as_str() == "t" || c.signal().as_str() == "s"
        )));
    }

    #[test]
    fn merge_differences_are_eliminated_through_c() {
        let d = disjunctive_of(&stdlib::merge());
        assert!(d.is_disjunctive(), "{d}");
    }

    #[test]
    fn unrelated_difference_has_no_disjunctive_form() {
        use signal_lang::{Expr, ProcessBuilder};
        // x = y default z with y and z completely unrelated: the guard
        // ^z \ ^y cannot be computed from any boolean value.
        let def = ProcessBuilder::new("loose")
            .define("x", Expr::var("y").default(Expr::var("z")))
            .build()
            .unwrap();
        let d = disjunctive_of(&def);
        assert!(!d.is_disjunctive());
        assert_eq!(d.unresolved().count(), 1);
    }

    #[test]
    fn processes_without_differences_are_trivially_disjunctive() {
        let d = disjunctive_of(&stdlib::producer());
        assert!(d.is_disjunctive());
    }

    #[test]
    fn consumer_is_disjunctive() {
        let d = disjunctive_of(&stdlib::consumer());
        assert!(d.is_disjunctive(), "{d}");
    }

    #[test]
    fn ltta_is_disjunctive() {
        let d = disjunctive_of(&stdlib::ltta());
        assert!(d.is_disjunctive(), "{d}");
    }
}
