//! The clock hierarchy of Section 3.3 (Definition 5).
//!
//! The hierarchy represents the control flow of a process by a partial order
//! on clock equivalence classes:
//!
//! 1. for every boolean signal `x`, `^x ≽ [x]` and `^x ≽ [not x]` — once `x`
//!    is known to be present, its value decides which sub-clock is active;
//! 2. clocks equal under `R` belong to the same equivalence class;
//! 3. if `b1 = c1 f c2` is deducible from `R` and a class `b2` dominating
//!    both `c1` and `c2` exists (taking the lowest such class), then
//!    `b2 ≽ b1`.
//!
//! A process whose hierarchy has a single root is *hierarchic*; a compilable
//! and hierarchic process is endochronous (Property 2 of the paper).
//!
//! Two representations keep the queries cheap.  Classes are keyed by the
//! BDD node `R ∧ enc(c)` itself, and the hierarchy keeps that map, so the
//! class of any clock expression is one conjunction and one lookup away
//! (the disjunctive pass finds its witnesses that way).  Dominance is kept
//! *closed*: besides the direct edges, every class carries the bitset of
//! the classes it dominates reflexively and transitively, updated on every
//! edge rule 1 or the rule-3 fixpoint inserts.
//! [`ClockHierarchy::dominates_star`] is then a bit test, and the
//! dominators, the roots and the Definition 6 cycle check read the same
//! bitsets.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use signal_lang::{KernelProcess, Name};

use crate::algebra::ClockAlgebra;
use crate::bdd::{FxHashMap, NodeRef};
use crate::clock::{Clock, ClockExpr};
use crate::relation::TimingRelations;

/// Identifier of a clock equivalence class inside a [`ClockHierarchy`].
pub type ClassId = usize;

/// The clock hierarchy of a process.
#[derive(Debug, Clone)]
pub struct ClockHierarchy {
    classes: Vec<Vec<Clock>>,
    class_of: BTreeMap<Clock, ClassId>,
    /// The class of every node `R ∧ enc(c)` of a considered clock `c`.
    class_of_node: FxHashMap<NodeRef, ClassId>,
    /// `dominates[i]` is the set of classes directly dominated by `i`.
    dominates: Vec<BTreeSet<ClassId>>,
    /// `reach[i]` is the bitset of the classes `i` dominates, reflexively
    /// and transitively: the closure of `dominates`.
    reach: Vec<Vec<u64>>,
    ill_formed: Vec<String>,
    null_classes: BTreeSet<ClassId>,
}

impl ClockHierarchy {
    /// Builds the hierarchy of a process from its relations and algebra.
    pub fn build(
        process: &KernelProcess,
        relations: &TimingRelations,
        algebra: &mut ClockAlgebra,
    ) -> Self {
        // 1. Clocks of interest: ^x for every signal, [x] / [not x] for
        //    boolean signals.
        let booleans = process.boolean_signals();
        let mut clocks: Vec<Clock> = Vec::new();
        for name in process.signal_set() {
            clocks.push(Clock::Tick(name.clone()));
            if booleans.contains(&name) {
                clocks.push(Clock::True(name.clone()));
                clocks.push(Clock::False(name.clone()));
            }
        }

        // 2. Equivalence classes: c ~ d iff R ⊨ c = d, i.e. R ∧ enc(c) and
        //    R ∧ enc(d) denote the same Boolean function, which canonicity
        //    makes the same node.
        let relation = algebra.relation();
        let mut class_of_node: FxHashMap<NodeRef, ClassId> = FxHashMap::default();
        let mut classes: Vec<Vec<Clock>> = Vec::new();
        let mut class_of: BTreeMap<Clock, ClassId> = BTreeMap::new();
        let mut null_classes: BTreeSet<ClassId> = BTreeSet::new();
        for clock in &clocks {
            let enc = algebra.encode_clock(clock);
            let conditioned = algebra.bdd_mut().and(relation, enc);
            let id = *class_of_node.entry(conditioned).or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[id].push(clock.clone());
            class_of.insert(clock.clone(), id);
            if algebra.bdd_mut().is_false(conditioned) {
                null_classes.insert(id);
            }
        }

        let words = classes.len().div_ceil(64);
        let reach = (0..classes.len())
            .map(|id| {
                let mut row = vec![0; words];
                row[id / 64] |= 1 << (id % 64);
                row
            })
            .collect();
        let mut hierarchy = ClockHierarchy {
            dominates: vec![BTreeSet::new(); classes.len()],
            reach,
            classes,
            class_of,
            class_of_node,
            ill_formed: Vec::new(),
            null_classes,
        };

        // Rule 1: ^x dominates [x] and [not x].
        for name in &booleans {
            let tick = hierarchy.class_of[&Clock::Tick(name.clone())];
            for sample in [Clock::True(name.clone()), Clock::False(name.clone())] {
                let sampled = hierarchy.class_of[&sample];
                if sampled == tick {
                    // `^x ~ [x]` collapses the presence of x with one of its
                    // value samplings.  For a *defined* signal this merely
                    // records that its computed value is constant (e.g.
                    // `x := true when c` in the filter); for an *input* it is
                    // a constraint on the environment that may block the
                    // process (the paper's `z = y when y` example), which
                    // Definition 6 flags as ill-formed.  Null classes (the
                    // signal can never be present) are ignored.
                    if process.is_input(name.as_str()) && !hierarchy.null_classes.contains(&tick) {
                        hierarchy
                            .ill_formed
                            .push(format!("^{name} is equivalent to {sample}"));
                    }
                } else {
                    hierarchy.insert_edge(tick, sampled);
                }
            }
        }

        // Rule 3, iterated to a fixed point together with the transitive
        // information accumulated so far.
        let definitions = binary_definitions(relations);
        let mut changed = true;
        while changed {
            changed = false;
            for (lhs, c1, c2) in &definitions {
                let (Some(&b1), Some(&k1), Some(&k2)) = (
                    hierarchy.class_of.get(lhs),
                    hierarchy.class_of.get(c1),
                    hierarchy.class_of.get(c2),
                ) else {
                    continue;
                };
                let common: Vec<ClassId> = (0..hierarchy.classes.len())
                    .filter(|&c| hierarchy.dominates_star(c, k1) && hierarchy.dominates_star(c, k2))
                    .collect();
                // The lowest common dominator: dominated by every other
                // common dominator.
                let lowest = common.iter().copied().find(|&candidate| {
                    common
                        .iter()
                        .all(|&other| hierarchy.dominates_star(other, candidate))
                });
                if let Some(b2) = lowest {
                    if b2 != b1 && hierarchy.insert_edge(b2, b1) {
                        changed = true;
                    }
                }
            }
        }

        // Definition 6: a dominance cycle between distinct classes makes the
        // hierarchy ill-formed.
        for i in 0..hierarchy.classes.len() {
            for j in (i + 1)..hierarchy.classes.len() {
                if hierarchy.dominates_star(i, j) && hierarchy.dominates_star(j, i) {
                    hierarchy.ill_formed.push(format!(
                        "dominance cycle between {} and {}",
                        hierarchy.describe_class(i),
                        hierarchy.describe_class(j)
                    ));
                }
            }
        }

        hierarchy
    }

    /// Records that `from` directly dominates `to` and closes `reach` over
    /// the new edge: every class that reaches `from` gains `to`'s set.
    /// Returns `false` when the edge was already there.
    fn insert_edge(&mut self, from: ClassId, to: ClassId) -> bool {
        if !self.dominates[from].insert(to) {
            return false;
        }
        let gained = self.reach[to].clone();
        for row in &mut self.reach {
            if has_bit(row, from) {
                for (word, bits) in row.iter_mut().zip(&gained) {
                    *word |= bits;
                }
            }
        }
        true
    }

    /// The number of clock equivalence classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The members of a class, in signal-name order (`^x`, then `[x]` and
    /// `[not x]` for a boolean `x`).
    pub fn class_members(&self, id: ClassId) -> &[Clock] {
        &self.classes[id]
    }

    /// The class of a clock, if the clock was considered.
    pub fn class_of(&self, clock: &Clock) -> Option<ClassId> {
        self.class_of.get(clock).copied()
    }

    /// The class of the clocks `c` with `R ∧ enc(c) = node`, if any.  For
    /// `node = R ∧ enc(e)`, computed in the algebra the hierarchy was built
    /// with, this is the class of the clocks equal to the expression `e`
    /// under `R`.
    pub(crate) fn class_of_node(&self, node: NodeRef) -> Option<ClassId> {
        self.class_of_node.get(&node).copied()
    }

    /// Returns `true` when two clocks are in the same equivalence class.
    pub fn same_class(&self, a: &Clock, b: &Clock) -> bool {
        match (self.class_of(a), self.class_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// The classes directly dominated by `id`.
    pub fn children(&self, id: ClassId) -> impl Iterator<Item = ClassId> + '_ {
        self.dominates[id].iter().copied()
    }

    /// Does `a` dominate `b` (reflexively and transitively)?
    pub fn dominates_star(&self, a: ClassId, b: ClassId) -> bool {
        has_bit(&self.reach[a], b)
    }

    /// The classes that dominate `id`, reflexively and transitively.
    pub fn dominators_of(&self, id: ClassId) -> BTreeSet<ClassId> {
        (0..self.classes.len())
            .filter(|&c| self.dominates_star(c, id))
            .collect()
    }

    /// The roots of the hierarchy: classes not dominated by any other class.
    ///
    /// Classes whose clock is provably null under `R` (they can never be
    /// present) are ignored — they carry no control.
    pub fn roots(&self) -> Vec<ClassId> {
        (0..self.classes.len())
            .filter(|&c| !self.null_classes.contains(&c))
            .filter(|&c| {
                (0..self.classes.len()).all(|other| other == c || !self.dominates_star(other, c))
            })
            .collect()
    }

    /// Returns `true` when the hierarchy has a single root (Definition 11:
    /// the process is *hierarchic*).
    pub fn is_hierarchic(&self) -> bool {
        self.roots().len() <= 1
    }

    /// Returns `true` when no rule of Definition 6 is violated.
    pub fn is_well_formed(&self) -> bool {
        self.ill_formed.is_empty()
    }

    /// Human-readable reasons why the hierarchy is ill-formed.
    pub fn ill_formed_reasons(&self) -> &[String] {
        &self.ill_formed
    }

    /// The signals whose clock class is dominated by `root` (including the
    /// root's own signals).  This is the sub-process "tree" `⊑ root` used by
    /// the weak-hierarchy decomposition.
    pub fn signals_under(&self, root: ClassId) -> BTreeSet<Name> {
        let mut out = BTreeSet::new();
        for (clock, &class) in &self.class_of {
            if let Clock::Tick(name) = clock {
                if self.dominates_star(root, class) {
                    out.insert(name.clone());
                }
            }
        }
        out
    }

    /// A short description of a class (its members joined by `~`).
    pub fn describe_class(&self, id: ClassId) -> String {
        self.classes[id]
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(" ~ ")
    }

    /// Renders the hierarchy as an indented forest, mirroring the figures of
    /// the paper.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for root in self.roots() {
            self.render_class(root, 0, &mut out, &mut BTreeSet::new());
        }
        out
    }

    fn render_class(
        &self,
        id: ClassId,
        depth: usize,
        out: &mut String,
        seen: &mut BTreeSet<ClassId>,
    ) {
        if !seen.insert(id) {
            return;
        }
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.describe_class(id));
        out.push('\n');
        for child in self.children(id) {
            self.render_class(child, depth + 1, out, seen);
        }
    }
}

impl fmt::Display for ClockHierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Collects the binary clock definitions `b1 = c1 f c2` (with atomic
/// operands) usable by rule 3 of Definition 5.
fn binary_definitions(relations: &TimingRelations) -> Vec<(Clock, Clock, Clock)> {
    let mut out = Vec::new();
    for (l, r) in &relations.equalities {
        collect_binary(l, r, &mut out);
        collect_binary(r, l, &mut out);
    }
    out
}

fn collect_binary(
    atom_side: &ClockExpr,
    expr_side: &ClockExpr,
    out: &mut Vec<(Clock, Clock, Clock)>,
) {
    let Some(lhs) = atom_side.as_atom() else {
        return;
    };
    let (a, b) = match expr_side {
        ClockExpr::And(a, b) | ClockExpr::Or(a, b) | ClockExpr::Diff(a, b) => (a, b),
        _ => return,
    };
    if let (Some(c1), Some(c2)) = (a.as_atom(), b.as_atom()) {
        out.push((lhs.clone(), c1.clone(), c2.clone()));
    }
}

/// Is class `id` in the bitset `row`?
fn has_bit(row: &[u64], id: ClassId) -> bool {
    row[id / 64] & (1 << (id % 64)) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference;
    use signal_lang::stdlib;

    fn hierarchy_of(def: &signal_lang::ProcessDef) -> ClockHierarchy {
        let kernel = def.normalize().unwrap();
        let relations = inference::infer(&kernel);
        let mut algebra = ClockAlgebra::new(&kernel, &relations);
        ClockHierarchy::build(&kernel, &relations, &mut algebra)
    }

    #[test]
    fn buffer_hierarchy_matches_the_paper_figure() {
        // ^r ~ ^s ~ ^t at the root, [t] ~ ^x and [not t] ~ ^y below.
        let h = hierarchy_of(&stdlib::buffer());
        assert!(h.is_well_formed(), "{:?}", h.ill_formed_reasons());
        assert!(h.is_hierarchic(), "roots: {:?}", h.roots().len());
        assert!(h.same_class(&Clock::tick("r"), &Clock::tick("t")));
        assert!(h.same_class(&Clock::tick("s"), &Clock::tick("t")));
        assert!(h.same_class(&Clock::tick("x"), &Clock::on_true("t")));
        assert!(h.same_class(&Clock::tick("y"), &Clock::on_false("t")));
        let root = h.roots()[0];
        let x_class = h.class_of(&Clock::tick("x")).unwrap();
        let y_class = h.class_of(&Clock::tick("y")).unwrap();
        assert!(h.dominates_star(root, x_class));
        assert!(h.dominates_star(root, y_class));
    }

    #[test]
    fn filter_is_hierarchic() {
        let h = hierarchy_of(&stdlib::filter());
        assert!(h.is_hierarchic());
        assert!(h.is_well_formed());
        // The root class contains the input clock ^y.
        let root = h.roots()[0];
        assert!(h.class_members(root).iter().any(|c| *c == Clock::tick("y")));
    }

    #[test]
    fn producer_and_consumer_are_hierarchic_but_their_composition_is_not() {
        assert!(hierarchy_of(&stdlib::producer()).is_hierarchic());
        assert!(hierarchy_of(&stdlib::consumer()).is_hierarchic());
        let h = hierarchy_of(&stdlib::producer_consumer());
        assert!(!h.is_hierarchic());
        assert_eq!(h.roots().len(), 2);
    }

    #[test]
    fn filter_merge_composition_has_two_roots() {
        let h = hierarchy_of(&stdlib::filter_merge());
        assert!(h.is_well_formed());
        assert_eq!(h.roots().len(), 2);
    }

    #[test]
    fn ltta_has_one_root_per_device_clock() {
        let h = hierarchy_of(&stdlib::ltta());
        assert!(h.is_well_formed(), "{:?}", h.ill_formed_reasons());
        // Writer (cw), two bus buffers (their alternating states) and the
        // reader (cr): four independent pacemakers, as in the paper's figure.
        assert_eq!(h.roots().len(), 4);
    }

    #[test]
    fn ill_formed_hierarchy_is_detected() {
        use signal_lang::{Expr, ProcessBuilder};
        // x = y and z | z = y when y : ^z ~ [y] forces ^y ~ [y].
        let def = ProcessBuilder::new("ill")
            .define("x", Expr::var("y").and(Expr::var("z")))
            .define("z", Expr::var("y").when(Expr::var("y")))
            .build()
            .unwrap();
        let h = hierarchy_of(&def);
        assert!(!h.is_well_formed());
    }

    #[test]
    fn signals_under_a_root_cover_the_whole_tree_for_endochronous_processes() {
        let h = hierarchy_of(&stdlib::buffer());
        let root = h.roots()[0];
        let signals = h.signals_under(root);
        assert!(signals.contains("x"));
        assert!(signals.contains("y"));
        assert!(signals.contains("t"));
    }

    #[test]
    fn render_lists_every_root() {
        let h = hierarchy_of(&stdlib::producer_consumer());
        let text = h.render();
        assert!(text.contains("^a"));
        assert!(text.contains("^b"));
    }
}
