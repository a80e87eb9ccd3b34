//! The Boolean algebra in which timing relations are interpreted.
//!
//! Every signal `x` of a process contributes two propositional variables:
//! `p(x)` — "x is present at the instant under consideration" — and `v(x)` —
//! "x is present and carries the value true" (only meaningful for boolean
//! signals).  Clocks are encoded as:
//!
//! * `^x  ↦  p(x)`
//! * `[x]  ↦  p(x) ∧ v(x)`
//! * `[not x]  ↦  p(x) ∧ ¬v(x)`
//!
//! so the axioms `^x = [x] ∨ [not x]` and `[x] ∧ [not x] = 0` of the paper
//! hold by construction.  The relation `R` of a process is the conjunction
//! of the encodings of its clock equalities and inclusions, together with
//! instantaneous boolean value facts extracted from the kernel equations
//! (e.g. `t := not s` contributes `p(t) ⇒ (v(t) ⇔ ¬v(s))`), which gives the
//! algebra enough precision to derive equivalences such as
//! `^r = ^x ∨ ^y = [t] ∨ [not t] = ^t` in the buffer example.
//!
//! `R ⊨ S` (Section 3.2) is then BDD entailment.

use std::collections::BTreeMap;

use signal_lang::{Atom, KernelEq, KernelProcess, Name, PrimOp, Value};

use crate::bdd::{Bdd, NodeRef, Var};
use crate::clock::{Clock, ClockExpr};
use crate::relation::TimingRelations;

/// The strategy used to order BDD variables.
///
/// The default, [`VariableOrder::Grouped`], keeps the variables of
/// independent sub-processes contiguous so that their relations conjoin
/// without blowing up the BDD.  [`VariableOrder::NameOrder`] is the naive
/// lexicographic ordering; it is kept for the ordering ablation (benchmark
/// E12), where it exhibits the classic exponential interleaving pathology on
/// compositions of independent components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VariableOrder {
    /// Signals grouped by connected component of the co-occurrence relation,
    /// components ordered by first occurrence (the default).
    #[default]
    Grouped,
    /// Plain lexicographic signal-name order.
    NameOrder,
}

/// The BDD-backed interpretation of a process' timing relations.
#[derive(Debug)]
pub struct ClockAlgebra {
    bdd: Bdd,
    presence: BTreeMap<Name, Var>,
    value: BTreeMap<Name, Var>,
    relation: NodeRef,
}

impl ClockAlgebra {
    /// Builds the algebra of a kernel process from its inferred relations,
    /// using the default ([`VariableOrder::Grouped`]) variable ordering.
    pub fn new(process: &KernelProcess, relations: &TimingRelations) -> Self {
        ClockAlgebra::with_order(process, relations, VariableOrder::Grouped)
    }

    /// Builds the algebra with an explicit BDD variable ordering strategy.
    pub fn with_order(
        process: &KernelProcess,
        relations: &TimingRelations,
        order: VariableOrder,
    ) -> Self {
        let bdd = Bdd::new();
        let mut presence = BTreeMap::new();
        let mut value = BTreeMap::new();
        // Interleave presence and value variables signal by signal.  With
        // the grouped ordering, signals are grouped by the connected
        // component of the "appears in the same equation or constraint"
        // relation, components ordered by first occurrence: signals of
        // independent sub-processes then occupy contiguous variable ranges,
        // so their relations conjoin without blowing up the BDD — which is
        // what keeps the static criterion cheap on large compositions.
        let ordered = match order {
            VariableOrder::Grouped => variable_order(process),
            VariableOrder::NameOrder => process.signal_set().into_iter().collect(),
        };
        for (i, name) in ordered.into_iter().enumerate() {
            presence.insert(name.clone(), Var((2 * i) as u32));
            value.insert(name, Var((2 * i + 1) as u32));
        }
        let mut algebra = ClockAlgebra {
            bdd,
            presence,
            value,
            relation: NodeRef::TRUE,
        };
        // The facts of R: clock equalities and inclusions, then the
        // instantaneous boolean value facts of the kernel equations.
        let mut facts = Vec::new();
        for (l, r) in &relations.equalities {
            let el = algebra.encode_expr(l);
            let er = algebra.encode_expr(r);
            facts.push(algebra.bdd.iff(el, er));
        }
        for (small, large) in &relations.inclusions {
            let es = algebra.encode_expr(small);
            let el = algebra.encode_expr(large);
            facts.push(algebra.bdd.implies(es, el));
        }
        let booleans = process.boolean_signals();
        for eq in process.equations() {
            if let Some(fact) = algebra.value_fact(eq, &booleans) {
                facts.push(fact);
            }
        }

        // Conjoin them pairwise in a balanced tree rather than folding each
        // into one growing BDD: neighbouring facts mostly share signals, so
        // the partial conjunctions stay small until the last levels.  R is
        // canonical, so the order changes no verdict, only the intermediate
        // node count.
        while facts.len() > 1 {
            facts = facts
                .chunks(2)
                .map(|pair| match *pair {
                    [a, b] => algebra.bdd.and(a, b),
                    _ => pair[0],
                })
                .collect();
        }
        algebra.relation = facts.pop().unwrap_or(NodeRef::TRUE);
        algebra
    }

    /// The relation `R` of the process as a BDD.
    pub fn relation(&self) -> NodeRef {
        self.relation
    }

    /// The number of BDD nodes allocated while building and querying the
    /// relation — the size metric compared by the variable-ordering ablation.
    pub fn bdd_node_count(&self) -> usize {
        self.bdd.node_count()
    }

    /// Grants access to the underlying BDD manager (used by the analyses to
    /// build additional constraints on top of `R`).
    pub fn bdd_mut(&mut self) -> &mut Bdd {
        &mut self.bdd
    }

    /// The presence variable `p(x)` of a signal.
    ///
    /// # Panics
    ///
    /// Panics if the signal does not belong to the process.
    pub fn presence_var(&self, name: &str) -> Var {
        *self
            .presence
            .get(name)
            .unwrap_or_else(|| panic!("unknown signal {name}"))
    }

    /// The value variable `v(x)` of a signal.
    ///
    /// # Panics
    ///
    /// Panics if the signal does not belong to the process.
    pub fn value_var(&self, name: &str) -> Var {
        *self
            .value
            .get(name)
            .unwrap_or_else(|| panic!("unknown signal {name}"))
    }

    /// The signals known to the algebra, in variable order.
    pub fn signals(&self) -> impl Iterator<Item = &Name> + '_ {
        self.presence.keys()
    }

    /// Returns `true` when the signal belongs to the process the algebra
    /// was built from (encoding a clock of an unknown signal panics).
    pub fn has_signal(&self, name: &str) -> bool {
        self.presence.contains_key(name)
    }

    /// Encodes an atomic clock.
    pub fn encode_clock(&mut self, clock: &Clock) -> NodeRef {
        match clock {
            Clock::Tick(n) => {
                let p = self.presence_var(n.as_str());
                self.bdd.var(p)
            }
            Clock::True(n) => {
                let p = self.presence_var(n.as_str());
                let v = self.value_var(n.as_str());
                let pv = self.bdd.var(p);
                let vv = self.bdd.var(v);
                self.bdd.and(pv, vv)
            }
            Clock::False(n) => {
                let p = self.presence_var(n.as_str());
                let v = self.value_var(n.as_str());
                let pv = self.bdd.var(p);
                let vv = self.bdd.nvar(v);
                self.bdd.and(pv, vv)
            }
        }
    }

    /// Encodes a clock expression.
    pub fn encode_expr(&mut self, expr: &ClockExpr) -> NodeRef {
        match expr {
            ClockExpr::Zero => self.bdd.zero(),
            ClockExpr::Atom(c) => self.encode_clock(c),
            ClockExpr::And(a, b) => {
                let ea = self.encode_expr(a);
                let eb = self.encode_expr(b);
                self.bdd.and(ea, eb)
            }
            ClockExpr::Or(a, b) => {
                let ea = self.encode_expr(a);
                let eb = self.encode_expr(b);
                self.bdd.or(ea, eb)
            }
            ClockExpr::Diff(a, b) => {
                let ea = self.encode_expr(a);
                let eb = self.encode_expr(b);
                self.bdd.diff(ea, eb)
            }
        }
    }

    /// `R ⊨ f`: does the relation of the process entail the formula `f`?
    pub fn entails(&mut self, f: NodeRef) -> bool {
        let r = self.relation;
        self.bdd.entails(r, f)
    }

    /// Are two clock expressions equal under `R`?
    pub fn clocks_equal(&mut self, a: &ClockExpr, b: &ClockExpr) -> bool {
        let ea = self.encode_expr(a);
        let eb = self.encode_expr(b);
        let eq = self.bdd.iff(ea, eb);
        self.entails(eq)
    }

    /// Is `a ⊆ b` (every instant of `a` is an instant of `b`) under `R`?
    pub fn clock_included(&mut self, a: &ClockExpr, b: &ClockExpr) -> bool {
        let ea = self.encode_expr(a);
        let eb = self.encode_expr(b);
        let imp = self.bdd.implies(ea, eb);
        self.entails(imp)
    }

    /// Is the clock expression empty (never present) under `R`?
    pub fn clock_is_null(&mut self, a: &ClockExpr) -> bool {
        let ea = self.encode_expr(a);
        let na = self.bdd.not(ea);
        self.entails(na)
    }

    /// Is the relation itself satisfiable?  An unsatisfiable relation means
    /// the process admits no reaction at all (not even the silent one), which
    /// reveals contradictory clock constraints.
    pub fn is_consistent(&self) -> bool {
        !self.bdd.is_false(self.relation)
    }

    fn atom_value(&mut self, atom: &Atom) -> Option<NodeRef> {
        match atom {
            Atom::Const(Value::Bool(true)) => Some(self.bdd.one()),
            Atom::Const(Value::Bool(false)) => Some(self.bdd.zero()),
            Atom::Const(Value::Int(_)) => None,
            Atom::Var(n) => {
                let v = self.value_var(n.as_str());
                Some(self.bdd.var(v))
            }
        }
    }

    /// The instantaneous value fact contributed by a kernel equation, when
    /// the defined signal is boolean.
    fn value_fact(
        &mut self,
        eq: &KernelEq,
        booleans: &std::collections::BTreeSet<Name>,
    ) -> Option<NodeRef> {
        let out = eq.defined();
        if !booleans.contains(out) {
            return None;
        }
        // All variable operands must be boolean for the fact to make sense.
        let operands_boolean = eq.reads().iter().all(|n| {
            booleans.contains(n) || matches!(eq, KernelEq::When { cond, .. } if cond == n)
        });
        if !operands_boolean {
            return None;
        }
        let p_out = {
            let p = self.presence_var(out.as_str());
            self.bdd.var(p)
        };
        let v_out = {
            let v = self.value_var(out.as_str());
            self.bdd.var(v)
        };
        let rhs = match eq {
            KernelEq::Func { op, args, .. } => {
                let vals: Option<Vec<NodeRef>> = args.iter().map(|a| self.atom_value(a)).collect();
                let vals = vals?;
                match (op, vals.as_slice()) {
                    (PrimOp::Id, [a]) => Some(*a),
                    (PrimOp::Not, [a]) => Some(self.bdd.not(*a)),
                    (PrimOp::And, [a, b]) => Some(self.bdd.and(*a, *b)),
                    (PrimOp::Or, [a, b]) => Some(self.bdd.or(*a, *b)),
                    (PrimOp::Xor, [a, b]) => Some(self.bdd.xor(*a, *b)),
                    (PrimOp::Eq, [a, b]) => Some(self.bdd.iff(*a, *b)),
                    (PrimOp::Ne, [a, b]) => Some(self.bdd.xor(*a, *b)),
                    _ => None,
                }
            }
            KernelEq::When { arg, .. } => self.atom_value(arg),
            KernelEq::Default { left, right, .. } => {
                let l = self.atom_value(left)?;
                let r = self.atom_value(right)?;
                match left {
                    Atom::Var(n) => {
                        let p_l = {
                            let p = self.presence_var(n.as_str());
                            self.bdd.var(p)
                        };
                        Some(self.bdd.ite(p_l, l, r))
                    }
                    Atom::Const(_) => Some(l),
                }
            }
            // A delay relates the current value of its output to the
            // *previous* value of its input: no instantaneous fact.
            KernelEq::Delay { .. } => None,
        }?;
        let eq_fact = self.bdd.iff(v_out, rhs);
        Some(self.bdd.implies(p_out, eq_fact))
    }
}

/// Collects the signal names occurring in a clock constraint expression.
fn clock_ast_names(clock: &signal_lang::ClockAst, out: &mut Vec<Name>) {
    use signal_lang::ClockAst;
    match clock {
        ClockAst::Zero => {}
        ClockAst::Of(n) | ClockAst::WhenTrue(n) | ClockAst::WhenFalse(n) => out.push(n.clone()),
        ClockAst::And(a, b) | ClockAst::Or(a, b) | ClockAst::Diff(a, b) => {
            clock_ast_names(a, out);
            clock_ast_names(b, out);
        }
    }
}

fn find(parent: &mut Vec<usize>, i: usize) -> usize {
    if parent[i] != i {
        let root = find(parent, parent[i]);
        parent[i] = root;
    }
    parent[i]
}

fn union(parent: &mut Vec<usize>, a: usize, b: usize) {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra != rb {
        parent[rb] = ra;
    }
}

/// Computes the BDD variable order of a process: signals grouped by
/// connected component of the co-occurrence relation (same equation or same
/// clock constraint), components and signals ordered by first occurrence.
fn variable_order(process: &KernelProcess) -> Vec<Name> {
    let mut first: Vec<Name> = Vec::new();
    let mut index: BTreeMap<Name, usize> = BTreeMap::new();
    let mut parent: Vec<usize> = Vec::new();
    let touch = |name: &Name,
                 first: &mut Vec<Name>,
                 index: &mut BTreeMap<Name, usize>,
                 parent: &mut Vec<usize>|
     -> usize {
        if let Some(&i) = index.get(name) {
            return i;
        }
        let i = parent.len();
        parent.push(i);
        index.insert(name.clone(), i);
        first.push(name.clone());
        i
    };
    let mut groups: Vec<Vec<Name>> = Vec::new();
    for eq in process.equations() {
        let mut group = vec![eq.defined().clone()];
        group.extend(eq.reads());
        groups.push(group);
    }
    for (left, right) in process.constraints() {
        let mut group = Vec::new();
        clock_ast_names(left, &mut group);
        clock_ast_names(right, &mut group);
        groups.push(group);
    }
    for group in &groups {
        let mut prev: Option<usize> = None;
        for name in group {
            let i = touch(name, &mut first, &mut index, &mut parent);
            if let Some(p) = prev {
                union(&mut parent, p, i);
            }
            prev = Some(i);
        }
    }
    for name in process.signal_set() {
        touch(&name, &mut first, &mut index, &mut parent);
    }
    // Emit components in order of first occurrence; within a component,
    // signals keep their first-occurrence order.
    let mut ordered = Vec::with_capacity(first.len());
    let mut emitted = std::collections::BTreeSet::new();
    for name in &first {
        let root = find(&mut parent, index[name]);
        if emitted.insert(root) {
            for other in &first {
                if find(&mut parent, index[other]) == root {
                    ordered.push(other.clone());
                }
            }
        }
    }
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference;
    use signal_lang::stdlib;

    fn algebra_of(def: &signal_lang::ProcessDef) -> ClockAlgebra {
        let kernel = def.normalize().unwrap();
        let relations = inference::infer(&kernel);
        ClockAlgebra::new(&kernel, &relations)
    }

    #[test]
    fn buffer_master_clock_equivalences_hold() {
        // The paper: from R_buffer we deduce ^r = ^t (= ^s).
        let mut algebra = algebra_of(&stdlib::buffer());
        assert!(algebra.is_consistent());
        assert!(algebra.clocks_equal(&ClockExpr::tick("r"), &ClockExpr::tick("t")));
        assert!(algebra.clocks_equal(&ClockExpr::tick("s"), &ClockExpr::tick("t")));
        assert!(algebra.clocks_equal(&ClockExpr::tick("x"), &ClockExpr::on_true("t")));
        assert!(algebra.clocks_equal(&ClockExpr::tick("y"), &ClockExpr::on_false("t")));
        // And x and y are never simultaneously present.
        assert!(algebra.clock_is_null(&ClockExpr::tick("x").and(ClockExpr::tick("y"))));
    }

    #[test]
    fn filter_output_is_included_in_its_input_clock() {
        let mut algebra = algebra_of(&stdlib::filter());
        assert!(algebra.clock_included(&ClockExpr::tick("x"), &ClockExpr::tick("y")));
        assert!(!algebra.clocks_equal(&ClockExpr::tick("x"), &ClockExpr::tick("y")));
    }

    #[test]
    fn producer_consumer_couples_the_samplings_of_a_and_b() {
        // Composing the producer and the consumer constrains [not a] = [b]
        // through the shared signal x.
        let mut algebra = algebra_of(&stdlib::producer_consumer());
        assert!(algebra.clocks_equal(&ClockExpr::on_false("a"), &ClockExpr::on_true("b")));
        assert!(!algebra.clocks_equal(&ClockExpr::tick("a"), &ClockExpr::tick("b")));
    }

    #[test]
    fn inconsistent_constraints_are_detected() {
        use signal_lang::{ClockAst, Expr, ProcessBuilder};
        // x is constrained to be both always present with y and never.
        let def = ProcessBuilder::new("broken")
            .define("x", Expr::var("y"))
            .constraint(ClockAst::of("x"), ClockAst::Zero)
            .constraint(ClockAst::of("y"), ClockAst::of("x").or(ClockAst::of("x")))
            .build()
            .unwrap();
        let kernel = def.normalize().unwrap();
        let relations = inference::infer(&kernel);
        let algebra = ClockAlgebra::new(&kernel, &relations);
        // ^x = 0 and ^y = ^x force both absent — still satisfiable (silence),
        // so the relation is consistent; but [x] must be null.
        assert!(algebra.is_consistent());
        let mut algebra = algebra;
        assert!(algebra.clock_is_null(&ClockExpr::tick("x")));
    }

    #[test]
    fn both_variable_orderings_agree_on_entailment() {
        let kernel = stdlib::producer_consumer().normalize().unwrap();
        let relations = inference::infer(&kernel);
        let mut grouped = ClockAlgebra::with_order(&kernel, &relations, VariableOrder::Grouped);
        let mut by_name = ClockAlgebra::with_order(&kernel, &relations, VariableOrder::NameOrder);
        for (a, b) in [
            (ClockExpr::on_false("a"), ClockExpr::on_true("b")),
            (ClockExpr::tick("a"), ClockExpr::tick("b")),
            (ClockExpr::tick("u"), ClockExpr::on_true("a")),
        ] {
            assert_eq!(
                grouped.clocks_equal(&a, &b),
                by_name.clocks_equal(&a, &b),
                "orderings disagree on {a} = {b}"
            );
        }
    }

    #[test]
    fn grouped_ordering_keeps_independent_components_small() {
        use signal_lang::ProcessBuilder;
        // Four disjoint copies of the producer/consumer pair: the relation
        // factors per pair under the grouped ordering but couples every pair
        // under the interleaved name ordering.
        let mut builder = ProcessBuilder::new("pairs");
        for i in 0..4 {
            let producer = stdlib::producer().instantiate(
                &format!("p{i}"),
                &[
                    ("a", &format!("a{i}") as &str),
                    ("u", &format!("u{i}")),
                    ("x", &format!("x{i}")),
                ],
            );
            let consumer = stdlib::consumer().instantiate(
                &format!("c{i}"),
                &[
                    ("b", &format!("b{i}") as &str),
                    ("x", &format!("x{i}")),
                    ("v", &format!("v{i}")),
                ],
            );
            builder = builder.include(&producer).include(&consumer);
        }
        let kernel = builder.build().unwrap().normalize().unwrap();
        let relations = inference::infer(&kernel);
        let grouped = ClockAlgebra::with_order(&kernel, &relations, VariableOrder::Grouped);
        let by_name = ClockAlgebra::with_order(&kernel, &relations, VariableOrder::NameOrder);
        assert!(
            grouped.bdd_node_count() * 4 < by_name.bdd_node_count(),
            "grouped {} vs name-order {}",
            grouped.bdd_node_count(),
            by_name.bdd_node_count()
        );
    }

    #[test]
    fn entailment_distinguishes_facts_from_non_facts() {
        let mut algebra = algebra_of(&stdlib::producer());
        // ^u = [a] holds, ^u = ^a does not.
        assert!(algebra.clocks_equal(&ClockExpr::tick("u"), &ClockExpr::on_true("a")));
        assert!(!algebra.clocks_equal(&ClockExpr::tick("u"), &ClockExpr::tick("a")));
        // u and x are never present together.
        assert!(algebra.clock_is_null(&ClockExpr::tick("u").and(ClockExpr::tick("x"))));
    }
}
