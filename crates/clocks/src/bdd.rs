//! A small reduced ordered binary decision diagram (ROBDD) package.
//!
//! The clock calculus manipulates Boolean relations between the *presence*
//! and the *boolean value* of every signal of a process.  Deciding
//! entailment (`R ⊨ S`), equivalence of clocks and nullity of clock
//! expressions reduces to propositional reasoning, for which this module
//! provides a classic hash-consed BDD with memoized `apply`, negation and
//! existential quantification.
//!
//! The implementation is self-contained (no external crate).  The clock
//! calculus runs once per prefix of every composition it checks, so the
//! manager's tables sit on the hot path: the unique table and the three
//! operation caches hash with `FxHasher`, a multiplicative hasher
//! that is far cheaper than the default SipHash on their small integer
//! keys.  Those keys are node and variable indices the manager allocates
//! itself, never input from outside the program, so SipHash's protection
//! against crafted collisions buys nothing here; and nothing iterates the
//! tables, so their order never shows.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A Boolean variable, identified by its index in the global ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

/// A reference to a BDD node (or a terminal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef(u32);

impl NodeRef {
    /// The terminal `false`.
    pub const FALSE: NodeRef = NodeRef(0);
    /// The terminal `true`.
    pub const TRUE: NodeRef = NodeRef(1);

    /// Returns `true` when this reference is one of the two terminals.
    pub fn is_terminal(self) -> bool {
        self.0 < 2
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NodeRef::FALSE => write!(f, "⊥"),
            NodeRef::TRUE => write!(f, "⊤"),
            NodeRef(i) => write!(f, "n{i}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: Var,
    low: NodeRef,
    high: NodeRef,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
}

/// An Fx-style multiplicative hasher for keys made of the manager's own
/// indices: each word is added to the state and multiplied by an odd
/// constant, and `finish` rotates the well-mixed high bits down to where
/// the table takes its bucket index.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    /// An odd multiplier with well-spread bits: multiplying by it is a
    /// bijection that carries every bit of a word into the high bits.
    const SEED: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A hash map keyed by manager-allocated indices.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The BDD manager: owns every node and the operation caches.
#[derive(Debug, Default)]
pub struct Bdd {
    nodes: Vec<Node>,
    unique: FxHashMap<Node, NodeRef>,
    apply_cache: FxHashMap<(Op, NodeRef, NodeRef), NodeRef>,
    not_cache: FxHashMap<NodeRef, NodeRef>,
    exists_cache: FxHashMap<(NodeRef, u32), NodeRef>,
}

impl Bdd {
    /// Creates an empty manager.
    pub fn new() -> Self {
        // Index 0 and 1 are reserved for the terminals; the sentinel nodes
        // stored there are never dereferenced.
        let sentinel = Node {
            var: Var(u32::MAX),
            low: NodeRef::FALSE,
            high: NodeRef::FALSE,
        };
        Bdd {
            nodes: vec![sentinel, sentinel],
            ..Bdd::default()
        }
    }

    /// The number of live (non-terminal) nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len().saturating_sub(2)
    }

    /// The constant `false`.
    pub fn zero(&self) -> NodeRef {
        NodeRef::FALSE
    }

    /// The constant `true`.
    pub fn one(&self) -> NodeRef {
        NodeRef::TRUE
    }

    /// The function `var`.
    pub fn var(&mut self, var: Var) -> NodeRef {
        self.mk(var, NodeRef::FALSE, NodeRef::TRUE)
    }

    /// The function `¬var`.
    pub fn nvar(&mut self, var: Var) -> NodeRef {
        self.mk(var, NodeRef::TRUE, NodeRef::FALSE)
    }

    fn mk(&mut self, var: Var, low: NodeRef, high: NodeRef) -> NodeRef {
        if low == high {
            return low;
        }
        let node = Node { var, low, high };
        if let Some(&r) = self.unique.get(&node) {
            return r;
        }
        let r = NodeRef(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, r);
        r
    }

    fn node(&self, r: NodeRef) -> Node {
        self.nodes[r.0 as usize]
    }

    fn var_of(&self, r: NodeRef) -> u32 {
        if r.is_terminal() {
            u32::MAX
        } else {
            self.node(r).var.0
        }
    }

    /// Conjunction.
    pub fn and(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        self.apply(Op::And, a, b)
    }

    /// Disjunction.
    pub fn or(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        self.apply(Op::Or, a, b)
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        self.apply(Op::Xor, a, b)
    }

    /// Negation.
    pub fn not(&mut self, a: NodeRef) -> NodeRef {
        match a {
            NodeRef::FALSE => NodeRef::TRUE,
            NodeRef::TRUE => NodeRef::FALSE,
            _ => {
                if let Some(&r) = self.not_cache.get(&a) {
                    return r;
                }
                let n = self.node(a);
                let low = self.not(n.low);
                let high = self.not(n.high);
                let r = self.mk(n.var, low, high);
                self.not_cache.insert(a, r);
                r
            }
        }
    }

    /// Difference `a ∧ ¬b`.
    pub fn diff(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        let nb = self.not(b);
        self.and(a, nb)
    }

    /// Implication `a ⇒ b`.
    pub fn implies(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        let na = self.not(a);
        self.or(na, b)
    }

    /// Equivalence `a ⇔ b`.
    pub fn iff(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        let x = self.xor(a, b);
        self.not(x)
    }

    /// If-then-else `c ? t : e`.
    pub fn ite(&mut self, c: NodeRef, t: NodeRef, e: NodeRef) -> NodeRef {
        let ct = self.and(c, t);
        let nc = self.not(c);
        let ce = self.and(nc, e);
        self.or(ct, ce)
    }

    fn apply(&mut self, op: Op, a: NodeRef, b: NodeRef) -> NodeRef {
        match (op, a, b) {
            (Op::And, NodeRef::FALSE, _) | (Op::And, _, NodeRef::FALSE) => return NodeRef::FALSE,
            (Op::And, NodeRef::TRUE, x) | (Op::And, x, NodeRef::TRUE) => return x,
            (Op::Or, NodeRef::TRUE, _) | (Op::Or, _, NodeRef::TRUE) => return NodeRef::TRUE,
            (Op::Or, NodeRef::FALSE, x) | (Op::Or, x, NodeRef::FALSE) => return x,
            (Op::Xor, NodeRef::FALSE, x) | (Op::Xor, x, NodeRef::FALSE) => return x,
            (Op::Xor, NodeRef::TRUE, x) | (Op::Xor, x, NodeRef::TRUE) => return self.not(x),
            _ => {}
        }
        if a == b {
            return match op {
                Op::And | Op::Or => a,
                Op::Xor => NodeRef::FALSE,
            };
        }
        // Normalize the cache key for commutative operators.
        let key = if a.0 <= b.0 { (op, a, b) } else { (op, b, a) };
        if let Some(&r) = self.apply_cache.get(&key) {
            return r;
        }
        let va = self.var_of(a);
        let vb = self.var_of(b);
        let top = va.min(vb);
        let (a_low, a_high) = if va == top {
            let n = self.node(a);
            (n.low, n.high)
        } else {
            (a, a)
        };
        let (b_low, b_high) = if vb == top {
            let n = self.node(b);
            (n.low, n.high)
        } else {
            (b, b)
        };
        let low = self.apply(op, a_low, b_low);
        let high = self.apply(op, a_high, b_high);
        let r = self.mk(Var(top), low, high);
        self.apply_cache.insert(key, r);
        r
    }

    /// Existential quantification of `var` in `a`.
    pub fn exists(&mut self, a: NodeRef, var: Var) -> NodeRef {
        if a.is_terminal() {
            return a;
        }
        if let Some(&r) = self.exists_cache.get(&(a, var.0)) {
            return r;
        }
        let n = self.node(a);
        let r = if n.var.0 == var.0 {
            self.or(n.low, n.high)
        } else if n.var.0 > var.0 {
            a
        } else {
            let low = self.exists(n.low, var);
            let high = self.exists(n.high, var);
            self.mk(n.var, low, high)
        };
        self.exists_cache.insert((a, var.0), r);
        r
    }

    /// Existentially quantifies every variable in `vars`.
    pub fn exists_all(&mut self, a: NodeRef, vars: &[Var]) -> NodeRef {
        let mut r = a;
        for v in vars {
            r = self.exists(r, *v);
        }
        r
    }

    /// Returns `true` when `a` denotes the constant false function.
    pub fn is_false(&self, a: NodeRef) -> bool {
        a == NodeRef::FALSE
    }

    /// Returns `true` when `a` denotes the constant true function (a
    /// tautology).
    pub fn is_true(&self, a: NodeRef) -> bool {
        a == NodeRef::TRUE
    }

    /// Returns `true` when `a ⇒ b` is a tautology.
    pub fn entails(&mut self, a: NodeRef, b: NodeRef) -> bool {
        let i = self.implies(a, b);
        self.is_true(i)
    }

    /// Returns `true` when `a` and `b` denote the same function.
    pub fn equivalent(&self, a: NodeRef, b: NodeRef) -> bool {
        // Canonicity of ROBDDs makes this a pointer comparison.
        a == b
    }

    /// Returns one satisfying assignment of `a` as `(variable, polarity)`
    /// pairs, or `None` when `a` is unsatisfiable.  Variables not mentioned
    /// may take any value.
    pub fn any_sat(&self, a: NodeRef) -> Option<Vec<(Var, bool)>> {
        if a == NodeRef::FALSE {
            return None;
        }
        let mut out = Vec::new();
        let mut cur = a;
        while !cur.is_terminal() {
            let n = self.node(cur);
            if n.high != NodeRef::FALSE {
                out.push((n.var, true));
                cur = n.high;
            } else {
                out.push((n.var, false));
                cur = n.low;
            }
        }
        Some(out)
    }

    /// Enumerates every satisfying assignment of `a` over the variables
    /// `support` (each assignment is total on `support`).
    ///
    /// # Panics
    ///
    /// Panics if `support` omits a variable actually tested by `a`.
    pub fn all_sat(&self, a: NodeRef, support: &[Var]) -> Vec<Vec<(Var, bool)>> {
        let mut out = Vec::new();
        let mut partial = Vec::new();
        self.all_sat_rec(a, support, 0, &mut partial, &mut out);
        out
    }

    fn all_sat_rec(
        &self,
        a: NodeRef,
        support: &[Var],
        index: usize,
        partial: &mut Vec<(Var, bool)>,
        out: &mut Vec<Vec<(Var, bool)>>,
    ) {
        if a == NodeRef::FALSE {
            return;
        }
        if index == support.len() {
            assert!(
                a == NodeRef::TRUE,
                "support does not cover every variable of the BDD"
            );
            out.push(partial.clone());
            return;
        }
        let var = support[index];
        let (low, high) = if !a.is_terminal() && self.node(a).var == var {
            let n = self.node(a);
            (n.low, n.high)
        } else {
            (a, a)
        };
        partial.push((var, false));
        self.all_sat_rec(low, support, index + 1, partial, out);
        partial.pop();
        partial.push((var, true));
        self.all_sat_rec(high, support, index + 1, partial, out);
        partial.pop();
    }

    /// Evaluates `a` under a total assignment given as a predicate.
    pub fn eval(&self, a: NodeRef, assignment: impl Fn(Var) -> bool) -> bool {
        let mut cur = a;
        while !cur.is_terminal() {
            let n = self.node(cur);
            cur = if assignment(n.var) { n.high } else { n.low };
        }
        cur == NodeRef::TRUE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_and_vars() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var(0));
        let nx = bdd.nvar(Var(0));
        assert_ne!(x, nx);
        let not_x = bdd.not(x);
        assert_eq!(not_x, nx);
        assert!(bdd.is_true(bdd.one()));
        assert!(bdd.is_false(bdd.zero()));
    }

    #[test]
    fn boolean_algebra_laws() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var(0));
        let y = bdd.var(Var(1));
        let z = bdd.var(Var(2));

        // Commutativity and canonicity.
        let xy = bdd.and(x, y);
        let yx = bdd.and(y, x);
        assert!(bdd.equivalent(xy, yx));

        // Distributivity.
        let yz = bdd.or(y, z);
        let left = bdd.and(x, yz);
        let xz = bdd.and(x, z);
        let right = bdd.or(xy, xz);
        assert!(bdd.equivalent(left, right));

        // De Morgan.
        let nxy = bdd.not(xy);
        let nx = bdd.not(x);
        let ny = bdd.not(y);
        let de_morgan = bdd.or(nx, ny);
        assert!(bdd.equivalent(nxy, de_morgan));

        // Excluded middle and contradiction.
        let taut = bdd.or(x, nx);
        assert!(bdd.is_true(taut));
        let contra = bdd.and(x, nx);
        assert!(bdd.is_false(contra));
    }

    #[test]
    fn implication_and_entailment() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var(0));
        let y = bdd.var(Var(1));
        let xy = bdd.and(x, y);
        assert!(bdd.entails(xy, x));
        assert!(bdd.entails(xy, y));
        assert!(!bdd.entails(x, xy));
        let x_or_y = bdd.or(x, y);
        assert!(bdd.entails(x, x_or_y));
    }

    #[test]
    fn xor_iff_and_ite() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var(0));
        let y = bdd.var(Var(1));
        let x_xor_y = bdd.xor(x, y);
        let x_iff_y = bdd.iff(x, y);
        let n = bdd.not(x_xor_y);
        assert!(bdd.equivalent(x_iff_y, n));
        // ite(x, y, z) with z = y collapses to y.
        let ite = bdd.ite(x, y, y);
        assert!(bdd.equivalent(ite, y));
    }

    #[test]
    fn existential_quantification() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var(0));
        let y = bdd.var(Var(1));
        let xy = bdd.and(x, y);
        // ∃x. x∧y  =  y
        let q = bdd.exists(xy, Var(0));
        assert!(bdd.equivalent(q, y));
        // ∃y. x∧y  =  x
        let q = bdd.exists(xy, Var(1));
        assert!(bdd.equivalent(q, x));
        // ∃x,y. x∧y = true
        let q = bdd.exists_all(xy, &[Var(0), Var(1)]);
        assert!(bdd.is_true(q));
    }

    #[test]
    fn sat_enumeration() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var(0));
        let y = bdd.var(Var(1));
        let f = bdd.xor(x, y);
        let sats = bdd.all_sat(f, &[Var(0), Var(1)]);
        assert_eq!(sats.len(), 2);
        for sat in &sats {
            let vx = sat.iter().find(|(v, _)| *v == Var(0)).unwrap().1;
            let vy = sat.iter().find(|(v, _)| *v == Var(1)).unwrap().1;
            assert_ne!(vx, vy);
        }
        assert!(bdd.any_sat(f).is_some());
        assert!(bdd.any_sat(bdd.zero()).is_none());
    }

    #[test]
    fn eval_follows_the_assignment() {
        let mut bdd = Bdd::new();
        let x = bdd.var(Var(0));
        let y = bdd.var(Var(1));
        let nx = bdd.not(x);
        let f = bdd.or(nx, y); // x ⇒ y
        assert!(bdd.eval(f, |_| false));
        assert!(!bdd.eval(f, |v| v.0 == 0));
        assert!(bdd.eval(f, |_| true));
    }

    #[test]
    fn hash_consing_keeps_the_node_count_small() {
        let mut bdd = Bdd::new();
        let mut f = bdd.one();
        for i in 0..20 {
            let v = bdd.var(Var(i));
            f = bdd.and(f, v);
        }
        // Intermediate prefixes allocate at most a quadratic number of chain
        // nodes; the point of hash-consing is that nothing is duplicated.
        assert!(bdd.node_count() <= 20 * 21 / 2);
        // Re-building the same function allocates nothing new.
        let before = bdd.node_count();
        let mut g = bdd.one();
        for i in 0..20 {
            let v = bdd.var(Var(i));
            g = bdd.and(g, v);
        }
        assert_eq!(bdd.node_count(), before);
        assert!(bdd.equivalent(f, g));
    }
}
