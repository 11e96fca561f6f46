//! Rewrite rules: equations read left-to-right.
//!
//! CafeOBJ's `red` command uses the equations of a module as left-to-right
//! rewrite rules; conditional equations (`ceq l = r if c`) fire only when
//! the instantiated condition itself rewrites to `true`. [`Rule`] captures
//! one oriented equation; [`RuleSet`] indexes rules by the head symbol of
//! their left-hand side for fast candidate lookup.

use crate::error::RewriteError;
use equitls_kernel::fxhash::FxHashMap;
use equitls_kernel::prelude::*;
use equitls_kernel::term::Term;

/// Why a candidate equation cannot be used as a rewrite rule.
///
/// [`RuleSet::add`] rejects such equations with
/// [`RewriteError::InvalidRule`]; [`validate_rule`] exposes the same
/// checks as a typed classification so front ends (the spec elaborator,
/// the lint `vars` pass) can quarantine and report defective equations
/// without string-matching error messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleDefect {
    /// The left-hand side is a bare variable: the rule would rewrite
    /// every term of its sort.
    VariableLhs,
    /// Left- and right-hand sides have different sorts (rendered names).
    SortMismatch {
        /// Sort of the left-hand side.
        lhs_sort: String,
        /// Sort of the right-hand side.
        rhs_sort: String,
    },
    /// A right-hand-side variable (by name) is not bound by the left-hand
    /// side: the rule is not executable.
    UnboundRhsVar(String),
    /// A condition variable (by name) is not bound by the left-hand side.
    UnboundCondVar(String),
    /// The condition is not Bool-sorted (rendered sort name).
    NonBoolCondition(String),
}

impl std::fmt::Display for RuleDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleDefect::VariableLhs => write!(f, "left-hand side is a bare variable"),
            RuleDefect::SortMismatch { lhs_sort, rhs_sort } => write!(
                f,
                "left- and right-hand sides have different sorts ({lhs_sort} vs {rhs_sort})"
            ),
            RuleDefect::UnboundRhsVar(name) => write!(
                f,
                "right-hand side variable `{name}` is not bound by the left-hand side"
            ),
            RuleDefect::UnboundCondVar(name) => write!(
                f,
                "condition variable `{name}` is not bound by the left-hand side"
            ),
            RuleDefect::NonBoolCondition(sort) => {
                write!(f, "condition is not Bool-sorted (found sort {sort})")
            }
        }
    }
}

/// Validate a candidate rule without adding it anywhere.
///
/// Returns the head operator of the left-hand side on success. This is
/// the exact check [`RuleSet::add`] performs; front ends call it first
/// when they want to *quarantine* a defective equation (keeping its
/// source span and a typed reason) instead of failing the whole load.
///
/// # Errors
///
/// The first [`RuleDefect`] found, in the documented check order:
/// variable LHS, sort mismatch, unbound RHS variables, non-Bool
/// condition, unbound condition variables.
pub fn validate_rule(
    store: &TermStore,
    lhs: TermId,
    rhs: TermId,
    cond: Option<TermId>,
    bool_sort: Option<SortId>,
) -> Result<OpId, RuleDefect> {
    let head = match store.node(lhs) {
        Term::App { op, .. } => *op,
        Term::Var(_) => return Err(RuleDefect::VariableLhs),
    };
    if store.sort_of(lhs) != store.sort_of(rhs) {
        let name = |s: SortId| store.signature().sort(s).name.clone();
        return Err(RuleDefect::SortMismatch {
            lhs_sort: name(store.sort_of(lhs)),
            rhs_sort: name(store.sort_of(rhs)),
        });
    }
    let lhs_vars = store.vars_of(lhs);
    for v in store.vars_of(rhs) {
        if !lhs_vars.contains(&v) {
            return Err(RuleDefect::UnboundRhsVar(store.var_decl(v).name.clone()));
        }
    }
    if let Some(c) = cond {
        if let Some(bs) = bool_sort {
            if store.sort_of(c) != bs {
                return Err(RuleDefect::NonBoolCondition(
                    store.signature().sort(store.sort_of(c)).name.clone(),
                ));
            }
        }
        for v in store.vars_of(c) {
            if !lhs_vars.contains(&v) {
                return Err(RuleDefect::UnboundCondVar(store.var_decl(v).name.clone()));
            }
        }
    }
    Ok(head)
}

/// An oriented, possibly conditional, equation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Human-readable label for tracing and error messages.
    pub label: String,
    /// Left-hand side pattern (must be an operator application).
    pub lhs: TermId,
    /// Right-hand side template.
    pub rhs: TermId,
    /// Optional Bool-sorted condition; `None` for unconditional equations.
    pub cond: Option<TermId>,
    /// Head operator of the left-hand side (index key).
    pub head: OpId,
}

/// A collection of rules indexed by left-hand-side head symbol.
///
/// A specification's rule base is held behind an `Arc` by the `Spec` and
/// by every `Normalizer` made from it, so handing the rules to a new
/// obligation copies nothing.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
    by_head: FxHashMap<OpId, Vec<usize>>,
    /// The discrimination-tree index, built on first use. A clone copies
    /// the initialized `OnceLock`, so cloning an indexed set costs one
    /// `Arc` bump, not a rebuild. Mutators reset it.
    index: std::sync::OnceLock<std::sync::Arc<PathIndex>>,
}

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> Self {
        RuleSet::default()
    }

    /// Add a rule after validating it.
    ///
    /// # Errors
    ///
    /// [`RewriteError::InvalidRule`] when:
    /// * the left-hand side is a bare variable (such a rule would rewrite
    ///   everything of its sort),
    /// * the sides have different sorts,
    /// * the right-hand side or the condition contains a variable not bound
    ///   by the left-hand side,
    /// * the condition is not Bool-sorted (checked by the caller-supplied
    ///   `bool_sort`, pass `None` to skip).
    pub fn add(
        &mut self,
        store: &TermStore,
        label: impl Into<String>,
        lhs: TermId,
        rhs: TermId,
        cond: Option<TermId>,
        bool_sort: Option<SortId>,
    ) -> Result<(), RewriteError> {
        let label = label.into();
        let head = match validate_rule(store, lhs, rhs, cond, bool_sort) {
            Ok(head) => head,
            Err(defect) => {
                return Err(RewriteError::InvalidRule {
                    label,
                    reason: defect.to_string(),
                })
            }
        };
        self.push_rule(Rule {
            label,
            lhs,
            rhs,
            cond,
            head,
        });
        Ok(())
    }

    /// Add the unconditional rule `lhs → rhs` without [`validate_rule`]'s
    /// variable walks: the caller guarantees both sides are ground and of
    /// one sort (checked in debug builds).
    ///
    /// # Panics
    ///
    /// When `lhs` is a variable.
    pub(crate) fn add_ground(
        &mut self,
        store: &TermStore,
        label: String,
        lhs: TermId,
        rhs: TermId,
    ) {
        debug_assert!(store.is_ground(lhs) && store.is_ground(rhs));
        debug_assert!(validate_rule(store, lhs, rhs, None, None).is_ok());
        let head = store.op_of(lhs).expect("a ground left-hand side");
        self.push_rule(Rule {
            label,
            lhs,
            rhs,
            cond: None,
            head,
        });
    }

    /// Append `rule`, index it by head, and drop the path index.
    fn push_rule(&mut self, rule: Rule) {
        self.by_head
            .entry(rule.head)
            .or_default()
            .push(self.rules.len());
        self.rules.push(rule);
        self.index = std::sync::OnceLock::new();
    }

    /// The discrimination-tree index over this set, built on first use.
    /// `store` must be the arena the rules' terms live in (or a clone of
    /// it — clones preserve `TermId`s).
    pub fn path_index(&self, store: &TermStore) -> std::sync::Arc<PathIndex> {
        self.index
            .get_or_init(|| std::sync::Arc::new(PathIndex::build(store, self)))
            .clone()
    }

    /// The rules whose left-hand side head is `op`, in declaration order.
    pub fn candidates(&self, op: OpId) -> impl Iterator<Item = &Rule> {
        self.by_head
            .get(&op)
            .into_iter()
            .flatten()
            .map(move |&i| &self.rules[i])
    }

    /// The rules whose left-hand side head is `op`, with their indices in
    /// declaration order. Static analyses use the index to name a rule
    /// stably across passes.
    pub fn rules_for_op(&self, op: OpId) -> impl Iterator<Item = (usize, &Rule)> {
        self.by_head
            .get(&op)
            .into_iter()
            .flatten()
            .map(move |&i| (i, &self.rules[i]))
    }

    /// The head operators that have at least one rule — the operators this
    /// set *defines*, in first-rule order.
    pub fn defined_heads(&self) -> Vec<OpId> {
        let mut seen = Vec::new();
        for rule in &self.rules {
            if !seen.contains(&rule.head) {
                seen.push(rule.head);
            }
        }
        seen
    }

    /// The rule at `index` (declaration order).
    pub fn get(&self, index: usize) -> Option<&Rule> {
        self.rules.get(index)
    }

    /// All rules in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` when the set has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// One interior node of the [`PathIndex`] discrimination tree.
///
/// Edges are labelled by what the *pattern* demands at the current
/// pre-order position: a concrete operator (`ops`) or a pattern variable
/// (`star`, which matches any subject subtree). Rules whose left-hand
/// side is fully consumed at this node are listed in `rules`.
#[derive(Debug, Clone, Default)]
struct PathNode {
    /// Child for "the pattern has a variable here" — skips one subject
    /// subtree during traversal.
    star: Option<usize>,
    /// Children for "the pattern has this operator here", unordered
    /// (looked up linearly; fan-out per node is small in practice).
    ops: Vec<(OpId, usize)>,
    /// Indices (into the owning [`RuleSet`], declaration order) of rules
    /// whose flattened left-hand side ends exactly here.
    rules: Vec<usize>,
}

/// A discrimination-tree (path) index over a [`RuleSet`].
///
/// Left-hand sides are flattened in pre-order below their head operator
/// and inserted into a trie per head symbol. A query walks the subject
/// term in the same pre-order, following a concrete-operator edge when
/// the subject agrees and the `star` edge (skipping the whole subject
/// subtree) wherever a pattern variable could stand. The result is the
/// set of rules that are *structurally compatible* with the subject —
/// a superset of the rules that actually match, because non-linearity
/// and condition checks are left to the matcher, but never a subset:
/// the index has no false negatives.
///
/// Collected candidates are sorted ascending by rule index, which *is*
/// declaration order — so the engine tries candidates in exactly the
/// order the linear `rules_for_op` scan would, and the first match (and
/// therefore every rewrite, verdict, and statistic downstream) is
/// unchanged; the index only removes guaranteed-to-fail match attempts.
#[derive(Debug, Clone, Default)]
pub struct PathIndex {
    /// Per-head-operator tree roots.
    roots: FxHashMap<OpId, usize>,
    nodes: Vec<PathNode>,
    /// Per-head rule totals, for hit/prune accounting.
    head_totals: FxHashMap<OpId, usize>,
}

impl PathIndex {
    /// Build the index over every rule in `rules`.
    pub fn build(store: &TermStore, rules: &RuleSet) -> Self {
        let mut index = PathIndex::default();
        for (i, rule) in rules.iter().enumerate() {
            index.insert(store, i, rule);
        }
        index
    }

    fn alloc(&mut self) -> usize {
        self.nodes.push(PathNode::default());
        self.nodes.len() - 1
    }

    fn insert(&mut self, store: &TermStore, rule_index: usize, rule: &Rule) {
        *self.head_totals.entry(rule.head).or_insert(0) += 1;
        let mut node = match self.roots.get(&rule.head) {
            Some(&root) => root,
            None => {
                let root = self.alloc();
                self.roots.insert(rule.head, root);
                root
            }
        };
        // Flatten the lhs arguments in pre-order (the head operator is
        // already consumed by the `roots` lookup).
        let mut stack: Vec<TermId> = match store.node(rule.lhs) {
            Term::App { args, .. } => args.iter().rev().copied().collect(),
            Term::Var(_) => Vec::new(), // rejected by validate_rule; defensive
        };
        while let Some(t) = stack.pop() {
            match store.node(t) {
                Term::Var(_) => {
                    node = match self.nodes[node].star {
                        Some(child) => child,
                        None => {
                            let child = self.alloc();
                            self.nodes[node].star = Some(child);
                            child
                        }
                    };
                }
                Term::App { op, args } => {
                    let op = *op;
                    stack.extend(args.iter().rev());
                    node = match self.nodes[node].ops.iter().find(|(o, _)| *o == op) {
                        Some(&(_, child)) => child,
                        None => {
                            let child = self.alloc();
                            self.nodes[node].ops.push((op, child));
                            child
                        }
                    };
                }
            }
        }
        self.nodes[node].rules.push(rule_index);
    }

    /// Total number of rules indexed under head operator `op` (what a
    /// linear `rules_for_op` scan would have to try).
    pub fn head_total(&self, op: OpId) -> usize {
        self.head_totals.get(&op).copied().unwrap_or(0)
    }

    /// Collect into `out` the indices of all rules structurally
    /// compatible with `subject`, ascending (declaration order).
    ///
    /// `scratch` is a caller-owned work stack reused across queries to
    /// avoid per-query allocation; its prior contents are discarded.
    pub fn candidates_into(
        &self,
        store: &TermStore,
        subject: TermId,
        scratch: &mut Vec<TermId>,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let Term::App { op, args } = store.node(subject) else {
            return;
        };
        let Some(&root) = self.roots.get(op) else {
            return;
        };
        scratch.clear();
        scratch.extend(args.iter().rev());
        self.walk(store, root, scratch, out);
        out.sort_unstable();
    }

    /// DFS over the trie and the subject's pre-order traversal. `pending`
    /// holds the subject subtrees not yet consumed, top = next. Recursion
    /// depth is bounded by the *pattern* depth (star edges skip subject
    /// subtrees in O(1)), so deep subjects cost nothing extra.
    fn walk(
        &self,
        store: &TermStore,
        node: usize,
        pending: &mut Vec<TermId>,
        out: &mut Vec<usize>,
    ) {
        let n = &self.nodes[node];
        let Some(&next) = pending.last() else {
            // Pattern fully consumed exactly when the subject positions
            // are: collect the rules that end here.
            out.extend_from_slice(&n.rules);
            return;
        };
        if let Some(star) = n.star {
            // A pattern variable stands here: skip the whole subtree.
            pending.pop();
            self.walk(store, star, pending, out);
            pending.push(next);
        }
        if n.ops.is_empty() {
            return;
        }
        if let Term::App { op, args } = store.node(next) {
            if let Some(&(_, child)) = n.ops.iter().find(|(o, _)| o == op) {
                let restore = pending.len() - 1;
                pending.pop();
                pending.extend(args.iter().rev());
                self.walk(store, child, pending, out);
                pending.truncate(restore);
                pending.push(next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bool_alg::BoolAlg;

    struct World {
        store: TermStore,
        alg: BoolAlg,
        s: SortId,
        c: OpId,
        f: OpId,
    }

    fn world() -> World {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let f = sig.add_op("f", &[s], s, OpAttrs::defined()).unwrap();
        World {
            store: TermStore::new(sig),
            alg,
            s,
            c,
            f,
        }
    }

    #[test]
    fn valid_rule_is_indexed_by_head() {
        let mut w = world();
        let x = w.store.declare_var("X", w.s).unwrap();
        let xt = w.store.var(x);
        let lhs = w.store.app(w.f, &[xt]).unwrap();
        let mut rules = RuleSet::new();
        rules
            .add(&w.store, "f-id", lhs, xt, None, Some(w.alg.sort()))
            .unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules.candidates(w.f).count(), 1);
        assert_eq!(rules.candidates(w.c).count(), 0);
        assert!(!rules.is_empty());
    }

    #[test]
    fn variable_lhs_is_rejected() {
        let mut w = world();
        let x = w.store.declare_var("X", w.s).unwrap();
        let xt = w.store.var(x);
        let cv = w.store.constant(w.c);
        let mut rules = RuleSet::new();
        let err = rules.add(&w.store, "bad", xt, cv, None, None).unwrap_err();
        assert!(matches!(err, RewriteError::InvalidRule { .. }));
    }

    #[test]
    fn unbound_rhs_variable_is_rejected() {
        let mut w = world();
        let x = w.store.declare_var("X", w.s).unwrap();
        let y = w.store.declare_var("Y", w.s).unwrap();
        let xt = w.store.var(x);
        let yt = w.store.var(y);
        let lhs = w.store.app(w.f, &[xt]).unwrap();
        let mut rules = RuleSet::new();
        let err = rules.add(&w.store, "bad", lhs, yt, None, None).unwrap_err();
        assert!(matches!(err, RewriteError::InvalidRule { .. }));
    }

    #[test]
    fn sort_mismatch_between_sides_is_rejected() {
        let mut w = world();
        let x = w.store.declare_var("X", w.s).unwrap();
        let xt = w.store.var(x);
        let lhs = w.store.app(w.f, &[xt]).unwrap();
        let tt = w.alg.tt(&mut w.store);
        let mut rules = RuleSet::new();
        let err = rules.add(&w.store, "bad", lhs, tt, None, None).unwrap_err();
        assert!(matches!(err, RewriteError::InvalidRule { .. }));
    }

    #[test]
    fn non_bool_condition_is_rejected() {
        let mut w = world();
        let x = w.store.declare_var("X", w.s).unwrap();
        let xt = w.store.var(x);
        let lhs = w.store.app(w.f, &[xt]).unwrap();
        let mut rules = RuleSet::new();
        let err = rules
            .add(&w.store, "bad", lhs, xt, Some(xt), Some(w.alg.sort()))
            .unwrap_err();
        assert!(matches!(err, RewriteError::InvalidRule { .. }));
    }

    #[test]
    fn introspection_reports_heads_and_indexed_rules() {
        let mut w = world();
        let x = w.store.declare_var("X", w.s).unwrap();
        let xt = w.store.var(x);
        let cv = w.store.constant(w.c);
        let lhs = w.store.app(w.f, &[xt]).unwrap();
        let lhs_c = w.store.app(w.f, &[cv]).unwrap();
        let mut rules = RuleSet::new();
        rules
            .add(&w.store, "f-const", lhs_c, cv, None, None)
            .unwrap();
        rules.add(&w.store, "f-id", lhs, xt, None, None).unwrap();
        assert_eq!(rules.defined_heads(), vec![w.f]);
        let indexed: Vec<(usize, &str)> = rules
            .rules_for_op(w.f)
            .map(|(i, r)| (i, r.label.as_str()))
            .collect();
        assert_eq!(indexed, vec![(0, "f-const"), (1, "f-id")]);
        assert_eq!(rules.get(1).unwrap().label, "f-id");
        assert!(rules.get(2).is_none());
    }

    /// A richer signature for index tests: two constants, a unary `g`,
    /// and a binary `h`, so patterns can disagree below the head symbol.
    struct IndexWorld {
        store: TermStore,
        s: SortId,
        c: OpId,
        d: OpId,
        g: OpId,
        h: OpId,
    }

    fn index_world() -> IndexWorld {
        let mut sig = Signature::new();
        BoolAlg::install(&mut sig).unwrap();
        let s = sig.add_visible_sort("S").unwrap();
        let c = sig.add_constant("c", s, OpAttrs::constructor()).unwrap();
        let d = sig.add_constant("d", s, OpAttrs::constructor()).unwrap();
        let g = sig.add_op("g", &[s], s, OpAttrs::defined()).unwrap();
        let h = sig.add_op("h", &[s, s], s, OpAttrs::defined()).unwrap();
        IndexWorld {
            store: TermStore::new(sig),
            s,
            c,
            d,
            g,
            h,
        }
    }

    fn query(index: &PathIndex, store: &TermStore, subject: TermId) -> Vec<usize> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        index.candidates_into(store, subject, &mut scratch, &mut out);
        out
    }

    #[test]
    fn index_returns_all_head_rules_for_variable_patterns() {
        let mut w = index_world();
        let x = w.store.declare_var("X", w.s).unwrap();
        let xt = w.store.var(x);
        let gx = w.store.app(w.g, &[xt]).unwrap();
        let mut rules = RuleSet::new();
        rules.add(&w.store, "g-id", gx, xt, None, None).unwrap();
        let index = PathIndex::build(&w.store, &rules);
        let cv = w.store.constant(w.c);
        let gc = w.store.app(w.g, &[cv]).unwrap();
        let ggc = w.store.app(w.g, &[gc]).unwrap();
        assert_eq!(query(&index, &w.store, gc), vec![0]);
        assert_eq!(query(&index, &w.store, ggc), vec![0]);
        assert_eq!(index.head_total(w.g), 1);
        assert_eq!(index.head_total(w.h), 0);
        // Wrong head: no candidates at all.
        assert_eq!(query(&index, &w.store, cv), Vec::<usize>::new());
    }

    #[test]
    fn index_prunes_structurally_incompatible_rules() {
        let mut w = index_world();
        let x = w.store.declare_var("X", w.s).unwrap();
        let xt = w.store.var(x);
        let cv = w.store.constant(w.c);
        let dv = w.store.constant(w.d);
        let gc = w.store.app(w.g, &[cv]).unwrap();
        let gd = w.store.app(w.g, &[dv]).unwrap();
        let gx = w.store.app(w.g, &[xt]).unwrap();
        let mut rules = RuleSet::new();
        rules.add(&w.store, "g-c", gc, cv, None, None).unwrap();
        rules.add(&w.store, "g-d", gd, dv, None, None).unwrap();
        rules.add(&w.store, "g-x", gx, xt, None, None).unwrap();
        let index = PathIndex::build(&w.store, &rules);
        // Subject g(c): the g(d) rule is pruned; order is declaration order.
        assert_eq!(query(&index, &w.store, gc), vec![0, 2]);
        assert_eq!(query(&index, &w.store, gd), vec![1, 2]);
        // Subject g(g(c)): only the variable pattern survives.
        let ggc = w.store.app(w.g, &[gc]).unwrap();
        assert_eq!(query(&index, &w.store, ggc), vec![2]);
        assert_eq!(index.head_total(w.g), 3);
    }

    #[test]
    fn index_candidate_order_matches_linear_scan_order() {
        let mut w = index_world();
        let x = w.store.declare_var("X", w.s).unwrap();
        let y = w.store.declare_var("Y", w.s).unwrap();
        let (xt, yt) = (w.store.var(x), w.store.var(y));
        let cv = w.store.constant(w.c);
        // Interleave h-rules with a g-rule so global indices are sparse
        // per head; the index must still report ascending global indices,
        // which is exactly `rules_for_op` order.
        let h_xc = w.store.app(w.h, &[xt, cv]).unwrap();
        let gx = w.store.app(w.g, &[xt]).unwrap();
        let h_xy = w.store.app(w.h, &[xt, yt]).unwrap();
        let mut rules = RuleSet::new();
        rules.add(&w.store, "h-xc", h_xc, xt, None, None).unwrap();
        rules.add(&w.store, "g-x", gx, xt, None, None).unwrap();
        rules.add(&w.store, "h-xy", h_xy, xt, None, None).unwrap();
        let index = PathIndex::build(&w.store, &rules);
        let subject = w.store.app(w.h, &[cv, cv]).unwrap();
        let linear: Vec<usize> = rules.rules_for_op(w.h).map(|(i, _)| i).collect();
        assert_eq!(linear, vec![0, 2]);
        assert_eq!(query(&index, &w.store, subject), linear);
        // Subject h(c, d): second argument rules out h(X, c).
        let dv = w.store.constant(w.d);
        let subject2 = w.store.app(w.h, &[cv, dv]).unwrap();
        assert_eq!(query(&index, &w.store, subject2), vec![2]);
    }

    #[test]
    fn index_star_edge_skips_whole_subtrees() {
        let mut w = index_world();
        let x = w.store.declare_var("X", w.s).unwrap();
        let xt = w.store.var(x);
        let cv = w.store.constant(w.c);
        let dv = w.store.constant(w.d);
        // Pattern h(X, c): the first argument is skipped as a unit, the
        // second must still be checked even when the first is deep.
        let h_xc = w.store.app(w.h, &[xt, cv]).unwrap();
        let mut rules = RuleSet::new();
        rules.add(&w.store, "h-xc", h_xc, xt, None, None).unwrap();
        let index = PathIndex::build(&w.store, &rules);
        let deep = {
            let gd = w.store.app(w.g, &[dv]).unwrap();
            let ggd = w.store.app(w.g, &[gd]).unwrap();
            w.store.app(w.h, &[ggd, cv]).unwrap()
        };
        assert_eq!(query(&index, &w.store, deep), vec![0]);
        let deep_wrong = {
            let gd = w.store.app(w.g, &[dv]).unwrap();
            w.store.app(w.h, &[gd, dv]).unwrap()
        };
        assert_eq!(query(&index, &w.store, deep_wrong), Vec::<usize>::new());
    }

    #[test]
    fn index_never_loses_a_matching_rule() {
        // Exhaustive cross-check on a small closed term universe: every
        // rule reported matchable by a direct scan must be in the index's
        // candidate set (no false negatives; over-approximation allowed).
        let mut w = index_world();
        let x = w.store.declare_var("X", w.s).unwrap();
        let xt = w.store.var(x);
        let cv = w.store.constant(w.c);
        let dv = w.store.constant(w.d);
        let gx = w.store.app(w.g, &[xt]).unwrap();
        let ggx = w.store.app(w.g, &[gx]).unwrap();
        let gc = w.store.app(w.g, &[cv]).unwrap();
        let h_xx = w.store.app(w.h, &[xt, xt]).unwrap();
        let h_cx = w.store.app(w.h, &[cv, xt]).unwrap();
        let mut rules = RuleSet::new();
        for (label, lhs) in [
            ("g-x", gx),
            ("g-g-x", ggx),
            ("g-c", gc),
            ("h-x-x", h_xx),
            ("h-c-x", h_cx),
        ] {
            rules.add(&w.store, label, lhs, cv, None, None).unwrap();
        }
        let index = PathIndex::build(&w.store, &rules);
        let mut subjects = vec![cv, dv];
        for _ in 0..2 {
            let mut next = Vec::new();
            for &a in &subjects {
                next.push(w.store.app(w.g, &[a]).unwrap());
                for &b in &subjects {
                    next.push(w.store.app(w.h, &[a, b]).unwrap());
                }
            }
            subjects.extend(next);
        }
        for &subject in &subjects {
            let candidates = query(&index, &w.store, subject);
            let Term::App { op, .. } = w.store.node(subject) else {
                unreachable!()
            };
            let op = *op;
            for (i, rule) in rules.rules_for_op(op) {
                use equitls_kernel::matching::{match_term, MatchOutcome};
                let head_matches = matches!(
                    match_term(&w.store, rule.lhs, subject),
                    MatchOutcome::Matched(_)
                );
                if head_matches {
                    assert!(
                        candidates.contains(&i),
                        "rule {} must be a candidate for {}",
                        rule.label,
                        w.store.display(subject)
                    );
                }
            }
        }
    }

    #[test]
    fn condition_variables_must_be_bound() {
        let mut w = world();
        let x = w.store.declare_var("X", w.s).unwrap();
        let xt = w.store.var(x);
        let lhs = w.store.app(w.f, &[xt]).unwrap();
        let yb = w.store.declare_var("B", w.alg.sort()).unwrap();
        let ybt = w.store.var(yb);
        let mut rules = RuleSet::new();
        let err = rules
            .add(&w.store, "bad", lhs, xt, Some(ybt), Some(w.alg.sort()))
            .unwrap_err();
        assert!(matches!(err, RewriteError::InvalidRule { .. }));
    }
}
