//! The [`Spec`] container: a term store, the `BOOL` built-in, equations,
//! and module bookkeeping.
//!
//! A `Spec` plays the role of a loaded CafeOBJ session: modules declare
//! sorts, operators, variables and equations; the accumulated equations
//! form the rewrite system handed to [`Normalizer`]s; proof passages
//! (`open … close`, see [`crate::passage`]) run on top.

use crate::ast::SourceSpan;
use crate::error::SpecError;
use equitls_kernel::prelude::*;
use equitls_rewrite::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Metadata about one declared module (for listing and rendering).
#[derive(Debug, Clone, Default)]
pub struct ModuleInfo {
    /// Module name, e.g. `"NETWORK"`.
    pub name: String,
    /// Imported module names (`pr(...)`).
    pub imports: Vec<String>,
    /// Names of sorts declared here.
    pub sorts: Vec<String>,
    /// Operators declared here.
    pub ops: Vec<OpId>,
    /// Names of variables declared here (`var X : S`), in declaration
    /// order. Lint's variable-discipline pass reports declared-but-unused
    /// variables from this list.
    pub vars: Vec<String>,
    /// Labels of equations declared here.
    pub equations: Vec<String>,
}

/// An equation that failed rule validation and was set aside instead of
/// installed.
///
/// The DSL elaborator quarantines equations whose [`RuleDefect`] makes
/// them unusable as rewrite rules (unbound right-hand-side variables,
/// sort-incoherent sides, …) so the rest of the module still loads and
/// static analysis can report every defect with its source position. The
/// typed builder ([`Spec::eq`]/[`Spec::ceq`]) keeps failing eagerly.
#[derive(Debug, Clone)]
pub struct QuarantinedEquation {
    /// The equation's label.
    pub label: String,
    /// The module the equation was declared in.
    pub module: String,
    /// Why the equation cannot be a rewrite rule.
    pub defect: RuleDefect,
    /// Source position of the declaration, when parsed from DSL text.
    pub span: Option<SourceSpan>,
    /// Rendering of the equation (`lhs = rhs [if cond]`) for reports.
    pub rendered: String,
}

/// A position in a [`Spec`]'s history, taken by [`Spec::mark`].
#[derive(Debug, Clone)]
pub struct SpecMark {
    store: StoreMark,
    alg: BoolAlg,
}

/// A specification under construction: signature + store + rules + modules.
///
/// # Example
///
/// ```
/// use equitls_spec::prelude::*;
///
/// let mut spec = Spec::new()?;
/// spec.begin_module("PAIR");
/// spec.visible_sort("Elt")?;
/// spec.constructor("a", &[], "Elt")?;
/// spec.constructor("b", &[], "Elt")?;
/// spec.defined_op("swap", &["Elt"], "Elt")?;
/// let a = spec.parse_term("a")?;
/// let b = spec.parse_term("b")?;
/// let swap_a = spec.parse_term("swap(a)")?;
/// let swap_b = spec.parse_term("swap(b)")?;
/// spec.eq("swap-a", swap_a, b)?;
/// spec.eq("swap-b", swap_b, a)?;
/// let mut norm = spec.normalizer();
/// let (store, goal) = (spec.store_mut(), swap_a);
/// assert_eq!(norm.normalize(store, goal)?, b);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Spec {
    store: TermStore,
    alg: BoolAlg,
    /// Shared with every normalizer made from this spec; cloning the spec
    /// or making a normalizer bumps a count instead of copying the rules.
    rules: Arc<RuleSet>,
    modules: Vec<ModuleInfo>,
    equation_spans: HashMap<String, SourceSpan>,
    quarantined: Vec<QuarantinedEquation>,
    roots: Vec<OpId>,
}

impl Spec {
    /// A fresh specification with `BOOL` installed.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (cannot occur on a fresh signature).
    pub fn new() -> Result<Self, SpecError> {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig)?;
        let store = TermStore::new(sig);
        let bool_module = ModuleInfo {
            name: "BOOL".to_string(),
            imports: Vec::new(),
            sorts: vec!["Bool".to_string()],
            ops: Vec::new(),
            vars: Vec::new(),
            equations: Vec::new(),
        };
        Ok(Spec {
            store,
            alg,
            rules: Arc::new(RuleSet::new()),
            modules: vec![bool_module],
            equation_spans: HashMap::new(),
            quarantined: Vec::new(),
            roots: Vec::new(),
        })
    }

    /// The term store.
    pub fn store(&self) -> &TermStore {
        &self.store
    }

    /// Mutable access to the term store.
    pub fn store_mut(&mut self) -> &mut TermStore {
        &mut self.store
    }

    /// The Boolean vocabulary.
    pub fn alg(&self) -> &BoolAlg {
        &self.alg
    }

    /// Mutable access to the Boolean vocabulary (per-sort `_=_` creation).
    pub fn alg_mut(&mut self) -> &mut BoolAlg {
        &mut self.alg
    }

    /// The accumulated rewrite rules.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The declared modules, `BOOL` first.
    pub fn modules(&self) -> &[ModuleInfo] {
        &self.modules
    }

    /// Start a new module; subsequent declarations are recorded under it.
    pub fn begin_module(&mut self, name: &str) -> &mut ModuleInfo {
        self.modules.push(ModuleInfo {
            name: name.to_string(),
            ..ModuleInfo::default()
        });
        self.modules.last_mut().expect("just pushed")
    }

    fn current_module(&mut self) -> &mut ModuleInfo {
        if self.modules.len() == 1 {
            // Implicit scratch module when the user never began one.
            self.begin_module("SCRATCH");
        }
        self.modules.last_mut().expect("non-empty")
    }

    /// Record an import on the current module (metadata only — all
    /// declarations share one global signature, as the paper's flat
    /// specification does).
    pub fn import(&mut self, name: &str) {
        let name = name.to_string();
        let m = self.current_module();
        if !m.imports.contains(&name) {
            m.imports.push(name);
        }
    }

    /// Declare a visible sort in the current module.
    ///
    /// The equality operator `_=_ : S S -> Bool` is declared eagerly so
    /// that every normalizer cloned from this specification recognizes
    /// equalities at the new sort.
    ///
    /// # Errors
    ///
    /// [`SpecError::Kernel`] on duplicates.
    pub fn visible_sort(&mut self, name: &str) -> Result<SortId, SpecError> {
        let id = self.store.signature_mut().add_visible_sort(name)?;
        self.alg.ensure_eq(self.store.signature_mut(), id)?;
        self.current_module().sorts.push(name.to_string());
        Ok(id)
    }

    /// Declare a hidden sort in the current module.
    ///
    /// # Errors
    ///
    /// [`SpecError::Kernel`] on duplicates.
    pub fn hidden_sort(&mut self, name: &str) -> Result<SortId, SpecError> {
        let id = self.store.signature_mut().add_hidden_sort(name)?;
        self.current_module().sorts.push(name.to_string());
        Ok(id)
    }

    /// Look up a sort by name.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownSort`] when absent.
    pub fn sort_id(&self, name: &str) -> Result<SortId, SpecError> {
        self.store
            .signature()
            .sort_by_name(name)
            .ok_or_else(|| SpecError::UnknownSort(name.to_string()))
    }

    fn sort_ids(&self, names: &[&str]) -> Result<Vec<SortId>, SpecError> {
        names.iter().map(|n| self.sort_id(n)).collect()
    }

    /// Declare an operator with explicit attributes.
    ///
    /// # Errors
    ///
    /// Unknown sorts or duplicate declarations.
    pub fn op(
        &mut self,
        name: &str,
        args: &[&str],
        result: &str,
        attrs: OpAttrs,
    ) -> Result<OpId, SpecError> {
        let arg_ids = self.sort_ids(args)?;
        let result_id = self.sort_id(result)?;
        let id = self
            .store
            .signature_mut()
            .add_op(name, &arg_ids, result_id, attrs)?;
        self.current_module().ops.push(id);
        Ok(id)
    }

    /// Declare a free constructor.
    ///
    /// # Errors
    ///
    /// Unknown sorts or duplicate declarations.
    pub fn constructor(
        &mut self,
        name: &str,
        args: &[&str],
        result: &str,
    ) -> Result<OpId, SpecError> {
        self.op(name, args, result, OpAttrs::constructor())
    }

    /// Declare a defined (equation-given) operator.
    ///
    /// # Errors
    ///
    /// Unknown sorts or duplicate declarations.
    pub fn defined_op(
        &mut self,
        name: &str,
        args: &[&str],
        result: &str,
    ) -> Result<OpId, SpecError> {
        self.op(name, args, result, OpAttrs::defined())
    }

    /// Declare an observation operator (`bop` returning a visible sort).
    ///
    /// # Errors
    ///
    /// Unknown sorts or duplicate declarations.
    pub fn observer(&mut self, name: &str, args: &[&str], result: &str) -> Result<OpId, SpecError> {
        self.op(name, args, result, OpAttrs::observer())
    }

    /// Declare an action operator (`bop` returning the hidden sort).
    ///
    /// # Errors
    ///
    /// Unknown sorts or duplicate declarations.
    pub fn action(&mut self, name: &str, args: &[&str], result: &str) -> Result<OpId, SpecError> {
        self.op(name, args, result, OpAttrs::action())
    }

    /// Declare a variable usable in subsequent equations.
    ///
    /// # Errors
    ///
    /// Unknown sort or sort clash with an existing variable of that name.
    pub fn var(&mut self, name: &str, sort: &str) -> Result<TermId, SpecError> {
        let sort_id = self.sort_id(sort)?;
        let v = self.store.declare_var(name, sort_id)?;
        let name = name.to_string();
        let m = self.current_module();
        if !m.vars.contains(&name) {
            m.vars.push(name);
        }
        Ok(self.store.var(v))
    }

    /// Intern a constant term by operator name.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownOp`] when no nullary operator has this name.
    pub fn const_term(&mut self, name: &str) -> Result<TermId, SpecError> {
        let op = self
            .store
            .signature()
            .ops_by_name(name)
            .iter()
            .copied()
            .find(|&id| self.store.signature().op(id).is_constant())
            .ok_or_else(|| SpecError::UnknownOp {
                name: name.to_string(),
                args: Some(String::new()),
            })?;
        Ok(self.store.constant(op))
    }

    /// Build an application, resolving overloads by the argument sorts.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownOp`] when resolution fails.
    pub fn app(&mut self, name: &str, args: &[TermId]) -> Result<TermId, SpecError> {
        let arg_sorts: Vec<SortId> = args.iter().map(|&a| self.store.sort_of(a)).collect();
        let op = match self.store.signature().resolve_op(name, &arg_sorts) {
            Some(op) => op,
            None => {
                // Fall back to a unique same-arity candidate for better
                // error messages on near misses.
                let cands: Vec<OpId> = self
                    .store
                    .signature()
                    .ops_by_name(name)
                    .iter()
                    .copied()
                    .filter(|&id| self.store.signature().op(id).arity() == args.len())
                    .collect();
                if cands.len() == 1 {
                    cands[0]
                } else {
                    let rendered = arg_sorts
                        .iter()
                        .map(|&s| self.store.signature().sort(s).name.clone())
                        .collect::<Vec<_>>()
                        .join(", ");
                    return Err(SpecError::UnknownOp {
                        name: name.to_string(),
                        args: Some(rendered),
                    });
                }
            }
        };
        Ok(self.store.app(op, args)?)
    }

    /// Build the equality term `a = b`.
    ///
    /// # Errors
    ///
    /// Kernel errors when the sides' sorts differ.
    pub fn eq_term(&mut self, a: TermId, b: TermId) -> Result<TermId, SpecError> {
        Ok(self.alg.eq(&mut self.store, a, b)?)
    }

    /// Add an unconditional equation `lhs = rhs` as a rewrite rule.
    ///
    /// # Errors
    ///
    /// [`SpecError::Rewrite`] for malformed rules.
    pub fn eq(&mut self, label: &str, lhs: TermId, rhs: TermId) -> Result<(), SpecError> {
        let bool_sort = self.alg.sort();
        Arc::make_mut(&mut self.rules).add(&self.store, label, lhs, rhs, None, Some(bool_sort))?;
        self.current_module().equations.push(label.to_string());
        Ok(())
    }

    /// Add a conditional equation `lhs = rhs if cond`.
    ///
    /// # Errors
    ///
    /// [`SpecError::Rewrite`] for malformed rules.
    pub fn ceq(
        &mut self,
        label: &str,
        lhs: TermId,
        rhs: TermId,
        cond: TermId,
    ) -> Result<(), SpecError> {
        let bool_sort = self.alg.sort();
        Arc::make_mut(&mut self.rules).add(
            &self.store,
            label,
            lhs,
            rhs,
            Some(cond),
            Some(bool_sort),
        )?;
        self.current_module().equations.push(label.to_string());
        Ok(())
    }

    /// Mark an operator as an analysis **root**: a symbol external
    /// consumers (invariants, observers, the `{root}` DSL attribute) call
    /// into. Lint's dependency pass computes reachability from the roots;
    /// rules on operators no root can reach are dead code.
    pub fn mark_root(&mut self, op: OpId) {
        if !self.roots.contains(&op) {
            self.roots.push(op);
        }
    }

    /// The explicitly marked analysis roots, in marking order.
    pub fn root_ops(&self) -> &[OpId] {
        &self.roots
    }

    /// Set aside an equation that failed rule validation.
    ///
    /// Used by the DSL elaborator so one defective equation does not abort
    /// the whole module load; lint's variable-discipline pass turns each
    /// quarantined equation into a deny-level diagnostic.
    pub fn quarantine_equation(&mut self, mut q: QuarantinedEquation) {
        if q.span.is_none() {
            q.span = self.equation_span(&q.label);
        }
        self.quarantined.push(q);
    }

    /// Equations set aside by [`Spec::quarantine_equation`], in load order.
    pub fn quarantined(&self) -> &[QuarantinedEquation] {
        &self.quarantined
    }

    /// Record where equation `label` was declared in DSL source text.
    ///
    /// Called by the elaborator for parsed modules; equations built through
    /// the typed builder have no span.
    pub fn record_equation_span(&mut self, label: &str, span: SourceSpan) {
        self.equation_spans.insert(label.to_string(), span);
    }

    /// The source position of equation `label`, when it came from parsed
    /// DSL text. Lint diagnostics use this to point at the declaration.
    pub fn equation_span(&self, label: &str) -> Option<SourceSpan> {
        self.equation_spans.get(label).copied()
    }

    /// A fresh normalizer over this specification's rules (shared, not
    /// copied).
    pub fn normalizer(&self) -> Normalizer {
        Normalizer::new(self.alg.clone(), Arc::clone(&self.rules))
    }

    /// Open a proof passage's scope: record the term store, signature and
    /// Boolean vocabulary as they are now, to [`Spec::rollback`] to.
    pub fn mark(&self) -> SpecMark {
        SpecMark {
            store: self.store.mark(),
            alg: self.alg.clone(),
        }
    }

    /// Close the scope opened by `mark`: drop every term, variable, sort
    /// and operator declared since (fresh constants included, so their
    /// names repeat) and restore the Boolean vocabulary. Rules, modules
    /// and other metadata are not rolled back; proof passages never add
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `mark` lies beyond the store's current size.
    pub fn rollback(&mut self, mark: SpecMark) {
        self.store.rollback(mark.store);
        self.alg = mark.alg;
    }

    /// Reduce a term to normal form with a throwaway normalizer — the
    /// CafeOBJ `red` command at the top level.
    ///
    /// # Errors
    ///
    /// Rewriting errors (fuel).
    pub fn red(&mut self, t: TermId) -> Result<TermId, SpecError> {
        let mut norm = self.normalizer();
        let result = norm.normalize(&mut self.store, t)?;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_spec_has_bool_installed() {
        let spec = Spec::new().unwrap();
        assert_eq!(spec.modules()[0].name, "BOOL");
        assert!(spec.store().signature().sort_by_name("Bool").is_some());
    }

    #[test]
    fn builder_declares_and_rewrites() {
        let mut spec = Spec::new().unwrap();
        spec.begin_module("M");
        spec.visible_sort("S").unwrap();
        spec.constructor("c", &[], "S").unwrap();
        spec.constructor("d", &[], "S").unwrap();
        spec.defined_op("f", &["S"], "S").unwrap();
        let c = spec.const_term("c").unwrap();
        let d = spec.const_term("d").unwrap();
        let fc = spec.app("f", &[c]).unwrap();
        spec.eq("f-c", fc, d).unwrap();
        assert_eq!(spec.red(fc).unwrap(), d);
        assert_eq!(spec.modules().last().unwrap().equations, vec!["f-c"]);
    }

    #[test]
    fn conditional_equations_respect_conditions() {
        let mut spec = Spec::new().unwrap();
        spec.begin_module("M");
        spec.visible_sort("S").unwrap();
        spec.constructor("c", &[], "S").unwrap();
        spec.constructor("d", &[], "S").unwrap();
        spec.defined_op("g", &["S", "S"], "S").unwrap();
        let x = spec.var("X", "S").unwrap();
        let y = spec.var("Y", "S").unwrap();
        let gxy = spec.app("g", &[x, y]).unwrap();
        let cond = spec.eq_term(x, y).unwrap();
        let c = spec.const_term("c").unwrap();
        spec.ceq("g-diag", gxy, c, cond).unwrap();
        let d = spec.const_term("d").unwrap();
        let gcc = spec.app("g", &[c, c]).unwrap();
        let gcd = spec.app("g", &[c, d]).unwrap();
        assert_eq!(spec.red(gcc).unwrap(), c);
        assert_eq!(spec.red(gcd).unwrap(), gcd);
    }

    #[test]
    fn unknown_names_error_cleanly() {
        let mut spec = Spec::new().unwrap();
        assert!(matches!(
            spec.sort_id("Nope"),
            Err(SpecError::UnknownSort(_))
        ));
        assert!(matches!(
            spec.const_term("nope"),
            Err(SpecError::UnknownOp { .. })
        ));
        spec.begin_module("M");
        spec.visible_sort("S").unwrap();
        let e = spec.op("f", &["S", "Nope"], "S", OpAttrs::defined());
        assert!(matches!(e, Err(SpecError::UnknownSort(_))));
    }

    #[test]
    fn overload_resolution_uses_argument_sorts() {
        let mut spec = Spec::new().unwrap();
        spec.begin_module("M");
        spec.visible_sort("A").unwrap();
        spec.visible_sort("B").unwrap();
        spec.constructor("a0", &[], "A").unwrap();
        spec.constructor("b0", &[], "B").unwrap();
        spec.constructor("wrapA", &["A"], "A").unwrap();
        spec.defined_op("size", &["A"], "A").unwrap();
        spec.defined_op("size", &["B"], "B").unwrap();
        let a0 = spec.const_term("a0").unwrap();
        let b0 = spec.const_term("b0").unwrap();
        let sa = spec.app("size", &[a0]).unwrap();
        let sb = spec.app("size", &[b0]).unwrap();
        assert_eq!(spec.store().sort_of(sa), spec.sort_id("A").unwrap());
        assert_eq!(spec.store().sort_of(sb), spec.sort_id("B").unwrap());
    }

    #[test]
    fn import_records_metadata() {
        let mut spec = Spec::new().unwrap();
        spec.begin_module("N");
        spec.import("BOOL");
        spec.import("BOOL");
        assert_eq!(spec.modules().last().unwrap().imports, vec!["BOOL"]);
    }
}
