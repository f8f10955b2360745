//! Name resolution and semantic checking.
//!
//! Turns a parsed [`Spec`] into a [`ResolvedSpec`]: every name bound,
//! constants evaluated, call signatures checked, and the lightweight type
//! rules enforced (conditions are boolean, arithmetic is integral, array
//! indexing only on arrays, sends target processes, returns only in
//! functions). Later passes — SLIF construction, CDFG lowering,
//! profiling — can then walk the AST without re-validating.

use crate::ast::{
    BehaviorDecl, BehaviorKind, BinOp, Direction, Expr, LValue, Spec, Stmt, Type, UnOp,
};
use crate::diag::{codes, Diagnostic, SpecError};
use crate::span::Span;
use std::collections::HashMap;

/// Builtin functions available in expressions.
pub const BUILTINS: &[(&str, usize)] = &[("min", 2), ("max", 2), ("abs", 1)];

/// What a top-level name refers to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GlobalSymbol {
    /// An external port (index into `spec.ports`).
    Port(usize),
    /// A system-level variable (index into `spec.vars`).
    Var(usize),
    /// A named constant with its evaluated value.
    Const(i64),
    /// A behavior (index into `spec.behaviors`).
    Behavior(usize),
}

/// What a behavior-local name refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalSymbol {
    /// A formal parameter (index into the behavior's `params`).
    Param(usize),
    /// A local variable (index into the behavior's `locals`).
    Local(usize),
}

/// A fully resolved specification.
#[derive(Debug, Clone)]
pub struct ResolvedSpec {
    spec: Spec,
    globals: HashMap<String, GlobalSymbol>,
    locals: Vec<HashMap<String, LocalSymbol>>,
}

impl ResolvedSpec {
    /// The underlying AST.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Consumes the resolution, returning the AST.
    pub fn into_spec(self) -> Spec {
        self.spec
    }

    /// Consumes the resolution, returning the AST and its symbol tables.
    /// An edit session keeps both so the next edit can re-resolve only
    /// the behaviors it touched ([`try_resolve_region`]).
    pub fn into_parts(self) -> (Spec, ResolveTables) {
        let signatures = self
            .spec
            .behaviors
            .iter()
            .map(|b| (b.kind.clone(), b.params.len()))
            .collect();
        let tables = ResolveTables {
            globals: self.globals,
            locals: self.locals,
            signatures,
        };
        (self.spec, tables)
    }

    /// Resolves a top-level name.
    pub fn global(&self, name: &str) -> Option<GlobalSymbol> {
        self.globals.get(name).copied()
    }

    /// Resolves a name inside behavior `b` (params and locals only; loop
    /// variables are scoped to their loops and handled by tree walkers).
    pub fn local(&self, behavior: usize, name: &str) -> Option<LocalSymbol> {
        self.locals.get(behavior)?.get(name).copied()
    }

    /// Resolves a name inside behavior `b`, falling back to globals —
    /// the language's shadowing-free lookup.
    pub fn lookup(&self, behavior: usize, name: &str) -> Option<Symbol> {
        if let Some(l) = self.local(behavior, name) {
            return Some(Symbol::Local(l));
        }
        self.global(name).map(Symbol::Global)
    }

    /// Evaluates a constant expression (integer literals, named constants,
    /// arithmetic).
    ///
    /// # Errors
    ///
    /// A [`Diagnostic`] if the expression is not compile-time constant.
    pub fn eval_const(&self, expr: &Expr) -> Result<i64, Diagnostic> {
        eval_const_expr(expr, &self.globals)
    }

    /// The type of a resolved scalar name inside a behavior, if the name
    /// denotes a typed object (port, variable, param, or local).
    pub fn type_of(&self, behavior: usize, name: &str) -> Option<Type> {
        match self.lookup(behavior, name)? {
            Symbol::Local(LocalSymbol::Param(i)) => {
                Some(self.spec.behaviors[behavior].params[i].ty)
            }
            Symbol::Local(LocalSymbol::Local(i)) => {
                Some(self.spec.behaviors[behavior].locals[i].ty)
            }
            Symbol::Global(GlobalSymbol::Port(i)) => Some(self.spec.ports[i].ty),
            Symbol::Global(GlobalSymbol::Var(i)) => Some(self.spec.vars[i].ty),
            Symbol::Global(GlobalSymbol::Const(_)) => Some(Type::Int(64)),
            Symbol::Global(GlobalSymbol::Behavior(_)) => None,
        }
    }
}

/// The symbol tables of a [`ResolvedSpec`], detached from its AST by
/// [`ResolvedSpec::into_parts`].
#[derive(Debug, Clone)]
pub struct ResolveTables {
    globals: HashMap<String, GlobalSymbol>,
    locals: Vec<HashMap<String, LocalSymbol>>,
    /// Kind and parameter count per behavior: all a behavior's checks
    /// read of *other* behaviors (call arity, process/procedure/function
    /// roles), so a behavior that keeps them cannot change another's
    /// diagnostics.
    signatures: Vec<(BehaviorKind, usize)>,
}

/// A resolved name: behavior-local or global.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Symbol {
    /// A parameter or local of the enclosing behavior.
    Local(LocalSymbol),
    /// A top-level object.
    Global(GlobalSymbol),
}

/// Resolves and checks a parsed spec.
///
/// # Errors
///
/// A [`SpecError`] batching every diagnostic found.
///
/// # Examples
///
/// ```
/// let spec = slif_speclang::parse(
///     "system T;\nvar x : int<8>;\nprocess Main { x = x + 1; }",
/// )?;
/// let resolved = slif_speclang::resolve(spec)?;
/// assert!(resolved.global("x").is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn resolve(spec: Spec) -> Result<ResolvedSpec, SpecError> {
    try_resolve(spec).map_err(|(_, e)| e)
}

/// [`resolve`], but hands the AST back alongside the error so callers
/// that keep the parse tree across failed resolutions (edit sessions
/// reparse against it) need not clone the spec up front.
///
/// # Errors
///
/// The unconsumed [`Spec`] paired with the [`SpecError`] that
/// [`resolve`] would have returned.
#[allow(clippy::result_large_err)]
pub fn try_resolve(spec: Spec) -> Result<ResolvedSpec, (Spec, SpecError)> {
    let mut diags = Vec::new();
    let mut globals: HashMap<String, GlobalSymbol> = HashMap::new();

    fn declare(
        globals: &mut HashMap<String, GlobalSymbol>,
        name: &str,
        sym: GlobalSymbol,
        span: Span,
        diags: &mut Vec<Diagnostic>,
    ) {
        if globals.insert(name.to_owned(), sym).is_some() {
            diags.push(Diagnostic::error(
                span,
                codes::RESOLVE_SEMANTIC,
                format!("`{name}` is declared more than once"),
            ));
        }
    }

    for (i, p) in spec.ports.iter().enumerate() {
        declare(
            &mut globals,
            &p.name,
            GlobalSymbol::Port(i),
            p.span,
            &mut diags,
        );
    }
    for (i, v) in spec.vars.iter().enumerate() {
        declare(
            &mut globals,
            &v.name,
            GlobalSymbol::Var(i),
            v.span,
            &mut diags,
        );
    }
    for (i, b) in spec.behaviors.iter().enumerate() {
        declare(
            &mut globals,
            &b.name,
            GlobalSymbol::Behavior(i),
            b.span,
            &mut diags,
        );
    }
    // Constants: evaluated in declaration order so later consts may use
    // earlier ones.
    for c in &spec.consts {
        match eval_const_expr(&c.value, &globals) {
            Ok(v) => declare(
                &mut globals,
                &c.name,
                GlobalSymbol::Const(v),
                c.span,
                &mut diags,
            ),
            Err(d) => diags.push(d),
        }
    }

    let locals = spec
        .behaviors
        .iter()
        .map(|b| local_table(b, &globals, &mut diags))
        .collect();
    let resolved = ResolvedSpec {
        spec,
        globals,
        locals,
    };
    for bi in 0..resolved.spec.behaviors.len() {
        check_behavior(&resolved, bi, &mut diags);
    }

    if diags.is_empty() {
        Ok(resolved)
    } else {
        diags.sort_by_key(|d| (d.span().line, d.span().col));
        Err((resolved.spec, SpecError::batch(diags)))
    }
}

/// Re-resolves `spec` after an edit confined to the behaviors at the
/// `dirty` indices, given the `tables` of the previous clean revision:
/// only the dirty behaviors get fresh local tables and are re-checked.
/// The result equals [`try_resolve`] of `spec`, provided every
/// declaration outside `dirty` is textually unchanged (only moved), as
/// [`region_candidates`](crate::region_candidates) guarantees.
///
/// A dirty behavior must keep its name, index, kind and parameter count
/// — the parts other behaviors' checks read — and the declaration
/// counts must match the tables. Otherwise, and whenever the dirty
/// behaviors produce any diagnostic, this falls back to [`try_resolve`],
/// so diagnostics are always those of a cold resolve.
///
/// # Errors
///
/// Exactly what [`try_resolve`] of `spec` returns.
#[allow(clippy::result_large_err)]
pub fn try_resolve_region(
    spec: Spec,
    tables: ResolveTables,
    dirty: &[usize],
) -> Result<ResolvedSpec, (Spec, SpecError)> {
    let ResolveTables {
        globals,
        mut locals,
        signatures,
    } = tables;
    let n = spec.behaviors.len();
    let same_shape = locals.len() == n
        && signatures.len() == n
        && globals.len() == spec.ports.len() + spec.vars.len() + spec.consts.len() + n
        && dirty.iter().all(|&i| {
            spec.behaviors.get(i).is_some_and(|b| {
                globals.get(&b.name) == Some(&GlobalSymbol::Behavior(i))
                    && signatures[i].0 == b.kind
                    && signatures[i].1 == b.params.len()
            })
        });
    if !same_shape {
        return try_resolve(spec);
    }
    let mut diags = Vec::new();
    for &i in dirty {
        locals[i] = local_table(&spec.behaviors[i], &globals, &mut diags);
    }
    let resolved = ResolvedSpec {
        spec,
        globals,
        locals,
    };
    if diags.is_empty() {
        for &i in dirty {
            check_behavior(&resolved, i, &mut diags);
        }
    }
    if diags.is_empty() {
        Ok(resolved)
    } else {
        try_resolve(resolved.spec)
    }
}

/// Builds behavior `b`'s parameter/local table, reporting duplicates and
/// names that shadow a top-level object.
fn local_table(
    b: &BehaviorDecl,
    globals: &HashMap<String, GlobalSymbol>,
    diags: &mut Vec<Diagnostic>,
) -> HashMap<String, LocalSymbol> {
    let mut table: HashMap<String, LocalSymbol> = HashMap::new();
    for (i, p) in b.params.iter().enumerate() {
        if globals.contains_key(&p.name) {
            diags.push(Diagnostic::error(
                p.span,
                codes::RESOLVE_SEMANTIC,
                format!("parameter `{}` shadows a top-level object", p.name),
            ));
        }
        if table
            .insert(p.name.clone(), LocalSymbol::Param(i))
            .is_some()
        {
            diags.push(Diagnostic::error(
                p.span,
                codes::RESOLVE_SEMANTIC,
                format!("parameter `{}` is declared more than once", p.name),
            ));
        }
    }
    for (i, l) in b.locals.iter().enumerate() {
        if globals.contains_key(&l.name) {
            diags.push(Diagnostic::error(
                l.span,
                codes::RESOLVE_SEMANTIC,
                format!("local `{}` shadows a top-level object", l.name),
            ));
        }
        if table
            .insert(l.name.clone(), LocalSymbol::Local(i))
            .is_some()
        {
            diags.push(Diagnostic::error(
                l.span,
                codes::RESOLVE_SEMANTIC,
                format!("local `{}` is declared more than once", l.name),
            ));
        }
    }
    table
}

/// Checks the body of behavior `bi` against the resolved tables.
fn check_behavior(rs: &ResolvedSpec, bi: usize, diags: &mut Vec<Diagnostic>) {
    let decl = &rs.spec.behaviors[bi];
    let mut checker = Checker {
        rs,
        behavior: bi,
        decl,
        loop_vars: Vec::new(),
        diags,
    };
    checker.check_body(&decl.body);
}

struct Checker<'a> {
    rs: &'a ResolvedSpec,
    behavior: usize,
    decl: &'a BehaviorDecl,
    loop_vars: Vec<String>,
    diags: &'a mut Vec<Diagnostic>,
}

/// The checker's notion of an expression type.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ty {
    Int,
    Bool,
    /// Produced after an error; silences cascading diagnostics.
    Unknown,
}

impl<'a> Checker<'a> {
    /// A semantic rule violation ([`codes::RESOLVE_SEMANTIC`]).
    fn err(&mut self, span: Span, message: impl Into<String>) {
        self.diags
            .push(Diagnostic::error(span, codes::RESOLVE_SEMANTIC, message));
    }

    /// A name that is undefined or used in the wrong role
    /// ([`codes::RESOLVE_NAME`]).
    fn err_name(&mut self, span: Span, message: impl Into<String>) {
        self.diags
            .push(Diagnostic::error(span, codes::RESOLVE_NAME, message));
    }

    fn check_body(&mut self, body: &[Stmt]) {
        for stmt in body {
            self.check_stmt(stmt);
        }
    }

    fn check_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Assign { lhs, value, .. } => {
                self.check_lvalue(lhs, false);
                // Scalar booleans take boolean values; everything else
                // (ints, array elements, ports) takes integers.
                let want = match lhs {
                    LValue::Name { name, .. }
                        if self.rs.type_of(self.behavior, name) == Some(crate::ast::Type::Bool) =>
                    {
                        Ty::Bool
                    }
                    _ => Ty::Int,
                };
                self.check_expr_is(value, want);
            }
            Stmt::Call { callee, args, span } => {
                match self.rs.global(callee) {
                    Some(GlobalSymbol::Behavior(ti)) => {
                        let target = &self.rs.spec.behaviors[ti];
                        match target.kind {
                            BehaviorKind::Process => self.err_name(
                                *span,
                                format!("cannot call process `{callee}`; use `send`"),
                            ),
                            BehaviorKind::Procedure | BehaviorKind::Function { .. } => {
                                self.check_call_args(callee, &target.params.len(), args, span);
                            }
                        }
                    }
                    Some(_) => self.err_name(*span, format!("`{callee}` is not callable")),
                    None => self.err_name(*span, format!("unknown behavior `{callee}`")),
                }
                for a in args {
                    self.check_expr_is(a, Ty::Int);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                self.check_expr_is(cond, Ty::Bool);
                self.check_body(then_body);
                self.check_body(else_body);
            }
            Stmt::For {
                var,
                lo,
                hi,
                body,
                span,
            } => {
                if self.rs.lookup(self.behavior, var).is_some() {
                    self.err(
                        *span,
                        format!("loop variable `{var}` shadows another object"),
                    );
                }
                for bound in [lo, hi] {
                    if self.rs.eval_const(bound).is_err() {
                        self.err(
                            bound.span(),
                            "loop bounds must be compile-time constants".to_owned(),
                        );
                    }
                }
                if let (Ok(l), Ok(h)) = (self.rs.eval_const(lo), self.rs.eval_const(hi)) {
                    if l > h {
                        self.err(*span, format!("empty loop range {l} .. {h}"));
                    }
                }
                self.loop_vars.push(var.clone());
                self.check_body(body);
                self.loop_vars.pop();
            }
            Stmt::While {
                cond,
                iters,
                body,
                span,
            } => {
                self.check_expr_is(cond, Ty::Bool);
                if let Some(i) = iters {
                    if *i < 0.0 || !i.is_finite() {
                        self.err(*span, "iteration count must be non-negative".to_owned());
                    }
                }
                self.check_body(body);
            }
            Stmt::Fork { body, span } => {
                for s in body {
                    if !matches!(s, Stmt::Call { .. }) {
                        self.err(
                            s.span(),
                            "fork bodies may contain only procedure calls".to_owned(),
                        );
                    }
                }
                if body.is_empty() {
                    self.err(*span, "empty fork".to_owned());
                }
                self.check_body(body);
            }
            Stmt::Send {
                target,
                value,
                span,
            } => {
                match self.rs.global(target) {
                    Some(GlobalSymbol::Behavior(ti))
                        if self.rs.spec.behaviors[ti].kind == BehaviorKind::Process => {}
                    Some(GlobalSymbol::Behavior(_)) => {
                        self.err(*span, format!("send target `{target}` is not a process"));
                    }
                    _ => self.err_name(*span, format!("unknown process `{target}`")),
                }
                self.check_expr_is(value, Ty::Int);
            }
            Stmt::Receive { lhs, .. } => {
                self.check_lvalue(lhs, true);
            }
            Stmt::Return { value, span } => match (&self.decl.kind, value) {
                (BehaviorKind::Function { .. }, Some(v)) => self.check_expr_is(v, Ty::Int),
                (BehaviorKind::Function { .. }, None) => {
                    self.err(*span, "function return needs a value".to_owned());
                }
                (_, Some(_)) => {
                    self.err(*span, "only functions return values".to_owned());
                }
                (_, None) => {}
            },
            Stmt::Wait { .. } => {}
        }
    }

    /// `receiving` relaxes the out-port rule (receive lands in storage only).
    fn check_lvalue(&mut self, lhs: &LValue, receiving: bool) {
        let name = lhs.name().to_owned();
        let span = lhs.span();
        if self.loop_vars.contains(&name) {
            self.err(span, format!("cannot assign to loop variable `{name}`"));
            return;
        }
        let sym = self.rs.lookup(self.behavior, &name);
        let ty = match sym {
            Some(Symbol::Local(LocalSymbol::Param(i))) => Some(self.decl.params[i].ty),
            Some(Symbol::Local(LocalSymbol::Local(i))) => Some(self.decl.locals[i].ty),
            Some(Symbol::Global(GlobalSymbol::Var(i))) => Some(self.rs.spec.vars[i].ty),
            Some(Symbol::Global(GlobalSymbol::Port(i))) => {
                let port = &self.rs.spec.ports[i];
                if receiving {
                    self.err(span, "cannot receive into a port".to_owned());
                } else if port.direction == Direction::In {
                    self.err(span, format!("cannot write input port `{name}`"));
                }
                Some(port.ty)
            }
            Some(Symbol::Global(GlobalSymbol::Const(_))) => {
                self.err_name(span, format!("cannot assign to constant `{name}`"));
                None
            }
            Some(Symbol::Global(GlobalSymbol::Behavior(_))) => {
                self.err_name(span, format!("cannot assign to behavior `{name}`"));
                None
            }
            None => {
                self.err_name(span, format!("unknown name `{name}`"));
                None
            }
        };
        match lhs {
            LValue::Index { index, .. } => {
                if let Some(t) = ty {
                    if !t.is_array() {
                        self.err_name(span, format!("`{name}` is not an array"));
                    }
                }
                self.check_expr_is(index, Ty::Int);
            }
            LValue::Name { .. } => {
                if let Some(t) = ty {
                    if t.is_array() {
                        self.err(span, format!("array `{name}` needs an index"));
                    }
                }
            }
        }
    }

    fn check_call_args(&mut self, callee: &str, expected: &usize, args: &[Expr], span: &Span) {
        if args.len() != *expected {
            self.err(
                *span,
                format!(
                    "`{callee}` takes {expected} argument(s), {} given",
                    args.len()
                ),
            );
        }
    }

    fn check_expr_is(&mut self, expr: &Expr, want: Ty) {
        let got = self.infer(expr);
        if got != Ty::Unknown && got != want {
            self.err(
                expr.span(),
                format!(
                    "expected {} expression",
                    if want == Ty::Bool {
                        "boolean"
                    } else {
                        "integer"
                    }
                ),
            );
        }
    }

    fn infer(&mut self, expr: &Expr) -> Ty {
        match expr {
            Expr::Int { .. } => Ty::Int,
            Expr::Bool { .. } => Ty::Bool,
            Expr::Name { name, span } => {
                if self.loop_vars.contains(name) {
                    return Ty::Int;
                }
                match self.rs.lookup(self.behavior, name) {
                    Some(Symbol::Global(GlobalSymbol::Port(i))) => {
                        let port = &self.rs.spec.ports[i];
                        if port.direction == Direction::Out {
                            self.err(*span, format!("cannot read output port `{name}`"));
                        }
                        ty_of(port.ty)
                    }
                    Some(Symbol::Global(GlobalSymbol::Var(i))) => {
                        let t = self.rs.spec.vars[i].ty;
                        if t.is_array() {
                            self.err(*span, format!("array `{name}` needs an index"));
                            Ty::Unknown
                        } else {
                            ty_of(t)
                        }
                    }
                    Some(Symbol::Global(GlobalSymbol::Const(_))) => Ty::Int,
                    Some(Symbol::Global(GlobalSymbol::Behavior(_))) => {
                        self.err_name(*span, format!("behavior `{name}` used as a value"));
                        Ty::Unknown
                    }
                    Some(Symbol::Local(LocalSymbol::Param(i))) => ty_of(self.decl.params[i].ty),
                    Some(Symbol::Local(LocalSymbol::Local(i))) => {
                        let t = self.decl.locals[i].ty;
                        if t.is_array() {
                            self.err(*span, format!("array `{name}` needs an index"));
                            Ty::Unknown
                        } else {
                            ty_of(t)
                        }
                    }
                    None => {
                        self.err_name(*span, format!("unknown name `{name}`"));
                        Ty::Unknown
                    }
                }
            }
            Expr::Index { name, index, span } => {
                self.check_expr_is(index, Ty::Int);
                let ty = if self.loop_vars.contains(name) {
                    None
                } else {
                    match self.rs.lookup(self.behavior, name) {
                        Some(Symbol::Global(GlobalSymbol::Var(i))) => Some(self.rs.spec.vars[i].ty),
                        Some(Symbol::Local(LocalSymbol::Local(i))) => Some(self.decl.locals[i].ty),
                        Some(_) => None,
                        None => {
                            self.err_name(*span, format!("unknown name `{name}`"));
                            return Ty::Unknown;
                        }
                    }
                };
                match ty {
                    Some(t) if t.is_array() => Ty::Int,
                    Some(_) | None => {
                        self.err_name(*span, format!("`{name}` is not an array"));
                        Ty::Unknown
                    }
                }
            }
            Expr::Call { callee, args, span } => {
                if let Some(&(_, arity)) = BUILTINS.iter().find(|(n, _)| n == callee) {
                    if args.len() != arity {
                        self.err(
                            *span,
                            format!("builtin `{callee}` takes {arity} argument(s)"),
                        );
                    }
                    for a in args {
                        self.check_expr_is(a, Ty::Int);
                    }
                    return Ty::Int;
                }
                match self.rs.global(callee) {
                    Some(GlobalSymbol::Behavior(ti)) => {
                        let target = &self.rs.spec.behaviors[ti];
                        match target.kind {
                            BehaviorKind::Function { .. } => {
                                self.check_call_args(callee, &target.params.len(), args, span);
                                for a in args {
                                    self.check_expr_is(a, Ty::Int);
                                }
                                Ty::Int
                            }
                            _ => {
                                self.err(*span, format!("`{callee}` does not return a value"));
                                Ty::Unknown
                            }
                        }
                    }
                    _ => {
                        self.err_name(*span, format!("unknown function `{callee}`"));
                        Ty::Unknown
                    }
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                if op.is_logical() {
                    self.check_expr_is(lhs, Ty::Bool);
                    self.check_expr_is(rhs, Ty::Bool);
                    Ty::Bool
                } else if op.is_comparison() {
                    self.check_expr_is(lhs, Ty::Int);
                    self.check_expr_is(rhs, Ty::Int);
                    Ty::Bool
                } else {
                    self.check_expr_is(lhs, Ty::Int);
                    self.check_expr_is(rhs, Ty::Int);
                    Ty::Int
                }
            }
            Expr::Unary { op, operand, .. } => match op {
                UnOp::Neg => {
                    self.check_expr_is(operand, Ty::Int);
                    Ty::Int
                }
                UnOp::Not => {
                    self.check_expr_is(operand, Ty::Bool);
                    Ty::Bool
                }
            },
        }
    }
}

fn ty_of(t: Type) -> Ty {
    match t {
        Type::Bool => Ty::Bool,
        Type::Int(_) | Type::Array { .. } => Ty::Int,
    }
}

fn eval_const_expr(
    expr: &Expr,
    globals: &HashMap<String, GlobalSymbol>,
) -> Result<i64, Diagnostic> {
    match expr {
        Expr::Int { value, span } => i64::try_from(*value)
            .map_err(|_| Diagnostic::error(*span, codes::RESOLVE_CONST, "constant out of range".to_owned())),
        Expr::Name { name, span } => match globals.get(name) {
            Some(GlobalSymbol::Const(v)) => Ok(*v),
            _ => Err(Diagnostic::error(
                *span,
                codes::RESOLVE_CONST,
                format!("`{name}` is not a constant"),
            )),
        },
        Expr::Binary { op, lhs, rhs, span } => {
            let l = eval_const_expr(lhs, globals)?;
            let r = eval_const_expr(rhs, globals)?;
            let out = match op {
                BinOp::Add => l.checked_add(r),
                BinOp::Sub => l.checked_sub(r),
                BinOp::Mul => l.checked_mul(r),
                BinOp::Div => {
                    if r == 0 {
                        return Err(Diagnostic::error(*span, codes::RESOLVE_CONST, "division by zero".to_owned()));
                    }
                    l.checked_div(r)
                }
                BinOp::Rem => {
                    if r == 0 {
                        return Err(Diagnostic::error(*span, codes::RESOLVE_CONST, "division by zero".to_owned()));
                    }
                    l.checked_rem(r)
                }
                _ => None,
            };
            out.ok_or_else(|| Diagnostic::error(*span, codes::RESOLVE_CONST, "constant expression overflow".to_owned()))
        }
        Expr::Unary {
            op: UnOp::Neg,
            operand,
            span,
        } => eval_const_expr(operand, globals)?
            .checked_neg()
            .ok_or_else(|| Diagnostic::error(*span, codes::RESOLVE_CONST, "constant expression overflow".to_owned())),
        other => Err(Diagnostic::error(
            other.span(),
            codes::RESOLVE_CONST,
            "expression is not compile-time constant".to_owned(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn resolve_src(src: &str) -> Result<ResolvedSpec, SpecError> {
        resolve(parse(src).expect("parse"))
    }

    fn resolve_ok(src: &str) -> ResolvedSpec {
        match resolve_src(src) {
            Ok(r) => r,
            Err(e) => panic!("resolve failed: {e}"),
        }
    }

    fn first_message(src: &str) -> String {
        resolve_src(src).unwrap_err().diagnostics()[0]
            .message()
            .to_owned()
    }

    /// Region edits that change what *other* behaviors' checks read —
    /// a callee's arity, a behavior's name, a process turned procedure,
    /// a local shadowing a global, a call to a process — interleaved
    /// with benign body edits, in seeded orders. After every edit the
    /// region re-resolution (from the last clean revision's tables)
    /// must agree with a cold resolve of the same text: the same
    /// outcome, the same AST, and byte-identical rendered diagnostics.
    #[test]
    fn region_resolution_matches_cold_resolve() {
        const BASE: &str = concat!(
            "system Demo;\n",
            "port in1 : in int<8>;\n",
            "const K = 4;\n",
            "var shared : int<8>;\n",
            "proc Inc(a : int<8>) {\n",
            "  shared = shared + a;\n",
            "}\n",
            "func Twice(v : int<8>) -> int<8> {\n",
            "  return v * 2;\n",
            "}\n",
            "process Main {\n",
            "  var t : int<8>;\n",
            "  t = Twice(in1);\n",
            "  call Inc(t);\n",
            "  send Aux t;\n",
            "  wait 5;\n",
            "}\n",
            "process Aux {\n",
            "  var r : int<8>;\n",
            "  receive r;\n",
            "  call Inc(K);\n",
            "  wait 9;\n",
            "}\n",
        );
        // Each pair toggles: the edit applies `b -> a` when `b` occurs in
        // the text, else `a -> b` (some `b`s extend their `a`).
        const EDITS: &[(&str, &str)] = &[
            ("Inc(a : int<8>)", "Inc(a : int<8>, b : int<8>)"),
            ("Inc(a", "Bump(a"),
            ("process Aux {\n", "proc Aux() {\n"),
            (
                "  var t : int<8>;\n  t =",
                "  var t : int<8>;\n  var shared : int<8>;\n  t =",
            ),
            ("  send Aux t;\n", "  send Aux t;\n  call Aux();\n"),
            ("  return v * 2;\n", "  return v * 2 + K;\n"),
            ("  wait 9;\n", "  wait 9;\n  wait 1;\n"),
            ("  t = Twice(in1);\n", "  t = Twice(in1, 1);\n"),
        ];
        let limits = crate::ParseLimits::default();
        let (mut region_runs, mut region_errs) = (0usize, 0usize);
        for seed in 0..16u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut source = BASE.to_owned();
            let mut spec = parse(&source).expect("fixture parses");
            let mut tables = Some(
                resolve(spec.clone())
                    .expect("fixture resolves")
                    .into_parts()
                    .1,
            );
            let mut last = EDITS[0];
            for step in 0..30 {
                // A broken revision is followed by undoing its edit, so
                // the walk keeps returning to clean text.
                let (a, b) = if tables.is_none() {
                    last
                } else {
                    EDITS[(next() as usize) % EDITS.len()]
                };
                last = (a, b);
                let (from, to) = if source.contains(b) { (b, a) } else { (a, b) };
                // Toggles overlap (a renamed `Inc` hides its arity
                // toggle), so one may have neither side present.
                let Some(at) = source.find(from) else {
                    continue;
                };
                let delta = crate::EditDelta::new(at, at + from.len(), to);
                let got = crate::reparse_with_edit(&source, &spec, &delta, &limits)
                    .expect("in-bounds ASCII edit");
                assert!(got.diags.is_empty(), "every toggle parses");
                let cold = try_resolve(parse(&got.source).expect("parses"));
                // Region re-resolution only from a clean previous
                // revision, as an edit session does it.
                let dirty = crate::region_candidates(&got.spec, got.scope);
                let warm = match (tables.take(), dirty) {
                    (Some(t), Some(dirty)) => {
                        region_runs += 1;
                        try_resolve_region(got.spec.clone(), t, &dirty)
                    }
                    _ => try_resolve(got.spec.clone()),
                };
                let what = format!("seed {seed} step {step}: {from:?} -> {to:?}");
                match (warm, cold) {
                    (Ok(w), Ok(c)) => {
                        assert_eq!(w.spec(), c.spec(), "{what}");
                        for (bi, b) in c.spec().behaviors.iter().enumerate() {
                            let params = b.params.iter().map(|p| &p.name);
                            for name in params.chain(b.locals.iter().map(|l| &l.name)) {
                                assert_eq!(w.lookup(bi, name), c.lookup(bi, name), "{what}");
                            }
                            assert_eq!(w.global(&b.name), c.global(&b.name), "{what}");
                        }
                        tables = Some(w.into_parts().1);
                    }
                    (Err((ws, we)), Err((cs, ce))) => {
                        region_errs += 1;
                        assert_eq!(ws, cs, "{what}");
                        assert_eq!(we.to_string(), ce.to_string(), "{what}");
                        assert_eq!(we.diagnostics(), ce.diagnostics(), "{what}");
                    }
                    (w, c) => panic!(
                        "{what}: region resolve ok={} but cold ok={}",
                        w.is_ok(),
                        c.is_ok()
                    ),
                }
                source = got.source;
                spec = got.spec;
            }
        }
        assert!(
            region_runs > 100,
            "only {region_runs} region re-resolutions"
        );
        assert!(region_errs > 50, "only {region_errs} broken revisions");
    }

    #[test]
    fn resolves_clean_spec() {
        let r = resolve_ok(
            "system T;\n\
             const N = 4;\n\
             port in1 : in int<8>;\n\
             var x : int<8>;\n\
             var a : int<8>[16];\n\
             func F(v : int<8>) -> int<8> { return v + 1; }\n\
             proc P(v : int<8>) { var t : int<8>; t = F(v); a[t] = in1; }\n\
             process Main { x = in1; call P(x); for i in 1 .. N { a[i] = i; } }\n",
        );
        assert_eq!(r.global("N"), Some(GlobalSymbol::Const(4)));
        assert!(matches!(r.global("Main"), Some(GlobalSymbol::Behavior(_))));
        assert!(matches!(r.global("in1"), Some(GlobalSymbol::Port(0))));
        let pi = match r.global("P") {
            Some(GlobalSymbol::Behavior(i)) => i,
            other => panic!("{other:?}"),
        };
        assert_eq!(r.local(pi, "v"), Some(LocalSymbol::Param(0)));
        assert_eq!(r.local(pi, "t"), Some(LocalSymbol::Local(0)));
        assert_eq!(r.local(pi, "x"), None);
        assert!(matches!(
            r.lookup(pi, "x"),
            Some(Symbol::Global(GlobalSymbol::Var(0)))
        ));
    }

    #[test]
    fn const_arithmetic_and_ordering() {
        let r = resolve_ok("system T; const A = 3; const B = A * 2 + 1;");
        assert_eq!(r.global("B"), Some(GlobalSymbol::Const(7)));
    }

    #[test]
    fn duplicate_names_rejected() {
        assert!(
            first_message("system T; var x : int<8>; var x : int<8>;").contains("more than once")
        );
        assert!(first_message("system T; var x : int<8>; proc x() { }").contains("more than once"));
    }

    #[test]
    fn shadowing_rejected() {
        assert!(
            first_message("system T; var x : int<8>; proc P(x : int<8>) { }").contains("shadows")
        );
        assert!(
            first_message("system T; var x : int<8>; proc P() { var x : int<8>; }")
                .contains("shadows")
        );
    }

    #[test]
    fn unknown_names_rejected() {
        assert!(first_message("system T; proc P() { y = 1; }").contains("unknown name"));
        assert!(first_message("system T; proc P() { call Q(); }").contains("unknown behavior"));
    }

    #[test]
    fn port_direction_rules() {
        assert!(first_message(
            "system T; port o : out int<8>; var x : int<8>; proc P() { x = o; }"
        )
        .contains("cannot read output port"));
        assert!(
            first_message("system T; port i : in int<8>; proc P() { i = 1; }")
                .contains("cannot write input port")
        );
        // Inout works both ways.
        resolve_ok(
            "system T; port io : inout int<8>; var x : int<8>; proc P() { x = io; io = x; }",
        );
    }

    #[test]
    fn array_usage_rules() {
        assert!(
            first_message("system T; var a : int<8>[4]; proc P() { a = 1; }")
                .contains("needs an index")
        );
        assert!(
            first_message("system T; var x : int<8>; proc P() { x[0] = 1; }")
                .contains("not an array")
        );
        assert!(
            first_message("system T; var x : int<8>; var y : int<8>; proc P() { y = x[2]; }")
                .contains("not an array")
        );
    }

    #[test]
    fn call_rules() {
        assert!(
            first_message("system T; proc P(a : int<8>) { } process M { call P(); }")
                .contains("takes 1 argument")
        );
        assert!(
            first_message("system T; process W { wait 1; } process M { call W(); }")
                .contains("use `send`")
        );
        assert!(
            first_message("system T; var x : int<8>; proc P() { } proc Q() { x = P(); }")
                .contains("does not return")
        );
    }

    #[test]
    fn builtin_arity_checked() {
        assert!(
            first_message("system T; var x : int<8>; proc P() { x = min(1); }")
                .contains("takes 2 argument")
        );
        resolve_ok("system T; var x : int<8>; proc P() { x = abs(0 - x); }");
    }

    #[test]
    fn send_and_receive_rules() {
        assert!(
            first_message("system T; proc P() { } process M { send P 1; }")
                .contains("not a process")
        );
        assert!(first_message("system T; process M { send Nope 1; }").contains("unknown process"));
        resolve_ok("system T; var m : int<8>; process A { send B m; } process B { receive m; }");
    }

    #[test]
    fn return_rules() {
        assert!(first_message("system T; proc P() { return 3; }")
            .contains("only functions return values"));
        assert!(first_message("system T; func F() -> int<8> { return; }").contains("needs a value"));
        resolve_ok("system T; proc P() { return; }");
    }

    #[test]
    fn loop_rules() {
        assert!(first_message(
            "system T; var n : int<8>; var a : int<8>[4]; proc P() { for i in 1 .. n { a[i] = 1; } }"
        )
        .contains("compile-time"));
        assert!(first_message(
            "system T; var a : int<8>[4]; proc P() { for i in 5 .. 2 { a[i] = 1; } }"
        )
        .contains("empty loop range"));
        assert!(first_message(
            "system T; var i : int<8>; var a : int<8>[4]; proc P() { for i in 1 .. 2 { a[i] = 1; } }"
        )
        .contains("shadows"));
        assert!(first_message(
            "system T; var a : int<8>[4]; proc P() { for i in 1 .. 2 { i = 3; } }"
        )
        .contains("loop variable"));
    }

    #[test]
    fn fork_allows_only_calls() {
        assert!(first_message(
            "system T; var x : int<8>; proc A() { } process M { fork { x = 1; } }"
        )
        .contains("only procedure calls"));
        assert!(first_message("system T; process M { fork { } }").contains("empty fork"));
        resolve_ok(
            "system T; proc A() { } proc B() { } process M { fork { call A(); call B(); } }",
        );
    }

    #[test]
    fn condition_typing() {
        assert!(
            first_message("system T; var x : int<8>; proc P() { if x { x = 1; } }")
                .contains("expected boolean")
        );
        assert!(
            first_message("system T; var b : bool; var x : int<8>; proc P() { x = b + 1; }")
                .contains("expected integer")
        );
        resolve_ok(
            "system T; var b : bool; var x : int<8>; proc P() { if b and x > 0 { x = 1; } }",
        );
    }

    #[test]
    fn diagnostics_sorted_by_location() {
        let err = resolve_src("system T;\nproc P() { y = 1; }\nproc Q() { z = 1; }\n").unwrap_err();
        let lines: Vec<u32> = err.diagnostics().iter().map(|d| d.span().line).collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
        assert!(err.diagnostics().len() >= 2);
    }

    #[test]
    fn type_of_queries() {
        let r = resolve_ok(
            "system T; port i : in int<16>; var a : int<8>[4]; proc P(v : int<4>) { var t : bool; t = true; a[v] = i; }",
        );
        let pi = match r.global("P") {
            Some(GlobalSymbol::Behavior(i)) => i,
            _ => panic!(),
        };
        assert_eq!(r.type_of(pi, "i"), Some(Type::Int(16)));
        assert_eq!(r.type_of(pi, "v"), Some(Type::Int(4)));
        assert_eq!(r.type_of(pi, "t"), Some(Type::Bool));
        assert_eq!(
            r.type_of(pi, "a"),
            Some(Type::Array {
                len: 4,
                elem_bits: 8
            })
        );
        assert_eq!(r.type_of(pi, "nope"), None);
    }

    #[test]
    fn eval_const_rejects_runtime_expressions() {
        let r = resolve_ok("system T; var x : int<8>; proc P() { x = 1; }");
        let e = parse("system D; const Z = 1;").unwrap().consts[0]
            .value
            .clone();
        assert_eq!(r.eval_const(&e).unwrap(), 1);
        let runtime = Expr::Name {
            name: "x".into(),
            span: Span::dummy(),
        };
        assert!(r.eval_const(&runtime).is_err());
    }
    #[test]
    fn resolver_diagnostics_carry_stage_codes() {
        fn first_code(src: &str) -> &'static str {
            resolve_src(src).unwrap_err().diagnostics()[0].code()
        }
        // Undefined or wrong-role name.
        assert_eq!(first_code("system T; proc P() { y = 1; }"), "R001");
        assert_eq!(
            first_code("system T; process M { call Nope(1); }"),
            "R001"
        );
        // Constant evaluation failure.
        assert_eq!(
            first_code("system T; const C = 1 / 0; var a : int<8>[4]; proc P() { a[C] = 1; }"),
            "R002"
        );
        // Semantic rule violation.
        assert_eq!(
            first_code("system T; var x : int<8>; var x : int<8>; proc P() { x = 1; }"),
            "R003"
        );
        assert_eq!(first_code("system T; process M { fork { } }"), "R003");
    }
}
