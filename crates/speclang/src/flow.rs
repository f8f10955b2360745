//! Statement-level control-flow programs for dataflow analysis.
//!
//! [`FlowProgram::from_spec`] lowers a parsed [`Spec`] into one small
//! control-flow graph per behavior: structured statements desugar into
//! branch/join nodes, `for` loops into an init/header/increment diamond
//! with an explicit back edge, `fork` into a parallel diamond, and a
//! `process` body into an infinite loop (body end → body start), so
//! locals persist across iterations exactly as they do at run time.
//!
//! The lowering is span-faithful (every node carries the span of the
//! statement it came from) but the per-behavior [`FlowBehavior::hash`]
//! is span-agnostic: two behaviors with identical structure hash equal
//! even when whitespace or surrounding declarations moved. The analysis
//! memo keys per-behavior results on that hash.
//!
//! `@allow(...)` annotations are collected into [`Suppressions`],
//! carried alongside the graphs so analysis passes can suppress
//! findings per declaration.

use crate::ast::{
    BehaviorDecl, BehaviorKind, BinOp, Direction, Expr, LValue, Spec, Stmt, Type, UnOp,
};
use crate::span::Span;
use std::collections::{BTreeMap, BTreeSet};

/// What kind of storage a [`SlotInfo`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// A formal parameter (initialized by the caller).
    Param,
    /// A behavior-local variable.
    Local,
    /// A `for` loop variable (initialized by the loop header).
    LoopVar,
    /// A system-level variable.
    Global,
    /// An external port with the given direction.
    Port(Direction),
}

/// One named storage location visible to a behavior.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotInfo {
    /// The source name.
    pub name: String,
    /// Parameter, local, loop variable, global, or port.
    pub kind: SlotKind,
    /// Declared integer width in bits (element width for arrays); `None`
    /// for booleans and loop variables.
    pub width: Option<u32>,
    /// Whether the declared type is `bool`.
    pub is_bool: bool,
    /// Whether the declared type is an array.
    pub is_array: bool,
}

/// A side-effect-free expression over slots and constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowExpr {
    /// An integer (or `true`/`false` as 1/0) constant; named constants
    /// are folded here during lowering.
    Const(i128),
    /// A read of a scalar slot.
    Slot(u32),
    /// A read of one element of an array slot.
    Index {
        /// The array slot.
        slot: u32,
        /// The element selector.
        index: Box<FlowExpr>,
    },
    /// A call in expression position (user function or builtin).
    Call {
        /// Callee name.
        callee: String,
        /// Actual arguments.
        args: Vec<FlowExpr>,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<FlowExpr>,
        /// Right operand.
        rhs: Box<FlowExpr>,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        operand: Box<FlowExpr>,
    },
    /// A name lowering could not resolve (only on unresolved specs).
    Unknown,
}

impl FlowExpr {
    /// Visits every slot this expression reads.
    pub fn for_each_use(&self, f: &mut dyn FnMut(u32)) {
        match self {
            FlowExpr::Const(_) | FlowExpr::Unknown => {}
            FlowExpr::Slot(s) => f(*s),
            FlowExpr::Index { slot, index } => {
                f(*slot);
                index.for_each_use(f);
            }
            FlowExpr::Call { args, .. } => {
                for a in args {
                    a.for_each_use(f);
                }
            }
            FlowExpr::Binary { lhs, rhs, .. } => {
                lhs.for_each_use(f);
                rhs.for_each_use(f);
            }
            FlowExpr::Unary { operand, .. } => operand.for_each_use(f),
        }
    }

    /// Whether the expression contains a call to a user-defined behavior
    /// (anything that is not a pure builtin), i.e. may have side effects.
    pub fn calls_user_code(&self) -> bool {
        match self {
            FlowExpr::Const(_) | FlowExpr::Slot(_) | FlowExpr::Unknown => false,
            FlowExpr::Index { index, .. } => index.calls_user_code(),
            FlowExpr::Call { callee, args } => {
                !is_builtin(callee) || args.iter().any(FlowExpr::calls_user_code)
            }
            FlowExpr::Binary { lhs, rhs, .. } => lhs.calls_user_code() || rhs.calls_user_code(),
            FlowExpr::Unary { operand, .. } => operand.calls_user_code(),
        }
    }
}

/// Whether `name` is one of the language builtins (`min`/`max`/`abs`).
pub fn is_builtin(name: &str) -> bool {
    crate::BUILTINS.iter().any(|(n, _)| *n == name)
}

/// The operation a [`FlowNode`] performs.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowOp {
    /// The unique entry node (always node 0).
    Entry,
    /// The unique exit node.
    Exit,
    /// A no-op merge/sequence point.
    Join,
    /// A write of `value` to `dst` (one element when `index` is set).
    Assign {
        /// Target slot.
        dst: u32,
        /// Element selector for array-element writes (boxed: rare, and
        /// inline it would grow every node by a whole expression).
        index: Option<Box<FlowExpr>>,
        /// The stored value.
        value: FlowExpr,
    },
    /// A two-way branch: `succs[0]` is taken when `cond` holds, `succs[1]`
    /// otherwise.
    Branch {
        /// The branch condition.
        cond: FlowExpr,
        /// Whether this is a loop header (target of a back edge).
        loop_header: bool,
    },
    /// A statement-position call.
    Call {
        /// Callee name.
        callee: String,
        /// Actual arguments.
        args: Vec<FlowExpr>,
    },
    /// A message send.
    Send {
        /// Receiving behavior name.
        target: String,
        /// The payload (boxed: rare, and inline it would grow every node).
        value: Box<FlowExpr>,
    },
    /// A message receive into `dst`.
    Receive {
        /// Target slot.
        dst: u32,
        /// Element selector for array-element targets.
        index: Option<Box<FlowExpr>>,
    },
    /// A return (edges to the exit node).
    Return {
        /// The returned value, for functions.
        value: Option<FlowExpr>,
    },
    /// A `wait` delay.
    Wait,
}

/// One node of a behavior's control-flow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowNode {
    /// What the node does.
    pub op: FlowOp,
    /// The span of the source statement this node came from.
    pub span: Span,
    /// Whether the node was synthesized by desugaring (loop init,
    /// header test, increment, joins) rather than written by the user.
    pub synthetic: bool,
    /// Successor node indices.
    pub succs: Succs,
}

/// The successor indices of a [`FlowNode`], read as a slice. Every node
/// but the entry of a fork with three or more arms has at most two, and
/// those are stored inline: a node costs no allocation for its edges.
#[derive(Clone, Default)]
pub struct Succs(SuccsRepr);

#[derive(Clone)]
enum SuccsRepr {
    /// Up to two targets, unused slots holding [`NO_SUCC`] (no node has
    /// that index: it would be the `u32::MAX + 1`-th).
    Inline([u32; 2]),
    Spilled(Box<[u32]>),
}

const NO_SUCC: u32 = u32::MAX;

impl Default for SuccsRepr {
    fn default() -> Self {
        SuccsRepr::Inline([NO_SUCC; 2])
    }
}

impl Succs {
    fn push(&mut self, target: u32) {
        match &mut self.0 {
            SuccsRepr::Inline(slots) => match slots.iter_mut().find(|t| **t == NO_SUCC) {
                Some(free) => *free = target,
                None => self.0 = SuccsRepr::Spilled(Box::new([slots[0], slots[1], target])),
            },
            SuccsRepr::Spilled(all) => {
                let mut grown = all.to_vec();
                grown.push(target);
                *all = grown.into_boxed_slice();
            }
        }
    }
}

impl std::ops::Deref for Succs {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match &self.0 {
            SuccsRepr::Inline(slots) => {
                let len = slots.iter().take_while(|&&t| t != NO_SUCC).count();
                &slots[..len]
            }
            SuccsRepr::Spilled(all) => all,
        }
    }
}

impl<'a> IntoIterator for &'a Succs {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Succs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Succs {}

impl std::fmt::Debug for Succs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FlowNode {
    /// Visits every slot this node reads (including element selectors of
    /// indexed writes, which are reads).
    pub fn for_each_use(&self, f: &mut dyn FnMut(u32)) {
        match &self.op {
            FlowOp::Entry | FlowOp::Exit | FlowOp::Join | FlowOp::Wait => {}
            FlowOp::Assign { index, value, .. } => {
                if let Some(ix) = index {
                    ix.for_each_use(f);
                }
                value.for_each_use(f);
            }
            FlowOp::Branch { cond, .. } => cond.for_each_use(f),
            FlowOp::Call { args, .. } => {
                for a in args {
                    a.for_each_use(f);
                }
            }
            FlowOp::Send { value, .. } => value.for_each_use(f),
            FlowOp::Receive { index, .. } => {
                if let Some(ix) = index {
                    ix.for_each_use(f);
                }
            }
            FlowOp::Return { value } => {
                if let Some(v) = value {
                    v.for_each_use(f);
                }
            }
        }
    }

    /// The slot this node writes, if any, and whether the write is to a
    /// single array element (`true`) rather than the whole slot.
    pub fn def(&self) -> Option<(u32, bool)> {
        match &self.op {
            FlowOp::Assign { dst, index, .. } | FlowOp::Receive { dst, index } => {
                Some((*dst, index.is_some()))
            }
            _ => None,
        }
    }
}

/// The control-flow graph of one behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowBehavior {
    /// The behavior's name.
    pub name: String,
    /// Whether it is a concurrent `process`.
    pub is_process: bool,
    /// Declared return width for `func`s returning `int<N>`.
    pub ret_width: Option<u32>,
    /// All storage locations the behavior touches.
    pub slots: Vec<SlotInfo>,
    /// The graph; node 0 is [`FlowOp::Entry`].
    pub nodes: Vec<FlowNode>,
    /// The index of the [`FlowOp::Exit`] node.
    pub exit: u32,
    /// Targets of back edges — the points where iterative solvers widen.
    pub widen_points: Vec<u32>,
    /// Span-agnostic structural hash of the whole behavior; equal hashes
    /// mean per-behavior analysis results can be reused verbatim.
    pub hash: u64,
}

impl FlowBehavior {
    /// Predecessor lists, computed from [`FlowNode::succs`].
    pub fn preds(&self) -> Vec<Vec<u32>> {
        let mut preds = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for &s in &n.succs {
                preds[s as usize].push(i as u32);
            }
        }
        preds
    }

    /// This graph with its node spans shifted to a moved but otherwise
    /// unchanged declaration at `decl`, or `None` when `decl` cannot be
    /// the same text (its length or column differs). The entry node
    /// carries the declaration's own span; every other node shifts by
    /// the same byte and line delta, as the reparse shifted the AST.
    fn moved_to(mut self, decl: Span) -> Option<Self> {
        let from = self.nodes.first()?.span;
        if from.end - from.start != decl.end - decl.start || from.col != decl.col {
            return None;
        }
        let byte_delta = decl.start as isize - from.start as isize;
        let line_delta = i64::from(decl.line) - i64::from(from.line);
        if byte_delta != 0 || line_delta != 0 {
            for n in &mut self.nodes {
                n.span = n.span.rebased(byte_delta, line_delta);
            }
        }
        Some(self)
    }

    /// Names of user behaviors this one calls (statement or expression
    /// position), in first-occurrence order.
    pub fn callees(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for n in &self.nodes {
            collect_callees(&n.op, &mut out);
        }
        out
    }
}

fn collect_callees<'a>(op: &'a FlowOp, out: &mut Vec<&'a str>) {
    let mut visit_expr = |e: &'a FlowExpr| collect_expr_callees(e, out);
    match op {
        FlowOp::Assign { index, value, .. } => {
            if let Some(ix) = index {
                visit_expr(ix);
            }
            visit_expr(value);
        }
        FlowOp::Branch { cond, .. } => visit_expr(cond),
        FlowOp::Call { callee, args } => {
            if !is_builtin(callee) && !out.contains(&callee.as_str()) {
                out.push(callee);
            }
            for a in args {
                collect_expr_callees(a, out);
            }
        }
        FlowOp::Send { value, .. } => visit_expr(value),
        FlowOp::Return { value: Some(v) } => visit_expr(v),
        _ => {}
    }
}

fn collect_expr_callees<'a>(e: &'a FlowExpr, out: &mut Vec<&'a str>) {
    match e {
        FlowExpr::Call { callee, args } => {
            if !is_builtin(callee) && !out.contains(&callee.as_str()) {
                out.push(callee);
            }
            for a in args {
                collect_expr_callees(a, out);
            }
        }
        FlowExpr::Index { index, .. } => collect_expr_callees(index, out),
        FlowExpr::Binary { lhs, rhs, .. } => {
            collect_expr_callees(lhs, out);
            collect_expr_callees(rhs, out);
        }
        FlowExpr::Unary { operand, .. } => collect_expr_callees(operand, out),
        _ => {}
    }
}

/// `@allow(...)` suppressions collected from a [`Spec`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Suppressions {
    /// Lint codes suppressed per behavior name (whole-subtree).
    pub behaviors: BTreeMap<String, BTreeSet<String>>,
    /// Lint codes suppressed per system-variable name.
    pub vars: BTreeMap<String, BTreeSet<String>>,
}

impl Suppressions {
    /// Collects every `@allow` annotation in the specification.
    pub fn from_spec(spec: &Spec) -> Self {
        let mut s = Suppressions::default();
        for v in &spec.vars {
            if !v.allows.is_empty() {
                s.vars
                    .entry(v.name.clone())
                    .or_default()
                    .extend(v.allows.iter().cloned());
            }
        }
        for b in &spec.behaviors {
            if !b.allows.is_empty() {
                s.behaviors
                    .entry(b.name.clone())
                    .or_default()
                    .extend(b.allows.iter().cloned());
            }
        }
        s
    }

    /// Whether no annotation is present at all.
    pub fn is_empty(&self) -> bool {
        self.behaviors.is_empty() && self.vars.is_empty()
    }

    /// Whether `code` is suppressed for the named behavior.
    pub fn behavior_allows(&self, behavior: &str, code: &str) -> bool {
        self.behaviors
            .get(behavior)
            .is_some_and(|codes| codes.contains(code))
    }

    /// Whether `code` is suppressed for the named system variable.
    pub fn var_allows(&self, var: &str, code: &str) -> bool {
        self.vars.get(var).is_some_and(|codes| codes.contains(code))
    }

    /// A stable fingerprint of the whole suppression set; analysis memos
    /// treat a fingerprint change like a configuration change.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for (name, codes) in &self.behaviors {
            h.str("b");
            h.str(name);
            for c in codes {
                h.str(c);
            }
        }
        for (name, codes) in &self.vars {
            h.str("v");
            h.str(name);
            for c in codes {
                h.str(c);
            }
        }
        h.finish()
    }
}

/// A whole specification lowered for dataflow analysis: one CFG per
/// behavior plus the collected suppressions.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowProgram {
    /// Per-behavior graphs, in declaration order.
    pub behaviors: Vec<FlowBehavior>,
    /// `@allow` suppressions from the same specification.
    pub suppressions: Suppressions,
    index: BTreeMap<String, usize>,
    /// The only inputs a behavior's lowering reads besides its own
    /// declaration; [`relower`](Self::relower) reuses graphs only while
    /// both are unchanged.
    globals: GlobalScope,
    consts: BTreeMap<String, i128>,
}

impl FlowProgram {
    /// Lowers a parsed specification. Never fails: unresolved names
    /// lower to [`FlowExpr::Unknown`], which every analysis treats as
    /// "no information".
    pub fn from_spec(spec: &Spec) -> Self {
        Self::lower(spec, None, &[])
    }

    /// Lowers `spec`, the result of an edit to the specification `prev`
    /// was lowered from, re-lowering only the behaviors at the `dirty`
    /// indices. Every other graph is moved over from `prev` with its
    /// node spans shifted to its new declaration. The result equals
    /// [`from_spec`](Self::from_spec) of `spec` — spans and hashes
    /// included — provided each clean behavior's declaration is textually
    /// unchanged (only moved), as
    /// [`region_candidates`](crate::region_candidates) guarantees.
    ///
    /// What this method can check itself, it does: unless the behavior
    /// count, the name at every clean index, the global scope and the
    /// constant table are all unchanged, it lowers everything, and it
    /// re-lowers a clean behavior whose declaration changed length or
    /// column.
    pub fn relower(prev: FlowProgram, spec: &Spec, dirty: &[usize]) -> Self {
        Self::lower(spec, Some(prev), dirty)
    }

    /// The one lowering path: [`from_spec`](Self::from_spec) is the case
    /// where nothing can be reused.
    fn lower(spec: &Spec, prev: Option<FlowProgram>, dirty: &[usize]) -> Self {
        let consts = fold_consts(spec);
        let prev = prev.filter(|p| {
            p.behaviors.len() == spec.behaviors.len()
                && p.consts == consts
                && p.globals.matches(spec)
                && p.behaviors
                    .iter()
                    .zip(&spec.behaviors)
                    .enumerate()
                    .all(|(i, (fb, decl))| fb.name == decl.name || dirty.contains(&i))
        });
        let (globals, old, old_index) = match prev {
            Some(FlowProgram {
                behaviors,
                index,
                globals,
                ..
            }) => {
                let mut old: Vec<Option<FlowBehavior>> = behaviors.into_iter().map(Some).collect();
                for &i in dirty {
                    if let Some(slot) = old.get_mut(i) {
                        *slot = None;
                    }
                }
                (globals, old, Some(index))
            }
            None => (GlobalScope::new(spec), Vec::new(), None),
        };
        let behaviors: Vec<FlowBehavior> = spec
            .behaviors
            .iter()
            .zip(old.into_iter().chain(std::iter::repeat_with(|| None)))
            .map(
                |(decl, old)| match old.and_then(|fb| fb.moved_to(decl.span)) {
                    Some(fb) => fb,
                    None => Builder::lower(decl, &globals, &consts),
                },
            )
            .collect();
        // The name index survives when every re-lowered behavior kept
        // its name (`index[name] == i` means index `i` had that name).
        let index = match old_index {
            Some(ix)
                if dirty
                    .iter()
                    .all(|&i| behaviors.get(i).is_none_or(|b| ix.get(&b.name) == Some(&i))) =>
            {
                ix
            }
            _ => behaviors
                .iter()
                .enumerate()
                .map(|(i, b)| (b.name.clone(), i))
                .collect(),
        };
        FlowProgram {
            behaviors,
            suppressions: Suppressions::from_spec(spec),
            index,
            globals,
            consts,
        }
    }

    /// Looks up a behavior's graph by name.
    pub fn get(&self, name: &str) -> Option<&FlowBehavior> {
        self.index.get(name).map(|&i| &self.behaviors[i])
    }

    /// Behavior indices in callee-first (bottom-up) order: every callee
    /// precedes its callers; call cycles are broken at the back edge.
    /// Deterministic for a given program.
    pub fn bottom_up_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.behaviors.len());
        let mut state = vec![0u8; self.behaviors.len()]; // 0 new, 1 open, 2 done
        for i in 0..self.behaviors.len() {
            self.post_order(i, &mut state, &mut order);
        }
        order
    }

    fn post_order(&self, i: usize, state: &mut [u8], order: &mut Vec<usize>) {
        if state[i] != 0 {
            return;
        }
        state[i] = 1;
        for callee in self.behaviors[i].callees() {
            if let Some(&j) = self.index.get(callee) {
                if state[j] == 0 {
                    self.post_order(j, state, order);
                }
            }
        }
        state[i] = 2;
        order.push(i);
    }
}

/// Evaluates every `const` declaration to an integer, in order, so later
/// constants can reference earlier ones.
fn fold_consts(spec: &Spec) -> BTreeMap<String, i128> {
    let mut consts = BTreeMap::new();
    for c in &spec.consts {
        if let Some(v) = eval_const(&c.value, &consts) {
            consts.insert(c.name.clone(), v);
        }
    }
    consts
}

fn eval_const(e: &Expr, consts: &BTreeMap<String, i128>) -> Option<i128> {
    match e {
        Expr::Int { value, .. } => Some(i128::from(*value)),
        Expr::Bool { value, .. } => Some(i128::from(*value)),
        Expr::Name { name, .. } => consts.get(name).copied(),
        Expr::Binary { op, lhs, rhs, .. } => {
            let l = eval_const(lhs, consts)?;
            let r = eval_const(rhs, consts)?;
            Some(match op {
                BinOp::Add => l.checked_add(r)?,
                BinOp::Sub => l.checked_sub(r)?,
                BinOp::Mul => l.checked_mul(r)?,
                BinOp::Div => l.checked_div(r)?,
                BinOp::Rem => l.checked_rem(r)?,
                BinOp::Eq => i128::from(l == r),
                BinOp::Ne => i128::from(l != r),
                BinOp::Lt => i128::from(l < r),
                BinOp::Le => i128::from(l <= r),
                BinOp::Gt => i128::from(l > r),
                BinOp::Ge => i128::from(l >= r),
                BinOp::And => i128::from(l != 0 && r != 0),
                BinOp::Or => i128::from(l != 0 || r != 0),
            })
        }
        Expr::Unary { op, operand, .. } => {
            let v = eval_const(operand, consts)?;
            Some(match op {
                UnOp::Neg => v.checked_neg()?,
                UnOp::Not => i128::from(v == 0),
            })
        }
        _ => None,
    }
}

#[derive(Debug, Clone, PartialEq)]
struct GlobalScope {
    /// Ports, then system variables, in declaration order.
    decls: Vec<SlotInfo>,
    /// Name to index into `decls`; a later declaration of a name wins.
    by_name: BTreeMap<String, usize>,
}

impl GlobalScope {
    fn new(spec: &Spec) -> Self {
        let decls: Vec<SlotInfo> = spec
            .ports
            .iter()
            .map(|p| slot_info(&p.name, SlotKind::Port(p.direction), &p.ty))
            .chain(
                spec.vars
                    .iter()
                    .map(|v| slot_info(&v.name, SlotKind::Global, &v.ty)),
            )
            .collect();
        let by_name = decls
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), i))
            .collect();
        GlobalScope { decls, by_name }
    }

    /// Whether [`new`](Self::new) of `spec` would build this scope, by
    /// one in-order pass over the declarations instead of a rebuild.
    fn matches(&self, spec: &Spec) -> bool {
        let ports = spec
            .ports
            .iter()
            .map(|p| (&p.name, SlotKind::Port(p.direction), &p.ty));
        let vars = spec.vars.iter().map(|v| (&v.name, SlotKind::Global, &v.ty));
        self.decls.len() == spec.ports.len() + spec.vars.len()
            && ports
                .chain(vars)
                .zip(&self.decls)
                .all(|((name, kind, ty), s)| {
                    s.name == *name
                        && s.kind == kind
                        && (s.width, s.is_bool, s.is_array) == shape(ty)
                })
    }

    fn get(&self, name: &str) -> Option<&SlotInfo> {
        self.by_name.get(name).map(|&i| &self.decls[i])
    }
}

/// Width, `is_bool` and `is_array` of a declared type, as [`SlotInfo`]
/// records them.
fn shape(ty: &Type) -> (Option<u32>, bool, bool) {
    let width = match *ty {
        Type::Int(bits) => Some(bits),
        Type::Bool => None,
        Type::Array { elem_bits, .. } => Some(elem_bits),
    };
    (width, matches!(ty, Type::Bool), ty.is_array())
}

fn slot_info(name: &str, kind: SlotKind, ty: &Type) -> SlotInfo {
    let (width, is_bool, is_array) = shape(ty);
    SlotInfo {
        name: name.to_owned(),
        kind,
        width,
        is_bool,
        is_array,
    }
}

struct Builder<'a> {
    globals: &'a GlobalScope,
    consts: &'a BTreeMap<String, i128>,
    slots: Vec<SlotInfo>,
    by_name: BTreeMap<String, u32>,
    nodes: Vec<FlowNode>,
    widen_points: Vec<u32>,
    exit: u32,
}

impl<'a> Builder<'a> {
    fn lower(
        decl: &BehaviorDecl,
        globals: &'a GlobalScope,
        consts: &'a BTreeMap<String, i128>,
    ) -> FlowBehavior {
        let mut b = Builder {
            globals,
            consts,
            slots: Vec::new(),
            by_name: BTreeMap::new(),
            nodes: Vec::new(),
            widen_points: Vec::new(),
            exit: 0,
        };
        for p in &decl.params {
            b.add_slot(slot_info(&p.name, SlotKind::Param, &p.ty));
        }
        for l in &decl.locals {
            b.add_slot(slot_info(&l.name, SlotKind::Local, &l.ty));
        }

        let entry = b.add(FlowOp::Entry, decl.span, true);
        let is_process = decl.kind == BehaviorKind::Process;
        let mut cur = entry;
        let top = if is_process {
            let top = b.add(FlowOp::Join, decl.span, true);
            b.edge(cur, top);
            cur = top;
            Some(top)
        } else {
            None
        };
        for stmt in &decl.body {
            cur = b.stmt(cur, stmt);
        }
        if let Some(top) = top {
            // The process repeats forever: body end feeds body start.
            b.edge(cur, top);
            b.widen_points.push(top);
        }
        let exit = b.add(FlowOp::Exit, decl.span, true);
        b.edge(cur, exit);
        b.exit = exit;
        // `return` nodes were built before the exit existed; wire them up.
        for i in 0..b.nodes.len() {
            if matches!(b.nodes[i].op, FlowOp::Return { .. }) && b.nodes[i].succs.is_empty() {
                b.nodes[i].succs.push(exit);
            }
        }
        b.widen_points.sort_unstable();
        b.widen_points.dedup();
        // Edit sessions keep the program across edits: drop the growth
        // slack so the retained graphs cost only what they hold.
        b.nodes.shrink_to_fit();
        b.slots.shrink_to_fit();
        b.widen_points.shrink_to_fit();

        let ret_width = match &decl.kind {
            BehaviorKind::Function { ret: Type::Int(bits) } => Some(*bits),
            _ => None,
        };
        let mut fb = FlowBehavior {
            name: decl.name.clone(),
            is_process,
            ret_width,
            slots: b.slots,
            nodes: b.nodes,
            exit,
            widen_points: b.widen_points,
            hash: 0,
        };
        fb.hash = structural_hash(&fb);
        fb
    }

    fn add_slot(&mut self, info: SlotInfo) -> u32 {
        if let Some(&i) = self.by_name.get(&info.name) {
            return i;
        }
        let i = self.slots.len() as u32;
        self.by_name.insert(info.name.clone(), i);
        self.slots.push(info);
        i
    }

    /// Resolves a name to a slot, pulling in globals/ports lazily; named
    /// constants fold to `None` (the caller produces a constant).
    fn slot_of(&mut self, name: &str) -> Option<u32> {
        if let Some(&i) = self.by_name.get(name) {
            return Some(i);
        }
        if self.consts.contains_key(name) {
            return None;
        }
        let info = self.globals.get(name)?.clone();
        Some(self.add_slot(info))
    }

    fn add(&mut self, op: FlowOp, span: Span, synthetic: bool) -> u32 {
        let i = self.nodes.len() as u32;
        self.nodes.push(FlowNode {
            op,
            span,
            synthetic,
            succs: Succs::default(),
        });
        i
    }

    fn edge(&mut self, from: u32, to: u32) {
        self.nodes[from as usize].succs.push(to);
    }

    fn stmt(&mut self, cur: u32, stmt: &Stmt) -> u32 {
        match stmt {
            Stmt::Assign { lhs, value, span } => {
                let value = self.expr(value);
                let n = self.lvalue_write(lhs, value, *span, false);
                self.edge(cur, n);
                n
            }
            Stmt::Call { callee, args, span } => {
                let args = args.iter().map(|a| self.expr(a)).collect();
                let n = self.add(
                    FlowOp::Call {
                        callee: callee.clone(),
                        args,
                    },
                    *span,
                    false,
                );
                self.edge(cur, n);
                n
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                span,
                ..
            } => {
                let cond = self.expr(cond);
                let branch = self.add(
                    FlowOp::Branch {
                        cond,
                        loop_header: false,
                    },
                    *span,
                    false,
                );
                self.edge(cur, branch);
                let then_entry = self.add(FlowOp::Join, *span, true);
                let mut then_end = then_entry;
                for s in then_body {
                    then_end = self.stmt(then_end, s);
                }
                let else_entry = self.add(FlowOp::Join, *span, true);
                let mut else_end = else_entry;
                for s in else_body {
                    else_end = self.stmt(else_end, s);
                }
                self.edge(branch, then_entry);
                self.edge(branch, else_entry);
                let join = self.add(FlowOp::Join, *span, true);
                self.edge(then_end, join);
                self.edge(else_end, join);
                join
            }
            Stmt::For {
                var,
                lo,
                hi,
                body,
                span,
            } => {
                let lo = self.expr(lo);
                let hi = self.expr(hi);
                let iv = self.add_slot(SlotInfo {
                    name: var.clone(),
                    kind: SlotKind::LoopVar,
                    width: None,
                    is_bool: false,
                    is_array: false,
                });
                let init = self.add(
                    FlowOp::Assign {
                        dst: iv,
                        index: None,
                        value: lo,
                    },
                    *span,
                    true,
                );
                self.edge(cur, init);
                // Bounds are inclusive: `for i in lo .. hi` runs i = lo..=hi.
                let header = self.add(
                    FlowOp::Branch {
                        cond: FlowExpr::Binary {
                            op: BinOp::Le,
                            lhs: Box::new(FlowExpr::Slot(iv)),
                            rhs: Box::new(hi),
                        },
                        loop_header: true,
                    },
                    *span,
                    true,
                );
                self.edge(init, header);
                let body_entry = self.add(FlowOp::Join, *span, true);
                self.edge(header, body_entry);
                let mut end = body_entry;
                for s in body {
                    end = self.stmt(end, s);
                }
                let inc = self.add(
                    FlowOp::Assign {
                        dst: iv,
                        index: None,
                        value: FlowExpr::Binary {
                            op: BinOp::Add,
                            lhs: Box::new(FlowExpr::Slot(iv)),
                            rhs: Box::new(FlowExpr::Const(1)),
                        },
                    },
                    *span,
                    true,
                );
                self.edge(end, inc);
                self.edge(inc, header);
                self.widen_points.push(header);
                let after = self.add(FlowOp::Join, *span, true);
                self.edge(header, after);
                after
            }
            Stmt::While {
                cond, body, span, ..
            } => {
                let cond = self.expr(cond);
                let header = self.add(
                    FlowOp::Branch {
                        cond,
                        loop_header: true,
                    },
                    *span,
                    false,
                );
                self.edge(cur, header);
                let body_entry = self.add(FlowOp::Join, *span, true);
                self.edge(header, body_entry);
                let mut end = body_entry;
                for s in body {
                    end = self.stmt(end, s);
                }
                self.edge(end, header);
                self.widen_points.push(header);
                let after = self.add(FlowOp::Join, *span, true);
                self.edge(header, after);
                after
            }
            Stmt::Fork { body, span } => {
                let fork = self.add(FlowOp::Join, *span, true);
                self.edge(cur, fork);
                let join = self.add(FlowOp::Join, *span, true);
                if body.is_empty() {
                    self.edge(fork, join);
                } else {
                    for s in body {
                        let arm = self.stmt(fork, s);
                        self.edge(arm, join);
                    }
                }
                join
            }
            Stmt::Send {
                target,
                value,
                span,
            } => {
                let value = Box::new(self.expr(value));
                let n = self.add(
                    FlowOp::Send {
                        target: target.clone(),
                        value,
                    },
                    *span,
                    false,
                );
                self.edge(cur, n);
                n
            }
            Stmt::Receive { lhs, span } => {
                let n = match self.slot_of(lhs.name()) {
                    Some(dst) => {
                        let index = match lhs {
                            LValue::Index { index, .. } => Some(Box::new(self.expr(index))),
                            LValue::Name { .. } => None,
                        };
                        self.add(FlowOp::Receive { dst, index }, *span, false)
                    }
                    None => self.add(FlowOp::Join, *span, false),
                };
                self.edge(cur, n);
                n
            }
            Stmt::Return { value, span } => {
                let value = value.as_ref().map(|v| self.expr(v));
                let ret = self.add(FlowOp::Return { value }, *span, false);
                self.edge(cur, ret);
                // The return's edge to exit is patched in `lower`; code
                // after it starts a fresh (unreachable) chain.
                self.add(FlowOp::Join, *span, true)
            }
            Stmt::Wait { span, .. } => {
                let n = self.add(FlowOp::Wait, *span, false);
                self.edge(cur, n);
                n
            }
        }
    }

    fn lvalue_write(&mut self, lhs: &LValue, value: FlowExpr, span: Span, synthetic: bool) -> u32 {
        match self.slot_of(lhs.name()) {
            Some(dst) => {
                let index = match lhs {
                    LValue::Index { index, .. } => Some(Box::new(self.expr(index))),
                    LValue::Name { .. } => None,
                };
                self.add(FlowOp::Assign { dst, index, value }, span, synthetic)
            }
            // Assignment to a constant or unknown name: no-op node so the
            // chain stays connected (the resolver reports the error).
            None => self.add(FlowOp::Join, span, synthetic),
        }
    }

    fn expr(&mut self, e: &Expr) -> FlowExpr {
        match e {
            Expr::Int { value, .. } => FlowExpr::Const(i128::from(*value)),
            Expr::Bool { value, .. } => FlowExpr::Const(i128::from(*value)),
            Expr::Name { name, .. } => {
                if let Some(&i) = self.by_name.get(name) {
                    return FlowExpr::Slot(i);
                }
                if let Some(&v) = self.consts.get(name) {
                    return FlowExpr::Const(v);
                }
                match self.slot_of(name) {
                    Some(i) => FlowExpr::Slot(i),
                    None => FlowExpr::Unknown,
                }
            }
            Expr::Index { name, index, .. } => {
                let index = Box::new(self.expr(index));
                match self.slot_of(name) {
                    Some(slot) => FlowExpr::Index { slot, index },
                    None => FlowExpr::Unknown,
                }
            }
            Expr::Call { callee, args, .. } => FlowExpr::Call {
                callee: callee.clone(),
                args: args.iter().map(|a| self.expr(a)).collect(),
            },
            Expr::Binary { op, lhs, rhs, .. } => FlowExpr::Binary {
                op: *op,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
            },
            Expr::Unary { op, operand, .. } => FlowExpr::Unary {
                op: *op,
                operand: Box::new(self.expr(operand)),
            },
        }
    }
}

/// FNV-1a, the same cheap stable hash used elsewhere in the workspace.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u8(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }
    fn i128(&mut self, v: i128) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.as_bytes() {
            self.u8(*b);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

fn structural_hash(b: &FlowBehavior) -> u64 {
    let mut h = Fnv::new();
    h.str(&b.name);
    h.u8(u8::from(b.is_process));
    h.u32(b.ret_width.map_or(u32::MAX, |w| w));
    for s in &b.slots {
        h.str(&s.name);
        h.u8(match s.kind {
            SlotKind::Param => 0,
            SlotKind::Local => 1,
            SlotKind::LoopVar => 2,
            SlotKind::Global => 3,
            SlotKind::Port(Direction::In) => 4,
            SlotKind::Port(Direction::Out) => 5,
            SlotKind::Port(Direction::Inout) => 6,
        });
        h.u32(s.width.map_or(u32::MAX, |w| w));
        h.u8(u8::from(s.is_bool));
        h.u8(u8::from(s.is_array));
    }
    for n in &b.nodes {
        h.u8(u8::from(n.synthetic));
        hash_op(&mut h, &n.op);
        h.u64(n.succs.len() as u64);
        for &s in &n.succs {
            h.u32(s);
        }
    }
    h.u32(b.exit);
    for &w in &b.widen_points {
        h.u32(w);
    }
    h.finish()
}

fn hash_op(h: &mut Fnv, op: &FlowOp) {
    match op {
        FlowOp::Entry => h.u8(0),
        FlowOp::Exit => h.u8(1),
        FlowOp::Join => h.u8(2),
        FlowOp::Assign { dst, index, value } => {
            h.u8(3);
            h.u32(*dst);
            h.u8(u8::from(index.is_some()));
            if let Some(ix) = index {
                hash_expr(h, ix);
            }
            hash_expr(h, value);
        }
        FlowOp::Branch { cond, loop_header } => {
            h.u8(4);
            h.u8(u8::from(*loop_header));
            hash_expr(h, cond);
        }
        FlowOp::Call { callee, args } => {
            h.u8(5);
            h.str(callee);
            for a in args {
                hash_expr(h, a);
            }
        }
        FlowOp::Send { target, value } => {
            h.u8(6);
            h.str(target);
            hash_expr(h, value);
        }
        FlowOp::Receive { dst, index } => {
            h.u8(7);
            h.u32(*dst);
            h.u8(u8::from(index.is_some()));
            if let Some(ix) = index {
                hash_expr(h, ix);
            }
        }
        FlowOp::Return { value } => {
            h.u8(8);
            h.u8(u8::from(value.is_some()));
            if let Some(v) = value {
                hash_expr(h, v);
            }
        }
        FlowOp::Wait => h.u8(9),
    }
}

fn hash_expr(h: &mut Fnv, e: &FlowExpr) {
    match e {
        FlowExpr::Const(v) => {
            h.u8(0);
            h.i128(*v);
        }
        FlowExpr::Slot(s) => {
            h.u8(1);
            h.u32(*s);
        }
        FlowExpr::Index { slot, index } => {
            h.u8(2);
            h.u32(*slot);
            hash_expr(h, index);
        }
        FlowExpr::Call { callee, args } => {
            h.u8(3);
            h.str(callee);
            h.u64(args.len() as u64);
            for a in args {
                hash_expr(h, a);
            }
        }
        FlowExpr::Binary { op, lhs, rhs } => {
            h.u8(4);
            h.u8(*op as u8);
            hash_expr(h, lhs);
            hash_expr(h, rhs);
        }
        FlowExpr::Unary { op, operand } => {
            h.u8(5);
            h.u8(*op as u8);
            hash_expr(h, operand);
        }
        FlowExpr::Unknown => h.u8(6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn program(src: &str) -> FlowProgram {
        FlowProgram::from_spec(&parse(src).expect("parse"))
    }

    #[test]
    fn lowers_straight_line_process_with_back_edge() {
        let p = program(
            "system T;\nvar x : int<8>;\nprocess Main { x = 1; wait 10; }\n",
        );
        let main = p.get("Main").expect("Main");
        assert!(main.is_process);
        assert!(matches!(main.nodes[0].op, FlowOp::Entry));
        // entry → top → assign → wait → {top, exit}
        assert_eq!(main.widen_points, vec![1]);
        let wait = main
            .nodes
            .iter()
            .position(|n| matches!(n.op, FlowOp::Wait))
            .expect("wait node");
        assert!(main.nodes[wait].succs.contains(&1));
        assert!(main.nodes[wait].succs.contains(&main.exit));
    }

    #[test]
    fn for_loop_desugars_with_inclusive_header_and_widen_point() {
        let p = program(
            "system T;\nvar a : int<8>[10];\nproc P() { for i in 0 .. 9 { a[i] = i; } }\n",
        );
        let b = p.get("P").expect("P");
        let header = b
            .nodes
            .iter()
            .position(|n| matches!(n.op, FlowOp::Branch { loop_header: true, .. }))
            .expect("loop header");
        assert_eq!(b.widen_points, vec![header as u32]);
        let FlowOp::Branch { cond, .. } = &b.nodes[header].op else {
            unreachable!();
        };
        // i <= 9 (inclusive upper bound).
        assert!(
            matches!(cond, FlowExpr::Binary { op: BinOp::Le, rhs, .. }
                if **rhs == FlowExpr::Const(9)),
            "{cond:?}"
        );
        // Loop variable got a slot.
        assert!(b.slots.iter().any(|s| s.name == "i" && s.kind == SlotKind::LoopVar));
    }

    #[test]
    fn named_constants_fold_into_expressions() {
        let p = program(
            "system T;\nconst N = 4;\nconst M = N * 2;\nvar x : int<8>;\n\
             proc P() { x = M + 1; }\n",
        );
        let b = p.get("P").expect("P");
        let assign = b
            .nodes
            .iter()
            .find_map(|n| match &n.op {
                FlowOp::Assign { value, .. } => Some(value.clone()),
                _ => None,
            })
            .expect("assign");
        assert_eq!(
            assign,
            FlowExpr::Binary {
                op: BinOp::Add,
                lhs: Box::new(FlowExpr::Const(8)),
                rhs: Box::new(FlowExpr::Const(1)),
            }
        );
    }

    #[test]
    fn hash_is_span_agnostic_but_structure_sensitive() {
        let a = program("system T;\nvar x : int<8>;\nproc P() { x = 1; }\n");
        let b = program("system T;\n\n\nvar x : int<8>;\n\n\nproc   P() { x =   1; }\n");
        let c = program("system T;\nvar x : int<8>;\nproc P() { x = 2; }\n");
        assert_eq!(
            a.get("P").map(|p| p.hash),
            b.get("P").map(|p| p.hash),
            "whitespace must not change the hash"
        );
        assert_ne!(
            a.get("P").map(|p| p.hash),
            c.get("P").map(|p| p.hash),
            "a changed literal must change the hash"
        );
    }

    #[test]
    fn bottom_up_order_is_callee_first() {
        let p = program(
            "system T;\nvar x : int<8>;\n\
             func F(v : int<8>) -> int<8> { return v + 1; }\n\
             proc Mid() { x = F(x); }\n\
             process Main { call Mid(); }\n",
        );
        let order = p.bottom_up_order();
        let pos = |name: &str| {
            order
                .iter()
                .position(|&i| p.behaviors[i].name == name)
                .expect("behavior in order")
        };
        assert!(pos("F") < pos("Mid"));
        assert!(pos("Mid") < pos("Main"));
    }

    #[test]
    fn suppressions_collect_and_fingerprint() {
        let p = program(
            "system T;\n@allow(A008)\nvar x : int<8>;\n\
             @allow(A006, A009)\nprocess Main { x = 1; }\n",
        );
        assert!(p.suppressions.var_allows("x", "A008"));
        assert!(p.suppressions.behavior_allows("Main", "A006"));
        assert!(p.suppressions.behavior_allows("Main", "A009"));
        assert!(!p.suppressions.behavior_allows("Main", "A007"));
        let q = program("system T;\nvar x : int<8>;\nprocess Main { x = 1; }\n");
        assert!(q.suppressions.is_empty());
        assert_ne!(p.suppressions.fingerprint(), q.suppressions.fingerprint());
    }

    #[test]
    fn fork_with_three_arms_keeps_every_successor() {
        let p = program(
            "system T;\nvar x : int<8>;\nproc A() { x = 1; }\n\
             proc P() { fork { call A(); call A(); call A(); } }\n",
        );
        let b = p.get("P").expect("P");
        let calls: Vec<u32> = (0..b.nodes.len() as u32)
            .filter(|&i| matches!(b.nodes[i as usize].op, FlowOp::Call { .. }))
            .collect();
        let fork = b
            .nodes
            .iter()
            .find(|n| n.succs.len() == 3)
            .expect("the fork entry has one edge per arm");
        assert_eq!(*fork.succs, calls[..]);
        assert_eq!(format!("{:?}", fork.succs), format!("{calls:?}"));
    }

    #[test]
    fn return_wires_to_exit_and_code_after_is_disconnected() {
        let p = program(
            "system T;\nvar x : int<8>;\n\
             func F(v : int<8>) -> int<8> { return v; x = 3; }\n",
        );
        let b = p.get("F").expect("F");
        let ret = b
            .nodes
            .iter()
            .position(|n| matches!(n.op, FlowOp::Return { .. }))
            .expect("return");
        assert_eq!(*b.nodes[ret].succs, [b.exit]);
        // The trailing assignment has no path from entry.
        let preds = b.preds();
        let assign = b
            .nodes
            .iter()
            .position(|n| matches!(n.op, FlowOp::Assign { .. }))
            .expect("assign");
        let mut reach = vec![false; b.nodes.len()];
        let mut stack = vec![0u32];
        while let Some(n) = stack.pop() {
            if reach[n as usize] {
                continue;
            }
            reach[n as usize] = true;
            stack.extend(&b.nodes[n as usize].succs);
        }
        assert!(!reach[assign], "code after return must be unreachable");
        let _ = preds;
    }

    #[test]
    fn corpus_lowers_without_unknowns() {
        for entry in crate::corpus::all() {
            let spec = parse(entry.source).expect("corpus parses");
            let p = FlowProgram::from_spec(&spec);
            for b in &p.behaviors {
                for n in &b.nodes {
                    let mut has_unknown = false;
                    n.for_each_use(&mut |_| {});
                    check_no_unknown(&n.op, &mut has_unknown);
                    assert!(
                        !has_unknown,
                        "{}::{} lowered with Unknown in {:?}",
                        entry.name, b.name, n.op
                    );
                }
            }
        }
    }

    /// A fixture with every statement form, so re-lowering has ports,
    /// constants, arrays, loops, forks, messages and returns to shift.
    const RELOWER_BASE: &str = concat!(
        "system Demo;\n",
        "port in1 : in int<8>;\n",
        "port out1 : out int<8>;\n",
        "const K = 4;\n",
        "var shared : int<8>;\n",
        "var buf : int<8>[8];\n",
        "func Helper(x : int<8>) -> int<8> {\n",
        "  return x + K;\n",
        "}\n",
        "proc Fill(n : int<8>) {\n",
        "  for i in 0 .. 7 {\n",
        "    buf[i] = n;\n",
        "  }\n",
        "}\n",
        "process Main {\n",
        "  var t : int<8>;\n",
        "  t = Helper(in1);\n",
        "  if t > 3 prob 0.5 {\n",
        "    shared = t;\n",
        "  } else {\n",
        "    fork { call Fill(t); call Fill(1); }\n",
        "  }\n",
        "  send Aux t;\n",
        "  wait 5;\n",
        "}\n",
        "process Aux {\n",
        "  receive buf[2];\n",
        "  while shared < 9 iters 4 {\n",
        "    shared = shared + 1;\n",
        "  }\n",
        "  out1 = shared;\n",
        "  wait 9;\n",
        "}\n",
    );

    /// Seeded region edits that grow and shrink the text by bytes and
    /// lines — inside bodies, between behaviors, in the globals ahead of
    /// them, and after the last one: re-lowering the previous program
    /// must equal lowering the new AST from scratch, spans and hashes
    /// included, and must actually reuse clean behaviors.
    #[test]
    fn relower_matches_from_spec_across_region_edits() {
        const INSERTS: &[&str] = &[
            "  shared = shared + 2;\n",
            "  wait 1;\n  wait 2;\n",
            "\n\n",
            "-- a comment line\n",
            "var extra : int<16>;\n",
            "proc Later() {\n  shared = 7;\n}\n",
            "  if shared > 1 prob 0.5 { shared = 0; }\n",
        ];
        let limits = crate::ParseLimits::default();
        let mut reused = 0usize;
        let mut relowered = 0usize;
        for seed in 0..24u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut source = RELOWER_BASE.to_owned();
            let mut spec = parse(&source).expect("fixture parses");
            let mut prog = FlowProgram::from_spec(&spec);
            for step in 0..40 {
                // Whole-line edits keep the region boundaries at line
                // starts, so most of them stay regional.
                let starts: Vec<usize> = std::iter::once(0)
                    .chain(source.match_indices('\n').map(|(i, _)| i + 1))
                    .filter(|&i| i < source.len())
                    .collect();
                let line = starts[(next() as usize) % starts.len()];
                let line_end = source[line..].find('\n').map_or(source.len(), |e| line + e + 1);
                let delta = match next() % 4 {
                    0 => crate::EditDelta::new(line, line_end, ""),
                    1 => {
                        // Grow or shrink one number by a digit.
                        let Some(d) = source[line..line_end].find(|c: char| c.is_ascii_digit())
                        else {
                            continue;
                        };
                        let at = line + d;
                        if next() % 2 == 0 {
                            crate::EditDelta::new(at, at, "1")
                        } else {
                            crate::EditDelta::new(at, at + 1, "")
                        }
                    }
                    _ => crate::EditDelta::new(
                        line,
                        line,
                        INSERTS[(next() as usize) % INSERTS.len()],
                    ),
                };
                let got = crate::reparse_with_edit(&source, &spec, &delta, &limits)
                    .expect("in-bounds ASCII edit");
                if !got.diags.is_empty() {
                    continue; // keep walking from the last clean text
                }
                let cold = FlowProgram::from_spec(&got.spec);
                if let Some(dirty) = crate::region_candidates(&got.spec, got.scope) {
                    let before: Vec<(String, *const FlowNode)> = prog
                        .behaviors
                        .iter()
                        .map(|b| (b.name.clone(), b.nodes.as_ptr()))
                        .collect();
                    prog = FlowProgram::relower(prog, &got.spec, &dirty);
                    relowered += 1;
                    reused += prog
                        .behaviors
                        .iter()
                        .filter(|b| before.contains(&(b.name.clone(), b.nodes.as_ptr())))
                        .count();
                } else {
                    prog = FlowProgram::from_spec(&got.spec);
                }
                assert_eq!(prog, cold, "seed {seed} step {step}: {delta:?}");
                source = got.source;
                spec = got.spec;
            }
        }
        assert!(relowered > 200, "only {relowered} region edits");
        assert!(reused > relowered, "clean behaviors were not reused");
    }

    #[test]
    fn relower_falls_back_when_its_preconditions_fail() {
        let spec = parse(RELOWER_BASE).expect("fixture parses");
        let prog = FlowProgram::from_spec(&spec);
        // A changed global scope, constant table, behavior count, or a
        // clean behavior's name: whatever `dirty` claims, the result is
        // a full lowering of the new text.
        for (from, to) in [
            ("var shared : int<8>;", "var shared : int<16>;"),
            ("const K = 4;", "const K = 5;"),
            ("process Aux {", "proc Extra() { wait 1; }\nprocess Aux {"),
            ("proc Fill(", "proc Fill2("),
        ] {
            let edited = parse(&RELOWER_BASE.replace(from, to)).expect("edit parses");
            let got = FlowProgram::relower(prog.clone(), &edited, &[]);
            assert_eq!(got, FlowProgram::from_spec(&edited), "{from} -> {to}");
        }
    }

    fn check_no_unknown(op: &FlowOp, flag: &mut bool) {
        fn expr(e: &FlowExpr, flag: &mut bool) {
            match e {
                FlowExpr::Unknown => *flag = true,
                FlowExpr::Index { index, .. } => expr(index, flag),
                FlowExpr::Call { args, .. } => args.iter().for_each(|a| expr(a, flag)),
                FlowExpr::Binary { lhs, rhs, .. } => {
                    expr(lhs, flag);
                    expr(rhs, flag);
                }
                FlowExpr::Unary { operand, .. } => expr(operand, flag),
                _ => {}
            }
        }
        match op {
            FlowOp::Assign { index, value, .. } => {
                if let Some(ix) = index {
                    expr(ix, flag);
                }
                expr(value, flag);
            }
            FlowOp::Branch { cond, .. } => expr(cond, flag),
            FlowOp::Call { args, .. } => args.iter().for_each(|a| expr(a, flag)),
            FlowOp::Send { value, .. } => expr(value, flag),
            FlowOp::Return { value: Some(v) } => expr(v, flag),
            _ => {}
        }
    }
}
