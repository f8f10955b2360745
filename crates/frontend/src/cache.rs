//! Warm-cache SLIF construction for incremental rebuilds.
//!
//! `build_design` re-runs the paper's T-slif preprocessing — compile and
//! synthesize every behavior against every library model — from scratch.
//! An edit session rebuilding after a one-behavior edit should pay for
//! one behavior, not all of them: [`BuildCache`] keeps each behavior's
//! preprocessing results ([`BehaviorArtifacts`]) keyed by the behavior's
//! AST (modulo source spans), and [`build_design_cached`] reuses every
//! entry whose declaration is unchanged.
//!
//! Soundness over cleverness: a behavior's lowering can read declaration
//! context outside its own body (constant values, variable and port
//! types, other behaviors' signatures), so the cache also fingerprints
//! that environment and drops *everything* when it shifts. Only
//! body-level edits — the overwhelmingly common case in an interactive
//! session — hit the warm path.

use crate::bits::object_access_bits;
use crate::build::{
    build_design_core, compute_artifacts, message_bits, BehaviorArtifacts, BuildOptions,
};
use slif_cdfg::{lower_behavior, Access};
use slif_core::{AccessFreq, AccessKind, AccessTarget, ClassId, Design, NodeId, WeightEntry};
use slif_speclang::ast::{BehaviorDecl, Spec, Stmt};
use slif_speclang::{ForEachSpan, ResolvedSpec};
use slif_techlib::TechnologyLibrary;
use std::collections::HashMap;

/// A per-behavior preprocessing cache for repeated builds of an evolving
/// specification.
///
/// The contract is exact equality: for any resolved spec,
/// [`build_design_cached`] returns the same design `build_design_with`
/// would, whatever the cache held before. The cache only decides how
/// much work that takes.
///
/// # Examples
///
/// ```
/// use slif_frontend::{build_design, build_design_cached, BuildCache, BuildOptions};
/// use slif_techlib::TechnologyLibrary;
///
/// let lib = TechnologyLibrary::proc_asic();
/// let rs = slif_speclang::parse_and_resolve(
///     "system T;\nvar x : int<8>;\nprocess Main { x = x + 1; }",
/// )?;
/// let mut cache = BuildCache::new();
/// let warm = build_design_cached(&rs, &lib, &BuildOptions::default(), &mut cache);
/// assert_eq!(warm, build_design(&rs, &lib));
/// assert_eq!(cache.misses(), 1);
/// // Same spec again: every behavior comes from the cache.
/// let again = build_design_cached(&rs, &lib, &BuildOptions::default(), &mut cache);
/// assert_eq!(again, warm);
/// assert_eq!(cache.hits(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct BuildCache {
    /// The library the cached weights were computed against.
    lib: Option<TechnologyLibrary>,
    /// Declaration context the behaviors were lowered in: the whole spec
    /// modulo spans with behavior bodies and locals emptied (so body
    /// edits leave it untouched).
    env: Option<Spec>,
    entries: HashMap<String, CacheEntry>,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct CacheEntry {
    /// The full declaration (modulo spans) the artifacts were computed
    /// from.
    decl: slif_speclang::ast::BehaviorDecl,
    artifacts: BehaviorArtifacts,
}

impl BuildCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every cached entry (counters survive).
    pub fn clear(&mut self) {
        self.lib = None;
        self.env = None;
        self.entries.clear();
    }

    /// Cached behavior entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Behaviors served from the cache across all builds.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Behaviors that had to be recomputed across all builds.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// The declaration environment a behavior is lowered in: everything in
/// the spec except behavior bodies and locals, modulo spans.
fn env_fingerprint(spec: &Spec) -> Spec {
    let mut env = spec.clone();
    for b in &mut env.behaviors {
        b.body.clear();
        b.locals.clear();
    }
    env.strip_spans();
    env
}

/// [`build_design_with`](crate::build_design_with) through a
/// [`BuildCache`]: behaviors whose declarations are unchanged since the
/// cache's last build reuse their compiled/synthesized weights and
/// access profile; everything else — and the always-cheap variable
/// weights, channel bits, and fork tags — is recomputed against the
/// current spec.
///
/// With `options.schedule_tags` set, an entry is reused only if it was
/// computed with schedule groups too; either way an unchanged behavior
/// costs one AST comparison.
pub fn build_design_cached(
    rs: &ResolvedSpec,
    lib: &TechnologyLibrary,
    options: &BuildOptions,
    cache: &mut BuildCache,
) -> Design {
    let spec = rs.spec();
    let env = env_fingerprint(spec);
    if cache.lib.as_ref() != Some(lib) || cache.env.as_ref() != Some(&env) {
        cache.entries.clear();
        cache.lib = Some(lib.clone());
        cache.env = Some(env);
    }

    let mut artifacts = Vec::with_capacity(spec.behaviors.len());
    for (i, b) in spec.behaviors.iter().enumerate() {
        let mut key = b.clone();
        key.strip_spans();
        match cache.entries.get(&b.name) {
            Some(entry)
                if entry.decl == key
                    && (!options.schedule_tags || entry.artifacts.schedule_groups.is_some()) =>
            {
                cache.hits += 1;
                artifacts.push(entry.artifacts.clone());
            }
            _ => {
                cache.misses += 1;
                let art = compute_artifacts(&lower_behavior(rs, i), lib, options.schedule_tags);
                cache.entries.insert(
                    b.name.clone(),
                    CacheEntry {
                        decl: key,
                        artifacts: art.clone(),
                    },
                );
                artifacts.push(art);
            }
        }
    }
    // Entries for deleted behaviors would otherwise accumulate forever.
    cache
        .entries
        .retain(|name, _| spec.behaviors.iter().any(|b| &b.name == name));

    build_design_core(rs, lib, options, &artifacts)
}

/// Whether any statement in `stmts` (recursively) is a `fork` block.
/// Fork-derived concurrency tags are numbered globally across behaviors,
/// so an edit that adds, removes, or moves a fork can renumber tags far
/// from the edit — such edits take the full-rebuild path.
fn contains_fork(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Fork { .. } => true,
        Stmt::If {
            then_body,
            else_body,
            ..
        } => contains_fork(then_body) || contains_fork(else_body),
        Stmt::For { body, .. } | Stmt::While { body, .. } => contains_fork(body),
        _ => false,
    })
}

/// How one access summary maps into the design graph.
fn access_kind(access: Access) -> AccessKind {
    match access {
        Access::Read => AccessKind::Read,
        Access::Write => AccessKind::Write,
        Access::Call => AccessKind::Call,
        Access::Message => AccessKind::Message,
    }
}

fn access_target(design: &Design, name: &str) -> Option<AccessTarget> {
    if let Some(n) = design.graph().node_by_name(name) {
        Some(n.into())
    } else {
        design.graph().port_by_name(name).map(Into::into)
    }
}

/// A validated per-behavior patch, computed before any design mutation.
struct BehaviorPatch {
    behavior: usize,
    node: NodeId,
    key: BehaviorDecl,
    art: BehaviorArtifacts,
}

/// Patches `design` — a design previously produced against `cache`'s
/// current entries — *in place* for an edit that changed only the bodies
/// of `candidates` (behavior indices into `rs.spec().behaviors`), and
/// returns how many behaviors were actually recomputed. `None` means the
/// edit is not patchable; the design is untouched and the caller must
/// fall back to [`build_design_cached`].
///
/// The caller guarantees (typically from a dirty-region reparse) that
/// every declaration *not* named by `candidates` — every port, constant,
/// variable, and non-candidate behavior — is unchanged modulo source
/// spans since the cache's last build. Under that guarantee, a
/// successful patch leaves `design` exactly equal to a cold
/// [`build_design_with`](crate::build_design_with) of `rs` — including
/// processors, memories, and buses allocated onto it after the original
/// build, which a rebuild would lose and this patch preserves.
///
/// The patch declines (returning `None`, design untouched) whenever
/// equality cannot be guaranteed cheaply:
///
/// - `options.schedule_tags` is set (schedule tags are numbered across
///   the whole design);
/// - the cache is cold, or was built against a different library or
///   declaration environment;
/// - a candidate's signature (name, kind, parameters) changed — that is
///   an environment change in disguise;
/// - a candidate's old or new body contains `fork` (tag numbering is
///   global), or its profiled access sequence changed shape (that is a
///   channel-topology change), or carries duplicate target/kind pairs
///   (channel lookup would be ambiguous).
pub fn try_patch_design(
    rs: &ResolvedSpec,
    lib: &TechnologyLibrary,
    options: &BuildOptions,
    cache: &mut BuildCache,
    design: &mut Design,
    candidates: &[usize],
) -> Option<usize> {
    if options.schedule_tags || cache.lib.as_ref() != Some(lib) {
        return None;
    }
    let env = cache.env.as_ref()?;
    let spec = rs.spec();
    // The cached environment must describe *this* spec shape: same
    // system name and declaration counts. (The per-candidate signature
    // check below covers behavior-level drift; name has no decl span a
    // region check could catch, so it is verified here.)
    if spec.name != env.name
        || spec.ports.len() != env.ports.len()
        || spec.consts.len() != env.consts.len()
        || spec.vars.len() != env.vars.len()
        || spec.behaviors.len() != env.behaviors.len()
    {
        return None;
    }
    let proc_classes: Vec<ClassId> = lib
        .processors
        .iter()
        .map(|m| design.class_by_name(&m.name))
        .collect::<Option<_>>()?;
    let asic_classes: Vec<ClassId> = lib
        .asics
        .iter()
        .map(|m| design.class_by_name(&m.name))
        .collect::<Option<_>>()?;

    // Phase 1: validate every candidate and precompute its artifacts.
    // Nothing is mutated until the whole edit is known to be patchable,
    // so a mid-list bail cannot leave the design half-updated.
    let mut patches = Vec::new();
    for &i in candidates {
        let b = spec.behaviors.get(i)?;
        // The signature must match the cached environment positionally;
        // a signature change invalidates other behaviors' lowerings.
        let mut sig = BehaviorDecl {
            name: b.name.clone(),
            kind: b.kind.clone(),
            params: b.params.clone(),
            locals: Vec::new(),
            body: Vec::new(),
            allows: b.allows.clone(),
            span: b.span,
        };
        sig.strip_spans();
        if sig != env.behaviors[i] {
            return None;
        }
        let entry = cache.entries.get(&b.name)?;
        let mut key = b.clone();
        key.strip_spans();
        if entry.decl == key {
            continue; // span-only change: nothing to recompute
        }
        if contains_fork(&entry.decl.body) || contains_fork(&b.body) {
            return None;
        }
        let node = design.graph().node_by_name(&b.name)?;
        let art = compute_artifacts(&lower_behavior(rs, i), lib, false);
        if art.accesses.len() != entry.artifacts.accesses.len() {
            return None;
        }
        for (j, (old, new)) in entry.artifacts.accesses.iter().zip(&art.accesses).enumerate() {
            if old.target != new.target || old.access != new.access {
                return None;
            }
            let duplicate = art.accesses[..j]
                .iter()
                .any(|p| p.target == new.target && p.access == new.access);
            if duplicate {
                return None;
            }
            // A resolvable access must already have its channel; a build
            // that dropped it (degenerate add_channel failure) cannot be
            // patched back into agreement.
            if let Some(dst) = access_target(design, &new.target) {
                design
                    .graph()
                    .find_channel(node, dst, access_kind(new.access))?;
            }
        }
        patches.push(BehaviorPatch {
            behavior: i,
            node,
            key,
            art,
        });
    }

    // Phase 2: apply. This mirrors `annotate_behavior_weights` and
    // `build_channels` for exactly the recomputed behaviors; weight
    // `set`/`insert` replace per class, so overwriting the stale values
    // reproduces what a fresh annotation pass would leave.
    let changed = patches.len();
    for p in patches {
        for (&(ict, size), &class) in p.art.proc_weights.iter().zip(&proc_classes) {
            design.graph_mut().node_mut(p.node).ict_mut().set(class, ict);
            design.graph_mut().node_mut(p.node).size_mut().set(class, size);
        }
        for (&(ict, size, datapath), &class) in p.art.asic_weights.iter().zip(&asic_classes) {
            design.graph_mut().node_mut(p.node).ict_mut().set(class, ict);
            let entry = match datapath {
                Some(dp) => WeightEntry::with_datapath(class, size, dp),
                None => WeightEntry::new(class, size),
            };
            design.graph_mut().node_mut(p.node).size_mut().insert(entry);
        }
        for summary in &p.art.accesses {
            let Some(dst) = access_target(design, &summary.target) else {
                continue; // unresolvable in the old build too: no channel
            };
            let bits = match summary.access {
                Access::Message => message_bits(rs, p.behavior, &summary.target),
                _ => object_access_bits(rs, &summary.target).unwrap_or(1),
            };
            let Some(c) = design
                .graph()
                .find_channel(p.node, dst, access_kind(summary.access))
            else {
                continue; // validated above; defensive
            };
            let ch = design.graph_mut().channel_mut(c);
            *ch.freq_mut() = AccessFreq::new(summary.avg, summary.min, summary.max);
            ch.set_bits(bits);
        }
        cache.entries.insert(
            p.key.name.clone(),
            CacheEntry {
                decl: p.key,
                artifacts: p.art,
            },
        );
    }
    cache.misses += changed as u64;
    cache.hits += (spec.behaviors.len() - changed) as u64;
    Some(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_design_with;
    use slif_speclang::parse_and_resolve;

    const BASE: &str = "system T;\n\
        port in1 : in int<8>;\n\
        const K = 3;\n\
        var x : int<8>;\n\
        var buf : int<8>[16];\n\
        proc Work(i : int<8>) { buf[i] = x + K; }\n\
        process Main { x = in1; call Work(1); wait 10; }\n\
        process Side { buf[0] = 0; wait 7; }\n";

    fn check(cache: &mut BuildCache, src: &str) {
        let rs = parse_and_resolve(src).unwrap();
        let lib = TechnologyLibrary::proc_asic();
        let opts = BuildOptions::default();
        let warm = build_design_cached(&rs, &lib, &opts, cache);
        let cold = build_design_with(&rs, &lib, &opts);
        assert_eq!(warm, cold, "cached build diverged from cold build");
    }

    #[test]
    fn cached_build_equals_cold_build_across_edits() {
        let mut cache = BuildCache::new();
        check(&mut cache, BASE);
        assert_eq!((cache.hits(), cache.misses()), (0, 3));

        // Identical rebuild: all behaviors warm.
        check(&mut cache, BASE);
        assert_eq!((cache.hits(), cache.misses()), (3, 3));

        // Body edit to one behavior: the other two stay warm.
        check(&mut cache, &BASE.replace("wait 10;", "wait 20;"));
        assert_eq!((cache.hits(), cache.misses()), (5, 4));

        // Whitespace-only edit shifts every span but no declaration;
        // reverting Main's body costs one recompute, the rest stay warm.
        check(&mut cache, &BASE.replace("system T;\n", "system T;\n\n\n"));
        assert_eq!((cache.hits(), cache.misses()), (7, 5));
    }

    #[test]
    fn environment_edits_invalidate_everything() {
        let mut cache = BuildCache::new();
        check(&mut cache, BASE);
        // A constant's value feeds lowered bodies: all entries drop.
        check(&mut cache, &BASE.replace("const K = 3;", "const K = 9;"));
        assert_eq!((cache.hits(), cache.misses()), (0, 6));
        // A variable's type feeds storage weights and channel bits.
        check(
            &mut cache,
            &BASE
                .replace("const K = 3;", "const K = 9;")
                .replace("var x : int<8>;", "var x : int<16>;"),
        );
        assert_eq!((cache.hits(), cache.misses()), (0, 9));
    }

    #[test]
    fn structural_edits_add_and_drop_entries() {
        let mut cache = BuildCache::new();
        check(&mut cache, BASE);
        // Adding a behavior changes the declaration environment (it is a
        // new resolvable name), so the conservative policy recomputes
        // everything rather than reasoning about who could see it.
        check(
            &mut cache,
            &format!("{BASE}process Extra {{ x = 1; wait 3; }}\n"),
        );
        assert_eq!((cache.hits(), cache.misses()), (0, 7));
        assert_eq!(cache.len(), 4);
        // Deleting it drops its entry (another env change).
        check(&mut cache, BASE);
        assert_eq!((cache.hits(), cache.misses()), (0, 10));
        assert_eq!(cache.len(), 3);
    }

    fn warm_design(cache: &mut BuildCache, src: &str) -> Design {
        let rs = parse_and_resolve(src).unwrap();
        build_design_cached(&rs, &TechnologyLibrary::proc_asic(), &BuildOptions::default(), cache)
    }

    /// Patches `design` (warm against `cache` for the *previous* source)
    /// to `src`, with `candidates` naming the edited behaviors, and
    /// checks the result equals a cold build of `src`.
    fn patch_and_check(
        cache: &mut BuildCache,
        design: &mut Design,
        src: &str,
        candidates: &[usize],
    ) -> Option<usize> {
        let rs = parse_and_resolve(src).unwrap();
        let lib = TechnologyLibrary::proc_asic();
        let opts = BuildOptions::default();
        let changed = try_patch_design(&rs, &lib, &opts, cache, design, candidates)?;
        assert_eq!(
            *design,
            build_design_with(&rs, &lib, &opts),
            "patched design diverged from cold build"
        );
        Some(changed)
    }

    #[test]
    fn body_edit_patches_in_place_and_matches_cold_build() {
        let mut cache = BuildCache::new();
        let mut design = warm_design(&mut cache, BASE);
        // Main is behaviors[1] (Work, Main, Side). Change its wait.
        let edited = BASE.replace("wait 10;", "wait 90;");
        let changed = patch_and_check(&mut cache, &mut design, &edited, &[1]);
        assert_eq!(changed, Some(1));
        // A second patch over the already-patched design also holds.
        let edited2 = edited.replace("buf[i] = x + K;", "buf[i] = x * K;");
        let changed = patch_and_check(&mut cache, &mut design, &edited2, &[0]);
        assert_eq!(changed, Some(1));
        // Span-only candidates (body text unchanged) cost no recompute.
        let changed = patch_and_check(&mut cache, &mut design, &edited2, &[2]);
        assert_eq!(changed, Some(0));
    }

    #[test]
    fn patch_preserves_allocation_on_the_design() {
        let mut cache = BuildCache::new();
        let mut design = warm_design(&mut cache, BASE);
        crate::allocate_proc_asic(&mut design);
        let edited = BASE.replace("wait 7;", "wait 70;");
        let rs = parse_and_resolve(&edited).unwrap();
        let lib = TechnologyLibrary::proc_asic();
        let changed = try_patch_design(
            &rs,
            &lib,
            &BuildOptions::default(),
            &mut cache,
            &mut design,
            &[2],
        );
        assert_eq!(changed, Some(1));
        assert_eq!(design.processor_count(), 2, "allocation survived");
        // The graph-level annotations still match a cold build.
        let cold = build_design_with(&rs, &lib, &BuildOptions::default());
        for n in design.graph().node_ids() {
            let name = design.graph().node(n).name().to_owned();
            let cn = cold.graph().node_by_name(&name).unwrap();
            assert_eq!(
                design.graph().node(n).ict(),
                cold.graph().node(cn).ict(),
                "{name}"
            );
        }
    }

    #[test]
    fn patch_declines_unsafe_edits() {
        let lib = TechnologyLibrary::proc_asic();
        let opts = BuildOptions::default();
        let mut cache = BuildCache::new();
        let mut design = warm_design(&mut cache, BASE);

        // Cold cache: nothing to patch against.
        let rs = parse_and_resolve(BASE).unwrap();
        let mut cold_cache = BuildCache::new();
        let mut d2 = design.clone();
        assert_eq!(
            try_patch_design(&rs, &lib, &opts, &mut cold_cache, &mut d2, &[1]),
            None
        );

        // Schedule tags need whole-design synthesis.
        let tag_opts = BuildOptions {
            schedule_tags: true,
        };
        assert_eq!(
            try_patch_design(&rs, &lib, &tag_opts, &mut cache, &mut design, &[1]),
            None
        );

        // A changed access set is a channel-topology change.
        let topo = BASE.replace("process Side { buf[0] = 0; wait 7; }", "process Side { x = 0; wait 7; }");
        let rs2 = parse_and_resolve(&topo).unwrap();
        let before = design.clone();
        assert_eq!(
            try_patch_design(&rs2, &lib, &opts, &mut cache, &mut design, &[2]),
            None
        );
        assert_eq!(design, before, "design untouched on bail");

        // A signature change is an environment change.
        let sig = BASE.replace("proc Work(i : int<8>)", "proc Work(i : int<16>)");
        let rs3 = parse_and_resolve(&sig).unwrap();
        assert_eq!(
            try_patch_design(&rs3, &lib, &opts, &mut cache, &mut design, &[0]),
            None
        );

        // Fork in the new body: tag numbering is global.
        let forked = BASE.replace(
            "process Main { x = in1; call Work(1); wait 10; }",
            "process Main { fork { call Work(1); } wait 10; }",
        );
        let rs4 = parse_and_resolve(&forked).unwrap();
        assert_eq!(
            try_patch_design(&rs4, &lib, &opts, &mut cache, &mut design, &[1]),
            None
        );
        assert_eq!(design, before, "design untouched across all bails");
    }

    #[test]
    fn library_change_invalidates_everything() {
        let rs = parse_and_resolve(BASE).unwrap();
        let opts = BuildOptions::default();
        let mut cache = BuildCache::new();
        let lib = TechnologyLibrary::proc_asic();
        build_design_cached(&rs, &lib, &opts, &mut cache);
        let mut other = lib.clone();
        other.processors[0].cycle_ns += 1;
        let warm = build_design_cached(&rs, &other, &opts, &mut cache);
        assert_eq!(warm, build_design_with(&rs, &other, &opts));
        assert_eq!((cache.hits(), cache.misses()), (0, 6));
    }

    #[test]
    fn schedule_tags_still_match_cold_build() {
        let rs = parse_and_resolve(BASE).unwrap();
        let lib = TechnologyLibrary::proc_asic();
        let opts = BuildOptions {
            schedule_tags: true,
        };
        let mut cache = BuildCache::new();
        build_design_cached(&rs, &lib, &opts, &mut cache);
        let warm = build_design_cached(&rs, &lib, &opts, &mut cache);
        assert_eq!(warm, build_design_with(&rs, &lib, &opts));
    }
}
