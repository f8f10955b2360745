//! Dirty-region reparsing for edit sessions.
//!
//! [`reparse_with_edit`] splices a byte-range edit into a previously
//! parsed source and reparses only the top-level items the edit touches,
//! rebasing every downstream [`Span`](crate::Span) by the byte/line
//! delta. The result is *exactly* `parse_partial(new_source)` — spans
//! included — property-tested below; the incremental path exists purely
//! to skip re-lexing and re-parsing the untouched items.
//!
//! The region rules (any violation falls back to a full reparse, which
//! is always correct):
//!
//! * The previous parse of `old_source` must have been clean; a session
//!   holding a broken document reparses from scratch anyway.
//! * Item extents are `[start_i, start_{i+1})` over the starts of the
//!   top-level declarations in source order; the tail extent runs to end
//!   of file and the header region `[0, start_0)` is never incremental.
//! * The edit interval and extents intersect as *closed* intervals, so
//!   an insert exactly on a boundary reparses both neighbors.
//! * Both region boundaries must sit at a line start (the byte before is
//!   `\n`, unchanged by the edit, or the region touches offset 0 / EOF).
//!   This keeps token columns valid and — because comments run to end of
//!   line — guarantees a standalone lex of the region tokenizes exactly
//!   like the full text.
//! * Any lexical or syntactic diagnostic inside the region aborts to a
//!   full reparse, so error *reporting* is always whole-file and the
//!   incremental path only ever produces clean parses.

use crate::ast::{ForEachSpan, Spec};
use crate::diag::Diagnostic;
use crate::lexer::lex_recovering;
use crate::limits::ParseLimits;
use crate::parser::{parse_items_region, parse_partial_with_limits};
use std::fmt;

/// One contiguous text replacement: bytes `[start, end)` of the old
/// source are replaced with `text` (pure insert when `start == end`,
/// pure delete when `text` is empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditDelta {
    /// Byte offset where the replaced range begins.
    pub start: usize,
    /// Byte offset one past the replaced range (`>= start`).
    pub end: usize,
    /// Replacement text.
    pub text: String,
}

impl EditDelta {
    /// Convenience constructor.
    pub fn new(start: usize, end: usize, text: impl Into<String>) -> Self {
        Self {
            start,
            end,
            text: text.into(),
        }
    }

    /// The signed change in source length this edit causes.
    pub fn byte_delta(&self) -> isize {
        self.text.len() as isize - (self.end - self.start) as isize
    }

    /// Validates this edit against `source` and returns the spliced
    /// text. This is the splice [`reparse_with_edit`] performs; sessions
    /// holding a *broken* document (no clean AST to reparse against) use
    /// it directly and follow with a full parse.
    ///
    /// # Errors
    ///
    /// [`EditError`] when the byte range is out of bounds or splits a
    /// UTF-8 character; `source` is untouched either way.
    pub fn apply(&self, source: &str) -> Result<String, EditError> {
        if self.start > self.end || self.end > source.len() {
            return Err(EditError::OutOfBounds {
                start: self.start,
                end: self.end,
                len: source.len(),
            });
        }
        for offset in [self.start, self.end] {
            if !source.is_char_boundary(offset) {
                return Err(EditError::NotCharBoundary { offset });
            }
        }
        let mut new_source = String::with_capacity(source.len().saturating_add(self.text.len()));
        new_source.push_str(&source[..self.start]);
        new_source.push_str(&self.text);
        new_source.push_str(&source[self.end..]);
        Ok(new_source)
    }
}

/// A structurally invalid [`EditDelta`]: the session cannot even splice
/// the text, let alone reparse it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// `start > end`, or `end` past the end of the source.
    OutOfBounds {
        /// The offending range start.
        start: usize,
        /// The offending range end.
        end: usize,
        /// Length of the source being edited.
        len: usize,
    },
    /// `start` or `end` splits a multi-byte UTF-8 character.
    NotCharBoundary {
        /// The offset that is not a character boundary.
        offset: usize,
    },
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::OutOfBounds { start, end, len } => write!(
                f,
                "edit range {start}..{end} is invalid for a {len}-byte source"
            ),
            EditError::NotCharBoundary { offset } => {
                write!(f, "edit offset {offset} splits a UTF-8 character")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// How much of the document a reparse covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReparseScope {
    /// The whole document was re-lexed and re-parsed.
    Full,
    /// Only `[start, end)` of the *new* source was re-lexed and
    /// re-parsed; everything outside was spliced and span-rebased.
    Region {
        /// Region start byte in the new source.
        start: usize,
        /// Region end byte in the new source.
        end: usize,
    },
}

/// The outcome of [`reparse_with_edit`]: the spliced source, its AST,
/// any diagnostics (only ever non-empty on a [`ReparseScope::Full`]
/// fallback), and which scope produced it.
#[derive(Debug)]
pub struct Reparse {
    /// The new source text after the edit.
    pub source: String,
    /// Best-effort AST of the new source.
    pub spec: Spec,
    /// Every diagnostic of the new source (empty when clean).
    pub diags: Vec<Diagnostic>,
    /// Whether the incremental path applied.
    pub scope: ReparseScope,
}

/// Applies `delta` to `old_source` (whose clean parse is `old_spec`) and
/// reparses, incrementally when the edit is confined to a run of
/// top-level items and fully otherwise. The returned `(source, spec,
/// diags)` are exactly what [`parse_partial_with_limits`] on the spliced
/// text would produce.
///
/// # Errors
///
/// [`EditError`] when the delta's byte range is out of bounds or splits
/// a UTF-8 character; the source is left untouched by such an edit.
pub fn reparse_with_edit(
    old_source: &str,
    old_spec: &Spec,
    delta: &EditDelta,
    limits: &ParseLimits,
) -> Result<Reparse, EditError> {
    reparse_with_edit_owned(old_source, old_spec.clone(), delta, limits).map_err(|(_, e)| e)
}

/// [`reparse_with_edit`] consuming the previous AST, so the untouched
/// declarations are *moved* into the result instead of cloned — the
/// difference between O(edit) and O(document) on the incremental path.
/// Callers that keep the AST between edits (edit sessions) should use
/// this form; the error hands the AST back unchanged.
///
/// # Errors
///
/// The unconsumed `old_spec` paired with the [`EditError`] that
/// [`reparse_with_edit`] would have returned.
#[allow(clippy::result_large_err)]
pub fn reparse_with_edit_owned(
    old_source: &str,
    old_spec: Spec,
    delta: &EditDelta,
    limits: &ParseLimits,
) -> Result<Reparse, (Spec, EditError)> {
    let new_source = match delta.apply(old_source) {
        Ok(s) => s,
        Err(e) => return Err((old_spec, e)),
    };

    match try_region_reparse(old_source, old_spec, delta, &new_source, limits) {
        Ok(reparse) => Ok(reparse),
        Err(_old_spec) => {
            let (spec, diags) = parse_partial_with_limits(&new_source, limits);
            Ok(Reparse {
                source: new_source,
                spec,
                diags,
                scope: ReparseScope::Full,
            })
        }
    }
}

/// The incremental path; `Err` hands the AST back for the full-reparse
/// fallback (every bail happens before any mutation).
fn try_region_reparse(
    old_source: &str,
    old_spec: Spec,
    delta: &EditDelta,
    new_source: &str,
    limits: &ParseLimits,
) -> Result<Reparse, Spec> {
    // Any token is at least one byte, so a source under `max_tokens`
    // bytes cannot trip the token cap: both limit checks reduce to
    // byte-length guards here.
    if new_source.len() > limits.max_bytes || new_source.len() > limits.max_tokens {
        return Err(old_spec);
    }

    // Top-level item starts in source order; extents tile the file from
    // the first item to EOF, and `[0, starts[0])` is the header region.
    let mut starts: Vec<usize> = Vec::with_capacity(
        old_spec.ports.len()
            + old_spec.consts.len()
            + old_spec.vars.len()
            + old_spec.behaviors.len(),
    );
    starts.extend(old_spec.ports.iter().map(|p| p.span.start));
    starts.extend(old_spec.consts.iter().map(|c| c.span.start));
    starts.extend(old_spec.vars.iter().map(|v| v.span.start));
    starts.extend(old_spec.behaviors.iter().map(|b| b.span.start));
    starts.sort_unstable();
    if starts.is_empty() || starts.windows(2).any(|w| w[0] >= w[1]) {
        return Err(old_spec);
    }
    // An edit touching the header region (or the closed boundary of the
    // first item, handled below) is never incremental.
    if delta.start < starts[0] {
        return Err(old_spec);
    }

    let old_bytes = old_source.as_bytes();
    let n = starts.len();
    // Closed-interval intersection of the edit [start, end] with the
    // extents: `lo` is the last item starting at or before the edit, and
    // an edit landing exactly on a boundary also dirties the item before
    // it.
    let mut lo = starts.partition_point(|&s| s <= delta.start) - 1;
    if starts[lo] == delta.start {
        if lo == 0 {
            return Err(old_spec);
        }
        lo -= 1;
    }
    let mut hi = starts.partition_point(|&s| s <= delta.end) - 1;

    // Extend backward until the region starts at a line start (needed
    // for token columns and comment isolation).
    let mut region_start = starts[lo];
    loop {
        if region_start == 0 || old_bytes[region_start - 1] == b'\n' {
            break;
        }
        if lo == 0 {
            return Err(old_spec);
        }
        lo -= 1;
        region_start = starts[lo];
    }
    // Extend forward until the region ends at a line start that the edit
    // did not touch (so old and new agree on the boundary byte), or EOF.
    while hi < n - 1 {
        let boundary = starts[hi + 1] - 1;
        if boundary >= delta.end && old_bytes[boundary] == b'\n' {
            break;
        }
        hi += 1;
    }
    let region_end_old = if hi == n - 1 { old_source.len() } else { starts[hi + 1] };

    let byte_delta = delta.byte_delta();
    let new_region_end = if hi == n - 1 {
        new_source.len()
    } else {
        offset_by(region_end_old, byte_delta)
    };
    let old_region = &old_source[region_start..region_end_old];
    let new_region = &new_source[region_start..new_region_end];
    let line_delta =
        count_newlines(new_region.as_bytes()) as i64 - count_newlines(old_region.as_bytes()) as i64;
    // 1-based line of the region start; the prefix is untouched so old
    // and new agree.
    let region_line =
        u32::try_from(1 + count_newlines(&old_bytes[..region_start])).unwrap_or(u32::MAX);

    // Lex and parse the region standalone. The region starts at a line
    // start, so token lines shift by `region_line - 1` and columns are
    // already correct. Any diagnostic aborts to a full reparse.
    let (mut tokens, lex_diags) = lex_recovering(new_region);
    if !lex_diags.is_empty() {
        return Err(old_spec);
    }
    let line_shift = region_line.saturating_sub(1);
    for t in &mut tokens {
        t.span.start = t.span.start.saturating_add(region_start);
        t.span.end = t.span.end.saturating_add(region_start);
        t.span.line = t.span.line.saturating_add(line_shift);
    }
    let (items, diags) = parse_items_region(tokens, Vec::new(), limits);
    if !diags.is_empty() {
        return Err(old_spec);
    }

    // Splice each category in place: untouched items before the region
    // are kept (moved, not cloned), items inside it are replaced by the
    // region's fresh parse, and items after it are span-rebased by the
    // byte/line delta. All the bails are behind us, so the mutation
    // cannot leave a half-spliced AST behind.
    let mut spec = old_spec;
    splice(
        &mut spec.ports,
        items.ports,
        |p| p.span.start,
        region_start,
        region_end_old,
        byte_delta,
        line_delta,
    );
    splice(
        &mut spec.consts,
        items.consts,
        |c| c.span.start,
        region_start,
        region_end_old,
        byte_delta,
        line_delta,
    );
    splice(
        &mut spec.vars,
        items.vars,
        |v| v.span.start,
        region_start,
        region_end_old,
        byte_delta,
        line_delta,
    );
    splice(
        &mut spec.behaviors,
        items.behaviors,
        |b| b.span.start,
        region_start,
        region_end_old,
        byte_delta,
        line_delta,
    );
    Ok(Reparse {
        source: new_source.to_owned(),
        spec,
        diags: Vec::new(),
        scope: ReparseScope::Region {
            start: region_start,
            end: new_region_end,
        },
    })
}

/// Rebuilds one declaration category around the reparsed region, in
/// place: items starting before the region are kept as-is, items inside
/// it are replaced by the region's fresh parse (whose spans are already
/// final), and items at or after its old end are kept with rebased
/// spans. `old` is in source order (the clean-parse precondition), so
/// the region maps to one contiguous range.
fn splice<T: ForEachSpan>(
    old: &mut Vec<T>,
    region: Vec<T>,
    start_of: impl Fn(&T) -> usize,
    region_start: usize,
    region_end_old: usize,
    byte_delta: isize,
    line_delta: i64,
) {
    let lo = old.partition_point(|it| start_of(it) < region_start);
    let hi = old.partition_point(|it| start_of(it) < region_end_old);
    for it in &mut old[hi..] {
        it.rebase_spans(byte_delta, line_delta);
    }
    old.splice(lo..hi, region);
}

/// `base + delta` where the result is known in-bounds; saturates rather
/// than wrapping if a caller bug violates that.
fn offset_by(base: usize, delta: isize) -> usize {
    if delta >= 0 {
        base.saturating_add(delta as usize)
    } else {
        base.saturating_sub(delta.unsigned_abs())
    }
}

fn count_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// The behaviors a dirty-region reparse may have rewritten: those whose
/// span intersects the reparsed region of the *new* source (the splice
/// guarantees text outside the region is byte-identical to the previous
/// revision). `None` after a full reparse, and when a port, const, or
/// var declaration intersects the region — those feed every behavior,
/// so the edit is not behavior-local. Outside the returned behaviors
/// every declaration is unchanged apart from a uniform span shift:
/// what [`try_resolve_region`](crate::try_resolve_region) and
/// [`FlowProgram::relower`](crate::FlowProgram::relower) assume.
pub fn region_candidates(spec: &Spec, scope: ReparseScope) -> Option<Vec<usize>> {
    let ReparseScope::Region { start, end } = scope else {
        return None;
    };
    let hits = |s: crate::Span| s.start < end && s.end > start;
    if spec.ports.iter().any(|p| hits(p.span))
        || spec.consts.iter().any(|c| hits(c.span))
        || spec.vars.iter().any(|v| hits(v.span))
    {
        return None;
    }
    Some(
        spec.behaviors
            .iter()
            .enumerate()
            .filter(|(_, b)| hits(b.span))
            .map(|(i, _)| i)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_partial;

    const BASE: &str = concat!(
        "system Demo;\n",
        "port in1 : in int<8>;\n",
        "const K = 4;\n",
        "var shared : int<8>;\n",
        "func Helper(x : int<8>) -> int<8> { return x + K; }\n",
        "process Main {\n  var t : int<8>;\n  t = Helper(in1);\n  shared = t;\n  wait 5;\n}\n",
        "process Aux { shared = 0; wait 9; }\n",
    );

    fn check(delta: EditDelta, expect_region: bool) {
        let (old_spec, old_diags) = parse_partial(BASE);
        assert!(old_diags.is_empty(), "fixture must parse cleanly");
        let got = reparse_with_edit(BASE, &old_spec, &delta, &ParseLimits::default())
            .expect("valid delta");
        let mut expected = String::from(&BASE[..delta.start]);
        expected.push_str(&delta.text);
        expected.push_str(&BASE[delta.end..]);
        assert_eq!(got.source, expected);
        let (cold_spec, cold_diags) = parse_partial(&expected);
        assert_eq!(got.spec, cold_spec, "incremental AST == cold AST, spans included");
        assert_eq!(got.diags, cold_diags);
        match got.scope {
            ReparseScope::Region { .. } => {
                assert!(expect_region, "expected full reparse, got region")
            }
            ReparseScope::Full => assert!(!expect_region, "expected region reparse, got full"),
        }
    }

    #[test]
    fn body_edit_is_regional_and_matches_cold() {
        let at = BASE.find("wait 5").expect("fixture");
        check(EditDelta::new(at, at + "wait 5".len(), "wait 42"), true);
    }

    #[test]
    fn multi_line_growth_rebases_downstream_spans() {
        let at = BASE.find("shared = t;").expect("fixture");
        check(
            EditDelta::new(at, at, "shared = t + 1;\n  shared = shared;\n  "),
            true,
        );
    }

    #[test]
    fn deleting_an_item_matches_cold() {
        let s = BASE.find("const K = 4;\n").expect("fixture");
        // Deleting `K` breaks Helper's body at resolve time, not parse
        // time, so this stays a clean regional reparse.
        check(EditDelta::new(s, s + "const K = 4;\n".len(), ""), true);
    }

    #[test]
    fn inserting_a_new_item_between_items_matches_cold() {
        let at = BASE.find("process Main").expect("fixture");
        check(EditDelta::new(at, at, "var extra : int<4>;\n"), true);
    }

    #[test]
    fn header_edit_falls_back_to_full() {
        check(EditDelta::new(7, 11, "Edited"), false);
    }

    #[test]
    fn edit_introducing_parse_error_falls_back_to_full() {
        let at = BASE.find("wait 9").expect("fixture");
        check(EditDelta::new(at, at + 6, "wait {{"), false);
    }

    #[test]
    fn mid_line_item_boundary_falls_back_or_matches() {
        // Two items on one line: the second doesn't start at a line
        // start, so editing it must widen to the first or go full —
        // either way the result matches cold.
        let src = "system S;\nvar a : int<8>; var b : int<8>;\nprocess P { a = b; }\n";
        let (spec, diags) = parse_partial(src);
        assert!(diags.is_empty());
        let at = src.find("int<8>;\np").expect("fixture");
        let delta = EditDelta::new(at, at + 6, "int<4>");
        let got = reparse_with_edit(src, &spec, &delta, &ParseLimits::default())
            .expect("valid delta");
        let (cold, _) = parse_partial(&got.source);
        assert_eq!(got.spec, cold);
    }

    #[test]
    fn out_of_bounds_and_split_char_edits_are_rejected() {
        let (spec, _) = parse_partial(BASE);
        let err = reparse_with_edit(
            BASE,
            &spec,
            &EditDelta::new(5, BASE.len() + 1, ""),
            &ParseLimits::default(),
        )
        .expect_err("past EOF");
        assert!(matches!(err, EditError::OutOfBounds { .. }));
        let src = "system Sé;\nvar x : int<8>;\nprocess P { x = 0; }\n";
        let (spec2, _) = parse_partial(src);
        let bad = src.find('é').expect("fixture") + 1;
        let err = reparse_with_edit(
            src,
            &spec2,
            &EditDelta::new(bad, bad, "y"),
            &ParseLimits::default(),
        )
        .expect_err("mid-char");
        assert!(matches!(err, EditError::NotCharBoundary { .. }));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Long random edit sequences — including edits that break the
        /// parse and later edits that happen to fix it — must match a
        /// cold parse of the running text at *every* step, spans and
        /// diagnostics included. While the document is broken the
        /// incremental precondition (a clean previous parse) doesn't
        /// hold, so the harness does what a session does: splice and
        /// fully reparse until the text is clean again.
        #[test]
        fn random_edit_sequences_match_cold(seed in 0u64..10_000) {
                let limits = ParseLimits::default();
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                let mut source = String::from(BASE);
                let (parsed, parsed_diags) = parse_partial(&source);
                let (mut spec, mut diags) = (parsed, parsed_diags);
                prop_assert!(diags.is_empty());
                for step in 0..60 {
                    let len = source.len();
                    let a = (next() as usize) % (len + 1);
                    let b = (next() as usize) % (len + 1);
                    let (s, e0) = if a <= b { (a, b) } else { (b, a) };
                    // Small deletions so the document keeps its shape.
                    let e = e0.min(s + (next() as usize) % 24);
                    let text = match next() % 6 {
                        0 => "",
                        1 => "z",
                        2 => "\nvar q0 : int<8>;\n",
                        3 => " wait 3; ",
                        4 => "{", // a parse breaker
                        _ => "\n",
                    };
                    let delta = EditDelta::new(s, e, text);
                    let (new_source, new_spec, new_diags) = if diags.is_empty() {
                        let got = reparse_with_edit(&source, &spec, &delta, &limits)
                            .expect("ASCII source, in-bounds delta");
                        (got.source, got.spec, got.diags)
                    } else {
                        let mut t = String::from(&source[..s]);
                        t.push_str(text);
                        t.push_str(&source[e..]);
                        let (sp, dg) = parse_partial_with_limits(&t, &limits);
                        (t, sp, dg)
                    };
                    let (cold_spec, cold_diags) = parse_partial(&new_source);
                    prop_assert_eq!(&new_spec, &cold_spec, "AST at step {}", step);
                    prop_assert_eq!(&new_diags, &cold_diags, "diags at step {}", step);
                    source = new_source;
                    spec = new_spec;
                    diags = new_diags;
                }
        }
    }

    /// Replaying every single-byte deletion and a sweep of single-byte
    /// insertions across the whole fixture must always match the cold
    /// parse — AST, spans, and diagnostics — whatever scope was chosen.
    #[test]
    fn exhaustive_single_byte_edits_match_cold() {
        let (old_spec, _) = parse_partial(BASE);
        let limits = ParseLimits::default();
        for pos in 0..BASE.len() {
            if !BASE.is_char_boundary(pos) || !BASE.is_char_boundary(pos + 1) {
                continue;
            }
            for delta in [
                EditDelta::new(pos, pos + 1, ""),
                EditDelta::new(pos, pos, "z".to_string()),
                EditDelta::new(pos, pos, "\n".to_string()),
            ] {
                let got = reparse_with_edit(BASE, &old_spec, &delta, &limits)
                    .expect("valid delta");
                let (cold_spec, cold_diags) = parse_partial(&got.source);
                assert_eq!(
                    got.spec, cold_spec,
                    "divergence at pos {pos} with {delta:?}"
                );
                assert_eq!(got.diags, cold_diags, "diags at pos {pos} with {delta:?}");
            }
        }
    }
}
