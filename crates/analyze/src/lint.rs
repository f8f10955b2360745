//! The lint registry: stable IDs, default severities, and per-run
//! configuration.
//!
//! Every analysis this crate ships is a *lint* with a stable ID
//! (`A001`…) so reports stay greppable and suppressions stay meaningful
//! across releases. A [`LintId`] names the analysis; [`LintLevel`] says
//! what the analyzer does with its findings (ignore, warn, deny); an
//! [`AnalysisConfig`] carries the per-lint levels plus the numeric knobs
//! some lints need.

use std::fmt;

/// The analyses the engine ships, one stable ID each.
///
/// The discriminant order is the `A00n` numbering and the order passes
/// run in, so reports list findings grouped by lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum LintId {
    /// `A001`: two processes can reach write (or write/read) channels to
    /// the same variable with overlapping concurrency, and the partition
    /// does not serialize them onto one component.
    SharedVariableRace,
    /// `A002`: a behavior or variable is unreachable from every process
    /// root — dead weight that still costs estimation time and component
    /// area.
    DeadCode,
    /// `A003`: the behavior access graph has a cycle, which makes the
    /// Equation 1 execution-time recurrence non-terminating.
    RecursionCycle,
    /// `A004`: channel `bits` are inconsistent with the accessed scalar's
    /// width (silent truncation) or with the mapped bus's `bitwidth`
    /// (excessive transfer splitting), or the mapped bus does not exist.
    BitwidthMismatch,
    /// `A005`: a node has no `ict`/`size` weight for a component class the
    /// allocation actually instantiates — every estimate there fails, or
    /// consults the caller's explicit fallback weights
    /// (`EstimatorConfig::with_default_ict` / `with_default_size`).
    MissingAnnotation,
    /// `A006`: flow-sensitive value-range analysis proves an assignment's
    /// (or return's) computed interval is *entirely* outside the target's
    /// representable range — a definite overflow, not a may-truncate
    /// heuristic like `A004`.
    ValueRangeOverflow,
    /// `A007`: a local variable is read at a point no execution path has
    /// assigned — definite-assignment analysis found zero reaching
    /// definitions on *any* path.
    UninitializedRead,
    /// `A008`: a whole-slot store to a local whose value no later read can
    /// observe — backward liveness proved the stored value dead.
    DeadStore,
    /// `A009`: a branch condition the interval analysis evaluates to a
    /// constant — one arm is unreachable on every execution.
    ConstantCondition,
    /// `A010`: a shared-variable interleaving that satisfies the `A001`
    /// topology criteria but that the happens-before refinement could not
    /// *prove* reachable at runtime (a reaching channel has zero observed
    /// access frequency). Split off from `A001` so proven races stay
    /// deny-level while unproven ones only warn.
    UnprovenInterleaving,
}

/// Number of lints in the registry.
pub const LINT_COUNT: usize = 10;

impl LintId {
    /// Every lint, in `A001`… order.
    pub const ALL: [LintId; LINT_COUNT] = [
        LintId::SharedVariableRace,
        LintId::DeadCode,
        LintId::RecursionCycle,
        LintId::BitwidthMismatch,
        LintId::MissingAnnotation,
        LintId::ValueRangeOverflow,
        LintId::UninitializedRead,
        LintId::DeadStore,
        LintId::ConstantCondition,
        LintId::UnprovenInterleaving,
    ];

    /// The stable report code (`"A001"`…). Codes are append-only: a
    /// retired lint's code is never reused.
    pub fn code(self) -> &'static str {
        match self {
            LintId::SharedVariableRace => "A001",
            LintId::DeadCode => "A002",
            LintId::RecursionCycle => "A003",
            LintId::BitwidthMismatch => "A004",
            LintId::MissingAnnotation => "A005",
            LintId::ValueRangeOverflow => "A006",
            LintId::UninitializedRead => "A007",
            LintId::DeadStore => "A008",
            LintId::ConstantCondition => "A009",
            LintId::UnprovenInterleaving => "A010",
        }
    }

    /// The kebab-case name used in configuration and reports.
    pub fn name(self) -> &'static str {
        match self {
            LintId::SharedVariableRace => "shared-variable-race",
            LintId::DeadCode => "dead-code",
            LintId::RecursionCycle => "recursion-cycle",
            LintId::BitwidthMismatch => "bitwidth-mismatch",
            LintId::MissingAnnotation => "missing-annotation",
            LintId::ValueRangeOverflow => "value-range-overflow",
            LintId::UninitializedRead => "uninitialized-read",
            LintId::DeadStore => "dead-store",
            LintId::ConstantCondition => "constant-condition",
            LintId::UnprovenInterleaving => "unproven-interleaving",
        }
    }

    /// One-line description for `--help`-style listings.
    pub fn summary(self) -> &'static str {
        match self {
            LintId::SharedVariableRace => {
                "concurrent unserialized writes to a shared variable"
            }
            LintId::DeadCode => "behaviors/variables unreachable from any process root",
            LintId::RecursionCycle => {
                "access-graph cycle that makes Eq. 1 estimation non-terminating"
            }
            LintId::BitwidthMismatch => {
                "channel bits inconsistent with scalar width or mapped bus bitwidth"
            }
            LintId::MissingAnnotation => {
                "missing ict/size weight for an allocated component class"
            }
            LintId::ValueRangeOverflow => {
                "assigned value range provably outside the target's representable range"
            }
            LintId::UninitializedRead => "local read before any path assigns it",
            LintId::DeadStore => "store to a local no later read observes",
            LintId::ConstantCondition => {
                "branch condition that is constant on every execution"
            }
            LintId::UnprovenInterleaving => {
                "A001-shaped interleaving not proven reachable at runtime"
            }
        }
    }

    /// The level the lint runs at unless configured otherwise.
    ///
    /// Findings the dataflow engine *proves* (races, recursion cycles,
    /// definite overflow, definitely-uninitialized reads) make the
    /// specification's meaning unreliable, so they deny by default; the
    /// rest — including `A010`'s unproven interleavings — are fidelity
    /// warnings.
    pub fn default_level(self) -> LintLevel {
        match self {
            LintId::SharedVariableRace
            | LintId::RecursionCycle
            | LintId::ValueRangeOverflow
            | LintId::UninitializedRead => LintLevel::Deny,
            LintId::DeadCode
            | LintId::BitwidthMismatch
            | LintId::MissingAnnotation
            | LintId::DeadStore
            | LintId::ConstantCondition
            | LintId::UnprovenInterleaving => LintLevel::Warn,
        }
    }

    /// Looks a lint up by its stable code (`"A001"`) or kebab-case name.
    pub fn from_code(code: &str) -> Option<LintId> {
        LintId::ALL
            .into_iter()
            .find(|l| l.code() == code || l.name() == code)
    }

    pub(crate) fn index(self) -> usize {
        match self {
            LintId::SharedVariableRace => 0,
            LintId::DeadCode => 1,
            LintId::RecursionCycle => 2,
            LintId::BitwidthMismatch => 3,
            LintId::MissingAnnotation => 4,
            LintId::ValueRangeOverflow => 5,
            LintId::UninitializedRead => 6,
            LintId::DeadStore => 7,
            LintId::ConstantCondition => 8,
            LintId::UnprovenInterleaving => 9,
        }
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// What the analyzer does with a lint's findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LintLevel {
    /// Drop the findings (only a suppression counter records them).
    Allow,
    /// Report the findings; they do not fail the run.
    Warn,
    /// Report the findings and fail the run
    /// ([`AnalysisReport::has_denials`](crate::AnalysisReport::has_denials)).
    Deny,
}

impl fmt::Display for LintLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintLevel::Allow => "allow",
            LintLevel::Warn => "warn",
            LintLevel::Deny => "deny",
        })
    }
}

/// Per-run analyzer configuration: one [`LintLevel`] per lint plus the
/// numeric thresholds the bitwidth lint consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    levels: [LintLevel; LINT_COUNT],
    /// Promote every `Warn`-level finding to `Deny` (CI mode). `Allow`ed
    /// lints stay allowed.
    pub deny_warnings: bool,
    /// How many bus transfers one channel access may take before
    /// `A004` flags the channel/bus pairing as mismatched. The default of
    /// 4 tolerates the paper's address+data packing on narrow buses.
    pub max_transfer_cycles: u32,
    /// How many times the dataflow solver may revisit one control-flow
    /// node before refusing with
    /// [`AnalysisError::WideningCapExceeded`](crate::AnalysisError).
    /// Interval widening converges in a handful of visits per loop
    /// level; the default of 256 leaves generous headroom for nested
    /// loops while keeping fixpoint iteration provably bounded.
    pub max_fixpoint_visits: u32,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        let mut levels = [LintLevel::Warn; LINT_COUNT];
        for lint in LintId::ALL {
            levels[lint.index()] = lint.default_level();
        }
        Self {
            levels,
            deny_warnings: false,
            max_transfer_cycles: 4,
            max_fixpoint_visits: 256,
        }
    }
}

impl AnalysisConfig {
    /// The default configuration: every lint at its
    /// [`default_level`](LintId::default_level).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets one lint's level.
    #[must_use]
    pub fn with_level(mut self, lint: LintId, level: LintLevel) -> Self {
        self.levels[lint.index()] = level;
        self
    }

    /// Enables or disables warnings-as-denials (CI mode).
    #[must_use]
    pub fn with_deny_warnings(mut self, deny: bool) -> Self {
        self.deny_warnings = deny;
        self
    }

    /// Replaces the `A004` transfer-cycle threshold.
    #[must_use]
    pub fn with_max_transfer_cycles(mut self, cycles: u32) -> Self {
        self.max_transfer_cycles = cycles;
        self
    }

    /// Replaces the dataflow solver's per-node visit cap.
    #[must_use]
    pub fn with_max_fixpoint_visits(mut self, visits: u32) -> Self {
        self.max_fixpoint_visits = visits;
        self
    }

    /// The configured level of a lint, before `deny_warnings` promotion.
    pub fn level(&self, lint: LintId) -> LintLevel {
        self.levels[lint.index()]
    }

    /// The level findings of `lint` are actually reported at:
    /// the configured level, with `Warn` promoted to `Deny` when
    /// [`deny_warnings`](Self::deny_warnings) is set.
    pub fn effective_level(&self, lint: LintId) -> LintLevel {
        match self.level(lint) {
            LintLevel::Warn if self.deny_warnings => LintLevel::Deny,
            level => level,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let codes: Vec<&str> = LintId::ALL.iter().map(|l| l.code()).collect();
        assert_eq!(
            codes,
            ["A001", "A002", "A003", "A004", "A005", "A006", "A007", "A008", "A009", "A010"]
        );
        for lint in LintId::ALL {
            assert_eq!(LintId::from_code(lint.code()), Some(lint));
            assert_eq!(LintId::from_code(lint.name()), Some(lint));
            assert!(!lint.summary().is_empty());
            assert_eq!(LintId::ALL[lint.index()], lint);
        }
        assert_eq!(LintId::from_code("A999"), None);
    }

    #[test]
    fn names_are_kebab_case() {
        for lint in LintId::ALL {
            assert!(
                lint.name()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '-'),
                "{lint:?} renders `{}`",
                lint.name()
            );
        }
        assert_eq!(
            LintId::SharedVariableRace.to_string(),
            "A001 shared-variable-race"
        );
    }

    #[test]
    fn default_levels_and_overrides() {
        let cfg = AnalysisConfig::new();
        assert_eq!(cfg.level(LintId::SharedVariableRace), LintLevel::Deny);
        assert_eq!(cfg.level(LintId::RecursionCycle), LintLevel::Deny);
        assert_eq!(cfg.level(LintId::DeadCode), LintLevel::Warn);
        let cfg = cfg.with_level(LintId::DeadCode, LintLevel::Allow);
        assert_eq!(cfg.level(LintId::DeadCode), LintLevel::Allow);
        assert_eq!(cfg.effective_level(LintId::DeadCode), LintLevel::Allow);
    }

    #[test]
    fn deny_warnings_promotes_warn_but_not_allow() {
        let cfg = AnalysisConfig::new()
            .with_deny_warnings(true)
            .with_level(LintId::BitwidthMismatch, LintLevel::Allow);
        assert_eq!(cfg.effective_level(LintId::DeadCode), LintLevel::Deny);
        assert_eq!(
            cfg.effective_level(LintId::BitwidthMismatch),
            LintLevel::Allow
        );
        assert_eq!(
            cfg.effective_level(LintId::SharedVariableRace),
            LintLevel::Deny
        );
    }

    #[test]
    fn levels_order_and_display() {
        assert!(LintLevel::Allow < LintLevel::Warn);
        assert!(LintLevel::Warn < LintLevel::Deny);
        assert_eq!(LintLevel::Allow.to_string(), "allow");
        assert_eq!(LintLevel::Warn.to_string(), "warn");
        assert_eq!(LintLevel::Deny.to_string(), "deny");
    }
}
