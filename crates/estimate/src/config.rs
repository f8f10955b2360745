//! Estimator configuration.

use serde::{Deserialize, Serialize};
use slif_core::FreqMode;

/// How message-pass channels contribute to the sender's execution time.
///
/// The paper's Equation 1 adds `Exectime(c.dst)` for every accessed
/// object. For calls and variable accesses that is clearly right; for a
/// message to another *process* the receiver executes concurrently, and
/// including its full execution time both overcounts and makes mutually
/// messaging processes look recursive. The default therefore charges only
/// the transfer time for messages; [`MessagePolicy::IncludeReceiver`]
/// restores the literal equation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MessagePolicy {
    /// Messages cost their bus transfer time only (default).
    #[default]
    TransferOnly,
    /// Messages additionally include the receiver's execution time — the
    /// literal reading of Equation 1.
    IncludeReceiver,
}

/// Configuration for the execution-time estimator (and the estimators
/// layered on it).
///
/// # Examples
///
/// ```
/// use slif_core::FreqMode;
/// use slif_estimate::EstimatorConfig;
///
/// let worst_case = EstimatorConfig::default()
///     .with_mode(FreqMode::Max)
///     .with_concurrency_aware(true);
/// assert_eq!(worst_case.mode, FreqMode::Max);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub struct EstimatorConfig {
    /// Which access count to use: average (default), min, or max.
    pub mode: FreqMode,
    /// How message channels are charged.
    pub message_policy: MessagePolicy,
    /// When `true`, same-tag channels overlap (group max instead of sum);
    /// when `false` (default), the paper's simplest method — all channel
    /// accesses occur sequentially — is used.
    pub concurrency_aware: bool,
    /// Fallback ict weight for nodes lacking an entry for their mapped
    /// class. `None` (default) keeps missing weights a hard
    /// [`MissingWeight`](slif_core::CoreError::MissingWeight) error;
    /// `Some(v)` substitutes `v` and records an
    /// [`EstimateWarning`](crate::EstimateWarning) instead.
    pub default_ict: Option<u64>,
    /// Fallback size weight, with the same semantics as
    /// [`default_ict`](Self::default_ict).
    pub default_size: Option<u64>,
}

impl EstimatorConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the frequency mode.
    pub fn with_mode(mut self, mode: FreqMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the message policy.
    pub fn with_message_policy(mut self, policy: MessagePolicy) -> Self {
        self.message_policy = policy;
        self
    }

    /// Enables or disables concurrency-aware communication time.
    pub fn with_concurrency_aware(mut self, aware: bool) -> Self {
        self.concurrency_aware = aware;
        self
    }

    /// Sets the fallback ict weight for graceful degradation on missing
    /// annotations.
    pub fn with_default_ict(mut self, ict: u64) -> Self {
        self.default_ict = Some(ict);
        self
    }

    /// Sets the fallback size weight for graceful degradation on missing
    /// annotations.
    pub fn with_default_size(mut self, size: u64) -> Self {
        self.default_size = Some(size);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_simplest_method() {
        let c = EstimatorConfig::default();
        assert_eq!(c.mode, FreqMode::Average);
        assert_eq!(c.message_policy, MessagePolicy::TransferOnly);
        assert!(!c.concurrency_aware);
        assert_eq!(c.default_ict, None);
        assert_eq!(c.default_size, None);
    }

    #[test]
    fn default_weight_builders() {
        let c = EstimatorConfig::new().with_default_ict(50).with_default_size(200);
        assert_eq!(c.default_ict, Some(50));
        assert_eq!(c.default_size, Some(200));
    }

    #[test]
    fn builder_chains() {
        let c = EstimatorConfig::new()
            .with_mode(FreqMode::Min)
            .with_message_policy(MessagePolicy::IncludeReceiver)
            .with_concurrency_aware(true);
        assert_eq!(c.mode, FreqMode::Min);
        assert_eq!(c.message_policy, MessagePolicy::IncludeReceiver);
        assert!(c.concurrency_aware);
    }
}
