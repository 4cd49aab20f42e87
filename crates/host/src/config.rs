//! Host-interface configuration: queue shape, interrupt behavior,
//! per-command controller costs, and the resilience policy (deadlines,
//! retries, backoff).

use cagc_sim::time::Nanos;

/// A structured, reportable reason a [`HostConfig`] is malformed.
///
/// Carried by [`HostConfig::validate`] and
/// [`crate::HostInterface::try_new`] so callers (config loaders, sweep
/// drivers) can surface the problem instead of aborting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `queue_pairs == 0` — there is no queue to submit on.
    ZeroQueuePairs,
    /// `queue_depth == 0` — no command could ever occupy a slot.
    ZeroQueueDepth,
    /// `coalesce_depth == 0` — the interrupt would never fire.
    ZeroCoalesceDepth,
    /// `coalesce_depth > 1` without a coalescing timeout — pending
    /// completions would never be delivered.
    CoalesceWithoutTimeout,
    /// `max_retries > 0` without a retry backoff — the retry loop would
    /// re-issue at the failure instant, busy-spinning simulated time.
    RetryWithoutBackoff,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroQueuePairs => write!(f, "queue_pairs must be >= 1"),
            ConfigError::ZeroQueueDepth => write!(f, "queue_depth must be >= 1"),
            ConfigError::ZeroCoalesceDepth => write!(f, "coalesce_depth must be >= 1"),
            ConfigError::CoalesceWithoutTimeout => {
                write!(f, "coalesce_depth > 1 needs a nonzero coalesce timeout")
            }
            ConfigError::RetryWithoutBackoff => {
                write!(f, "max_retries > 0 needs a nonzero retry_backoff_ns")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of the NVMe-style host interface.
///
/// Two presets cover the common cases: [`HostConfig::passthrough`] is the
/// zero-overhead single-queue shape whose open-loop replay is byte-identical
/// to [`cagc_core::Ssd::replay`], and [`HostConfig::nvme`] is a realistic
/// multi-queue controller with interrupt coalescing. Every submission rings
/// the doorbell (classic NVMe).
/// Both ship with the resilience policy disabled; arm it with
/// [`HostConfig::with_resilience`]. An armed policy on a fault-free device
/// never fires (no retries, no PRNG draws, no extra events), so reports
/// stay byte-identical to a run without it.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Number of submission/completion queue pairs. Commands are assigned
    /// round-robin across pairs (a deterministic stand-in for per-core
    /// queues).
    pub queue_pairs: u32,
    /// Slots per pair: a command occupies one slot from submission until
    /// its completion is reaped. Open-loop arrivals beyond this backlog
    /// host-side; closed-loop replay keeps exactly this many commands
    /// outstanding per pair (fio `iodepth` semantics).
    pub queue_depth: u32,
    /// Interrupt coalescing: the completion interrupt fires once this many
    /// completions are pending. `1` interrupts on every completion.
    pub coalesce_depth: u32,
    /// Coalescing timeout: pending completions are delivered at most this
    /// long after the first one. Ignored when `coalesce_depth == 1`.
    pub coalesce_ns: Nanos,
    /// Controller cost to fetch a command after the doorbell (submission
    /// queue read + decode).
    pub fetch_ns: Nanos,
    /// Controller cost to post one completion entry.
    pub completion_ns: Nanos,
    /// Pump preemptible GC in host-idle windows: whenever no command is
    /// queued or in flight, run [`cagc_core::Ssd::gc_pump`] quanta until
    /// work arrives. Requires `gc_preempt` on the device to have any
    /// effect.
    pub gc_pump: bool,
    /// Per-command deadline from the moment the host wanted the I/O.
    /// `0` disables it. Completions landing past the deadline count as
    /// timeouts; a retry that would *start* past it is abandoned and the
    /// command aborts with its last error status.
    pub deadline_ns: Nanos,
    /// How many times a retryable error completion (media read error,
    /// write fault — never write-protection) is re-issued to the device.
    /// `0` disables host retries: error completions surface immediately.
    pub max_retries: u32,
    /// Base backoff before the first retry; doubles per attempt
    /// (exponential). Required nonzero when `max_retries > 0`.
    pub retry_backoff_ns: Nanos,
    /// Upper bound on the uniform jitter added to every backoff (`0` =
    /// no jitter). Drawn from the seeded `"host-retry"` PRNG stream, so
    /// retry schedules are deterministic per seed.
    pub retry_jitter_ns: Nanos,
    /// Seed for the retry-jitter PRNG stream.
    pub retry_seed: u64,
}

impl HostConfig {
    /// Zero-overhead single-queue shape: one pair, unbounded depth, every
    /// submission rings the doorbell, every completion interrupts, no
    /// controller costs, no pumping. Open-loop replay through this config
    /// executes each command at its arrival time in trace order — byte
    /// identical to the synchronous [`cagc_core::Ssd::replay`] path.
    pub fn passthrough() -> Self {
        Self {
            queue_pairs: 1,
            queue_depth: u32::MAX,
            coalesce_depth: 1,
            coalesce_ns: 0,
            fetch_ns: 0,
            completion_ns: 0,
            gc_pump: false,
            deadline_ns: 0,
            max_retries: 0,
            retry_backoff_ns: 0,
            retry_jitter_ns: 0,
            retry_seed: 0,
        }
    }

    /// A realistic NVMe-flavored controller: the given queue shape,
    /// per-command fetch/completion costs, and interrupt coalescing.
    pub fn nvme(queue_pairs: u32, queue_depth: u32) -> Self {
        Self {
            queue_pairs,
            queue_depth,
            coalesce_depth: 4,
            coalesce_ns: 8_000,
            fetch_ns: 200,
            completion_ns: 300,
            gc_pump: true,
            deadline_ns: 0,
            max_retries: 0,
            retry_backoff_ns: 0,
            retry_jitter_ns: 0,
            retry_seed: 0,
        }
    }

    /// Arm the resilience policy on top of any shape: per-command
    /// `deadline_ns` (0 keeps it disabled), up to `max_retries` re-issues
    /// of retryable error completions with exponential backoff from
    /// `retry_backoff_ns` plus uniform jitter in `[0, retry_jitter_ns)`
    /// drawn from the seeded `"host-retry"` stream.
    pub fn with_resilience(
        mut self,
        deadline_ns: Nanos,
        max_retries: u32,
        retry_backoff_ns: Nanos,
        retry_jitter_ns: Nanos,
        retry_seed: u64,
    ) -> Self {
        self.deadline_ns = deadline_ns;
        self.max_retries = max_retries;
        self.retry_backoff_ns = retry_backoff_ns;
        self.retry_jitter_ns = retry_jitter_ns;
        self.retry_seed = retry_seed;
        self
    }

    /// Sanity-check the configuration.
    ///
    /// # Errors
    /// Returns the first [`ConfigError`] found; `Ok(())` means the shape
    /// is runnable.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.queue_pairs == 0 {
            return Err(ConfigError::ZeroQueuePairs);
        }
        if self.queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        if self.coalesce_depth == 0 {
            return Err(ConfigError::ZeroCoalesceDepth);
        }
        if self.coalesce_depth > 1 && self.coalesce_ns == 0 {
            return Err(ConfigError::CoalesceWithoutTimeout);
        }
        if self.max_retries > 0 && self.retry_backoff_ns == 0 {
            return Err(ConfigError::RetryWithoutBackoff);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        HostConfig::passthrough().validate().unwrap();
        HostConfig::nvme(4, 32).validate().unwrap();
        HostConfig::nvme(4, 32)
            .with_resilience(10_000_000, 3, 50_000, 10_000, 7)
            .validate()
            .unwrap();
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        let mut c = HostConfig::passthrough();
        c.queue_pairs = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroQueuePairs));

        let mut c = HostConfig::passthrough();
        c.queue_depth = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroQueueDepth));

        let mut c = HostConfig::passthrough();
        c.coalesce_depth = 4;
        assert_eq!(c.validate(), Err(ConfigError::CoalesceWithoutTimeout));

        let mut c = HostConfig::passthrough();
        c.max_retries = 2; // retries with no backoff would spin in place
        assert_eq!(c.validate(), Err(ConfigError::RetryWithoutBackoff));
    }

    #[test]
    fn config_errors_render_and_are_std_errors() {
        let e: Box<dyn std::error::Error> = Box::new(ConfigError::RetryWithoutBackoff);
        assert!(e.to_string().contains("retry_backoff_ns"));
        assert!(format!("{}", ConfigError::ZeroQueuePairs).contains("queue_pairs"));
    }
}
