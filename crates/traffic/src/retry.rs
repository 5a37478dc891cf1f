//! The benign clients' closed loop, with bounded retry and capped
//! exponential backoff.
//!
//! Real IoT firmware does not give up after one refused connection: HTTP
//! libraries, streaming SDKs and FTP clients all retry a few times with
//! growing pauses before reporting failure. [`RetryPolicy`] captures
//! that behaviour for the benign clients so a rebooting TServer produces
//! a dip-and-recover success-rate curve instead of a cliff.
//!
//! Every client runs the same cycle, think → attempt → [deadline or
//! failure → backoff → attempt]\* → finish → think, and the crate-private
//! `ClientLoop` is the only place it is written: the think pause, the
//! active flag, the attempt count, the deadline timer, the backoff retry
//! and the outcome counters. The HTTP, FTP and video clients keep only
//! their protocol and call the loop's steps. All jitter is drawn from the
//! client's own [`SimRng`], keeping runs seed-deterministic.

use netsim::rng::SimRng;
use netsim::time::SimDuration;
use netsim::world::Ctx;
use netsim::TimerId;

use crate::stats::ClientStats;

/// Per-transaction timeout and bounded-retry parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Deadline for one attempt (connect + transfer). An attempt still
    /// in flight when it expires is aborted and counted against
    /// `max_attempts`.
    pub timeout: SimDuration,
    /// Total attempts per transaction, including the first. `1` means
    /// "no retries".
    pub max_attempts: u32,
    /// Backoff before retry `n` (1-based) is `base * 2^(n-1)`, capped at
    /// [`RetryPolicy::cap`], then jittered to 75–125%.
    pub base: SimDuration,
    /// Upper bound on the un-jittered backoff.
    pub cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_secs(10),
            max_attempts: 3,
            base: SimDuration::from_millis(500),
            cap: SimDuration::from_secs(8),
        }
    }
}

impl RetryPolicy {
    /// `true` if a transaction that has already burned `attempts`
    /// attempts has at least one left.
    pub fn allows_retry(&self, attempts: u32) -> bool {
        attempts < self.max_attempts
    }

    /// The jittered pause before the next attempt, where `attempts` is
    /// how many attempts have already failed (so the first retry passes
    /// `1`). Exponent growth is clamped so large attempt counts cannot
    /// overflow; jitter is uniform in ±25%.
    pub fn backoff(&self, attempts: u32, rng: &mut SimRng) -> SimDuration {
        let exp = attempts.saturating_sub(1).min(16);
        let unjittered =
            (self.base.as_secs_f64() * f64::from(2u32.pow(exp))).min(self.cap.as_secs_f64());
        SimDuration::from_secs_f64(unjittered * (0.75 + 0.5 * rng.uniform()))
    }
}

/// Timer token: the think pause elapsed.
const TOKEN_THINK: u64 = 0;
/// Timer token: the attempt in flight hit its deadline.
const TOKEN_DEADLINE: u64 = 1;
/// Timer token: the backoff pause elapsed.
const TOKEN_RETRY: u64 = 2;

/// What a client does when [`ClientLoop::wake`] hands it a timer.
#[derive(Debug)]
pub(crate) enum Wake {
    /// A transaction started: draw its parameters, then attempt it.
    Start,
    /// The backoff pause elapsed: attempt the pending transaction again.
    Retry,
    /// The attempt in flight hit its deadline. Cancelled deadlines never
    /// fire, so it is genuinely stuck: tear it down and report
    /// [`ClientLoop::attempt_failed`].
    Deadline,
}

/// One benign client's closed loop: think, start a transaction, attempt
/// it under a deadline, retry a failed attempt after a backoff, finish,
/// think again. It keeps exactly one timer chain alive, so a reboot can
/// never wedge a client or fork a duplicate request loop.
#[derive(Debug)]
pub(crate) struct ClientLoop {
    think_mean: f64,
    policy: RetryPolicy,
    /// The client's outcome and byte counters.
    pub(crate) stats: ClientStats,
    /// The client's random stream: think pauses, backoff jitter and the
    /// protocol's own draws, in the order the client makes them.
    pub(crate) rng: SimRng,
    /// `true` from start until the transaction finishes; spans the
    /// backoff gaps between attempts.
    active: bool,
    /// Attempts already burned by the transaction in progress.
    attempts: u32,
    deadline: Option<TimerId>,
}

impl ClientLoop {
    /// A thinking client with mean think time `think_mean` seconds.
    pub(crate) fn new(
        think_mean: f64,
        policy: RetryPolicy,
        stats: ClientStats,
        rng: SimRng,
    ) -> Self {
        ClientLoop { think_mean, policy, stats, rng, active: false, attempts: 0, deadline: None }
    }

    /// Arms the think pause, an exponential draw of mean `think_mean`.
    pub(crate) fn think(&mut self, ctx: &mut Ctx<'_>) {
        let delay = SimDuration::from_secs_f64(self.rng.exponential(self.think_mean));
        ctx.set_timer(delay, TOKEN_THINK);
    }

    /// Runs the loop's part of a fired timer and says what the client
    /// must do next. `None` means nothing: a busy or down client thought
    /// again, a retry gave up, or the token is the client's own.
    pub(crate) fn wake(&mut self, ctx: &mut Ctx<'_>, token: u64) -> Option<Wake> {
        match token {
            TOKEN_THINK => self.start(ctx).then_some(Wake::Start),
            TOKEN_DEADLINE => {
                self.deadline = None;
                Some(Wake::Deadline)
            }
            TOKEN_RETRY => self.retry_due(ctx).then_some(Wake::Retry),
            _ => None,
        }
    }

    /// The think pause elapsed: starts a transaction, unless the client
    /// is busy or its node is down, in which case it thinks again.
    fn start(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if self.active || !ctx.is_up() {
            self.think(ctx);
            return false;
        }
        self.stats.add_started();
        self.active = true;
        true
    }

    /// The backoff pause elapsed: `true` if the pending transaction
    /// should be attempted again. A node that went down meanwhile gives
    /// the transaction up.
    fn retry_due(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if !self.active {
            return false;
        }
        if ctx.is_up() {
            return true;
        }
        self.finish(ctx, false);
        false
    }

    /// Arms the deadline of the attempt just begun.
    pub(crate) fn arm_deadline(&mut self, ctx: &mut Ctx<'_>) {
        self.deadline = Some(ctx.set_timer(self.policy.timeout, TOKEN_DEADLINE));
    }

    /// Cancels the deadline, if one is armed.
    pub(crate) fn disarm_deadline(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(timer) = self.deadline.take() {
            ctx.cancel_timer(timer);
        }
    }

    /// One attempt died (refused, reset or stalled) and the client tore
    /// it down. Either arms a backoff retry of the same transaction or
    /// gives up and counts a failure. A down node never retries: its
    /// transaction died with it.
    pub(crate) fn attempt_failed(&mut self, ctx: &mut Ctx<'_>) {
        self.disarm_deadline(ctx);
        self.attempts += 1;
        if self.policy.allows_retry(self.attempts) && ctx.is_up() {
            self.stats.add_retried();
            ctx.set_timer(self.policy.backoff(self.attempts, &mut self.rng), TOKEN_RETRY);
        } else {
            self.finish(ctx, false);
        }
    }

    /// Ends the transaction, counts its outcome and thinks.
    pub(crate) fn finish(&mut self, ctx: &mut Ctx<'_>, ok: bool) {
        self.disarm_deadline(ctx);
        if ok {
            self.stats.add_completed();
        } else {
            self.stats.add_failed();
        }
        self.active = false;
        self.attempts = 0;
        self.think(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_caps() {
        let policy = RetryPolicy {
            timeout: SimDuration::from_secs(5),
            max_attempts: 10,
            base: SimDuration::from_secs(1),
            cap: SimDuration::from_secs(6),
        };
        let mut rng = SimRng::seed_from(9);
        for attempts in 1..10u32 {
            let d = policy.backoff(attempts, &mut rng).as_secs_f64();
            let unjittered = (2f64.powi(attempts as i32 - 1)).min(6.0);
            assert!(d >= unjittered * 0.75 - 1e-9, "attempt {attempts}: {d}");
            assert!(d <= unjittered * 1.25 + 1e-9, "attempt {attempts}: {d}");
        }
        // Extreme attempt counts must not overflow.
        let d = policy.backoff(u32::MAX, &mut rng);
        assert!(d.as_secs_f64() <= 6.0 * 1.25 + 1e-9);
    }

    #[test]
    fn attempt_budget_is_respected() {
        let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        assert!(policy.allows_retry(0));
        assert!(policy.allows_retry(2));
        assert!(!policy.allows_retry(3));
        assert!(!policy.allows_retry(4));
    }

    #[test]
    fn same_seed_same_backoffs() {
        let policy = RetryPolicy::default();
        let mut a = SimRng::seed_from(77);
        let mut b = SimRng::seed_from(77);
        for attempts in 1..6u32 {
            assert_eq!(policy.backoff(attempts, &mut a), policy.backoff(attempts, &mut b));
        }
    }
}
