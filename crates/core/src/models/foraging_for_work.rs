//! The Foraging-for-Work (FFW) task-allocation model (§IV-A.2).
//!
//! "Foraging for Work has a temporal aspect … Once this timer expires, the
//! local node switches to the task of the next packet in the routing queue
//! in order to sink and process it locally. Every time a packet is routed
//! internally (i.e. accepted for processing by the node), that impulse is
//! used to reset the task switch timeout."
//!
//! SIRTM refines the feed impulse to be *work-proportional*:
//! an accepted packet earns commitment scans proportional to its task's
//! service time rather than a full rearm, so a node kept alive by a
//! trickle of light work still starves and forages. Classic
//! stimulus-intensity quitting from the response-threshold literature;
//! with the platform's saturating feed (acks rearm fully) the paper's
//! behaviour is the special case of a saturated feed.

use crate::io::AimIo;
use crate::models::{regs, RtmModel};
use crate::stimulus::TimeoutTimer;

/// Configuration of the [`ForagingForWork`] model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FfwConfig {
    /// Task-switch timeout in scans. With the platform default of one scan
    /// every 10 cycles (0.1 ms), the paper's 20 ms timeout is 200 scans.
    pub timeout_scans: u8,
    /// Self-reinforcement extension (Fig. 1 model 3): every fed scan earns
    /// this many bonus scans of commitment, so experienced specialists
    /// tolerate longer work gaps. 0 disables the extension (firmware
    /// parity).
    pub reinforcement_gain: u8,
    /// Upper bound on the earned reinforcement bonus, in scans.
    pub reinforcement_cap: u8,
}

impl Default for FfwConfig {
    fn default() -> Self {
        Self {
            timeout_scans: 200,
            reinforcement_gain: 0,
            reinforcement_cap: 100,
        }
    }
}

/// The Foraging-for-Work model: a watchdog timer fed by internal packet
/// deliveries; on expiry the node adopts the task of the oldest packet
/// waiting in its router.
///
/// Timer semantics match the PicoBlaze firmware exactly (see
/// [`TimeoutTimer`]): the timer starts expired, so an unfed node makes its
/// first foraging decision on its very first scan.
///
/// # Examples
///
/// ```
/// use sirtm_core::io::{AimIo, MockAimIo};
/// use sirtm_core::models::{FfwConfig, ForagingForWork, RtmModel};
/// use sirtm_taskgraph::TaskId;
///
/// let mut model = ForagingForWork::new(3, FfwConfig { timeout_scans: 2, ..FfwConfig::default() });
/// let mut io = MockAimIo::new(3);
/// io.oldest = Some((TaskId::new(2), 500)); // unserved work queued locally
/// model.scan(&mut io); // timer starts expired → forage immediately
/// assert_eq!(io.switches, vec![TaskId::new(2)]);
/// ```
#[derive(Debug, Clone)]
pub struct ForagingForWork {
    cfg: FfwConfig,
    timer: TimeoutTimer,
    bonus: u32,
}

impl ForagingForWork {
    /// Creates the model for `n_tasks` tasks (the task count does not
    /// affect FFW state but keeps the constructor uniform across models).
    pub fn new(n_tasks: usize, cfg: FfwConfig) -> Self {
        let _ = n_tasks;
        Self {
            timer: TimeoutTimer::new(cfg.timeout_scans as u32),
            bonus: 0,
            cfg,
        }
    }

    /// Scans remaining before the watchdog expires.
    pub fn remaining(&self) -> u32 {
        self.timer.remaining()
    }

    fn rearm_value(&self) -> u32 {
        self.cfg.timeout_scans as u32 + self.bonus
    }
}

impl RtmModel for ForagingForWork {
    fn name(&self) -> &'static str {
        "ffw"
    }

    fn scan(&mut self, io: &mut dyn AimIo) {
        // Commitment earned from work accepted for processing since the
        // last scan (work-proportional; acks saturate to a full rearm).
        let feed = io.feed_amount();
        if feed > 0 {
            // Self-reinforcement: experience on the current task earns
            // extra commitment, up to the cap.
            if self.cfg.reinforcement_gain > 0 {
                self.bonus = (self.bonus + self.cfg.reinforcement_gain as u32)
                    .min(self.cfg.reinforcement_cap as u32);
            }
            self.timer.set_timeout(self.rearm_value());
            self.timer.top_up(feed);
        } else if self.timer.step_unfed() {
            // Expired: forage — adopt the oldest waiting packet's task, or
            // fall back to the latched recent-demand register when nothing
            // happens to be queued at scan time.
            let target = io
                .oldest_waiting()
                .map(|(t, _)| t)
                .or_else(|| io.recent_demand().map(|(t, _)| t));
            if let Some(task) = target {
                io.switch_task(task);
            }
            // A barren stretch forfeits earned commitment.
            self.bonus = 0;
            self.timer.set_timeout(self.rearm_value());
            self.timer.feed();
        }
    }

    fn configure(&mut self, reg: u8, value: u8) {
        match reg {
            regs::FFW_TIMEOUT => {
                self.cfg.timeout_scans = value;
                self.timer.set_timeout(self.rearm_value());
            }
            regs::FFW_REINFORCEMENT => self.cfg.reinforcement_gain = value,
            regs::FFW_REINFORCEMENT_CAP => self.cfg.reinforcement_cap = value,
            _ => {}
        }
    }

    fn reset(&mut self) {
        self.timer = TimeoutTimer::new(self.cfg.timeout_scans as u32);
        self.bonus = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MockAimIo;
    use sirtm_taskgraph::TaskId;

    fn model(timeout: u8) -> ForagingForWork {
        ForagingForWork::new(
            3,
            FfwConfig {
                timeout_scans: timeout,
                ..FfwConfig::default()
            },
        )
    }

    #[test]
    fn fed_node_never_switches() {
        let mut m = model(3);
        let mut io = MockAimIo::new(3);
        io.local = Some(TaskId::new(1));
        io.oldest = Some((TaskId::new(1), 9999));
        for _ in 0..50 {
            io.feed = 200; // steady stream of accepted work
            m.scan(&mut io);
            io.tick();
        }
        assert!(io.switches.is_empty(), "accepted work suppresses switching");
    }

    #[test]
    fn trickle_feed_starves_an_underutilised_node() {
        // 2 scans of commitment every 5 scans is a net drain: the node is
        // only ~40% "fed" and must eventually forage.
        let mut m = model(20);
        let mut io = MockAimIo::new(3);
        io.local = Some(TaskId::new(2));
        io.oldest = Some((TaskId::new(1), 500));
        io.feed = 255; // fully armed to start
        m.scan(&mut io);
        io.tick();
        let mut switched_at = None;
        for scan in 0..200 {
            io.feed = if scan % 5 == 0 { 2 } else { 0 };
            m.scan(&mut io);
            io.tick();
            if !io.switches.is_empty() {
                switched_at = Some(scan);
                break;
            }
        }
        let at = switched_at.expect("trickle-fed node must forage eventually");
        // Net drain is 3 scans of commitment per 5 scans: expiry after
        // roughly 20 / (3/5) ≈ 33 scans, well before the 200-scan horizon.
        assert!(at > 10, "not immediately (scan {at})");
        assert!(
            at < 60,
            "but well before a fully-fed node would (scan {at})"
        );
    }

    #[test]
    fn starved_node_adopts_waiting_task_after_timeout() {
        let mut m = model(4);
        let mut io = MockAimIo::new(3);
        io.local = Some(TaskId::new(2));
        io.feed = 255; // full rearm (e.g. an ack)
        m.scan(&mut io); // fed once: timer armed to 4
        io.tick();
        io.oldest = Some((TaskId::new(0), 100));
        for _ in 0..4 {
            m.scan(&mut io); // 4 unfed scans run the timer down
            io.tick();
        }
        assert!(io.switches.is_empty(), "not yet expired");
        m.scan(&mut io); // 5th unfed scan finds it expired
        assert_eq!(io.switches, vec![TaskId::new(0)]);
    }

    #[test]
    fn forages_from_recent_demand_when_queue_empty() {
        let mut m = model(2);
        let mut io = MockAimIo::new(3);
        io.local = Some(TaskId::new(2));
        io.oldest = None;
        io.recent = Some((TaskId::new(1), 30));
        m.scan(&mut io); // starts expired; nothing queued → use the latch
        assert_eq!(io.switches, vec![TaskId::new(1)]);
    }

    #[test]
    fn expiry_with_empty_queue_keeps_task_and_rearms() {
        let mut m = model(2);
        let mut io = MockAimIo::new(3);
        io.local = Some(TaskId::new(1));
        io.oldest = None;
        for _ in 0..10 {
            m.scan(&mut io);
            io.tick();
        }
        assert!(io.switches.is_empty(), "nothing to forage");
        assert_eq!(io.local, Some(TaskId::new(1)));
    }

    #[test]
    fn timer_starts_expired_for_immediate_foraging() {
        let mut m = model(200);
        let mut io = MockAimIo::new(3);
        io.oldest = Some((TaskId::new(2), 50));
        m.scan(&mut io);
        assert_eq!(io.switches, vec![TaskId::new(2)]);
    }

    #[test]
    fn feed_rearms_mid_countdown() {
        let mut m = model(3);
        let mut io = MockAimIo::new(3);
        io.local = Some(TaskId::new(0));
        io.feed = 255;
        m.scan(&mut io); // armed
        io.tick();
        m.scan(&mut io); // unfed: 2 left
        io.tick();
        io.feed = 1;
        m.scan(&mut io); // trickle top-up back to the cap
        assert_eq!(m.remaining(), 3);
    }

    #[test]
    fn self_reinforcement_extends_commitment() {
        let mut m = ForagingForWork::new(
            2,
            FfwConfig {
                timeout_scans: 2,
                reinforcement_gain: 3,
                reinforcement_cap: 6,
            },
        );
        let mut io = MockAimIo::new(2);
        io.local = Some(TaskId::new(0));
        // Three fed scans: bonus 3, 6, 6 (capped).
        for _ in 0..3 {
            io.feed = 255;
            m.scan(&mut io);
            io.tick();
        }
        assert_eq!(m.remaining(), 2 + 6, "rearm includes the capped bonus");
        io.oldest = Some((TaskId::new(1), 10));
        // 8 unfed scans run down 2+6; the 9th forages and clears the bonus.
        for _ in 0..8 {
            m.scan(&mut io);
            io.tick();
        }
        assert!(io.switches.is_empty());
        m.scan(&mut io);
        assert_eq!(io.switches, vec![TaskId::new(1)]);
        assert_eq!(m.remaining(), 2, "bonus forfeited after barren stretch");
    }

    #[test]
    fn configure_timeout_at_runtime() {
        let mut m = model(200);
        m.configure(regs::FFW_TIMEOUT, 5);
        let mut io = MockAimIo::new(3);
        io.local = Some(TaskId::new(0));
        io.feed = 255;
        m.scan(&mut io);
        assert_eq!(m.remaining(), 5);
    }

    #[test]
    fn reset_restores_expired_timer() {
        let mut m = model(7);
        let mut io = MockAimIo::new(3);
        io.local = Some(TaskId::new(0));
        io.feed = 255;
        m.scan(&mut io);
        assert_eq!(m.remaining(), 7);
        m.reset();
        assert_eq!(m.remaining(), 0);
    }
}
