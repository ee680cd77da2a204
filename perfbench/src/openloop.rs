//! The open-loop load schedule and the rules that judge one load phase.
//!
//! Request `i` of a phase at `rate` requests per second is due at
//! `i / rate` seconds after the phase starts, whether or not earlier
//! replies have arrived. Latency is counted from that due time, so a
//! stalled sender or server shows as latency of every request behind it.

use crate::stats;

/// A serve request must answer within this, at the 90th percentile, for
/// a ladder rate to count as sustained.
pub const LATENCY_LIMIT_US: f64 = 1000.0;
/// Share of the offered rate that must complete for a phase to count.
pub const MIN_COMPLETED: f64 = 0.98;
/// A phase whose sender ran later than this at its 99th percentile
/// measured the load generator, not the server.
pub const MAX_SENDER_LAG_US: f64 = 1000.0;

/// Requests in a phase of `seconds` at `rate` requests per second.
pub fn requests_in(rate: f64, seconds: f64) -> usize {
    (rate * seconds).round().max(1.0) as usize
}

/// Nanoseconds after the phase start at which request `i` is due.
pub fn due_ns(i: usize, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate).round() as u64
}

/// What one load phase measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Offered rate, requests per second.
    pub offered: f64,
    /// Requests sent.
    pub sent: usize,
    /// Replies with status OK.
    pub ok: usize,
    /// OK replies that arrived by the end of the schedule plus the
    /// latency limit.
    pub on_time: usize,
    /// Seconds from the first due time to the last on-time reply.
    pub span_s: f64,
    /// Replies refusing admission (queue full).
    pub refused: usize,
    /// Per-request latency from due time to reply, µs, OK replies only.
    pub latency_us: Vec<f64>,
    /// How late the sender sent each request after its due time, µs.
    pub lag_us: Vec<f64>,
    /// Time spent inside `Client::send`, µs per request.
    pub send_us: Vec<f64>,
}

impl Phase {
    /// Replies per second completed on time, over the time they took.
    pub fn achieved(&self) -> f64 {
        if self.span_s > 0.0 {
            self.on_time as f64 / self.span_s
        } else {
            0.0
        }
    }

    pub fn latency(&self, q: f64) -> f64 {
        stats::percentile(&self.latency_us, q).unwrap_or(f64::INFINITY)
    }

    pub fn lag_p99(&self) -> f64 {
        stats::percentile(&self.lag_us, 0.99).unwrap_or(0.0)
    }

    /// A phase is valid when the sender kept to its schedule and the
    /// offered rate completed; an invalid phase is measured again, never
    /// reported.
    pub fn valid(&self) -> bool {
        self.lag_p99() <= MAX_SENDER_LAG_US && self.achieved() >= MIN_COMPLETED * self.offered
    }

    /// Folds another phase at the same rate into this one.
    pub fn merge(&mut self, other: Phase) {
        self.offered = other.offered;
        self.sent += other.sent;
        self.ok += other.ok;
        self.on_time += other.on_time;
        self.span_s += other.span_s;
        self.refused += other.refused;
        self.latency_us.extend(other.latency_us);
        self.lag_us.extend(other.lag_us);
        self.send_us.extend(other.send_us);
    }

    /// Whether this ladder rate is sustained: the 90th percentile meets
    /// the latency limit, the offered rate completes, and nothing is
    /// refused.
    pub fn sustained(&self) -> bool {
        self.refused == 0
            && self.ok == self.sent
            && self.achieved() >= MIN_COMPLETED * self.offered
            && self.latency(0.9) <= LATENCY_LIMIT_US
    }
}

/// The highest sustained rate of a ladder, as the rate achieved there.
pub fn max_sustained(ladder: &[Phase]) -> Option<&Phase> {
    ladder
        .iter()
        .filter(|p| p.sustained())
        .max_by(|a, b| a.offered.total_cmp(&b.offered))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(offered: f64, p90_us: f64, ok: usize, refused: usize) -> Phase {
        Phase {
            offered,
            sent: ok + refused,
            ok,
            on_time: ok,
            span_s: ok as f64 / offered,
            refused,
            latency_us: vec![p90_us; 20],
            lag_us: vec![10.0; 20],
            send_us: Vec::new(),
        }
    }

    #[test]
    fn schedule_spaces_requests_evenly() {
        assert_eq!(requests_in(8000.0, 2.0), 16000);
        assert_eq!(requests_in(1000.0, 0.0001), 1);
        assert_eq!(due_ns(0, 1000.0), 0);
        assert_eq!(due_ns(1, 1000.0), 1_000_000);
        assert_eq!(due_ns(3, 8000.0), 375_000);
        let n = requests_in(11_000.0, 1.0);
        // The last request is due one gap before the phase ends.
        assert_eq!(due_ns(n, 11_000.0), 1_000_000_000);
    }

    #[test]
    fn achieved_rate_and_validity() {
        let p = phase(1000.0, 500.0, 1000, 0);
        assert!((p.achieved() - 1000.0).abs() < 1e-9);
        assert!(p.valid());
        let mut slow = p.clone();
        slow.on_time = 950;
        slow.span_s = 0.99;
        assert!(!slow.valid(), "completed below 98% of the offered rate");
        let mut late = p.clone();
        late.lag_us = vec![2000.0; 20];
        assert!(!late.valid(), "sender ran late");
    }

    #[test]
    fn merged_phases_pool_their_samples() {
        let mut a = phase(1000.0, 200.0, 500, 0);
        a.merge(phase(1000.0, 1000.0, 500, 0));
        assert_eq!((a.sent, a.ok, a.on_time), (1000, 1000, 1000));
        assert!((a.achieved() - 1000.0).abs() < 1e-9);
        assert_eq!(a.latency_us.len(), 40);
        assert_eq!(a.latency(0.5), 600.0);
    }

    #[test]
    fn ladder_picks_the_highest_sustained_rate() {
        let ladder = [
            phase(8000.0, 300.0, 8000, 0),
            phase(11_000.0, 600.0, 11_000, 0),
            phase(14_000.0, 1200.0, 14_000, 0), // p90 over the limit
            phase(17_000.0, 400.0, 16_000, 1000), // refused some
        ];
        assert_eq!(max_sustained(&ladder).unwrap().offered, 11_000.0);
        assert!(max_sustained(&ladder[2..]).is_none());
        // A higher rung that passes wins even after a failed one.
        let mut late = ladder.to_vec();
        late.push(phase(20_000.0, 900.0, 20_000, 0));
        assert_eq!(max_sustained(&late).unwrap().offered, 20_000.0);
    }
}
