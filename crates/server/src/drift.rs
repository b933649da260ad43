//! Workload-drift detection on the ingest path.
//!
//! The sequencer keeps a bounded sliding window of the most recently
//! observed `(template, utility mass)` pairs. After each applied batch it
//! compares the window's normalized per-template mass distribution
//! against the distribution over *everything* observed, using total
//! variation distance (half the L1 norm): `0` means the recent stream
//! looks exactly like the long-run workload, `1` means the recent
//! templates carry none of the historical mass — the summary selected
//! from history no longer represents what is arriving.
//!
//! The tracker is deterministic (pure arithmetic over engine state, no
//! clocks, no randomness). Under the default `ISUM_DRIFT_ACTION=warn` it
//! is **observation-only**: nothing it computes feeds back into
//! selection, weighting, or checkpoints, so `/summary` stays
//! byte-identical with drift tracking on, off, or at any window size.
//! Under `ISUM_DRIFT_ACTION=resummarize` a crossing additionally triggers
//! an adaptive re-summarization of the shard over the recent window (a
//! logged rebase record). A shard's tracker lives in its state
//! (`shards::ShardState`), whose one `apply` feeds it every batch, live
//! and on replay. Threshold crossings are edge-triggered —
//! [`DriftSample::crossed`] is true only on the transition from below to
//! above — which is the rate limit on the operator-facing `warn!` the
//! server emits (one alert per excursion, not one per batch). Because
//! recovery feeds every logged batch through the tracker again, a
//! restart neither double-fires an alert already raised nor forgets an
//! excursion in progress.

use std::collections::VecDeque;

use isum_common::TemplateId;

/// What a shard's sequencer does when the drift score crosses the
/// threshold (`ISUM_DRIFT_ACTION`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftAction {
    /// Raise the edge-triggered `warn!` alert only — the default, and
    /// strictly observation-only (pre-existing behavior, byte-identical).
    Warn,
    /// Raise the alert *and* re-summarize the shard over the recent
    /// window: the engine keeps only the window's statements, so the
    /// summary adapts to what is arriving now. Runs behind the
    /// sequencer, so the result is deterministic for a fixed request
    /// stream.
    Resummarize,
}

impl DriftAction {
    /// The name `ISUM_DRIFT_ACTION` accepts and `/status` reports.
    pub fn as_str(self) -> &'static str {
        match self {
            DriftAction::Warn => "warn",
            DriftAction::Resummarize => "resummarize",
        }
    }
}

/// Sliding-window drift detector; one per sequencer thread.
#[derive(Debug)]
pub struct DriftTracker {
    /// Recent observations as `(template index, unnormalized mass)`.
    window: VecDeque<(usize, f64)>,
    /// Window capacity in observations; `0` disables tracking entirely.
    cap: usize,
    /// Score above which a crossing is reported.
    threshold: f64,
    /// Engine observations already consumed into the window.
    seen: usize,
    /// Whether the last computed score was above the threshold
    /// (edge-trigger state for the rate-limited alert).
    above: bool,
    /// Set by [`reset_after_resummarize`](Self::reset_after_resummarize):
    /// the window was just emptied while the engine history was not, so a
    /// partially refilled window is a noise sample, not a workload
    /// estimate — tiny windows routinely sit at high total-variation
    /// distance from any mixed history and would re-fire the alert
    /// immediately after every rebuild. While set, `on_batch` consumes
    /// observations but reports no sample until the window refills to
    /// capacity.
    refilling: bool,
}

/// One post-batch drift measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSample {
    /// Total variation distance in `[0, 1]` between the window's and the
    /// full history's normalized template-mass distributions.
    pub score: f64,
    /// Observations currently in the window.
    pub window_len: usize,
    /// True exactly when this sample crossed the threshold from below.
    pub crossed: bool,
}

impl DriftTracker {
    /// A tracker holding at most `window` recent observations; `window`
    /// of `0` disables tracking ([`on_batch`](Self::on_batch) returns
    /// `None` and consumes nothing).
    pub fn new(window: usize, threshold: f64) -> DriftTracker {
        DriftTracker {
            window: VecDeque::new(),
            cap: window,
            threshold,
            seen: 0,
            above: false,
            refilling: false,
        }
    }

    /// True when a nonzero window was configured.
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Engine observations consumed so far — pass to
    /// `Engine::observations_since` to fetch only the new arrivals.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Folds a batch's fresh observations into the window and scores the
    /// window against `total_mass` (per-template unnormalized mass over
    /// the whole observed history, indexed by [`TemplateId`]).
    pub fn on_batch(
        &mut self,
        fresh: &[(TemplateId, f64)],
        total_mass: &[f64],
    ) -> Option<DriftSample> {
        if !self.enabled() {
            return None;
        }
        self.seen += fresh.len();
        for &(t, mass) in fresh {
            if self.window.len() == self.cap {
                self.window.pop_front();
            }
            self.window.push_back((t.index(), mass));
        }
        if self.refilling {
            if self.window.len() < self.cap {
                return None;
            }
            self.refilling = false;
        }
        let score = self.score(total_mass);
        let crossed = score > self.threshold && !self.above;
        self.above = score > self.threshold;
        Some(DriftSample { score, window_len: self.window.len(), crossed })
    }

    /// Resets the tracker after an adaptive re-summarization: the engine
    /// history now *is* the recent window, so the window clears, the
    /// consumption cursor moves to the engine's new observation count,
    /// and the alert re-arms. Scoring stays suppressed until the window
    /// has refilled to capacity — a half-refilled window compared against
    /// the kept history is sampling noise and would re-cross the
    /// threshold right after every rebuild.
    pub fn reset_after_resummarize(&mut self, observed: usize) {
        self.window.clear();
        self.seen = observed;
        self.above = false;
        self.refilling = true;
    }

    /// Total variation distance between the window's and the history's
    /// normalized template-mass distributions; `0.0` when either carries
    /// no positive mass.
    fn score(&self, total_mass: &[f64]) -> f64 {
        let total: f64 = total_mass.iter().sum();
        let mut window_mass = vec![0.0; total_mass.len()];
        let mut window_total = 0.0;
        for &(t, mass) in &self.window {
            if t < window_mass.len() {
                window_mass[t] += mass;
                window_total += mass;
            }
        }
        if total <= 0.0 || window_total <= 0.0 {
            return 0.0;
        }
        let l1: f64 = total_mass
            .iter()
            .zip(&window_mass)
            .map(|(&all, &win)| (all / total - win / window_total).abs())
            .sum();
        0.5 * l1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TemplateId {
        TemplateId::from_index(i)
    }

    #[test]
    fn zero_window_disables_tracking() {
        let mut d = DriftTracker::new(0, 0.5);
        assert!(!d.enabled());
        assert_eq!(d.on_batch(&[(t(0), 1.0)], &[1.0]), None);
        assert_eq!(d.seen(), 0);
    }

    #[test]
    fn identical_stream_scores_zero() {
        let mut d = DriftTracker::new(8, 0.5);
        let fresh: Vec<_> = (0..4).map(|i| (t(i % 2), 1.0)).collect();
        let total = [2.0, 2.0];
        let s = d.on_batch(&fresh, &total).expect("enabled");
        assert_eq!(s.score, 0.0);
        assert!(!s.crossed);
        assert_eq!(s.window_len, 4);
        assert_eq!(d.seen(), 4);
    }

    #[test]
    fn template_shift_drives_score_up_and_crosses_once() {
        let mut d = DriftTracker::new(4, 0.5);
        // History: templates 0 and 1 half-and-half; first batch matches.
        let s = d.on_batch(&[(t(0), 1.0), (t(1), 1.0)], &[4.0, 4.0]).unwrap();
        assert!(s.score < 0.5 && !s.crossed);
        // The stream shifts entirely to template 2. After the window fills
        // with template-2 mass, the distributions are nearly disjoint.
        let s = d.on_batch(&[(t(2), 1.0); 4], &[4.0, 4.0, 4.0]).unwrap();
        assert!(s.score > 0.5, "window all template 2, history 2/3 elsewhere: {}", s.score);
        assert!(s.crossed, "first excursion above the threshold alerts");
        // Staying above the threshold does not re-alert.
        let s = d.on_batch(&[(t(2), 1.0); 2], &[4.0, 4.0, 6.0]).unwrap();
        assert!(s.score > 0.5);
        assert!(!s.crossed, "alert is edge-triggered");
        assert_eq!(s.window_len, 4, "window is bounded at its capacity");
    }

    #[test]
    fn recovering_below_threshold_rearms_the_alert() {
        let mut d = DriftTracker::new(2, 0.4);
        let total = [1.0, 1.0];
        assert!(d.on_batch(&[(t(0), 1.0), (t(0), 1.0)], &total).unwrap().crossed);
        // Window returns to the historical mix: below threshold, re-armed.
        let s = d.on_batch(&[(t(0), 1.0), (t(1), 1.0)], &total).unwrap();
        assert!(s.score < 0.4 && !s.crossed);
        // A second excursion alerts again.
        assert!(d.on_batch(&[(t(1), 1.0), (t(1), 1.0)], &total).unwrap().crossed);
    }

    #[test]
    fn empty_mass_is_zero_not_nan() {
        let mut d = DriftTracker::new(4, 0.5);
        let s = d.on_batch(&[(t(0), 0.0)], &[0.0]).unwrap();
        assert_eq!(s.score, 0.0);
    }

    #[test]
    fn reset_after_resummarize_rearms_and_suppresses_until_refilled() {
        let mut d = DriftTracker::new(2, 0.4);
        let total = [1.0, 1.0];
        assert!(d.on_batch(&[(t(0), 1.0), (t(0), 1.0)], &total).unwrap().crossed);
        d.reset_after_resummarize(7);
        assert_eq!(d.seen(), 7);
        assert!(d.window.is_empty(), "window clears on reset");
        // A half-refilled window is noise, not a sample: no score, and in
        // particular no instant re-fire against the truncated history.
        assert_eq!(d.on_batch(&[(t(0), 1.0)], &total), None, "suppressed while refilling");
        assert_eq!(d.seen(), 8, "suppressed batches are still consumed");
        // Once refilled to capacity, scoring resumes and the re-armed
        // tracker crosses on a genuine excursion.
        assert!(d.on_batch(&[(t(0), 1.0)], &total).unwrap().crossed);
    }
}
