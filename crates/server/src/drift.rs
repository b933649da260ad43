//! Workload-drift detection on the ingest path.
//!
//! A shard's tracker lives in its state (`shards::ShardState`), whose one
//! `apply` hands it, for every batch, live and on replay, the
//! `(template, Δ)` pairs the batch's statements were observed with
//! (`IngestOutcome::observations`). The tracker folds them into a
//! bounded sliding window of recent pairs and into its per-template
//! history mass — the linear fold of Δ(q) the Alg 3 summary reads — and
//! scores the total variation distance (half the L1 norm) between the
//! two normalized distributions: `0` means the recent stream looks
//! exactly like the long-run workload, `1` means the recent templates
//! carry none of the historical mass. A rebase rebuilds the history from
//! the kept statements' pairs.
//!
//! The tracker is deterministic (pure arithmetic over the pairs, no
//! clocks, no randomness). Under the default `ISUM_DRIFT_ACTION=warn` it
//! is **observation-only**: nothing it computes feeds back into
//! selection, weighting, or the log, so `/summary` stays byte-identical
//! with drift tracking on, off, or at any window size. Under
//! `ISUM_DRIFT_ACTION=resummarize` a crossing also re-summarizes the
//! shard over the recent window (a logged rebase record). Crossings are
//! edge-triggered — [`DriftSample::crossed`] is true only on the
//! transition from below to above — which rate-limits the server's
//! `warn!` to one per excursion. Because recovery feeds every logged
//! record through the tracker again, a restart neither double-fires an
//! alert already raised nor forgets an excursion in progress.

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

/// Sliding-window drift detector; one per shard.
#[derive(Debug)]
pub struct DriftTracker {
    /// Recent observations as `(template index, unnormalized mass)`.
    window: VecDeque<(usize, f64)>,
    /// Unnormalized mass per template index over every observation since
    /// the start or the last rebase, folded from `0.0` in arrival order.
    history: Vec<f64>,
    /// Window capacity in observations; `0` disables tracking entirely.
    cap: usize,
    /// Score above which a crossing is reported.
    threshold: f64,
    /// Whether the last computed score was above the threshold
    /// (edge-trigger state for the rate-limited alert).
    above: bool,
    /// Set by [`reset_after_resummarize`](Self::reset_after_resummarize)
    /// (which says why): `on_batch` folds observations in but reports no
    /// sample until the window refills to capacity.
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
    /// `None` and the tracker keeps nothing).
    pub fn new(window: usize, threshold: f64) -> DriftTracker {
        DriftTracker {
            window: VecDeque::new(),
            history: Vec::new(),
            cap: window,
            threshold,
            above: false,
            refilling: false,
        }
    }

    /// Folds a batch's fresh observations, in order, into the history
    /// and the window, and scores the window against the history.
    pub fn on_batch(&mut self, fresh: &[(TemplateId, f64)]) -> Option<DriftSample> {
        if self.cap == 0 {
            return None;
        }
        for &(t, mass) in fresh {
            self.fold(t, mass);
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
        let score = self.score();
        let crossed = score > self.threshold && !self.above;
        self.above = score > self.threshold;
        Some(DriftSample { score, window_len: self.window.len(), crossed })
    }

    /// Resets the tracker after an adaptive re-summarization: the history
    /// is rebuilt from `kept`, the observations of the statements the
    /// rebase retained, the window clears, and the alert re-arms. Scoring
    /// stays suppressed until the window has refilled to capacity — a
    /// half-refilled window compared against the kept history is sampling
    /// noise and would re-cross the threshold right after every rebuild.
    pub fn reset_after_resummarize(&mut self, kept: &[(TemplateId, f64)]) {
        if self.cap == 0 {
            return;
        }
        self.window.clear();
        self.history.clear();
        for &(t, mass) in kept {
            self.fold(t, mass);
        }
        self.above = false;
        self.refilling = true;
    }

    /// Adds one observation's mass to its template's history.
    fn fold(&mut self, t: TemplateId, mass: f64) {
        if self.history.len() <= t.index() {
            self.history.resize(t.index() + 1, 0.0);
        }
        self.history[t.index()] += mass;
    }

    /// Total variation distance between the window's and the history's
    /// normalized template-mass distributions; `0.0` when either carries
    /// no positive mass.
    fn score(&self) -> f64 {
        let total: f64 = self.history.iter().sum();
        let mut window_mass = vec![0.0; self.history.len()];
        let mut window_total = 0.0;
        for &(t, mass) in &self.window {
            window_mass[t] += mass;
            window_total += mass;
        }
        if total <= 0.0 || window_total <= 0.0 {
            return 0.0;
        }
        let l1: f64 = self
            .history
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
    use isum_common::rng::split_mix64;
    use proptest::prelude::*;

    fn t(i: usize) -> TemplateId {
        TemplateId::from_index(i)
    }

    #[test]
    fn zero_window_disables_tracking() {
        let mut d = DriftTracker::new(0, 0.5);
        assert_eq!(d.on_batch(&[(t(0), 1.0)]), None);
        d.reset_after_resummarize(&[(t(0), 1.0)]);
        assert!(d.history.is_empty() && d.window.is_empty(), "a disabled tracker keeps nothing");
    }

    #[test]
    fn identical_stream_scores_zero() {
        let mut d = DriftTracker::new(8, 0.5);
        let fresh: Vec<_> = (0..4).map(|i| (t(i % 2), 1.0)).collect();
        let s = d.on_batch(&fresh).expect("enabled");
        assert_eq!(s.score, 0.0);
        assert!(!s.crossed);
        assert_eq!(s.window_len, 4);
        assert_eq!(d.history, [2.0, 2.0]);
    }

    #[test]
    fn template_shift_drives_score_up_and_crosses_once() {
        let mut d = DriftTracker::new(4, 0.5);
        // History: templates 0 and 1 half-and-half; the window matches.
        let steady: Vec<_> = (0..8).map(|i| (t(i % 2), 1.0)).collect();
        let s = d.on_batch(&steady).unwrap();
        assert!(s.score < 0.5 && !s.crossed);
        // The stream shifts entirely to template 2. After the window fills
        // with template-2 mass, the distributions are nearly disjoint.
        let s = d.on_batch(&[(t(2), 1.0); 4]).unwrap();
        assert!(s.score > 0.5, "window all template 2, history 2/3 elsewhere: {}", s.score);
        assert!(s.crossed, "first excursion above the threshold alerts");
        // Staying above the threshold does not re-alert.
        let s = d.on_batch(&[(t(2), 1.0); 2]).unwrap();
        assert!(s.score > 0.5);
        assert!(!s.crossed, "alert is edge-triggered");
        assert_eq!(s.window_len, 4, "window is bounded at its capacity");
        assert_eq!(d.history, [4.0, 4.0, 6.0], "the history keeps every observation");
    }

    #[test]
    fn recovering_below_threshold_rearms_the_alert() {
        let mut d = DriftTracker::new(2, 0.3);
        let (a, b) = ((t(0), 1.0), (t(1), 1.0));
        assert!(d.on_batch(&[b, b, a, a]).unwrap().crossed);
        // Window returns to the historical mix: below threshold, re-armed.
        let s = d.on_batch(&[a, b]).unwrap();
        assert!(s.score < 0.3 && !s.crossed);
        // A second excursion alerts again.
        assert!(d.on_batch(&[b, b]).unwrap().crossed);
    }

    #[test]
    fn empty_mass_is_zero_not_nan() {
        let mut d = DriftTracker::new(4, 0.5);
        let s = d.on_batch(&[(t(0), 0.0)]).unwrap();
        assert_eq!(s.score, 0.0);
    }

    #[test]
    fn reset_after_resummarize_rearms_and_suppresses_until_refilled() {
        let mut d = DriftTracker::new(2, 0.4);
        let (a, b) = ((t(0), 1.0), (t(1), 1.0));
        assert!(d.on_batch(&[b, b, a, a]).unwrap().crossed);
        d.reset_after_resummarize(&[a, a]);
        assert!(d.window.is_empty(), "window clears on reset");
        assert_eq!(d.history, [2.0], "the history is rebuilt from the kept statements");
        // A half-refilled window is noise, not a sample: no score, and in
        // particular no instant re-fire against the truncated history.
        assert_eq!(d.on_batch(&[b]), None, "suppressed while refilling");
        assert_eq!(d.history, [2.0, 1.0], "suppressed batches are still folded in");
        // Once refilled to capacity, scoring resumes and the re-armed
        // tracker crosses on a genuine excursion.
        assert!(d.on_batch(&[b]).unwrap().crossed);
    }

    /// The tracker's reference: it keeps every observation since the
    /// last rebase and, after each batch, folds the whole history's
    /// per-template mass from `0.0` in arrival order.
    struct Reference {
        cap: usize,
        threshold: f64,
        history: Vec<(TemplateId, f64)>,
        /// Observations fed since the last reset: the window is the last
        /// `min(fed, cap)` of them.
        fed: usize,
        above: bool,
        refilling: bool,
    }

    impl Reference {
        fn mass(&self) -> Vec<f64> {
            let mut mass = Vec::new();
            for &(t, m) in &self.history {
                if mass.len() <= t.index() {
                    mass.resize(t.index() + 1, 0.0);
                }
                mass[t.index()] += m;
            }
            mass
        }

        fn on_batch(&mut self, fresh: &[(TemplateId, f64)]) -> Option<DriftSample> {
            self.history.extend_from_slice(fresh);
            self.fed += fresh.len();
            let window = &self.history[self.history.len() - self.fed.min(self.cap)..];
            if self.refilling {
                if window.len() < self.cap {
                    return None;
                }
                self.refilling = false;
            }
            let mass = self.mass();
            let total: f64 = mass.iter().sum();
            let (mut win, mut win_total) = (vec![0.0; mass.len()], 0.0);
            for &(t, m) in window {
                win[t.index()] += m;
                win_total += m;
            }
            let score = if total <= 0.0 || win_total <= 0.0 {
                0.0
            } else {
                let l1: f64 =
                    mass.iter().zip(&win).map(|(&a, &w)| (a / total - w / win_total).abs()).sum();
                0.5 * l1
            };
            let crossed = score > self.threshold && !self.above;
            self.above = score > self.threshold;
            Some(DriftSample { score, window_len: window.len(), crossed })
        }

        fn reset(&mut self, kept: &[(TemplateId, f64)]) {
            self.history = kept.to_vec();
            self.fed = 0;
            self.above = false;
            self.refilling = true;
        }
    }

    /// One seeded stream against the reference: window 1–8, a threshold,
    /// up to 40 steps of batches (0–5 observations over 6 templates, a
    /// quarter of the masses 0) or, one step in eight, a rebase that keeps
    /// a random suffix of the history. Every sample must agree bit for bit.
    fn run_stream(seed: u64) {
        let mut rng = seed ^ 0xD21F_7000_5EED_0001;
        let mut next = move || split_mix64(&mut rng);
        let cap = 1 + (next() % 8) as usize;
        let threshold = (next() % 1000) as f64 / 1000.0;
        let mut tracker = DriftTracker::new(cap, threshold);
        let mut reference = Reference {
            cap,
            threshold,
            history: Vec::new(),
            fed: 0,
            above: false,
            refilling: false,
        };
        for step in 0..next() % 41 {
            if next() % 8 == 0 {
                let len = reference.history.len();
                let kept = reference.history[len - (next() as usize) % (len + 1)..].to_vec();
                tracker.reset_after_resummarize(&kept);
                reference.reset(&kept);
                continue;
            }
            let fresh: Vec<(TemplateId, f64)> = (0..next() % 6)
                .map(|_| {
                    let template = t((next() % 6) as usize);
                    let bits = next();
                    let mass = if bits % 4 == 0 { 0.0 } else { (bits >> 11) as f64 / 9e12 };
                    (template, mass)
                })
                .collect();
            let want = reference.on_batch(&fresh);
            let got = tracker.on_batch(&fresh);
            let bits =
                |s: Option<DriftSample>| s.map(|s| (s.score.to_bits(), s.window_len, s.crossed));
            assert_eq!(bits(got), bits(want), "seed {seed} step {step}");
        }
    }

    proptest! {
        #[test]
        fn tracker_matches_the_full_history_model(seed in any::<u64>()) {
            run_stream(seed);
        }
    }
}
