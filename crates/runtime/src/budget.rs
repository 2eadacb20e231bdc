//! Per-stream energy budgeting: rolling spend vs. target, with a policy
//! ladder that trades accuracy for energy when a stream runs hot.

use ecofusion_core::{InferenceOptions, Precision};
use ecofusion_gating::GateKind;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A stream's energy target: rolling mean total (platform + clock-gated
/// sensor) energy per frame must stay at or below `target_j`.
///
/// # Example
///
/// ```
/// use ecofusion_runtime::EnergyBudget;
/// let b = EnergyBudget::per_frame(6.0);
/// assert_eq!(b.target_j, 6.0);
/// assert!(EnergyBudget::unlimited().target_j.is_infinite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyBudget {
    /// Target Joules per frame (platform + gated sensors, Eq. 11).
    pub target_j: f64,
    /// Frames in the rolling window the spend is averaged over.
    pub window: usize,
    /// De-escalation threshold as a fraction of `target_j`: the controller
    /// relaxes one level only once the rolling mean falls below
    /// `relax_margin * target_j` (hysteresis; must be `< 1`).
    pub relax_margin: f64,
}

impl EnergyBudget {
    /// A budget of `target_j` Joules/frame with the default window (16
    /// frames) and relax margin (0.8).
    pub fn per_frame(target_j: f64) -> Self {
        EnergyBudget { target_j, window: 16, relax_margin: 0.8 }
    }

    /// No budget: the controller never escalates and the stream keeps its
    /// base inference options.
    pub fn unlimited() -> Self {
        EnergyBudget::per_frame(f64::INFINITY)
    }
}

/// One phase of a [`BudgetTimeline`]: from `start_tick` on, the stream's
/// budget target is `target_j` Joules/frame (until a later phase takes
/// over).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetPhase {
    /// First scheduler tick the phase applies at.
    pub start_tick: u64,
    /// Budget target in force from then on, Joules/frame.
    pub target_j: f64,
}

/// A scripted budget-target schedule for one stream: squeeze ramps,
/// oscillations, or any other piecewise-constant target trajectory.
///
/// The server applies the timeline at the top of every processing step
/// ([`PerceptionServer::set_budget_timeline`](crate::PerceptionServer::set_budget_timeline)),
/// retargeting the stream's [`BudgetController`] whenever the phase in
/// force changes. Before the first phase's `start_tick` the stream keeps
/// its spec budget. Purely tick-driven, so a timelined run is exactly as
/// deterministic (and shard-invariant) as a fixed-budget one.
///
/// # Example
///
/// ```
/// use ecofusion_runtime::{BudgetPhase, BudgetTimeline};
/// let t = BudgetTimeline::new(vec![
///     BudgetPhase { start_tick: 8, target_j: 4.0 },
///     BudgetPhase { start_tick: 24, target_j: 0.5 },
/// ]);
/// assert_eq!(t.target_at(0), None);
/// assert_eq!(t.target_at(10), Some(4.0));
/// assert_eq!(t.target_at(24), Some(0.5));
/// assert!(t.is_structurally_valid());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetTimeline {
    phases: Vec<BudgetPhase>,
}

impl BudgetTimeline {
    /// Creates a timeline; phases are sorted by `start_tick` (stable, so
    /// a later-listed phase wins a tie).
    ///
    /// # Panics
    /// Panics if `phases` is empty or any target is not finite-positive.
    pub fn new(mut phases: Vec<BudgetPhase>) -> Self {
        phases.sort_by_key(|p| p.start_tick);
        let t = BudgetTimeline { phases };
        assert!(
            t.is_structurally_valid(),
            "budget timeline must be non-empty with finite positive targets"
        );
        t
    }

    /// The phases, sorted by start tick.
    pub fn phases(&self) -> &[BudgetPhase] {
        &self.phases
    }

    /// Target in force at `tick`: the last phase whose `start_tick` is at
    /// or before it, `None` before the first phase.
    pub fn target_at(&self, tick: u64) -> Option<f64> {
        self.phases.iter().rev().find(|p| p.start_tick <= tick).map(|p| p.target_j)
    }

    /// Structural invariants: at least one phase, phases sorted by start
    /// tick, every target finite and positive. The mutation hooks below
    /// preserve this by construction.
    pub fn is_structurally_valid(&self) -> bool {
        !self.phases.is_empty()
            && self.phases.windows(2).all(|w| w[0].start_tick <= w[1].start_tick)
            && self.phases.iter().all(|p| p.target_j.is_finite() && p.target_j > 0.0)
    }

    // --- mutation hooks (scenario search) -------------------------------

    /// Sets phase `idx`'s target, clamped to `[0.05, 1e4]` J/frame.
    /// Returns `false` when the index is out of range.
    pub fn set_target(&mut self, idx: usize, target_j: f64) -> bool {
        let Some(p) = self.phases.get_mut(idx) else {
            return false;
        };
        let clamped = if target_j.is_finite() { target_j } else { 1e4 };
        p.target_j = clamped.clamp(0.05, 1e4);
        true
    }

    /// Shifts phase `idx`'s start by `delta` ticks (saturating at 0),
    /// then re-sorts. Returns `false` when the index is out of range.
    pub fn shift_phase(&mut self, idx: usize, delta: i64) -> bool {
        let Some(p) = self.phases.get_mut(idx) else {
            return false;
        };
        p.start_tick = if delta >= 0 {
            p.start_tick.saturating_add(delta as u64)
        } else {
            p.start_tick.saturating_sub(delta.unsigned_abs())
        };
        self.phases.sort_by_key(|p| p.start_tick);
        true
    }

    /// Inserts a phase (kept sorted). Returns `false` when the target is
    /// not finite-positive.
    pub fn insert_phase(&mut self, phase: BudgetPhase) -> bool {
        if !(phase.target_j.is_finite() && phase.target_j > 0.0) {
            return false;
        }
        self.phases.push(phase);
        self.phases.sort_by_key(|p| p.start_tick);
        true
    }

    /// Removes phase `idx`. Refuses (`false`) to empty the timeline or
    /// when the index is out of range (drop the whole timeline instead).
    pub fn remove_phase(&mut self, idx: usize) -> bool {
        if self.phases.len() <= 1 || idx >= self.phases.len() {
            return false;
        }
        self.phases.remove(idx);
        true
    }
}

/// Candidate margin `γ` of the wider mid-ladder rungs: configurations up
/// to this much predicted loss above the best become tradeable for energy.
pub const WIDE_GAMMA: f32 = 2.0;

/// Candidate margin of the top "emergency" rung: wide enough that *every*
/// configuration is a candidate (it exceeds the knowledge gate's reject
/// loss), so `λ_E = 1` selects the globally cheapest branch.
pub const EMERGENCY_GAMMA: f32 = 1.0e9;

/// One rung of the adaptation ladder: the gate, energy weight, and
/// candidate margin a stream runs with at that escalation level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyStep {
    /// Gating strategy at this level.
    pub gate: GateKind,
    /// Energy weight `λ_E` at this level.
    pub lambda_e: f64,
    /// Candidate margin `γ` at this level (wider = more energy headroom
    /// for the joint optimizer, at some accuracy risk).
    pub gamma: f32,
    /// Numeric precision the perception stages run at on this rung.
    /// Defaults to [`Precision::F32`] so ladders serialized before the
    /// precision axis existed deserialize unchanged.
    #[serde(default)]
    pub precision: Precision,
}

impl PolicyStep {
    /// Applies this step to a stream's base options.
    pub fn apply(&self, base: &InferenceOptions) -> InferenceOptions {
        InferenceOptions {
            gate: self.gate,
            lambda_e: self.lambda_e,
            gamma: self.gamma,
            precision: self.precision,
            ..*base
        }
    }
}

/// Default ladder for a stream whose base options are `base`: keep the
/// base gate while raising `λ_E`, then widen the candidate margin so the
/// energy weight has real choices, then drop to an emergency rung —
/// knowledge gate (a static context lookup, the cheapest to evaluate) with
/// every configuration a candidate and `λ_E = 1`, which executes the
/// single cheapest branch — and finally run that same emergency rung with
/// int8-quantized stems and branch heads, so the last escalation runs one
/// stem *quantized* at the PX2 model's int8 stage costs. In this host's
/// time the rung's saving is the branch (its int8 plan runs in about a
/// third of its f32 twin's time, one `vpdpbusd` per four channels); the int8 stem
/// is **not** cheaper than the f32 stem (1.1× its time) — a stem has one
/// input channel, so three lanes of every channel quad the int8 tile
/// multiplies are padding (README, *The quantized emergency rung*;
/// `fused_pipeline/{stem_plan_batch64,branch_plan_batch16}{,_int8}`).
///
/// Consecutive rungs that the `max` clamps make identical to their
/// predecessor (a base `λ_E` already at 0.7, say) are dropped, so every
/// escalation changes the actual policy instead of burning an observation
/// window on a no-op.
pub fn default_ladder(base: &InferenceOptions) -> Vec<PolicyStep> {
    let candidates = [
        PolicyStep {
            gate: base.gate,
            lambda_e: base.lambda_e,
            gamma: base.gamma,
            precision: base.precision,
        },
        PolicyStep {
            gate: base.gate,
            lambda_e: base.lambda_e.max(0.35),
            gamma: base.gamma,
            precision: base.precision,
        },
        PolicyStep {
            gate: base.gate,
            lambda_e: base.lambda_e.max(0.7),
            gamma: base.gamma.max(WIDE_GAMMA),
            precision: base.precision,
        },
        PolicyStep {
            gate: GateKind::Knowledge,
            lambda_e: 1.0,
            gamma: EMERGENCY_GAMMA,
            precision: base.precision,
        },
        PolicyStep {
            gate: GateKind::Knowledge,
            lambda_e: 1.0,
            gamma: EMERGENCY_GAMMA,
            precision: Precision::Int8,
        },
    ];
    let mut ladder: Vec<PolicyStep> = Vec::with_capacity(candidates.len());
    for step in candidates {
        if ladder.last() != Some(&step) {
            ladder.push(step);
        }
    }
    ladder
}

/// Hysteretic per-stream budget controller.
///
/// Feed it every processed frame's total energy via
/// [`BudgetController::record`]; when the rolling mean exceeds the budget
/// it climbs one rung of the ladder (cheaper policy), and when the mean
/// drops below the relax margin it climbs back down. The window is cleared
/// on every level change so one adaptation must prove itself over a full
/// window before the next.
///
/// A fleet budget coordinator may top the stream's own target up with a
/// *grant* ([`BudgetController::set_grant_j`]): headroom donated by
/// under-budget streams. Both thresholds (escalate and relax) compare
/// against the effective target `target_j + grant_j`, so a granted stream
/// escalates later and relaxes earlier than it would on its own budget.
#[derive(Debug, Clone)]
pub struct BudgetController {
    budget: EnergyBudget,
    ladder: Vec<PolicyStep>,
    level: usize,
    window: VecDeque<f64>,
    sum: f64,
    escalations: u64,
    relaxations: u64,
    rungs_visited: u8,
    grant_j: f64,
}

impl BudgetController {
    /// Creates a controller over `ladder` (level 0 = base policy).
    ///
    /// # Panics
    /// Panics if `ladder` is empty, or if the budget's window is zero or
    /// its relax margin is not in `(0, 1)`.
    pub fn new(budget: EnergyBudget, ladder: Vec<PolicyStep>) -> Self {
        assert!(!ladder.is_empty(), "policy ladder must have at least one step");
        assert!(budget.window > 0, "budget window must be positive");
        assert!(
            budget.relax_margin > 0.0 && budget.relax_margin < 1.0,
            "relax_margin must be in (0, 1)"
        );
        BudgetController {
            budget,
            ladder,
            level: 0,
            window: VecDeque::new(),
            sum: 0.0,
            escalations: 0,
            relaxations: 0,
            rungs_visited: 1,
            grant_j: 0.0,
        }
    }

    /// Records one frame's total energy spend. Returns the new policy step
    /// if the controller changed level, `None` otherwise.
    pub fn record(&mut self, total_j: f64) -> Option<PolicyStep> {
        self.window.push_back(total_j);
        self.sum += total_j;
        if self.window.len() > self.budget.window {
            self.sum -= self.window.pop_front().expect("non-empty window");
        }
        // Adapt only on a full window: a single hot frame is noise.
        if self.window.len() < self.budget.window {
            return None;
        }
        let mean = self.sum / self.window.len() as f64;
        let target = self.effective_target_j();
        if mean > target && self.level + 1 < self.ladder.len() {
            self.level += 1;
            self.escalations += 1;
            self.rungs_visited |= 1 << self.level.min(7);
            self.reset_window();
            Some(self.ladder[self.level])
        } else if mean < target * self.budget.relax_margin && self.level > 0 {
            self.level -= 1;
            self.relaxations += 1;
            self.reset_window();
            Some(self.ladder[self.level])
        } else {
            None
        }
    }

    fn reset_window(&mut self) {
        self.window.clear();
        self.sum = 0.0;
    }

    /// Sets the fleet-coordinator grant: extra Joules/frame of headroom
    /// on top of the stream's own target. Recomputed by the coordinator
    /// every step, so a grant is a standing transfer, not a one-off.
    pub fn set_grant_j(&mut self, grant_j: f64) {
        self.grant_j = grant_j.max(0.0);
    }

    /// The grant currently in force (0 without a fleet coordinator).
    pub fn grant_j(&self) -> f64 {
        self.grant_j
    }

    /// The target the controller actually adapts against: the stream's
    /// own budget plus any fleet grant.
    pub fn effective_target_j(&self) -> f64 {
        self.budget.target_j + self.grant_j
    }

    /// Whether the rolling window has filled since the last level change
    /// (the controller only acts — and the fleet coordinator only trusts
    /// the rolling mean — on a full window).
    pub fn window_full(&self) -> bool {
        self.window.len() >= self.budget.window
    }

    /// Rolling mean spend over the current window (0 when empty).
    pub fn rolling_mean_j(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.sum / self.window.len() as f64
        }
    }

    /// Current escalation level (0 = base policy).
    pub fn level(&self) -> usize {
        self.level
    }

    /// The policy step currently in force.
    pub fn current(&self) -> PolicyStep {
        self.ladder[self.level]
    }

    /// Levels of the ladder (the deepest is `rungs() - 1`).
    pub(crate) fn rungs(&self) -> usize {
        self.ladder.len()
    }

    /// The configured budget.
    pub fn budget(&self) -> EnergyBudget {
        self.budget
    }

    /// Retargets the controller mid-run (a [`BudgetTimeline`] phase
    /// change). Only the target moves; the window, its rolling spend, and
    /// the current ladder level are kept — already-gathered evidence
    /// stays valid, and the very next full-window check adapts against
    /// the new target (the hysteretic relax margin applies as usual).
    pub fn set_target_j(&mut self, target_j: f64) {
        self.budget.target_j = target_j;
    }

    /// Times the controller moved to a cheaper policy.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Times the controller moved back toward the base policy.
    pub fn relaxations(&self) -> u64 {
        self.relaxations
    }

    /// Bitmask of the ladder levels the controller has stood on (bit
    /// `min(level, 7)`; bit 0, the base policy, is always set).
    pub fn rungs_visited(&self) -> u8 {
        self.rungs_visited
    }
}

/// Fleet-wide budget coordination policy: how aggressively under-budget
/// streams donate headroom to over-budget ones.
///
/// The coordinator runs once per processing step, at the step barrier,
/// over per-stream rolling means — state that is identical for any shard
/// count — so grants never perturb the shard-determinism invariant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetBudgetPolicy {
    /// Fraction of each donor's headroom (`target − rolling mean`)
    /// contributed to the step's redistribution pool.
    pub donate_frac: f64,
    /// Cap on any stream's grant, as a fraction of its *own* target — a
    /// squeezed stream may borrow headroom, not someone else's budget
    /// wholesale.
    pub max_grant_frac: f64,
}

impl Default for FleetBudgetPolicy {
    /// Donate half the observed headroom; cap grants at half the
    /// receiver's own target.
    fn default() -> Self {
        FleetBudgetPolicy { donate_frac: 0.5, max_grant_frac: 0.5 }
    }
}

/// One stream's budget posture as the fleet coordinator sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetPosture {
    /// The stream's own target, Joules/frame (infinite = unbudgeted;
    /// such streams neither donate nor receive).
    pub target_j: f64,
    /// Rolling mean spend, Joules/frame.
    pub rolling_mean_j: f64,
    /// Whether the rolling window is full (a partial window right after a
    /// level change is noise, not evidence).
    pub window_full: bool,
}

/// Computes per-stream grants for one step: streams comfortably under
/// budget donate `donate_frac` of their headroom into a pool, which is
/// split across over-budget streams proportionally to their deficit and
/// capped at `max_grant_frac` of each receiver's own target. Returns one
/// grant per posture, in order; all zeros when there is no donor or no
/// receiver.
///
/// Donating requires a full window — headroom must be proven over a whole
/// observation period before it is lent out. Receiving does not: a stream
/// that is running hot on a partial window gets its grant *before* its
/// own controller's first full-window check, which is exactly what lets
/// donated headroom prevent a needless escalation instead of arriving
/// after one.
///
/// The function is pure and order-deterministic: grants depend only on
/// the postures, never on scheduling, threads, or shard layout.
pub fn redistribute_headroom(policy: &FleetBudgetPolicy, postures: &[BudgetPosture]) -> Vec<f64> {
    let mut pool = 0.0;
    let mut total_deficit = 0.0;
    for p in postures {
        if !p.target_j.is_finite() {
            continue;
        }
        if p.window_full && p.rolling_mean_j < p.target_j {
            pool += (p.target_j - p.rolling_mean_j) * policy.donate_frac;
        } else if p.rolling_mean_j > p.target_j {
            total_deficit += p.rolling_mean_j - p.target_j;
        }
    }
    if pool <= 0.0 || total_deficit <= 0.0 {
        return vec![0.0; postures.len()];
    }
    postures
        .iter()
        .map(|p| {
            if !p.target_j.is_finite() || p.rolling_mean_j <= p.target_j {
                return 0.0;
            }
            let share = pool * (p.rolling_mean_j - p.target_j) / total_deficit;
            share.min(policy.max_grant_frac * p.target_j)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_opts() -> InferenceOptions {
        InferenceOptions::new(0.01, 0.5)
    }

    fn controller(target: f64, window: usize) -> BudgetController {
        let budget = EnergyBudget { target_j: target, window, relax_margin: 0.8 };
        BudgetController::new(budget, default_ladder(&base_opts()))
    }

    #[test]
    fn escalates_when_over_budget() {
        let mut c = controller(2.0, 4);
        let mut changed = None;
        for _ in 0..4 {
            changed = c.record(3.0);
        }
        let step = changed.expect("full hot window escalates");
        assert_eq!(c.level(), 1);
        assert!(step.lambda_e > base_opts().lambda_e);
        assert_eq!(c.escalations(), 1);
    }

    #[test]
    fn needs_full_window_before_acting() {
        let mut c = controller(2.0, 8);
        for _ in 0..7 {
            assert!(c.record(100.0).is_none(), "partial window must not escalate");
        }
        assert_eq!(c.level(), 0);
    }

    #[test]
    fn window_cleared_after_escalation() {
        let mut c = controller(2.0, 4);
        for _ in 0..4 {
            c.record(3.0);
        }
        assert_eq!(c.level(), 1);
        // Three more hot frames: window not yet refilled, no double jump.
        for _ in 0..3 {
            assert!(c.record(3.0).is_none());
        }
        c.record(3.0);
        assert_eq!(c.level(), 2);
    }

    #[test]
    fn relaxes_with_hysteresis() {
        let mut c = controller(2.0, 4);
        for _ in 0..4 {
            c.record(3.0);
        }
        assert_eq!(c.level(), 1);
        // Spend just under target but above the 0.8 margin: hold.
        for _ in 0..8 {
            assert!(c.record(1.9).is_none());
        }
        assert_eq!(c.level(), 1);
        // Well under the margin: relax back to base.
        for _ in 0..4 {
            c.record(1.0);
        }
        assert_eq!(c.level(), 0);
        assert_eq!(c.relaxations(), 1);
        assert_eq!(c.rungs_visited(), 0b11, "relaxing keeps the rungs already visited");
    }

    #[test]
    fn tops_out_at_ladder_end() {
        let mut c = controller(0.5, 2);
        for _ in 0..40 {
            c.record(10.0);
        }
        assert_eq!(c.level(), default_ladder(&base_opts()).len() - 1);
        assert_eq!(c.rungs_visited(), (1 << default_ladder(&base_opts()).len()) - 1);
        assert_eq!(c.current().gate, GateKind::Knowledge);
        assert_eq!(c.current().precision, Precision::Int8, "top rung runs quantized");
    }

    #[test]
    fn apply_threads_precision_into_options() {
        let base = base_opts();
        let ladder = default_ladder(&base);
        let emergency = *ladder.last().unwrap();
        let opts = emergency.apply(&base);
        assert_eq!(opts.precision, Precision::Int8);
        // Every non-final rung keeps the base precision.
        for step in &ladder[..ladder.len() - 1] {
            assert_eq!(step.apply(&base).precision, Precision::F32);
        }
    }

    #[test]
    fn policy_step_without_precision_deserializes_to_f32() {
        // A ladder serialized before the precision axis existed must load
        // unchanged (serde default).
        let json = r#"{"gate":"Knowledge","lambda_e":1.0,"gamma":2.0}"#;
        let step: PolicyStep = serde_json::from_str(json).expect("legacy step parses");
        assert_eq!(step.precision, Precision::F32);
    }

    #[test]
    fn ladder_dedupes_noop_rungs() {
        // Base options already at the mid-ladder values: the clamped
        // rungs collapse and only base + the two emergency rungs remain.
        let base = InferenceOptions::new(0.8, 3.0);
        let ladder = default_ladder(&base);
        assert_eq!(ladder.len(), 3, "{ladder:?}");
        for w in ladder.windows(2) {
            assert_ne!(w[0], w[1], "consecutive duplicate rung");
        }
        assert_eq!(ladder.last().unwrap().gate, GateKind::Knowledge);
        assert_eq!(ladder.last().unwrap().precision, Precision::Int8);
        // A low base keeps all five distinct rungs.
        assert_eq!(default_ladder(&base_opts()).len(), 5);
    }

    #[test]
    fn unlimited_budget_never_escalates() {
        let budget = EnergyBudget::unlimited();
        let mut c = BudgetController::new(budget, default_ladder(&base_opts()));
        for _ in 0..100 {
            assert!(c.record(1e9).is_none());
        }
        assert_eq!(c.level(), 0);
    }

    #[test]
    fn rolling_mean_tracks_window() {
        let mut c = controller(100.0, 4);
        c.record(2.0);
        c.record(4.0);
        assert!((c.rolling_mean_j() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ladder")]
    fn empty_ladder_panics() {
        let _ = BudgetController::new(EnergyBudget::per_frame(1.0), Vec::new());
    }

    #[test]
    fn grant_raises_escalation_threshold() {
        // Spend of 3.0 against a target of 2.0 escalates on its own...
        let mut bare = controller(2.0, 4);
        for _ in 0..4 {
            bare.record(3.0);
        }
        assert_eq!(bare.level(), 1);
        // ...but not with a 1.5 J grant (effective target 3.5).
        let mut granted = controller(2.0, 4);
        granted.set_grant_j(1.5);
        assert_eq!(granted.effective_target_j(), 3.5);
        for _ in 0..8 {
            assert!(granted.record(3.0).is_none());
        }
        assert_eq!(granted.level(), 0);
    }

    #[test]
    fn grant_is_clamped_non_negative() {
        let mut c = controller(2.0, 4);
        c.set_grant_j(-5.0);
        assert_eq!(c.grant_j(), 0.0);
    }

    #[test]
    fn window_full_tracks_fill_and_reset() {
        let mut c = controller(2.0, 4);
        assert!(!c.window_full());
        for _ in 0..4 {
            c.record(3.0);
        }
        // The escalation cleared the window.
        assert_eq!(c.level(), 1);
        assert!(!c.window_full());
        for _ in 0..4 {
            c.record(1.0);
        }
        assert!(c.window_full() || c.level() == 0, "relaxation also clears");
    }

    #[test]
    fn redistribution_moves_headroom_to_deficit() {
        let policy = FleetBudgetPolicy::default();
        let postures = [
            // Donor: 4 J of headroom.
            BudgetPosture { target_j: 10.0, rolling_mean_j: 6.0, window_full: true },
            // Receiver: 1 J over.
            BudgetPosture { target_j: 4.0, rolling_mean_j: 5.0, window_full: true },
            // Unbudgeted: never participates.
            BudgetPosture { target_j: f64::INFINITY, rolling_mean_j: 100.0, window_full: true },
        ];
        let grants = redistribute_headroom(&policy, &postures);
        assert_eq!(grants.len(), 3);
        assert_eq!(grants[0], 0.0);
        // Pool = 4.0 * 0.5 = 2.0, single receiver takes it all, which is
        // exactly the 0.5 * 4.0 cap.
        assert!((grants[1] - 2.0).abs() < 1e-12, "{grants:?}");
        assert_eq!(grants[2], 0.0);
    }

    #[test]
    fn redistribution_splits_pool_by_deficit_and_caps() {
        let policy = FleetBudgetPolicy { donate_frac: 1.0, max_grant_frac: 0.25 };
        let postures = [
            BudgetPosture { target_j: 12.0, rolling_mean_j: 3.0, window_full: true },
            // Deficits 3.0 and 1.0: 3:1 split of the 9 J pool, then the
            // 0.25 * target cap bites the first receiver only.
            BudgetPosture { target_j: 4.0, rolling_mean_j: 7.0, window_full: true },
            BudgetPosture { target_j: 16.0, rolling_mean_j: 17.0, window_full: true },
        ];
        let grants = redistribute_headroom(&policy, &postures);
        assert!((grants[1] - 1.0).abs() < 1e-12, "capped at 0.25*4: {grants:?}");
        assert!((grants[2] - 2.25).abs() < 1e-12, "uncapped 1/4 share: {grants:?}");
    }

    #[test]
    fn timeline_phases_take_over_in_tick_order() {
        let t = BudgetTimeline::new(vec![
            BudgetPhase { start_tick: 20, target_j: 1.0 },
            BudgetPhase { start_tick: 5, target_j: 6.0 },
        ]);
        // Construction sorts.
        assert_eq!(t.phases()[0].start_tick, 5);
        assert_eq!(t.target_at(4), None);
        assert_eq!(t.target_at(5), Some(6.0));
        assert_eq!(t.target_at(19), Some(6.0));
        assert_eq!(t.target_at(1000), Some(1.0));
    }

    #[test]
    fn timeline_mutation_hooks_preserve_validity() {
        let mut t = BudgetTimeline::new(vec![
            BudgetPhase { start_tick: 0, target_j: 8.0 },
            BudgetPhase { start_tick: 16, target_j: 2.0 },
        ]);
        assert!(t.set_target(1, -3.0), "target clamps instead of failing");
        assert_eq!(t.phases()[1].target_j, 0.05);
        assert!(t.set_target(0, f64::INFINITY));
        assert_eq!(t.phases()[0].target_j, 1e4);
        assert!(t.shift_phase(1, -100));
        assert_eq!(t.phases()[0].start_tick, 0, "re-sorted after the shift");
        assert!(t.insert_phase(BudgetPhase { start_tick: 8, target_j: 4.0 }));
        assert!(!t.insert_phase(BudgetPhase { start_tick: 8, target_j: f64::NAN }));
        assert!(t.remove_phase(0));
        assert!(t.remove_phase(0));
        assert!(!t.remove_phase(0), "the last phase is irremovable");
        assert!(!t.set_target(9, 1.0));
        assert!(t.is_structurally_valid());
    }

    #[test]
    fn retarget_keeps_window_and_level() {
        let mut c = controller(2.0, 4);
        for _ in 0..4 {
            c.record(3.0);
        }
        assert_eq!(c.level(), 1);
        // Raise the target far above the spend: the next full window
        // relaxes back against the *new* target.
        c.set_target_j(100.0);
        assert_eq!(c.budget().target_j, 100.0);
        assert_eq!(c.level(), 1, "retarget alone moves no rung");
        for _ in 0..4 {
            c.record(3.0);
        }
        assert_eq!(c.level(), 0);
    }

    #[test]
    #[should_panic(expected = "timeline")]
    fn empty_timeline_panics() {
        let _ = BudgetTimeline::new(Vec::new());
    }

    #[test]
    fn redistribution_needs_proven_donors_and_both_sides() {
        let policy = FleetBudgetPolicy::default();
        // Donor's window not full: no pool, so no grants at all.
        let postures = [
            BudgetPosture { target_j: 10.0, rolling_mean_j: 2.0, window_full: false },
            BudgetPosture { target_j: 4.0, rolling_mean_j: 9.0, window_full: true },
        ];
        assert_eq!(redistribute_headroom(&policy, &postures), vec![0.0, 0.0]);
        // No receiver: pool exists but nobody draws on it.
        let donors_only =
            [BudgetPosture { target_j: 10.0, rolling_mean_j: 2.0, window_full: true }];
        assert_eq!(redistribute_headroom(&policy, &donors_only), vec![0.0]);
        // A receiver on a *partial* window still draws: the grant must
        // land before the receiver's own first full-window check.
        let early_receiver = [
            BudgetPosture { target_j: 10.0, rolling_mean_j: 2.0, window_full: true },
            BudgetPosture { target_j: 4.0, rolling_mean_j: 5.0, window_full: false },
        ];
        let grants = redistribute_headroom(&policy, &early_receiver);
        assert_eq!(grants[0], 0.0);
        assert!(grants[1] > 0.0, "partial-window receiver must draw: {grants:?}");
    }
}
