//! Scripted context walks.
//!
//! The runtime's [`VehicleStream`](../../ecofusion_runtime) normally
//! drifts context at segment boundaries via a seeded random walk over the
//! RADIATE mix. A [`ContextWalk`] replaces that walk with an explicit
//! script: an ordered list of `(context, dwell)` segments. Scripted walks
//! are what make a discovered scenario replayable — the exact context
//! sequence is serialized with the scenario instead of being implicit in
//! an RNG stream — and they can express transitions the drift walk never
//! produces (e.g. rapid Fog↔Night flips, the ambiguous-context inputs
//! HydraFusion-style context-selective fusion is most sensitive to).

use crate::context::Context;
use serde::{Deserialize, Serialize};

/// One segment of a scripted walk: `dwell` consecutive frames in
/// `context`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkSegment {
    /// Context of the segment.
    pub context: Context,
    /// Frames the stream spends in it (must be ≥ 1).
    pub dwell: u32,
}

/// An explicit, serializable context schedule for one stream.
///
/// Streams that outlive the script stay in the final segment's context
/// (repeating its dwell), so a walk of any length drives a run of any
/// horizon deterministically.
///
/// # Example
///
/// ```
/// use ecofusion_scene::{Context, ContextWalk};
/// let w = ContextWalk::from_pairs(&[(Context::City, 4), (Context::Fog, 2)]);
/// assert_eq!(w.len(), 2);
/// assert_eq!(w.context_at(0), Context::City);
/// assert_eq!(w.context_at(5), Context::Fog);
/// assert_eq!(w.context_at(100), Context::Fog, "holds the last context");
/// assert!(w.is_structurally_valid());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContextWalk {
    segments: Vec<WalkSegment>,
}

impl ContextWalk {
    /// Creates a walk from explicit segments.
    ///
    /// # Panics
    /// Panics if `segments` is empty or any dwell is zero.
    pub fn new(segments: Vec<WalkSegment>) -> Self {
        let walk = ContextWalk { segments };
        assert!(walk.is_structurally_valid(), "context walk must be non-empty with dwell >= 1");
        walk
    }

    /// Creates a walk from `(context, dwell)` pairs.
    ///
    /// # Panics
    /// Panics if `pairs` is empty or any dwell is zero.
    pub fn from_pairs(pairs: &[(Context, u32)]) -> Self {
        ContextWalk::new(
            pairs.iter().map(|&(context, dwell)| WalkSegment { context, dwell }).collect(),
        )
    }

    /// The segments, in playback order.
    pub fn segments(&self) -> &[WalkSegment] {
        &self.segments
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the walk has no segments (only possible on a value built
    /// by mutation or deserialization; such a walk is invalid).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Segment `idx`, clamped to the last segment for indices past the
    /// end (the stream holds the final context forever).
    pub fn segment(&self, idx: usize) -> WalkSegment {
        self.segments[idx.min(self.segments.len() - 1)]
    }

    /// Context in force at absolute frame index `frame` (the final
    /// segment extends indefinitely).
    pub fn context_at(&self, frame: u64) -> Context {
        let mut remaining = frame;
        for seg in &self.segments {
            if remaining < seg.dwell as u64 {
                return seg.context;
            }
            remaining -= seg.dwell as u64;
        }
        self.segments.last().expect("non-empty walk").context
    }

    /// Structural invariants the stream relies on: at least one segment,
    /// every dwell ≥ 1. The mutation hooks below preserve this by
    /// construction.
    pub fn is_structurally_valid(&self) -> bool {
        !self.segments.is_empty() && self.segments.iter().all(|s| s.dwell >= 1)
    }

    // --- mutation hooks (scenario search) -------------------------------

    /// Sets segment `idx`'s dwell (clamped up to 1). Returns `false` when
    /// the index is out of range.
    pub fn set_dwell(&mut self, idx: usize, dwell: u32) -> bool {
        let Some(seg) = self.segments.get_mut(idx) else {
            return false;
        };
        seg.dwell = dwell.max(1);
        true
    }

    /// Sets segment `idx`'s context. Returns `false` when the index is
    /// out of range.
    pub fn set_context(&mut self, idx: usize, context: Context) -> bool {
        let Some(seg) = self.segments.get_mut(idx) else {
            return false;
        };
        seg.context = context;
        true
    }

    /// Splits segment `idx` into two segments of the same context whose
    /// dwells sum to the original (`at` frames, then the rest). Fails
    /// (`false`) unless `0 < at < dwell`.
    pub fn split_segment(&mut self, idx: usize, at: u32) -> bool {
        let Some(seg) = self.segments.get(idx).copied() else {
            return false;
        };
        if at == 0 || at >= seg.dwell {
            return false;
        }
        self.segments[idx].dwell = at;
        self.segments.insert(idx + 1, WalkSegment { dwell: seg.dwell - at, ..seg });
        true
    }

    /// Inserts `segment` before position `idx` (clamped to the end).
    /// Returns `false` when the segment's dwell is zero.
    pub fn insert_segment(&mut self, idx: usize, segment: WalkSegment) -> bool {
        if segment.dwell == 0 {
            return false;
        }
        let idx = idx.min(self.segments.len());
        self.segments.insert(idx, segment);
        true
    }

    /// Removes segment `idx`. Refuses (`false`) to empty the walk or when
    /// the index is out of range.
    pub fn remove_segment(&mut self, idx: usize) -> bool {
        if self.segments.len() <= 1 || idx >= self.segments.len() {
            return false;
        }
        self.segments.remove(idx);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_at_follows_the_script_and_holds_the_tail() {
        let w =
            ContextWalk::from_pairs(&[(Context::City, 3), (Context::Fog, 2), (Context::Night, 1)]);
        let expect = [
            Context::City,
            Context::City,
            Context::City,
            Context::Fog,
            Context::Fog,
            Context::Night,
            Context::Night,
            Context::Night,
        ];
        for (f, want) in expect.iter().enumerate() {
            assert_eq!(w.context_at(f as u64), *want, "frame {f}");
        }
        assert_eq!(w.segment(99).context, Context::Night, "clamped past the end");
    }

    #[test]
    fn mutation_hooks_preserve_validity() {
        let mut w = ContextWalk::from_pairs(&[(Context::City, 6), (Context::Rain, 4)]);
        assert!(w.set_dwell(0, 0), "dwell clamps up instead of failing");
        assert_eq!(w.segments()[0].dwell, 1);
        assert!(w.set_context(1, Context::Snow));
        assert!(w.split_segment(1, 1));
        assert_eq!(w.len(), 3);
        assert_eq!(w.segments()[1].dwell + w.segments()[2].dwell, 4);
        assert!(w.insert_segment(1, WalkSegment { context: Context::Fog, dwell: 2 }));
        assert!(!w.insert_segment(0, WalkSegment { context: Context::Fog, dwell: 0 }));
        assert!(w.remove_segment(0));
        assert!(!w.set_dwell(99, 3));
        assert!(!w.split_segment(0, 0));
        assert!(w.is_structurally_valid());
        while w.len() > 1 {
            assert!(w.remove_segment(w.len() - 1));
        }
        assert!(!w.remove_segment(0), "the last segment is irremovable");
        assert!(w.is_structurally_valid());
    }

    #[test]
    fn serde_roundtrip() {
        let w = ContextWalk::from_pairs(&[(Context::Motorway, 8), (Context::Junction, 3)]);
        let json = serde_json::to_string(&w).unwrap();
        let back: ContextWalk = serde_json::from_str(&json).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_walk_panics() {
        let _ = ContextWalk::new(Vec::new());
    }
}
