//! Use case B (§IV-B): design-space exploration — the paper's approximate,
//! accuracy-preserving recursive binary-tree heuristic for number-format
//! selection.
//!
//! Phase 1 binary-searches the total bit width (4..=32) for the shortest
//! width whose accuracy stays within the threshold of baseline; phase 2
//! binary-searches the radix (mantissa/fraction/exponent split) at that
//! width. Both traversals go *left* (more aggressive) while accuracy holds
//! and *right* (more conservative) when it drops, exactly the tree walk of
//! the paper's Figure 5; the whole search visits at most 16 nodes.

use formats::{FormatSpec, MxElem};

/// Builds the standard accuracy-evaluation closure for [`search`]:
/// each candidate format is scored with
/// [`evaluate_accuracy_jobs`](crate::evaluate_accuracy_jobs) over the
/// first `k` samples of `data`, spreading evaluation batches over `jobs`
/// worker threads (`0` = all cores, `1` = serial).
///
/// The DSE tree walk itself is inherently sequential — each node's
/// accept/reject decides the next candidate — so parallelism lives
/// inside each node's evaluation.
pub fn accuracy_eval<'a>(
    model: &'a dyn nn::Module,
    data: &'a models::SyntheticDataset,
    k: usize,
    batch_size: usize,
    jobs: usize,
) -> impl FnMut(&FormatSpec) -> f32 + 'a {
    move |spec| {
        let ge = crate::GoldenEye::new(spec.build());
        crate::evaluate_accuracy_jobs(&ge, model, data, k, batch_size, jobs)
    }
}

/// [`accuracy_eval`]; `store` is not used. The argument stays only
/// because the repository benchmark passes it, and goes at that
/// benchmark's next change.
pub fn accuracy_eval_stored<'a>(
    model: &'a dyn nn::Module,
    data: &'a models::SyntheticDataset,
    k: usize,
    batch_size: usize,
    jobs: usize,
    _store: Option<std::sync::Arc<store::Store>>,
) -> impl FnMut(&FormatSpec) -> f32 + 'a {
    accuracy_eval(model, data, k, batch_size, jobs)
}

/// The format family being explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DseFamily {
    /// Floating point (`fp:eXmY`).
    Fp,
    /// Fixed point (`fxp:1:I:F`).
    Fxp,
    /// Integer quantisation (`int:B`).
    Int,
    /// Block floating point with the given block size.
    Bfp {
        /// Elements per shared exponent.
        block: usize,
    },
    /// AdaptivFloat.
    Afp,
    /// OCP Microscaling with the given block size: the width phase walks
    /// the MXFP8 → MXFP6 → MXFP4 element ladder.
    Mx {
        /// Elements per shared E8M0 scale.
        block: usize,
    },
}

impl DseFamily {
    /// The default format spec the heuristic uses at total width `w`
    /// during the bit-width phase.
    fn spec_for_width(&self, w: u32) -> FormatSpec {
        match *self {
            DseFamily::Fp => {
                let e = (w / 4).clamp(2, 8);
                FormatSpec::Fp { exp: e, man: (w - 1 - e).max(1), denormals: true }
            }
            DseFamily::Fxp => {
                let i = (w / 2).max(1);
                FormatSpec::Fxp { int: i, frac: (w - 1 - i).max(1) }
            }
            DseFamily::Int => FormatSpec::Int { bits: w.max(2) },
            DseFamily::Bfp { block } => {
                FormatSpec::Bfp { exp: 8, man: (w - 1).clamp(1, 23), block }
            }
            DseFamily::Afp => {
                let e = (w / 4).clamp(2, 8);
                FormatSpec::Afp { exp: e, man: (w - 1 - e).max(1) }
            }
            DseFamily::Mx { block } => {
                // MX element widths are discrete (4, 6, 8): snap down.
                let elem = if w >= 8 {
                    MxElem::Fp8E4m3
                } else if w >= 6 {
                    MxElem::Fp6E2m3
                } else {
                    MxElem::Fp4E2m1
                };
                FormatSpec::Mx { elem, block }
            }
        }
    }

    /// Valid radix range `(lo, hi)` at total width `w`, and a constructor
    /// from radix to spec. Returns `None` for families without a radix
    /// phase (INT).
    #[allow(clippy::type_complexity)]
    fn radix_phase(&self, w: u32) -> Option<(u32, u32, Box<dyn Fn(u32) -> FormatSpec>)> {
        match *self {
            DseFamily::Fp => {
                // radix = mantissa bits; exponent takes the rest (2..=8).
                let lo = w.saturating_sub(9).max(1);
                let hi = w.saturating_sub(3);
                (lo <= hi).then(|| {
                    (
                        lo,
                        hi,
                        Box::new(move |m: u32| FormatSpec::Fp {
                            exp: w - 1 - m,
                            man: m,
                            denormals: true,
                        }) as Box<dyn Fn(u32) -> FormatSpec>,
                    )
                })
            }
            DseFamily::Afp => {
                let lo = w.saturating_sub(9).max(1);
                let hi = w.saturating_sub(3);
                (lo <= hi).then(|| {
                    (
                        lo,
                        hi,
                        Box::new(move |m: u32| FormatSpec::Afp { exp: w - 1 - m, man: m })
                            as Box<dyn Fn(u32) -> FormatSpec>,
                    )
                })
            }
            DseFamily::Fxp => {
                // radix = fraction bits; integer part takes the rest (≥1).
                let lo = 1;
                let hi = w.saturating_sub(2);
                (lo <= hi).then(|| {
                    (
                        lo,
                        hi,
                        Box::new(move |f: u32| FormatSpec::Fxp { int: w - 1 - f, frac: f })
                            as Box<dyn Fn(u32) -> FormatSpec>,
                    )
                })
            }
            DseFamily::Bfp { block } => {
                // radix = shared-exponent width (2..=8); data width fixed.
                let m = (w - 1).clamp(1, 23);
                Some((2, 8, Box::new(move |e: u32| FormatSpec::Bfp { exp: e, man: m, block })))
            }
            DseFamily::Mx { block } => {
                // radix = element exponent width at the snapped width: the
                // OCP pairs e4m3/e5m2 (8-bit) and e2m3/e3m2 (6-bit). MXFP4
                // has a single element type, so no radix phase.
                let pick = move |e: u32| {
                    let elem = match (w >= 8, w >= 6, e) {
                        (true, _, 4) => MxElem::Fp8E4m3,
                        (true, _, _) => MxElem::Fp8E5m2,
                        (false, true, 2) => MxElem::Fp6E2m3,
                        (false, true, _) => MxElem::Fp6E3m2,
                        _ => MxElem::Fp4E2m1,
                    };
                    FormatSpec::Mx { elem, block }
                };
                match w {
                    _ if w >= 8 => Some((4, 5, Box::new(pick) as Box<dyn Fn(u32) -> FormatSpec>)),
                    _ if w >= 6 => Some((2, 3, Box::new(pick) as Box<dyn Fn(u32) -> FormatSpec>)),
                    _ => None,
                }
            }
            DseFamily::Int => None,
        }
    }
}

/// One visited node of the DSE tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DseNode {
    /// Visit order (0-based).
    pub index: usize,
    /// The configuration evaluated at this node.
    pub spec: FormatSpec,
    /// Measured accuracy.
    pub accuracy: f32,
    /// Whether the accuracy stayed within the allowed drop.
    pub accepted: bool,
}

/// The outcome of a DSE run.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// Baseline (native FP32) accuracy the threshold is relative to.
    pub baseline_accuracy: f32,
    /// Minimum acceptable accuracy.
    pub threshold: f32,
    /// Every node visited, in traversal order (≤ 16).
    pub nodes: Vec<DseNode>,
    /// The accepted configuration with the fewest total bits, if any.
    pub best: Option<FormatSpec>,
}

impl DseResult {
    /// Nodes that met the accuracy threshold.
    pub fn accepted_nodes(&self) -> impl Iterator<Item = &DseNode> {
        self.nodes.iter().filter(|n| n.accepted)
    }

    /// Builds the run manifest for this search: threshold config, the
    /// per-node visit trail (spec, accuracy, accepted), the node-accuracy
    /// sequence as the convergence trace, and the chosen format.
    pub fn to_manifest(&self, tool: &str, wall_time_s: f64) -> trace::RunManifest {
        use trace::Json;
        let trail: Vec<Json> = self
            .nodes
            .iter()
            .map(|n| {
                Json::Obj(vec![
                    ("index".into(), Json::from(n.index)),
                    ("spec".into(), Json::from(n.spec.to_string())),
                    ("accuracy".into(), Json::from_f32(n.accuracy)),
                    ("accepted".into(), Json::from(n.accepted)),
                ])
            })
            .collect();
        let mut m = trace::RunManifest::new(tool)
            .with_config("baseline_accuracy", self.baseline_accuracy)
            .with_config("threshold", self.threshold)
            .with_extra("nodes_visited", self.nodes.len())
            .with_extra("nodes", Json::Arr(trail))
            .with_extra("best", self.best.as_ref().map(|s| s.to_string()));
        m.wall_time_s = wall_time_s;
        m.convergence = self.nodes.iter().map(|n| n.accuracy).collect();
        m.snapshot_counters();
        m.snapshot_profile();
        m
    }
}

fn total_bits(spec: &FormatSpec) -> u32 {
    match *spec {
        FormatSpec::Fp { exp, man, .. } => 1 + exp + man,
        FormatSpec::Fxp { int, frac } => 1 + int + frac,
        FormatSpec::Int { bits } => bits,
        FormatSpec::Bfp { man, .. } => 1 + man,
        FormatSpec::Afp { exp, man } => 1 + exp + man,
        FormatSpec::Posit { n, .. } => n,
        FormatSpec::Mx { elem, .. } => elem.bit_width(),
        FormatSpec::P3109 { exp, man } => 1 + exp + man,
        FormatSpec::Gf { n } => n,
    }
}

/// Runs the binary-tree DSE heuristic for one format family.
///
/// `eval` measures the model's accuracy under a candidate format (over the
/// whole evaluation set, as in the paper); `baseline_accuracy` is the
/// native FP32 accuracy and `max_drop` the acceptable loss (the paper's
/// example: 1% → 0.01).
///
/// Visits at most 16 nodes; each candidate is evaluated once.
pub fn search(
    family: DseFamily,
    mut eval: impl FnMut(&FormatSpec) -> f32,
    baseline_accuracy: f32,
    max_drop: f32,
) -> DseResult {
    const MAX_NODES: usize = 16;
    let _pool = tensor::workspace::run_scope();
    let _span = trace::span!("dse", family = format!("{family:?}"));
    let threshold = baseline_accuracy - max_drop;
    let mut nodes: Vec<DseNode> = Vec::new();
    // The traversal is sequential, so a heartbeat per visited node is
    // already schedule-invariant.
    let progress = trace::Progress::new("dse", MAX_NODES as u64);
    let visit = |spec: FormatSpec,
                 nodes: &mut Vec<DseNode>,
                 eval: &mut dyn FnMut(&FormatSpec) -> f32|
     -> bool {
        if let Some(prev) = nodes.iter().find(|n| n.spec == spec) {
            return prev.accepted;
        }
        let accuracy = eval(&spec);
        let accepted = accuracy >= threshold;
        if trace::recording() {
            trace::emit(
                trace::Level::Debug,
                "dse_node",
                vec![
                    ("index", trace::Json::from(nodes.len())),
                    ("spec", trace::Json::from(spec.to_string())),
                    ("accuracy", trace::Json::from_f32(accuracy)),
                    ("accepted", trace::Json::from(accepted)),
                ],
            );
        }
        nodes.push(DseNode { index: nodes.len(), spec, accuracy, accepted });
        progress.add(1);
        progress.heartbeat(vec![
            ("node", trace::Json::from(nodes.len() - 1)),
            ("accepted", trace::Json::from(accepted)),
        ]);
        accepted
    };

    // One binary search over `[lo, hi]`: visit the widest node `make(hi)`
    // first (if even it fails, nothing narrower can pass), then go left
    // (narrower) while accuracy holds and right (back toward wider) when
    // it breaks. Returns the narrowest accepted value.
    let mut descend = |(mut lo, mut hi): (u32, u32), make: &dyn Fn(u32) -> FormatSpec| {
        if nodes.len() >= MAX_NODES || !visit(make(hi), &mut nodes, &mut eval) {
            return None;
        }
        let mut best = hi;
        while lo < hi && nodes.len() < MAX_NODES {
            let mid = (lo + hi) / 2;
            if visit(make(mid), &mut nodes, &mut eval) {
                best = mid;
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(best)
    };

    // Phase 1 — bit-width binary search on [4, 32].
    let best_width = descend((4, 32), &|w| family.spec_for_width(w));
    let mut best_spec = best_width.map(|w| family.spec_for_width(w));
    // Phase 2 — radix binary search at the chosen width; its result wins
    // if it is no wider.
    if let Some((rlo, rhi, make)) = best_width.and_then(|w| family.radix_phase(w)) {
        if let Some(r) = descend((rlo, rhi), &*make) {
            let cand = make(r);
            if total_bits(&cand) <= total_bits(best_spec.as_ref().unwrap()) {
                best_spec = Some(cand);
            }
        }
    }

    debug_assert!(nodes.len() <= MAX_NODES);
    progress.finish();
    DseResult { baseline_accuracy, threshold, nodes, best: best_spec }
}

/// Result of a [`mixed_precision_search`].
#[derive(Debug, Clone)]
pub struct MixedPrecisionResult {
    /// Chosen candidate index per layer (into the `candidates` slice),
    /// keyed by layer index.
    pub assignments: std::collections::HashMap<usize, usize>,
    /// Total number of evaluations performed.
    pub evaluations: usize,
}

impl MixedPrecisionResult {
    /// Mean data bit width of the assignment, given the candidate widths.
    pub fn mean_bits(&self, candidates: &[FormatSpec]) -> f32 {
        if self.assignments.is_empty() {
            return 0.0;
        }
        let total: u32 = self.assignments.values().map(|&i| total_bits(&candidates[i])).sum();
        total as f32 / self.assignments.len() as f32
    }
}

/// Mixed-precision DSE — an extension beyond the paper (which lists
/// mixed-precision support as future work, §V-C): greedily assigns each
/// instrumented layer the narrowest candidate format that keeps accuracy
/// within the threshold, holding the other layers at their current
/// assignment (earlier layers: already chosen; later layers: the widest
/// candidate).
///
/// `candidates` must be ordered widest → narrowest; `eval` measures
/// accuracy for a full per-layer assignment (candidate index per layer).
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn mixed_precision_search(
    layers: &[usize],
    candidates: &[FormatSpec],
    mut eval: impl FnMut(&std::collections::HashMap<usize, usize>) -> f32,
    baseline_accuracy: f32,
    max_drop: f32,
) -> MixedPrecisionResult {
    assert!(!candidates.is_empty(), "no candidate formats");
    let _pool = tensor::workspace::run_scope();
    let threshold = baseline_accuracy - max_drop;
    let mut assignments: std::collections::HashMap<usize, usize> =
        layers.iter().map(|&l| (l, 0)).collect();
    let mut evaluations = 0;
    for &layer in layers {
        // Binary search the narrowest acceptable candidate for this layer.
        let (mut lo, mut hi) = (0usize, candidates.len() - 1);
        let mut best = 0usize;
        while lo <= hi {
            let mid = (lo + hi) / 2;
            assignments.insert(layer, mid);
            evaluations += 1;
            if eval(&assignments) >= threshold {
                best = mid;
                if mid == candidates.len() - 1 {
                    break;
                }
                lo = mid + 1; // try narrower
            } else {
                if mid == 0 {
                    break;
                }
                hi = mid - 1; // back toward wider
            }
        }
        assignments.insert(layer, best);
    }
    MixedPrecisionResult { assignments, evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic accuracy surface: accuracy degrades smoothly as bits
    /// shrink; formats with ≥ `knee` total bits are near-baseline.
    fn surface(knee: u32) -> impl FnMut(&FormatSpec) -> f32 {
        move |spec: &FormatSpec| {
            let bits = total_bits(spec);
            if bits >= knee {
                0.9
            } else {
                0.9 - 0.05 * (knee - bits) as f32
            }
        }
    }

    #[test]
    fn finds_the_knee() {
        let res = search(DseFamily::Int, surface(8), 0.9, 0.01);
        assert_eq!(res.best, Some(FormatSpec::Int { bits: 8 }));
    }

    #[test]
    fn visits_at_most_16_nodes() {
        for knee in [4, 7, 13, 21, 32] {
            for fam in [
                DseFamily::Fp,
                DseFamily::Fxp,
                DseFamily::Int,
                DseFamily::Bfp { block: 16 },
                DseFamily::Afp,
                DseFamily::Mx { block: 32 },
            ] {
                let res = search(fam, surface(knee), 0.9, 0.01);
                assert!(res.nodes.len() <= 16, "{fam:?} knee {knee}: {} nodes", res.nodes.len());
                assert!(!res.nodes.is_empty());
            }
        }
    }

    #[test]
    fn hopeless_family_returns_none() {
        let res = search(DseFamily::Fp, |_| 0.1, 0.9, 0.01);
        assert!(res.best.is_none());
        // Only the root was worth probing.
        assert_eq!(res.nodes.len(), 1);
    }

    #[test]
    fn node_indices_are_visit_ordered() {
        let res = search(DseFamily::Fp, surface(10), 0.9, 0.01);
        for (i, n) in res.nodes.iter().enumerate() {
            assert_eq!(n.index, i);
        }
    }

    #[test]
    fn no_duplicate_evaluations() {
        let mut calls = Vec::new();
        let res = search(
            DseFamily::Fxp,
            |s| {
                calls.push(s.clone());
                0.9
            },
            0.9,
            0.01,
        );
        for (i, a) in calls.iter().enumerate() {
            for b in &calls[i + 1..] {
                assert_ne!(a, b, "spec {a} evaluated twice");
            }
        }
        assert!(res.best.is_some());
    }

    #[test]
    fn accepted_nodes_all_meet_threshold() {
        let res = search(DseFamily::Afp, surface(12), 0.9, 0.01);
        for n in res.accepted_nodes() {
            assert!(n.accuracy >= res.threshold);
        }
        // More than half the visited nodes should be acceptable design
        // points (the paper's observation for its Figure 6).
        let accepted = res.accepted_nodes().count();
        assert!(accepted * 2 >= res.nodes.len(), "{accepted}/{}", res.nodes.len());
    }

    #[test]
    fn mixed_precision_search_finds_per_layer_knees() {
        // Layer 0 is sensitive (needs ≥ 8 bits); layer 1 tolerates 4.
        let candidates: Vec<FormatSpec> =
            [16u32, 12, 8, 4].iter().map(|&b| FormatSpec::Int { bits: b }).collect();
        let layers = [0usize, 1];
        let eval = |a: &std::collections::HashMap<usize, usize>| {
            let bits = |l: usize| match a[&l] {
                0 => 16,
                1 => 12,
                2 => 8,
                _ => 4,
            };
            let ok0 = bits(0) >= 8;
            let ok1 = bits(1) >= 4;
            if ok0 && ok1 {
                0.9
            } else {
                0.5
            }
        };
        let res = mixed_precision_search(&layers, &candidates, eval, 0.9, 0.01);
        assert_eq!(res.assignments[&0], 2, "layer 0 should stop at 8 bits");
        assert_eq!(res.assignments[&1], 3, "layer 1 should reach 4 bits");
        assert!((res.mean_bits(&candidates) - 6.0).abs() < 1e-6);
        assert!(res.evaluations <= 2 * 3 + 2);
    }

    #[test]
    fn mixed_precision_hopeless_layer_keeps_widest() {
        let candidates: Vec<FormatSpec> =
            [16u32, 8].iter().map(|&b| FormatSpec::Int { bits: b }).collect();
        let res = mixed_precision_search(&[0], &candidates, |_| 0.1, 0.9, 0.01);
        assert_eq!(res.assignments[&0], 0);
    }

    #[test]
    fn tighter_threshold_prunes_more() {
        let loose = search(DseFamily::Int, surface(8), 0.9, 0.2);
        let tight = search(DseFamily::Int, surface(8), 0.9, 0.001);
        let loose_bits = total_bits(loose.best.as_ref().unwrap());
        let tight_bits = total_bits(tight.best.as_ref().unwrap());
        assert!(loose_bits <= tight_bits);
    }
}
