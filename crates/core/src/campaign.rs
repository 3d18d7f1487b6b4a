//! Use case C (§IV-C): resiliency analysis — layer-granularity error
//! injection campaigns measuring ΔLoss (and mismatch) per layer, for value
//! and metadata faults.
//!
//! Observability: every trial produces a replayable [`trace::TrialRecord`]
//! (site, bit, ΔLoss, mismatch) tagged with the worker id that ran it;
//! workers emit the records as `trial` events on the active trace sinks,
//! and the canonical `(layer, trial)`-ordered records are byte-identical
//! between serial and parallel runs (see `TrialRecord::canonical_line`).

use crate::instrument::{GoldenEye, InjectionPlan, InjectionRecord, TrialFault};
use inject::{BitSampler, BitStrata, SiteKind};
use metrics::{compare_outcomes, ConvergenceTrace, EarlyStop, RunningStats, StratifiedStats};
use nn::Module;
use std::borrow::Cow;
use std::sync::OnceLock;
use tensor::{parallel, Tensor};
use trace::{names, Json, Progress, RunManifest, TrialRecord};

/// Process-global counter of executed campaign trials.
fn trials_counter() -> &'static trace::Metric {
    static C: OnceLock<&'static trace::Metric> = OnceLock::new();
    C.get_or_init(|| trace::counter(names::CAMPAIGN_TRIALS))
}

/// Early-stopping decisions are taken only at multiples of this many
/// completed trials per injection site, in canonical trial order — so the
/// set of executed trials is a function of the statistics alone, never of
/// `jobs`.
pub const EARLY_STOP_WAVE: usize = 32;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Injections per layer.
    pub injections_per_layer: usize,
    /// Value-bit or metadata-bit faults.
    pub kind: SiteKind,
    /// Base RNG seed. Each trial derives its own seed with a SplitMix64
    /// counter hash over `(seed, layer, trial)` — see [`trial_seed`] —
    /// so results do not depend on trial execution order.
    pub seed: u64,
    /// Worker threads for the campaign executor: `1` runs serial, `N > 1`
    /// runs `N` scoped threads, `0` uses the machine's available
    /// parallelism. Results are **bit-identical** for every value.
    pub jobs: usize,
    /// Ignored: every trial replays in its own forward. Kept only because
    /// the benchmark package still sets it; it goes at the benchmark's
    /// next change.
    pub trials_per_batch: usize,
    /// When set, stop injecting into a site once the 95% confidence
    /// interval of its ΔLoss mean has half-width ≤ this (checked every
    /// [`EARLY_STOP_WAVE`] trials, after at least
    /// [`metrics::EarlyStop`]'s minimum trial count).
    pub early_stop: Option<f32>,
    /// Bit-position sampling policy for value faults.
    /// [`BitSampler::Uniform`] reproduces the historical uniform draws;
    /// [`BitSampler::Stratified`] oversamples the exponent-bit stratum
    /// and reweights the statistics ([`metrics::StratifiedStats`]).
    pub sampler: BitSampler,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            injections_per_layer: 100,
            kind: SiteKind::Value,
            seed: 0,
            jobs: 1,
            trials_per_batch: 1,
            early_stop: None,
            sampler: BitSampler::Uniform,
        }
    }
}

impl CampaignConfig {
    /// Returns the config with `jobs` worker threads.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Returns the config with per-site ΔLoss early stopping at the given
    /// 95% CI half-width.
    #[must_use]
    pub fn with_early_stop(mut self, ci_half_width: f32) -> Self {
        self.early_stop = Some(ci_half_width);
        self
    }

    /// Returns the config with the given bit-position sampling policy.
    #[must_use]
    pub fn with_sampler(mut self, sampler: BitSampler) -> Self {
        self.sampler = sampler;
        self
    }
}

/// The per-trial RNG seed: a SplitMix64 counter hash over
/// `(base, layer, trial)`.
///
/// Every trial gets a statistically independent seed regardless of which
/// worker thread runs it, which is what makes the parallel executor
/// bit-identical to the serial one (and is a better seeding scheme than
/// the old `base + layer·n + trial`, whose adjacent seeds correlate).
pub fn trial_seed(base: u64, layer: u64, trial: u64) -> u64 {
    rand::mix64(rand::mix64(rand::mix64(base) ^ layer) ^ trial)
}

/// Per-layer campaign result.
#[derive(Debug, Clone)]
pub struct LayerResult {
    /// Instrumented-layer index.
    pub layer: usize,
    /// Layer name.
    pub name: String,
    /// ΔLoss statistics over the injections.
    pub delta_loss: RunningStats,
    /// Mismatch-rate statistics over the injections.
    pub mismatch: RunningStats,
    /// Number of injections that actually fired.
    pub injections: usize,
    /// Population-reweighted ΔLoss statistics when the campaign sampled
    /// bit positions with [`BitSampler::Stratified`] (`None` under
    /// uniform sampling): the unbiased estimator despite the critical
    /// stratum being oversampled.
    pub stratified: Option<StratifiedStats>,
}

impl LayerResult {
    /// The layer's unbiased ΔLoss mean: the stratified estimator when
    /// importance sampling was on, the plain mean otherwise.
    pub fn delta_loss_mean(&self) -> f32 {
        self.stratified.as_ref().map_or_else(|| self.delta_loss.mean(), StratifiedStats::mean)
    }
}

/// The full campaign result.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Format name the campaign ran under.
    pub format: String,
    /// Fault site kind.
    pub kind: SiteKind,
    /// Per-layer results, in execution order.
    pub layers: Vec<LayerResult>,
    /// Every trial's replayable record, in canonical `(layer, trial)`
    /// order; each is tagged with the executor worker that ran it.
    pub trials: Vec<TrialRecord>,
    /// Trials the config asked for (`layers × injections_per_layer`);
    /// `trials.len() < planned_trials` measures early-stop savings.
    pub planned_trials: usize,
}

impl CampaignResult {
    /// Mean ΔLoss averaged across layers — the paper's single-value
    /// resilience summary used in Figure 9. Uses each layer's unbiased
    /// estimator ([`LayerResult::delta_loss_mean`]).
    pub fn avg_delta_loss(&self) -> f32 {
        if self.layers.is_empty() {
            return 0.0;
        }
        self.layers.iter().map(LayerResult::delta_loss_mean).sum::<f32>() / self.layers.len() as f32
    }

    /// Fraction of planned trials skipped by early stopping (0.0 when it
    /// never triggered or was off).
    pub fn early_stop_savings(&self) -> f64 {
        if self.planned_trials == 0 {
            return 0.0;
        }
        1.0 - self.trials.len() as f64 / self.planned_trials as f64
    }

    /// The canonical per-trial JSONL block: one line per trial in
    /// `(layer, trial)` order, worker ids and timestamps excluded — the
    /// serialization under which parallel and serial runs are
    /// byte-identical.
    pub fn canonical_trial_jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.trials {
            out.push_str(&t.canonical_line());
            out.push('\n');
        }
        out
    }

    /// Builds the run manifest for this campaign: config, per-layer
    /// statistics, the ΔLoss running-mean convergence trace over the
    /// canonical trial order, and a snapshot of the trace counters.
    pub fn to_manifest(&self, tool: &str, cfg: &CampaignConfig, wall_time_s: f64) -> RunManifest {
        let mut conv = ConvergenceTrace::new();
        for t in &self.trials {
            if let Some(d) = t.delta_loss {
                conv.push(d);
            }
        }
        let mut m = RunManifest::new(tool)
            .with_config("format", self.format.as_str())
            .with_config("site", cfg.kind.as_str())
            .with_config("injections_per_layer", cfg.injections_per_layer)
            .with_config("seed", cfg.seed)
            .with_config("jobs", cfg.jobs)
            .with_config("sampler", cfg.sampler.as_str())
            .with_extra("avg_delta_loss", self.avg_delta_loss())
            .with_extra("planned_trials", self.planned_trials)
            .with_extra("early_stop_savings", self.early_stop_savings())
            .with_extra("trials", self.trials.len());
        if let Some(ci) = cfg.early_stop {
            m = m.with_config("early_stop", ci);
        }
        m.wall_time_s = wall_time_s;
        if wall_time_s > 0.0 {
            m = m.with_extra("trials_per_sec", self.trials.len() as f64 / wall_time_s);
        }
        m.layers = self
            .layers
            .iter()
            .map(|l| trace::LayerRecord {
                layer: l.layer,
                name: l.name.clone(),
                injections: l.injections,
                delta_loss: l.delta_loss.summary(),
                mismatch: l.mismatch.summary(),
            })
            .collect();
        m.convergence = conv.running_means().to_vec();
        m.snapshot_counters();
        m.snapshot_profile();
        m
    }
}

/// Builds one trial's replayable record and emits it as a `trial` event
/// on the active trace sinks (tagged with the worker id).
fn trial_record(
    site: &SiteState,
    trial: usize,
    kind: SiteKind,
    flip: Option<(usize, usize)>,
    outcome: Option<&metrics::InjectionOutcome>,
    worker: usize,
) -> TrialRecord {
    let record = TrialRecord {
        layer: site.index,
        layer_name: site.name.clone(),
        trial,
        site: Cow::Borrowed(kind.as_str()),
        element: flip.map(|(e, _)| e),
        bit: flip.map(|(_, b)| b),
        delta_loss: outcome.map(|o| o.delta_loss),
        mismatch: outcome.map(|o| o.mismatch_rate),
        worker,
    };
    trials_counter().add(1);
    if trace::recording() {
        trace::emit(trace::Level::Info, "trial", record.event_fields());
    }
    record
}

/// What one trial reports back to the scheduler: the flipped
/// `(element or word, bit)` and the fault's outcome, both `None` when the
/// planned fault never fired.
type TrialOutcome = (Option<(usize, usize)>, Option<metrics::InjectionOutcome>);

/// Per-site accumulator for the wave scheduler: canonical-order records
/// plus the running statistics the early-stop rule reads.
struct SiteState {
    /// Site index: the instrumented layer, or the weight tensor's ordinal.
    index: usize,
    name: String,
    done: usize,
    stopped: bool,
    records: Vec<TrialRecord>,
    delta_loss: RunningStats,
    mismatch: RunningStats,
    fired: usize,
    stratified: Option<StratifiedStats>,
    strata: BitStrata,
}

impl SiteState {
    fn new(
        index: usize,
        name: String,
        strata: BitStrata,
        kind: SiteKind,
        cfg: &CampaignConfig,
    ) -> Self {
        let stratified = match (kind, cfg.sampler) {
            (SiteKind::Value, BitSampler::Stratified { .. }) => Some(StratifiedStats::new(&[
                strata.population_weight(0),
                strata.population_weight(1),
            ])),
            _ => None,
        };
        SiteState {
            index,
            name,
            done: 0,
            stopped: false,
            records: Vec::new(),
            delta_loss: RunningStats::new(),
            mismatch: RunningStats::new(),
            fired: 0,
            stratified,
            strata,
        }
    }

    fn fold(&mut self, record: TrialRecord) {
        if let (Some(d), Some(m)) = (record.delta_loss, record.mismatch) {
            self.fired += 1;
            self.delta_loss.push(d);
            self.mismatch.push(m);
            if let (Some(strat), Some(bit)) = (&mut self.stratified, record.bit) {
                strat.push(self.strata.stratum_of(bit), d);
            }
        }
        self.done += 1;
        self.records.push(record);
    }

    fn should_stop(&self, rule: &EarlyStop) -> bool {
        match &self.stratified {
            Some(s) => rule.should_stop_stratified(s),
            None => rule.should_stop(&self.delta_loss),
        }
    }
}

/// Checkpoint reuse of a campaign, for the heartbeat's `cache_hit_rate`:
/// the segments each site's replay skips, out of the model's segment
/// count.
struct ReplaySegments {
    skipped: Vec<usize>,
    total: usize,
}

/// The wave scheduler every campaign runs on.
///
/// Each round gives every unstopped site one wave of trials (the whole
/// site without early stopping, [`EARLY_STOP_WAVE`] trials with it), and
/// every trial is one unit of work. `run_trial(site, seed)` executes one
/// trial — trial `t` of site `s` is seeded with
/// [`trial_seed`]`(cfg.seed, s.index, t)`. Trials run on `cfg.jobs`
/// workers; their records fold in canonical `(site, trial)` order, and
/// early-stop decisions happen only between rounds, so the executed trial
/// set and every record are independent of `jobs`.
fn run_waves(
    cfg: &CampaignConfig,
    kind: SiteKind,
    phase: &'static str,
    mut sites: Vec<SiteState>,
    replay: ReplaySegments,
    run_trial: impl Fn(&SiteState, u64) -> TrialOutcome + Sync,
) -> Vec<SiteState> {
    let n = cfg.injections_per_layer;
    let rule = cfg.early_stop.map(EarlyStop::new);
    // Streaming progress: workers tick the live status line per trial;
    // heartbeat *events* fire only at wave-round boundaries, which are
    // schedule-invariant, so heartbeat content is byte-deterministic
    // across `jobs` (modulo the volatile timing fields listed in
    // `trace::names::PROGRESS_VOLATILE_FIELDS`).
    let progress = Progress::new(phase, (sites.len() * n) as u64);
    let (mut seg_skipped, mut seg_total) = (0usize, 0usize);
    let mut round: u64 = 0;
    loop {
        let mut units: Vec<(usize, usize)> = Vec::new();
        for (si, st) in sites.iter_mut().enumerate() {
            if st.stopped || st.done >= n {
                continue;
            }
            // Without early stopping there are no decisions to take, so
            // one wave covers the whole site (fewer scheduling barriers).
            let wave = if rule.is_some() { EARLY_STOP_WAVE } else { n };
            let wave_end = st.done + wave.min(n - st.done);
            // Room for exactly this wave's records: a campaign result keeps
            // them, so growth slack would be kept too.
            st.records.reserve_exact(wave_end - st.done);
            units.extend((st.done..wave_end).map(|t| (si, t)));
        }
        if units.is_empty() {
            break;
        }
        let results: Vec<TrialRecord> = parallel::map(cfg.jobs, units.len(), |worker, u| {
            let (si, t) = units[u];
            let site = &sites[si];
            let _span = trace::span!("trial", layer = site.index);
            let (flip, outcome) =
                run_trial(site, trial_seed(cfg.seed, site.index as u64, t as u64));
            progress.tick(1);
            trial_record(site, t, kind, flip, outcome.as_ref(), worker)
        });
        for (&(si, _), rec) in units.iter().zip(results) {
            seg_skipped += replay.skipped[si];
            seg_total += replay.total;
            sites[si].fold(rec);
        }
        if let Some(rule) = &rule {
            for st in &mut sites {
                if !st.stopped && st.done < n && st.should_stop(rule) {
                    st.stopped = true;
                }
            }
        }
        round += 1;
        // Deterministic content first (wave index, site states), volatile
        // schedule/timing fields last.
        let stopped = sites.iter().filter(|s| s.stopped).count();
        progress.heartbeat(vec![
            ("wave", Json::from(round)),
            ("stopped_sites", Json::from(stopped)),
            ("jobs", Json::from(cfg.jobs)),
            ("cache_hit_rate", Json::Num(seg_skipped as f64 / seg_total as f64)),
        ]);
    }
    progress.finish();
    sites
}

/// Folds the scheduler's finished sites into a [`CampaignResult`].
fn campaign_result(
    format: String,
    kind: SiteKind,
    sites: Vec<SiteState>,
    n: usize,
) -> CampaignResult {
    let planned_trials = sites.len() * n;
    let mut layers = Vec::with_capacity(sites.len());
    let mut trials = Vec::with_capacity(sites.iter().map(|st| st.records.len()).sum());
    for st in sites {
        trials.extend(st.records);
        layers.push(LayerResult {
            layer: st.index,
            name: st.name,
            delta_loss: st.delta_loss,
            mismatch: st.mismatch,
            injections: st.fired,
            stratified: st.stratified,
        });
    }
    CampaignResult { format, kind, layers, trials, planned_trials }
}

/// Runs a layer-by-layer injection campaign.
///
/// For each instrumented layer, performs up to `cfg.injections_per_layer`
/// single-bit flips (per `cfg.kind`), each compared against the
/// error-free emulated run over `(x, targets)`.
///
/// **Execution schedule.** The clean run is captured once as per-segment
/// checkpoints ([`GoldenEye::capture_clean_run`]); the same pass lists the
/// instrumented layers that become the campaign's sites. Trials replay
/// only the network suffix from the checkpoint preceding their injection
/// layer, one trial per forward ([`GoldenEye::replay`]), and a trial
/// whose activation equals the clean run's bit for bit at a later segment
/// boundary stops there with the golden logits (the replay's exact early
/// exit; records are unchanged). With
/// `cfg.early_stop` set, each site's trials run in canonical
/// waves of [`EARLY_STOP_WAVE`] and stop once the site's ΔLoss confidence
/// interval is tight enough.
///
/// **Determinism.** Per-trial seeds come from [`trial_seed`], replayed
/// trials reproduce full-forward runs draw-for-draw, outcomes fold in
/// canonical `(layer, trial)` order, and early-stop decisions happen only
/// at wave boundaries — so the executed trial set and every record are
/// bit-identical across all `jobs` values.
///
/// # Panics
///
/// Panics if the format lacks metadata but `cfg.kind` is
/// [`SiteKind::Metadata`].
pub fn run_campaign(
    ge: &GoldenEye,
    model: &dyn Module,
    x: &Tensor,
    targets: &[usize],
    cfg: &CampaignConfig,
) -> CampaignResult {
    let _pool = tensor::workspace::run_scope();
    if cfg.kind == SiteKind::Metadata {
        assert!(
            ge.format().supports_metadata_injection(),
            "{} has no injectable metadata",
            ge.format().name()
        );
    }
    let _campaign_span = trace::span!(
        "campaign",
        format = ge.format().name(),
        site = cfg.kind.as_str(),
        jobs = cfg.jobs
    );
    let clean = ge.capture_clean_run(model, x.clone());
    let replay = ReplaySegments {
        skipped: clean.layers().iter().map(|l| clean.segment_for_layer(l.index)).collect(),
        total: model.num_segments(),
    };
    let sites = clean
        .layers()
        .iter()
        .map(|l| {
            let strata = BitStrata::for_format(ge.format_for_layer(l.index));
            SiteState::new(l.index, l.name.clone(), strata, cfg.kind, cfg)
        })
        .collect();
    let sites = run_waves(cfg, cfg.kind, "campaign", sites, replay, |site, seed| {
        let plan = InjectionPlan::single(site.index, cfg.kind);
        let fault = TrialFault::Activation { plan, sampler: cfg.sampler, seed };
        let (faulty, rec) = ge.replay(model, &clean, fault);
        let flip = rec.as_ref().map(|r| match r {
            InjectionRecord::Value { flip, .. } => (flip.element, flip.bit),
            InjectionRecord::Metadata { flip, .. } => (flip.word, flip.bit),
        });
        (flip, rec.map(|_| compare_outcomes(clean.golden(), &faulty, targets)))
    });
    campaign_result(ge.format().name(), cfg.kind, sites, cfg.injections_per_layer)
}

/// Runs a **weight**-fault campaign (§V-B: injections in weights as well
/// as neurons): for each weight parameter (`*.weight`), performs up to
/// `cfg.injections_per_layer` single-bit flips in the stored, quantised
/// weight, each compared against the error-free run over quantised
/// weights.
///
/// Weights are quantised into the format up front (the paper's offline
/// conversion), and fully restored before returning or unwinding.
/// `cfg.kind` is ignored: stored weights are data values. Trials run on
/// the same wave scheduler and the same replay engine as
/// [`run_campaign`], so early stopping, stratified bit sampling and wave
/// heartbeats apply here too.
///
/// **Execution schedule.** The clean run is captured once under the
/// quantised weights ([`GoldenEye::capture_clean_run`]); it also records
/// which segments read each weight. A trial converts its weight into the
/// format, flips one bit, and replays from the first segment that reads
/// the weight ([`GoldenEye::replay`] with [`TrialFault::Weight`]); once the
/// last segment that reads it has run, a trial whose activation equals the
/// clean run's bit for bit stops with the golden logits.
///
/// Each trial perturbs its weight through a **thread-local** parameter
/// override ([`nn::Param::override_local`]) instead of mutating the
/// shared storage, so with `cfg.jobs > 1` concurrent trials never
/// observe each other's faults; the shared model holds the clean
/// quantised weights throughout. As in [`run_campaign`], per-trial
/// seeding plus canonical fold order make the result bit-identical for
/// every `jobs` value.
pub fn run_weight_campaign(
    ge: &GoldenEye,
    model: &dyn Module,
    x: &Tensor,
    targets: &[usize],
    cfg: &CampaignConfig,
) -> CampaignResult {
    let _pool = tensor::workspace::run_scope();
    let _restore = ge.quantized_weights(model);
    let _campaign_span =
        trace::span!("campaign", format = ge.format().name(), site = "weight", jobs = cfg.jobs);
    let clean = ge.capture_clean_run(model, x.clone());
    let weights: Vec<nn::Param> =
        model.params().into_iter().filter(|p| p.name().ends_with(".weight")).collect();
    let replay = ReplaySegments {
        skipped: weights
            .iter()
            .map(|p| clean.param_segments(p).map_or(0, |(first, _)| first))
            .collect(),
        total: model.num_segments(),
    };
    let strata = BitStrata::for_format(ge.format());
    let sites = weights
        .iter()
        .enumerate()
        .map(|(i, p)| SiteState::new(i, p.name().to_string(), strata.clone(), SiteKind::Value, cfg))
        .collect();
    let sites = run_waves(cfg, SiteKind::Value, "weight_campaign", sites, replay, |site, seed| {
        let param = &weights[site.index];
        // Converting the clean weight again each trial gives the same codes
        // every time, and keeps no copy of every weight for the campaign.
        let mut q = ge.format().real_to_format_tensor(&param.get());
        let (fault, _) = inject::Injector::new(seed)
            .try_sample_value_fault_with(q.values.numel(), &cfg.sampler, &strata)
            .unwrap_or_else(|e| panic!("{e}"));
        inject::flip_value(ge.format(), &mut q, fault.index, fault.bit);
        let value = ge.format().format_to_real_tensor(&q);
        let (faulty, _) = ge.replay(model, &clean, TrialFault::Weight { param, value });
        (Some((fault.index, fault.bit)), Some(compare_outcomes(clean.golden(), &faulty, targets)))
    });
    campaign_result(ge.format().name(), SiteKind::Value, sites, cfg.injections_per_layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::{train, ResNet, ResNetConfig, SyntheticDataset, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn setup() -> (ResNet, Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(1);
        let model = ResNet::new(ResNetConfig::tiny(4), &mut rng);
        let data = SyntheticDataset::generate(48, 16, 4, 5);
        train(
            &model,
            &data,
            &TrainConfig { epochs: 4, batch_size: 16, lr: 3e-3, ..Default::default() },
        );
        let (x, y) = data.head_batch(8);
        (model, x, y)
    }

    #[test]
    fn value_campaign_covers_all_layers() {
        let (model, x, y) = setup();
        let ge = GoldenEye::parse("bfp:e5m5:b16").unwrap();
        let cfg = CampaignConfig {
            injections_per_layer: 5,
            kind: SiteKind::Value,
            seed: 7,
            jobs: 1,
            ..Default::default()
        };
        let result = run_campaign(&ge, &model, &x, &y, &cfg);
        assert_eq!(result.layers.len(), 7); // tiny resnet instrumented layers
        for l in &result.layers {
            assert_eq!(l.injections, 5, "layer {} fired {}", l.name, l.injections);
            assert!(l.delta_loss.mean() >= 0.0);
        }
        assert!(result.avg_delta_loss() >= 0.0);
    }

    #[test]
    fn metadata_campaign_on_bfp() {
        let (model, x, y) = setup();
        let ge = GoldenEye::parse("bfp:e5m5:b16").unwrap();
        let cfg = CampaignConfig {
            injections_per_layer: 5,
            kind: SiteKind::Metadata,
            seed: 7,
            jobs: 1,
            ..Default::default()
        };
        let result = run_campaign(&ge, &model, &x, &y, &cfg);
        assert!(result.layers.iter().all(|l| l.injections == 5));
    }

    #[test]
    fn bfp_metadata_flips_hurt_more_than_value_flips() {
        // The paper's headline Figure 7 finding: BFP metadata errors are
        // "much more egregious across the board" than value errors,
        // because one shared-exponent bit corrupts a whole block.
        let (model, x, y) = setup();
        let ge = GoldenEye::parse("bfp:e5m5:b16").unwrap();
        let value = run_campaign(
            &ge,
            &model,
            &x,
            &y,
            &CampaignConfig {
                injections_per_layer: 30,
                kind: SiteKind::Value,
                seed: 3,
                jobs: 1,
                ..Default::default()
            },
        );
        let meta = run_campaign(
            &ge,
            &model,
            &x,
            &y,
            &CampaignConfig {
                injections_per_layer: 30,
                kind: SiteKind::Metadata,
                seed: 3,
                jobs: 1,
                ..Default::default()
            },
        );
        assert!(
            meta.avg_delta_loss() > value.avg_delta_loss(),
            "metadata ΔLoss {} should exceed value ΔLoss {}",
            meta.avg_delta_loss(),
            value.avg_delta_loss()
        );
    }

    #[test]
    #[should_panic(expected = "no injectable metadata")]
    fn metadata_campaign_on_fp_panics() {
        let (model, x, y) = setup();
        let ge = GoldenEye::parse("fp16").unwrap();
        run_campaign(
            &ge,
            &model,
            &x,
            &y,
            &CampaignConfig {
                injections_per_layer: 1,
                kind: SiteKind::Metadata,
                seed: 0,
                jobs: 1,
                ..Default::default()
            },
        );
    }

    #[test]
    fn weight_campaign_covers_weight_params_and_restores() {
        let (model, x, y) = setup();
        let before = models::forward_logits(&model, x.clone());
        let ge = GoldenEye::parse("fp:e4m3").unwrap();
        let cfg = CampaignConfig {
            injections_per_layer: 4,
            kind: SiteKind::Value,
            seed: 1,
            jobs: 1,
            ..Default::default()
        };
        let result = run_weight_campaign(&ge, &model, &x, &y, &cfg);
        // tiny resnet: stem + 4 block convs + 1 downsample + head = 7
        // weight tensors.
        assert_eq!(result.layers.len(), 7);
        assert!(result.layers.iter().all(|l| l.injections == 4));
        assert!(result.layers.iter().any(|l| l.name == "head.weight"));
        let after = models::forward_logits(&model, x);
        assert!(before.allclose(&after, 0.0), "weights not restored");
    }

    #[test]
    fn weight_campaign_is_deterministic() {
        let (model, x, y) = setup();
        let ge = GoldenEye::parse("int:8").unwrap();
        let cfg = CampaignConfig {
            injections_per_layer: 3,
            kind: SiteKind::Value,
            seed: 9,
            jobs: 1,
            ..Default::default()
        };
        let a = run_weight_campaign(&ge, &model, &x, &y, &cfg);
        let b = run_weight_campaign(&ge, &model, &x, &y, &cfg);
        for (la, lb) in a.layers.iter().zip(&b.layers) {
            assert_eq!(la.delta_loss.mean(), lb.delta_loss.mean(), "layer {}", la.name);
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let (model, x, y) = setup();
        let ge = GoldenEye::parse("int:8").unwrap();
        let cfg = CampaignConfig {
            injections_per_layer: 3,
            kind: SiteKind::Value,
            seed: 11,
            jobs: 1,
            ..Default::default()
        };
        let a = run_campaign(&ge, &model, &x, &y, &cfg);
        let b = run_campaign(&ge, &model, &x, &y, &cfg);
        for (la, lb) in a.layers.iter().zip(&b.layers) {
            assert_eq!(la.delta_loss.mean(), lb.delta_loss.mean());
        }
    }

    #[test]
    fn early_stopping_skips_trials_and_is_schedule_invariant() {
        let (model, x, y) = setup();
        let ge = GoldenEye::parse("fp:e4m3").unwrap();
        // A loose CI bound stops converged sites after the first wave.
        let base = CampaignConfig {
            injections_per_layer: 3 * EARLY_STOP_WAVE,
            kind: SiteKind::Value,
            seed: 19,
            jobs: 1,
            ..Default::default()
        }
        .with_early_stop(5.0);
        let a = run_campaign(&ge, &model, &x, &y, &base);
        assert!(
            a.trials.len() < a.planned_trials,
            "loose CI should stop early ({} of {} trials ran)",
            a.trials.len(),
            a.planned_trials
        );
        assert!(a.early_stop_savings() > 0.0);
        // The executed trial set is identical across jobs.
        for jobs in [2, 3] {
            let b = run_campaign(&ge, &model, &x, &y, &base.clone().with_jobs(jobs));
            assert_eq!(
                a.canonical_trial_jsonl(),
                b.canonical_trial_jsonl(),
                "jobs {jobs} changed the early-stopped trial set"
            );
        }
    }

    #[test]
    fn early_stopped_sites_report_converged_ci() {
        let (model, x, y) = setup();
        let ge = GoldenEye::parse("fp:e4m3").unwrap();
        let cfg = CampaignConfig {
            injections_per_layer: 4 * EARLY_STOP_WAVE,
            kind: SiteKind::Value,
            seed: 23,
            jobs: 1,
            ..Default::default()
        }
        .with_early_stop(0.8);
        let result = run_campaign(&ge, &model, &x, &y, &cfg);
        for l in &result.layers {
            if l.delta_loss.count() < (4 * EARLY_STOP_WAVE) as u64 {
                assert!(
                    l.delta_loss.ci95_half_width() <= 0.8,
                    "layer {} stopped at CI {}",
                    l.name,
                    l.delta_loss.ci95_half_width()
                );
            }
        }
    }

    #[test]
    fn stratified_campaign_reports_reweighted_stats() {
        let (model, x, y) = setup();
        let ge = GoldenEye::parse("fp:e4m3").unwrap();
        let cfg = CampaignConfig {
            injections_per_layer: 40,
            kind: SiteKind::Value,
            seed: 29,
            jobs: 1,
            ..Default::default()
        }
        .with_sampler(BitSampler::Stratified { critical_mass: 0.75 });
        let result = run_campaign(&ge, &model, &x, &y, &cfg);
        let mut critical_total = 0u64;
        for l in &result.layers {
            let strat = l.stratified.as_ref().expect("stratified stats present");
            assert_eq!(strat.count(), l.delta_loss.count());
            critical_total += strat.stratum(0).count();
            // The unbiased estimator is what delta_loss_mean exposes.
            assert_eq!(l.delta_loss_mean(), strat.mean());
        }
        // fp:e4m3 has a 4-bit exponent field out of 8 bits; uniform
        // sampling would land ~50% of faults there, the stratified
        // sampler ~75%.
        let frac = critical_total as f64 / result.trials.len() as f64;
        assert!(frac > 0.62, "critical stratum fraction {frac} not oversampled");
    }

    #[test]
    fn uniform_campaign_has_no_stratified_stats() {
        let (model, x, y) = setup();
        let ge = GoldenEye::parse("int:8").unwrap();
        let cfg = CampaignConfig {
            injections_per_layer: 2,
            kind: SiteKind::Value,
            seed: 31,
            jobs: 1,
            ..Default::default()
        };
        let result = run_campaign(&ge, &model, &x, &y, &cfg);
        assert!(result.layers.iter().all(|l| l.stratified.is_none()));
        assert_eq!(result.planned_trials, result.trials.len());
        assert_eq!(result.early_stop_savings(), 0.0);
    }

    /// A wrapper that counts how often its model's first segment runs.
    struct CountingModel {
        inner: ResNet,
        first_segment_runs: AtomicUsize,
    }

    impl Module for CountingModel {
        fn forward(&self, x: &tensor::Var, ctx: &mut nn::Ctx) -> tensor::Var {
            let mut h = x.clone();
            for s in 0..self.num_segments() {
                h = self.forward_segment(s, &h, ctx);
            }
            h
        }

        fn num_segments(&self) -> usize {
            self.inner.num_segments()
        }

        fn forward_segment(
            &self,
            segment: usize,
            x: &tensor::Var,
            ctx: &mut nn::Ctx,
        ) -> tensor::Var {
            if segment == 0 {
                self.first_segment_runs.fetch_add(1, Ordering::Relaxed);
            }
            self.inner.forward_segment(segment, x, ctx)
        }

        fn visit_params(&self, f: &mut dyn FnMut(&nn::Param)) {
            self.inner.visit_params(f);
        }
    }

    #[test]
    fn campaign_runs_the_first_segment_once_outside_its_trials() {
        let (model, x, y) = setup();
        let ge = GoldenEye::parse("fp:e4m3").unwrap();
        let clean = ge.capture_clean_run(&model, x.clone());
        let counting = CountingModel { inner: model, first_segment_runs: AtomicUsize::new(0) };
        let cfg = CampaignConfig { injections_per_layer: 2, seed: 5, ..Default::default() };
        let result = run_campaign(&ge, &counting, &x, &y, &cfg);
        // Trials replaying from the first checkpoint run segment 0 too.
        let in_trials =
            result.trials.iter().filter(|t| clean.segment_for_layer(t.layer) == 0).count();
        assert!(in_trials > 0 && in_trials < result.trials.len());
        assert_eq!(
            counting.first_segment_runs.load(Ordering::Relaxed),
            1 + in_trials,
            "one clean pass, then only the trials that replay from segment 0"
        );
    }
}
