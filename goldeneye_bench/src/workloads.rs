//! The four workloads: what each sets up, what one repetition runs, and
//! how its outputs are checked.
//!
//! Every workload stresses a different layer, so that an optimisation of
//! one layer shows on the workload built around it and, as predicted, not
//! on the others (README.md has the reasoning per workload):
//!
//! - `resnet18-fp8-value`: checkpoint/replay engine, fused elementwise
//!   quantiser, conv compute;
//! - `deit_tiny-bfp-metadata`: per-replica narrow → quantise → dequantise
//!   → concat of a block format, over linear/bmm/attention layers;
//! - `resnet18-int8-pertrial`: the two per-trial engines (activation
//!   trials at the library default batch of one, and weight faults), full
//!   forwards with no checkpoint reuse;
//! - `resnet18-dse`: clean batch-32 inference across the FP family's
//!   formats, with the artifact store warm — no injection, no replay.
//!
//! The traffic is the CLI's: campaigns inject over 8 images, the DSE
//! evaluates 64 images at a 2% allowed accuracy drop. The seed picks the
//! inputs (which 8 held-out images a campaign sees, or the DSE evaluation
//! set) and the campaign base seed; the library only ever sees the
//! generated inputs. What a repetition executes — trials per site, DSE
//! nodes — is the same for every seed, so that throughput compares across
//! seeds: no workload uses per-site early stopping, whose executed-trial
//! mix follows the seed.

use crate::cache::{Net, IMG_SIZE, NUM_CLASSES};
use crate::timed::{Profile, TimedFormat};
use formats::FormatSpec;
use goldeneye::dse::{self, DseFamily, DseResult};
use goldeneye::{
    trial_seed, CampaignConfig, CampaignResult, GoldenEye, InjectionPlan, InjectionRecord,
    ParamSnapshot,
};
use inject::{BitSampler, SiteKind};
use models::SyntheticDataset;
use nn::Module;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::Store;
use tensor::Tensor;
use trace::TrialRecord;

/// Campaign and evaluation worker threads. One: on a shared 2-vCPU host,
/// two workers measured ~30% run-to-run spread in throughput (the second
/// vCPU is intermittently contended), one worker ~9%.
pub const JOBS: usize = 1;
/// The held-out split campaigns draw their images from.
const HELD_OUT_N: usize = 128;
const HELD_OUT_SEED: u64 = 2023;
/// Images per campaign (each trial's ΔLoss is over this batch), as in
/// `goldeneye campaign`, which injects over the first 8 test images.
const CAMPAIGN_IMAGES: usize = 8;
/// DSE evaluation-set size, batch size and allowed accuracy drop from
/// the FP32 baseline, as in `goldeneye dse`.
const DSE_IMAGES: usize = 64;
const DSE_BATCH: usize = 32;
const DSE_MAX_DROP: f32 = 0.02;
/// Executed trials re-run through another engine by the checks.
const RECHECKED_TRIALS: usize = 16;

/// Which evaluation model a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// ResNet-18.
    Resnet18,
    /// DeiT-tiny.
    DeitTiny,
}

/// The models the workloads run: the paper benchmarks' trained ones, or
/// small random-initialised stand-ins in tests.
#[derive(Debug, Clone)]
pub struct Nets {
    /// Stands in for [`Model::Resnet18`].
    pub resnet: Net,
    /// Stands in for [`Model::DeitTiny`].
    pub deit: Net,
}

impl Nets {
    /// The trained evaluation models.
    pub fn paper() -> Nets {
        Nets { resnet: Net::resnet18(), deit: Net::deit_tiny() }
    }

    /// The model standing in for `model`.
    pub fn get(&self, model: Model) -> &Net {
        match model {
            Model::Resnet18 => &self.resnet,
            Model::DeitTiny => &self.deit,
        }
    }
}

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// One activation campaign on the checkpoint/replay engine, at the
    /// auto-sized batch.
    Replay {
        /// Format spec.
        spec: &'static str,
        /// Value or metadata faults.
        site: SiteKind,
        /// Trials per site.
        trials: usize,
    },
    /// An activation campaign at the library's default batch of one trial
    /// per forward, then a weight-fault campaign.
    PerTrial {
        /// Format spec.
        spec: &'static str,
        /// Trials per site and per weight tensor.
        trials: usize,
    },
    /// `dse::search` over one format family, evaluating through the
    /// artifact store.
    Dse {
        /// The family searched.
        family: DseFamily,
    },
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The model it runs.
    pub model: Model,
    /// What it runs.
    pub kind: Kind,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "resnet18-fp8-value",
        model: Model::Resnet18,
        kind: Kind::Replay { spec: "fp:e4m3", site: SiteKind::Value, trials: 8 },
    },
    Workload {
        name: "deit_tiny-bfp-metadata",
        model: Model::DeitTiny,
        kind: Kind::Replay { spec: "bfp:e5m5:b16", site: SiteKind::Metadata, trials: 3 },
    },
    Workload {
        name: "resnet18-int8-pertrial",
        model: Model::Resnet18,
        kind: Kind::PerTrial { spec: "int:8", trials: 2 },
    },
    Workload {
        name: "resnet18-dse",
        model: Model::Resnet18,
        // As `goldeneye dse --family fp`. The FP walk visited the same 7
        // nodes for seeds 1-10, 17 and 18; the MX family accepted or
        // rejected its 6- and 8-bit nodes by the seed, and so changed path
        // and cost mix with it.
        kind: Kind::Dse { family: DseFamily::Fp },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A workload's generated inputs and built program state.
pub struct Env {
    /// The model, with its trained weights.
    pub model: Box<dyn Module>,
    /// The seed the inputs were generated from.
    pub seed: u64,
    /// The inputs.
    pub inputs: Inputs,
}

/// Inputs of the two workload families.
pub enum Inputs {
    /// A campaign's format, images and labels.
    Campaign {
        /// The simulator for the workload's format.
        ge: GoldenEye,
        /// The images.
        x: Tensor,
        /// Their labels.
        y: Vec<usize>,
    },
    /// A DSE search's evaluation set and artifact store.
    Dse {
        /// The evaluation set.
        data: SyntheticDataset,
        /// The artifact store every candidate's weight conversion goes
        /// through.
        store: Arc<Store>,
    },
}

/// What one repetition did.
#[derive(Debug)]
pub struct Rep {
    /// When the repetition started.
    pub start: Instant,
    /// Wall time of the repetition.
    pub wall_s: f64,
    /// Work done: executed trials (campaigns) or images evaluated at DSE
    /// nodes.
    pub units: usize,
    /// FNV-1a digest of the canonical output: the trial JSONL of every
    /// campaign, or every DSE node's spec, accuracy bits and verdict.
    pub digest: u64,
    /// The campaign results, in run order.
    pub campaigns: Vec<CampaignResult>,
    /// The DSE result (DSE workloads only).
    pub search: Option<DseResult>,
    /// Wall time of each DSE node evaluation, in ms.
    pub node_ms: Vec<f64>,
}

impl Rep {
    /// When the repetition ended.
    pub fn end(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.wall_s)
    }
}

/// `k` distinct indices below `n`, drawn from `seed` (a partial
/// Fisher–Yates shuffle).
fn pick(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

fn campaign_ge(spec: &str, traced: Option<&Arc<Profile>>) -> GoldenEye {
    let format = spec.parse::<FormatSpec>().expect("workload specs parse").build();
    match traced {
        Some(p) => GoldenEye::new(Box::new(TimedFormat::new(format, p.clone()))),
        None => GoldenEye::new(format),
    }
}

/// The `(element or word, bit)` an injection hit.
fn hit(rec: &InjectionRecord) -> (usize, usize) {
    match rec {
        InjectionRecord::Value { flip, .. } => (flip.element, flip.bit),
        InjectionRecord::Metadata { flip, .. } => (flip.word, flip.bit),
    }
}

/// Whether a re-run's outcome reproduces a campaign record bit for bit.
fn reproduces(
    record: &TrialRecord,
    site: Option<(usize, usize)>,
    outcome: metrics::InjectionOutcome,
) -> bool {
    let bits = |v: Option<f32>| v.map(f32::to_bits);
    site == record.element.zip(record.bit)
        && bits(Some(outcome.delta_loss)) == bits(record.delta_loss)
        && bits(Some(outcome.mismatch_rate)) == bits(record.mismatch)
}

/// Outcome of the correctness checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    /// Checks run.
    pub attempted: usize,
    /// Checks that failed.
    pub failed: usize,
}

impl Checks {
    /// Records one check, reporting a failure on stderr.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[goldeneye_bench] check failed: {}", what());
        }
    }
}

impl Workload {
    /// Loads the model (through `load`), generates the inputs from `seed`,
    /// and builds the simulator or opens the artifact store in
    /// `store_dir`.
    ///
    /// # Errors
    ///
    /// Returns the error loading the model or opening the store.
    pub fn setup(
        &self,
        nets: &Nets,
        load: &dyn Fn(&Net) -> io::Result<Box<dyn Module>>,
        seed: u64,
        store_dir: &Path,
    ) -> io::Result<Env> {
        let model = load(nets.get(self.model))?;
        let inputs = match self.kind {
            Kind::Replay { spec, .. } | Kind::PerTrial { spec, .. } => {
                let held_out =
                    SyntheticDataset::generate(HELD_OUT_N, IMG_SIZE, NUM_CLASSES, HELD_OUT_SEED);
                let (x, y) = held_out.batch(&pick(seed, HELD_OUT_N, CAMPAIGN_IMAGES));
                Inputs::Campaign { ge: campaign_ge(spec, None), x, y }
            }
            Kind::Dse { .. } => Inputs::Dse {
                data: SyntheticDataset::generate(DSE_IMAGES, IMG_SIZE, NUM_CLASSES, seed),
                store: Arc::new(Store::open(store_dir)?),
            },
        };
        Ok(Env { model, seed, inputs })
    }

    /// Runs one repetition on `model` (the set-up model, or a timing
    /// wrapper around it). With `traced`, format conversions run through
    /// a [`TimedFormat`] charging `traced`.
    pub fn rep(&self, env: &Env, model: &dyn Module, traced: Option<&Arc<Profile>>) -> Rep {
        let t0 = Instant::now();
        let mut rep = Rep {
            start: t0,
            wall_s: 0.0,
            units: 0,
            digest: 0,
            campaigns: Vec::new(),
            search: None,
            node_ms: Vec::new(),
        };
        match (self.kind, &env.inputs) {
            (Kind::Replay { spec, site, trials }, Inputs::Campaign { ge, x, y }) => {
                let traced_ge = traced.map(|p| campaign_ge(spec, Some(p)));
                let cfg = CampaignConfig {
                    injections_per_layer: trials,
                    kind: site,
                    seed: env.seed,
                    jobs: JOBS,
                    trials_per_batch: 0,
                    ..Default::default()
                };
                let ge = traced_ge.as_ref().unwrap_or(ge);
                rep.campaigns.push(goldeneye::run_campaign(ge, model, x, y, &cfg));
            }
            (Kind::PerTrial { spec, trials }, Inputs::Campaign { ge, x, y }) => {
                let traced_ge = traced.map(|p| campaign_ge(spec, Some(p)));
                let ge = traced_ge.as_ref().unwrap_or(ge);
                let cfg = CampaignConfig {
                    injections_per_layer: trials,
                    kind: SiteKind::Value,
                    seed: env.seed,
                    jobs: JOBS,
                    ..Default::default()
                };
                rep.campaigns.push(goldeneye::run_campaign(ge, model, x, y, &cfg));
                rep.campaigns.push(goldeneye::run_weight_campaign(ge, model, x, y, &cfg));
            }
            (Kind::Dse { family }, Inputs::Dse { data, store }) => {
                let n = data.len();
                let baseline = models::evaluate(model, data, n, DSE_BATCH);
                let mut stored =
                    dse::accuracy_eval_stored(model, data, n, DSE_BATCH, JOBS, Some(store.clone()));
                let node_ms = &mut rep.node_ms;
                let eval = |spec: &FormatSpec| {
                    let t0 = Instant::now();
                    let accuracy = match traced {
                        None => stored(spec),
                        // `accuracy_eval_stored` with the format wrapped.
                        Some(p) => {
                            let format = Box::new(TimedFormat::new(spec.build(), p.clone()));
                            let ge = GoldenEye::new(format).with_store(store.clone());
                            goldeneye::evaluate_accuracy_jobs(&ge, model, data, n, DSE_BATCH, JOBS)
                        }
                    };
                    node_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    accuracy
                };
                let search = dse::search(family, eval, baseline, DSE_MAX_DROP);
                rep.units = search.nodes.len() * n;
                rep.search = Some(search);
            }
            _ => unreachable!("set-up inputs always match the workload kind"),
        }
        rep.wall_s = t0.elapsed().as_secs_f64();
        let mut canonical = String::new();
        for c in &rep.campaigns {
            rep.units += c.trials.len();
            canonical.push_str(&c.canonical_trial_jsonl());
        }
        if let Some(s) = &rep.search {
            for node in &s.nodes {
                canonical.push_str(&format!(
                    "{} {} {:08x} {}\n",
                    node.index,
                    node.spec,
                    node.accuracy.to_bits(),
                    node.accepted
                ));
            }
            canonical.push_str(&format!("best {:?}\n", s.best.as_ref().map(ToString::to_string)));
        }
        rep.digest = formats::hash::fnv1a(canonical.as_bytes());
        rep
    }

    /// Re-derives a sample of `rep`'s outputs through a second path of
    /// the library and checks they agree bit for bit:
    ///
    /// - replay campaigns: executed trials re-run one at a time through
    ///   the per-trial path;
    /// - per-trial campaigns: activation trials re-run through the
    ///   checkpoint/replay path, weight trials re-run by hand through
    ///   `ParamSnapshot`, `quantize_weights` and `inject_weight_fault`;
    /// - DSE: the best node re-evaluated without the store.
    pub fn check(&self, env: &Env, rep: &Rep) -> Checks {
        let mut checks = Checks::default();
        let model = env.model.as_ref();
        let sample = |records: &[TrialRecord], k: usize| -> Vec<TrialRecord> {
            pick(rand::mix64(env.seed), records.len(), k)
                .into_iter()
                .map(|i| records[i].clone())
                .collect()
        };
        match (self.kind, &env.inputs) {
            (Kind::Replay { site, .. }, Inputs::Campaign { ge, x, y }) => {
                let golden = ge.run(model, x.clone());
                for r in sample(&rep.campaigns[0].trials, RECHECKED_TRIALS) {
                    let seed = trial_seed(env.seed, r.layer as u64, r.trial as u64);
                    let plan = InjectionPlan::single(r.layer, site);
                    let (faulty, rec) = ge.run_with_injection_sampled(
                        model,
                        x.clone(),
                        plan,
                        seed,
                        BitSampler::Uniform,
                    );
                    let outcome = metrics::compare_outcomes(&golden, &faulty, y);
                    checks.record(reproduces(&r, rec.as_ref().map(hit), outcome), || {
                        format!("per-trial re-run of {} trial {} differs", r.layer_name, r.trial)
                    });
                }
            }
            (Kind::PerTrial { .. }, Inputs::Campaign { ge, x, y }) => {
                let clean = ge.capture_clean_run(model, x.clone());
                for r in sample(&rep.campaigns[0].trials, RECHECKED_TRIALS / 2) {
                    let seed = trial_seed(env.seed, r.layer as u64, r.trial as u64);
                    let plan = InjectionPlan::single(r.layer, SiteKind::Value);
                    let out =
                        ge.run_replay_batch(model, &clean, plan, BitSampler::Uniform, &[seed]);
                    let (faulty, rec) = &out[0];
                    let outcome = metrics::compare_outcomes(clean.golden(), faulty, y);
                    checks.record(reproduces(&r, rec.as_ref().map(hit), outcome), || {
                        format!("replay re-run of {} trial {} differs", r.layer_name, r.trial)
                    });
                }
                let snapshot = ParamSnapshot::capture(model);
                ge.quantize_weights(model);
                let golden = ge.run(model, x.clone());
                let width = ge.format().bit_width() as usize;
                for r in sample(&rep.campaigns[1].trials, RECHECKED_TRIALS / 2) {
                    snapshot.restore(model);
                    ge.quantize_weights(model);
                    let numel = model
                        .params()
                        .iter()
                        .find(|p| p.name() == r.layer_name)
                        .map_or(0, |p| p.numel());
                    let seed = trial_seed(env.seed, r.layer as u64, r.trial as u64);
                    let fault = inject::Injector::new(seed).sample_value_fault(numel, width);
                    let flip = ge.inject_weight_fault(model, &r.layer_name, fault.index, fault.bit);
                    let faulty = ge.run(model, x.clone());
                    let outcome = metrics::compare_outcomes(&golden, &faulty, y);
                    let site = flip.map(|f| (f.element, f.bit));
                    checks.record(reproduces(&r, site, outcome), || {
                        format!("hand re-run of weight {} trial {} differs", r.layer_name, r.trial)
                    });
                }
                snapshot.restore(model);
            }
            (Kind::Dse { .. }, Inputs::Dse { data, .. }) => {
                if let Some(s) = &rep.search {
                    let Some(best) = &s.best else { return checks };
                    let node = s.nodes.iter().find(|n| &n.spec == best).expect("best was visited");
                    let ge = GoldenEye::new(best.build());
                    let acc = goldeneye::evaluate_accuracy_jobs(
                        &ge,
                        model,
                        data,
                        data.len(),
                        DSE_BATCH,
                        1,
                    );
                    checks.record(acc.to_bits() == node.accuracy.to_bits(), || {
                        format!("store-less accuracy of {best}: {acc} vs {}", node.accuracy)
                    });
                }
            }
            _ => unreachable!("set-up inputs always match the workload kind"),
        }
        checks
    }
}
