//! The module system: parameters, forward context, and the **hook**
//! mechanism that GoldenEye instruments.
//!
//! The paper leverages "PyTorch's hook functionality to perform number
//! format emulation at the layer granularity" (§III-A). Here, every
//! instrumentable layer routes its output through [`Ctx::hook_output`];
//! registered [`ForwardHook`]s may replace the output tensor (e.g. with its
//! quantised image, possibly with a bit flipped). Hooks run under a
//! straight-through estimator so training still backpropagates.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use tensor::{Tape, Tensor, Var};

/// The kind of a layer, used to select which layers hooks apply to.
///
/// The paper instruments CONV and LINEAR by default "due to their
/// computational intensity", with all layer types supported optionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv,
    /// Fully-connected / projection layer.
    Linear,
    /// Batch/layer normalisation.
    Norm,
    /// Elementwise non-linearity.
    Activation,
    /// Pooling.
    Pool,
    /// Attention score/context computation.
    Attention,
    /// Anything else.
    Other,
}

/// Identity of one instrumented layer during a forward pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerInfo {
    /// Sequential index of the layer among instrumented layers (0-based,
    /// in execution order).
    pub index: usize,
    /// The layer's kind.
    pub kind: LayerKind,
    /// The layer's name (unique within a model).
    pub name: String,
}

/// A hook invoked on each instrumented layer output.
///
/// Returning `Some(t)` replaces the output with `t` (which must have the
/// same shape); `None` leaves it unchanged.
///
/// Hooks are shared across the parallel campaign executor's worker
/// threads, hence the `Send + Sync` supertraits: any interior mutability
/// (injection RNGs, capture buffers) must be behind a `Mutex`/`RwLock`.
pub trait ForwardHook: Send + Sync {
    /// Observes (and optionally replaces) the output of `layer`.
    fn on_output(&self, layer: &LayerInfo, output: &Tensor) -> Option<Tensor>;

    /// Which layer kinds this hook applies to. Defaults to the paper's
    /// default instrumentation set: CONV and LINEAR.
    fn applies_to(&self, kind: LayerKind) -> bool {
        matches!(kind, LayerKind::Conv | LayerKind::Linear)
    }
}

thread_local! {
    /// Per-thread parameter value overrides, keyed by [`Param::key`].
    ///
    /// The parallel weight-fault campaign runs many trials against one
    /// shared model; each worker thread installs its faulty weight here
    /// (via [`Param::override_local`]) instead of mutating the shared
    /// storage, so trials never observe each other's faults.
    static PARAM_OVERRIDES: RefCell<HashMap<usize, Tensor>> = RefCell::new(HashMap::new());
}

/// RAII guard for a thread-local parameter override (see
/// [`Param::override_local`]). Dropping it restores the previous view.
///
/// Deliberately `!Send`: the override only exists on the installing
/// thread, so the guard must be dropped there too.
#[derive(Debug)]
pub struct ParamOverrideGuard {
    key: usize,
    previous: Option<Tensor>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ParamOverrideGuard {
    fn drop(&mut self) {
        PARAM_OVERRIDES.with(|o| {
            let mut map = o.borrow_mut();
            match self.previous.take() {
                Some(prev) => {
                    map.insert(self.key, prev);
                }
                None => {
                    map.remove(&self.key);
                }
            }
        });
    }
}

/// A trainable parameter: a shared, mutable tensor with a name.
///
/// Cloning a `Param` aliases the same storage. The storage is an
/// `Arc<RwLock<..>>`, so parameters can be read concurrently from many
/// campaign worker threads; lock poisoning is deliberately ignored (a
/// panicked trial leaves the tensor intact — `Tensor` mutation through
/// this API is replace-whole-value, never partial).
#[derive(Clone)]
pub struct Param {
    value: Arc<RwLock<Tensor>>,
    name: String,
}

impl Param {
    /// Creates a parameter from an initial value.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        Param { value: Arc::new(RwLock::new(value)), name: name.into() }
    }

    /// The parameter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn read(&self) -> RwLockReadGuard<'_, Tensor> {
        self.value.read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Tensor> {
        self.value.write().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// A snapshot of the current value as seen by this thread: the
    /// thread-local override if one is installed, else the shared value.
    ///
    /// The snapshot shares the value's buffer; a later [`Param::set`] or
    /// [`Param::update`] does not change it (`update` copies the buffer
    /// first while a snapshot still holds it).
    pub fn get(&self) -> Tensor {
        let key = self.key();
        if let Some(t) = PARAM_OVERRIDES.with(|o| o.borrow().get(&key).cloned()) {
            return t;
        }
        self.read().clone()
    }

    /// Replaces the shared value.
    ///
    /// # Panics
    ///
    /// Panics if the new value's shape differs.
    pub fn set(&self, t: Tensor) {
        let mut v = self.write();
        assert_eq!(v.shape(), t.shape(), "parameter {} shape changed", self.name);
        *v = t;
    }

    /// Applies an in-place update to the shared value.
    pub fn update(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.write());
    }

    /// Installs a value override visible **only to the calling thread**
    /// until the returned guard is dropped.
    ///
    /// This is how parallel fault-injection trials perturb a weight
    /// without racing: the shared storage stays clean, and
    /// [`Param::get`] on the installing thread sees `t` instead.
    ///
    /// # Panics
    ///
    /// Panics if `t`'s shape differs from the parameter's.
    pub fn override_local(&self, t: Tensor) -> ParamOverrideGuard {
        assert_eq!(
            self.read().shape(),
            t.shape(),
            "parameter {} override shape mismatch",
            self.name
        );
        let key = self.key();
        let previous = PARAM_OVERRIDES.with(|o| o.borrow_mut().insert(key, t));
        ParamOverrideGuard { key, previous, _not_send: std::marker::PhantomData }
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.read().numel()
    }

    /// A stable identity for this parameter's storage (used by optimizers
    /// and the thread-local override table).
    pub fn key(&self) -> usize {
        Arc::as_ptr(&self.value) as usize
    }
}

impl fmt::Debug for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Param({}, {:?})", self.name, self.read().shape())
    }
}

/// Per-forward-pass state: the autograd tape, registered hooks, the layer
/// counter, and parameter→variable bindings for the optimizer.
pub struct Ctx {
    tape: Tape,
    hooks: Vec<Arc<dyn ForwardHook>>,
    layer_index: usize,
    bindings: Vec<(Param, Var)>,
    training: bool,
}

impl Ctx {
    /// Creates an inference context (no gradient recording, no hooks).
    pub fn inference() -> Self {
        Ctx {
            tape: Tape::inference(),
            hooks: Vec::new(),
            layer_index: 0,
            bindings: Vec::new(),
            training: false,
        }
    }

    /// Creates a training context (gradients recorded).
    pub fn training() -> Self {
        Ctx {
            tape: Tape::new(),
            hooks: Vec::new(),
            layer_index: 0,
            bindings: Vec::new(),
            training: true,
        }
    }

    /// Starts layer numbering at `index` instead of 0.
    ///
    /// Used by checkpoint/replay execution: a pass that resumes from a
    /// cached mid-network activation (see [`Module::forward_segment`])
    /// must hand hooks the same layer indices a full forward pass would.
    pub fn set_base_layer(&mut self, index: usize) {
        self.layer_index = index;
    }

    /// Number of trials this pass carries: always 1, since every trial
    /// runs its own forward. Kept only because the benchmark package
    /// still reads it; ignored until the benchmark's next change, after
    /// which it goes.
    pub fn replicas(&self) -> usize {
        1
    }

    /// Registers a forward hook.
    pub fn add_hook(&mut self, hook: Arc<dyn ForwardHook>) -> &mut Self {
        self.hooks.push(hook);
        self
    }

    /// The autograd tape for this pass.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// Whether this pass is a training pass (affects batch norm etc.).
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Lifts an input tensor onto the tape.
    pub fn input(&self, t: Tensor) -> Var {
        self.tape.leaf(t)
    }

    /// Lifts a parameter onto the tape, remembering the binding so the
    /// optimizer can find its gradient later.
    pub fn var_of(&mut self, p: &Param) -> Var {
        let v = self.tape.leaf(p.get());
        self.bindings.push((p.clone(), v.clone()));
        v
    }

    /// Lifts a constant tensor (no gradient tracking needed beyond leaf).
    pub fn constant(&self, t: Tensor) -> Var {
        self.tape.leaf(t)
    }

    /// Parameter→variable bindings recorded this pass.
    pub fn bindings(&self) -> &[(Param, Var)] {
        &self.bindings
    }

    /// Number of instrumented layers seen so far this pass.
    pub fn layers_seen(&self) -> usize {
        self.layer_index
    }

    /// Routes a layer output through all applicable hooks (in registration
    /// order), assigning the layer its execution index.
    ///
    /// Hook replacement happens under a straight-through estimator, so a
    /// training pass backpropagates through the original computation.
    pub fn hook_output(&mut self, kind: LayerKind, name: &str, out: Var) -> Var {
        let info = LayerInfo { index: self.layer_index, kind, name: name.to_string() };
        self.layer_index += 1;
        let applicable: Vec<Arc<dyn ForwardHook>> =
            self.hooks.iter().filter(|h| h.applies_to(kind)).cloned().collect();
        if applicable.is_empty() {
            return out;
        }
        // Hooks run once, eagerly: they are stateful (injector draws,
        // discovery records), and observing-only hooks must not cost a
        // tape node or a tensor copy. `value()` shares the output's
        // buffer, so every hook borrows the layer output itself.
        let x = out.value();
        let mut cur: Option<Tensor> = None;
        for h in &applicable {
            let view = cur.as_ref().unwrap_or(&x);
            if let Some(replaced) = h.on_output(&info, view) {
                cur = Some(replaced);
            }
        }
        match cur {
            // Lift the replacement onto the tape under a straight-through
            // estimator. The Cell moves it into the node without a clone;
            // `apply_ste` invokes its closure exactly once.
            Some(replaced) => {
                let replaced = std::cell::Cell::new(Some(replaced));
                out.apply_ste(move |_| replaced.take().expect("apply_ste closure runs once"))
            }
            None => out,
        }
    }
}

impl fmt::Debug for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Ctx(training={}, hooks={}, layers_seen={})",
            self.training,
            self.hooks.len(),
            self.layer_index
        )
    }
}

/// A neural-network module: anything with a forward pass and parameters.
///
/// `Send + Sync` so a `&dyn Module` can be shared across the parallel
/// campaign executor's scoped worker threads; stateful layers keep their
/// mutable state behind locks (e.g. `Dropout`'s RNG).
pub trait Module: Send + Sync {
    /// Computes the module's output.
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var;

    /// Number of checkpointable **segments** the forward pass decomposes
    /// into. Defaults to 1 (the whole model is one segment).
    ///
    /// Segments are the unit of activation checkpointing in batched
    /// injection campaigns: a model that overrides this (together with
    /// [`Module::forward_segment`]) promises that no tensor flows across a
    /// segment boundary except the segment's single input — e.g. a ResNet
    /// segments at residual-block granularity, never *inside* a block
    /// where the skip connection is live. A campaign can then cache the
    /// clean activation entering a segment and replay only the suffix.
    fn num_segments(&self) -> usize {
        1
    }

    /// Runs one segment of the forward pass.
    ///
    /// **Contract:** chaining `forward_segment(0) … forward_segment(n-1)`
    /// through the same `ctx` must be bit-identical to [`Module::forward`]
    /// — identical outputs *and* identical hook-point layer numbering.
    /// Models that override [`Module::num_segments`] should implement
    /// `forward` as exactly that chain so the contract holds by
    /// construction.
    ///
    /// # Panics
    ///
    /// The default (single-segment) implementation panics unless
    /// `segment == 0`.
    fn forward_segment(&self, segment: usize, x: &Var, ctx: &mut Ctx) -> Var {
        assert_eq!(segment, 0, "default Module has exactly one segment");
        self.forward(x, ctx)
    }

    /// Visits every parameter (used by optimizers, weight I/O, and weight
    /// quantisation).
    fn visit_params(&self, f: &mut dyn FnMut(&Param));

    /// Collects all parameters into a vector.
    fn params(&self) -> Vec<Param> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.push(p.clone()));
        out
    }

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DoubleHook;
    impl ForwardHook for DoubleHook {
        fn on_output(&self, _l: &LayerInfo, out: &Tensor) -> Option<Tensor> {
            Some(out.map(|x| x * 2.0))
        }
    }

    struct AddOneHook;
    impl ForwardHook for AddOneHook {
        fn on_output(&self, _l: &LayerInfo, out: &Tensor) -> Option<Tensor> {
            Some(out.map(|x| x + 1.0))
        }
        fn applies_to(&self, _k: LayerKind) -> bool {
            true
        }
    }

    #[test]
    fn param_shared_storage() {
        let p = Param::new("w", Tensor::zeros([2]));
        let q = p.clone();
        p.set(Tensor::ones([2]));
        assert_eq!(q.get().as_slice(), &[1.0, 1.0]);
        assert_eq!(p.key(), q.key());
    }

    #[test]
    fn param_get_shares_the_buffer_and_survives_updates() {
        let p = Param::new("w", Tensor::from_vec(vec![1.0, 2.0], [2]));
        let snap = p.get();
        assert_eq!(snap.as_slice().as_ptr(), p.get().as_slice().as_ptr());
        p.update(|t| t.as_mut_slice()[0] = 9.0);
        assert_eq!(snap.as_slice(), &[1.0, 2.0]);
        assert_eq!(p.get().as_slice(), &[9.0, 2.0]);
        let mut ctx = Ctx::inference();
        let v = ctx.var_of(&p);
        assert_eq!(v.value().as_slice().as_ptr(), p.get().as_slice().as_ptr());
    }

    /// Records the address of every output buffer it is shown.
    struct BufferProbe(std::sync::Mutex<Vec<usize>>);
    impl ForwardHook for BufferProbe {
        fn on_output(&self, _l: &LayerInfo, out: &Tensor) -> Option<Tensor> {
            self.0.lock().unwrap().push(out.as_slice().as_ptr() as usize);
            None
        }
    }

    #[test]
    fn hook_sees_the_layer_output_buffer_itself() {
        let probe = Arc::new(BufferProbe(std::sync::Mutex::new(Vec::new())));
        let mut ctx = Ctx::inference();
        ctx.add_hook(probe.clone());
        let x = ctx.input(Tensor::ones([2, 3]));
        let y = x.scale(2.0);
        let own = y.value().as_slice().as_ptr() as usize;
        let out = ctx.hook_output(LayerKind::Conv, "c", y);
        assert_eq!(*probe.0.lock().unwrap(), vec![own]);
        // An observing hook leaves the output in place too.
        assert_eq!(out.value().as_slice().as_ptr() as usize, own);
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn param_set_shape_mismatch_panics() {
        Param::new("w", Tensor::zeros([2])).set(Tensor::zeros([3]));
    }

    #[test]
    fn param_override_is_thread_local_and_scoped() {
        let p = Param::new("w", Tensor::zeros([2]));
        {
            let _guard = p.override_local(Tensor::ones([2]));
            assert_eq!(p.get().as_slice(), &[1.0, 1.0]);
            // Another thread still sees the clean shared value.
            std::thread::scope(|s| {
                s.spawn(|| assert_eq!(p.get().as_slice(), &[0.0, 0.0]));
            });
        }
        // Guard dropped: the override is gone.
        assert_eq!(p.get().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn param_override_nests() {
        let p = Param::new("w", Tensor::zeros([1]));
        let _outer = p.override_local(Tensor::from_vec(vec![1.0], [1]));
        {
            let _inner = p.override_local(Tensor::from_vec(vec![2.0], [1]));
            assert_eq!(p.get().as_slice(), &[2.0]);
        }
        assert_eq!(p.get().as_slice(), &[1.0]);
    }

    #[test]
    fn hooks_compose_in_order() {
        let mut ctx = Ctx::inference();
        ctx.add_hook(Arc::new(DoubleHook));
        ctx.add_hook(Arc::new(AddOneHook));
        let x = ctx.input(Tensor::from_vec(vec![3.0], [1]));
        let y = ctx.hook_output(LayerKind::Conv, "c1", x);
        // (3*2) + 1 = 7
        assert_eq!(y.value().as_slice(), &[7.0]);
    }

    #[test]
    fn hook_kind_filter() {
        let mut ctx = Ctx::inference();
        ctx.add_hook(Arc::new(DoubleHook)); // conv/linear only
        let x = ctx.input(Tensor::from_vec(vec![3.0], [1]));
        let y = ctx.hook_output(LayerKind::Activation, "relu", x);
        assert_eq!(y.value().as_slice(), &[3.0]);
    }

    #[test]
    fn layer_indices_count_in_execution_order() {
        let mut ctx = Ctx::inference();
        let x = ctx.input(Tensor::zeros([1]));
        ctx.hook_output(LayerKind::Conv, "a", x.clone());
        ctx.hook_output(LayerKind::Linear, "b", x.clone());
        ctx.hook_output(LayerKind::Conv, "c", x);
        assert_eq!(ctx.layers_seen(), 3);
    }

    #[test]
    fn base_layer_offsets_numbering() {
        let mut ctx = Ctx::inference();
        ctx.set_base_layer(5);
        struct IndexProbe(std::sync::Mutex<Vec<usize>>);
        impl ForwardHook for IndexProbe {
            fn on_output(&self, l: &LayerInfo, _o: &Tensor) -> Option<Tensor> {
                self.0.lock().unwrap().push(l.index);
                None
            }
        }
        let probe = Arc::new(IndexProbe(std::sync::Mutex::new(Vec::new())));
        ctx.add_hook(probe.clone());
        let x = ctx.input(Tensor::zeros([1]));
        ctx.hook_output(LayerKind::Conv, "a", x.clone());
        ctx.hook_output(LayerKind::Conv, "b", x);
        assert_eq!(*probe.0.lock().unwrap(), vec![5, 6]);
        assert_eq!(ctx.layers_seen(), 7);
    }

    #[test]
    fn default_module_is_single_segment() {
        struct Id;
        impl Module for Id {
            fn forward(&self, x: &Var, _ctx: &mut Ctx) -> Var {
                x.clone()
            }
            fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
        }
        let m = Id;
        assert_eq!(m.num_segments(), 1);
        let mut ctx = Ctx::inference();
        let x = ctx.input(Tensor::ones([2]));
        let y = m.forward_segment(0, &x, &mut ctx);
        assert_eq!(y.value().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "exactly one segment")]
    fn default_module_rejects_segment_one() {
        struct Id;
        impl Module for Id {
            fn forward(&self, x: &Var, _ctx: &mut Ctx) -> Var {
                x.clone()
            }
            fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
        }
        let mut ctx = Ctx::inference();
        let x = ctx.input(Tensor::ones([2]));
        Id.forward_segment(1, &x, &mut ctx);
    }

    #[test]
    fn hooked_training_pass_uses_ste() {
        let mut ctx = Ctx::training();
        ctx.add_hook(Arc::new(DoubleHook));
        let p = Param::new("w", Tensor::from_vec(vec![5.0], [1]));
        let w = ctx.var_of(&p);
        let y = ctx.hook_output(LayerKind::Linear, "fc", w.clone());
        assert_eq!(y.value().as_slice(), &[10.0]);
        let g = y.sum_all().backward();
        // STE: gradient passes through the hook unchanged.
        assert_eq!(g.get(&w).unwrap().as_slice(), &[1.0]);
    }
}
