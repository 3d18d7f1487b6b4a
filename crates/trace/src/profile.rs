//! Hierarchical self-profiler: spans nest per-thread, and every span drop
//! folds `(path, duration)` into a process-global aggregate, from which a
//! per-run profile tree (inclusive/exclusive ns, call counts) and a
//! flamegraph-ready folded-stack export are derived.
//!
//! Paths are `;`-joined span names (`campaign;trial`) — the folded stack
//! convention. Each thread keeps its own span stack; work handed to a pool
//! thread inherits the spawning thread's path via [`with_profile_path`],
//! so `campaign;trial` nests correctly even though the `trial` span lives
//! on a worker.
//!
//! Aggregation is always on: the cost is one map update per span *drop*
//! (spans are per-phase/per-trial, never per-element), so it sits in both
//! the tracing-on and tracing-off sides of the overhead budget.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

struct ThreadCtx {
    /// Path prefix inherited from a spawning thread (`""` = root).
    prefix: String,
    /// Names of the spans currently open on this thread, outermost first.
    stack: Vec<&'static str>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> =
        const { RefCell::new(ThreadCtx { prefix: String::new(), stack: Vec::new() }) };
}

#[derive(Clone, Copy, Default)]
struct PathStat {
    count: u64,
    total_ns: u64,
}

fn stats() -> &'static Mutex<HashMap<String, PathStat>> {
    static STATS: OnceLock<Mutex<HashMap<String, PathStat>>> = OnceLock::new();
    STATS.get_or_init(|| Mutex::new(HashMap::new()))
}

fn compose(prefix: &str, stack: &[&'static str], leaf: Option<&str>) -> String {
    let mut path = String::with_capacity(prefix.len() + 16 * stack.len());
    path.push_str(prefix);
    for name in stack {
        if !path.is_empty() {
            path.push(';');
        }
        path.push_str(name);
    }
    if let Some(name) = leaf {
        if !path.is_empty() {
            path.push(';');
        }
        path.push_str(name);
    }
    path
}

/// Called by `Span::enter`: pushes `name` onto this thread's span stack.
pub(crate) fn span_enter(name: &'static str) {
    CTX.with(|c| c.borrow_mut().stack.push(name));
}

/// Called by `Span::drop`: pops the innermost span and folds its duration
/// into the global per-path aggregate.
pub(crate) fn span_exit(name: &'static str, dur_ns: u64) {
    let path = CTX.with(|c| {
        let mut c = c.borrow_mut();
        // Pop back to (and including) `name`; mismatches cannot happen
        // with RAII drops, but leaked spans must not wedge the stack.
        while let Some(top) = c.stack.pop() {
            if top == name {
                break;
            }
        }
        compose(&c.prefix, &c.stack, Some(name))
    });
    let mut map = stats().lock().unwrap_or_else(|p| p.into_inner());
    let s = map.entry(path).or_default();
    s.count += 1;
    s.total_ns += dur_ns;
}

/// The current thread's full span path (`prefix;open;spans`), for handing
/// to worker threads via [`with_profile_path`]. Empty when no span is
/// open.
pub fn profile_path() -> String {
    CTX.with(|c| {
        let c = c.borrow();
        compose(&c.prefix, &c.stack, None)
    })
}

/// RAII guard restoring the thread's inherited path prefix on drop.
/// Created by [`with_profile_path`].
pub struct PathGuard {
    saved: String,
}

impl Drop for PathGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.borrow_mut().prefix = std::mem::take(&mut self.saved));
    }
}

/// Sets this thread's span-path prefix to `path` until the returned guard
/// drops. Pool/scoped worker threads call this with the spawning thread's
/// [`profile_path`] so their spans nest under the caller's.
pub fn with_profile_path(path: &str) -> PathGuard {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        let saved = std::mem::replace(&mut c.prefix, path.to_string());
        PathGuard { saved }
    })
}

/// One node of the aggregated profile tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Span name (one path segment).
    pub name: String,
    /// Times a span completed at exactly this path (0 for nodes that only
    /// exist as ancestors of recorded paths, e.g. still-open parents).
    pub count: u64,
    /// Total nanoseconds spans at this path were open. For `count == 0`
    /// ancestor nodes this is the sum of the children's inclusive time.
    pub inclusive_ns: u64,
    /// Inclusive time minus children's inclusive time, clamped at zero
    /// (children on parallel workers can sum past the parent's wall time).
    pub exclusive_ns: u64,
    /// Child spans, sorted by name.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn new(name: &str) -> ProfileNode {
        ProfileNode {
            name: name.to_string(),
            count: 0,
            inclusive_ns: 0,
            exclusive_ns: 0,
            children: Vec::new(),
        }
    }

    fn child_mut(&mut self, name: &str) -> &mut ProfileNode {
        match self.children.binary_search_by(|c| c.name.as_str().cmp(name)) {
            Ok(i) => &mut self.children[i],
            Err(i) => {
                self.children.insert(i, ProfileNode::new(name));
                &mut self.children[i]
            }
        }
    }

    fn fix_up(&mut self) {
        let mut child_ns = 0u64;
        for c in &mut self.children {
            c.fix_up();
            child_ns += c.inclusive_ns;
        }
        if self.count == 0 {
            self.inclusive_ns = child_ns;
        }
        self.exclusive_ns = self.inclusive_ns.saturating_sub(child_ns);
    }

    /// The node as a JSON object (`children` omitted when empty).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::from(self.name.as_str())),
            ("count".to_string(), Json::from(self.count)),
            ("inclusive_ns".to_string(), Json::from(self.inclusive_ns)),
            ("exclusive_ns".to_string(), Json::from(self.exclusive_ns)),
        ];
        if !self.children.is_empty() {
            fields.push((
                "children".to_string(),
                Json::Arr(self.children.iter().map(ProfileNode::to_json).collect()),
            ));
        }
        Json::Obj(fields)
    }

    /// Parses a node back from its JSON object.
    pub fn from_json(v: &Json) -> Result<ProfileNode, String> {
        let int = |k: &str| {
            v.get(k).and_then(Json::as_u64).ok_or_else(|| format!("profile node: missing `{k}`"))
        };
        Ok(ProfileNode {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or("profile node: missing `name`")?
                .to_string(),
            count: int("count")?,
            inclusive_ns: int("inclusive_ns")?,
            exclusive_ns: int("exclusive_ns")?,
            children: match v.get("children") {
                Some(c) => c
                    .as_arr()
                    .ok_or("profile node: `children` must be an array")?
                    .iter()
                    .map(ProfileNode::from_json)
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            },
        })
    }
}

/// Builds the profile tree from the global aggregate: one root per
/// top-level span name, children sorted by name, exclusive time computed
/// bottom-up.
pub fn profile_snapshot() -> Vec<ProfileNode> {
    let map = stats().lock().unwrap_or_else(|p| p.into_inner());
    let mut entries: Vec<(&String, &PathStat)> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    let mut virtual_root = ProfileNode::new("");
    for (path, stat) in entries {
        let mut node = &mut virtual_root;
        for seg in path.split(';') {
            node = node.child_mut(seg);
        }
        node.count += stat.count;
        node.inclusive_ns += stat.total_ns;
    }
    drop(map);
    let mut roots = virtual_root.children;
    for r in &mut roots {
        r.fix_up();
    }
    roots
}

/// Clears the global profile aggregate (benches / tests).
pub fn reset_profile() {
    stats().lock().unwrap_or_else(|p| p.into_inner()).clear();
}

/// Serializes a profile tree as JSON (array of root nodes).
pub fn profile_to_json(roots: &[ProfileNode]) -> Json {
    Json::Arr(roots.iter().map(ProfileNode::to_json).collect())
}

/// Parses a profile tree from its JSON array.
pub fn profile_from_json(v: &Json) -> Result<Vec<ProfileNode>, String> {
    v.as_arr().ok_or("profile: must be an array")?.iter().map(ProfileNode::from_json).collect()
}

/// Renders a profile tree in the flamegraph *folded stack* format: one
/// `path;to;span <exclusive_ns>` line per node with self time (leaves are
/// always emitted), ready for `flamegraph.pl` / speedscope.
pub fn profile_folded(roots: &[ProfileNode]) -> String {
    fn walk(prefix: &str, node: &ProfileNode, out: &mut String) {
        let path =
            if prefix.is_empty() { node.name.clone() } else { format!("{prefix};{}", node.name) };
        if node.exclusive_ns > 0 || node.children.is_empty() {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&node.exclusive_ns.to_string());
            out.push('\n');
        }
        for c in &node.children {
            walk(&path, c, out);
        }
    }
    let mut out = String::new();
    for r in roots {
        walk("", r, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profile tests mutate the process-global aggregate; serialize them.
    fn serialize_tests() -> std::sync::MutexGuard<'static, ()> {
        crate::test_serial()
    }

    #[test]
    fn nested_spans_build_a_tree() {
        let _gate = serialize_tests();
        reset_profile();
        {
            let _outer = crate::span!("prof_outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = crate::span!("prof_inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let roots = profile_snapshot();
        let outer = roots.iter().find(|r| r.name == "prof_outer").expect("outer root");
        assert_eq!(outer.count, 1);
        let inner = outer.children.iter().find(|c| c.name == "prof_inner").expect("nested child");
        assert_eq!(inner.count, 1);
        assert!(outer.inclusive_ns >= inner.inclusive_ns);
        assert_eq!(outer.exclusive_ns, outer.inclusive_ns - inner.inclusive_ns);
        reset_profile();
    }

    #[test]
    fn path_prefix_propagates_to_workers() {
        let _gate = serialize_tests();
        reset_profile();
        {
            let _outer = crate::span!("prof_parent");
            let path = profile_path();
            assert!(path.ends_with("prof_parent"));
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _g = with_profile_path(&path);
                    let _child = crate::span!("prof_worker");
                });
            });
        }
        let roots = profile_snapshot();
        let parent = roots.iter().find(|r| r.name == "prof_parent").expect("parent root");
        assert!(
            parent.children.iter().any(|c| c.name == "prof_worker"),
            "worker span must nest under the spawning thread's path"
        );
        reset_profile();
    }

    #[test]
    fn ancestor_only_nodes_sum_children() {
        let _gate = serialize_tests();
        reset_profile();
        // Record a deep path whose intermediate node never completes.
        {
            let _g = with_profile_path("prof_ghost;prof_mid");
            let _leaf = crate::span!("prof_leaf");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let roots = profile_snapshot();
        let ghost = roots.iter().find(|r| r.name == "prof_ghost").expect("ghost root");
        assert_eq!(ghost.count, 0);
        let mid = &ghost.children[0];
        let leaf = &mid.children[0];
        assert_eq!(ghost.inclusive_ns, leaf.inclusive_ns);
        assert_eq!(ghost.exclusive_ns, 0);
        reset_profile();
    }

    #[test]
    fn profile_json_round_trips_and_folds() {
        let tree = vec![ProfileNode {
            name: "a".into(),
            count: 1,
            inclusive_ns: 100,
            exclusive_ns: 40,
            children: vec![ProfileNode {
                name: "b".into(),
                count: 2,
                inclusive_ns: 60,
                exclusive_ns: 60,
                children: Vec::new(),
            }],
        }];
        let back = profile_from_json(&profile_to_json(&tree)).unwrap();
        assert_eq!(back, tree);
        assert_eq!(
            profile_to_json(&back).to_compact(),
            profile_to_json(&tree).to_compact(),
            "serialization must be byte-stable across round trips"
        );
        let folded = profile_folded(&tree);
        assert_eq!(folded, "a 40\na;b 60\n");
    }
}
