//! Stack-scoped wall-time attribution.
//!
//! A [`Profiler`] maintains a stack of named scopes and attributes wall
//! time to the full scope *path* (`prove;obligation:kexch;normalize`),
//! splitting each frame's duration into **self time** (spent in the frame
//! itself) and child time (spent in nested scopes). That is exactly the
//! accounting a flamegraph renders, and [`Profiler::folded`] emits it in
//! the folded-stack format `inferno`/`flamegraph.pl`/speedscope consume:
//! one `path;leaf <self-µs>` line per stack.
//!
//! Scopes are replayed: [`Profiler::enter_at`]/[`Profiler::exit_at`] take
//! explicit microsecond stamps, so the offline tools can rebuild the
//! attribution from a recorded trace, one profiler per thread, and
//! [`Profiler::merge`] the threads afterwards (frame addition is
//! associative, so merge order does not matter).

use std::collections::BTreeMap;

/// Aggregate statistics for one scope path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStat {
    /// Completed enter/exit pairs at this path.
    pub count: u64,
    /// Total wall time inside the frame, children included (µs).
    pub total_us: u64,
    /// Wall time inside the frame excluding named children (µs).
    pub self_us: u64,
}

/// One live (not yet exited) scope.
#[derive(Debug)]
struct OpenFrame {
    name: String,
    start_us: u64,
    child_us: u64,
}

/// A stack profiler attributing wall time to named scope paths.
#[derive(Debug, Default)]
pub struct Profiler {
    stack: Vec<OpenFrame>,
    frames: BTreeMap<String, FrameStat>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Open a scope at an explicit microsecond stamp (replay).
    pub fn enter_at(&mut self, name: &str, t_us: u64) {
        self.stack.push(OpenFrame {
            name: name.to_string(),
            start_us: t_us,
            child_us: 0,
        });
    }

    /// Close the innermost scope at an explicit stamp (replay). An exit
    /// with no matching enter is ignored — a truncated trace (bounded
    /// recorder, interrupted run) degrades to partial attribution, never
    /// a panic.
    pub fn exit_at(&mut self, t_us: u64) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let dur = t_us.saturating_sub(frame.start_us);
        let path = self.path_for(&frame.name);
        let stat = self.frames.entry(path).or_default();
        stat.count += 1;
        stat.total_us += dur;
        stat.self_us += dur.saturating_sub(frame.child_us);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_us += dur;
        }
    }

    /// Close every open scope at `t_us` — used at end of replay so a
    /// trace cut off mid-span still attributes the time observed so far.
    pub fn close_all_at(&mut self, t_us: u64) {
        while !self.stack.is_empty() {
            self.exit_at(t_us);
        }
    }

    /// The `;`-joined path of the current stack plus `leaf`.
    fn path_for(&self, leaf: &str) -> String {
        let mut path = String::new();
        for frame in &self.stack {
            path.push_str(&frame.name);
            path.push(';');
        }
        path.push_str(leaf);
        path
    }

    /// All completed frames, keyed by `;`-joined scope path.
    pub fn frames(&self) -> &BTreeMap<String, FrameStat> {
        &self.frames
    }

    /// Fold `other`'s completed frames into this profiler (per-thread
    /// profilers into one view). Addition per path is associative and
    /// commutative, so the merge order never changes the result.
    pub fn merge(&mut self, other: &Profiler) {
        for (path, stat) in &other.frames {
            let mine = self.frames.entry(path.clone()).or_default();
            mine.count += stat.count;
            mine.total_us += stat.total_us;
            mine.self_us += stat.self_us;
        }
    }

    /// The folded-stack rendering: one `a;b;c <self-µs>` line per path
    /// with nonzero attributed self time, sorted by path. Feed to
    /// `flamegraph.pl`, `inferno-flamegraph`, or speedscope.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, stat) in &self.frames {
            if stat.self_us > 0 {
                out.push_str(path);
                out.push(' ');
                out.push_str(&stat.self_us.to_string());
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_attributes_self_and_child_time() {
        let mut p = Profiler::new();
        p.enter_at("prove", 0);
        p.enter_at("normalize", 10);
        p.exit_at(40); // normalize: 30µs
        p.enter_at("split", 50);
        p.exit_at(60); // split: 10µs
        p.exit_at(100); // prove: 100µs total, 60µs self

        let frames = p.frames();
        assert_eq!(frames["prove"].total_us, 100);
        assert_eq!(frames["prove"].self_us, 60);
        assert_eq!(frames["prove"].count, 1);
        assert_eq!(frames["prove;normalize"].total_us, 30);
        assert_eq!(frames["prove;normalize"].self_us, 30);
        assert_eq!(frames["prove;split"].total_us, 10);
    }

    #[test]
    fn folded_output_lists_paths_with_self_time() {
        let mut p = Profiler::new();
        p.enter_at("a", 0);
        p.enter_at("b", 0);
        p.exit_at(5);
        p.exit_at(5); // a has zero self time
        let folded = p.folded();
        assert_eq!(folded, "a;b 5\n", "zero-self frames are elided");
    }

    #[test]
    fn unbalanced_traces_degrade_gracefully() {
        let mut p = Profiler::new();
        p.exit_at(10); // exit with empty stack: ignored
        p.enter_at("left-open", 0);
        p.enter_at("inner", 5);
        p.close_all_at(20);
        assert!(p.stack.is_empty());
        assert_eq!(p.frames()["left-open"].total_us, 20);
        assert_eq!(p.frames()["left-open;inner"].total_us, 15);
    }

    #[test]
    fn merge_is_order_independent() {
        let build = |spans: &[(&str, u64, u64)]| {
            let mut p = Profiler::new();
            for (name, start, end) in spans {
                p.enter_at(name, *start);
                p.exit_at(*end);
            }
            p
        };
        let a = build(&[("x", 0, 10), ("y", 10, 30)]);
        let b = build(&[("x", 0, 50)]);

        let mut ab = Profiler::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = Profiler::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab.frames(), ba.frames());
        assert_eq!(ab.frames()["x"].total_us, 60);
        assert_eq!(ab.frames()["x"].count, 2);
    }
}
