//! Call traces: what Strobelight collects (§2.2 — "a function call trace
//! can be composed of a function sequence starting with cloning a thread
//! and ending with a leaf function such as memcpy()"), annotated with the
//! cycles and instructions the sampler attributed to it.

use std::borrow::Cow;

/// A sampled call trace with its cycle and instruction attribution.
///
/// `CallTrace::default()` has no frames: it is a buffer for
/// [`TraceGenerator::sample_into`](crate::TraceGenerator::sample_into)
/// to fill, and has no root or leaf until then.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallTrace {
    /// Stack frames from root (index 0) to leaf (last). Generated traces
    /// borrow their frame names from static symbol tables; parsed ones
    /// own theirs.
    pub frames: Vec<Cow<'static, str>>,
    /// Cycles attributed to this trace.
    pub cycles: f64,
    /// Instructions retired while in this trace.
    pub instructions: f64,
}

impl CallTrace {
    /// Creates a trace; `frames` must be non-empty. Frames may be owned
    /// `String`s, `&'static str`s or `Cow`s.
    ///
    /// # Panics
    ///
    /// Panics on an empty frame list — a sample always has at least the
    /// leaf frame.
    #[must_use]
    pub fn new<F: Into<Cow<'static, str>>>(frames: Vec<F>, cycles: f64, instructions: f64) -> Self {
        assert!(!frames.is_empty(), "a call trace needs at least one frame");
        Self {
            frames: frames.into_iter().map(Into::into).collect(),
            cycles,
            instructions,
        }
    }

    /// The root frame (outermost caller).
    #[must_use]
    pub fn root(&self) -> &str {
        &self.frames[0]
    }

    /// The leaf frame (innermost function), the one the leaf tagger
    /// classifies.
    #[must_use]
    pub fn leaf(&self) -> &str {
        self.frames
            .last()
            .expect("a filled call trace has at least one frame")
    }

    /// Instructions per cycle for this trace.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles <= 0.0 {
            0.0
        } else {
            self.instructions / self.cycles
        }
    }

    /// Stack depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> CallTrace {
        CallTrace::new(
            vec![
                "svc::io::secure_send",
                "folly::AsyncSocket::write",
                "memcpy",
            ],
            1000.0,
            450.0,
        )
    }

    #[test]
    fn accessors() {
        let t = trace();
        assert_eq!(t.root(), "svc::io::secure_send");
        assert_eq!(t.leaf(), "memcpy");
        assert_eq!(t.depth(), 3);
        assert!((t.ipc() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn single_frame_trace_is_its_own_leaf() {
        let t = CallTrace::new(vec!["memcpy".to_owned()], 10.0, 5.0);
        assert_eq!(t.root(), t.leaf());
    }

    #[test]
    fn zero_cycle_trace_has_zero_ipc() {
        let t = CallTrace::new(vec!["x"], 0.0, 5.0);
        assert_eq!(t.ipc(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn empty_traces_rejected() {
        let _ = CallTrace::new(Vec::<String>::new(), 1.0, 1.0);
    }
}
