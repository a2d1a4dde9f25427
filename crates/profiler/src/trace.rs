//! Call traces: what Strobelight collects (§2.2 — "a function call trace
//! can be composed of a function sequence starting with cloning a thread
//! and ending with a leaf function such as memcpy()"), annotated with the
//! cycles and instructions the sampler attributed to it.

/// A sampled call trace with its cycle and instruction attribution.
///
/// `CallTrace::default()` has no frames: it is a buffer for
/// [`TraceGenerator::sample_into`](crate::TraceGenerator::sample_into)
/// to fill, and has no root or leaf until then.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallTrace {
    /// Stack frames from root (index 0) to leaf (last), borrowed from
    /// static symbol tables.
    pub frames: Vec<&'static str>,
    /// Cycles attributed to this trace.
    pub cycles: f64,
    /// Instructions retired while in this trace.
    pub instructions: f64,
}

impl CallTrace {
    /// The root frame (outermost caller).
    #[must_use]
    pub fn root(&self) -> &'static str {
        self.frames[0]
    }

    /// The leaf frame (innermost function), the one the leaf tagger
    /// classifies.
    #[must_use]
    pub fn leaf(&self) -> &'static str {
        self.frames
            .last()
            .expect("a filled call trace has at least one frame")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(frames: Vec<&'static str>) -> CallTrace {
        CallTrace {
            frames,
            cycles: 1000.0,
            instructions: 450.0,
        }
    }

    #[test]
    fn accessors() {
        let t = trace(vec![
            "svc::io::secure_send",
            "folly::AsyncSocket::write",
            "memcpy",
        ]);
        assert_eq!(t.root(), "svc::io::secure_send");
        assert_eq!(t.leaf(), "memcpy");
    }

    #[test]
    fn single_frame_trace_is_its_own_leaf() {
        let t = trace(vec!["memcpy"]);
        assert_eq!(t.root(), t.leaf());
    }
}
