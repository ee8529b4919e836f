//! Simulation error type.

use std::error::Error;
use std::fmt;

/// Errors from constructing or running a [`crate::Simulator`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Only rank-1 and rank-2 patterns can be simulated on frames.
    UnsupportedRank(usize),
    /// The frame set does not match the pattern's field list.
    FieldCountMismatch {
        /// Fields the pattern declares.
        expected: usize,
        /// Frames supplied.
        got: usize,
    },
    /// Frames in a set have differing dimensions.
    FrameSizeMismatch,
    /// Parameter vector has the wrong length.
    ParamCountMismatch {
        /// Parameters the pattern declares.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A non-local border mode, which neither the tiled executor nor the
    /// emitted cone architecture can honour.
    NonLocalBorder,
    /// The underlying pattern is invalid.
    Pattern(String),
    /// Cone construction failed.
    Cone(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnsupportedRank(r) => {
                write!(f, "cannot simulate rank-{r} patterns (supported: 1, 2)")
            }
            SimError::FieldCountMismatch { expected, got } => write!(
                f,
                "frame set has {got} frames but the pattern declares {expected} fields"
            ),
            SimError::FrameSizeMismatch => write!(f, "frames in a set must share dimensions"),
            SimError::ParamCountMismatch { expected, got } => write!(
                f,
                "parameter vector has {got} values but the pattern declares {expected}"
            ),
            SimError::NonLocalBorder => write!(
                f,
                "wrap borders break tile locality; the cone architecture requires clamp, mirror or constant"
            ),
            SimError::Pattern(m) => write!(f, "invalid pattern: {m}"),
            SimError::Cone(m) => write!(f, "cone construction failed: {m}"),
        }
    }
}

impl Error for SimError {}
