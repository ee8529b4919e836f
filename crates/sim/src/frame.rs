//! Frames (grids of samples) and frame sets.

use std::fmt;
use std::sync::Arc;

use crate::border::BorderMode;
use crate::error::SimError;

/// A 2D grid of `f64` samples (use height 1 for 1D stencils).
///
/// ```
/// use isl_sim::{Frame, BorderMode};
/// let f = Frame::from_fn(4, 3, |x, y| (10 * y + x) as f64);
/// assert_eq!(f.get(1, 2), 21.0);
/// assert_eq!(f.sample(-1, 0, BorderMode::Clamp), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    width: usize,
    height: usize,
    data: Vec<f64>,
}

impl Frame {
    /// A zero-filled frame.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be positive");
        Frame {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Build a frame from a generator function `(x, y) -> value`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut frame = Frame::new(width, height);
        for y in 0..height {
            for x in 0..width {
                frame.data[y * width + x] = f(x, y);
            }
        }
        frame
    }

    /// Build a frame that takes ownership of row-major `data`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<f64>) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be positive");
        assert_eq!(data.len(), width * height, "sample count must match dimensions");
        Frame { width, height, data }
    }

    /// Build a 1D frame (height 1) from samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "frame dimensions must be positive");
        Frame {
            width: samples.len(),
            height: 1,
            data: samples.to_vec(),
        }
    }

    /// Width in samples.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in samples (1 for 1D).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of samples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the frame is empty (never true: dimensions are positive).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// In-bounds sample access.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.width && y < self.height, "frame access out of bounds");
        self.data[y * self.width + x]
    }

    /// In-bounds sample write.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, x: usize, y: usize, v: f64) {
        assert!(x < self.width && y < self.height, "frame access out of bounds");
        self.data[y * self.width + x] = v;
    }

    /// Border-resolved read at possibly-out-of-frame coordinates.
    pub fn sample(&self, x: i64, y: i64, border: BorderMode) -> f64 {
        let rx = border.resolve(x, self.width as i64);
        let ry = border.resolve(y, self.height as i64);
        match (rx, ry) {
            (Some(rx), Some(ry)) => self.data[ry as usize * self.width + rx as usize],
            _ => border
                .constant_value()
                .expect("resolve returns None only for Constant"),
        }
    }

    /// Raw samples, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Raw samples, row-major, mutably (the tree walks commit through it).
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the frame, returning its sample storage. Used by the engine's
    /// double-buffered stepping to recycle output allocations.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Largest absolute difference against another frame.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn max_abs_diff(&self, other: &Frame) -> f64 {
        assert!(
            self.width == other.width && self.height == other.height,
            "cannot diff frames of different sizes"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }

    /// Root-mean-square difference against another frame.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn rms_diff(&self, other: &Frame) -> f64 {
        assert!(
            self.width == other.width && self.height == other.height,
            "cannot diff frames of different sizes"
        );
        let sum: f64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        (sum / self.data.len() as f64).sqrt()
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame {}x{}", self.width, self.height)
    }
}

/// One frame per stencil field, aligned with the pattern's field ids.
///
/// Frames are stored behind [`Arc`] so that a step which leaves a field
/// untouched (every `Static` field, every iteration) shares the frame
/// instead of copying it; [`FrameSet::frame_mut`] restores copy-on-write
/// semantics for callers that do mutate.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSet {
    frames: Vec<Arc<Frame>>,
}

impl FrameSet {
    /// Assemble a set from per-field frames (index = field id). All frames
    /// must share dimensions.
    ///
    /// # Errors
    ///
    /// [`SimError::FrameSizeMismatch`] when dimensions differ,
    /// [`SimError::FieldCountMismatch`] when empty.
    pub fn from_frames(frames: Vec<Frame>) -> Result<Self, SimError> {
        Self::from_shared(frames.into_iter().map(Arc::new).collect())
    }

    /// Assemble a set from already-shared frames without copying them.
    ///
    /// # Errors
    ///
    /// Same as [`FrameSet::from_frames`].
    pub fn from_shared(frames: Vec<Arc<Frame>>) -> Result<Self, SimError> {
        if frames.is_empty() {
            return Err(SimError::FieldCountMismatch { expected: 1, got: 0 });
        }
        let (w, h) = (frames[0].width(), frames[0].height());
        if frames.iter().any(|f| f.width() != w || f.height() != h) {
            return Err(SimError::FrameSizeMismatch);
        }
        Ok(FrameSet { frames })
    }

    /// The frame of field `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn frame(&self, i: usize) -> &Frame {
        &self.frames[i]
    }

    /// A shared handle to the frame of field `i` (no sample copy).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn frame_arc(&self, i: usize) -> Arc<Frame> {
        Arc::clone(&self.frames[i])
    }

    /// Mutable access to the frame of field `i` (copy-on-write: the samples
    /// are copied only if the frame is currently shared).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn frame_mut(&mut self, i: usize) -> &mut Frame {
        Arc::make_mut(&mut self.frames[i])
    }

    /// All frames, in field order, as shared handles.
    pub fn frames(&self) -> &[Arc<Frame>] {
        &self.frames
    }

    /// Consume the set, returning the shared frames in field order. Frames
    /// whose handle was the last one can then be reclaimed with
    /// [`Arc::try_unwrap`] — the basis of the engine's ping-pong buffering.
    pub fn into_frames(self) -> Vec<Arc<Frame>> {
        self.frames
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the set is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Frame width (shared by construction).
    pub fn width(&self) -> usize {
        self.frames[0].width()
    }

    /// Frame height (shared by construction).
    pub fn height(&self) -> usize {
        self.frames[0].height()
    }

    /// A stable content hash of the whole set: shape plus the exact bit
    /// pattern of every sample of every field (FNV-1a, reproducible across
    /// processes). Two sets with equal fingerprints are bit-identical
    /// inputs for every engine, which is what makes the fingerprint a sound
    /// key for caching run artifacts — golden vectors, architecture
    /// certificates — at the flow level.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        eat(self.frames.len() as u64);
        eat(self.width() as u64);
        eat(self.height() as u64);
        for frame in &self.frames {
            for v in frame.as_slice() {
                eat(v.to_bits());
            }
        }
        h
    }

    /// Largest absolute difference across all fields.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different shapes.
    pub fn max_abs_diff(&self, other: &FrameSet) -> f64 {
        assert_eq!(self.frames.len(), other.frames.len(), "field count mismatch");
        self.frames
            .iter()
            .zip(&other.frames)
            .map(|(a, b)| a.max_abs_diff(b))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_layout() {
        let f = Frame::from_fn(3, 2, |x, y| (y * 10 + x) as f64);
        assert_eq!(f.get(0, 0), 0.0);
        assert_eq!(f.get(2, 1), 12.0);
        assert_eq!(f.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn sample_borders() {
        let f = Frame::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(f.sample(-1, 0, BorderMode::Clamp), 1.0);
        assert_eq!(f.sample(3, 0, BorderMode::Clamp), 3.0);
        assert_eq!(f.sample(-1, 0, BorderMode::Mirror), 2.0);
        assert_eq!(f.sample(-1, 0, BorderMode::Wrap), 3.0);
        assert_eq!(f.sample(-1, 0, BorderMode::Constant(9.0)), 9.0);
        assert_eq!(f.sample(1, 0, BorderMode::Constant(9.0)), 2.0);
    }

    #[test]
    fn diffs() {
        let a = Frame::from_samples(&[1.0, 2.0]);
        let b = Frame::from_samples(&[1.5, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!((a.rms_diff(&b) - (0.125f64).sqrt()).abs() < 1e-12);
        assert_eq!(a.mean(), 1.5);
    }

    #[test]
    fn frameset_checks_shapes() {
        let a = Frame::new(4, 4);
        let b = Frame::new(4, 5);
        assert_eq!(
            FrameSet::from_frames(vec![a.clone(), b]),
            Err(SimError::FrameSizeMismatch)
        );
        let set = FrameSet::from_frames(vec![a.clone(), a]).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.width(), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_get_panics() {
        Frame::new(2, 2).get(2, 0);
    }
}
