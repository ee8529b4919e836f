//! Shared helpers: the benchmark's own PRNG and input generators, sample
//! statistics, host diagnostics and output digests.

use std::time::Instant;

use isl_hls::sim::{Frame, FrameSet};

/// SplitMix64, the benchmark's own generator. Every input a run feeds the
/// program (noise frames, serve keys, the request schedule) is drawn from
/// a stream of this generator derived from the workload seed, so the same
/// seed always produces the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream named `tag` of workload seed `seed`. Streams are
    /// independent of each other, so adding one never shifts another.
    pub fn stream(seed: u64, tag: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One uniform-noise frame per field, `width`×`height`, from `rng`.
pub fn noise_frames(rng: &mut Rng, fields: usize, width: usize, height: usize) -> FrameSet {
    FrameSet::from_frames(
        (0..fields)
            .map(|_| {
                Frame::from_vec(
                    width,
                    height,
                    (0..width * height).map(|_| rng.next_f64()).collect(),
                )
            })
            .collect(),
    )
    .expect("congruent noise frames")
}

/// The top-left `width`×`height` corner of every field of `frames`.
pub fn crop(frames: &FrameSet, width: usize, height: usize) -> FrameSet {
    FrameSet::from_frames(
        frames
            .frames()
            .iter()
            .map(|f| Frame::from_fn(width, height, |x, y| f.get(x, y)))
            .collect(),
    )
    .expect("congruent crops")
}

/// FNV-1a over the bit patterns of every sample of every field.
pub fn digest(frames: &FrameSet) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in frames.frames() {
        for v in f.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Samples of one measured quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `q` quantile (`0..=1`), linear between order statistics; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn min(&self) -> f64 {
        self.quantile(0.0)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

/// Host state read from `/proc`, for telling a slow host phase apart from
/// a regression.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// `steal` ticks of the aggregate `cpu` line of `/proc/stat`.
    pub steal_ticks: u64,
    /// All ticks of that line.
    pub total_ticks: u64,
}

impl HostSample {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        HostSample {
            steal_ticks: ticks.get(7).copied().unwrap_or(0),
            total_ticks: ticks.iter().sum(),
        }
    }
}

/// The 1-minute load average.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|t| t.parse().ok()))
        .unwrap_or(0.0)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|t| t.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A finite JSON number (non-finite values would make the line invalid).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::stream(7, "flow");
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::stream(7, "flow");
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::stream(7, "engine").next_u64();
        let d = Rng::stream(8, "flow").next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        assert_ne!(a[0], d);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Samples(vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.quantile(0.25), 2.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn digest_sees_one_bit() {
        let mut rng = Rng::stream(1, "t");
        let a = noise_frames(&mut rng, 2, 8, 4);
        let mut b = a.clone();
        let v = b.frame(1).get(3, 2);
        b.frame_mut(1).set(3, 2, f64::from_bits(v.to_bits() ^ 1));
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&a.clone()));
    }
}
