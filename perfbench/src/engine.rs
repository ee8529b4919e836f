//! 1080p runs of the two quantised engines: the whole-frame engine and the
//! cone-DAG engine at the DSE-chosen decomposition. The working set is far
//! larger than the CPU caches.

use std::time::Instant;

use isl_hls::prelude::*;
use isl_hls::sim::{Quantizer, SimError};

use crate::util::{crop, digest, noise_frames, secs, Rng};

pub const WIDTH: usize = 1920;
pub const HEIGHT: usize = 1080;
/// Side of the top-left crop the reference engines re-run.
pub const CROP_W: usize = 160;
pub const CROP_H: usize = 120;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Simulator::run_quantized`.
    Frame,
    /// `Simulator::run_cone_dag_quantized` at the chosen decomposition.
    Dag,
}

pub struct EngineInputs {
    pub init: FrameSet,
    pub arch: Architecture,
    pub iterations: u32,
    pub q: Quantizer,
}

impl EngineInputs {
    /// Seeded 1080p frames and the fastest explored architecture for a
    /// 1080p workload on the Virtex-6. A run makes `depth + 1` iterations:
    /// two cone levels, short enough to sample many runs per process.
    pub fn new(session: &IslSession, seed: u64) -> Result<Self, FlowError> {
        let mut rng = Rng::stream(seed, "engine-frames");
        let init = noise_frames(&mut rng, session.pattern().fields().len(), WIDTH, HEIGHT);
        let device = Device::virtex6_xc6vlx760();
        let space = DesignSpace::new(2..=5, 1..=3, 4);
        let explored = session.explore(
            &device,
            session.workload(WIDTH as u32, HEIGHT as u32),
            &space,
        )?;
        let arch = explored
            .fastest()
            .ok_or_else(|| FlowError::Verification("nothing feasible at 1080p".into()))?
            .arch;
        Ok(EngineInputs {
            init,
            arch,
            iterations: arch.depth + 1,
            q: Quantizer::from(session.synth_options().format),
        })
    }

    /// Frame-element updates of one run, millions.
    pub fn melem(&self) -> f64 {
        (WIDTH * HEIGHT) as f64 * f64::from(self.iterations) / 1e6
    }

    /// Margin (pixels) beyond which a crop run's right/bottom edge cannot
    /// reach: each iteration reaches one radius further, and each
    /// cone-DAG level can widen that to whole tiles.
    pub fn margin(&self, radius: u32) -> usize {
        let levels = self.iterations.div_ceil(self.arch.depth);
        (self.iterations * radius + (levels + 1) * self.arch.window.w.max(self.arch.window.h))
            as usize
    }
}

/// Run one engine on `init`.
pub fn run(
    sim: &Simulator<'_>,
    inp: &EngineInputs,
    engine: Engine,
    init: &FrameSet,
) -> Result<FrameSet, SimError> {
    match engine {
        Engine::Frame => sim.run_quantized(init, inp.iterations, inp.q),
        Engine::Dag => {
            sim.run_cone_dag_quantized(init, inp.iterations, inp.arch.window, inp.arch.depth, inp.q)
        }
    }
}

/// The reference (tree-walk) twin of [`run`].
pub fn run_reference(
    sim: &Simulator<'_>,
    inp: &EngineInputs,
    engine: Engine,
    init: &FrameSet,
) -> Result<FrameSet, SimError> {
    match engine {
        Engine::Frame => sim.run_quantized_reference(init, inp.iterations, inp.q),
        Engine::Dag => sim.run_cone_dag_quantized_reference(
            init,
            inp.iterations,
            inp.arch.window,
            inp.arch.depth,
            inp.q,
        ),
    }
}

/// What the run keeps of one 1080p output for checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Digest of the whole output.
    pub full: u64,
    /// Digest of the region the crop check covers.
    pub interior: u64,
}

pub fn fingerprint(out: &FrameSet, margin: usize) -> Fingerprint {
    Fingerprint {
        full: digest(out),
        interior: digest(&crop(out, CROP_W - margin, CROP_H - margin)),
    }
}

/// Time one 1080p op; returns (ms, fingerprint).
pub fn timed(
    sim: &Simulator<'_>,
    inp: &EngineInputs,
    engine: Engine,
    margin: usize,
) -> Result<(f64, Fingerprint), SimError> {
    let t0 = Instant::now();
    let out = run(sim, inp, engine, &inp.init)?;
    let ms = secs(t0) * 1e3;
    Ok((ms, fingerprint(&out, margin)))
}

/// The oracle of one engine on this run's frames: the reference engine on
/// the top-left crop. The compiled engine must match it bit for bit on the
/// whole crop, and every 1080p output must match its interior.
pub struct Oracle {
    pub interior: u64,
}

pub fn oracle(
    sim: &Simulator<'_>,
    inp: &EngineInputs,
    engine: Engine,
    margin: usize,
) -> Result<Oracle, String> {
    let small = crop(&inp.init, CROP_W, CROP_H);
    let reference = run_reference(sim, inp, engine, &small).map_err(|e| e.to_string())?;
    let compiled = run(sim, inp, engine, &small).map_err(|e| e.to_string())?;
    bitwise_equal(&compiled, &reference)
        .map_err(|e| format!("{engine:?} engine vs reference on the crop: {e}"))?;
    Ok(Oracle {
        interior: digest(&crop(&reference, CROP_W - margin, CROP_H - margin)),
    })
}

/// Bitwise equality of two frame sets, naming the first difference.
pub fn bitwise_equal(a: &FrameSet, b: &FrameSet) -> Result<(), String> {
    if a.len() != b.len() || a.width() != b.width() || a.height() != b.height() {
        return Err("shapes differ".into());
    }
    for f in 0..a.len() {
        for (i, (x, y)) in a
            .frame(f)
            .as_slice()
            .iter()
            .zip(b.frame(f).as_slice())
            .enumerate()
        {
            if x.to_bits() != y.to_bits() {
                return Err(format!("field {f} element {i}: {x} vs {y}"));
            }
        }
    }
    Ok(())
}

/// Check one op's fingerprint against the crop oracle, the checked-in
/// digest (default seed) and the run's first output.
pub fn check(
    fp: Fingerprint,
    oracle: &Oracle,
    expected_full: Option<u64>,
    first: Option<Fingerprint>,
) -> Result<(), String> {
    if fp.interior != oracle.interior {
        return Err("1080p output differs from the reference on the crop".into());
    }
    if let Some(e) = expected_full {
        if fp.full != e {
            return Err(format!("1080p digest {:016x}, expected {e:016x}", fp.full));
        }
    }
    if let Some(f) = first {
        if fp != f {
            return Err("1080p output differs from the run's first op".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use isl_hls::algorithms;

    #[test]
    fn crop_oracle_rejects_a_flipped_bit() {
        let session = IslSession::from_algorithm(&algorithms::gaussian_igf()).unwrap();
        let mut rng = Rng::stream(3, "t");
        let init = noise_frames(&mut rng, 1, 200, 150);
        let inp = EngineInputs {
            init,
            arch: Architecture::new(Window::square(5), 3, 1),
            iterations: session.iterations(),
            q: Quantizer::from(session.synth_options().format),
        };
        let margin = inp.margin(session.pattern().radius());
        let sim = session.simulator().unwrap();
        for engine in [Engine::Frame, Engine::Dag] {
            let o = oracle(&sim, &inp, engine, margin).unwrap();
            // The larger frame's interior agrees with the crop reference.
            let out = run(&sim, &inp, engine, &inp.init).unwrap();
            let fp = fingerprint(&out, margin);
            assert!(check(fp, &o, Some(fp.full), Some(fp)).is_ok(), "{engine:?}");
            // One flipped bit inside the checked region is caught.
            let mut bad = out.clone();
            let v = bad.frame(0).get(2, 3);
            bad.frame_mut(0).set(2, 3, f64::from_bits(v.to_bits() ^ 1));
            assert!(check(fingerprint(&bad, margin), &o, None, None).is_err());
            // One flipped bit outside it is caught by the digest.
            let mut far = out.clone();
            let v = far.frame(0).get(190, 140);
            far.frame_mut(0)
                .set(190, 140, f64::from_bits(v.to_bits() ^ 1));
            assert!(check(fingerprint(&far, margin), &o, Some(fp.full), None).is_err());
            assert!(check(fingerprint(&far, margin), &o, None, Some(fp)).is_err());
        }
    }
}
