//! LSB-schedule fault campaigns (`CoSimulator::fault_campaign`) on a
//! decomposition small enough to sweep many times per run.

use std::time::Instant;

use isl_hls::cosim::{CoSimulator, FaultCoverageReport, MaskSchedule};
use isl_hls::prelude::*;

use crate::util::{noise_frames, secs, Rng};

pub const SIDE: usize = 8;
/// Seeded frames per run. How many faults a sweep detects (and so how long
/// its triage takes) depends on the stimuli; the rate is taken over all of
/// them so one draw does not set it.
pub const CONTENTS: usize = 4;
pub const WINDOW: u32 = 2;
pub const DEPTH: u32 = 1;
pub const ITERATIONS: u32 = 1;

/// The counts of one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub instructions: usize,
    pub faults: usize,
    pub detected: usize,
    pub masked: usize,
    pub silent: usize,
    pub predicted_silent: usize,
    pub triaged: usize,
}

impl Counts {
    pub fn of(r: &FaultCoverageReport) -> Self {
        Counts {
            instructions: r.instructions,
            faults: r.faults,
            detected: r.detected,
            masked: r.masked,
            silent: r.silent,
            predicted_silent: r.predicted_silent,
            triaged: r.triaged,
        }
    }
}

pub fn inputs(fields: usize, seed: u64) -> Vec<FrameSet> {
    let mut rng = Rng::stream(seed, "campaign-frames");
    (0..CONTENTS)
        .map(|_| noise_frames(&mut rng, fields, SIDE, SIDE))
        .collect()
}

/// One timed sweep; returns (ms, counts).
pub fn run(session: &IslSession, init: &FrameSet) -> Result<(f64, Counts), String> {
    let t0 = Instant::now();
    let cosim = CoSimulator::new(session.pattern(), session.synth_options().format)
        .map_err(|e| e.to_string())?
        .with_border(session.border());
    let report = cosim
        .fault_campaign(
            init,
            ITERATIONS,
            Window::square(WINDOW),
            DEPTH,
            &MaskSchedule::lsb(),
        )
        .map_err(|e| e.to_string())?;
    Ok((secs(t0) * 1e3, Counts::of(&report)))
}

/// Checked-in counts: `faults`/`instructions` hold for every seed (they
/// depend only on the cone programs); the rest hold for the default seed,
/// one entry per seeded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignExpected {
    pub instructions: usize,
    pub faults: usize,
    pub default_seed: [Counts; CONTENTS],
}

/// Check the counts of one sweep of frame `k`; `first` is the run's first
/// sweep of the same frame.
pub fn check(
    c: &Counts,
    expected: &CampaignExpected,
    k: usize,
    models: usize,
    default_seed: bool,
    first: Option<&Counts>,
) -> Result<(), String> {
    if c.instructions != expected.instructions || c.faults != expected.faults {
        return Err(format!(
            "{} instructions / {} faults, expected {} / {}",
            c.instructions, c.faults, expected.instructions, expected.faults
        ));
    }
    if c.faults != c.instructions * models {
        return Err(format!(
            "{} faults for {} instructions x {models} models",
            c.faults, c.instructions
        ));
    }
    if c.detected + c.masked + c.silent != c.faults {
        return Err(format!("outcomes {c:?} do not partition the faults"));
    }
    if c.predicted_silent > c.silent || c.triaged > c.detected {
        return Err(format!(
            "predicted/triaged counts exceed their superset: {c:?}"
        ));
    }
    if default_seed && *c != expected.default_seed[k] {
        return Err(format!(
            "frame {k}: counts {c:?}, expected {:?}",
            expected.default_seed[k]
        ));
    }
    if let Some(f) = first {
        if c != f {
            return Err(format!(
                "counts {c:?} differ from the run's first sweep {f:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_each_corruption() {
        let good = Counts {
            instructions: 10,
            faults: 40,
            detected: 20,
            masked: 15,
            silent: 5,
            predicted_silent: 2,
            triaged: 20,
        };
        let e = CampaignExpected {
            instructions: 10,
            faults: 40,
            default_seed: [good; CONTENTS],
        };
        assert!(check(&good, &e, 1, 4, true, Some(&good)).is_ok());
        let corrupt: [fn(&mut Counts); 6] = [
            |c| c.faults += 1,
            |c| c.detected += 1,
            |c| c.predicted_silent = 6,
            |c| c.triaged = 21,
            |c| {
                c.detected -= 1;
                c.triaged -= 1;
                c.masked += 1;
            },
            |c| c.instructions += 1,
        ];
        for (i, f) in corrupt.iter().enumerate() {
            let mut bad = good;
            f(&mut bad);
            assert!(
                check(&bad, &e, 1, 4, true, None).is_err(),
                "corruption {i} accepted"
            );
        }
        // Another seed may classify differently, but not differ between
        // sweeps of one run.
        let mut other = good;
        other.detected -= 1;
        other.triaged -= 1;
        other.masked += 1;
        assert!(check(&other, &e, 1, 4, false, None).is_ok());
        assert!(check(&other, &e, 1, 4, false, Some(&good)).is_err());
    }
}
