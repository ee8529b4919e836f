//! # isl-bench — experiment harness for every table and figure of the paper
//!
//! Each experiment of the DAC 2013 evaluation has a regeneration function
//! here and a binary under `src/bin` that prints the paper's value next to
//! the measured one (see `EXPERIMENTS.md` at the repository root for the
//! index and the recorded results). The one bench under `benches/`,
//! `sim_engine`, times the simulation engines and writes `BENCH_sim.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use isl_hls::algorithms::Algorithm;
use isl_hls::prelude::*;

/// One point of the Figure 5 / Figure 8 experiments.
#[derive(Debug, Clone)]
pub struct AreaRow {
    /// Cone depth (one curve per depth in the figures).
    pub depth: u32,
    /// Output window area, elements (the x axis).
    pub window_area: u64,
    /// Registers of the cone.
    pub registers: u64,
    /// Synthesised ("actual") kLUTs.
    pub actual_kluts: f64,
    /// Estimated kLUTs (Eq. 1).
    pub estimated_kluts: f64,
    /// Relative error, percent.
    pub error_pct: f64,
    /// Whether the point fed the α calibration.
    pub calibration: bool,
}

/// Result of an area-model validation experiment.
#[derive(Debug, Clone)]
pub struct AreaExperiment {
    /// All grid points.
    pub rows: Vec<AreaRow>,
    /// Max |error| over non-calibration points, percent.
    pub max_error_pct: f64,
    /// Mean |error| over non-calibration points, percent.
    pub avg_error_pct: f64,
    /// Modeled CPU cost of synthesising the whole grid, seconds.
    pub full_synthesis_cpu_s: f64,
    /// Modeled CPU cost of the calibration syntheses only, seconds.
    pub calibration_cpu_s: f64,
}

/// Run the Figure 5 / Figure 8 area-model validation for one algorithm.
///
/// # Errors
///
/// Propagates flow errors (which do not occur for the built-in algorithms).
pub fn area_validation(
    algo: &Algorithm,
    device: &Device,
    sides: &[u32],
    depths: &[u32],
) -> Result<AreaExperiment, FlowError> {
    let session = IslSession::from_algorithm(algo)?;
    let windows: Vec<Window> = sides.iter().map(|&s| Window::square(s)).collect();
    let v = session.validate_area_model(device, &windows, depths, 2)?;
    Ok(AreaExperiment {
        rows: v
            .rows
            .iter()
            .map(|r| AreaRow {
                depth: r.depth,
                window_area: r.window.area(),
                registers: r.registers,
                actual_kluts: r.actual_luts as f64 / 1e3,
                estimated_kluts: r.estimated_luts / 1e3,
                error_pct: r.error_pct,
                calibration: r.calibration,
            })
            .collect(),
        max_error_pct: v.max_error_pct,
        avg_error_pct: v.avg_error_pct,
        full_synthesis_cpu_s: v.full_synthesis_cpu_s,
        calibration_cpu_s: v.calibration_cpu_s,
    })
}

/// One point of the Figure 7 / Figure 10 experiments.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Output window area (x axis).
    pub window_area: u64,
    /// Cone depth (one curve per depth).
    pub depth: u32,
    /// Frames per second with the device packed full.
    pub fps: f64,
    /// Cores that fit.
    pub cores: u32,
    /// Whether the architecture was feasible at all.
    pub feasible: bool,
}

/// Run the Figure 7 / Figure 10 device-constrained throughput sweep.
///
/// # Errors
///
/// Propagates flow errors (infeasible points are reported per-row instead).
pub fn throughput_sweep(
    algo: &Algorithm,
    device: &Device,
    frame: (u32, u32),
    sides: &[u32],
    depths: &[u32],
) -> Result<Vec<ThroughputRow>, FlowError> {
    let session = IslSession::from_algorithm(algo)?;
    let workload = session.workload(frame.0, frame.1);
    let mut rows = Vec::new();
    for &side in sides {
        for &depth in depths {
            if depth > session.iterations() {
                continue;
            }
            match session.best_on_device(device, Window::square(side), depth, workload) {
                Ok(r) => rows.push(ThroughputRow {
                    window_area: u64::from(side) * u64::from(side),
                    depth,
                    fps: r.fps,
                    cores: r.arch.cores,
                    feasible: true,
                }),
                Err(_) => rows.push(ThroughputRow {
                    window_area: u64::from(side) * u64::from(side),
                    depth,
                    fps: 0.0,
                    cores: 0,
                    feasible: false,
                }),
            }
        }
    }
    Ok(rows)
}

/// Best feasible fps over a window sweep at fixed depth — the headline
/// number for the state-of-the-art comparisons.
///
/// # Errors
///
/// Propagates flow errors.
pub fn best_fps(
    algo: &Algorithm,
    device: &Device,
    frame: (u32, u32),
    sides: &[u32],
    depths: &[u32],
) -> Result<(f64, Architecture), FlowError> {
    let rows = throughput_sweep(algo, device, frame, sides, depths)?;
    let best = rows
        .iter()
        .filter(|r| r.feasible)
        .max_by(|a, b| a.fps.partial_cmp(&b.fps).expect("fps is finite"));
    match best {
        Some(r) => Ok((
            r.fps,
            Architecture::new(
                Window::square((r.window_area as f64).sqrt() as u32),
                r.depth,
                r.cores,
            ),
        )),
        None => Err(FlowError::Estimation("no feasible architecture".into())),
    }
}

/// Write a CSV artifact next to the printed table so results can be
/// plotted directly (lands under `target/experiments/`).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_csv(
    name: &str,
    header: &[&str],
    rows: impl IntoIterator<Item = Vec<String>>,
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Pretty separator line for the binaries.
pub fn rule(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Format a paper-vs-measured comparison line.
pub fn compare(label: &str, paper: f64, measured: f64, unit: &str) {
    let ratio = if paper != 0.0 { measured / paper } else { f64::NAN };
    println!("  {label:<44} paper {paper:>8.2} {unit} | measured {measured:>8.2} {unit} (x{ratio:.2})");
}

#[cfg(test)]
mod tests {
    use super::*;
    use isl_hls::algorithms::gaussian_igf;

    #[test]
    fn area_validation_smoke() {
        let dev = Device::virtex6_xc6vlx760();
        let e = area_validation(&gaussian_igf(), &dev, &[1, 2, 3, 4], &[1, 2]).unwrap();
        assert_eq!(e.rows.len(), 8);
        assert!(e.max_error_pct < 15.0);
        assert!(e.calibration_cpu_s < e.full_synthesis_cpu_s);
    }

    #[test]
    fn throughput_sweep_smoke() {
        let dev = Device::virtex6_xc6vlx760();
        let rows =
            throughput_sweep(&gaussian_igf(), &dev, (256, 192), &[2, 4], &[1, 2]).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.feasible));
    }

    #[test]
    fn best_fps_finds_a_point() {
        let dev = Device::virtex6_xc6vlx760();
        let (fps, arch) = best_fps(&gaussian_igf(), &dev, (256, 192), &[3, 4], &[1, 2]).unwrap();
        assert!(fps > 0.0);
        assert!(arch.cores >= 1);
    }
}
