//! Integration checks on the VHDL backend across the whole algorithm
//! library: structural validity, port/register bookkeeping, testbench
//! consistency and pipeline-balancing invariants.

use isl_hls::algorithms::all;
use isl_hls::prelude::*;
use isl_hls::vhdl::{
    check, generate_cone, generate_testbench, generate_wrapper, validate_wrapper, VhdlOptions,
};

#[test]
fn generated_vhdl_is_structurally_valid_across_the_library() {
    for algo in all() {
        let session = IslSession::from_algorithm(&algo).unwrap();
        for (side, depth) in [(1u32, 1u32), (2, 1), (3, 2), (2, 3)] {
            let depth = depth.min(session.iterations());
            let cone = session.cone(Window::square(side), depth).unwrap();
            let module = generate_cone(&cone, &VhdlOptions::default());
            let s = check::validate(&module.code).unwrap_or_else(|e| {
                panic!("{} w{side} d{depth}: {e}\n{}", algo.name, module.code)
            });
            assert_eq!(s.entity, module.entity_name, "{}", algo.name);
            assert_eq!(module.signal_count, cone.registers(), "{}", algo.name);
        }
    }
}

#[test]
fn port_counts_match_cone_interface() {
    for algo in all() {
        let session = IslSession::from_algorithm(&algo).unwrap();
        let depth = session.iterations().min(2);
        let cone = session.cone(Window::square(2), depth).unwrap();
        let module = generate_cone(&cone, &VhdlOptions::default());
        let data_in = module
            .ports
            .iter()
            .filter(|p| {
                !p.is_control && p.direction == isl_hls::vhdl::PortDirection::In
            })
            .count();
        let data_out = module
            .ports
            .iter()
            .filter(|p| {
                !p.is_control && p.direction == isl_hls::vhdl::PortDirection::Out
            })
            .count();
        let params = session.pattern().params().len();
        assert_eq!(
            data_in,
            cone.inputs().len() + cone.static_inputs().len() + params,
            "{}: data inputs",
            algo.name
        );
        assert_eq!(data_out, cone.outputs().len(), "{}: data outputs", algo.name);
    }
}

#[test]
fn testbenches_assert_every_output() {
    for algo in all() {
        let session = IslSession::from_algorithm(&algo).unwrap();
        let depth = session.iterations().min(2);
        let cone = session.cone(Window::square(2), depth).unwrap();
        let module = generate_cone(&cone, &VhdlOptions::default());
        let tb = generate_testbench(&cone, &module, FixedFormat::default());
        assert_eq!(
            tb.matches("assert abs(").count(),
            cone.outputs().len(),
            "{}",
            algo.name
        );
        assert!(tb.contains(&format!("dut : entity work.{}", module.entity_name)));
    }
}

#[test]
fn tile_wrappers_validate_across_the_library() {
    for algo in all() {
        let session = IslSession::from_algorithm(&algo).unwrap();
        let depth = session.iterations().min(2);
        let cone = session.cone(Window::square(2), depth).unwrap();
        let module = generate_cone(&cone, &VhdlOptions::default());
        let wrapper = generate_wrapper(&cone, &module);
        validate_wrapper(&wrapper, &module)
            .unwrap_or_else(|e| panic!("{}: {e}\n{}", algo.name, wrapper.code));
        assert_eq!(
            wrapper.window_elements,
            cone.inputs().len() + cone.static_inputs().len(),
            "{}",
            algo.name
        );
    }
}

#[test]
fn pipeline_depth_equals_valid_chain_length() {
    let session = IslSession::from_algorithm(&isl_hls::algorithms::chambolle()).unwrap();
    let cone = session.cone(Window::square(2), 2).unwrap();
    let module = generate_cone(&cone, &VhdlOptions::default());
    assert!(module
        .code
        .contains(&format!("signal valid_sr : std_logic_vector(1 to {});", module.pipeline_stages)));
    assert!(module
        .code
        .contains(&format!("out_valid <= valid_sr({});", module.pipeline_stages)));
}

#[test]
fn delay_registers_only_when_paths_are_unbalanced() {
    // A pure chain (single tap scaled) needs no balancing delays.
    let src = r#"
void chainy(const float in[N], float out[N]) {
    for (int i = 0; i < N; i++)
        out[i] = ((in[i] * 0.5f) * 0.5f) * 0.5f;
}
"#;
    let session = IslSession::from_source(src).unwrap();
    let cone = session.cone(Window::line(1), 1).unwrap();
    let module = generate_cone(&cone, &VhdlOptions::default());
    assert_eq!(module.delay_registers, 0, "{}", module.code);
    check::validate(&module.code).unwrap();
}

#[test]
fn fixed_package_matches_format_width() {
    for fmt in [FixedFormat::new(12, 6), FixedFormat::new(24, 12)] {
        let pkg = isl_hls::vhdl::fixed_package(fmt);
        assert!(pkg.contains(&format!("DATA_WIDTH : integer := {}", fmt.width)));
        assert!(pkg.contains(&format!("DATA_FRAC  : integer := {}", fmt.frac)));
        check::validate_package(&pkg).unwrap();
    }
}
