//! Qualitative-shape regression tests: the paper's headline claims,
//! encoded as assertions over scaled-down harness runs so CI catches
//! regressions that would invalidate the reproduction.
//!
//! Scales are small (seconds per test); the assertions are therefore
//! deliberately weak inequalities with slack — the full-scale numbers
//! come from the `fig*` binaries (`docs/ARCHITECTURE.md` § "What
//! guards what", rows "VP analyzer + routing" and "Queries").

use vp_bench::harness::{run_paper_contenders, IndexKind, RunConfig};
use vp_workload::{Dataset, WorkloadConfig};

fn cfg(dataset: Dataset) -> RunConfig {
    RunConfig {
        dataset,
        workload: WorkloadConfig {
            n_objects: 4_000,
            n_queries: 40,
            duration: 120.0,
            ..WorkloadConfig::default()
        },
        bx_hist_cells: 250,
        ..RunConfig::default()
    }
}

fn query_io(results: &[vp_bench::RunResult], kind: IndexKind) -> f64 {
    results
        .iter()
        .find(|r| r.kind == kind)
        .expect("kind present")
        .metrics
        .avg_query_io()
}

#[test]
fn vp_improves_queries_on_skewed_networks() {
    // Paper Figure 19: on road networks, VP cuts query I/O for both
    // index structures.
    let results = run_paper_contenders(&cfg(Dataset::Chicago)).unwrap();
    let bx = query_io(&results, IndexKind::Bx);
    let bx_vp = query_io(&results, IndexKind::BxVp);
    let tpr = query_io(&results, IndexKind::TprStar);
    let tpr_vp = query_io(&results, IndexKind::TprStarVp);
    assert!(
        bx_vp * 1.3 < bx,
        "Bx(VP) should clearly beat Bx on CH: {bx_vp:.1} vs {bx:.1}"
    );
    assert!(
        tpr_vp * 1.2 < tpr,
        "TPR*(VP) should clearly beat TPR* on CH: {tpr_vp:.1} vs {tpr:.1}"
    );
}

#[test]
fn vp_gains_nothing_on_uniform_data() {
    // Paper Figure 19: with no dominant axes there is nothing to
    // exploit; VP must not be dramatically better (and may be worse).
    let results = run_paper_contenders(&cfg(Dataset::Uniform)).unwrap();
    let tpr = query_io(&results, IndexKind::TprStar);
    let tpr_vp = query_io(&results, IndexKind::TprStarVp);
    assert!(
        tpr_vp > tpr * 0.8,
        "uniform data should not show real VP gains: {tpr_vp:.1} vs {tpr:.1}"
    );
}

#[test]
fn gains_track_direction_skew() {
    // Paper Figure 19: the more skewed the network (CH most, NY
    // least), the larger the VP improvement.
    let ch = run_paper_contenders(&cfg(Dataset::Chicago)).unwrap();
    let ny = run_paper_contenders(&cfg(Dataset::NewYork)).unwrap();
    let gain = |rs: &[vp_bench::RunResult]| {
        query_io(rs, IndexKind::TprStar) / query_io(rs, IndexKind::TprStarVp).max(0.1)
    };
    let (g_ch, g_ny) = (gain(&ch), gain(&ny));
    assert!(
        g_ch > g_ny * 0.9,
        "CH gain ({g_ch:.2}x) should not trail NY gain ({g_ny:.2}x)"
    );
}

#[test]
fn vp_advantage_grows_with_speed() {
    // Paper Figure 21 / the Section 4 analysis: higher max speed makes
    // the quadratic unpartitioned expansion hurt more.
    let slow = {
        let mut c = cfg(Dataset::Chicago);
        c.workload.max_speed = 20.0;
        run_paper_contenders(&c).unwrap()
    };
    let fast = {
        let mut c = cfg(Dataset::Chicago);
        c.workload.max_speed = 150.0;
        run_paper_contenders(&c).unwrap()
    };
    let gain = |rs: &[vp_bench::RunResult]| {
        query_io(rs, IndexKind::Bx) / query_io(rs, IndexKind::BxVp).max(0.1)
    };
    assert!(
        gain(&fast) > gain(&slow) * 0.9,
        "Bx VP gain should not shrink with speed: fast {:.2}x vs slow {:.2}x",
        gain(&fast),
        gain(&slow)
    );
}
