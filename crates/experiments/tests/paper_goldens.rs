//! Tier-1 gate on the paper's own figures: every §5 sweep grid is rerun
//! through the experiments CLI in stable form and compared with its
//! committed golden, `golden/sweep-<id>.json`, by
//! `snsp_sweep::diff_reports`, which holds every deterministic column
//! fixed. A change that moves one heuristic's cost at one point of one
//! figure fails here with the grid, the point and the heuristic named.

use std::path::Path;
use std::process::Command;

use snsp_sweep::json::{parse, Json};
use snsp_sweep::{diff_reports, DiffOptions};

/// The paper grids that have a committed golden.
const GRIDS: [&str; 6] = ["fig2a", "fig2b", "fig3", "fig3n20", "large", "lowfreq"];

/// Regenerates every golden, run from the repository root.
const REGENERATE: &str = "for g in fig2a fig2b fig3 fig3n20 large lowfreq; do \
    cargo run -q --release -p snsp-experiments -- sweep --grid $g --seeds 10 --stable-json \
    --out /tmp/snsp-goldens --json golden/sweep-$g.json; done";

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Names what a `results[i].heuristics[j]…` path of a sweep document
/// points at: "point 120, Object-Grouping".
fn what(doc: &Json, path: &str) -> Option<String> {
    let index = |key: &str| -> Option<usize> {
        let rest = path.split(&format!("{key}[")).nth(1)?;
        rest.split(']').next()?.parse().ok()
    };
    let point = doc.get("results")?.as_arr()?.get(index("results")?)?;
    let mut named = format!("point {}", point.get("label")?.as_str()?);
    let heuristics = point.get("heuristics").and_then(Json::as_arr);
    if let Some(h) = index("heuristics").and_then(|j| heuristics?.get(j)) {
        named = format!("{named}, {}", h.get("name")?.as_str()?);
    }
    Some(named)
}

#[test]
fn paper_grids_match_their_goldens() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden");
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper_goldens");
    std::fs::create_dir_all(&tmp).expect("the temp dir is writable");
    let mut failures = Vec::new();
    for grid in GRIDS {
        let fresh = tmp.join(format!("sweep-{grid}.json"));
        let run = Command::new(env!("CARGO_BIN_EXE_snsp-experiments"))
            .args(["sweep", "--grid", grid, "--seeds", "10", "--stable-json"])
            .arg("--out")
            .arg(&tmp)
            .arg("--json")
            .arg(&fresh)
            .output()
            .expect("the experiments CLI starts");
        assert!(
            run.status.success(),
            "sweep --grid {grid} failed:\n{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let expected = read(&golden.join(format!("sweep-{grid}.json")));
        let report = diff_reports(&expected, &read(&fresh), DiffOptions::default())
            .unwrap_or_else(|e| panic!("grid {grid}: {}", e.join("; ")));
        if !report.clean() {
            let doc = parse(&expected).expect("the golden parses");
            let named: String = report
                .regressions
                .iter()
                .filter_map(|e| Some(format!("  {} is {}\n", e.path, what(&doc, &e.path)?)))
                .collect();
            failures.push(format!("grid {grid}: {}{named}", report.render_table()));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\nafter a deliberate behaviour change, regenerate the goldens with:\n  {REGENERATE}",
        failures.join("\n")
    );
}
