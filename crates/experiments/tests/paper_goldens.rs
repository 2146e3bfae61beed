//! Tier-1 gate on the committed stable outputs: every recipe in
//! [`RECIPES`] — the `ci` sweep (the branch-and-bound reference on the
//! tiny points), the `large-n` sweep (all six heuristics at N =
//! 250–2000), the paper's six §5 sweep grids and the two refine grids —
//! is rerun through the experiments CLI in stable form and compared
//! with its committed golden under `golden/` by
//! `snsp_sweep::diff_reports`, which holds every deterministic column
//! fixed. A change that moves one heuristic's cost at one point of one
//! figure, or one refine column at one point, fails here with the file,
//! the point and the column named.

use std::path::Path;
use std::process::Command;

use snsp_sweep::diff_reports;
use snsp_sweep::json::{parse, Json};

/// Every gated recipe: the experiments CLI arguments (always run with
/// `--stable-json`) and the golden file under `golden/` they reproduce.
const RECIPES: [(&str, &str); 10] = [
    ("sweep --grid ci --seeds 2", "sweep-ci.json"),
    ("sweep --grid large-n --seeds 3", "sweep-large-n.json"),
    ("sweep --grid fig2a --seeds 10", "sweep-fig2a.json"),
    ("sweep --grid fig2b --seeds 10", "sweep-fig2b.json"),
    ("sweep --grid fig3 --seeds 10", "sweep-fig3.json"),
    ("sweep --grid fig3n20 --seeds 10", "sweep-fig3n20.json"),
    ("sweep --grid large --seeds 10", "sweep-large.json"),
    ("sweep --grid lowfreq --seeds 10", "sweep-lowfreq.json"),
    ("refine --grid ci --seeds 5", "refine-ci.json"),
    ("refine --grid large-n --seeds 3", "refine-large-n.json"),
];

/// The commands that regenerate every golden, run from the repository
/// root: one line per recipe.
fn regenerate() -> String {
    RECIPES
        .iter()
        .map(|(args, file)| {
            format!(
                "  cargo run -q --release -p snsp-experiments -- {args} --stable-json \
                 --out /tmp/snsp-goldens --json golden/{file}\n"
            )
        })
        .collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Names what a `results[i]…` path of a sweep or refine document points
/// at: "point 120, Object-Grouping" or "point het N=30 α=0.9".
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
fn stable_recipes_match_their_goldens() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden");
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper_goldens");
    std::fs::create_dir_all(&tmp).expect("the temp dir is writable");
    let mut failures = Vec::new();
    for (args, file) in RECIPES {
        let fresh = tmp.join(file);
        let run = Command::new(env!("CARGO_BIN_EXE_snsp-experiments"))
            .args(args.split_whitespace())
            .arg("--stable-json")
            .arg("--out")
            .arg(&tmp)
            .arg("--json")
            .arg(&fresh)
            .output()
            .expect("the experiments CLI starts");
        assert!(
            run.status.success(),
            "{args} failed:\n{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let expected = read(&golden.join(file));
        let report = diff_reports(&expected, &read(&fresh))
            .unwrap_or_else(|e| panic!("golden/{file}: {}", e.join("; ")));
        if !report.clean() {
            let doc = parse(&expected).expect("the golden parses");
            let named: String = report
                .regressions
                .iter()
                .filter_map(|e| Some(format!("  {} is {}\n", e.path, what(&doc, &e.path)?)))
                .collect();
            failures.push(format!(
                "golden/{file} ({args}): {}{named}",
                report.render_table()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\nafter a deliberate behaviour change, regenerate the goldens with:\n{}",
        failures.join("\n"),
        regenerate()
    );
}
