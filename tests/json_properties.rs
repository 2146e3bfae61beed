//! Property tests for the hand-rolled JSON layer: the writer→parser
//! round-trip over generated documents, and byte-level mutations of
//! every committed artifact, which `parse`, the table validator and
//! `report diff` must answer with `Ok` or `Err` — never a panic.

use proptest::prelude::*;
use snsp::sweep::json::{parse, Json};
use snsp::sweep::{diff_reports, validate, ArtifactKind, DiffOptions};

const ARTIFACTS: [&str; 5] = [
    "BENCH_serve.json",
    "BENCH_chaos.json",
    "BENCH_perf.json",
    "BENCH_refine.json",
    "TELEMETRY.json",
];

fn committed(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Characters that stress the string escaper: quotes, backslashes,
/// control bytes, multi-byte UTF-8.
const PALETTE: [char; 12] = [
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\u{1}', 'é', 'α', '🦀',
];

/// Draws one document from a flat list of codes (the vendored proptest
/// has no recursive strategies): each code picks the next node, and a
/// container takes the following nodes as its children.
fn document(codes: &[u64], next: &mut usize, depth: usize) -> Json {
    let code = codes.get(*next).copied().unwrap_or(0);
    *next += 1;
    let small = (code >> 8) as usize % 5;
    let text = |code: u64| -> String {
        let chars = (code >> 16) as usize % 6;
        (0..chars)
            .map(|i| PALETTE[(code >> (20 + 4 * i)) as usize % PALETTE.len()])
            .collect()
    };
    match code % 7 {
        0 => Json::Null,
        1 => Json::Bool(code & 0x10 != 0),
        2 => Json::Int((code >> 3) as i64),
        3 => {
            // Finite floats across magnitudes, whole and fractional.
            let mantissa = (code >> 12) as f64 / 4096.0 - (code >> 40) as f64;
            let exponent = ((code >> 4) % 600) as i32 - 300;
            let n = mantissa * 10f64.powi(exponent);
            Json::Num(if n.is_finite() { n } else { mantissa })
        }
        4 => Json::Str(text(code)),
        5 if depth < 6 => Json::Arr(
            (0..small)
                .map(|_| document(codes, next, depth + 1))
                .collect(),
        ),
        6 if depth < 6 => {
            let mut pairs: Vec<(String, Json)> = Vec::new();
            for i in 0..small {
                let key = format!("{}{i}", text(code >> i));
                let value = document(codes, next, depth + 1);
                pairs.push((key, value));
            }
            Json::Obj(pairs)
        }
        _ => Json::Str(String::new()),
    }
}

/// Applies one byte-level edit, decoded from `code`: flip a bit, insert
/// a byte, delete a byte, or truncate.
fn mutate(bytes: &mut Vec<u8>, code: u64) {
    if bytes.is_empty() {
        return;
    }
    let at = (code >> 8) as usize % bytes.len();
    let byte = (code >> 40) as u8;
    match code % 4 {
        0 => bytes[at] ^= 1 << (byte % 8),
        1 => bytes.insert(at, byte),
        2 => {
            bytes.remove(at);
        }
        _ => bytes.truncate(at),
    }
}

/// Every entry point the CLI exposes to a document; only panics fail.
fn exercise(text: &str, baseline: &str) {
    let _ = parse(text);
    let _ = validate(text);
    for kind in ArtifactKind::ALL {
        let _ = kind.validate(text);
    }
    let _ = diff_reports(baseline, text, DiffOptions::default());
    let tight = DiffOptions {
        timing_tolerance: Some(0.1),
    };
    let _ = diff_reports(text, baseline, tight);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Whatever the writer renders, the parser reads back as the same
    /// tree.
    #[test]
    fn writer_output_parses_back_to_the_same_tree(codes in collection::vec(0u64..u64::MAX, 1..80)) {
        let doc = document(&codes, &mut 0, 0);
        let text = doc.render();
        prop_assert_eq!(parse(&text), Ok(doc));
    }

    /// Mutated artifacts are answered with `Ok` or `Err`, never a panic.
    #[test]
    fn mutated_artifacts_never_panic(
        which in 0usize..ARTIFACTS.len(),
        edits in collection::vec(0u64..u64::MAX, 1..4),
    ) {
        let original = committed(ARTIFACTS[which]);
        let mut bytes = original.clone().into_bytes();
        for &code in &edits {
            mutate(&mut bytes, code);
        }
        exercise(&String::from_utf8_lossy(&bytes), &original);
    }

    /// Arbitrary JSON-alphabet byte soup never panics either.
    #[test]
    fn arbitrary_bytes_never_panic(soup in collection::vec(0usize..14, 0..300)) {
        let alphabet = b"{}[]\",:-.e1n\\ ";
        let text: String = soup.iter().map(|&i| alphabet[i] as char).collect();
        exercise(&text, &committed(ARTIFACTS[0]));
    }
}

#[test]
fn committed_artifacts_validate_against_their_tables() {
    for name in ARTIFACTS {
        let kind = validate(&committed(name)).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert!(
            name.to_lowercase().contains(kind.name()),
            "{name} sniffed as {kind:?}"
        );
    }
}
