//! The report schemas: one declarative field table per [`ArtifactKind`],
//! read by the validator, by [`diff`](crate::diff) and by the writers.
//!
//! A table has one row per path, with `[]` standing for every array item
//! (`results[].admit_latency.p99_us`). A row gives the value's type and
//! constraint, whether it may be `null` (stable-form columns) or absent
//! (the `timing` block), and its class: deterministic, wall-clock or
//! identity metadata. The walker rejects every key the table does not
//! declare, so the table is the complete description of the artifact.
//! Invariants that span rows live in one small hook per kind. Every
//! writer takes its header from [`ArtifactKind::header`]; the campaign
//! writers (sweep, serve, refine, chaos) fill the whole
//! [`ArtifactKind::document`] skeleton around it.
//!
//! ```
//! use snsp_sweep::{validate, ArtifactKind, Json};
//!
//! let mut doc = ArtifactKind::Trace.header();
//! doc.push(("campaign", Json::Str("demo".into())));
//! doc.push(("dropped", Json::Int(0)));
//! doc.push(("det_events", Json::Arr(vec![])));
//! assert_eq!(validate(&Json::obj(doc).render()), Ok(ArtifactKind::Trace));
//! ```

use crate::json::{parse, Json};
use ArtifactKind::*;

/// One kind of report artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// `BENCH_sweep.json`: heuristic grid results (kindless, schema v1).
    Sweep,
    /// `BENCH_serve.json`: online-serving service metrics (v3).
    Serve,
    /// `BENCH_refine.json`: local-search refinement campaigns (v4).
    Refine,
    /// `TELEMETRY.json`: deterministic metrics plus wall-clock overlay (v5).
    Telemetry,
    /// `BENCH_chaos.json`: fault-injection campaigns (v6).
    Chaos,
    /// `TRACE.json`: the deterministic causal event stream (v7).
    Trace,
}

/// How `report diff` treats a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Deterministic: any change is a regression.
    Det,
    /// Wall-clock or RSS: informational; null-vs-value is the stable form.
    Timing,
    /// Identity metadata (tool version, worker count): informational.
    Meta,
}

/// The type and constraint of one value ([`Ty::fails`] spells each out).
/// `Obj` marks an object described by the rows below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Obj,
    Str,
    NonEmpty,
    Bool,
    True,
    Int,
    Nat,
    PosInt,
    Zero,
    Num,
    NonNeg,
    Pos,
    Frac,
    Pct,
    Pair,
    Version,
    Generator,
}

use Ty::*;

/// One row of a kind's table.
#[derive(Debug, Clone, Copy)]
struct Field {
    path: &'static str,
    ty: Ty,
    class: Class,
    null: bool,
    opt: bool,
}

const fn det(path: &'static str, ty: Ty) -> Field {
    Field {
        path,
        ty,
        class: Class::Det,
        null: false,
        opt: false,
    }
}

const fn timing(path: &'static str, ty: Ty) -> Field {
    Field {
        class: Class::Timing,
        ..det(path, ty)
    }
}

const fn meta(path: &'static str, ty: Ty) -> Field {
    Field {
        class: Class::Meta,
        ..det(path, ty)
    }
}

impl Field {
    /// The value may be `null`.
    const fn null(self) -> Self {
        Field { null: true, ..self }
    }

    /// The key may be absent.
    const fn opt(self) -> Self {
        Field { opt: true, ..self }
    }
}

const HEADER: &[Field] = &[
    meta("schema_version", Version),
    meta("generator", Generator),
    // Checked, with a message naming both kinds, by `check_kind`.
    det("kind", Str).opt(),
    det("campaign", NonEmpty),
];

/// The campaign kinds' wall-clock block, absent in the stable form.
const TIMING: &[Field] = &[
    timing("timing", Obj).opt(),
    meta("timing.workers", PosInt),
    det("timing.jobs", Nat),
    timing("timing.flatten_s", NonNeg),
    timing("timing.run_s", NonNeg),
    timing("timing.aggregate_s", NonNeg),
    timing("timing.total_s", NonNeg),
];

const SWEEP: &[Field] = &[
    det("config.seeds", PosInt),
    det("config.heuristics[]", Str),
    det("config.reference", Obj).null(),
    det("config.reference.max_ops", Nat),
    det("config.reference.node_budget", Nat),
    det("config.points[].label", Str),
    det("config.points[].n_ops", PosInt),
    det("config.points[].alpha", Num),
    det("config.points[].kappa", Num),
    det("config.points[].n_types", PosInt),
    det("config.points[].sizes_mb", Pair),
    det("config.points[].freq_hz", Num),
    det("config.points[].servers", PosInt),
    det("config.points[].replicas", Pair),
    det("config.points[].rho", Num),
    det("config.points[].shape", Str),
    det("results[].label", Str),
    det("results[].n_ops", PosInt),
    det("results[].alpha", Num),
    det("results[].heuristics[].name", Str),
    det("results[].heuristics[].runs", Nat),
    det("results[].heuristics[].feasible", Nat),
    det("results[].heuristics[].feasibility_pct", Pct),
    det("results[].heuristics[].mean_cost", Num).null(),
    det("results[].heuristics[].mean_procs", Num).null(),
    det("results[].reference", Obj).null(),
    det("results[].reference.runs", Nat),
    det("results[].reference.solved", Nat),
    det("results[].reference.mean_cost", Num).null(),
    det("results[].reference.optimal", Bool),
];

/// The serve and chaos artifacts share the point echo, the leading and
/// trailing result columns, and the timing block.
const SERVE_COMMON: &[Field] = &[
    det("config.seeds", PosInt),
    det("config.slo_frac", Frac),
    det("config.shards", PosInt),
    det("config.points[].label", Str),
    det("config.points[].lambda", Pos),
    det("config.points[].mean_hold", Pos),
    det("config.points[].pareto_shape", Pos),
    det("config.points[].horizon", Pos),
    det("config.points[].fail_rate", NonNeg),
    det("config.points[].n_ops", Pair),
    det("config.points[].alpha", Pair),
    det("config.points[].rho", Pair),
    det("config.points[].burst", Obj).null(),
    det("config.points[].burst.period", Num),
    det("config.points[].burst.width", Num),
    det("config.points[].burst.multiplier", Num),
    det("results[].label", Str),
    det("results[].traces", Nat),
    det("results[].arrivals", Nat),
    det("results[].admitted", Nat),
    det("results[].rejected", Nat),
    det("results[].departed", Nat),
    det("results[].evicted", Nat),
    det("results[].failures", Nat),
    det("results[].admission_rate", Frac),
    det("results[].mean_final_cost", NonNeg),
    det("results[].log_hash", NonEmpty),
    meta("timing.replay_workers", PosInt),
];

const SERVE: &[Field] = &[
    det("results[].mean_cost_integral", NonNeg),
    det("results[].mean_utilization", NonNeg),
    det("results[].peak_procs", Nat),
    det("results[].slo_checks", Nat),
    det("results[].slo_violations", Nat),
    timing("results[].admit_latency", Obj).null(),
    det("results[].admit_latency.samples", PosInt),
    timing("results[].admit_latency.p50_us", NonNeg),
    timing("results[].admit_latency.p99_us", NonNeg),
    timing("results[].admit_latency.max_us", NonNeg),
];

const CHAOS: &[Field] = &[
    det("config.points[].fault.seed", Int),
    det("config.points[].fault.crash_rate", NonNeg),
    det("config.points[].fault.rack_rate", NonNeg),
    det("config.points[].fault.rack_size", Nat),
    det("config.points[].fault.msg_drop", NonNeg),
    det("config.points[].fault.msg_dup", NonNeg),
    det("config.points[].fault.msg_delay", NonNeg),
    det("config.points[].fault.revoke", Obj).null(),
    det("config.points[].fault.revoke.start", Num),
    det("config.points[].fault.revoke.end", Num),
    det("config.points[].fault.revoke.frac", Num),
    det("config.points[].fault.tick_every", NonNeg),
    det("config.points[].fault.retry.base", NonNeg),
    det("config.points[].fault.retry.factor", NonNeg),
    det("config.points[].fault.retry.max_attempts", Int),
    det("config.points[].fault.degrade.pressure", Nat),
    det("config.points[].fault.degrade.max_shed", Nat),
    det("results[].faults_injected", Nat),
    det("results[].crashes", Nat),
    det("results[].recoveries", Nat),
    det("results[].rack_failures", Nat),
    det("results[].revocations", Nat),
    det("results[].msgs_dropped", Nat),
    det("results[].msgs_retransmitted", Nat),
    det("results[].msgs_duplicated", Nat),
    det("results[].dups_discarded", Nat),
    det("results[].msgs_delayed", Nat),
    det("results[].retry_enqueued", Nat),
    det("results[].readmitted", Nat),
    det("results[].retry_dropped", Nat),
    det("results[].shed", Nat),
    det("results[].readmission_rate", Frac),
    det("results[].crash_fingerprint_match", Bool).null(),
    det("results[].audit_failures", Zero),
];

const REFINE: &[Field] = &[
    det("config.seeds", PosInt),
    det("config.driver", NonEmpty),
    det("config.max_evals", PosInt),
    det("config.top_k", PosInt),
    det("config.points[].label", Str),
    det("config.points[].n_ops", PosInt),
    det("config.points[].alpha", Num),
    det("config.points[].homogeneous", Bool),
    det("results[].label", Str),
    det("results[].runs", Nat),
    det("results[].feasible", Nat),
    det("results[].mean_start_cost", Num).null(),
    det("results[].mean_refined_cost", Num).null(),
    det("results[].improved", Nat),
    det("results[].never_worse", True),
    det("results[].mean_evals", NonNeg),
    det("results[].mean_accepted", NonNeg),
    det("results[].exact", Obj).null(),
    det("results[].exact.solved", Nat),
    det("results[].exact.optimal", Bool),
    det("results[].exact.mean_cost", Num).null(),
    det("results[].exact.max_gap_pct", Num).null(),
    det("results[].mean_lower_bound", NonNeg),
];

/// Only the wall-clock overlay may carry gauges and spans; stable
/// renderings null it.
const TELEMETRY: &[Field] = &[
    det("deterministic.counters[].name", NonEmpty),
    det("deterministic.counters[].value", Nat),
    det("deterministic.histograms[].name", NonEmpty),
    det("deterministic.histograms[].count", PosInt),
    det("deterministic.histograms[].min", Num),
    det("deterministic.histograms[].p50", Num),
    det("deterministic.histograms[].p90", Num),
    det("deterministic.histograms[].p99", Num),
    det("deterministic.histograms[].max", Num),
    timing("overlay", Obj).null(),
    timing("overlay.counters[].name", NonEmpty),
    timing("overlay.counters[].value", Nat),
    timing("overlay.histograms[].name", NonEmpty),
    timing("overlay.histograms[].count", PosInt),
    timing("overlay.histograms[].min", Num),
    timing("overlay.histograms[].p50", Num),
    timing("overlay.histograms[].p90", Num),
    timing("overlay.histograms[].p99", Num),
    timing("overlay.histograms[].max", Num),
    timing("overlay.gauges[].name", NonEmpty),
    timing("overlay.gauges[].value", Nat),
    timing("overlay.spans[].name", NonEmpty),
    timing("overlay.spans[].count", PosInt),
    timing("overlay.spans[].total_ms", NonNeg),
];

/// `dropped > 0` voids cross-worker-count byte identity.
const TRACE: &[Field] = &[
    det("dropped", Nat),
    det("det_events[].run", Nat),
    det("det_events[].tick", Nat),
    det("det_events[].shard", Nat),
    det("det_events[].seq", Nat),
    det("det_events[].event", NonEmpty),
    det("det_events[].detail", Str),
];

/// What the table says about one kind besides [`HEADER`]: its name (the
/// `kind` discriminator, except for the kindless sweep report), schema
/// version, generator tool and rows.
struct Spec(&'static str, i64, &'static str, &'static [&'static [Field]]);

/// In [`ArtifactKind::ALL`] order.
static SPECS: [Spec; 6] = [
    Spec("sweep", 1, "snsp-sweep", &[SWEEP, TIMING]),
    Spec("serve", 3, "snsp-serve", &[SERVE_COMMON, SERVE, TIMING]),
    Spec("refine", 4, "snsp-search", &[REFINE, TIMING]),
    Spec("telemetry", 5, "snsp-experiments", &[TELEMETRY]),
    Spec("chaos", 6, "snsp-serve", &[SERVE_COMMON, CHAOS, TIMING]),
    Spec("trace", 7, "snsp-sweep", &[TRACE]),
];

impl ArtifactKind {
    /// Every kind, in schema-version order.
    pub const ALL: [ArtifactKind; 6] = [Sweep, Serve, Refine, Telemetry, Chaos, Trace];

    fn spec(self) -> &'static Spec {
        &SPECS[self as usize]
    }

    /// The kind's name: its `kind` discriminator, or `"sweep"`.
    pub fn name(self) -> &'static str {
        self.spec().0
    }

    /// The `kind` discriminator; `None` for the kindless sweep report.
    fn discriminator(self) -> Option<&'static str> {
        (self != Sweep).then(|| self.name())
    }

    /// The schema version writers stamp and the validator requires.
    pub fn version(self) -> i64 {
        self.spec().1
    }

    /// The document header every writer starts with: `schema_version`,
    /// `generator` and (for kinded documents) `kind`.
    pub fn header(self) -> Vec<(&'static str, Json)> {
        let Spec(_, version, tool, _) = *self.spec();
        let tool = format!("{tool} {}", env!("CARGO_PKG_VERSION"));
        let mut pairs = vec![
            ("schema_version", Json::Int(version)),
            ("generator", Json::Str(tool)),
        ];
        if let Some(kind) = self.discriminator() {
            pairs.push(("kind", Json::Str(kind.to_string())));
        }
        pairs
    }

    /// The document skeleton every campaign writer fills: the
    /// [`header`](Self::header), `campaign`, `config` (`seeds` first,
    /// then the kind's own keys), `results` and, in the timed form only,
    /// the `timing` block.
    pub fn document(
        self,
        campaign: &str,
        seeds: u64,
        config: Vec<(&'static str, Json)>,
        results: Json,
        timing: Option<Json>,
    ) -> Json {
        let mut config_pairs = vec![("seeds", Json::Int(seeds as i64))];
        config_pairs.extend(config);
        let mut pairs = self.header();
        pairs.extend([
            ("campaign", Json::Str(campaign.to_string())),
            ("config", Json::obj(config_pairs)),
            ("results", results),
        ]);
        pairs.extend(timing.map(|t| ("timing", t)));
        Json::obj(pairs)
    }

    /// Sniffs a document's kind from its `kind` discriminator; a kindless
    /// document is a sweep report.
    pub fn of(doc: &Json) -> Result<ArtifactKind, String> {
        let Some(found) = doc.get("kind") else {
            return Ok(Sweep);
        };
        Self::ALL
            .into_iter()
            .find(|k| k.discriminator().is_some() && found.as_str() == k.discriminator())
            .ok_or_else(|| format!("unknown kind {}", found.render().trim_end()))
    }

    /// Validates a serialized document as this kind. Returns every
    /// violation found; a parse failure is a single violation.
    pub fn validate(self, text: &str) -> Result<(), Vec<String>> {
        self.check(&parse(text).map_err(|e| vec![format!("not JSON: {e}")])?)
    }

    fn check(self, doc: &Json) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        check_kind(doc, self.discriminator(), &mut errors);
        self.walk("", "", doc, &mut errors);
        let rules = match self {
            Sweep => sweep_rules,
            Serve => serve_rules,
            Refine => refine_rules,
            Telemetry => telemetry_rules,
            Chaos => chaos_rules,
            Trace => trace_rules,
        };
        rules(doc, &mut errors);
        errors.is_empty().then_some(()).ok_or(errors)
    }

    fn fields(self) -> impl Iterator<Item = &'static Field> {
        HEADER.iter().chain(self.spec().3.iter().copied().flatten())
    }

    fn row(self, pattern: &str) -> Option<&'static Field> {
        self.fields().find(|f| f.path == pattern)
    }

    /// The class of a value: that of the nearest row at or above its path
    /// pattern. A path with no row anywhere above it is deterministic.
    pub(crate) fn class_of(self, pattern: &str) -> Class {
        let mut p = pattern;
        while !p.is_empty() {
            if let Some(f) = self.row(p) {
                return f.class;
            }
            p = p
                .strip_suffix("[]")
                .unwrap_or(&p[..p.rfind('.').unwrap_or(0)]);
        }
        Class::Det
    }

    /// Checks `v`, found at concrete path `at` (`results[3].label`),
    /// against the rows under its `pattern` (`results[].label`).
    fn walk(self, pattern: &str, at: &str, v: &Json, errors: &mut Vec<String>) {
        let row = self.row(pattern);
        if let Some(f) = row.filter(|f| f.ty != Obj || *v == Json::Null) {
            if *v == Json::Null && f.null {
                return;
            }
            if let Some(what) = f.ty.fails(v, self.spec()) {
                errors.push(format!("{at} must be {what}"));
            }
            return;
        }
        let items = format!("{pattern}[]");
        if self.fields().any(|f| f.path.starts_with(&items)) {
            let Some(xs) = v.as_arr() else {
                return errors.push(format!("{at} must be an array"));
            };
            for (i, x) in xs.iter().enumerate() {
                self.walk(&items, &format!("{at}[{i}]"), x, errors);
            }
            return;
        }
        let Json::Obj(pairs) = v else {
            let at = if at.is_empty() { "the document" } else { at };
            return errors.push(format!("{at} must be an object"));
        };
        let keys = self.children(pattern);
        for &key in &keys {
            let (sub, sub_at) = (join(pattern, key), join(at, key));
            match v.get(key) {
                Some(x) => self.walk(&sub, &sub_at, x, errors),
                None if self.row(&sub).is_some_and(|f| f.opt) => {}
                None => errors.push(format!("{sub_at} key missing")),
            }
        }
        for (key, _) in pairs.iter().filter(|(k, _)| !keys.contains(&k.as_str())) {
            let (at, kind, version) = (join(at, key), self.name(), self.version());
            errors.push(format!("{at} is not part of the {kind} v{version} schema"));
        }
    }

    /// The keys the table declares for the object at `pattern`, in table
    /// order.
    fn children(self, pattern: &str) -> Vec<&'static str> {
        let prefix = join(pattern, ""); // `results[]` → `results[].`
        let mut keys = Vec::new();
        for f in self.fields() {
            let key = f
                .path
                .strip_prefix(&prefix)
                .and_then(|r| r.split(['.', '[']).next());
            if let Some(key) = key.filter(|k| !keys.contains(k)) {
                keys.push(key);
            }
        }
        keys
    }
}

/// Validates a serialized document against the table of the kind its
/// `kind` discriminator names (kindless ⇒ sweep v1), returning that kind.
pub fn validate(text: &str) -> Result<ArtifactKind, Vec<String>> {
    let doc = parse(text).map_err(|e| vec![format!("not JSON: {e}")])?;
    let kind = ArtifactKind::of(&doc).map_err(|e| vec![e])?;
    kind.check(&doc).map(|()| kind)
}

/// Joins a key onto a dotted path (the root is the empty path).
pub(crate) fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

impl Ty {
    /// What the value must be, when `v` is not that.
    fn fails(self, v: &Json, spec: &Spec) -> Option<String> {
        let num = |ok: fn(f64) -> bool| v.as_num().is_some_and(ok);
        let (ok, what) = match self {
            Obj => (matches!(v, Json::Obj(_)), "an object"),
            Str => (v.as_str().is_some(), "a string"),
            NonEmpty => (
                v.as_str().is_some_and(|s| !s.is_empty()),
                "a non-empty string",
            ),
            Bool => (v.as_bool().is_some(), "a boolean"),
            True => (v.as_bool() == Some(true), "true"),
            Int => (v.as_int().is_some(), "an integer"),
            Nat => (v.as_int().is_some_and(|i| i >= 0), "a non-negative integer"),
            PosInt => (v.as_int().is_some_and(|i| i >= 1), "a positive integer"),
            Zero => (v.as_int() == Some(0), "0"),
            Num => (num(|_| true), "a number"),
            NonNeg => (num(|x| x >= 0.0), "a non-negative number"),
            Pos => (num(|x| x > 0.0), "a positive number"),
            Frac => (num(|x| (0.0..=1.0).contains(&x)), "a number in [0, 1]"),
            Pct => (num(|x| (0.0..=100.0).contains(&x)), "a number in [0, 100]"),
            Pair => {
                let pair = v.as_arr().filter(|xs| xs.len() == 2);
                let ok = pair.is_some_and(|xs| xs.iter().all(|x| x.as_num().is_some()));
                (ok, "a pair array")
            }
            Version => {
                let ok = v.as_int() == Some(spec.1);
                return (!ok).then(|| format!("the integer {}", spec.1));
            }
            Generator => {
                let ok = v.as_str().is_some_and(|s| s.starts_with(spec.2));
                return (!ok).then(|| format!("an {} version string", spec.2));
            }
        };
        (!ok).then(|| what.to_string())
    }
}

/// Checks the `kind` discriminator against the expected kind, with an
/// error that names **both** the expected and the found kind — so a
/// cross-kind mistake reads as "wrong file", not as a pile of
/// missing-field noise. `expected = None` means the document must be
/// kindless (the schema-v1 sweep report).
fn check_kind(doc: &Json, expected: Option<&str>, errors: &mut Vec<String>) {
    let found = doc.get("kind").and_then(Json::as_str);
    match (expected, found) {
        (Some(want), Some(got)) if want == got => {}
        (Some(want), Some(got)) => errors.push(format!(
            "kind mismatch: expected \"{want}\", found \"{got}\" — \
             this is a BENCH_{got}.json-style document, not BENCH_{want}.json"
        )),
        (Some(want), None) => errors.push(format!(
            "kind must be the string \"{want}\" (missing or not a string; \
             kindless documents are schema-v1 sweep reports)"
        )),
        (None, Some(got)) => errors.push(format!(
            "kind mismatch: expected a kindless schema-v1 sweep report, \
             found kind \"{got}\" — validate it as BENCH_{got}.json instead"
        )),
        (None, None) => {}
    }
}

// ---- cross-row invariants -------------------------------------------

/// `(concrete path, value)` for every value at a table pattern such as
/// `results[].heuristics[]`.
fn each<'a>(doc: &'a Json, pattern: &str) -> Vec<(String, &'a Json)> {
    let mut found = vec![(String::new(), doc)];
    for step in pattern.split('.') {
        let key = step.trim_end_matches("[]");
        let at_key = found
            .into_iter()
            .filter_map(|(at, v)| Some((join(&at, key), v.get(key)?)));
        found = if key.len() == step.len() {
            at_key.collect()
        } else {
            let items = |(at, v): (String, &'a Json)| {
                let xs = v.as_arr().unwrap_or_default().iter().enumerate();
                xs.map(move |(i, x)| (format!("{at}[{i}]"), x))
            };
            at_key.flat_map(items).collect()
        };
    }
    found
}

fn int(v: &Json, key: &str) -> Option<i64> {
    v.get(key).and_then(Json::as_int)
}

fn len(doc: &Json, path: &str) -> Option<usize> {
    each(doc, path).pop()?.1.as_arr().map(<[Json]>::len)
}

/// Every array at `pattern` has one entry per item of the array at `per`.
fn one_per(doc: &Json, pattern: &str, per: &str, errors: &mut Vec<String>) {
    let Some(n) = len(doc, per) else { return };
    for (at, v) in each(doc, pattern) {
        if let Some(m) = v.as_arr().map(<[Json]>::len).filter(|&m| m != n) {
            errors.push(format!("{at} has {m} entries but {per} has {n}"));
        }
    }
}

/// `row.a <= row.b` on every row at `pattern`.
fn at_most(doc: &Json, pattern: &str, a: &str, b: &str, errors: &mut Vec<String>) {
    for (at, row) in each(doc, pattern) {
        let num = |key| row.get(key).and_then(Json::as_num);
        if let (Some(x), Some(y)) = (num(a), num(b)) {
            if x > y + 1e-9 {
                errors.push(format!("{at}: {a} exceeds {b}"));
            }
        }
    }
}

/// A mean cost is null exactly when no run was feasible.
fn null_iff_infeasible(doc: &Json, pattern: &str, key: &str, errors: &mut Vec<String>) {
    for (at, row) in each(doc, pattern) {
        if let (Some(feasible), Some(cost)) = (int(row, "feasible"), row.get(key)) {
            if (*cost == Json::Null) != (feasible == 0) {
                errors.push(format!(
                    "{at}.{key} must be null exactly when feasible is 0"
                ));
            }
        }
    }
}

/// The named percentile columns are non-decreasing.
fn ordered(doc: &Json, pattern: &str, keys: &[&str], errors: &mut Vec<String>) {
    for (at, v) in each(doc, pattern) {
        let values: Option<Vec<f64>> = keys.iter().map(|k| v.get(k)?.as_num()).collect();
        if values.is_some_and(|xs| xs.windows(2).any(|w| w[0] > w[1])) {
            let keys = keys.join(" <= ");
            errors.push(format!("{at} percentiles must be ordered ({keys})"));
        }
    }
}

fn admissions_reconcile(doc: &Json, errors: &mut Vec<String>) {
    for (at, row) in each(doc, "results[]") {
        if let [Some(a), Some(ad), Some(r)] =
            ["arrivals", "admitted", "rejected"].map(|k| int(row, k))
        {
            if ad.checked_add(r) != Some(a) {
                errors.push(format!("{at}: admitted + rejected must equal arrivals"));
            }
        }
    }
}

fn sweep_rules(doc: &Json, errors: &mut Vec<String>) {
    one_per(doc, "results", "config.points", errors);
    one_per(doc, "results[].heuristics", "config.heuristics", errors);
    if len(doc, "config.heuristics") == Some(0) {
        errors.push("config.heuristics must be non-empty".to_string());
    }
    at_most(doc, "results[].heuristics[]", "feasible", "runs", errors);
    at_most(doc, "results[].reference", "solved", "runs", errors);
    null_iff_infeasible(doc, "results[].heuristics[]", "mean_cost", errors);
}

fn serve_rules(doc: &Json, errors: &mut Vec<String>) {
    one_per(doc, "results", "config.points", errors);
    admissions_reconcile(doc, errors);
    let keys = ["p50_us", "p99_us", "max_us"];
    ordered(doc, "results[].admit_latency", &keys, errors);
}

/// Every crash recovers, every drop is retransmitted, every duplicate is
/// discarded (each pair of counters is equal), and every replay with
/// crashes matched its crash-free twin. The table already requires zero
/// audit failures.
fn chaos_rules(doc: &Json, errors: &mut Vec<String>) {
    one_per(doc, "results", "config.points", errors);
    admissions_reconcile(doc, errors);
    for (a, b) in [
        ("crashes", "recoveries"),
        ("msgs_dropped", "msgs_retransmitted"),
        ("msgs_duplicated", "dups_discarded"),
    ] {
        at_most(doc, "results[]", a, b, errors);
        at_most(doc, "results[]", b, a, errors);
    }
    for (at, row) in each(doc, "results[]") {
        // Null means no crashes were scheduled at this point.
        let verdict = row.get("crash_fingerprint_match");
        let crashed = int(row, "crashes").is_some_and(|c| c > 0);
        if verdict == Some(&Json::Bool(false)) || crashed && verdict == Some(&Json::Null) {
            errors.push(format!(
                "{at}.crash_fingerprint_match must be true when crashes > 0: \
                 a crash recovery diverged from the uninterrupted replay"
            ));
        }
    }
}

/// Refinement is never worse than its start, the lower bound is never
/// above the refined or the exact cost, and costs are null exactly when
/// no run was feasible.
fn refine_rules(doc: &Json, errors: &mut Vec<String>) {
    one_per(doc, "results", "config.points", errors);
    for (a, b) in [
        ("feasible", "runs"),
        ("improved", "feasible"),
        ("mean_refined_cost", "mean_start_cost"),
    ] {
        at_most(doc, "results[]", a, b, errors);
    }
    for key in ["mean_start_cost", "mean_refined_cost"] {
        null_iff_infeasible(doc, "results[]", key, errors);
    }
    // The bound's mean runs over every seed and a cost's over the seeds
    // that have one, so the two compare where those are all the seeds.
    for (at, row) in each(doc, "results[]") {
        let bound = row.get("mean_lower_bound").and_then(Json::as_num);
        let costs = [
            (
                "mean_refined_cost",
                Some(row),
                "mean_refined_cost",
                "feasible",
            ),
            ("exact.mean_cost", row.get("exact"), "mean_cost", "solved"),
        ];
        for (name, holder, key, seeds) in costs {
            let Some(holder) = holder else { continue };
            if let (Some(bound), Some(cost)) = (bound, holder.get(key).and_then(Json::as_num)) {
                if int(holder, seeds) == int(row, "runs") && bound > cost + 1e-9 {
                    errors.push(format!("{at}: mean_lower_bound exceeds {name}"));
                }
            }
        }
    }
}

fn telemetry_rules(doc: &Json, errors: &mut Vec<String>) {
    let keys = ["min", "p50", "p90", "p99", "max"];
    ordered(doc, "deterministic.histograms[]", &keys, errors);
    ordered(doc, "overlay.histograms[]", &keys, errors);
}

/// The `(run, tick, shard, seq)` stamps are non-decreasing: the canonical
/// sort every exporter applies, which makes two trace files comparable.
fn trace_rules(doc: &Json, errors: &mut Vec<String>) {
    let mut prev = None;
    for (at, ev) in each(doc, "det_events[]") {
        let stamp = ["run", "tick", "shard", "seq"].map(|k| int(ev, k).unwrap_or(0));
        if prev.is_some_and(|p| stamp < p) {
            errors.push(format!(
                "{at}: (run, tick, shard, seq) must be non-decreasing"
            ));
        }
        prev = Some(stamp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, Campaign, PointSpec, ReferenceConfig};
    use snsp_gen::ScenarioParams;

    fn rendered(include_timing: bool) -> String {
        let campaign = Campaign::new(
            "schema-test",
            vec![
                PointSpec::new("8", ScenarioParams::paper(8, 0.9)),
                PointSpec::new("12", ScenarioParams::paper(12, 1.3)),
            ],
            2,
        )
        .with_reference(ReferenceConfig {
            max_ops: 10,
            node_budget: 100_000,
        })
        .with_workers(2);
        run_campaign(&campaign).render_json(include_timing)
    }

    #[test]
    fn real_reports_validate() {
        Sweep
            .validate(&rendered(true))
            .expect("timed report validates");
        Sweep
            .validate(&rendered(false))
            .expect("stable report validates");
    }

    #[test]
    fn non_json_is_one_violation() {
        let errors = Sweep.validate("{oops").unwrap_err();
        assert_eq!(errors.len(), 1);
        assert!(errors[0].starts_with("not JSON"));
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let text = rendered(false).replace("\"schema_version\": 1", "\"schema_version\": 2");
        let errors = Sweep.validate(&text).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("schema_version")));
    }

    #[test]
    fn missing_results_is_rejected() {
        let text = "{\"schema_version\": 1, \"generator\": \"snsp-sweep 0\", \
                    \"campaign\": \"x\"}";
        let errors = Sweep.validate(text).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("config")));
        assert!(errors.iter().any(|e| e.contains("results")));
    }

    /// A pre-sharding (v2-shaped) document: no `config.shards`, no
    /// `admit_latency` rows.
    fn serve_doc_v2() -> String {
        serve_doc()
            .replace("\"schema_version\": 3", "\"schema_version\": 2")
            .replace("    \"shards\": 4,\n", "")
            .replace(
                "      \"admit_latency\": {\"samples\": 18, \"p50_us\": 850.0, \
                 \"p99_us\": 2300.0, \"max_us\": 2400.0},\n",
                "",
            )
    }

    /// A minimal well-formed serve document (what `snsp-serve` renders;
    /// kept in sync by snsp-serve's own round-trip tests).
    fn serve_doc() -> String {
        r#"{
  "schema_version": 3,
  "generator": "snsp-serve 0.1.0",
  "kind": "serve",
  "campaign": "unit",
  "config": {
    "seeds": 2,
    "slo_frac": 0.95,
    "shards": 4,
    "points": [
      {
        "label": "poisson",
        "lambda": 0.5,
        "mean_hold": 4.0,
        "pareto_shape": 2.5,
        "horizon": 40.0,
        "fail_rate": 0.1,
        "n_ops": [8, 20],
        "alpha": [0.9, 1.2],
        "rho": [0.5, 1.5],
        "burst": {"period": 10.0, "width": 2.0, "multiplier": 4.0}
      }
    ]
  },
  "results": [
    {
      "label": "poisson",
      "traces": 2,
      "arrivals": 20,
      "admitted": 18,
      "rejected": 2,
      "departed": 12,
      "evicted": 1,
      "failures": 3,
      "admission_rate": 0.9,
      "mean_cost_integral": 301920.0,
      "mean_utilization": 0.42,
      "mean_final_cost": 15096.0,
      "peak_procs": 6,
      "slo_checks": 18,
      "slo_violations": 0,
      "admit_latency": {"samples": 18, "p50_us": 850.0, "p99_us": 2300.0, "max_us": 2400.0},
      "log_hash": "9f3cafc4"
    }
  ]
}"#
        .to_string()
    }

    #[test]
    fn serve_schema_accepts_well_formed_documents() {
        Serve
            .validate(&serve_doc())
            .expect("serve v3 doc validates");
    }

    #[test]
    fn serve_v3_requires_the_new_columns() {
        // A v3 stamp without the v3 fields is invalid...
        let broken = serve_doc_v2().replace("\"schema_version\": 2", "\"schema_version\": 3");
        let errors = Serve.validate(&broken).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("config.shards")));
        assert!(errors.iter().any(|e| e.contains("admit_latency")));
        // ...and so is a v2 document: only the current version is read.
        let errors = Serve.validate(&serve_doc_v2()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("schema_version")));
        // ...but a stable rendering may null the wall-clock column.
        let stable = serve_doc().replace(
            "{\"samples\": 18, \"p50_us\": 850.0, \"p99_us\": 2300.0, \"max_us\": 2400.0}",
            "null",
        );
        Serve
            .validate(&stable)
            .expect("null admit_latency is the stable form");
        // Percentiles must be ordered.
        let unordered = serve_doc().replace("\"p99_us\": 2300.0", "\"p99_us\": 9300.0");
        let errors = Serve.validate(&unordered).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("ordered")), "{errors:?}");
        // Versions past the current one are rejected.
        let future = serve_doc().replace("\"schema_version\": 3", "\"schema_version\": 4");
        let errors = Serve.validate(&future).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("schema_version")));
    }

    #[test]
    fn serve_schema_rejects_v1_and_broken_documents() {
        // A campaign (v1) report is not a serve report.
        let errors = Serve.validate(&rendered(false)).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("schema_version")));
        assert!(errors.iter().any(|e| e.contains("kind")));
        // Admissions must reconcile with arrivals.
        let broken = serve_doc().replace("\"admitted\": 18", "\"admitted\": 19");
        let errors = Serve.validate(&broken).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("admitted + rejected")));
        // A missing burst key (as opposed to an explicit null) is flagged.
        let broken = serve_doc().replace(
            "\"burst\": {\"period\": 10.0, \"width\": 2.0, \"multiplier\": 4.0}\n",
            "\"unrelated\": 1\n",
        );
        let errors = Serve.validate(&broken).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("burst")), "{errors:?}");
    }

    /// A minimal well-formed telemetry document (what `snsp-experiments
    /// --telemetry-out` renders; kept in sync by that crate's tests).
    fn telemetry_doc() -> String {
        r#"{
  "schema_version": 5,
  "generator": "snsp-experiments 0.1.0",
  "kind": "telemetry",
  "campaign": "serve sharded-ci",
  "deterministic": {
    "counters": [
      {"name": "serve.admitted", "value": 42},
      {"name": "serve.departed", "value": 42}
    ],
    "histograms": [
      {"name": "serve.shard.admitted", "count": 4, "min": 8.0, "p50": 10.0, "p90": 12.0, "p99": 12.0, "max": 12.0}
    ]
  },
  "overlay": {
    "counters": [
      {"name": "pool.steals", "value": 7}
    ],
    "histograms": [
      {"name": "serve.admit.latency_us", "count": 42, "min": 120.0, "p50": 850.0, "p90": 1900.0, "p99": 2300.0, "max": 2400.0}
    ],
    "gauges": [
      {"name": "serve.peak_rss_kb", "value": 14336}
    ],
    "spans": [
      {"name": "pool.busy", "count": 4, "total_ms": 12.5}
    ]
  }
}"#
        .to_string()
    }

    #[test]
    fn telemetry_schema_accepts_well_formed_documents() {
        Telemetry
            .validate(&telemetry_doc())
            .expect("telemetry doc validates");
        // The stable form nulls the whole wall-clock overlay.
        let (head, _) = telemetry_doc()
            .split_once("\"overlay\"")
            .map(|(h, t)| (h.to_string(), t.to_string()))
            .unwrap();
        let stable = format!("{head}\"overlay\": null\n}}");
        Telemetry
            .validate(&stable)
            .expect("null overlay is the stable form");
    }

    #[test]
    fn telemetry_schema_rejects_misfiled_metrics_and_cross_kinds() {
        // Wall-clock state may not masquerade as deterministic: a span
        // or gauge array inside the deterministic core is an error.
        let broken = telemetry_doc().replace(
            "\"deterministic\": {\n    \"counters\"",
            "\"deterministic\": {\n    \"spans\": [],\n    \"counters\"",
        );
        let errors = Telemetry.validate(&broken).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("deterministic.spans")),
            "{errors:?}"
        );
        // Percentiles must be ordered.
        let broken = telemetry_doc().replace("\"p50\": 850.0", "\"p50\": 9850.0");
        let errors = Telemetry.validate(&broken).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("ordered")), "{errors:?}");
        // Other kinds are rejected by name, and vice versa.
        let errors = Telemetry.validate(&refine_doc()).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("expected \"telemetry\"") && e.contains("found \"refine\"")),
            "{errors:?}"
        );
        let telemetry = telemetry_doc();
        assert!(Sweep.validate(&telemetry).is_err());
        assert!(Serve.validate(&telemetry).is_err());
        assert!(Refine.validate(&telemetry).is_err());
        assert!(Chaos.validate(&telemetry).is_err());
    }

    /// A minimal well-formed refine document (what `snsp-search`
    /// renders; kept in sync by that crate's own round-trip tests).
    fn refine_doc() -> String {
        r#"{
  "schema_version": 4,
  "generator": "snsp-search 0.1.0",
  "kind": "refine",
  "campaign": "refine-ci",
  "config": {
    "seeds": 2,
    "driver": "first-improvement",
    "max_evals": 4096,
    "top_k": 3,
    "points": [
      {"label": "hom N=8", "n_ops": 8, "alpha": 0.9, "homogeneous": true},
      {"label": "het N=30", "n_ops": 30, "alpha": 0.9, "homogeneous": false}
    ]
  },
  "results": [
    {
      "label": "hom N=8",
      "runs": 2,
      "feasible": 2,
      "mean_start_cost": 16982.0,
      "mean_refined_cost": 15096.0,
      "improved": 1,
      "never_worse": true,
      "mean_evals": 120.0,
      "mean_accepted": 2.5,
      "exact": {"solved": 2, "optimal": true, "mean_cost": 15096.0, "max_gap_pct": 0.0},
      "mean_lower_bound": 7548.0
    },
    {
      "label": "het N=30",
      "runs": 2,
      "feasible": 2,
      "mean_start_cost": 30192.0,
      "mean_refined_cost": 28306.0,
      "improved": 2,
      "never_worse": true,
      "mean_evals": 800.0,
      "mean_accepted": 4.0,
      "exact": null,
      "mean_lower_bound": 15096.0
    }
  ]
}"#
        .to_string()
    }

    #[test]
    fn refine_schema_accepts_well_formed_documents() {
        Refine
            .validate(&refine_doc())
            .expect("refine doc validates");
    }

    #[test]
    fn refine_schema_rejects_regressions_and_cross_kind_files() {
        // A v1 campaign report is not a refine report.
        let errors = Refine.validate(&rendered(false)).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("schema_version")));
        assert!(errors.iter().any(|e| e.contains("kind")));
        // Nor are serve and telemetry documents.
        let errors = Refine.validate(&serve_doc()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("kind")), "{errors:?}");
        let errors = Refine.validate(&telemetry_doc()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("kind")), "{errors:?}");
        // A cost regression invalidates the document outright.
        let broken = refine_doc().replacen("\"never_worse\": true", "\"never_worse\": false", 1);
        let errors = Refine.validate(&broken).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("never_worse")),
            "{errors:?}"
        );
        // So does a refined mean above the starting mean.
        let broken = refine_doc().replace(
            "\"mean_refined_cost\": 15096.0",
            "\"mean_refined_cost\": 17000.0",
        );
        let errors = Refine.validate(&broken).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("exceeds mean_start_cost")),
            "{errors:?}"
        );
        // A missing exact key (as opposed to an explicit null) is flagged.
        let broken = refine_doc().replacen("\"exact\": null", "\"unrelated\": null", 1);
        let errors = Refine.validate(&broken).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("exact")), "{errors:?}");
        // A lower bound above the refined and the exact cost is unsound.
        let broken = refine_doc().replacen(
            "\"mean_lower_bound\": 7548.0",
            "\"mean_lower_bound\": 16000.0",
            1,
        );
        let errors = Refine.validate(&broken).unwrap_err();
        for name in ["mean_refined_cost", "exact.mean_cost"] {
            let message = format!("results[0]: mean_lower_bound exceeds {name}");
            assert!(errors.contains(&message), "{errors:?}");
        }
        // `improved` cannot exceed `feasible`.
        let broken = refine_doc().replacen("\"improved\": 1", "\"improved\": 3", 1);
        let errors = Refine.validate(&broken).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("improved")), "{errors:?}");
    }

    #[test]
    fn other_validators_reject_refine_documents() {
        // Cross-kind sniffing must fail loudly in every direction.
        let refine = refine_doc();
        assert!(Sweep.validate(&refine).is_err());
        assert!(Serve.validate(&refine).is_err());
        assert!(Telemetry.validate(&refine).is_err());
    }

    #[test]
    fn cross_kind_errors_name_expected_and_found_kinds() {
        // Wrong-validator mistakes must read as "wrong file": the error
        // names the kind the validator wanted AND the kind it found.
        let errors = Serve.validate(&refine_doc()).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("expected \"serve\"") && e.contains("found \"refine\"")),
            "{errors:?}"
        );
        let errors = Refine.validate(&telemetry_doc()).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("expected \"refine\"") && e.contains("found \"telemetry\"")),
            "{errors:?}"
        );
        // The kindless v1 validator names the found kind too, and points
        // at the right validator.
        let errors = Sweep.validate(&serve_doc()).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("found kind \"serve\"") && e.contains("kindless")),
            "{errors:?}"
        );
        // A kinded validator fed a kindless document says what kindless
        // documents are, instead of a bare rejection.
        let errors = Telemetry.validate(&rendered(false)).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("\"telemetry\"") && e.contains("schema-v1")),
            "{errors:?}"
        );
    }

    #[test]
    fn undeclared_keys_are_rejected_and_kinds_are_sniffed() {
        // The table is the complete description: an extra column fails.
        let extra = serve_doc().replace("\"traces\": 2,", "\"traces\": 2, \"drain_s\": 1.0,");
        let errors = Serve.validate(&extra).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("results[0].drain_s is not part")),
            "{errors:?}"
        );
        // The sniffing entry point picks the table from the discriminator.
        for (doc, kind) in [
            (serve_doc(), Serve),
            (refine_doc(), Refine),
            (telemetry_doc(), Telemetry),
            (rendered(false), Sweep),
        ] {
            assert_eq!(validate(&doc), Ok(kind));
        }
        let errors = validate(&serve_doc().replace("\"serve\"", "\"bogus\"")).unwrap_err();
        assert!(errors[0].contains("unknown kind"), "{errors:?}");
        // Every kind's header carries its version and validates as such.
        for kind in ArtifactKind::ALL {
            let header = Json::obj(kind.header());
            assert_eq!(
                header.get("schema_version"),
                Some(&Json::Int(kind.version()))
            );
            assert_eq!(ArtifactKind::of(&header), Ok(kind));
        }
    }

    #[test]
    fn feasible_without_cost_is_rejected() {
        let text = rendered(false);
        // Break one heuristic row: claim feasibility but null the cost.
        let broken = text.replacen("\"mean_cost\": 1", "\"mean_cost\": null, \"x\": 1", 1);
        if broken != text {
            let errors = Sweep.validate(&broken).unwrap_err();
            assert!(errors.iter().any(|e| e.contains("mean_cost")), "{errors:?}");
        }
    }
}
