//! The JSON request/response protocol: body parsing, the mandatory
//! `cool-lint` pre-flight, algorithm dispatch into `cool-core`, and
//! deterministic response rendering.
//!
//! The pre-flight runs in the two stages of `cool-lint`, ordered by cost:
//!
//! * [`resolve`] — the **text stage** (microseconds): parse the scenario,
//!   apply the overrides, run the field lint on the raw text, and build the
//!   cache lookup key. It runs on every request.
//! * [`preflight`] — the **instance stage**: instance derivation,
//!   geometry and the utility axioms (proved for the sums of detection
//!   parts every scenario derives, so the stage costs about one
//!   derivation), plus the `audit` bundle when requested. It runs only on a
//!   cache miss, and hands the utility it derived to
//!   [`compute_response_with`], so a plain miss derives its instance once.
//!
//! [`resolve_and_lint`] is their composition. Response bodies carry no
//! timestamps, request ids, or other per-call variation: a body is a pure
//! function of its lookup key — the canonical scenario, the algorithm
//! selector, the `audit` flag, the text stage's rendered warnings and,
//! when overrides apply, the pre-override normal form — and the instance
//! stage is a deterministic function of those too. That is what makes
//! answering a hit before the instance stage sound: the cached body has
//! already passed the exact pre-flight the new request would run, and it is
//! byte-identical to a cold compute.

use crate::cache::CacheKey;
use cool_common::json::{self, escape, Value};
use cool_common::{CoolCode, SeedSequence};
use cool_core::greedy::greedy_schedule_lazy;
use cool_core::horizon::greedy_horizon;
use cool_core::lp::LpScheduler;
use cool_lint::{
    audit_scenario_text, lint_scenario_fields, lint_scenario_instance, lint_scenario_text,
    AuditOptions, FieldLint, Report,
};
use cool_scenario::{Scenario, ScenarioError};
use cool_utility::{Evaluator, SumUtility, UtilityFunction};
use std::fmt::Write as _;

/// Default rounding passes for `lp-rounding` when the request omits
/// `rounding_trials` (matches the experiment harness default).
const DEFAULT_ROUNDING_TRIALS: usize = 16;
/// Upper bound on client-requested rounding passes.
const MAX_ROUNDING_TRIALS: usize = 256;

/// The algorithm selector of a schedule request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Lazy (CELF) greedy — the paper's Algorithm 1, ½-approximate. The
    /// request names `greedy-lazy`, `greedy_lazy` and `lazy` are spellings
    /// of it: naive and lazy greedy build the same schedule (COOL-E020).
    Greedy,
    /// LP relaxation + randomised rounding (§IV-A.1).
    LpRounding {
        /// Independent rounding passes; the best schedule wins.
        trials: usize,
    },
    /// Whole-horizon greedy (per-slot activation over `L` slots).
    Horizon,
}

impl Algorithm {
    /// Parses the request's `algorithm` string plus optional
    /// `rounding_trials`.
    ///
    /// # Errors
    ///
    /// `COOL-E019` for unknown names or out-of-range trial counts.
    pub fn from_request(name: &str, trials: Option<f64>) -> Result<Self, ApiError> {
        let trials = match trials {
            None => DEFAULT_ROUNDING_TRIALS,
            Some(t) if t.fract() == 0.0 && (1.0..=MAX_ROUNDING_TRIALS as f64).contains(&t) => {
                t as usize
            }
            Some(t) => {
                return Err(ApiError::malformed(format!(
                    "rounding_trials must be an integer in 1..={MAX_ROUNDING_TRIALS}, got {t}"
                )))
            }
        };
        match name {
            "greedy" | "greedy-lazy" | "greedy_lazy" | "lazy" => Ok(Algorithm::Greedy),
            "lp-rounding" | "lp_rounding" | "lp" => Ok(Algorithm::LpRounding { trials }),
            "horizon" => Ok(Algorithm::Horizon),
            other => Err(ApiError::malformed(format!(
                "unknown algorithm `{other}` (expected greedy | lp-rounding | horizon)"
            ))),
        }
    }

    /// The cache-key selector, parameters included.
    #[must_use]
    pub fn selector(&self) -> String {
        match self {
            Algorithm::Greedy => "greedy".into(),
            Algorithm::LpRounding { trials } => format!("lp-rounding:{trials}"),
            Algorithm::Horizon => "horizon".into(),
        }
    }

    /// The plain name used in response bodies.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Greedy => "greedy",
            Algorithm::LpRounding { .. } => "lp-rounding",
            Algorithm::Horizon => "horizon",
        }
    }
}

/// A COOL-coded service failure, carrying the HTTP status to respond with.
#[derive(Clone, Debug)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// The stable diagnostic code.
    pub code: CoolCode,
    /// Human-readable description.
    pub message: String,
    /// The lint report JSON, when the failure came from the pre-flight.
    pub lint_json: Option<String>,
}

impl ApiError {
    /// `COOL-E019` / HTTP 400 — unparsable or incomplete request.
    pub fn malformed(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            code: CoolCode::MalformedRequest,
            message: message.into(),
            lint_json: None,
        }
    }

    /// `COOL-E017` / HTTP 408 — wall-clock budget exhausted.
    #[must_use]
    pub fn timeout(budget_ms: u128) -> Self {
        ApiError {
            status: 408,
            code: CoolCode::RequestTimeout,
            message: format!("request exceeded its {budget_ms} ms wall-clock budget"),
            lint_json: None,
        }
    }

    /// `COOL-E018` / HTTP 429 — bounded queue full, request shed.
    #[must_use]
    pub fn overloaded() -> Self {
        ApiError {
            status: 429,
            code: CoolCode::ServiceOverloaded,
            message: "work queue is full; retry with backoff".into(),
            lint_json: None,
        }
    }

    /// The JSON error envelope.
    #[must_use]
    pub fn body(&self) -> String {
        let mut out = format!(
            "{{\"status\":\"error\",\"code\":{},\"name\":{},\"message\":{}",
            escape(self.code.as_str()),
            escape(self.code.name()),
            escape(&self.message)
        );
        if let Some(lint) = &self.lint_json {
            let _ = write!(out, ",\"lint\":{lint}");
        }
        out.push('}');
        out
    }
}

impl From<ScenarioError> for ApiError {
    fn from(e: ScenarioError) -> Self {
        let code = match &e {
            ScenarioError::BadLine { .. } => CoolCode::ScenarioLineMalformed,
            ScenarioError::UnknownKey { .. } | ScenarioError::BadValue { .. } => {
                CoolCode::ScenarioFieldInvalid
            }
        };
        ApiError {
            status: 422,
            code,
            message: e.to_string(),
            lint_json: None,
        }
    }
}

/// One unit of schedule work: scenario text, `--set`-style overrides, and
/// the algorithm selector.
#[derive(Clone, Debug)]
pub struct ScheduleItem {
    /// The raw scenario text as sent by the client.
    pub scenario_text: String,
    /// `key = value` overrides applied after parsing, in order.
    pub overrides: Vec<(String, String)>,
    /// Selected algorithm.
    pub algorithm: Algorithm,
    /// When `true`, the pre-flight runs the full `cool audit` bundle
    /// (abstract energy proof, dominance/dead-slot/connectivity passes)
    /// over the resolved scenario instead of the scenario lint alone.
    pub audit: bool,
}

/// A parsed `/v1/schedule` body: one item, or a batch.
#[derive(Clone, Debug)]
pub enum ScheduleBody {
    /// A single request object.
    Single(Box<ScheduleItem>),
    /// `{"batch": [...]}` — computed concurrently, answered together.
    Batch(Vec<ScheduleItem>),
}

fn item_from_value(v: &Value) -> Result<ScheduleItem, ApiError> {
    let scenario_text = v
        .get("scenario")
        .and_then(Value::as_str)
        .ok_or_else(|| ApiError::malformed("missing required string field `scenario`"))?
        .to_string();
    let algorithm_name = match v.get("algorithm") {
        None => "greedy",
        Some(a) => a
            .as_str()
            .ok_or_else(|| ApiError::malformed("`algorithm` must be a string"))?,
    };
    let trials = match v.get("rounding_trials") {
        None => None,
        Some(t) => Some(
            t.as_f64()
                .ok_or_else(|| ApiError::malformed("`rounding_trials` must be a number"))?,
        ),
    };
    let algorithm = Algorithm::from_request(algorithm_name, trials)?;
    let audit = match v.get("audit") {
        None => false,
        Some(a) => a
            .as_bool()
            .ok_or_else(|| ApiError::malformed("`audit` must be a boolean"))?,
    };
    let mut overrides = Vec::new();
    if let Some(set) = v.get("set") {
        let members = set
            .as_object()
            .ok_or_else(|| ApiError::malformed("`set` must be an object of key/value pairs"))?;
        for (key, value) in members {
            let rendered = match value {
                Value::String(s) => s.clone(),
                Value::Number(n) => format!("{n}"),
                Value::Bool(b) => format!("{b}"),
                _ => {
                    return Err(ApiError::malformed(format!(
                        "`set.{key}` must be a string, number, or boolean"
                    )))
                }
            };
            overrides.push((key.clone(), rendered));
        }
    }
    Ok(ScheduleItem {
        scenario_text,
        overrides,
        algorithm,
        audit,
    })
}

/// Parses a `/v1/schedule` request body.
///
/// # Errors
///
/// `COOL-E019` for invalid JSON, missing fields, bad field types, or an
/// empty/oversized batch.
pub fn parse_schedule_body(body: &[u8]) -> Result<ScheduleBody, ApiError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ApiError::malformed("request body is not UTF-8"))?;
    let doc =
        json::parse(text).map_err(|e| ApiError::malformed(format!("invalid JSON body: {e}")))?;
    if let Some(batch) = doc.get("batch") {
        let items = batch
            .as_array()
            .ok_or_else(|| ApiError::malformed("`batch` must be an array"))?;
        if items.is_empty() {
            return Err(ApiError::malformed("`batch` must not be empty"));
        }
        if items.len() > 256 {
            return Err(ApiError::malformed("`batch` is limited to 256 items"));
        }
        let parsed: Result<Vec<ScheduleItem>, ApiError> =
            items.iter().map(item_from_value).collect();
        Ok(ScheduleBody::Batch(parsed?))
    } else {
        Ok(ScheduleBody::Single(Box::new(item_from_value(&doc)?)))
    }
}

/// Parses a `/v1/lint` body (`{"scenario": "..."}`).
///
/// # Errors
///
/// `COOL-E019` when the body is not JSON or lacks the field.
pub fn parse_lint_body(body: &[u8]) -> Result<String, ApiError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ApiError::malformed("request body is not UTF-8"))?;
    let doc =
        json::parse(text).map_err(|e| ApiError::malformed(format!("invalid JSON body: {e}")))?;
    doc.get("scenario")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| ApiError::malformed("missing required string field `scenario`"))
}

/// A schedule item after the text stage of its pre-flight.
#[derive(Clone, Debug)]
pub struct Resolved {
    /// The final scenario: the text parsed, then the overrides applied.
    pub scenario: Scenario,
    /// The cache lookup key: everything the response body depends on.
    pub key: CacheKey,
    /// The raw text's field lint — clean, or [`resolve`] would have
    /// rejected the item.
    fields: Report,
    /// The raw text's scenario as the text stage parsed it, the instance
    /// stage's input.
    spec: Option<Scenario>,
}

/// The text stage: resolves an item into a final [`Scenario`] (parse, then
/// overrides), lints the raw text's fields, and builds the lookup key.
///
/// The key covers everything the body depends on: the canonical form, the
/// algorithm selector, the `audit` flag, the rendered text-stage warnings
/// (which reach the body verbatim, e.g. `COOL-W002` for a duplicated key)
/// and, when overrides apply, the pre-override normal form, whose instance
/// stage gates the request.
///
/// # Errors
///
/// Scenario parse errors map to `COOL-E007`/`COOL-E008` (HTTP 422); field
/// lint errors return 422 with the report attached.
pub fn resolve(item: &ScheduleItem) -> Result<Resolved, ApiError> {
    let mut scenario = Scenario::parse(&item.scenario_text)?;
    let base = if item.overrides.is_empty() {
        String::new()
    } else {
        scenario.canonical()
    };
    for (key, value) in &item.overrides {
        scenario.set(key.trim(), value.trim())?;
    }
    let FieldLint {
        report: fields,
        spec,
    } = lint_scenario_fields(&item.scenario_text, "request");
    if !fields.is_clean() {
        return Err(rejection(&fields));
    }
    let context = format!(
        "audit={}\nwarnings={}\nbase={base}",
        item.audit,
        render_warnings(&fields)
    );
    let key = CacheKey::with_context(scenario.canonical(), item.algorithm.selector(), context);
    Ok(Resolved {
        scenario,
        key,
        fields,
        spec,
    })
}

/// The instance stage: the raw text's instance lint, then — when the item
/// carries overrides — the full lint of the canonical final form, then the
/// `audit` bundle when requested. Returns the rendered warnings the body
/// carries, and the instance utility the raw text's lint derived when that
/// text's scenario is the one to solve (always so without overrides), for
/// [`compute_response_with`].
///
/// # Errors
///
/// Lint errors return 422 with the full report attached.
pub fn preflight(
    item: &ScheduleItem,
    resolved: &Resolved,
) -> Result<(String, Option<SumUtility>), ApiError> {
    let mut report = resolved.fields.clone();
    let mut utility = None;
    if let Some(spec) = &resolved.spec {
        let instance = lint_scenario_instance(spec);
        report.merge(instance.report);
        if *spec == resolved.scenario {
            utility = instance.utility;
        }
    }
    if report.is_clean() && !item.overrides.is_empty() {
        // Overrides may re-introduce semantic problems (e.g. a non-integral
        // ρ) that the raw text did not have; lint the final normal form.
        report = lint_scenario_text(&resolved.scenario.canonical(), "request+overrides");
    }
    if item.audit && report.is_clean() {
        // Opt-in deep pre-flight: the whole `cool audit` bundle over the
        // resolved normal form, under the deployment contract (nodes ship
        // fully charged). Deterministic, so cache soundness is unaffected.
        report = audit_scenario_text(
            &resolved.scenario.canonical(),
            "request+audit",
            &AuditOptions::default(),
        )
        .report;
    }
    if !report.is_clean() {
        return Err(rejection(&report));
    }
    Ok((render_warnings(&report), utility))
}

/// Resolves an item into a final [`Scenario`] and runs the whole mandatory
/// lint pre-flight: [`resolve`], then [`preflight`].
///
/// Returns the scenario plus the pre-flight's warnings (errors reject).
///
/// # Errors
///
/// As [`resolve`] and [`preflight`].
pub fn resolve_and_lint(item: &ScheduleItem) -> Result<(Scenario, String), ApiError> {
    let resolved = resolve(item)?;
    let (warnings, _) = preflight(item, &resolved)?;
    Ok((resolved.scenario, warnings))
}

/// The 422 answer for a pre-flight report with errors.
fn rejection(report: &Report) -> ApiError {
    let code = report
        .diagnostics()
        .iter()
        .find(|d| d.code.is_error())
        .map_or(CoolCode::ScenarioFieldInvalid, |d| d.code);
    ApiError {
        status: 422,
        code,
        message: "scenario rejected by the cool-lint pre-flight".into(),
        lint_json: Some(report.to_json()),
    }
}

/// A report's diagnostics as the body's `lint.warnings` JSON array.
fn render_warnings(report: &Report) -> String {
    let mut warnings = String::from("[");
    for (i, d) in report.diagnostics().iter().enumerate() {
        if i > 0 {
            warnings.push(',');
        }
        let _ = write!(
            warnings,
            "{{\"code\":{},\"name\":{},\"message\":{}}}",
            escape(d.code.as_str()),
            escape(d.code.name()),
            escape(&d.message)
        );
    }
    warnings.push(']');
    warnings
}

/// The cache key for (scenario, algorithm) — the digest behind a body's
/// `scenario_hash`.
#[must_use]
pub fn cache_key(scenario: &Scenario, algorithm: &Algorithm) -> CacheKey {
    CacheKey::new(scenario.canonical(), algorithm.selector())
}

fn render_f64_array(values: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

fn render_usize_array(values: impl Iterator<Item = usize>) -> String {
    let mut out = String::from("[");
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// Computes the response body for one (scenario, algorithm) pair.
///
/// The result is deterministic: randomised algorithms derive their RNG
/// from the scenario seed, so identical requests always produce identical
/// bytes (the cache-soundness contract).
///
/// # Errors
///
/// Instance-construction failures surface as 422 with the core error
/// message (the lint pre-flight makes these rare).
pub fn compute_response(
    scenario: &Scenario,
    algorithm: &Algorithm,
    lint_warnings: &str,
) -> Result<String, ApiError> {
    compute_response_with(scenario, None, algorithm, lint_warnings)
}

/// [`compute_response`] on the instance utility [`preflight`] derived for
/// `scenario`, when given, instead of deriving it again
/// ([`Scenario::build_with`]). The body is the same byte for byte.
///
/// # Errors
///
/// As [`compute_response`].
pub fn compute_response_with(
    scenario: &Scenario,
    utility: Option<SumUtility>,
    algorithm: &Algorithm,
    lint_warnings: &str,
) -> Result<String, ApiError> {
    let built = scenario.build_with(utility).map_err(|message| ApiError {
        status: 422,
        code: CoolCode::ScenarioFieldInvalid,
        message,
        lint_json: None,
    })?;
    let problem = &built.problem;
    let cycle = built.cycle;
    let targets = problem.utility().n_targets().max(1);
    let bound = scenario.average_bound(problem, cycle);
    let key = cache_key(scenario, algorithm);

    let mut out = format!(
        "{{\"status\":\"ok\",\"algorithm\":{},\"scenario_hash\":\"{:016x}\",",
        escape(algorithm.name()),
        key.hash
    );
    let _ = write!(
        out,
        "\"cycle\":{{\"slots_per_period\":{},\"rho\":{},\"periods\":{}}},",
        cycle.slots_per_period(),
        cycle.rho(),
        built.periods
    );

    let average = match algorithm {
        Algorithm::Greedy | Algorithm::LpRounding { .. } => {
            let (schedule, lp_extra) = match algorithm {
                Algorithm::Greedy => (greedy_schedule_lazy(problem), None),
                Algorithm::LpRounding { trials } => {
                    // RNG stream 2: streams 0/1 are taken by instance
                    // generation and the random baseline, so rounding stays
                    // independent of both.
                    let mut rng = SeedSequence::new(scenario.seed).nth_rng(2);
                    let outcome = LpScheduler::new(*trials)
                        .schedule(problem, &mut rng)
                        .map_err(|e| ApiError {
                            status: 422,
                            code: CoolCode::ScenarioFieldInvalid,
                            message: format!("LP relaxation failed: {e}"),
                            lint_json: None,
                        })?;
                    (
                        outcome.schedule,
                        Some((outcome.lp_value, outcome.rounded_value, *trials)),
                    )
                }
                Algorithm::Horizon => unreachable!("outer match arm"),
            };
            let average = problem.average_utility_per_target_slot(&schedule);
            let t_slots = schedule.slots_per_period();
            // One evaluator reused across slots (reset() clears the arena in
            // place): bitwise the same as per-slot `eval`, which builds its
            // evaluator from the identical empty state, without re-allocating
            // scratch state per slot on the batch path.
            let mut slot_eval = problem.utility().evaluator();
            let per_slot_utility: Vec<f64> = (0..t_slots)
                .map(|t| {
                    slot_eval.reset();
                    for v in &schedule.active_set(t) {
                        slot_eval.insert(v);
                    }
                    slot_eval.value() / targets as f64
                })
                .collect();
            let _ = write!(
                out,
                "\"schedule\":{{\"mode\":\"period\",\"per_slot_active\":{},\"per_slot_utility\":{},\"assignment\":{}}},",
                render_usize_array((0..t_slots).map(|t| schedule.active_set(t).len())),
                render_f64_array(&per_slot_utility),
                render_usize_array(schedule.assignment().iter().copied())
            );
            if let Some((lp_value, rounded_value, trials)) = lp_extra {
                let _ = write!(
                    out,
                    "\"lp\":{{\"lp_value\":{lp_value},\"rounded_value\":{rounded_value},\"trials\":{trials}}},"
                );
            }
            average
        }
        Algorithm::Horizon => {
            // Bounded before the horizon's L slots are allocated.
            let slots = scenario.horizon_slots().map_err(|message| ApiError {
                status: 422,
                code: CoolCode::ScenarioFieldInvalid,
                message,
                lint_json: None,
            })?;
            let utility = problem.utility();
            let cycles = vec![cycle; problem.n_sensors()];
            let schedule = greedy_horizon(utility, &cycles, slots);
            let per_slot_active =
                render_usize_array((0..slots).map(|t| schedule.active_set(t).len()));
            let average = schedule.average_utility(utility) / targets as f64;
            let _ = write!(
                out,
                "\"schedule\":{{\"mode\":\"horizon\",\"horizon_slots\":{slots},\"per_slot_active\":{per_slot_active}}},"
            );
            average
        }
    };

    let fraction = if bound > 0.0 { average / bound } else { 1.0 };
    let _ = write!(
        out,
        "\"utility\":{{\"average_per_target_slot\":{average},\"upper_bound\":{bound},\"fraction_of_bound\":{fraction}}},"
    );
    let _ = write!(out, "\"lint\":{{\"warnings\":{lint_warnings}}}}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(body: &str) -> ScheduleItem {
        match parse_schedule_body(body.as_bytes()).unwrap() {
            ScheduleBody::Single(item) => *item,
            ScheduleBody::Batch(_) => panic!("expected single"),
        }
    }

    #[test]
    fn parses_single_request_with_defaults() {
        let it = item(r#"{"scenario":"sensors = 10\n"}"#);
        assert_eq!(it.algorithm, Algorithm::Greedy);
        assert!(it.overrides.is_empty());
        assert_eq!(it.scenario_text, "sensors = 10\n");
    }

    #[test]
    fn parses_algorithm_and_set_overrides() {
        let it = item(
            r#"{"scenario":"","algorithm":"lp-rounding","rounding_trials":8,"set":{"sensors":24,"scheduler":"lazy"}}"#,
        );
        assert_eq!(it.algorithm, Algorithm::LpRounding { trials: 8 });
        assert!(it
            .overrides
            .contains(&("sensors".to_string(), "24".to_string())));
    }

    #[test]
    fn parses_batches() {
        let body = r#"{"batch":[{"scenario":"a = 1"},{"scenario":"b = 2","algorithm":"horizon"}]}"#;
        match parse_schedule_body(body.as_bytes()).unwrap() {
            ScheduleBody::Batch(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[1].algorithm, Algorithm::Horizon);
            }
            ScheduleBody::Single(_) => panic!("expected batch"),
        }
    }

    #[test]
    fn rejects_bad_bodies_with_e019() {
        for body in [
            "not json",
            "{}",
            r#"{"scenario":5}"#,
            r#"{"scenario":"","algorithm":"quantum"}"#,
            r#"{"scenario":"","rounding_trials":0}"#,
            r#"{"scenario":"","set":{"k":[1]}}"#,
            r#"{"batch":[]}"#,
        ] {
            let err = parse_schedule_body(body.as_bytes()).unwrap_err();
            assert_eq!(err.code, CoolCode::MalformedRequest, "{body}");
            assert_eq!(err.status, 400, "{body}");
            assert!(err.body().contains("COOL-E019"), "{body}");
        }
    }

    #[test]
    fn lint_preflight_rejects_bad_scenarios() {
        let it = item(r#"{"scenario":"detection_p = 0.4\n"}"#);
        assert!(resolve_and_lint(&it).is_ok());
        let bad = item(r#"{"scenario":"recharge_minutes = 40\n"}"#);
        let err = resolve_and_lint(&bad).unwrap_err();
        assert_eq!(err.status, 422);
        assert_eq!(err.code, CoolCode::NonIntegralRho);
        assert!(err.body().contains("\"lint\":{"));
    }

    #[test]
    fn audit_flag_parses_and_defaults_off() {
        assert!(!item(r#"{"scenario":""}"#).audit);
        assert!(item(r#"{"scenario":"","audit":true}"#).audit);
        let err = parse_schedule_body(br#"{"scenario":"","audit":"yes"}"#).unwrap_err();
        assert_eq!(err.code, CoolCode::MalformedRequest);
    }

    #[test]
    fn audit_preflight_accepts_clean_scenarios_deterministically() {
        // Under the deployment contract (default audit options) a clean
        // scenario audits clean; the deep pre-flight must not reject it,
        // and its warning rendering must be stable across calls.
        let it = item(r#"{"scenario":"sensors = 12\n","audit":true}"#);
        let (_, warnings_a) = resolve_and_lint(&it).unwrap();
        let (_, warnings_b) = resolve_and_lint(&it).unwrap();
        assert_eq!(warnings_a, warnings_b);
    }

    #[test]
    fn audit_preflight_still_rejects_lint_errors() {
        let it = item(r#"{"scenario":"recharge_minutes = 40\n","audit":true}"#);
        let err = resolve_and_lint(&it).unwrap_err();
        assert_eq!(err.status, 422);
        assert_eq!(err.code, CoolCode::NonIntegralRho);
    }

    #[test]
    fn lint_preflight_sees_through_overrides() {
        // Raw text is clean; the override breaks ρ-integrality.
        let it = item(r#"{"scenario":"sensors = 10\n","set":{"recharge_minutes":"40"}}"#);
        let err = resolve_and_lint(&it).unwrap_err();
        assert_eq!(err.code, CoolCode::NonIntegralRho);
    }

    #[test]
    fn compute_matches_scenario_run_for_greedy() {
        let text = "sensors = 20\ntargets = 3\nregion = 120\nradius = 45\n";
        let it = item(&format!("{{\"scenario\":{}}}", escape(text)));
        let (scenario, warnings) = resolve_and_lint(&it).unwrap();
        let body = compute_response(&scenario, &it.algorithm, &warnings).unwrap();
        let expected = scenario.run().unwrap().average;
        let parsed = json::parse(&body).unwrap();
        let got = parsed
            .get("utility")
            .and_then(|u| u.get("average_per_target_slot"))
            .and_then(Value::as_f64)
            .unwrap();
        assert!(
            (got - expected).abs() < 1e-12,
            "service {got} vs CLI {expected}"
        );
        assert_eq!(
            parsed.get("status").and_then(Value::as_str),
            Some("ok"),
            "{body}"
        );
    }

    #[test]
    fn compute_is_deterministic_per_algorithm() {
        let text = "sensors = 12\ntargets = 2\nregion = 100\nradius = 40\n";
        for algorithm in [
            Algorithm::Greedy,
            Algorithm::LpRounding { trials: 4 },
            Algorithm::Horizon,
        ] {
            let it = item(&format!("{{\"scenario\":{}}}", escape(text)));
            let (scenario, warnings) = resolve_and_lint(&it).unwrap();
            let a = compute_response(&scenario, &algorithm, &warnings).unwrap();
            let b = compute_response(&scenario, &algorithm, &warnings).unwrap();
            assert_eq!(a, b, "{} is not deterministic", algorithm.name());
            assert!(json::parse(&a).is_ok(), "invalid JSON from {algorithm:?}");
        }
    }

    #[test]
    fn algorithms_have_distinct_cache_selectors() {
        let s = Scenario::default();
        let keys: Vec<CacheKey> = [
            Algorithm::Greedy,
            Algorithm::LpRounding { trials: 16 },
            Algorithm::LpRounding { trials: 8 },
            Algorithm::Horizon,
        ]
        .iter()
        .map(|a| cache_key(&s, a))
        .collect();
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
    }

    #[test]
    fn lazy_spellings_parse_as_greedy() {
        for name in ["greedy", "greedy-lazy", "greedy_lazy", "lazy"] {
            let it = item(&format!("{{\"scenario\":\"\",\"algorithm\":\"{name}\"}}"));
            assert_eq!(it.algorithm, Algorithm::Greedy, "{name}");
        }
        let Err(err) = parse_schedule_body(br#"{"scenario":"","algorithm":"celf"}"#) else {
            panic!("an unknown algorithm must be rejected");
        };
        assert_eq!(err.status, 400);
        assert!(err.body().contains("COOL-E019"), "{}", err.body());
        assert!(
            err.message
                .contains("(expected greedy | lp-rounding | horizon)"),
            "{}",
            err.message
        );
    }

    #[test]
    fn tie_break_order_survives_response_rendering() {
        // Every sensor covers the single target identically (radius ≥
        // region diagonal), so all greedy gains tie and the response's
        // assignment is exactly the documented tie-break order: sensor v
        // takes slot v mod T. A regression guard for the serve replay of
        // the cool-core tie-break contract.
        let text = "sensors = 6\ntargets = 1\nregion = 10\nradius = 1000\n";
        let it = item(&format!("{{\"scenario\":{}}}", escape(text)));
        let (scenario, warnings) = resolve_and_lint(&it).unwrap();
        let t_slots = scenario.build().unwrap().cycle.slots_per_period();
        let expected: Vec<usize> = (0..6).map(|v| v % t_slots).collect();
        let body = compute_response(&scenario, &Algorithm::Greedy, &warnings).unwrap();
        let assignment = json::parse(&body)
            .unwrap()
            .get("schedule")
            .and_then(|s| s.get("assignment"))
            .map(|a| format!("{a:?}"))
            .unwrap();
        assert_eq!(
            assignment,
            format!(
                "{:?}",
                Value::Array(expected.iter().map(|&t| Value::Number(t as f64)).collect())
            ),
            "greedy tie-break drifted"
        );
    }

    #[test]
    fn error_envelope_shape() {
        let err = ApiError::timeout(500);
        let body = err.body();
        assert!(body.contains("\"code\":\"COOL-E017\""));
        assert!(body.contains("request-timeout"));
        let err = ApiError::overloaded();
        assert!(err.body().contains("COOL-E018"));
        assert_eq!(err.status, 429);
    }
}
