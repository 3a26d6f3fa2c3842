//! Wire types of the simulation service: job specifications in, job states
//! and results out. Everything crosses the wire as JSON through
//! `pasm_util::json`. This module only parses: whether the parsed key can
//! run is decided by `ExperimentKey::validate`, the check `pasm-run` and the
//! runner share, so the simulator's internal `assert!`s never fire on user
//! input.

use pasm::{ExperimentKey, FaultPlan, Mode, Params};
use pasm_machine::{MachineConfig, ReleaseMode};
use pasm_util::Json;

/// Default workload seed (the paper's).
pub const DEFAULT_SEED: u64 = pasm::figures::DEFAULT_SEED;

/// Cycle budget imposed on faulted jobs whose config has no budget of its
/// own: an injected fault can starve a transfer indefinitely (e.g. a stuck
/// network port under polling), and the simulator's deadlock detector only
/// catches *global* arrest. The cap turns such runs into a clean
/// `CycleLimit` failure instead of an unbounded simulation.
pub const FAULT_MAX_CYCLES: u64 = 50_000_000;

/// A validated submission: what to simulate and how long the client will wait.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    pub key: ExperimentKey,
    /// Wall-clock admission deadline in milliseconds from submission: a job
    /// still waiting in the queue when it expires is dropped as `expired`
    /// rather than simulated for nobody. A *running* job past its deadline
    /// is interrupted by the watchdog and fails.
    pub deadline_ms: Option<u64>,
    /// Test-only chaos hook: makes the worker panic *around* the
    /// simulation. Deliberately **not** part of the key — chaos must never
    /// poison the result cache.
    pub chaos: Option<ChaosSpec>,
}

/// What the chaos hook does to the worker processing this job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosSpec {
    /// Panic before simulating — a deterministic bug. The job must end
    /// `failed` with the panic recorded, and the worker slot must survive.
    Panic,
}

/// A client-facing rejection: HTTP status plus a stable error code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest {
    pub message: String,
}

impl BadRequest {
    fn new(message: impl Into<String>) -> Self {
        BadRequest {
            message: message.into(),
        }
    }
}

fn field_u64(body: &Json, name: &str, default: u64) -> Result<u64, BadRequest> {
    match body.get(name) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| BadRequest::new(format!("`{name}` must be a non-negative integer"))),
    }
}

fn field_usize(body: &Json, name: &str) -> Result<Option<usize>, BadRequest> {
    match body.get(name) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| BadRequest::new(format!("`{name}` must be a non-negative integer"))),
    }
}

impl JobSpec {
    /// Parse a `submit` request body into a key that
    /// [`ExperimentKey::validate`] accepts.
    pub fn from_json(body: &Json) -> Result<JobSpec, BadRequest> {
        if !matches!(body, Json::Obj(_)) {
            return Err(BadRequest::new("request body must be a JSON object"));
        }
        let mode_str = body
            .get("mode")
            .and_then(Json::as_str)
            .ok_or_else(|| BadRequest::new("`mode` is required (serial|simd|mimd|smimd)"))?;
        let mode = Mode::parse(mode_str)
            .ok_or_else(|| BadRequest::new(format!("unknown mode `{mode_str}`")))?;
        let n = field_usize(body, "n")?.ok_or_else(|| BadRequest::new("`n` is required"))?;
        let p = match mode {
            Mode::Serial => 1,
            _ => field_usize(body, "p")?.unwrap_or(4),
        };
        let extra_muls = field_usize(body, "extra_muls")?.unwrap_or(0);
        let kernel_name = match body.get("kernel") {
            None | Some(Json::Null) => pasm::MATMUL,
            Some(Json::Str(s)) => s.as_str(),
            Some(_) => return Err(BadRequest::new("`kernel` must be a workload name string")),
        };
        let kernel = pasm::kernels::find(kernel_name).ok_or_else(|| {
            BadRequest::new(format!(
                "unknown kernel `{kernel_name}` (registered: {})",
                pasm::kernels::names().join(", ")
            ))
        })?;
        let seed = field_u64(body, "seed", DEFAULT_SEED)?;
        let deadline_ms = match body.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| BadRequest::new("`deadline_ms` must be an integer"))?,
            ),
        };
        let mut config = machine_config(body.get("config"))?;
        let fault = match body.get("fault") {
            None | Some(Json::Null) => FaultPlan::default(),
            Some(Json::Str(spec)) => {
                FaultPlan::parse(spec).map_err(|e| BadRequest::new(format!("`fault`: {e}")))?
            }
            Some(_) => {
                return Err(BadRequest::new(
                    "`fault` must be a fault-spec string, e.g. \"box:1:0,dead:3\"",
                ))
            }
        };
        if !fault.is_empty() && config.max_cycles == u64::MAX {
            config.max_cycles = FAULT_MAX_CYCLES;
        }
        let chaos = chaos_spec(body.get("chaos"))?;
        let key = ExperimentKey {
            config,
            mode,
            params: Params { n, p, extra_muls },
            seed,
            fault,
            workload: kernel.name(),
        };
        key.validate().map_err(BadRequest::new)?;
        Ok(JobSpec {
            key,
            deadline_ms,
            chaos,
        })
    }
}

/// Parse the optional test-only `chaos` member: `{"kind": "panic"}`.
fn chaos_spec(spec: Option<&Json>) -> Result<Option<ChaosSpec>, BadRequest> {
    let spec = match spec {
        None | Some(Json::Null) => return Ok(None),
        Some(s) => s,
    };
    if !matches!(spec, Json::Obj(_)) {
        return Err(BadRequest::new("`chaos` must be a JSON object"));
    }
    match spec.get("kind").and_then(Json::as_str) {
        Some("panic") => Ok(Some(ChaosSpec::Panic)),
        _ => Err(BadRequest::new("`chaos.kind` must be \"panic\"")),
    }
}

/// Build the machine configuration from the optional `config` member:
/// `{"preset": "prototype"|"small", "release_mode": ..., "queue_capacity_words": ...}`.
fn machine_config(spec: Option<&Json>) -> Result<MachineConfig, BadRequest> {
    let mut cfg = MachineConfig::prototype();
    let Some(spec) = spec else { return Ok(cfg) };
    if matches!(spec, Json::Null) {
        return Ok(cfg);
    }
    if !matches!(spec, Json::Obj(_)) {
        return Err(BadRequest::new("`config` must be a JSON object"));
    }
    if let Some(preset) = spec.get("preset") {
        cfg = match preset.as_str() {
            Some("prototype") => MachineConfig::prototype(),
            Some("small") => MachineConfig::small(),
            _ => {
                return Err(BadRequest::new(
                    "`config.preset` must be \"prototype\" or \"small\"",
                ))
            }
        };
    }
    if let Some(rm) = spec.get("release_mode") {
        cfg.release_mode = match rm.as_str().map(str::to_ascii_lowercase).as_deref() {
            Some("lockstep") => ReleaseMode::Lockstep,
            Some("decoupled") => ReleaseMode::Decoupled,
            _ => {
                return Err(BadRequest::new(
                    "`config.release_mode` must be \"lockstep\" or \"decoupled\"",
                ))
            }
        };
    }
    if let Some(cap) = field_usize(spec, "queue_capacity_words")? {
        // Saturated: `ExperimentKey::validate` bounds the queue.
        cfg.queue_capacity_words = u32::try_from(cap).unwrap_or(u32::MAX);
    }
    Ok(cfg)
}

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    Queued,
    Running,
    Done,
    Failed,
    Canceled,
    Expired,
}

impl JobStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Canceled => "canceled",
            JobStatus::Expired => "expired",
        }
    }

    /// Terminal states never change again.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// Standard error body: `{"error": code, "message": ...}`.
pub fn error_body(code: &str, message: &str) -> Json {
    Json::obj(vec![
        ("error", Json::Str(code.to_string())),
        ("message", Json::Str(message.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasm_util::json::parse;

    #[test]
    fn minimal_submit_parses_with_defaults() {
        let spec = JobSpec::from_json(&parse(r#"{"mode":"simd","n":16}"#).unwrap()).unwrap();
        assert_eq!(spec.key.mode, Mode::Simd);
        assert_eq!(spec.key.params.n, 16);
        assert_eq!(spec.key.params.p, 4);
        assert_eq!(spec.key.seed, DEFAULT_SEED);
        assert_eq!(spec.key.config, MachineConfig::prototype());
        assert_eq!(spec.deadline_ms, None);
    }

    #[test]
    fn serial_forces_p_1() {
        let spec =
            JobSpec::from_json(&parse(r#"{"mode":"serial","n":10,"p":8}"#).unwrap()).unwrap();
        assert_eq!(spec.key.params.p, 1);
    }

    #[test]
    fn full_submit_parses() {
        let body = parse(
            r#"{"mode":"smimd","n":64,"p":8,"extra_muls":14,"seed":7,"deadline_ms":5000,
                "config":{"preset":"prototype","release_mode":"decoupled","queue_capacity_words":64}}"#,
        )
        .unwrap();
        let spec = JobSpec::from_json(&body).unwrap();
        assert_eq!(spec.key.params.extra_muls, 14);
        assert_eq!(spec.key.config.release_mode, ReleaseMode::Decoupled);
        assert_eq!(spec.key.config.queue_capacity_words, 64);
        assert_eq!(spec.deadline_ms, Some(5000));
    }

    #[test]
    fn invalid_submissions_are_client_errors() {
        for (body, why) in [
            (r#"{"n":16}"#, "missing mode"),
            (r#"{"mode":"warp","n":16}"#, "unknown mode"),
            (r#"{"mode":"simd"}"#, "missing n"),
            (r#"{"mode":"simd","n":16,"p":3}"#, "non-power-of-two p"),
            (r#"{"mode":"simd","n":18,"p":4}"#, "p does not divide n"),
            (r#"{"mode":"simd","n":16,"p":32}"#, "p exceeds n_pes"),
            (r#"{"mode":"serial","n":512}"#, "serial layout exceeds a PE"),
            (
                r#"{"mode":"simd","n":512,"p":2}"#,
                "SIMD layout exceeds a PE",
            ),
            (
                r#"{"mode":"simd","n":256,"p":4,"config":{"preset":"small"}}"#,
                "layout exceeds a small-preset PE",
            ),
            (
                r#"{"mode":"simd","n":16,"config":{"preset":"huge"}}"#,
                "bad preset",
            ),
            (r#"{"mode":"simd","n":16,"seed":-4}"#, "negative seed"),
            (
                r#"{"mode":"simd","n":16,"config":{"queue_capacity_words":2}}"#,
                "queue below one instruction",
            ),
            (
                r#"{"mode":"simd","n":16,"config":{"queue_capacity_words":4294967300}}"#,
                "queue beyond 32 bits",
            ),
            (
                r#"{"mode":"simd","n":16,"extra_muls":1099511627776}"#,
                "extra_muls above MAX_EXTRA_MULS",
            ),
            (
                r#"{"mode":"simd","n":16,"extra_muls":1025}"#,
                "extra_muls one above MAX_EXTRA_MULS",
            ),
            (
                r#"{"mode":"simd","n":16,"chaos":{"kind":"transient","times":2}}"#,
                "chaos kind other than panic",
            ),
            (r#"[1,2]"#, "not an object"),
        ] {
            assert!(
                JobSpec::from_json(&parse(body).unwrap()).is_err(),
                "{why}: {body}"
            );
        }
    }

    #[test]
    fn fault_spec_parses_and_caps_cycles() {
        let spec = JobSpec::from_json(
            &parse(r#"{"mode":"smimd","n":16,"p":8,"fault":"box:1:0,dead:3"}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(spec.key.fault.net.len(), 1);
        assert_eq!(spec.key.fault.pe.len(), 1);
        assert_eq!(spec.key.config.max_cycles, FAULT_MAX_CYCLES);
        // Fault-free submissions keep the unbounded default.
        let clean = JobSpec::from_json(&parse(r#"{"mode":"simd","n":16}"#).unwrap()).unwrap();
        assert!(clean.key.fault.is_empty());
        assert_eq!(clean.key.config.max_cycles, u64::MAX);
    }

    #[test]
    fn bad_fault_specs_are_client_errors() {
        for body in [
            r#"{"mode":"simd","n":16,"fault":"warp:1"}"#,
            r#"{"mode":"simd","n":16,"fault":"dead:99"}"#,
            r#"{"mode":"simd","n":16,"fault":42}"#,
            r#"{"mode":"simd","n":16,"fault":"box:9:0"}"#,
            r#"{"mode":"simd","n":16,"fault":"slow:0:18446744073709551615"}"#,
        ] {
            assert!(JobSpec::from_json(&parse(body).unwrap()).is_err(), "{body}");
        }
    }

    #[test]
    fn chaos_parses_but_stays_out_of_the_key() {
        let a = JobSpec::from_json(
            &parse(r#"{"mode":"simd","n":16,"chaos":{"kind":"panic"}}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(a.chaos, Some(ChaosSpec::Panic));
        let b = JobSpec::from_json(&parse(r#"{"mode":"simd","n":16}"#).unwrap()).unwrap();
        assert_eq!(b.chaos, None);
        assert_eq!(a.key, b.key, "chaos must not affect the cache key");
        assert!(JobSpec::from_json(
            &parse(r#"{"mode":"simd","n":16,"chaos":{"kind":"??"}}"#).unwrap()
        )
        .is_err());
    }

    #[test]
    fn kernel_member_selects_the_workload() {
        let spec = JobSpec::from_json(
            &parse(r#"{"mode":"mimd","kernel":"smooth","n":32,"p":4}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(spec.key.workload, "smooth");
        // Case-insensitive, like the CLI.
        let spec = JobSpec::from_json(
            &parse(r#"{"mode":"simd","kernel":"Bitonic","n":32,"p":4}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(spec.key.workload, "bitonic");
    }

    #[test]
    fn omitted_kernel_is_matmul_and_keeps_the_fingerprint() {
        let implicit = JobSpec::from_json(&parse(r#"{"mode":"simd","n":16}"#).unwrap()).unwrap();
        let explicit =
            JobSpec::from_json(&parse(r#"{"mode":"simd","kernel":"matmul","n":16}"#).unwrap())
                .unwrap();
        assert_eq!(implicit.key, explicit.key);
        assert_eq!(implicit.key.fingerprint(), explicit.key.fingerprint());
    }

    #[test]
    fn bad_kernel_submissions_are_client_errors() {
        for (body, why) in [
            (
                r#"{"mode":"simd","kernel":"warp","n":16}"#,
                "unknown kernel",
            ),
            (r#"{"mode":"simd","kernel":42,"n":16}"#, "non-string kernel"),
            (
                r#"{"mode":"serial","kernel":"reduce","n":16}"#,
                "no serial variant",
            ),
            (
                r#"{"mode":"simd","kernel":"bitonic","n":24,"p":4}"#,
                "block size not a power of two",
            ),
            (r#"{"mode":"simd","n":8,"p":1}"#, "SIMD matmul on one PE"),
            (r#"{"mode":"mimd","n":8,"p":1}"#, "MIMD matmul on one PE"),
            (
                r#"{"mode":"smimd","kernel":"matmul","n":8,"p":1}"#,
                "S/MIMD matmul on one PE",
            ),
        ] {
            let err = JobSpec::from_json(&parse(body).unwrap());
            assert!(err.is_err(), "{why}: {body}");
        }
    }

    #[test]
    fn equal_specs_have_equal_fingerprints() {
        let a = JobSpec::from_json(&parse(r#"{"mode":"mimd","n":32,"p":4}"#).unwrap()).unwrap();
        let b = JobSpec::from_json(&parse(r#"{"mode":"mimd","n":32,"p":4,"seed":1988}"#).unwrap())
            .unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.key.fingerprint(), b.key.fingerprint());
        let c = JobSpec::from_json(&parse(r#"{"mode":"mimd","n":32,"p":4,"seed":2}"#).unwrap())
            .unwrap();
        assert_ne!(a.key.fingerprint(), c.key.fingerprint());
    }
}
