//! Versioned search checkpoints: a checkpoint records how far a search
//! had run, not what it held. With an iteration budget the search is
//! deterministic, so each stage count's state is a pure function of the
//! request and the number of iterations it has run. A checkpoint keeps
//! that number per stage count (a [`StagePosition`]) and a resume
//! replays every stage count to it. The replayed events, counters, memo
//! table, visited set and backtrack heap equal the paused run's bit for
//! bit, so the resumed run's best configuration, `best_time` float bits,
//! merged event stream and every counter equal an uninterrupted run's.
//!
//! A checkpoint is bound to its search by three fingerprints (model,
//! cluster, options) plus the metrics flag; resuming against anything
//! else fails with [`CheckpointError::Mismatch`], and a position the
//! search cannot have reached fails with [`CheckpointError::Position`]
//! — callers degrade to a fresh search, they never resume across
//! incompatible inputs.

use crate::primitives::{Primitive, Resource};
use crate::search::{AcesoSearch, SearchOptions};
use aceso_cluster::ClusterSpec;
use aceso_model::ModelGraph;
use aceso_profile::ProfileDb;
use aceso_util::fsio::{self, Fs};
use aceso_util::json::{obj, JsonError, ToJson, Value};
use aceso_util::FnvHasher;
use std::path::Path;

/// Version of the checkpoint wire format. Bumped on any change to the
/// JSON shape; a daemon that finds a checkpoint with an unknown version
/// runs a fresh search instead of guessing.
///
/// Older spools are not migrated: they fail with
/// [`CheckpointError::UnknownSchemaVersion`] and the daemon runs a fresh
/// search. docs/SEARCH.md ("Checkpoints") records what each version
/// changed.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 8;

/// Stable fingerprint of a model's profile-relevant content: the
/// sequence of operator signatures (order-sensitively hashed — op order
/// is part of the model), precision, and global batch.
pub fn model_fingerprint(model: &ModelGraph) -> u64 {
    let mut h = FnvHasher::new();
    for op in &model.ops {
        h.write_u64(ProfileDb::op_signature(op));
    }
    h.write_bytes(
        model
            .precision
            .to_json_value()
            .to_string_compact()
            .as_bytes(),
    );
    h.write_usize(model.global_batch);
    h.finish()
}

/// Stable fingerprint of a cluster topology (its canonical JSON form).
pub fn cluster_fingerprint(cluster: &ClusterSpec) -> u64 {
    let mut h = FnvHasher::new();
    h.write_bytes(cluster.to_json_value().to_string_compact().as_bytes());
    h.finish()
}

/// Stable fingerprint of every [`SearchOptions`] field that affects the
/// deterministic result. `time_budget` is deliberately excluded: it
/// does not change what an unexpired search computes, and a resumed
/// search must be allowed a fresh wall-clock budget.
pub fn options_fingerprint(o: &SearchOptions) -> u64 {
    let mut h = FnvHasher::new();
    h.write_usize(o.max_hops);
    h.write_usize(o.max_iterations);
    match &o.stage_counts {
        Some(cs) => {
            h.write_bool(true);
            h.write_usize(cs.len());
            for &c in cs {
                h.write_usize(c);
            }
        }
        None => h.write_bool(false),
    }
    h.write_usize(o.top_k);
    h.write_bool(o.fine_tune);
    h.write_bool(o.use_heuristic2);
    h.write_u64(o.seed);
    h.write_usize(o.branch_limit);
    h.write_usize(o.max_bottlenecks);
    h.write_bool(o.gen_options.attach_rc);
    h.write_bool(o.gen_options.relay_moves);
    h.write_bool(o.gen_options.enable_zero);
    match &o.initial {
        Some(c) => {
            h.write_bool(true);
            h.write_u64(c.semantic_hash());
        }
        None => h.write_bool(false),
    }
    h.finish()
}

/// Maps a deserialised string back to the `&'static str` the search
/// vocabulary uses in events: resource names, primitive names, pipeline
/// schedules, and the `"-"` no-resource placeholder. Returns `None` for
/// anything outside the vocabulary, which event decoding
/// (`Event::from_json_value`) surfaces as a shape error.
pub fn intern_obs_str(s: &str) -> Option<&'static str> {
    if s == "-" {
        return Some("-");
    }
    if let Some(r) = Resource::ALL.iter().find(|r| r.name() == s) {
        return Some(r.name());
    }
    if let Some(p) = Primitive::EXTENDED.iter().find(|p| p.name() == s) {
        return Some(p.name());
    }
    ["1f1b", "gpipe"].iter().find(|&&w| w == s).copied()
}

/// Why a checkpoint could not be loaded or resumed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The checkpoint file could not be read ([`read_checkpoint`]).
    Io(std::io::Error),
    /// Malformed JSON, or JSON of the wrong shape (including truncation).
    Json(JsonError),
    /// The checkpoint was written by an unknown (likely newer) format.
    UnknownSchemaVersion(u64),
    /// The checkpoint belongs to a different search (the named
    /// fingerprint or flag does not match).
    Mismatch(&'static str),
    /// A stage count's position is one the search cannot have reached.
    Position(PositionError),
}

/// Why a [`StagePosition`] cannot belong to the search it is resumed
/// against. A checkpoint comes from outside the program, so every
/// position is checked before any replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositionError {
    /// The search does not run this stage count.
    UnknownStageCount(usize),
    /// The stage count has two positions.
    DuplicateStageCount(usize),
    /// The stage count ran more iterations than the search's budget.
    IterationsOverBudget {
        /// The stage count.
        stage_count: usize,
        /// Its recorded iterations.
        iterations: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "unreadable checkpoint: {e}"),
            CheckpointError::Json(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::UnknownSchemaVersion(v) => {
                write!(
                    f,
                    "unknown checkpoint schema version {v} (this build writes \
                     {CHECKPOINT_SCHEMA_VERSION})"
                )
            }
            CheckpointError::Mismatch(what) => {
                write!(
                    f,
                    "checkpoint belongs to a different search: {what} differs"
                )
            }
            CheckpointError::Position(PositionError::UnknownStageCount(p)) => {
                write!(
                    f,
                    "checkpoint has a position for stage count {p}, which the search does not run"
                )
            }
            CheckpointError::Position(PositionError::DuplicateStageCount(p)) => {
                write!(f, "checkpoint has two positions for stage count {p}")
            }
            CheckpointError::Position(PositionError::IterationsOverBudget {
                stage_count,
                iterations,
            }) => write!(
                f,
                "checkpoint has stage count {stage_count} at iteration {iterations}, \
                 past the search's iteration budget"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<JsonError> for CheckpointError {
    fn from(e: JsonError) -> Self {
        CheckpointError::Json(e)
    }
}

/// Reads the checkpoint file at `path` through `fs`, decodes it, and
/// checks that it belongs to `search` run with `metrics`
/// ([`AcesoSearch::checkpoint_compatible`]). A missing or unreadable file
/// is [`CheckpointError::Io`]; callers degrade every error to a fresh
/// search.
pub fn read_checkpoint(
    fs: &dyn Fs,
    path: &Path,
    search: &AcesoSearch<'_>,
    metrics: bool,
) -> Result<SearchCheckpoint, CheckpointError> {
    let bytes = fs.read(path).map_err(CheckpointError::Io)?;
    let ckpt = SearchCheckpoint::from_json_str(&String::from_utf8_lossy(&bytes))?;
    search.checkpoint_compatible(&ckpt, metrics)?;
    Ok(ckpt)
}

/// Atomically replaces the file at `path` with `ckpt`: creates the parent
/// directory, writes the sibling `{path}.tmp`, then renames it over
/// `path`, so a kill mid-write leaves the previous complete checkpoint or
/// the new one, never a torn file.
pub fn write_checkpoint(fs: &dyn Fs, path: &Path, ckpt: &SearchCheckpoint) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        fs.create_dir_all(parent)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    fsio::write_atomic(fs, path, Path::new(&tmp), ckpt.to_json_string().as_bytes())
}

/// How far one stage count's search had run: its completed iterations
/// (`SearchTrace::iterations.len()`) and whether it had ended. Replaying
/// the stage count's search for `iterations` iterations rebuilds its
/// state bit for bit; a `done` position that replay leaves open is then
/// ended, as the search would have ended it there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagePosition {
    /// Pipeline stage count.
    pub stage_count: usize,
    /// Iterations the stage count had completed.
    pub iterations: usize,
    /// Whether the stage count's search had ended.
    pub done: bool,
}

/// A complete, versioned search checkpoint.
///
/// Taken between rounds by
/// [`AcesoSearch::run_rounds`](crate::search::AcesoSearch::run_rounds),
/// which also resumes it; serialises to a single JSON document via
/// [`SearchCheckpoint::to_json_string`]. It holds no search state: no
/// configuration, event, metric, trace, visited set, heap, memo key or
/// rng state, only a [`StagePosition`] per stage count that started.
#[derive(Debug, Clone)]
pub struct SearchCheckpoint {
    /// Wire-format version ([`CHECKPOINT_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// [`model_fingerprint`] of the search's model.
    pub model_fingerprint: u64,
    /// [`cluster_fingerprint`] of the search's cluster.
    pub cluster_fingerprint: u64,
    /// [`options_fingerprint`] of the search's options.
    pub options_fingerprint: u64,
    /// Whether the run records observability (must match on resume —
    /// half-recorded streams cannot be spliced).
    pub metrics: bool,
    /// Wall-clock seconds of its time budget the search had used when
    /// the snapshot was taken, replay excluded, as `f64::to_bits` (a
    /// resume adds them to its own clock and deducts them from its time
    /// budget).
    pub elapsed_secs_bits: u64,
    /// One position per stage count that started, sorted by stage count.
    pub stages: Vec<StagePosition>,
}

impl SearchCheckpoint {
    /// Wall-clock seconds the search had run when the snapshot was taken.
    pub fn elapsed_secs(&self) -> f64 {
        f64::from_bits(self.elapsed_secs_bits)
    }

    /// Total search iterations completed across all stage counts.
    pub fn iterations_done(&self) -> usize {
        self.stages.iter().map(|s| s.iterations).sum()
    }

    /// Whether every stage has finished (resuming yields the final
    /// result without any further search work).
    pub fn is_complete(&self) -> bool {
        self.stages.iter().all(|s| s.done)
    }

    /// Serialises to a compact single-line JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json_value().to_string_compact()
    }

    /// The checkpoint as a JSON value.
    pub fn to_json_value(&self) -> Value {
        obj([
            ("schema_version", Value::UInt(self.schema_version)),
            ("model_fingerprint", Value::UInt(self.model_fingerprint)),
            ("cluster_fingerprint", Value::UInt(self.cluster_fingerprint)),
            ("options_fingerprint", Value::UInt(self.options_fingerprint)),
            ("metrics", Value::Bool(self.metrics)),
            ("elapsed_secs_bits", Value::UInt(self.elapsed_secs_bits)),
            (
                "stages",
                Value::Array(
                    self.stages
                        .iter()
                        .map(|s| {
                            Value::Array(vec![
                                Value::UInt(s.stage_count as u64),
                                Value::UInt(s.iterations as u64),
                                Value::Bool(s.done),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a checkpoint document. The schema version is checked
    /// before anything else so a newer format fails with
    /// [`CheckpointError::UnknownSchemaVersion`], not a shape error.
    pub fn from_json_str(text: &str) -> Result<Self, CheckpointError> {
        let v = Value::parse(text).map_err(CheckpointError::Json)?;
        let schema_version = v.field("schema_version")?.as_u64()?;
        if schema_version != CHECKPOINT_SCHEMA_VERSION {
            return Err(CheckpointError::UnknownSchemaVersion(schema_version));
        }
        let mut stages = Vec::new();
        for s in v.field("stages")?.as_array()? {
            let [stage_count, iterations, done] = s.as_array()? else {
                return Err(
                    JsonError::shape("position must be [stage_count, iterations, done]").into(),
                );
            };
            stages.push(StagePosition {
                stage_count: stage_count.as_usize()?,
                iterations: iterations.as_usize()?,
                done: done.as_bool()?,
            });
        }
        Ok(Self {
            schema_version,
            model_fingerprint: v.field("model_fingerprint")?.as_u64()?,
            cluster_fingerprint: v.field("cluster_fingerprint")?.as_u64()?,
            options_fingerprint: v.field("options_fingerprint")?.as_u64()?,
            metrics: v.field("metrics")?.as_bool()?,
            elapsed_secs_bits: v.field("elapsed_secs_bits")?.as_u64()?,
            stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_model::zoo::gpt3_custom;

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        let m = gpt3_custom("t", 4, 512, 8, 256, 8192, 64);
        let m2 = gpt3_custom("u", 6, 512, 8, 256, 8192, 64);
        assert_eq!(model_fingerprint(&m), model_fingerprint(&m));
        assert_ne!(model_fingerprint(&m), model_fingerprint(&m2));
        let c2 = ClusterSpec::v100(1, 2);
        let c4 = ClusterSpec::v100(1, 4);
        assert_eq!(cluster_fingerprint(&c2), cluster_fingerprint(&c2));
        assert_ne!(cluster_fingerprint(&c2), cluster_fingerprint(&c4));
    }

    #[test]
    fn options_fingerprint_tracks_result_affecting_knobs_only() {
        let base = SearchOptions::default();
        let same = options_fingerprint(&base);
        assert_eq!(same, options_fingerprint(&SearchOptions::default()));
        // Result-affecting knobs change the fingerprint.
        let seeded = SearchOptions {
            seed: 7,
            ..SearchOptions::default()
        };
        assert_ne!(same, options_fingerprint(&seeded));
        let hops = SearchOptions {
            max_hops: 3,
            ..SearchOptions::default()
        };
        assert_ne!(same, options_fingerprint(&hops));
        // Wall-clock budget and threading do not.
        let budgeted = SearchOptions {
            time_budget: Some(std::time::Duration::from_secs(1)),
            ..SearchOptions::default()
        };
        assert_eq!(same, options_fingerprint(&budgeted));
    }

    #[test]
    fn interner_covers_the_search_vocabulary_and_nothing_else() {
        for r in Resource::ALL {
            assert_eq!(intern_obs_str(r.name()), Some(r.name()));
        }
        for p in Primitive::EXTENDED {
            assert_eq!(intern_obs_str(p.name()), Some(p.name()));
        }
        assert_eq!(intern_obs_str("-"), Some("-"));
        assert_eq!(intern_obs_str("1f1b"), Some("1f1b"));
        assert_eq!(intern_obs_str("gpipe"), Some("gpipe"));
        assert_eq!(intern_obs_str("inc-banana"), None);
        assert_eq!(intern_obs_str(""), None);
    }

    #[test]
    fn unknown_schema_version_is_detected_before_shape_errors() {
        // A document with the previous or a future version and an
        // otherwise-garbage body must fail on the version, not the body.
        for version in [CHECKPOINT_SCHEMA_VERSION - 1, CHECKPOINT_SCHEMA_VERSION + 1] {
            let text = format!(r#"{{"schema_version":{version},"nonsense":true}}"#);
            match SearchCheckpoint::from_json_str(&text) {
                Err(CheckpointError::UnknownSchemaVersion(v)) => assert_eq!(v, version),
                other => panic!("expected UnknownSchemaVersion({version}), got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_json_is_a_json_error() {
        let text = r#"{"schema_version":3,"model_fingerprint":12,"#;
        match SearchCheckpoint::from_json_str(text) {
            Err(CheckpointError::Json(_)) => {}
            other => panic!("expected Json error, got {other:?}"),
        }
    }
}
